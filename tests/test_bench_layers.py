"""Every name the benchmark's tracing wraps exists, and uninstalling puts each one back.

bench/layers.py looks its targets up by name (module globals, and admit,
tick and flush in each stack class's own namespace), so renaming or
folding one of them breaks traced benchmark runs while every other test
still passes.
"""

import importlib
import pathlib

from pcsm import baselines, cli, frag_codec, hash_chain, reassembly, simulator, trust_engine

BENCH = pathlib.Path(__file__).parent.parent / "bench"

# every module and class bench/layers.py patches
_OWNERS = (
    baselines, cli, frag_codec, hash_chain, reassembly, simulator, trust_engine,
    reassembly.PredictiveCsmStack, reassembly.ReplayLedger, baselines.VanillaStack,
    baselines.CsmLikeStack, baselines.SecuPanLikeStack, trust_engine.TrustEngine,
)
_PATCHES = 40


def test_tracing_wraps_every_traced_name_and_uninstall_restores_each(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    layers, spans = importlib.import_module("layers"), importlib.import_module("spans")
    before = [(owner, dict(vars(owner))) for owner in _OWNERS]
    try:
        patches = layers.install(spans.Tracer())
        assert len(patches) == _PATCHES
        for owner, attr, original in patches:
            assert owner in _OWNERS
            assert vars(owner)[attr] is not original
        layers.uninstall(patches)
        for owner, attrs in before:
            now = vars(owner)
            assert [k for k in attrs if now.get(k) is not attrs[k]] == []
            assert now.keys() == attrs.keys()
    finally:
        # an install that failed part way must not leave wrappers for later tests
        for owner, attrs in before:
            for name, value in attrs.items():
                if vars(owner).get(name) is not value:
                    setattr(owner, name, value)
