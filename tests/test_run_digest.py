"""Whole-run digests of bundled scenarios, pinned to the last float bit.

Each digest covers a run's full per-frame trace (time, source, origin,
kind, disposition, prefilter flag, trust history) and its collected
metrics, so a change to event ordering, tick handling or any metric
shows up here even when the acceptance aggregates stay within bounds.
Regenerate the fixture only for a change that alters simulated
behaviour on purpose:

    PYTHONPATH=src python tests/test_run_digest.py
"""

import hashlib
import json
import pathlib

import pytest

from pcsm.cli import _trace_lines
from pcsm.config import load_config
from pcsm.metrics import collect
from pcsm.simulator import simulate

REPO = pathlib.Path(__file__).parent.parent
FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "run_digests.json"

CASES = [
    (f"configs/{path.name}", seed)
    for path in sorted((REPO / "configs").glob("*.yaml"))
    for seed in (1, 2)
] + [("configs/sensitivity/base.yaml", 1)]


def run_digest(config: str, seed: int) -> str:
    result = simulate(load_config(REPO / config), seed, trace=True)
    text = "".join(line + "\n" for line in _trace_lines(result))
    text += json.dumps(collect(result).to_dict(), sort_keys=True) + "\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _key(config: str, seed: int) -> str:
    return f"{config}:{seed}"


def test_fixture_covers_every_case():
    assert sorted(json.loads(FIXTURE.read_text(encoding="utf-8"))) == sorted(
        _key(c, s) for c, s in CASES
    )


@pytest.mark.parametrize("config,seed", CASES, ids=[_key(c, s) for c, s in CASES])
def test_run_digest_is_unchanged(config, seed):
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))[_key(config, seed)]
    assert run_digest(config, seed) == expected


if __name__ == "__main__":
    table = {_key(c, s): run_digest(c, s) for c, s in CASES}
    FIXTURE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
