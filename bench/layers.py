"""Spans around the calls into each ``src/pcsm`` module, and the per-layer metrics.

``install`` replaces the names that callers look up at call time (module
globals such as ``pcsm.cli.simulate``, and stack class methods) with
wrappers that record spans on a Tracer; ``uninstall`` puts the
originals back.  The program itself is not changed, and a traced sweep
must reproduce the untraced digest byte for byte.

Every workload reports every metric; a layer the workload does not load
reads 0.  Which end-to-end metric each layer should move, and on which
workload:

- simulator (simulate, self, heap, frame allocation, materialization):
  ``wall_s`` on sensitivity first, matrix second; 0 on wire.
- attacks.build: ``wall_s`` on sensitivity; small on matrix, 0 on wire.
- config.load: ``wall_s`` on matrix (24 YAML files).
- frag_codec, hash_chain: ``frames_per_s`` on wire; ~2% of matrix.
- trust_engine: wire (every datagram screened) and sensitivity
  (prefilter lookups).
- reassembly: filter and tick move sensitivity; admit moves matrix and wire.
- baselines: ``wall_s`` on matrix only.
- metrics, cli.write: ``wall_s`` on sensitivity (~29k records per run).
"""

from __future__ import annotations

import heapq
import statistics
from types import SimpleNamespace

from pcsm import baselines, cli, frag_codec, hash_chain, reassembly, simulator, trust_engine

ROOT_SPAN = "sweep"

# (owner, attribute, span name) for spans with no result to inspect.
_SPANS = (
    (cli, "load_config", "config.load"),
    (cli, "collect", "metrics.collect"),
    (cli, "aggregate", "metrics.aggregate"),
    (cli, "_write_text", "cli.write"),
    (simulator, "_legit_schedule", "simulator.schedule"),
    (simulator, "_materialize_emission", "simulator.materialize"),
    (simulator, "_Frame", "simulator.frame_alloc"),
    (simulator, "FrameRecord", "simulator.frame_alloc"),
    (simulator, "fragment_packet", "frag_codec.fragment"),
    (simulator, "sign_fragments", "hash_chain.sign"),
    (simulator, "seed_chain", "hash_chain.seed"),
    (simulator, "fragment_mac", "baselines.mac"),
    (baselines, "fragment_mac", "baselines.mac"),
    (reassembly, "seed_chain", "hash_chain.seed"),
    (frag_codec, "fragment_packet", "frag_codec.fragment"),
    (frag_codec, "encode_header", "frag_codec.encode"),
    (frag_codec, "decode_header", "frag_codec.decode"),
    (hash_chain, "sign_fragments", "hash_chain.sign"),
    (reassembly.PredictiveCsmStack, "filter_frame", "reassembly.pcsm.filter"),
    (reassembly.PredictiveCsmStack, "tick", "reassembly.tick"),
    (reassembly.PredictiveCsmStack, "flush", "reassembly.flush"),
    (reassembly.ReplayLedger, "seen", "reassembly.ledger"),
    (reassembly.ReplayLedger, "record", "reassembly.ledger"),
    (baselines.VanillaStack, "admit", "baselines.vanilla.admit"),
    (baselines.VanillaStack, "tick", "reassembly.tick"),
    (baselines.VanillaStack, "flush", "reassembly.flush"),
    (baselines.CsmLikeStack, "admit", "baselines.csm.admit"),
    (baselines.CsmLikeStack, "tick", "reassembly.tick"),
    (baselines.CsmLikeStack, "flush", "reassembly.flush"),
    (baselines.SecuPanLikeStack, "admit", "baselines.secupan.admit"),
    (baselines.SecuPanLikeStack, "tick", "reassembly.tick"),
    (baselines.SecuPanLikeStack, "flush", "reassembly.flush"),
    (trust_engine.TrustEngine, "evaluate_frag1", "trust_engine.evaluate"),
    (trust_engine.TrustEngine, "update", "trust_engine.update"),
)


def _original(owner, attr):
    # class attributes come from the class's own dict, so a subclass
    # never wraps the method it inherits a second time
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def install(tracer) -> list[tuple[object, str, object]]:
    """Wrap every traced name; returns what ``uninstall`` needs."""
    patches = []

    def patch(owner, attr, replacement):
        patches.append((owner, attr, _original(owner, attr)))
        setattr(owner, attr, replacement)

    def span(owner, attr, name, observe=None, sample=False):
        patch(owner, attr, tracer.wrap(name, _original(owner, attr), observe, sample))

    for owner, attr, name in _SPANS:
        span(owner, attr, name)

    def observe_run(result):
        tracer.add("simulator.frames", len(result.records))
        tracer.add("simulator.prefiltered", sum(1 for r in result.records if r.prefiltered))

    def observe_attack(emissions):
        tracer.add("attacks.emissions", len(emissions))

    def observe_validate(outcome):
        if outcome[0]:
            tracer.add("hash_chain.valid")

    def observe_admit(result):
        if result.status is reassembly.AdmitStatus.DELIVERED:
            tracer.add("reassembly.delivered_frags", len(result.fragments))

    span(cli, "simulate", "simulator.simulate", observe_run, sample=True)
    span(simulator, "build_attack", "attacks.build", observe_attack)
    span(reassembly, "validate_fragment", "hash_chain.validate", observe_validate)
    span(reassembly.PredictiveCsmStack, "admit", "reassembly.pcsm.admit", observe_admit)
    patch(trust_engine.TrustEngine, "is_blocked",
          tracer.counter("trust_engine.is_blocked",
                         _original(trust_engine.TrustEngine, "is_blocked")))
    patch(simulator, "heapq", SimpleNamespace(
        heapify=tracer.wrap("simulator.heap", heapq.heapify),
        heappop=tracer.wrap("simulator.heap", heapq.heappop),
    ))
    return patches


def uninstall(patches) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def sweep_metrics(t, wall: float) -> dict[str, float]:
    """Per-layer busy seconds (``_s``) and call counts (``_n``) for one traced sweep.

    ``wall`` is the traced sweep's host seconds, measured around the root span.
    """
    m: dict[str, float] = {}

    def timed(span, count=True):
        m[span + "_s"] = t.busy(span)
        if count:
            m[span + "_n"] = t.calls(span)

    timed("simulator.simulate", count=False)
    m["simulator.self_s"] = t.self_time("simulator.simulate")
    m["simulator.runs_n"] = t.calls("simulator.simulate")
    m["simulator.frames_n"] = t.counts.get("simulator.frames", 0)
    m["simulator.prefiltered_n"] = t.counts.get("simulator.prefiltered", 0)
    timed("simulator.schedule", count=False)
    timed("simulator.materialize")
    timed("simulator.heap")
    timed("simulator.frame_alloc")
    timed("attacks.build", count=False)
    m["attacks.emissions_n"] = t.counts.get("attacks.emissions", 0)
    timed("config.load")
    timed("frag_codec.fragment")
    timed("frag_codec.encode")
    timed("frag_codec.decode")
    timed("hash_chain.sign")
    timed("hash_chain.seed")
    timed("hash_chain.validate")
    m["hash_chain.valid_ratio"] = _ratio(t.counts.get("hash_chain.valid", 0),
                                         t.calls("hash_chain.validate"))
    timed("trust_engine.evaluate")
    timed("trust_engine.update")
    m["trust_engine.is_blocked_n"] = t.counts.get("trust_engine.is_blocked", 0)
    timed("reassembly.pcsm.filter")
    timed("reassembly.pcsm.admit")
    timed("reassembly.tick")
    timed("reassembly.ledger")
    # the simulator admits only what passed its prefilter call
    m["reassembly.delivered_ratio"] = _ratio(t.counts.get("reassembly.delivered_frags", 0),
                                             t.calls("reassembly.pcsm.admit"))
    timed("baselines.vanilla.admit")
    timed("baselines.csm.admit")
    timed("baselines.secupan.admit")
    timed("baselines.mac")
    timed("metrics.collect")
    timed("metrics.aggregate")
    timed("cli.write")
    m["sweep.self_s"] = t.self_time(ROOT_SPAN)
    m["trace.self_sum_s"] = t.self_sum()
    m["trace.wall_s"] = wall
    m["trace.unaccounted_s"] = wall - m["trace.self_sum_s"]
    m["trace.spans_n"] = sum(acc[0] for acc in t.totals.values())
    return m


def summarize(rows: list[dict[str, float]], run_samples: list[float],
              untraced_wall: float) -> dict[str, float]:
    """Per-layer metrics of a run: the median of each over its traced sweeps.

    ``run_samples`` are the durations of every simulate() call in those
    sweeps; ``untraced_wall`` is the median untraced sweep, against which
    the tracing overhead is taken.
    """
    out = {key: statistics.median(row[key] for row in rows) for key in rows[0]}
    if len(run_samples) >= 2:
        p50 = statistics.median(run_samples)
        p90 = statistics.quantiles(run_samples, n=10)[8]
    else:
        p50 = p90 = run_samples[0] if run_samples else 0.0
    out["simulator.run_ms.p50"] = p50 * 1e3
    out["simulator.run_ms.p90"] = p90 * 1e3
    out["simulator.run_ms.samples"] = len(run_samples)
    out["trace.untraced_wall_s"] = untraced_wall
    out["trace.overhead_s"] = out["trace.wall_s"] - untraced_wall
    out["trace.overhead_ratio"] = out["trace.overhead_s"] / untraced_wall
    return out


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    if ".run_ms.p" in metric:
        return "ms"
    return "count"
