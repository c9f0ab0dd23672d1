"""Acceptance gate: the twelve checks the shipped package must hold.

Each test prints one verdict line under pytest -v. The heavy fixtures
run every bundled evaluation scenario over seeds 1..15 once per session
and the individual checks read aggregates out of that shared sweep.
"""

import dataclasses
import json
import pathlib
import random
import statistics

import pytest

from pcsm.analytic import (
    BufferModelParams,
    buffer_availability_model,
    occupancy_standard,
    steps_to_blacklist,
    trust_closed_form,
)
from pcsm.cli import _sweep
from pcsm.config import load_config
from pcsm.frag_codec import (
    MAX_DATAGRAM_SIZE,
    ExtensionFields,
    FragmentHeader,
    FragmentKind,
    decode_header,
    encode_header,
    fragment_packet,
)
from pcsm.hash_chain import (
    chain_tag,
    next_hash,
    reference_vectors,
    seed_chain,
    sign_fragments,
    validate_fragment,
)
from pcsm.metrics import collect
from pcsm.simulator import simulate
from pcsm.trust_engine import update_score

REPO = pathlib.Path(__file__).parent.parent
CONFIG_DIR = REPO / "configs"
FIXTURES = pathlib.Path(__file__).parent / "fixtures"

ATTACKS = ("early_frag1", "complete_flooding", "header_replay",
           "burst_injection", "late_phase")
STACKS = ("vanilla", "csm", "secupan", "pcsm")
SEEDS = tuple(range(1, 16))


def _sweep_cells(cfgs):
    """Metrics per config over SEEDS, plus audit flags per run.

    Runs through the command line's seed-outer sweep, so configs that
    share a world share each seed's arrival plan.
    """
    slots = {cfg.name: cfg.buffer.slots for cfg in cfgs}

    def keep(result):
        trust_ok = all(0.0 <= score <= 1.0
                       for _, _, score in (result.trust_history or []))
        m = collect(result)
        return m, (result.name, result.seed, m.conservation_ok, trust_ok,
                   result.max_occupancy <= slots[result.name])

    metrics, audits = [], []
    for runs in _sweep(cfgs, SEEDS, keep=keep, trace=True):
        metrics.append([m for m, _ in runs])
        audits.extend(audit for _, audit in runs)
    return metrics, audits


@pytest.fixture(scope="module")
def evaluation():
    """Metrics for every bundled stack x scenario cell, seeds 1..15."""
    jobs = [(sc, st) for sc in ATTACKS for st in STACKS] + [("none", "pcsm")]
    cfgs = [load_config(CONFIG_DIR / f"{stack}-{scenario}.yaml") for scenario, stack in jobs]
    metrics, audits = _sweep_cells(cfgs)
    return dict(zip(jobs, metrics)), audits


@pytest.fixture(scope="module")
def sensitivity_cells():
    """The three named trust-parameter cells on the bundled sweep scenario."""
    base = load_config(CONFIG_DIR / "sensitivity" / "base.yaml")
    named = {"aggressive": (0.7, 0.2), "default": (0.9, 0.3),
             "conservative": (0.95, 0.4)}
    cfgs = [
        dataclasses.replace(
            base,
            name=f"{base.name}-{label}",
            trust=dataclasses.replace(
                base.trust, forgetting_factor=lam, threshold=theta
            ),
        )
        for label, (lam, theta) in named.items()
    ]
    metrics, audits = _sweep_cells(cfgs)
    return dict(zip(named, metrics)), audits


def _mean(cells, key, field):
    return statistics.fmean(getattr(m, field) for m in cells[key])


def test_c01_trust_update_matches_closed_form():
    rng = random.Random(0xACCE57)
    for _ in range(1000):
        t0 = rng.random()
        lam = rng.uniform(0.01, 0.99)
        outcome = rng.choice((0.0, 1.0))
        k = rng.randrange(101)
        score = t0
        for _ in range(k):
            score = update_score(score, lam, outcome)
        assert abs(score - trust_closed_form(t0, lam, outcome, k)) <= 1e-12
    assert steps_to_blacklist(0.8, 0.9, 0.3) == 10


def _validate_train(key, fragments):
    """Walk a signed train receiver-side, returning the first bad index.

    Mirrors the full admission pipeline: chain seeding, per-fragment tag
    checks, then datagram completeness. A train whose tags all pass but
    whose bytes fall short is rejected where the missing piece was due.
    """
    first = fragments[0]
    if first.header.kind is not FragmentKind.FRAG1 or first.header.ext is None:
        return 0
    state = seed_chain(key, first.payload, first.header.ext.nonce)
    if chain_tag(state) != first.header.ext.signature:
        return 0
    for i, frag in enumerate(fragments[1:], start=1):
        ok, state = validate_fragment(state, frag.payload,
                                      frag.header.ext.signature)
        if not ok:
            return i
    received = sum(len(f.payload) for f in fragments)
    if received < first.header.datagram_size:
        return len(fragments)
    return None


def test_c02_signature_chain_soundness_and_tamper_rejection():
    rng = random.Random(20240917)

    # soundness: 500 random trains validate end to end in order
    for _ in range(500):
        key = rng.randbytes(rng.randrange(1, 48))
        payload = rng.randbytes(rng.randrange(1, 500))
        nonce = rng.randbytes(4)
        frags = sign_fragments(key, fragment_packet(payload, rng.randrange(0x10000), True), nonce)
        assert _validate_train(key, frags) is None

    # completeness on three-fragment trains: flips, swaps, deletions
    for round_no in range(12):
        key = rng.randbytes(16)
        payload = rng.randbytes(96 + 96 + rng.randrange(1, 32))
        nonce = rng.randbytes(4)
        pristine = sign_fragments(
            key, fragment_packet(payload, round_no, True), nonce
        )
        assert len(pristine) == 3

        def clone():
            return [dataclasses.replace(f, header=f.header) for f in pristine]

        for idx in range(3):
            for pos in range(len(pristine[idx].payload)):
                tampered = clone()
                body = bytearray(tampered[idx].payload)
                body[pos] ^= 0xFF
                tampered[idx].payload = bytes(body)
                bad = _validate_train(key, tampered)
                assert bad is not None and bad <= idx

        for idx in (0, 1):
            swapped = clone()
            swapped[idx], swapped[idx + 1] = swapped[idx + 1], swapped[idx]
            bad = _validate_train(key, swapped)
            assert bad is not None and bad <= idx

        for idx in range(3):
            shortened = clone()
            del shortened[idx]
            bad = _validate_train(key, shortened)
            assert bad is not None and bad <= idx


def _random_header(rng):
    kind = rng.choice((FragmentKind.FRAG1, FragmentKind.FRAGN))
    tag = rng.randrange(0x10000)
    if kind is FragmentKind.FRAG1:
        size = rng.randrange(MAX_DATAGRAM_SIZE + 1)
        ext = None
        if rng.random() < 0.5:
            ext = ExtensionFields(rng.randrange(256), rng.randbytes(4),
                                  rng.randbytes(8))
        return FragmentHeader(kind, size, tag, 0, ext)
    size = rng.randrange(1, MAX_DATAGRAM_SIZE + 1)
    offset = rng.randrange(0, min(255, (size - 1) // 8) + 1)
    ext = None
    if rng.random() < 0.5:
        ext = ExtensionFields(rng.randrange(256), b"", rng.randbytes(8))
    return FragmentHeader(kind, size, tag, offset, ext)


def test_c03_codec_round_trip_and_stable_goldens():
    rng = random.Random(77)
    for _ in range(10_000):
        header = _random_header(rng)
        encoded = encode_header(header)
        assert decode_header(encoded) == header
        assert encode_header(decode_header(encoded)) == encoded

    frozen = json.loads((FIXTURES / "hash_chain_vectors.json").read_text())
    assert reference_vectors() == frozen
    assert reference_vectors() == reference_vectors()


def test_c04_buffer_reservation_exhaustion_gap(evaluation):
    cells, _ = evaluation
    vanilla = _mean(cells, ("early_frag1", "vanilla"), "pdr")
    shielded = _mean(cells, ("early_frag1", "pcsm"), "pdr")
    assert vanilla <= 60.0
    assert shielded >= 95.0


def test_c05_delivery_ordering_across_stacks(evaluation):
    cells, _ = evaluation
    for scenario in ATTACKS:
        by_stack = {s: _mean(cells, (scenario, s), "pdr") for s in STACKS}
        assert by_stack["pcsm"] >= by_stack["secupan"] - 1e-9, scenario
        assert by_stack["secupan"] >= by_stack["csm"] - 1e-9, scenario
        assert by_stack["csm"] >= by_stack["vanilla"] - 1e-9, scenario
    burst_gap = (_mean(cells, ("burst_injection", "pcsm"), "pdr")
                 - _mean(cells, ("burst_injection", "vanilla"), "pdr"))
    assert burst_gap >= 30.0


def test_c06_legitimate_drop_rate_gap_under_burst(evaluation):
    cells, _ = evaluation
    ours = _mean(cells, ("burst_injection", "pcsm"), "legit_drop_rate")
    reference = _mean(cells, ("burst_injection", "csm"), "legit_drop_rate")
    assert ours <= reference / 4.0


def test_c07_detection_latency_bounds(evaluation):
    cells, _ = evaluation
    for scenario in ATTACKS:
        latencies = [m.detection_latency_s for m in cells[(scenario, "pcsm")]]
        # a run without detection counts as unbounded latency
        filled = [v if v is not None else float("inf") for v in latencies]
        assert statistics.median(filled) <= 7.0, scenario
        if scenario == "burst_injection":
            assert statistics.median(filled) <= 5.5
        baseline = cells[(scenario, "vanilla")]
        assert all(m.detection_latency_s is None for m in baseline), scenario


def test_c08_flooding_energy_gap(evaluation):
    cells, _ = evaluation
    ours = _mean(cells, ("complete_flooding", "pcsm"), "avg_power_mw")
    mac_baseline = _mean(cells, ("complete_flooding", "secupan"), "avg_power_mw")
    assert ours < mac_baseline
    assert mac_baseline >= 1.25 * ours


def test_c09_sensitivity_monotonicity(sensitivity_cells):
    cells, _ = sensitivity_cells

    def ident(label):
        values = [m.identification_latency_s for m in cells[label]]
        assert all(v is not None for v in values), label
        return statistics.fmean(values)

    def blocks(label):
        return statistics.fmean(m.false_block_rate for m in cells[label])

    assert ident("aggressive") < ident("default") < ident("conservative")
    assert blocks("aggressive") > blocks("default") > blocks("conservative")


def _no_attack_availability(evaluation):
    cells, _ = evaluation
    return _mean(cells, ("none", "pcsm"), "mean_availability")


def test_c10_availability_matches_contention_model(evaluation):
    """Empirical slot availability against the contention-ratio form."""
    empirical = _no_attack_availability(evaluation)
    params = BufferModelParams(legit_rate=24.0 / 90.0, attack_rate=0.0,
                               slots=2, timeout=10.0)
    rho, predicted = buffer_availability_model(params)
    assert rho == pytest.approx(24.0 / 90.0 / 20.0)
    assert abs(empirical - predicted) <= 0.05


@pytest.mark.xfail(
    strict=True,
    reason="the slot-seconds occupancy variant saturates at this load "
           "(occupancy 1.0, availability 0.0) while measured availability "
           "stays near 0.98; kept as the documented defect it is",
)
def test_c10_availability_matches_occupancy_standard_variant(evaluation):
    empirical = _no_attack_availability(evaluation)
    params = BufferModelParams(legit_rate=24.0 / 90.0, attack_rate=0.0,
                               slots=2, timeout=10.0)
    predicted = 1.0 - occupancy_standard(params)
    assert abs(empirical - predicted) <= 0.05


def _frame_lines(result):
    rows = []
    for rec in result.records:
        rows.append((rec.time, rec.source, rec.origin, rec.kind.name,
                     rec.disposition, rec.prefiltered))
    for d in result.delivered:
        rows.append((d.time, d.source, d.origin, d.tag, d.intact))
    rows.append(sorted(result.node_power_mw.items()))
    rows.append((result.mean_availability, result.max_occupancy,
                 result.identified_at))
    return repr(rows).encode()


def test_c11_repeated_runs_are_byte_identical():
    for name in ("pcsm-burst_injection", "vanilla-early_frag1"):
        cfg = load_config(CONFIG_DIR / f"{name}.yaml")
        first = _frame_lines(simulate(cfg, 7, trace=True))
        second = _frame_lines(simulate(cfg, 7, trace=True))
        assert first == second


def test_c12_conservation_and_bounds_hold_everywhere(evaluation, sensitivity_cells):
    _, audits = evaluation
    _, sweep_audits = sensitivity_cells
    for name, seed, conserved, trust_ok, occupancy_ok in (
        audits + sweep_audits
    ):
        assert conserved, (name, seed)
        assert trust_ok, (name, seed)
        assert occupancy_ok, (name, seed)
