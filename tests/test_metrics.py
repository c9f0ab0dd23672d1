"""Metric reduction: latency scans, rates, aggregation."""

import dataclasses
import json
import math
import statistics

import pytest

from pcsm.config import STACKS, parse_config
from pcsm.frag_codec import FragmentKind
from pcsm.attacks import ATTACK_KINDS
from pcsm.metrics import (
    DROP_DISPOSITIONS,
    FINAL_DISPOSITIONS,
    RunMetrics,
    aggregate,
    collect,
    compute_pdr,
    detection_latency,
    render_table,
)
from pcsm.simulator import DeliveredRecord, FrameRecord, RunResult, simulate


def _rec(time, disposition, origin=9):
    return FrameRecord(time, origin, origin, FragmentKind.FRAG1, disposition)


def test_pdr_basic():
    assert compute_pdr(160, 160) == 100.0
    assert compute_pdr(160, 87) == 54.375
    assert compute_pdr(0, 0) == 100.0


def test_detection_latency_no_arrivals():
    assert detection_latency([], 9, 900.0) is None


def test_detection_latency_immediate_gating():
    recs = [_rec(900.0 + i, "untrusted") for i in range(5)]
    assert detection_latency(recs, 9, 900.0) == 0.0


def test_detection_latency_suffix_boundary():
    recs = [
        _rec(900.0, "timeout"),
        _rec(901.0, "untrusted"),
        _rec(902.0, "replay"),
        _rec(903.0, "bad_signature"),
    ]
    assert detection_latency(recs, 9, 900.0) == 1.0


def test_detection_latency_never_suppressed():
    recs = [_rec(900.0, "untrusted"), _rec(905.0, "delivered")]
    assert detection_latency(recs, 9, 900.0) is None


def test_detection_latency_ignores_other_sources_and_warmup():
    recs = [
        _rec(850.0, "delivered"),           # pre-onset traffic does not count
        _rec(901.0, "buffer_full", origin=3),
        _rec(902.0, "untrusted"),
    ]
    assert detection_latency(recs, 9, 900.0) == 0.0


def test_detection_latency_sorts_arrivals():
    recs = [
        _rec(903.0, "untrusted"),
        _rec(900.0, "no_session"),
        _rec(901.5, "untrusted"),
    ]
    assert detection_latency(recs, 9, 900.0) == 1.5


def _quiet_run(stack="vanilla", **over):
    data = {
        "stack": stack,
        "duration": 300.0,
        "senders": 2,
        "channel": {"loss_rate": 0.0},
    }
    data.update(over)
    return simulate(parse_config(data, default_name="quiet"), seed=1)


def test_collect_quiet_network_exact_counts():
    # Two senders phase in at 61.25 s and 72.5 s, then every 90 s; three
    # datagrams each fit into 300 s, three fragments per 288-byte payload.
    m = collect(_quiet_run())
    assert m.sent_datagrams == 6
    assert m.delivered_datagrams == 6
    assert m.pdr == 100.0
    assert m.received_fragments == 18
    assert m.legit_fragments == 18
    assert m.legit_drops == 0
    assert m.legit_drops_by_reason == {}
    assert m.attacker_fragments == 0
    assert m.detection_latency_s is None
    assert m.identification_latency_s is None
    assert m.false_blocks == 0
    assert m.conservation_ok
    assert m.attacker_power_mw is None


def test_collect_power_sanity():
    m = collect(_quiet_run())
    # The root only listens, senders only transmit; at equal airtime the
    # higher receive current puts the root above every sender.
    assert m.root_power_mw > 0.0
    assert m.avg_power_mw > 0.0
    assert m.root_power_mw > m.avg_power_mw * 0.9


def test_collect_burst_attack_gates():
    cfg = parse_config(
        {"stack": "pcsm", "attack": {"kind": "burst_injection"}},
        default_name="burst",
    )
    m = collect(simulate(cfg, seed=1))
    assert m.attacker_fragments > 0
    assert m.detection_latency_s is not None
    assert m.detection_latency_s < 5.5
    assert m.identification_latency_s is not None
    assert m.attacker_drops_by_reason.get("untrusted", 0) > 0
    assert m.attacker_power_mw is not None
    assert m.conservation_ok


def test_json_round_trip():
    m = collect(_quiet_run())
    loaded = json.loads(m.to_json())
    assert loaded["pdr"] == 100.0
    assert loaded["stack"] == "vanilla"
    assert list(loaded) == sorted(loaded)


def test_aggregate_statistics():
    a = collect(_quiet_run())
    runs = []
    for pdr, det in ((2.0, None), (4.0, 1.0)):
        runs.append(dataclasses.replace(a, pdr=pdr, detection_latency_s=det))
    agg = aggregate(runs)
    assert agg["runs"] == 2
    assert agg["pdr"]["mean"] == 3.0
    assert agg["pdr"]["median"] == 3.0
    assert agg["pdr"]["min"] == 2.0
    assert agg["pdr"]["max"] == 4.0
    assert math.isclose(agg["pdr"]["stdev"], math.sqrt(2.0))
    assert agg["detection_rate"] == 0.5
    assert agg["detection_latency_s"]["mean"] == 1.0
    assert agg["identification_rate"] == 0.0
    assert agg["identification_latency_s"] is None


def test_aggregate_rejects_empty():
    with pytest.raises(ValueError):
        aggregate([])


def test_render_table_alignment():
    rows = [
        {"stack": "vanilla", "pdr": "47.74"},
        {"stack": "pcsm", "pdr": "99.35"},
    ]
    text = render_table(rows, ["stack", "pdr"])
    lines = text.splitlines()
    assert lines[0].startswith("stack")
    assert set(lines[1]) <= {"-", " "}
    assert "vanilla" in lines[2] and "99.35" in lines[3]


def _reference_drops_by_reason(records):
    drops = {}
    for rec in records:
        if rec.disposition in DROP_DISPOSITIONS:
            drops[rec.disposition] = drops.get(rec.disposition, 0) + 1
    return drops


def _reference_collect(result):
    """The multi-pass reduction collect() replaced, kept as its reference."""
    attacker = result.attacker
    legit = [r for r in result.records if r.origin != attacker]
    hostile = [r for r in result.records if attacker is not None and r.origin == attacker]
    legit_drops = _reference_drops_by_reason(legit)
    hostile_drops = _reference_drops_by_reason(hostile)
    sent = sum(result.sent_datagrams.values())
    delivered = sum(1 for d in result.delivered if d.origin != attacker and d.intact)
    attacker_delivered = sum(1 for d in result.delivered if d.origin == attacker)
    n_legit_drops = sum(legit_drops.values())
    n_hostile_drops = sum(hostile_drops.values())
    if attacker is not None and result.attack_start is not None:
        det = detection_latency(result.records, attacker, result.attack_start)
        ident = (
            result.identified_at - result.attack_start
            if result.identified_at is not None
            else None
        )
    else:
        det = None
        ident = None
    false_blocks = sum(
        count for node, count in result.block_events.items() if node != attacker
    )
    non_attacker_power = [p for node, p in result.node_power_mw.items() if node != attacker]
    stray = sum(1 for r in result.records if r.disposition not in FINAL_DISPOSITIONS)
    return RunMetrics(
        name=result.name,
        stack=result.stack,
        seed=result.seed,
        attack_kind=result.attack_kind,
        duration=result.duration,
        sent_datagrams=sent,
        delivered_datagrams=delivered,
        pdr=compute_pdr(sent, delivered),
        received_fragments=len(result.records),
        legit_fragments=len(legit),
        legit_drops=n_legit_drops,
        legit_drop_rate=100.0 * n_legit_drops / len(legit) if legit else 0.0,
        legit_drops_by_reason=dict(sorted(legit_drops.items())),
        attacker_fragments=len(hostile),
        attacker_drops=n_hostile_drops,
        attacker_drops_by_reason=dict(sorted(hostile_drops.items())),
        attacker_delivered_datagrams=attacker_delivered,
        detection_latency_s=det,
        identification_latency_s=ident,
        false_blocks=false_blocks,
        false_block_rate=100.0 * false_blocks / sent if sent else 0.0,
        avg_power_mw=statistics.fmean(non_attacker_power),
        root_power_mw=result.node_power_mw[0],
        attacker_power_mw=(
            result.node_power_mw[attacker] if attacker is not None else None
        ),
        mean_availability=result.mean_availability,
        max_occupancy=result.max_occupancy,
        conservation_ok=stray == 0,
    )


@pytest.mark.parametrize("kind", ("none",) + ATTACK_KINDS)
@pytest.mark.parametrize("stack", STACKS)
def test_collect_matches_the_multi_pass_reference(stack, kind):
    attack = {"kind": kind} if kind == "none" else {"kind": kind, "start": 600.0}
    cfg = parse_config({"stack": stack, "duration": 1000.0, "attack": attack}, default_name="ref")
    result = simulate(cfg, seed=3)
    assert collect(result).to_json() == _reference_collect(result).to_json()


def _hand_built_result(records, attacker, attack_start):
    nodes = {0: 1.0, 1: 2.0, 2: 3.0}
    if attacker is not None:
        nodes[attacker] = 4.0
    return RunResult(
        name="hand", stack="pcsm", seed=0, duration=100.0, senders=2,
        attacker=attacker, attack_kind=None if attacker is None else "late_phase",
        attack_start=attack_start, sent_datagrams={1: 3, 2: 2},
        sent_fragments={1: 9, 2: 6}, records=records,
        delivered=[DeliveredRecord(12.0, 1, 1, 4, True), DeliveredRecord(13.0, 2, 2, 5, False)]
        + ([DeliveredRecord(40.0, attacker, attacker, 9, True)] if attacker is not None else []),
        identified_at=None if attacker is None else 45.0, mean_availability=0.75,
        max_occupancy=2, node_power_mw=nodes, block_events={1: 1, 9: 2},
    )


@pytest.mark.parametrize("attacker,attack_start", [(9, 30.0), (None, None), (9, None)])
def test_collect_matches_reference_on_hand_built_records(attacker, attack_start):
    # out-of-order times, a stray disposition, and hostile frames on
    # both sides of the attack start
    hostile = 9 if attacker is None else attacker
    records = [
        FrameRecord(50.0, 9, hostile, FragmentKind.FRAG1, "untrusted", True),
        FrameRecord(10.0, 1, 1, FragmentKind.FRAG1, "delivered"),
        FrameRecord(35.0, 9, hostile, FragmentKind.FRAGN, "no_session"),
        FrameRecord(20.0, 9, hostile, FragmentKind.FRAG1, "delivered"),
        FrameRecord(11.0, 2, 2, FragmentKind.FRAGN, "bad_signature"),
        FrameRecord(31.0, 9, hostile, FragmentKind.FRAG1, "replay"),
        FrameRecord(12.0, 1, 1, FragmentKind.FRAGN, "stored"),
        FrameRecord(49.0, 9, hostile, FragmentKind.FRAG1, "untrusted"),
        FrameRecord(31.0, 9, hostile, FragmentKind.FRAGN, "buffer_full"),
    ]
    result = _hand_built_result(records, attacker, attack_start)
    assert collect(result).to_json() == _reference_collect(result).to_json()
