"""Adversary schedule builders: geometry, counts, determinism, dispatch."""

import random
import time

import pytest

from pcsm.attacks import (
    ATTACK_KINDS,
    AttackSpec,
    ScheduledSend,
    build_attack,
    build_burst_injection,
    build_complete_flooding,
    build_early_frag1,
    build_header_replay,
    build_late_phase,
    _forged_frag1s,
    _TagCounter,
)
from pcsm.frag_codec import MAX_FRAGMENT_PAYLOAD, FragmentKind


def _send(time, source, tag, payload=None, lost=()):
    if payload is None:
        payload = bytes([source]) * 288
    return ScheduledSend(time, source, tag, tag.to_bytes(4, "big"), payload, lost)


def test_warmup_schedule_is_low_rate_single_fragment_mimicry():
    spec = AttackSpec("early_frag1")
    ems = build_early_frag1(spec, [], 1800.0, random.Random(1))
    # no victims past the start time, so only the warmup remains
    assert [e.time for e in ems] == [50.0 + 90.0 * k for k in range(10)]
    assert all(e.claimed_source == spec.attacker for e in ems)
    assert all(e.kind is FragmentKind.FRAG1 for e in ems)
    # single fragment datagrams: declared size equals the payload on the wire
    assert all(e.datagram_size == len(e.payload) == 64 for e in ems)
    assert len({e.tag for e in ems}) == len(ems)


def test_early_salvo_lands_just_before_the_victim():
    spec = AttackSpec("early_frag1")
    victim = _send(1000.0, 3, 17)
    ems = build_early_frag1(spec, [victim], 1800.0, random.Random(2))
    salvo = [e for e in ems if e.time > 900.0]
    assert len(salvo) == spec.salvo_size == 12
    expected = [1000.0 - 0.005 + k * 0.0004 for k in range(12)]
    assert [e.time for e in salvo] == pytest.approx(expected)
    assert all(e.time < victim.time for e in salvo)
    assert all(e.claimed_source == spec.attacker for e in salvo)
    # forged reservations always claim a multi-fragment datagram
    assert all(e.datagram_size == 200 and len(e.payload) == 96 for e in salvo)
    assert len({e.tag for e in salvo}) == 12


def test_early_salvo_skips_sends_before_attack_start():
    spec = AttackSpec("early_frag1")
    ems = build_early_frag1(spec, [_send(800.0, 2, 5)], 1800.0, random.Random(3))
    assert all(e.time < 900.0 for e in ems)
    assert len(ems) == 10  # warmup only


def test_flooding_emits_complete_wellformed_trains():
    spec = AttackSpec("complete_flooding")
    ems = build_complete_flooding(spec, [], 910.0, random.Random(4))
    trains = [e for e in ems if e.time >= 900.0]
    # trains at 900.0, 901.5, ... 909.0: seven of them, ten fragments each
    assert len(trains) == 7 * 10
    first = trains[:10]
    assert first[0].kind is FragmentKind.FRAG1
    assert all(e.kind is FragmentKind.FRAGN for e in first[1:])
    assert len({e.tag for e in first}) == 1
    assert [e.offset for e in first] == [12 * k for k in range(10)]
    assert [e.time for e in first] == pytest.approx([900.0 + 0.1 * k for k in range(10)])
    assert all(e.datagram_size == 960 and len(e.payload) == 96 for e in first)
    assert first[0].nonce != b"" and all(e.nonce == b"" for e in first[1:])
    # consecutive trains use fresh tags
    assert trains[10].tag != trains[0].tag


def test_replay_reuses_observed_headers_with_fresh_payloads():
    sends = [_send(10.0 * (i + 1), i + 1, 100 + i) for i in range(5)]
    spec = AttackSpec("header_replay", start=55.0)
    ems = build_header_replay(spec, sends, 70.0, random.Random(5))
    assert [e.time for e in ems] == pytest.approx([55.0, 58.0, 61.0, 64.0, 67.0])
    pool = sends[-4:]  # capture pool holds the four most recent
    for i, e in enumerate(ems):
        victim = pool[i % 4]
        assert e.claimed_source == victim.source
        assert e.tag == victim.tag
        assert e.nonce == victim.nonce
        assert e.datagram_size == len(victim.payload)
        assert e.replayed_payload == victim.payload[:96]
        assert e.payload != victim.payload[:96]
        assert e.kind is FragmentKind.FRAG1


def test_replay_pool_excludes_sends_lost_before_the_root():
    lost_first = _send(30.0, 3, 102, lost=(True, False, False))
    sends = [_send(10.0, 1, 100), _send(20.0, 2, 101), lost_first]
    spec = AttackSpec("header_replay", start=40.0, replay_pool=4)
    ems = build_header_replay(spec, sends, 60.0, random.Random(6))
    assert ems
    assert all(e.tag != 102 for e in ems)


def test_replay_silent_when_nothing_was_observed():
    sends = [_send(10.0, 1, 100, lost=(True,))]
    spec = AttackSpec("header_replay", start=40.0)
    assert build_header_replay(spec, sends, 60.0, random.Random(7)) == []


def test_burst_rate_of_six_gives_sixty_emissions_in_ten_seconds():
    spec = AttackSpec("burst_injection")
    ems = build_burst_injection(spec, [], 910.0, random.Random(8))
    burst = [e for e in ems if e.time >= 900.0]
    assert len(burst) == 60
    assert burst[1].time - burst[0].time == pytest.approx(1 / 6)
    assert all(e.kind is FragmentKind.FRAG1 for e in burst)
    assert all(e.datagram_size == 200 for e in burst)
    assert len({e.tag for e in burst}) == 60


def test_late_phase_trails_each_victim_with_orphan_fragments():
    spec = AttackSpec("late_phase")
    victim = _send(1000.0, 5, 33)
    ems = build_late_phase(spec, [victim], 1800.0, random.Random(9))
    orphans = [e for e in ems if e.time > 900.0]
    assert len(orphans) == spec.late_orphans == 16
    assert [e.time for e in orphans] == pytest.approx(
        [1000.05 + 0.1 * j for j in range(16)]
    )
    assert all(e.kind is FragmentKind.FRAGN for e in orphans)
    assert all(e.claimed_source == spec.attacker for e in orphans)
    assert all(e.offset == 12 and e.nonce == b"" for e in orphans)
    # sixteen distinct never-announced tags
    assert len({e.tag for e in orphans}) == 16
    assert all(e.tag != victim.tag for e in orphans)


def test_overlapping_late_bursts_stay_time_sorted():
    spec = AttackSpec("late_phase")
    sends = [_send(1000.0, 1, 1), _send(1001.4, 2, 2)]
    ems = build_late_phase(spec, sends, 1800.0, random.Random(10))
    times = [e.time for e in ems]
    assert times == sorted(times)


@pytest.mark.parametrize("kind", ATTACK_KINDS)
def test_builders_are_deterministic_per_seed(kind):
    sends = [_send(895.0 + 1.40625 * i, 1 + i % 8, 50 + i) for i in range(8)]
    spec = AttackSpec(kind)
    a = build_attack(spec, sends, 950.0, random.Random(77))
    b = build_attack(spec, sends, 950.0, random.Random(77))
    c = build_attack(spec, sends, 950.0, random.Random(78))
    assert a == b
    assert a != c


@pytest.mark.parametrize("kind", ATTACK_KINDS)
def test_attack_starting_after_the_run_builds_only_up_to_its_end(kind):
    sends = [_send(895.0 + 1.40625 * i, 1 + i % 8, 50 + i) for i in range(8)]
    began = time.perf_counter()
    late = build_attack(AttackSpec(kind, start=1e9), sends, 1800.0, random.Random(5))
    assert time.perf_counter() - began < 0.5
    at_end = build_attack(AttackSpec(kind, start=1800.0), sends, 1800.0, random.Random(5))
    assert late == at_end


def test_dispatch_rejects_unknown_kind_and_trims_to_duration():
    with pytest.raises(ValueError):
        build_attack(AttackSpec("phantom"), [], 100.0, random.Random(1))
    ems = build_attack(AttackSpec("burst_injection"), [], 905.0, random.Random(1))
    assert all(e.time < 905.0 for e in ems)


def test_forged_frag1_draws_the_same_stream_as_separate_randbytes():
    spec = AttackSpec("burst_injection")
    rng, twin = random.Random(11), random.Random(11)
    tags = _TagCounter()
    ems = _forged_frag1s(spec, rng, tags, [float(k) for k in range(50)])
    assert [em.time for em in ems] == [float(k) for k in range(50)]
    for em in ems:
        assert em.payload == twin.randbytes(MAX_FRAGMENT_PAYLOAD)
        assert em.nonce == twin.randbytes(4)
        assert em.sig == twin.randbytes(8)
    assert rng.getstate() == twin.getstate()


def test_emissions_are_immutable():
    [em] = _forged_frag1s(AttackSpec("burst_injection"), random.Random(1), _TagCounter(), [0.0])
    with pytest.raises(AttributeError):
        em.time = 1.0


def test_forged_tags_wrap_back_to_the_forged_range_like_take():
    counter, twin = _TagCounter(0xFFFE), _TagCounter(0xFFFE)
    ems = _forged_frag1s(AttackSpec("burst_injection"), random.Random(2), counter, [0.0] * 4)
    assert [em.tag for em in ems] == [twin.take() for _ in range(4)] == [
        0xFFFE, 0xFFFF, 0x8000, 0x8001,
    ]
    assert counter.next_tag == twin.next_tag == 0x8002
