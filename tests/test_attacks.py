"""Adversary schedule builders: geometry, counts, determinism, dispatch, frames built."""

import dataclasses
import pathlib
import random
import time
from bisect import bisect_left
from itertools import accumulate
from typing import NamedTuple

import pytest

from pcsm.attacks import (
    ATTACK_KINDS,
    AttackSchedule,
    AttackSpec,
    ScheduledSend,
    build_attack,
    _forged_frag1s,
    _TagCounter,
)
from pcsm.config import load_config
from pcsm.frag_codec import (
    KIND_CODES,
    MAX_FRAGMENT_PAYLOAD,
    ExtensionFields,
    Fragment,
    FragmentHeader,
    FragmentKind,
    fragment_packet,
)
from pcsm.simulator import EnergyLedger, _corrupt_payload, _row_admitter, plan_arrivals, simulate

REPO = pathlib.Path(__file__).parent.parent


class AttackEmission(NamedTuple):
    """One adversary frame as a record: the reference builders' output form."""

    time: float
    kind: FragmentKind
    claimed_source: int
    datagram_size: int
    tag: int
    offset: int = 0
    payload: bytes = b""
    nonce: bytes = b""
    sig: bytes = bytes(8)
    # a header replay's victim: the legit fragment it copies, the first of its send; else -1
    victim: int = -1


def _row(schedule, i):
    """Row i of a schedule's columns as a record; no nonce or signature reads as the defaults.

    Reads through fill, as the simulator does: only as far as the row's last byte.
    """
    blob = schedule.blob
    at = schedule.payload_at[i]
    nonce_at, sig_at = schedule.nonce_at[i], schedule.sig_at[i]
    schedule.fill(max(at + schedule.payload_len[i], sig_at + 8))
    return AttackEmission(
        schedule.times[i], KIND_CODES[schedule.kinds[i]], schedule.sources[i],
        schedule.sizes[i], schedule.tags[i], schedule.offsets[i],
        bytes(blob[at : at + schedule.payload_len[i]]),
        bytes(blob[nonce_at : nonce_at + 4]) if nonce_at >= 0 else b"",
        bytes(blob[sig_at : sig_at + 8]) if sig_at >= 0 else bytes(8),
        schedule.victims[i],
    )


def _rows(schedule):
    return [_row(schedule, i) for i in range(len(schedule))]


def _send(time, source, tag, payload=None, lost=()):
    if payload is None:
        payload = bytes([source]) * 288
    return ScheduledSend(time, source, tag, tag.to_bytes(4, "big"), payload, lost)


def test_warmup_schedule_is_low_rate_single_fragment_mimicry():
    spec = AttackSpec("early_frag1")
    ems = _rows(build_attack(spec, [], 1800.0, random.Random(1)))
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
    ems = _rows(build_attack(spec, [victim], 1800.0, random.Random(2)))
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
    ems = _rows(build_attack(spec, [_send(800.0, 2, 5)], 1800.0, random.Random(3)))
    assert all(e.time < 900.0 for e in ems)
    assert len(ems) == 10  # warmup only


def test_flooding_emits_complete_wellformed_trains():
    spec = AttackSpec("complete_flooding")
    ems = _rows(build_attack(spec, [], 910.0, random.Random(4)))
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
    ems = _rows(build_attack(spec, sends, 70.0, random.Random(5)))
    assert [e.time for e in ems] == pytest.approx([55.0, 58.0, 61.0, 64.0, 67.0])
    # capture pool holds the four most recent; the emission names its send's first
    # fragment among the legit fragments, three per 288-byte send
    for i, e in enumerate(ems):
        victim = sends[1 + i % 4]
        assert e.victim == 3 * (1 + i % 4)
        assert e.claimed_source == victim.source
        assert e.tag == victim.tag
        assert e.datagram_size == len(victim.payload)
        assert e.payload != victim.payload[:96]
        assert e.kind is FragmentKind.FRAG1
        # the header's nonce and signature are the victim's, taken from its send
        assert (e.nonce, e.sig) == (b"", bytes(8))


def test_replay_pool_excludes_sends_lost_before_the_root():
    lost_first = _send(30.0, 3, 102, lost=(True, False, False))
    sends = [_send(10.0, 1, 100), _send(20.0, 2, 101), lost_first]
    spec = AttackSpec("header_replay", start=40.0, replay_pool=4)
    ems = _rows(build_attack(spec, sends, 60.0, random.Random(6)))
    assert ems
    assert all(e.tag != 102 for e in ems)


def test_replay_silent_when_nothing_was_observed():
    sends = [_send(10.0, 1, 100, lost=(True,))]
    spec = AttackSpec("header_replay", start=40.0)
    assert len(build_attack(spec, sends, 60.0, random.Random(7))) == 0


def test_burst_rate_of_six_gives_sixty_emissions_in_ten_seconds():
    spec = AttackSpec("burst_injection")
    ems = _rows(build_attack(spec, [], 910.0, random.Random(8)))
    burst = [e for e in ems if e.time >= 900.0]
    assert len(burst) == 60
    assert burst[1].time - burst[0].time == pytest.approx(1 / 6)
    assert all(e.kind is FragmentKind.FRAG1 for e in burst)
    assert all(e.datagram_size == 200 for e in burst)
    assert len({e.tag for e in burst}) == 60


def test_late_phase_trails_each_victim_with_orphan_fragments():
    spec = AttackSpec("late_phase")
    victim = _send(1000.0, 5, 33)
    ems = _rows(build_attack(spec, [victim], 1800.0, random.Random(9)))
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
    ems = _rows(build_attack(spec, sends, 1800.0, random.Random(10)))
    times = [e.time for e in ems]
    assert times == sorted(times)


@pytest.mark.parametrize("kind", ATTACK_KINDS)
def test_builders_are_deterministic_per_seed(kind):
    sends = [_send(895.0 + 1.40625 * i, 1 + i % 8, 50 + i) for i in range(8)]
    spec = AttackSpec(kind)
    a = _rows(build_attack(spec, sends, 950.0, random.Random(77)))
    b = _rows(build_attack(spec, sends, 950.0, random.Random(77)))
    c = _rows(build_attack(spec, sends, 950.0, random.Random(78)))
    assert a == b
    assert a != c


@pytest.mark.parametrize("kind", ATTACK_KINDS)
def test_attack_starting_after_the_run_builds_only_up_to_its_end(kind):
    sends = [_send(895.0 + 1.40625 * i, 1 + i % 8, 50 + i) for i in range(8)]
    began = time.perf_counter()
    late = _rows(build_attack(AttackSpec(kind, start=1e9), sends, 1800.0, random.Random(5)))
    assert time.perf_counter() - began < 0.5
    at_end = _rows(build_attack(AttackSpec(kind, start=1800.0), sends, 1800.0, random.Random(5)))
    assert late == at_end


def test_dispatch_rejects_unknown_kind_and_trims_to_duration():
    with pytest.raises(ValueError):
        build_attack(AttackSpec("phantom"), [], 100.0, random.Random(1))
    ems = _rows(build_attack(AttackSpec("burst_injection"), [], 905.0, random.Random(1)))
    assert all(e.time < 905.0 for e in ems)


def test_forged_frag1_draws_the_same_stream_as_separate_randbytes():
    spec = AttackSpec("burst_injection")
    rng, twin = random.Random(11), random.Random(11)
    tags = _TagCounter()
    ems = _rows(_forged_frag1s(spec, AttackSchedule(rng), tags, [float(k) for k in range(50)]))
    assert [em.time for em in ems] == [float(k) for k in range(50)]
    for em in ems:
        assert em.payload == twin.randbytes(MAX_FRAGMENT_PAYLOAD)
        assert em.nonce == twin.randbytes(4)
        assert em.sig == twin.randbytes(8)
    assert rng.getstate() == twin.getstate()


def test_forged_tags_wrap_back_to_the_forged_range_like_take():
    counter, twin = _TagCounter(0xFFFE), _TagCounter(0xFFFE)
    ems = _rows(_forged_frag1s(AttackSpec("burst_injection"), AttackSchedule(random.Random(2)),
                               counter, [0.0] * 4))
    assert [em.tag for em in ems] == [twin.take() for _ in range(4)] == [
        0xFFFE, 0xFFFF, 0x8000, 0x8001,
    ]
    assert counter.next_tag == twin.next_tag == 0x8002


# Reference builders: the per-emission implementation the columnar
# schedule replaced, kept as it was (but for the header replay's victim,
# now its first-fragment index) so the schedule can be checked against it
# emission by emission, rng state included.

class _RefTagCounter:
    def __init__(self, base=0x8000):
        self.next_tag = base

    def take_n(self, n):
        tags = []
        tag = self.next_tag
        for _ in range(n):
            tags.append(tag)
            tag = (tag + 1) % 0x10000 or 0x8000
        self.next_tag = tag
        return tags

    def take(self):
        [tag] = self.take_n(1)
        return tag


def _ref_warmup_emissions(spec, rng, tags, duration):
    out = []
    t = spec.warmup_start
    while t < min(spec.start, duration):
        payload = rng.randbytes(spec.warmup_bytes)
        out.append(AttackEmission(t, FragmentKind.FRAG1, spec.attacker, len(payload), tags.take(),
                                  0, payload, rng.randbytes(4), rng.randbytes(8)))
        t += spec.warmup_interval
    return out


_REF_FORGED_BYTES = MAX_FRAGMENT_PAYLOAD + 4 + 8


def _ref_forged_frag1s(spec, rng, tags, times):
    draw = rng.getrandbits
    frag1, attacker, size = FragmentKind.FRAG1, spec.attacker, spec.forged_size
    out = []
    for when, tag in zip(times, tags.take_n(len(times))):
        blob = draw(8 * _REF_FORGED_BYTES).to_bytes(_REF_FORGED_BYTES, "little")
        out.append(AttackEmission(when, frag1, attacker, size, tag, 0,
                                  blob[:MAX_FRAGMENT_PAYLOAD], blob[MAX_FRAGMENT_PAYLOAD:-8],
                                  blob[-8:]))
    return out


def _ref_early_frag1(spec, legit_sends, duration, rng):
    tags = _RefTagCounter()
    out = _ref_warmup_emissions(spec, rng, tags, duration)
    for send in legit_sends:
        if send.time < spec.start or send.time >= duration:
            continue
        t0 = send.time - spec.early_lead
        out += _ref_forged_frag1s(
            spec, rng, tags, [t0 + k * spec.salvo_spacing for k in range(spec.salvo_size)]
        )
    out.sort(key=lambda e: e.time)
    return out


def _ref_complete_flooding(spec, legit_sends, duration, rng):
    tags = _RefTagCounter()
    out = _ref_warmup_emissions(spec, rng, tags, duration)
    t = spec.start
    while t < duration:
        tag = tags.take()
        nonce = rng.randbytes(4)
        body = rng.randbytes(spec.flood_bytes)
        for j in range(0, len(body), MAX_FRAGMENT_PAYLOAD):
            first = j == 0
            out.append(AttackEmission(
                t + (j // MAX_FRAGMENT_PAYLOAD) * spec.flood_pacing,
                FragmentKind.FRAG1 if first else FragmentKind.FRAGN,
                spec.attacker, len(body), tag, j // 8, body[j : j + MAX_FRAGMENT_PAYLOAD],
                nonce if first else b"", rng.randbytes(8),
            ))
        t += spec.flood_interval
    out.sort(key=lambda e: e.time)
    return out


def _ref_header_replay(spec, legit_sends, duration, rng):
    # each send's first fragment among the legit fragments, as its sender slices them
    firsts = list(accumulate((len(fragment_packet(s.payload, s.tag, False)) for s in legit_sends),
                             initial=0))
    observed = [(i, s) for i, s in enumerate(legit_sends) if not (s.lost and s.lost[0])]
    out = []
    t = spec.start
    n = 0
    while t < duration:
        pool = [(i, s) for i, s in observed if s.time < t][-spec.replay_pool:]
        if pool:
            i, victim = pool[n % len(pool)]
            payload = rng.randbytes(min(MAX_FRAGMENT_PAYLOAD, len(victim.payload)))
            out.append(AttackEmission(
                t, FragmentKind.FRAG1, victim.source, len(victim.payload), victim.tag, 0,
                payload, b"", bytes(8), firsts[i],
            ))
            n += 1
        t += spec.replay_interval
    return out


def _ref_burst_injection(spec, legit_sends, duration, rng):
    tags = _RefTagCounter()
    out = _ref_warmup_emissions(spec, rng, tags, duration)
    times = []
    n = 0
    while True:
        t = spec.start + n / spec.burst_rate
        if t >= duration:
            break
        times.append(t)
        n += 1
    out += _ref_forged_frag1s(spec, rng, tags, times)
    return out


def _ref_late_phase(spec, legit_sends, duration, rng):
    tags = _RefTagCounter()
    out = _ref_warmup_emissions(spec, rng, tags, duration)
    for send in legit_sends:
        if send.time < spec.start or send.time >= duration:
            continue
        for j, tag in enumerate(tags.take_n(spec.late_orphans)):
            payload = rng.randbytes(MAX_FRAGMENT_PAYLOAD)
            out.append(AttackEmission(
                send.time + spec.late_lag + j * spec.late_spacing, FragmentKind.FRAGN,
                spec.attacker, spec.forged_size, tag, MAX_FRAGMENT_PAYLOAD // 8,
                payload, b"", rng.randbytes(8),
            ))
    out.sort(key=lambda e: e.time)
    return out


_REF_BUILDERS = {
    "early_frag1": _ref_early_frag1,
    "complete_flooding": _ref_complete_flooding,
    "header_replay": _ref_header_replay,
    "burst_injection": _ref_burst_injection,
    "late_phase": _ref_late_phase,
}


def _ref_build_attack(spec, legit_sends, duration, rng):
    ems = _REF_BUILDERS[spec.kind](spec, legit_sends, duration, rng)
    return [e for e in ems if e.time < duration]


def _victim_sends(seed):
    """Eight senders from 850 s on, some first fragments lost, payload sizes word-unaligned too."""
    rng = random.Random(f"sends:{seed}")
    sends = []
    for i in range(90):
        size = rng.choice((288, 61, 95, 200, 7))
        lost = (rng.random() < 0.2, False, False)
        sends.append(ScheduledSend(850.0 + 11.25 * i, 1 + i % 8, i + 1, rng.randbytes(4),
                                   rng.randbytes(size), lost))
    return sends


_BURST_WRAP = AttackSpec("burst_injection", start=0.0, warmup_start=0.0, burst_rate=100.0)
_LATE_WRAP = AttackSpec("late_phase", start=0.0, late_orphans=400, forged_size=200)

# (spec, duration)
_CASES = [
    pytest.param(AttackSpec(kind), 1800.0, id=kind) for kind in ATTACK_KINDS
] + [
    pytest.param(AttackSpec(kind, flood_bytes=961, warmup_bytes=63, forged_size=203,
                            warmup_interval=7.0), 1800.0, id=f"{kind}-unaligned")
    for kind in ATTACK_KINDS
] + [
    # more than the 32,768 forged tags, so one counter wraps past 0xFFFF
    pytest.param(_BURST_WRAP, 400.0, id="burst_injection-tag-wrap"),
    pytest.param(_LATE_WRAP, 1800.0, id="late_phase-tag-wrap"),
    # a capture pool that fills from empty, then moves with every send
    pytest.param(AttackSpec("header_replay", start=850.0, replay_interval=0.05, replay_pool=3),
                 1800.0, id="header_replay-window"),
]


@pytest.mark.parametrize("seed", range(1, 6))
@pytest.mark.parametrize("spec,duration", _CASES)
def test_columnar_schedule_equals_the_per_emission_reference(spec, duration, seed):
    sends = _victim_sends(seed)
    rng, twin = random.Random(seed), random.Random(seed)
    schedule = build_attack(spec, sends, duration, rng)
    got = _rows(schedule)
    want = _ref_build_attack(spec, sends, duration, twin)
    assert got == want
    schedule.fill(schedule.drawn)  # the cut emissions' draws too, which no row reads
    assert rng.getstate() == twin.getstate()


def _drawn_up_to(schedule, end):
    """The blob's length once every draw up to the one that holds byte end-1 is made."""
    ends = list(accumulate(schedule._draws))
    return ends[bisect_left(ends, end)]


@pytest.mark.parametrize("spec,duration", _CASES)
def test_a_schedule_draws_nothing_until_a_read_and_then_only_up_to_it(spec, duration):
    rng = random.Random(4)
    schedule = build_attack(spec, _victim_sends(4), duration, rng)
    assert len(schedule) and schedule.drawn == sum(schedule._draws)
    assert schedule.blob == b"" and rng.getstate() == random.Random(4).getstate()
    for i in (0, len(schedule) // 2):
        at = schedule.payload_at[i]
        end = max(at + schedule.payload_len[i], schedule.sig_at[i] + 8)
        made = max(len(schedule.blob), _drawn_up_to(schedule, end))
        _row(schedule, i)
        assert len(schedule.blob) == made
    assert len(schedule.blob) < schedule.drawn


def _reordered(n, order):
    rows = list(range(n))
    if order == "reverse":
        return rows[::-1]
    if order == "shuffled":
        random.Random(n).shuffle(rows)
        return rows
    return [i for i in rows[::7] for _ in range(3)] + rows  # repeated


@pytest.mark.parametrize("order", ["reverse", "shuffled", "repeated"])
@pytest.mark.parametrize("spec,duration", _CASES)
def test_rows_read_in_any_order_equal_the_eager_reference(spec, duration, order):
    sends = _victim_sends(2)
    rng, twin = random.Random(2), random.Random(2)
    schedule = build_attack(spec, sends, duration, rng)
    want = _ref_build_attack(spec, sends, duration, twin)
    assert len(schedule) == len(want)
    for i in _reordered(len(schedule), order):
        assert _row(schedule, i) == want[i]
    assert schedule.fill(schedule.drawn) == schedule.drawn
    assert rng.getstate() == twin.getstate()
    assert _rows(schedule) == want


def test_a_pcsm_sensitivity_run_draws_under_5_percent_of_its_schedule():
    """The prefilter drops the burst unread, so its bytes are never drawn."""
    cfg = load_config(REPO / "configs/sensitivity/base.yaml")
    assert cfg.stack == "pcsm"
    plan = plan_arrivals(cfg, 1)
    assert plan.attack.drawn > 2_000_000 and not plan.attack.blob
    simulate(cfg, 1, plan=plan)
    assert 0 < len(plan.attack.blob) < 0.05 * plan.attack.drawn


@pytest.mark.parametrize("spec,duration", [(_BURST_WRAP, 400.0), (_LATE_WRAP, 1800.0)])
def test_tag_wrap_cases_reach_the_wrap(spec, duration):
    tags = list(build_attack(spec, _victim_sends(1), duration, random.Random(1)).tags)
    assert 0xFFFF in tags and tags.count(0x8000) >= 2


def _ref_materialize(em, with_ext, legit):
    """The record-based frame builder the column reader replaced, victim branch included."""
    if em.victim >= 0:
        return Fragment(legit[em.victim].header, em.payload, em.claimed_source)
    ext = ExtensionFields(255, em.nonce, em.sig) if with_ext else None
    header = FragmentHeader(em.kind, em.datagram_size, em.tag, em.offset, ext)
    return Fragment(header, em.payload, source=em.claimed_source)


def _gate_fields(frag):
    """The fields admit() hands to admit_fields for frag, record included, less the time."""
    header = frag.header
    _, nonce, signature = header.ext or (None, None, None)
    return (frag.source, header.kind, header.datagram_size, header.datagram_tag,
            header.datagram_offset, nonce, signature, frag.payload, frag.record)


class _FieldStack:
    """Gates that let every frame through and return the fields they were handed."""

    def __init__(self, signer):
        self.SIGNER = signer

    @staticmethod
    def admit_fields(src, kind, size, tag, offset, nonce, signature, payload, now, record):
        return src, kind, size, tag, offset, nonce, signature, payload, record


@pytest.mark.parametrize("seed", range(1, 4))
@pytest.mark.parametrize("kind", ATTACK_KINDS)
def test_frames_built_from_the_columns_equal_the_record_reference(kind, seed):
    """Header fields (ext nonce and signature included), payload as the channel left it,
    source and record of every emission and every legit arrival the admitter hands to the
    gates, against the Fragment the record-based builder makes of it."""
    cfg = load_config(REPO / f"configs/pcsm-{kind}.yaml")
    cfg = dataclasses.replace(cfg, channel=dataclasses.replace(cfg.channel, corruption_rate=0.2))
    ems = _rows(plan_arrivals(cfg, seed).attack)
    assert ems
    for signer in (None, "chain", "mac"):
        # a fresh plan per signer, so that its admitter draws every byte it reads
        plan = plan_arrivals(cfg, seed)
        legit, with_ext = plan.wire(signer).fragments, signer is not None
        admit = _row_admitter(_FieldStack(signer), plan, EnergyLedger())
        for i, em in enumerate(ems):
            want = _ref_materialize(em, with_ext, legit)
            if plan.attack_corrupt[i]:
                want.payload = _corrupt_payload(want.payload)
            want.record = 1000 + i
            assert admit(~i, 1000 + i, 0.0) == _gate_fields(want)
        # the legit arrivals, clean and corrupted, as the root gets them
        rows = [(i, ref) for i, ref in enumerate(plan.refs) if ref >= 0]
        assert {plan.legit_corrupt[ref] for _, ref in rows} == {0, 1}
        for i, ref in rows:
            sent = legit[ref]
            payload = _corrupt_payload(sent.payload) if plan.legit_corrupt[ref] else sent.payload
            assert admit(ref, i, 0.0) == _gate_fields(Fragment(sent.header, payload,
                                                               plan.sources[i], i))
