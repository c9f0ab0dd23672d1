"""Admission pipeline tests: gates, slots, ledger, evictions, accounting."""

import math

from pcsm.frag_codec import ExtensionFields, Fragment, FragmentHeader, FragmentKind, fragment_packet
from pcsm.hash_chain import sign_fragments
from pcsm.reassembly import (
    AdmitStatus,
    DropReason,
    PredictiveCsmStack,
    ReassemblyBuffer,
    ReassemblySession,
    ReplayLedger,
)
from pcsm.trust_engine import TrustParams

KEY = b"group-key"


def _train(payload, tag, source, nonce):
    frags = sign_fragments(KEY, fragment_packet(payload, tag, True), nonce)
    for f in frags:
        f.source = source
    return frags


def _stack(**kw):
    return PredictiveCsmStack(KEY, TrustParams(), **kw)


def _orphan_fragn(source, tag, offset=1, size=200):
    header = FragmentHeader(FragmentKind.FRAGN, size, tag, offset, ExtensionFields())
    return Fragment(header, bytes(96), source=source)


def test_ordered_train_delivers_byte_exact():
    stack = _stack()
    payload = bytes(range(200))
    frags = _train(payload, 7, 1, b"\x00\x00\x00\x01")
    r1 = stack.admit(frags[0], 100.0)
    r2 = stack.admit(frags[1], 100.1)
    r3 = stack.admit(frags[2], 100.2)
    assert (r1.status, r2.status, r3.status) == (
        AdmitStatus.STORED,
        AdmitStatus.STORED,
        AdmitStatus.DELIVERED,
    )
    assert r3.payload == payload
    assert len(r3.fragments) == 3
    assert stack.buffer.availability() == 1.0  # slot freed on delivery
    assert stack.engine.state(1).score > 0.55  # evaluate reward + completion reward


def test_single_fragment_datagram_bypasses_buffer():
    stack = _stack()
    frags = _train(b"x" * 96, 3, 2, b"\x00\x00\x00\x02")
    result = stack.admit(frags[0], 50.0)
    assert result.status is AdmitStatus.DELIVERED
    assert result.payload == b"x" * 96
    assert stack.buffer.max_occupancy == 0


def test_buffer_full_drops_when_both_slots_taken():
    stack = _stack(slots=2)
    for source, tag in ((1, 10), (2, 20)):
        first = _train(bytes(200), tag, source, bytes(4))[0]
        assert stack.admit(first, 100.0).status is AdmitStatus.STORED
    third = _train(bytes(200), 30, 3, bytes(4))[0]
    result = stack.admit(third, 100.0)
    assert result.status is AdmitStatus.DROPPED
    assert result.reason is DropReason.BUFFER_FULL
    assert stack.buffer.availability() == 0.0


def test_replay_within_horizon_rejected_without_penalty():
    stack = _stack()
    frags = _train(b"y" * 96, 5, 4, b"\xaa\xbb\xcc\xdd")
    assert stack.admit(frags[0], 100.0).status is AdmitStatus.DELIVERED
    score_after = stack.engine.state(4).score
    replay = Fragment(frags[0].header, frags[0].payload, source=4)
    result = stack.admit(replay, 130.0)
    assert result.reason is DropReason.REPLAY
    assert stack.engine.state(4).score == score_after  # replay never penalizes


def test_replay_beyond_horizon_passes_ledger_but_flags_sequence():
    stack = _stack()
    assert stack.ledger.horizon == 60.0
    frags = _train(b"z" * 96, 6, 5, b"\x01\x02\x03\x04")
    assert stack.admit(frags[0], 300.0).status is AdmitStatus.DELIVERED
    replay = Fragment(frags[0].header, frags[0].payload, source=5)
    result = stack.admit(replay, 400.0)
    # the ledger entry expired; the tag-reuse check flags the sequence,
    # which alone sits below the anomaly threshold
    assert result.status is AdmitStatus.DELIVERED
    assert stack.engine.state(5).sequence_violations == 1


def test_ledger_refresh_on_hit_keeps_entry_hot():
    ledger = ReplayLedger(horizon=60.0, capacity=64)
    ledger.record(1, 7, b"n0n1", 100.0)
    assert ledger.seen(1, 7, b"n0n1", 150.0)  # refreshed to 210
    assert ledger.seen(1, 7, b"n0n1", 205.0)  # refreshed to 265
    assert not ledger.seen(1, 7, b"n0n1", 270.0)


def test_ledger_capacity_is_fifo():
    ledger = ReplayLedger(horizon=1000.0, capacity=3)
    for tag in range(4):
        ledger.record(1, tag, b"abcd", 0.0)
    assert not ledger.seen(1, 0, b"abcd", 1.0)  # oldest evicted
    assert all(ledger.seen(1, tag, b"abcd", 1.0) for tag in (1, 2, 3))


def test_tampered_fragn_stalls_chain_and_penalizes():
    stack = _stack()
    frags = _train(bytes(range(200)), 9, 6, bytes(4))
    stack.admit(frags[0], 100.0)
    score_before = stack.engine.state(6).score
    frags[1].payload = b"!" + frags[1].payload[1:]
    r2 = stack.admit(frags[1], 100.1)
    assert r2.reason is DropReason.BAD_SIGNATURE
    # the chain did not advance, so the untampered final fragment fails too
    r3 = stack.admit(frags[2], 100.2)
    assert r3.reason is DropReason.BAD_SIGNATURE
    assert stack.engine.state(6).score < score_before
    evicted = stack.tick(111.0)
    assert len(evicted) == 1 and evicted[0].tag == 9


def test_orphan_fragn_penalized():
    stack = _stack()
    before = stack.engine.state(7).score
    result = stack.admit(_orphan_fragn(7, 99), 100.0)
    assert result.reason is DropReason.NO_SESSION
    assert stack.engine.state(7).score < before


def test_timeout_evicts_incomplete_only():
    stack = _stack(timeout=10.0)
    frags = _train(bytes(200), 11, 8, bytes(4))
    stack.admit(frags[0], 10.0)
    assert stack.tick(20.0) == []  # boundary not yet crossed
    evicted = stack.tick(20.01)
    assert len(evicted) == 1
    assert evicted[0].received_bytes == 96
    # a delivered session never shows up in evictions
    frags = _train(bytes(200), 12, 8, bytes(4))
    for i, f in enumerate(frags):
        stack.admit(f, 100.0 + 0.1 * i)
    assert stack.tick(150.0) == []


def test_blacklist_purges_open_sessions_and_filters_frames():
    stack = _stack()
    frags = _train(bytes(200), 13, 9, bytes(4))
    stack.admit(frags[0], 100.0)
    assert stack.buffer.availability() == 0.5
    # orphan continuations hammer the score below the threshold
    for k in range(8):
        stack.admit(_orphan_fragn(9, 200 + k), 100.2 + 0.01 * k)
        if stack.engine.is_blocked(9, 100.3):
            break
    assert stack.engine.is_blocked(9, 100.3)
    purged = stack.drain_evictions()
    assert len(purged) == 1 and purged[0].tag == 13
    assert stack.buffer.availability() == 1.0
    # further frames from the blocked source are radio-filtered
    result = stack.admit(_train(bytes(200), 14, 9, bytes(4))[0], 101.0)
    assert result.reason is DropReason.UNTRUSTED
    assert result.cpu_ms == 0.0
    # and contact keeps the block alive
    until_before = stack.engine.state(9).blacklisted_until
    stack.admit(_orphan_fragn(9, 300), 130.0)
    assert stack.engine.state(9).blacklisted_until > until_before


def test_anomalous_frag1_quarantined_even_above_threshold():
    stack = _stack()
    # build trust with nominal deliveries every 90 s
    for k in range(10):
        frags = _train(b"q" * 96, 30 + k, 10, k.to_bytes(4, "big"))
        assert stack.admit(frags[0], 50.0 + 90.0 * k).status is AdmitStatus.DELIVERED
    high = stack.engine.state(10).score
    assert high > 0.8
    burst = _train(bytes(200), 50, 10, b"\xff\x00\x00\x01")[0]
    result = stack.admit(burst, 50.0 + 90.0 * 9 + 0.1)
    assert result.reason is DropReason.UNTRUSTED
    assert stack.buffer.availability() == 1.0  # no slot consumed
    st = stack.engine.state(10)
    assert st.score < high
    assert st.score >= stack.engine.params.threshold
    assert st.blacklisted_until is None


def test_untrusted_attacker_leaves_slot_free_for_legit_traffic():
    stack = _stack()
    # attacker earns a blacklist through orphan injections
    for k in range(10):
        stack.admit(_orphan_fragn(66, 400 + k), 100.0 + 0.01 * k)
    assert stack.engine.is_blocked(66, 100.2)
    spoof = _train(bytes(200), 70, 66, bytes(4))[0]
    assert stack.admit(spoof, 100.2).reason is DropReason.UNTRUSTED
    assert stack.buffer.availability() == 1.0
    legit = _train(bytes(range(200)), 71, 1, b"\x00\x00\x00\x09")
    results = [stack.admit(f, 100.3 + 0.1 * i) for i, f in enumerate(legit)]
    assert results[-1].status is AdmitStatus.DELIVERED


def test_availability_and_time_average():
    buf = ReassemblyBuffer(slots=2, timeout=10.0)
    assert buf.availability() == 1.0
    session = ReassemblySession(1, 1, 200, 0.0, None)
    buf.advance(0.0)
    buf.open(session)
    assert buf.availability() == 0.5
    buf.advance(10.0)
    buf.close(session)
    buf.advance(20.0)
    # one slot busy for 10 s out of 2 slots x 20 s
    assert math.isclose(buf.mean_availability(), 1.0 - 10.0 / 40.0)
    assert buf.max_occupancy == 1


def test_duplicate_frag1_while_session_open_is_replay():
    stack = _stack()
    first = _train(bytes(200), 77, 3, b"\x00\x00\x00\x11")[0]
    stack.admit(first, 100.0)
    dup = Fragment(first.header, first.payload, source=3)
    assert stack.admit(dup, 100.5).reason is DropReason.REPLAY


def test_flush_evicts_everything():
    stack = _stack()
    stack.admit(_train(bytes(200), 88, 1, bytes(4))[0], 100.0)
    stack.admit(_train(bytes(200), 89, 2, bytes(4))[0], 100.0)
    flushed = stack.flush(101.0)
    assert {s.tag for s in flushed} == {88, 89}
    assert stack.buffer.availability() == 1.0


def test_cpu_charges_reflect_hash_operations():
    stack = _stack()
    frags = _train(bytes(200), 91, 4, bytes(4))
    assert stack.admit(frags[0], 100.0).cpu_ms == 0.5  # chain seed
    assert stack.admit(frags[1], 100.1).cpu_ms == 0.5  # verify
    orphan = stack.admit(_orphan_fragn(5, 500), 100.2)
    assert orphan.cpu_ms == 0.0  # dropped before crypto


def _blocked_stack(source, until):
    stack = _stack()
    stack.engine.state(source).blacklisted_until = until
    return stack


def test_prefiltered_frag1_pushes_expiry_and_touches_timing_track():
    stack = _blocked_stack(9, 200.0)
    # now + block_duration (60 s) falls before the current expiry: left alone
    assert stack.filter_frame(9, FragmentKind.FRAG1, 120.0)
    assert stack.engine.state(9).blacklisted_until == 200.0
    assert stack.tracker.tracks[9].last_frag1_time == 120.0
    # now + block_duration is later: the expiry moves to it
    assert stack.filter_frame(9, FragmentKind.FRAG1, 150.0)
    assert stack.engine.state(9).blacklisted_until == 210.0
    assert stack.tracker.tracks[9].last_frag1_time == 150.0


def test_prefiltered_fragn_pushes_expiry_but_leaves_timing_track():
    stack = _blocked_stack(9, 200.0)
    stack.tracker.observe_frag1(9, 1, 100.0)
    assert stack.filter_frame(9, FragmentKind.FRAGN, 170.0)
    assert stack.engine.state(9).blacklisted_until == 230.0
    assert stack.tracker.tracks[9].last_frag1_time == 100.0
    fresh = _blocked_stack(8, 200.0)
    assert fresh.filter_frame(8, FragmentKind.FRAGN, 170.0)
    assert 8 not in fresh.tracker.tracks


def test_prefilter_passes_unknown_and_unblocked_sources_without_state():
    stack = _stack()
    for kind in FragmentKind:
        assert not stack.filter_frame(5, kind, 100.0)
    assert stack.engine.states == {} and stack.tracker.tracks == {}
    lapsed = _blocked_stack(9, 200.0)
    for kind in FragmentKind:
        # the block has lapsed at its expiry instant, and a passed frame
        # neither moves the expiry nor opens a timing track
        assert not lapsed.filter_frame(9, kind, 200.0)
    assert lapsed.engine.state(9).blacklisted_until == 200.0
    assert lapsed.tracker.tracks == {}
    idle = _stack()
    idle.engine.state(4)
    assert not idle.filter_frame(4, FragmentKind.FRAG1, 100.0)
    assert idle.engine.states[4].blacklisted_until is None
    assert idle.tracker.tracks == {}
