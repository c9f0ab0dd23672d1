"""One admission contract, four receiver stacks.

Each case drives every stack through the same traffic and pins what
the stack answers: the drop reason, the CPU charged, the per-source
block count and which sessions an eviction hands back.  The stacks
differ only in their gates, so the expected values differ only where
a gate is present:

- vanilla: no gate; an open-session collision is a structural DUPLICATE.
- csm: a consecutive-failure block after three timeouts, no checks.
- secupan: a per-fragment MAC charged on every outcome, a replay ledger.
- pcsm: a blocked-source filter, the ledger, the trust screen and a
  chained hash charged per seed or verify.
"""

import pytest

from pcsm.baselines import (
    MAC_CPU_MS,
    CsmLikeStack,
    SecuPanLikeStack,
    VanillaStack,
    mac_sign_fragments,
)
from pcsm.frag_codec import fragment_packet
from pcsm.hash_chain import sign_fragments
from pcsm.reassembly import HASH_CPU_MS, AdmitStatus, DropReason, PredictiveCsmStack
from pcsm.trust_engine import TrustParams

KEY = b"shared-group-key"
NONCE = b"\x00\x00\x00\x07"
STORED, DELIVERED, DROPPED = AdmitStatus.STORED, AdmitStatus.DELIVERED, AdmitStatus.DROPPED


def _make(name):
    if name == "vanilla":
        return VanillaStack(slots=2, timeout=10.0)
    if name == "csm":
        return CsmLikeStack(slots=2, timeout=10.0, failure_limit=3, block_duration=60.0)
    if name == "secupan":
        return SecuPanLikeStack(KEY, slots=2, timeout=10.0)
    return PredictiveCsmStack(KEY, TrustParams(), slots=2, timeout=10.0)


def _train(name, payload, tag, source, nonce=NONCE):
    """A datagram in the wire format the stack expects from a sender."""
    frags = fragment_packet(payload, tag, with_extension=name in ("secupan", "pcsm"))
    if name == "secupan":
        return mac_sign_fragments(KEY, frags, nonce, source)
    if name == "pcsm":
        sign_fragments(KEY, frags, nonce)
    for f in frags:
        f.source = source
    return frags


# CPU a stack charges on every outcome past its blocked-source gate,
# and what an accepted first fragment costs in total.
VERIFY_CPU = {"vanilla": 0.0, "csm": 0.0, "secupan": MAC_CPU_MS, "pcsm": 0.0}
FIRST_CPU = {"vanilla": 0.0, "csm": 0.0, "secupan": MAC_CPU_MS, "pcsm": HASH_CPU_MS}

STACKS = ("vanilla", "csm", "secupan", "pcsm")


@pytest.mark.parametrize(
    "name, reason",
    [
        ("vanilla", DropReason.DUPLICATE),
        ("csm", DropReason.DUPLICATE),
        ("secupan", DropReason.REPLAY),
        ("pcsm", DropReason.REPLAY),
    ],
)
def test_duplicate_frag1(name, reason):
    stack = _make(name)
    first = _train(name, bytes(200), 5, 3)[0]
    ok = stack.admit(first, 100.0)
    assert (ok.status, ok.cpu_ms) == (STORED, FIRST_CPU[name])
    res = stack.admit(first, 100.5)
    assert (res.status, res.reason, res.cpu_ms) == (DROPPED, reason, VERIFY_CPU[name])
    assert stack.block_events == {}
    assert len(stack.buffer.sessions) == 1


@pytest.mark.parametrize("name", STACKS)
def test_orphan_fragn(name):
    stack = _make(name)
    orphan = _train(name, bytes(200), 31, 6)[1]  # its Frag1 was lost
    res = stack.admit(orphan, 100.0)
    assert (res.status, res.reason, res.cpu_ms) == (
        DROPPED, DropReason.NO_SESSION, VERIFY_CPU[name],
    )
    assert stack.block_events == {}
    assert stack.drain_evictions() == []


@pytest.mark.parametrize(
    "name, outcome, final",
    [
        ("vanilla", (STORED, None, 0.0), DELIVERED),
        ("csm", (STORED, None, 0.0), DELIVERED),
        # the MAC checks each fragment alone: the last one is stored
        ("secupan", (DROPPED, DropReason.BAD_SIGNATURE, MAC_CPU_MS), STORED),
        # the chain did not advance, so the last one fails too
        ("pcsm", (DROPPED, DropReason.BAD_SIGNATURE, HASH_CPU_MS), DROPPED),
    ],
)
def test_tampered_fragn(name, outcome, final):
    stack = _make(name)
    frags = _train(name, bytes(range(200)), 9, 6)
    assert stack.admit(frags[0], 100.0).status is STORED
    frags[1].payload = b"!" + frags[1].payload[1:]
    res = stack.admit(frags[1], 100.1)
    assert (res.status, res.reason, res.cpu_ms) == outcome
    assert stack.block_events == {}
    assert stack.admit(frags[2], 100.2).status is final


@pytest.mark.parametrize("name", STACKS)
def test_third_frag1_with_both_slots_full(name):
    stack = _make(name)
    for source, tag in ((1, 10), (2, 20)):
        assert stack.admit(_train(name, bytes(200), tag, source)[0], 100.0).status is STORED
    res = stack.admit(_train(name, bytes(200), 30, 3)[0], 100.0)
    assert (res.status, res.reason, res.cpu_ms) == (
        DROPPED, DropReason.BUFFER_FULL, VERIFY_CPU[name],
    )
    assert stack.buffer.availability() == 0.0
    assert stack.block_events == {}


@pytest.mark.parametrize(
    "name, evicted, blocked",
    [
        ("vanilla", [[100], [101], [102]], False),
        ("csm", [[100], [101], [102]], True),
        ("secupan", [[100], [101], [102]], False),
        # a first fragment 20 s after the last one is anomalous: screened out
        ("pcsm", [[100], [], []], True),
    ],
)
def test_blocked_source(name, evicted, blocked):
    """Three reassemblies that time out, then orphan continuations, from one source."""
    stack = _make(name)
    ticks = []
    for i in range(3):
        t0 = 20.0 * i
        stack.admit(_train(name, bytes(200), 100 + i, 9)[0], t0)
        ticks.append([s.tag for s in stack.tick(t0 + 10.5)])
    assert ticks == evicted
    for k in range(4):
        stack.admit(_train(name, bytes(200), 200 + k, 9)[1], 55.0 + k)
    assert stack.block_events == ({9: 1} if blocked else {})

    res = stack.admit(_train(name, bytes(200), 300, 9)[0], 60.0)
    if blocked:
        assert (res.status, res.reason, res.cpu_ms) == (DROPPED, DropReason.UNTRUSTED, 0.0)
        assert stack.buffer.sessions == {}
    else:
        assert (res.status, res.cpu_ms) == (STORED, FIRST_CPU[name])
    # other sources still flow
    other = stack.admit(_train(name, bytes(64), 301, 2)[0], 60.1)
    assert (other.status, other.cpu_ms) == (DELIVERED, FIRST_CPU[name])


@pytest.mark.parametrize("name", STACKS)
def test_timeout(name):
    stack = _make(name)
    stack.admit(_train(name, bytes(200), 11, 8)[0], 10.0)
    assert stack.tick(20.0) == []  # boundary not yet crossed
    assert [s.tag for s in stack.tick(20.01)] == [11]
    assert stack.buffer.sessions == {}
    assert stack.block_events == {}
    # a delivered datagram never shows up in evictions
    for i, f in enumerate(_train(name, bytes(200), 12, 8)):
        stack.admit(f, 50.0 + 0.1 * i)
    assert stack.tick(70.0) == []


@pytest.mark.parametrize("name", STACKS)
def test_flush(name):
    stack = _make(name)
    stack.admit(_train(name, bytes(200), 88, 1)[0], 100.0)
    stack.admit(_train(name, bytes(200), 89, 2)[0], 100.0)
    assert sorted(s.tag for s in stack.flush(101.0)) == [88, 89]
    assert stack.buffer.availability() == 1.0
    assert stack.block_events == {}
    assert stack.flush(102.0) == []
