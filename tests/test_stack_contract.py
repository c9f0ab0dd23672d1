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

from pcsm import baselines
from pcsm.attacks import ScheduledSend
from pcsm.baselines import MAC_CPU_MS, mac_sign_fragments
from pcsm.config import STACKS, parse_config
from pcsm.frag_codec import ExtensionFields, Fragment, FragmentHeader, FragmentKind
from pcsm.hash_chain import sign_fragments
from pcsm.reassembly import HASH_CPU_MS, AdmitStatus, DropReason
from pcsm.simulator import signed_fragments

KEY = b"shared-group-key"
NONCE = b"\x00\x00\x00\x07"
STORED, DELIVERED, DROPPED = AdmitStatus.STORED, AdmitStatus.DELIVERED, AdmitStatus.DROPPED


def _make(name):
    """The stack a default config names: two slots, a 10 s timeout, 60 s blocks."""
    cfg = parse_config({"name": "contract", "stack": name, "key": KEY.decode()})
    return baselines.STACKS[name].from_config(cfg, trace=False)


def _train(name, payload, tag, source, nonce=NONCE):
    """A datagram in the wire format the stack expects from a sender."""
    send = ScheduledSend(0.0, source, tag, nonce, payload)
    frags = signed_fragments(KEY, send, baselines.STACKS[name].SIGNER)
    for f in frags:
        f.source = source
    return frags


# CPU a stack charges on every outcome past its blocked-source gate,
# and what an accepted first fragment, or a continuation checked
# against its session, costs in total.
VERIFY_CPU = {"vanilla": 0.0, "csm": 0.0, "secupan": MAC_CPU_MS, "pcsm": 0.0}
FIRST_CPU = {"vanilla": 0.0, "csm": 0.0, "secupan": MAC_CPU_MS, "pcsm": HASH_CPU_MS}


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


def _trust_state(stack, source):
    """What a drop could move: the pcsm score, the csm failure count."""
    engine = getattr(stack, "engine", None)
    score = engine.state(source).score if engine is not None else None
    return score, getattr(stack, "failures", {}).get(source)


@pytest.mark.parametrize(
    "name, outcome",
    [
        ("vanilla", (DropReason.DUPLICATE, 0.0)),
        ("csm", (DropReason.DUPLICATE, 0.0)),
        # the MAC is valid, so the overlap check is what stops it
        ("secupan", (DropReason.DUPLICATE, MAC_CPU_MS)),
        # the chain has moved past it
        ("pcsm", (DropReason.BAD_SIGNATURE, HASH_CPU_MS)),
    ],
)
def test_repeated_fragn_never_completes_a_datagram(name, outcome):
    payload = bytes(range(256)) + bytes(32)
    stack = _make(name)
    frags = _train(name, payload, 14, 4)
    assert stack.admit(frags[0], 100.0).status is STORED
    assert stack.admit(frags[1], 100.1).status is STORED
    res = stack.admit(frags[1], 100.15)
    assert (res.status, res.reason, res.cpu_ms) == (DROPPED, *outcome)
    done = stack.admit(frags[2], 100.2)
    assert (done.status, done.payload) == (DELIVERED, payload)
    assert stack.block_events == {}


@pytest.mark.parametrize(
    "name, outcome",
    [
        ("vanilla", (DropReason.DUPLICATE, 0.0)),
        ("csm", (DropReason.DUPLICATE, 0.0)),
        # the MAC covers the offset
        ("secupan", (DropReason.BAD_SIGNATURE, MAC_CPU_MS)),
        # the chain covers payloads, not offsets: it passes, the overlap check stops it
        ("pcsm", (DropReason.DUPLICATE, HASH_CPU_MS)),
    ],
)
def test_overlapping_fragn_is_a_duplicate_with_no_trust_effect(name, outcome):
    payload = bytes(range(200))
    stack = _make(name)
    frags = _train(name, payload, 15, 4)
    assert stack.admit(frags[0], 100.0).status is STORED
    before = _trust_state(stack, 4)
    # the second fragment moved 32 bytes back, over the end of the first
    h = frags[1].header
    moved = Fragment(type(h)(h.kind, h.datagram_size, h.datagram_tag, 8, h.ext),
                     frags[1].payload, 4)
    res = stack.admit(moved, 100.1)
    assert (res.status, res.reason, res.cpu_ms) == (DROPPED, *outcome)
    assert _trust_state(stack, 4) == before
    # the real fragments still complete the datagram, and only they do
    assert stack.admit(frags[1], 100.2).status is STORED
    done = stack.admit(frags[2], 100.3)
    assert (done.status, done.payload) == (DELIVERED, payload)
    assert stack.block_events == {}


def _shaped_train(name, size, tag, source, parts):
    """Fragments at the given (offset, payload) parts of a size-byte datagram, signed in order."""
    signer = baselines.STACKS[name].SIGNER
    ext = ExtensionFields() if signer is not None else None
    frags = [
        Fragment(FragmentHeader(FragmentKind.FRAGN if offset else FragmentKind.FRAG1, size, tag,
                                offset, ext), payload, source)
        for offset, payload in parts
    ]
    if signer == "chain":
        sign_fragments(KEY, frags, NONCE)
    elif signer == "mac":
        mac_sign_fragments(KEY, frags, NONCE, source)
    return frags


@pytest.mark.parametrize("offset", [12, 24], ids=["overlapping", "overrunning"])
@pytest.mark.parametrize("name", STACKS)
def test_fragn_that_does_not_fit_is_a_duplicate_and_leaves_the_hole_open(name, offset):
    """96 bytes at 0, 8 at offset 12, then 96 at offset 12 or 24: 200 bytes, but not a datagram.

    The third overlaps the second, or runs past the declared 200 bytes;
    either way it is dropped with no trust effect and the session times out.
    """
    stack = _make(name)
    first, short, third = _shaped_train(
        name, 200, 17, 4, [(0, bytes(range(96))), (12, bytes(8)), (offset, bytes(96))])
    assert stack.admit(first, 100.0).status is STORED
    assert stack.admit(short, 100.1).status is STORED
    before = _trust_state(stack, 4)
    res = stack.admit(third, 100.2)
    assert (res.status, res.reason, res.cpu_ms) == (
        DROPPED, DropReason.DUPLICATE, FIRST_CPU[name],
    )
    assert _trust_state(stack, 4) == before
    assert stack.block_events == {}
    assert [s.tag for s in stack.tick(110.5)] == [17]


@pytest.mark.parametrize("name", STACKS)
def test_frag1_longer_than_its_datagram_is_a_duplicate_with_no_trust_effect(name):
    """96 bytes in a first fragment that declares a 64-byte datagram: no session can complete."""
    stack = _make(name)
    [first] = _shaped_train(name, 64, 18, 4, [(0, bytes(96))])
    before = _trust_state(stack, 4)
    ledger = dict(stack.ledger.entries) if stack.ledger is not None else None
    res = stack.admit(first, 10.0)
    assert (res.status, res.reason, res.cpu_ms) == (
        DROPPED, DropReason.DUPLICATE, VERIFY_CPU[name],
    )
    assert _trust_state(stack, 4) == before
    assert (dict(stack.ledger.entries) if stack.ledger is not None else None) == ledger
    assert stack.buffer.sessions == {}
    assert stack.tick(21.0) == []
    assert stack.block_events == {}
    assert _trust_state(stack, 4) == before
