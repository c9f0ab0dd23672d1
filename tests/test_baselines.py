"""Comparator stack behavior: structural admission, failure counting, per-fragment MACs."""

import hmac
import random
import struct

import pytest

from pcsm.baselines import (
    MAC_CPU_MS,
    CsmLikeStack,
    SecuPanLikeStack,
    VanillaStack,
    fragment_mac,
    mac_sign_fragments,
)
from pcsm.frag_codec import (
    ExtensionFields,
    Fragment,
    FragmentHeader,
    FragmentKind,
    fragment_packet,
)
from pcsm.reassembly import AdmitStatus, DropReason

KEY = b"shared-group-key"


def _plain_train(payload, tag, source):
    frags = fragment_packet(payload, tag, with_extension=False)
    for f in frags:
        f.source = source
    return frags


def _mac_train(payload, tag, source, nonce=b"\x00\x00\x00\x07", key=KEY):
    frags = fragment_packet(payload, tag, with_extension=True)
    return mac_sign_fragments(key, frags, nonce, source)


def _forged_frag1(rng, source, tag, size=200):
    ext = ExtensionFields(255, rng.randbytes(4), rng.randbytes(8))
    header = FragmentHeader(FragmentKind.FRAG1, size, tag, ext=ext)
    return Fragment(header, rng.randbytes(96), source=source)


# ---------------------------------------------------------------- vanilla

def test_vanilla_two_forged_frag1_steal_both_slots():
    stack = VanillaStack(slots=2, timeout=10.0)
    rng = random.Random(1)
    assert stack.admit(_forged_frag1(rng, 9, 100), 0.0).status is AdmitStatus.STORED
    assert stack.admit(_forged_frag1(rng, 9, 101), 0.1).status is AdmitStatus.STORED
    legit = _plain_train(bytes(range(200)) * 1, 7, source=1)
    res = stack.admit(legit[0], 0.2)
    assert res.status is AdmitStatus.DROPPED
    assert res.reason is DropReason.BUFFER_FULL
    # slots recycle only by timeout
    evicted = stack.tick(10.2)
    assert len(evicted) == 2
    assert stack.admit(legit[0], 10.3).status is AdmitStatus.STORED


def test_vanilla_wellformed_garbage_delivers():
    rng = random.Random(2)
    garbage = rng.randbytes(288)
    stack = VanillaStack()
    frags = _plain_train(garbage, 44, source=9)
    out = [stack.admit(f, 0.1 * i) for i, f in enumerate(frags)]
    assert [r.status for r in out] == [
        AdmitStatus.STORED, AdmitStatus.STORED, AdmitStatus.DELIVERED,
    ]
    assert out[-1].payload == garbage
    assert out[-1].cpu_ms == 0.0


def test_vanilla_duplicate_open_frag1_is_structural_drop():
    stack = VanillaStack()
    frags = _plain_train(bytes(200), 5, source=3)
    stack.admit(frags[0], 0.0)
    res = stack.admit(frags[0], 0.5)
    assert res.reason is DropReason.DUPLICATE


def test_vanilla_never_prefilters():
    stack = VanillaStack()
    assert not any(stack.filter_frame(9, kind, t) for kind in FragmentKind for t in (0.0, 0.5))


# ---------------------------------------------------------------- csm-like

def _timeout_one_session(stack, source, tag, t0):
    """Open a session that will never complete, then let it expire."""
    frag = _plain_train(bytes(200), tag, source)[0]
    res = stack.admit(frag, t0)
    evicted = stack.tick(t0 + 10.5)
    return res, evicted


def test_csm_blocks_after_three_consecutive_timeouts():
    stack = CsmLikeStack(block_duration=60.0)
    for i in range(3):
        res, evicted = _timeout_one_session(stack, 9, 100 + i, 20.0 * i)
        assert res.status is AdmitStatus.STORED
        assert len(evicted) == 1
    # third eviction happened at t=50.5, block runs to 110.5
    fourth = _plain_train(bytes(200), 200, 9)[0]
    res = stack.admit(fourth, 60.0)
    assert res.status is AdmitStatus.DROPPED
    assert res.reason is DropReason.UNTRUSTED
    # fragments from other sources flow normally during the block
    other = _plain_train(bytes(64), 201, 2)[0]
    assert stack.admit(other, 60.1).status is AdmitStatus.DELIVERED


def test_csm_block_expires_and_counter_resets():
    stack = CsmLikeStack(block_duration=60.0)
    for i in range(3):
        _timeout_one_session(stack, 9, 100 + i, 20.0 * i)
    assert stack.is_blocked(9, 60.0)
    assert not stack.is_blocked(9, 111.0)
    # one more failure after expiry does not re-block on its own
    res, _ = _timeout_one_session(stack, 9, 300, 120.0)
    assert res.status is AdmitStatus.STORED
    assert not stack.is_blocked(9, 131.0)
    assert stack.failures[9] == 1


def test_csm_delivery_resets_failure_counter():
    stack = CsmLikeStack()
    _timeout_one_session(stack, 4, 100, 0.0)
    _timeout_one_session(stack, 4, 101, 20.0)
    assert stack.failures[4] == 2
    payload = bytes(range(150))
    for frag in _plain_train(payload, 102, 4):
        last = stack.admit(frag, 40.0)
    assert last.status is AdmitStatus.DELIVERED
    assert stack.failures[4] == 0
    # two more timeouts stay under the limit
    _timeout_one_session(stack, 4, 103, 60.0)
    _timeout_one_session(stack, 4, 104, 80.0)
    assert not stack.is_blocked(4, 95.0)


def test_csm_admits_spoofed_fragments_without_validation():
    """No per-fragment check: a forged fragment under a clean identity passes."""
    stack = CsmLikeStack()
    rng = random.Random(3)
    spoof = Fragment(
        FragmentHeader(FragmentKind.FRAG1, 200, 777), rng.randbytes(96), source=1
    )
    assert stack.admit(spoof, 5.0).status is AdmitStatus.STORED


def test_csm_fresh_identity_gets_free_datagrams_before_block():
    """Each new claimed source is admitted at least once before any block forms."""
    stack = CsmLikeStack()
    for i, src in enumerate(range(50, 55)):
        frag = _plain_train(bytes(200), 900 + i, src)[0]
        assert stack.admit(frag, 100.0 + i * 20).status is AdmitStatus.STORED
        stack.tick(100.0 + i * 20 + 10.5)


def test_csm_multisource_evictions_attributed_separately():
    stack = CsmLikeStack(slots=4)
    for src in (5, 6):
        frag = _plain_train(bytes(200), src, src)[0]
        stack.admit(frag, 0.0)
    stack.tick(10.5)
    assert stack.failures[5] == 1
    assert stack.failures[6] == 1
    assert not stack.is_blocked(5, 11.0)


# ---------------------------------------------------------------- secupan-like

def test_secupan_valid_train_delivers_with_per_fragment_charge():
    payload = bytes(range(256)) + bytes(32)
    stack = SecuPanLikeStack(KEY)
    out = [stack.admit(f, 0.1 * i) for i, f in enumerate(_mac_train(payload, 9, 2))]
    assert [r.status for r in out] == [
        AdmitStatus.STORED, AdmitStatus.STORED, AdmitStatus.DELIVERED,
    ]
    assert out[-1].payload == payload
    assert all(r.cpu_ms == MAC_CPU_MS for r in out)


def test_secupan_flood_of_100_costs_100_verifications():
    stack = SecuPanLikeStack(KEY)
    rng = random.Random(4)
    results = [stack.admit(_forged_frag1(rng, 9, tag), 0.01 * tag) for tag in range(100)]
    assert all(r.reason is DropReason.BAD_SIGNATURE for r in results)
    assert sum(r.cpu_ms for r in results) == pytest.approx(100 * MAC_CPU_MS)
    assert stack.buffer.max_occupancy == 0


def test_secupan_bit_error_drops_single_fragment_only():
    payload = bytes(range(200)) + bytes(88)
    stack = SecuPanLikeStack(KEY)
    frags = _mac_train(payload, 11, 3)
    frags[1].payload = frags[1].payload[:-1] + bytes([frags[1].payload[-1] ^ 0x40])
    out = [stack.admit(f, 0.1 * i) for i, f in enumerate(frags)]
    assert out[0].status is AdmitStatus.STORED
    assert out[1].reason is DropReason.BAD_SIGNATURE
    assert out[2].status is AdmitStatus.STORED
    # the chain is not poisoned, but the datagram stays incomplete and expires
    session = stack.buffer.sessions[(3, 11)]
    assert session.received_bytes == 192
    assert len(stack.tick(11.0)) == 1


def test_secupan_duplicate_frag1_is_replay():
    payload = bytes(range(150))
    stack = SecuPanLikeStack(KEY)
    frags = _mac_train(payload, 21, 5)
    for f in frags:
        stack.admit(f, 1.0)
    res = stack.admit(frags[0], 30.0)
    assert res.reason is DropReason.REPLAY
    assert res.cpu_ms == MAC_CPU_MS


def test_secupan_valid_orphan_costs_verification_then_no_session():
    payload = bytes(range(200))
    stack = SecuPanLikeStack(KEY)
    frags = _mac_train(payload, 31, 6)
    res = stack.admit(frags[1], 0.0)  # Frag1 lost in transit
    assert res.reason is DropReason.NO_SESSION
    assert res.cpu_ms == MAC_CPU_MS


def test_secupan_mac_binds_source_position_and_nonce():
    payload = bytes(range(200))
    frags = _mac_train(payload, 41, 7)
    stack = SecuPanLikeStack(KEY)

    stolen = Fragment(frags[0].header, frags[0].payload, source=8)
    assert stack.admit(stolen, 0.0).reason is DropReason.BAD_SIGNATURE

    retagged = Fragment(
        frags[0].header._replace(datagram_tag=42), frags[0].payload, source=7
    )
    assert stack.admit(retagged, 0.1).reason is DropReason.BAD_SIGNATURE

    renonced_ext = ExtensionFields(255, b"\xde\xad\xbe\xef", frags[0].header.ext.signature)
    renonced = Fragment(
        frags[0].header._replace(ext=renonced_ext), frags[0].payload, source=7
    )
    assert stack.admit(renonced, 0.2).reason is DropReason.BAD_SIGNATURE


def test_secupan_missing_extension_rejected():
    stack = SecuPanLikeStack(KEY)
    frag = _plain_train(bytes(64), 3, source=2)[0]
    assert stack.admit(frag, 0.0).reason is DropReason.BAD_SIGNATURE


def test_fragment_mac_is_deterministic_and_key_sensitive():
    args = (1, FragmentKind.FRAG1, 200, 7, 0, b"\x00\x00\x00\x01", bytes(96))
    assert fragment_mac(KEY, *args) == fragment_mac(KEY, *args)
    assert fragment_mac(KEY, *args) != fragment_mac(b"other-key", *args)
    assert len(fragment_mac(KEY, *args)) == 8


def _ref_fragment_mac(key, source, kind, size, tag, offset, nonce, payload):
    kind_byte = b"\x01" if kind is FragmentKind.FRAG1 else b"\x02"
    msg = b"fragmac1" + struct.pack(">iHHB", source, size, tag, offset) + kind_byte + nonce + payload
    return hmac.new(key, msg, "sha1").digest()[:8]


def test_fragment_mac_and_signing_match_reference():
    rng = random.Random(0xFA11)
    for _ in range(100):
        key = rng.randbytes(rng.randrange(1, 40))
        nonce = rng.randbytes(4)
        source = rng.randrange(-5, 1000)
        trust_byte = rng.randrange(256)
        payload = rng.randbytes(rng.randrange(1, 2048))
        frags = fragment_packet(payload, rng.randrange(0x10000), with_extension=True)
        expected = []
        for f in frags:
            h = f.header
            frag_nonce = nonce if h.kind is FragmentKind.FRAG1 else b""
            args = (source, h.kind, h.datagram_size, h.datagram_tag, h.datagram_offset,
                    frag_nonce, f.payload)
            sig = _ref_fragment_mac(key, *args)
            assert fragment_mac(key, *args) == sig
            expected.append(h._replace(ext=ExtensionFields(trust_byte, frag_nonce, sig)))
        signed = mac_sign_fragments(key, frags, nonce, source, trust_byte)
        assert [f.header for f in signed] == expected
        assert all(f.source == source for f in signed)


def test_fragment_mac_equals_the_one_shot_hmac():
    keys = [bytes((5 * i + n) % 256 for i in range(n)) for n in (1, 16, 64, 65, 100)]
    for n in range(201):
        payload = bytes((11 * i + n) % 256 for i in range(n))
        for key in keys:
            for kind, nonce in ((FragmentKind.FRAG1, bytes(range(4))), (FragmentKind.FRAGN, b"")):
                args = (n, kind, 200 + n, 0x8000 + n, n % 256, nonce, payload)
                assert fragment_mac(key, *args) == _ref_fragment_mac(key, *args)
