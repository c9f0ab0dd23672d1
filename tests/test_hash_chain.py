"""Chained-hash tests: frozen golden vectors, tamper detection, chain rules."""

import hashlib
import hmac
import json
import pathlib
import random

import pytest

from pcsm.frag_codec import (
    ExtensionFields,
    Fragment,
    FragmentHeader,
    FragmentKind,
    fragment_packet,
)
from pcsm import hash_chain
from pcsm.hash_chain import (
    TAG_LEN,
    ChainLinks,
    EmptyKey,
    HashChainState,
    _digest,
    chain_tag,
    next_hash,
    seed_chain,
    sign_fragments,
    validate_fragment,
)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def _ref_hmac_sha1(key: bytes, msg: bytes) -> bytes:
    """RFC 2104 construction from raw sha1, independent of the hmac module."""
    block = 64
    if len(key) > block:
        key = hashlib.sha1(key).digest()
    key = key + bytes(block - len(key))
    ipad = bytes(b ^ 0x36 for b in key)
    opad = bytes(b ^ 0x5C for b in key)
    return hashlib.sha1(opad + hashlib.sha1(ipad + msg).digest()).digest()


def _verify_train(key: bytes, nonce: bytes, frags) -> int | None:
    """Receiver-side sweep; returns index of first invalid fragment, or None."""
    state = seed_chain(key, frags[0].payload, nonce)
    if chain_tag(state) != frags[0].header.ext.signature:
        return 0
    for i, frag in enumerate(frags[1:], start=1):
        ok, state = validate_fragment(state, frag.payload, frag.header.ext.signature)
        if not ok:
            return i
    return None


def _load_vectors():
    return json.loads((FIXTURES / "hash_chain_vectors.json").read_text())


@pytest.mark.parametrize("vec", _load_vectors(), ids=lambda v: v["name"])
def test_golden_vectors(vec):
    key = bytes.fromhex(vec["key"])
    nonce = bytes.fromhex(vec["nonce"])
    payloads = [bytes.fromhex(p) for p in vec["payloads"]]

    state = seed_chain(key, payloads[0], nonce)
    assert state.prev_hash.hex() == vec["seed_digest"]
    tags = [chain_tag(state).hex()]
    for payload in payloads[1:]:
        state, tag = next_hash(state, payload)
        tags.append(tag.hex())
    assert tags == vec["wire_tags"]

    # fixture self-check against the independent RFC 2104 reference
    ref = _ref_hmac_sha1(key, payloads[0] + nonce)
    assert ref.hex() == vec["seed_digest"]
    for payload, expected in zip(payloads[1:], vec["wire_tags"][1:]):
        ref = _ref_hmac_sha1(key, ref + payload)
        assert ref[:TAG_LEN].hex() == expected


def test_seed_determinism_and_nonce_sensitivity():
    a = seed_chain(b"key", b"payload", b"\x00\x00\x00\x01")
    b = seed_chain(b"key", b"payload", b"\x00\x00\x00\x01")
    c = seed_chain(b"key", b"payload", b"\x00\x00\x00\x02")
    assert a.prev_hash == b.prev_hash
    assert a.prev_hash != c.prev_hash
    assert a.prev_hash == _ref_hmac_sha1(b"key", b"payload\x00\x00\x00\x01")


def test_empty_key_rejected():
    with pytest.raises(EmptyKey):
        seed_chain(b"", b"payload", bytes(4))
    frags = fragment_packet(bytes(range(200)), 7, with_extension=True)
    headers = [f.header for f in frags]
    with pytest.raises(EmptyKey):
        sign_fragments(b"", frags, bytes(4))
    assert all(f.header is h for f, h in zip(frags, headers, strict=True))


def test_zero_length_payload_is_legal():
    state = seed_chain(b"key", b"first", bytes(4))
    advanced, tag = next_hash(state, b"")
    assert tag == _ref_hmac_sha1(b"key", state.prev_hash)[:TAG_LEN]
    assert advanced.prev_hash == _ref_hmac_sha1(b"key", state.prev_hash)


def test_chain_advances_only_on_valid():
    state = seed_chain(b"key", b"first", bytes(4))
    _, good_tag = next_hash(state, b"second")
    ok, stalled = validate_fragment(state, b"second", bytes(TAG_LEN))
    assert not ok
    assert stalled == state
    ok, advanced = validate_fragment(stalled, b"second", good_tag)
    assert ok
    assert advanced.prev_hash == _ref_hmac_sha1(b"key", state.prev_hash + b"second")


def test_early_payload_change_ripples_through_later_tags():
    key, nonce = b"key", b"\x01\x02\x03\x04"
    payloads = [b"one", b"two", b"three"]

    def tags_for(first_payload):
        state = seed_chain(key, first_payload, nonce)
        out = [chain_tag(state)]
        for p in payloads[1:]:
            state, tag = next_hash(state, p)
            out.append(tag)
        return out

    base = tags_for(payloads[0])
    altered = tags_for(b"ONE")
    assert base[0] != altered[0]
    assert base[1] != altered[1]
    assert base[2] != altered[2]


def test_signed_train_verifies_end_to_end():
    key, nonce = b"group-key", b"\xaa\xbb\xcc\xdd"
    frags = sign_fragments(key, fragment_packet(bytes(range(200)), 7, True), nonce)
    assert frags[0].header.ext.nonce == nonce
    assert all(len(f.header.ext.signature) == TAG_LEN for f in frags)
    assert _verify_train(key, nonce, frags) is None


def _hand_train(chunks, tag=1):
    """Small fragment train with hand-sized chunks (each a multiple of 8)."""
    size = sum(len(c) for c in chunks)
    frags = [
        Fragment(
            FragmentHeader(FragmentKind.FRAG1, size, tag, 0, ExtensionFields(nonce=bytes(4))),
            chunks[0],
        )
    ]
    pos = len(chunks[0])
    for chunk in chunks[1:]:
        frags.append(
            Fragment(FragmentHeader(FragmentKind.FRAGN, size, tag, pos // 8, ExtensionFields()), chunk)
        )
        pos += len(chunk)
    return frags


def test_exhaustive_single_byte_tampering():
    key, nonce = b"group-key", b"\x00\x00\x00\x07"
    chunks = [b"abcdefgh", b"ijklmnop", b"qrstuvwx"]
    assert _verify_train(key, nonce, sign_fragments(key, _hand_train(chunks), nonce)) is None
    for idx in range(3):
        for pos in range(len(chunks[idx])):
            for bit in range(8):
                frags = sign_fragments(key, _hand_train(chunks), nonce)
                tampered = bytearray(frags[idx].payload)
                tampered[pos] ^= 1 << bit
                frags[idx].payload = bytes(tampered)
                assert _verify_train(key, nonce, frags) == idx


def test_reorder_deletion_insertion_detected():
    key, nonce = b"group-key", b"\x00\x00\x00\x09"
    rng = random.Random(42)
    payload = bytes(range(256)) * 2  # 512 bytes -> 6 fragments
    frags = sign_fragments(key, fragment_packet(payload, 3, True), nonce)
    assert _verify_train(key, nonce, frags) is None

    swapped = list(frags)
    swapped[2], swapped[3] = swapped[3], swapped[2]
    assert _verify_train(key, nonce, swapped) == 2

    deleted = [f for i, f in enumerate(frags) if i != 2]
    assert _verify_train(key, nonce, deleted) == 2

    foreign = sign_fragments(key, fragment_packet(rng.randbytes(300), 9, True), nonce)[1]
    injected = frags[:3] + [foreign] + frags[3:]
    assert _verify_train(key, nonce, injected) == 3


def test_sender_receiver_agreement_random_trains():
    rng = random.Random(7)
    for _ in range(50):
        key = rng.randbytes(rng.randrange(1, 48))
        nonce = rng.randbytes(4)
        payload = rng.randbytes(rng.randrange(1, 1500))
        frags = sign_fragments(key, fragment_packet(payload, rng.randrange(0x10000), True), nonce)
        assert _verify_train(key, nonce, frags) is None


def test_chains_for_distinct_datagrams_are_independent():
    key = b"key"
    a = sign_fragments(key, fragment_packet(b"A" * 200, 1, True), b"\x00\x00\x00\x01")
    b = sign_fragments(key, fragment_packet(b"A" * 200, 2, True), b"\x00\x00\x00\x02")
    assert _verify_train(key, b"\x00\x00\x00\x01", a) is None
    assert _verify_train(key, b"\x00\x00\x00\x02", b) is None
    assert a[0].header.ext.signature != b[0].header.ext.signature


def _ref_sign(key, frags, nonce, trust_byte):
    """The chain as first written: hmac.new per link, a replaced header per fragment."""
    digest = hmac.new(key, frags[0].payload + nonce, "sha1").digest()
    out = [frags[0].header._replace(ext=ExtensionFields(trust_byte, nonce, digest[:8]))]
    for frag in frags[1:]:
        digest = hmac.new(key, digest + frag.payload, "sha1").digest()
        out.append(frag.header._replace(ext=ExtensionFields(trust_byte, b"", digest[:8])))
    return out


def test_sign_fragments_matches_reference_chain():
    rng = random.Random(0x5167)
    for _ in range(200):
        key = rng.randbytes(rng.randrange(1, 80))
        nonce = rng.randbytes(4)
        trust_byte = rng.randrange(256)
        payload = rng.randbytes(rng.randrange(1, 2048))
        tag = rng.randrange(0x10000)
        expected = _ref_sign(key, fragment_packet(payload, tag, True), nonce, trust_byte)
        frags = sign_fragments(key, fragment_packet(payload, tag, True), nonce, trust_byte)
        assert [f.header for f in frags] == expected
        assert b"".join(f.payload for f in frags) == payload


def test_next_hash_matches_replace_reference():
    rng = random.Random(0x4E58)
    state = seed_chain(b"key", b"first", b"\x00\x00\x00\x01")
    for _ in range(20):
        payload = rng.randbytes(rng.randrange(0, 97))
        digest = hmac.new(state.key, state.prev_hash + payload, "sha1").digest()
        expected = state._replace(prev_hash=digest)
        advanced, tag = next_hash(state, payload)
        assert type(advanced) is HashChainState
        assert advanced == expected
        assert tag == digest[:TAG_LEN]
        state = advanced


# 64 bytes is SHA-1's block: longer keys are hashed first, shorter ones padded
KEYED_LENGTHS = (1, 16, 64, 65, 100)


def test_keyed_digest_equals_the_one_shot_hmac():
    keys = [bytes((7 * i + n) % 256 for i in range(n)) for n in KEYED_LENGTHS]
    for n in range(201):
        msg = bytes((3 * i + n) % 256 for i in range(n))
        for key in keys:  # alternating keys, so each call meets another key's state first
            want = hmac.new(key, msg, "sha1").digest()
            assert _digest(key, msg) == want == _ref_hmac_sha1(key, msg)


KEY, OTHER_KEY = b"shared-group-key", b"another-key"


def _signed(key, payload, nonce, links=None):
    frags = sign_fragments(key, fragment_packet(payload, 7, True), nonce, links=links)
    return [f.payload for f in frags], [f.header.ext.signature for f in frags]


def _receive(key, nonce, payloads, tags, links=None):
    """Each fragment's (valid, chain digest after it): seeded from the first, then validated."""
    state = seed_chain(key, payloads[0], nonce, links)
    out = [(chain_tag(state) == tags[0], state.prev_hash)]
    for payload, tag in zip(payloads[1:], tags[1:]):
        ok, state = validate_fragment(state, payload, tag, links)
        out.append((ok, state.prev_hash))
    return out


def _corrupt(payload):
    return payload[:-1] + bytes([payload[-1] ^ 0x55])


# what reaches the receiver, from the signed (payloads, tags, nonce): key, nonce, payloads, tags
_ARRIVALS = {
    "intact": lambda p, t, n: (KEY, n, p, t),
    "wrong_middle_tag": lambda p, t, n: (KEY, n, p, t[:1] + [bytes(TAG_LEN)] + t[2:]),
    "wrong_last_tag": lambda p, t, n: (KEY, n, p, t[:-1] + [bytes(TAG_LEN)]),
    "corrupt_first": lambda p, t, n: (KEY, n, [_corrupt(p[0])] + p[1:], t),
    "corrupt_last": lambda p, t, n: (KEY, n, p[:-1] + [_corrupt(p[-1])], t),
    "other_nonce": lambda p, t, n: (KEY, bytes(4), p, t),
    "reordered": lambda p, t, n: (KEY, n, p[:1] + p[1:][::-1], t[:1] + t[1:][::-1]),
    "receiver_key_differs": lambda p, t, n: (OTHER_KEY, n, p, t),
}
# 1 byte and 96 are one Frag1 (the seed alone), 97 two fragments, 400 five
_PAYLOAD_LENGTHS = (1, 96, 97, 400)


@pytest.mark.parametrize("length", _PAYLOAD_LENGTHS)
@pytest.mark.parametrize("arrival", sorted(_ARRIVALS))
def test_receiving_with_chain_links_equals_hashing_every_link(arrival, length, monkeypatch):
    rng = random.Random(length)
    payload, nonce = rng.randbytes(length), rng.randbytes(4)
    links = ChainLinks(KEY)
    payloads, tags = _signed(KEY, payload, nonce, links)
    signed = dict(links)
    received = _ARRIVALS[arrival](payloads, tags, nonce)
    want = _receive(*received)
    hashed = []
    digest = hash_chain._digest
    monkeypatch.setattr(hash_chain, "_digest", lambda key, data: hashed.append(data) or
                        digest(key, data))
    assert _receive(*received, links) == want
    # a miss is hashed and never added; a hit is not hashed again
    assert links == signed
    if arrival == "intact":
        assert hashed == [] and all(ok for ok, _ in want)
    # a wrong tag leaves the chain where it was, with or without links
    for (ok, after), (_, before) in zip(want[1:], want):
        assert ok or after == before


@pytest.mark.parametrize("length", _PAYLOAD_LENGTHS)
def test_links_signed_under_another_key_are_never_used(length):
    rng = random.Random(length)
    payload, nonce = rng.randbytes(length), rng.randbytes(4)
    # the same train signed under another key: every (head, tail) of KEY's chain is in there
    other = ChainLinks(OTHER_KEY)
    _signed(OTHER_KEY, payload, nonce, other)
    payloads, tags = _signed(KEY, payload, nonce)
    got = _receive(KEY, nonce, payloads, tags, other)
    assert got == _receive(KEY, nonce, payloads, tags)
    assert all(ok for ok, _ in got)
    with pytest.raises(ValueError, match="another key"):
        _signed(KEY, payload, nonce, other)


def test_chain_links_hold_each_chain_state_the_signer_reached():
    rng = random.Random(5)
    links = ChainLinks(KEY)
    trains = [(rng.randbytes(rng.randrange(1, 500)), rng.randbytes(4)) for _ in range(20)]
    n = 0
    for payload, nonce in trains:
        payloads, _ = _signed(KEY, payload, nonce, links)
        n += len(payloads)
        state = links[payloads[0], nonce]
        assert state == HashChainState(KEY, _ref_hmac_sha1(KEY, payloads[0] + nonce))
        for p in payloads[1:]:
            want = HashChainState(KEY, _ref_hmac_sha1(KEY, state.prev_hash + p))
            state = links[state.prev_hash, p]
            assert state == want
    assert len(links) == n
