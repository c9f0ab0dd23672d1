"""Wire-format tests: golden byte vectors, round trips, slicing coverage."""

import random
import struct

import pytest

from pcsm.frag_codec import (
    FRAG1_EXT_LEN,
    FRAGN_EXT_LEN,
    MAX_DATAGRAM_SIZE,
    MAX_FRAGMENT_PAYLOAD,
    NONCE_LEN,
    SIGNATURE_LEN,
    CodecError,
    ExtensionFields,
    Fragment,
    FragmentHeader,
    FragmentKind,
    InvalidHeader,
    NotAFragment,
    PayloadTooLarge,
    Truncated,
    decode_base_header,
    decode_header,
    encode_header,
    fragment_packet,
    header_length,
)
from pcsm.hash_chain import HashChainState
from pcsm.trust_engine import BehaviorObservation


def _ref_encode(h: FragmentHeader) -> bytes:
    """Bit-string reference encoder, independent of the struct-based one."""
    bits = "11000" if h.kind is FragmentKind.FRAG1 else "11100"
    bits += format(h.datagram_size, "011b")
    bits += format(h.datagram_tag, "016b")
    if h.kind is FragmentKind.FRAGN:
        bits += format(h.datagram_offset, "08b")
    out = bytes(int(bits[i : i + 8], 2) for i in range(0, len(bits), 8))
    if h.ext is not None:
        out += bytes([h.ext.trust_byte])
        if h.kind is FragmentKind.FRAG1:
            out += h.ext.nonce
        out += h.ext.signature
    return out


def _random_header(rng: random.Random) -> FragmentHeader:
    kind = rng.choice([FragmentKind.FRAG1, FragmentKind.FRAGN])
    with_ext = rng.random() < 0.5
    tag = rng.randrange(0x10000)
    if kind is FragmentKind.FRAG1:
        size = rng.randrange(MAX_DATAGRAM_SIZE + 1)
        ext = None
        if with_ext:
            ext = ExtensionFields(rng.randrange(256), rng.randbytes(4), rng.randbytes(8))
        return FragmentHeader(kind, size, tag, 0, ext)
    size = rng.randrange(1, MAX_DATAGRAM_SIZE + 1)
    offset = rng.randrange(0, min(255, (size - 1) // 8) + 1)
    ext = ExtensionFields(rng.randrange(256), b"", rng.randbytes(8)) if with_ext else None
    return FragmentHeader(kind, size, tag, offset, ext)


def test_frag1_golden_bytes():
    h = FragmentHeader(FragmentKind.FRAG1, 200, 7)
    encoded = encode_header(h)
    assert encoded == bytes.fromhex("c0c80007")
    assert encoded[0] >> 3 == 0b11000


def test_fragn_golden_bytes():
    h = FragmentHeader(FragmentKind.FRAGN, 200, 7, 12)
    encoded = encode_header(h)
    assert encoded == bytes.fromhex("e0c800070c")
    assert encoded[0] >> 3 == 0b11100


def test_extended_frag1_golden_bytes():
    ext = ExtensionFields(128, bytes.fromhex("01020304"), bytes.fromhex("1122334455667788"))
    h = FragmentHeader(FragmentKind.FRAG1, 200, 7, 0, ext)
    encoded = encode_header(h)
    assert encoded == bytes.fromhex("c0c80007" + "80" + "01020304" + "1122334455667788")
    assert len(encoded) == 4 + FRAG1_EXT_LEN


def test_extended_fragn_golden_bytes():
    ext = ExtensionFields(255, b"", bytes.fromhex("1122334455667788"))
    h = FragmentHeader(FragmentKind.FRAGN, 200, 7, 24, ext)
    encoded = encode_header(h)
    assert encoded == bytes.fromhex("e0c8000718" + "ff" + "1122334455667788")
    assert len(encoded) == 5 + FRAGN_EXT_LEN


def test_roundtrip_random_headers():
    rng = random.Random(0xC0DEC)
    for _ in range(10_000):
        h = _random_header(rng)
        encoded = encode_header(h)
        assert encoded == _ref_encode(h)
        assert decode_header(encoded) == h
        assert len(encoded) == header_length(h.kind, h.ext is not None)


def test_backward_compatible_base_parse():
    ext = ExtensionFields(77, bytes(4), bytes(8))
    h = FragmentHeader(FragmentKind.FRAG1, 1024, 4242, 0, ext)
    base = decode_base_header(encode_header(h))
    assert base.ext is None
    assert (base.kind, base.datagram_size, base.datagram_tag) == (
        FragmentKind.FRAG1,
        1024,
        4242,
    )


def test_decode_rejects_bad_input():
    with pytest.raises(Truncated):
        decode_header(b"")
    with pytest.raises(Truncated):
        decode_header(bytes.fromhex("c0c800"))
    with pytest.raises(Truncated):
        decode_header(bytes.fromhex("e0c80007"))
    # dispatch 01000 is some other header type, not fragmentation
    with pytest.raises(NotAFragment):
        decode_header(bytes.fromhex("40c80007"))
    with pytest.raises(InvalidHeader):
        decode_header(bytes.fromhex("c0c80007" + "aa"))


def test_encode_rejects_invalid_headers():
    with pytest.raises(InvalidHeader):
        encode_header(FragmentHeader(FragmentKind.FRAG1, 2048, 0))
    with pytest.raises(InvalidHeader):
        encode_header(FragmentHeader(FragmentKind.FRAG1, 200, 0x10000))
    with pytest.raises(InvalidHeader):
        encode_header(FragmentHeader(FragmentKind.FRAG1, 200, 7, 3))
    with pytest.raises(InvalidHeader):
        encode_header(FragmentHeader(FragmentKind.FRAGN, 200, 7, 25))
    with pytest.raises(InvalidHeader):
        encode_header(
            FragmentHeader(FragmentKind.FRAG1, 200, 7, 0, ExtensionFields(0, bytes(3), bytes(8)))
        )
    with pytest.raises(InvalidHeader):
        encode_header(
            FragmentHeader(FragmentKind.FRAGN, 200, 7, 1, ExtensionFields(0, bytes(4), bytes(8)))
        )
    with pytest.raises(InvalidHeader):
        encode_header(
            FragmentHeader(FragmentKind.FRAG1, 200, 7, 0, ExtensionFields(0, bytes(4), bytes(7)))
        )


def test_200_byte_payload_slices_into_three_fragments():
    payload = bytes(range(200)) * 1
    frags = fragment_packet(payload, 7, with_extension=False)
    assert [len(f.payload) for f in frags] == [96, 96, 8]
    assert [f.header.kind for f in frags] == [
        FragmentKind.FRAG1,
        FragmentKind.FRAGN,
        FragmentKind.FRAGN,
    ]
    assert [f.header.datagram_offset for f in frags] == [0, 12, 24]
    assert all(f.header.datagram_size == 200 and f.header.datagram_tag == 7 for f in frags)
    assert b"".join(f.payload for f in frags) == payload


def test_single_fragment_payload():
    frags = fragment_packet(bytes(96), 1, with_extension=True)
    assert len(frags) == 1
    assert frags[0].header.kind is FragmentKind.FRAG1
    assert frags[0].header.ext is not None
    assert frags[0].header.ext.signature == bytes(8)


def test_payload_size_limits():
    with pytest.raises(PayloadTooLarge):
        fragment_packet(bytes(2048), 0, with_extension=False)
    with pytest.raises(CodecError):
        fragment_packet(b"", 0, with_extension=False)
    frags = fragment_packet(bytes(MAX_DATAGRAM_SIZE), 0, with_extension=False)
    assert sum(len(f.payload) for f in frags) == MAX_DATAGRAM_SIZE


def test_slicing_coverage_random_sizes():
    rng = random.Random(20260819)
    for _ in range(300):
        n = rng.randrange(1, MAX_DATAGRAM_SIZE + 1)
        payload = rng.randbytes(n)
        frags = fragment_packet(payload, rng.randrange(0x10000), rng.random() < 0.5)
        # coverage: offset order reconstructs the original payload exactly
        ordered = sorted(frags, key=lambda f: f.header.datagram_offset)
        assert b"".join(f.payload for f in ordered) == payload
        for f in frags[:-1]:
            assert len(f.payload) % 8 == 0
        for f in frags:
            assert len(f.payload) <= MAX_FRAGMENT_PAYLOAD
            if f.header.ext is not None:
                ext_ok = (
                    len(f.header.ext.nonce) == 4
                    if f.header.kind is FragmentKind.FRAG1
                    else f.header.ext.nonce == b""
                )
                assert ext_ok


def test_fragment_defaults():
    f = Fragment(FragmentHeader(FragmentKind.FRAG1, 8, 0), bytes(8))
    assert f.source == -1
    assert f.record is None


@pytest.mark.parametrize(
    "data",
    [
        struct.pack(">HHB", (0b11100 << 11) | 8, 1, 5),  # offset 40 in an 8-byte datagram
        struct.pack(">HHB", (0b11100 << 11) | 0, 1, 0),  # FragN of an empty datagram
    ],
    ids=["offset_past_end", "empty_datagram"],
)
def test_decode_rejects_fragn_offset_outside_datagram(data):
    with pytest.raises(InvalidHeader, match="must fall inside datagram_size"):
        decode_header(data)
    with pytest.raises(InvalidHeader, match="must fall inside datagram_size"):
        decode_base_header(data)
    ext = bytes(1 + SIGNATURE_LEN)
    with pytest.raises(InvalidHeader, match="must fall inside datagram_size"):
        decode_header(data + ext)


def test_fragment_packet_extensions_are_zero_filled_and_frozen():
    frags = fragment_packet(bytes(200), 9, with_extension=True)
    assert frags[0].header.ext == ExtensionFields(0, bytes(NONCE_LEN), bytes(SIGNATURE_LEN))
    assert all(f.header.ext == ExtensionFields(0, b"", bytes(SIGNATURE_LEN)) for f in frags[1:])
    with pytest.raises(AttributeError):
        frags[1].header.ext.trust_byte = 1



# (value, a field, another value for it)
_FROZEN_VALUES = [
    (ExtensionFields(7, bytes(NONCE_LEN), bytes(SIGNATURE_LEN)), "trust_byte", 8),
    (FragmentHeader(FragmentKind.FRAGN, 200, 5, 12), "datagram_offset", 13),
    (HashChainState(b"key", bytes(20)), "prev_hash", bytes(range(20))),
    (BehaviorObservation(90.0, 1 / 90.0, True), "sequence_ok", False),
]


@pytest.mark.parametrize("value, name, other", _FROZEN_VALUES,
                         ids=[type(v).__name__ for v, _, _ in _FROZEN_VALUES])
def test_per_frame_values_are_frozen_slotted_and_replaceable(value, name, other):
    with pytest.raises(AttributeError):
        setattr(value, name, other)
    assert not hasattr(value, "__dict__")
    changed = value._replace(**{name: other})
    assert type(changed) is type(value) and getattr(changed, name) == other
    assert changed != value and changed._replace(**{name: getattr(value, name)}) == value
    assert hash(value._replace()) == hash(value)
