"""Wire-format properties: decoding inverts encoding and accepts nothing else."""

import pytest

from pcsm.frag_codec import (
    DISPATCH_FRAG1,
    DISPATCH_FRAGN,
    MAX_DATAGRAM_SIZE,
    NONCE_LEN,
    SIGNATURE_LEN,
    CodecError,
    ExtensionFields,
    FragmentHeader,
    FragmentKind,
    decode_header,
    encode_header,
)

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


@st.composite
def _valid_headers(draw):
    kind = draw(st.sampled_from(FragmentKind))
    tag = draw(st.integers(0, 0xFFFF))
    trust = draw(st.integers(0, 0xFF))
    signature = draw(st.binary(min_size=SIGNATURE_LEN, max_size=SIGNATURE_LEN))
    with_ext = draw(st.booleans())
    if kind is FragmentKind.FRAG1:
        size = draw(st.integers(0, MAX_DATAGRAM_SIZE))
        nonce = draw(st.binary(min_size=NONCE_LEN, max_size=NONCE_LEN))
        ext = ExtensionFields(trust, nonce, signature) if with_ext else None
        return FragmentHeader(kind, size, tag, 0, ext)
    size = draw(st.integers(1, MAX_DATAGRAM_SIZE))
    offset = draw(st.integers(0, min(0xFF, (size - 1) // 8)))
    ext = ExtensionFields(trust, b"", signature) if with_ext else None
    return FragmentHeader(kind, size, tag, offset, ext)


# Arbitrary bytes, plus bytes that start with a fragmentation dispatch
# so the property also covers the header forms, not just NotAFragment.
_wire_bytes = st.one_of(
    st.binary(max_size=24),
    st.builds(
        lambda dispatch, size_hi, rest: bytes([(dispatch << 3) | size_hi]) + rest,
        st.sampled_from([DISPATCH_FRAG1, DISPATCH_FRAGN]),
        st.integers(0, 7),
        st.binary(max_size=23),
    ),
)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(_valid_headers())
def test_property_decode_inverts_encode(h):
    assert decode_header(encode_header(h)) == h


@settings(derandomize=True, database=None, max_examples=1000, deadline=None)
@given(_wire_bytes)
def test_property_decode_accepts_only_what_encode_produces(data):
    try:
        h = decode_header(data)
    except CodecError:
        return
    assert encode_header(h) == data


def _decoded(data):
    try:
        return decode_header(data)
    except CodecError as exc:
        return type(exc), str(exc)


@settings(derandomize=True, database=None, max_examples=600, deadline=None)
@given(st.one_of(_wire_bytes, _valid_headers().map(encode_header)))
def test_property_decode_is_the_same_for_any_bytes_like_input(data):
    expected = _decoded(data)
    for view in (bytearray(data), memoryview(data)):
        got = _decoded(view)
        assert got == expected and type(got) is type(expected)
        if isinstance(got, FragmentHeader) and got.ext is not None:
            assert type(got.ext.nonce) is bytes and type(got.ext.signature) is bytes
