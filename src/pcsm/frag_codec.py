"""Wire codec for 6LoWPAN fragmentation headers and a security extension.

Implements bit-exact encoding and decoding of the two fragmentation
header forms (first fragment and continuation fragment), an optional
trailing extension carrying a quantized trust byte, a nonce, and a
truncated keyed-hash signature, plus payload slicing into fragments.

Layout, big-endian throughout:

  Frag1 base (4 bytes):  11000 | size(11) | tag(16)
  FragN base (5 bytes):  11100 | size(11) | tag(16) | offset(8)

The extension appends trust(1) + nonce(4) + signature(8) = 13 bytes to
a Frag1 and trust(1) + signature(8) = 9 bytes to a FragN.  A decoder
unaware of the extension still parses the base header unchanged.

Decoding enforces the same invariants as encoding: every header that
decode_header or decode_base_header returns would pass encode_header.
The bit widths bound every field but one, so the decoder's only extra
check is that a FragN offset falls inside its datagram_size.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import Enum
from typing import Any

MAX_FRAGMENT_PAYLOAD = 96
MAX_DATAGRAM_SIZE = 2047
MAX_FRAME_BYTES = 127

DISPATCH_FRAG1 = 0b11000
DISPATCH_FRAGN = 0b11100

FRAG1_BASE_LEN = 4
FRAGN_BASE_LEN = 5
FRAG1_EXT_LEN = 13
FRAGN_EXT_LEN = 9

NONCE_LEN = 4
SIGNATURE_LEN = 8

# Non-final fragments must carry a multiple of 8 payload bytes and the
# offset field counts 8-byte units, so 96 (= 12 units) is the largest
# legal slice under the 127-byte frame budget.
OFFSET_UNIT = 8


class CodecError(ValueError):
    """Base class for wire-format violations."""


class PayloadTooLarge(CodecError):
    """Datagram payload exceeds the 11-bit size field."""


class InvalidHeader(CodecError):
    """Header field values violate an invariant."""


class Truncated(CodecError):
    """Byte sequence too short for the indicated header form."""


class NotAFragment(CodecError):
    """Dispatch bits do not name a fragmentation header."""


class FragmentKind(Enum):
    FRAG1 = "frag1"
    FRAGN = "fragn"


def quantize_trust(score: float) -> int:
    """Map a trust score in [0,1] to the 1-byte wire field."""
    return max(0, min(255, round(score * 255)))


def dequantize_trust(byte_value: int) -> float:
    return byte_value / 255.0


@dataclass(frozen=True)
class ExtensionFields:
    """Security extension: trust byte, nonce (Frag1 only), signature."""

    trust_byte: int = 0
    nonce: bytes = b""
    signature: bytes = bytes(SIGNATURE_LEN)


@dataclass(frozen=True)
class FragmentHeader:
    kind: FragmentKind
    datagram_size: int
    datagram_tag: int
    datagram_offset: int = 0  # FragN only, units of 8 bytes
    ext: ExtensionFields | None = None


@dataclass
class Fragment:
    """A fragment in flight: header plus payload plus receive metadata."""

    header: FragmentHeader
    payload: bytes
    source: int = -1
    # the receiver's accounting entry for this fragment (simulator.FrameRecord)
    record: Any = None


def replace_ext(h: FragmentHeader, ext: ExtensionFields) -> FragmentHeader:
    """Copy of h carrying ext: dataclasses.replace without its per-call overhead."""
    return FragmentHeader(h.kind, h.datagram_size, h.datagram_tag, h.datagram_offset, ext)


def _check_header(h: FragmentHeader) -> None:
    if not 0 <= h.datagram_size <= MAX_DATAGRAM_SIZE:
        raise InvalidHeader(f"datagram_size {h.datagram_size} outside [0, {MAX_DATAGRAM_SIZE}]")
    if not 0 <= h.datagram_tag <= 0xFFFF:
        raise InvalidHeader(f"datagram_tag {h.datagram_tag} outside [0, 65535]")
    if h.kind is FragmentKind.FRAG1:
        if h.datagram_offset != 0:
            raise InvalidHeader("Frag1 carries no offset field")
    else:
        if not 0 <= h.datagram_offset <= 0xFF:
            raise InvalidHeader(f"datagram_offset {h.datagram_offset} outside [0, 255]")
        if h.datagram_offset * OFFSET_UNIT >= h.datagram_size:
            raise InvalidHeader(
                f"offset {h.datagram_offset} x {OFFSET_UNIT} must fall inside "
                f"datagram_size {h.datagram_size}"
            )
    if h.ext is not None:
        if not 0 <= h.ext.trust_byte <= 0xFF:
            raise InvalidHeader(f"trust_byte {h.ext.trust_byte} outside [0, 255]")
        if len(h.ext.signature) != SIGNATURE_LEN:
            raise InvalidHeader(f"signature must be {SIGNATURE_LEN} bytes, got {len(h.ext.signature)}")
        if h.kind is FragmentKind.FRAG1:
            if len(h.ext.nonce) != NONCE_LEN:
                raise InvalidHeader(f"Frag1 nonce must be {NONCE_LEN} bytes, got {len(h.ext.nonce)}")
        elif h.ext.nonce:
            raise InvalidHeader("FragN extension carries no nonce")


def header_length(kind: FragmentKind, with_extension: bool) -> int:
    """Encoded header size in bytes for the given form."""
    if kind is FragmentKind.FRAG1:
        return FRAG1_BASE_LEN + (FRAG1_EXT_LEN if with_extension else 0)
    return FRAGN_BASE_LEN + (FRAGN_EXT_LEN if with_extension else 0)


# Whole-header layouts; _check_header has already fixed the nonce and
# signature lengths, so the "s" fields never pad or truncate.
_FRAG1_PACK = struct.Struct(">HH").pack
_FRAGN_PACK = struct.Struct(">HHB").pack
_FRAG1_EXT_PACK = struct.Struct(">HHB4s8s").pack
_FRAGN_EXT_PACK = struct.Struct(">HHBB8s").pack

_FRAG1_WORD = DISPATCH_FRAG1 << 11
_FRAGN_WORD = DISPATCH_FRAGN << 11


def encode_header(h: FragmentHeader) -> bytes:
    """Serialize a header; raises InvalidHeader on violated invariants."""
    _check_header(h)
    ext = h.ext
    if h.kind is FragmentKind.FRAG1:
        word0 = _FRAG1_WORD | h.datagram_size
        if ext is None:
            return _FRAG1_PACK(word0, h.datagram_tag)
        return _FRAG1_EXT_PACK(word0, h.datagram_tag, ext.trust_byte, ext.nonce, ext.signature)
    word0 = _FRAGN_WORD | h.datagram_size
    if ext is None:
        return _FRAGN_PACK(word0, h.datagram_tag, h.datagram_offset)
    return _FRAGN_EXT_PACK(word0, h.datagram_tag, h.datagram_offset, ext.trust_byte, ext.signature)


def _parse_base(data: bytes) -> tuple[FragmentKind, int, int, int, int]:
    """Base header fields as (kind, size, tag, offset, base length)."""
    n = len(data)
    if n < 2:
        raise Truncated(f"need at least 2 bytes for dispatch, got {n}")
    word0 = (data[0] << 8) | data[1]
    dispatch = word0 >> 11
    size = word0 & 0x07FF
    if dispatch == DISPATCH_FRAG1:
        if n < FRAG1_BASE_LEN:
            raise Truncated(f"Frag1 base header needs {FRAG1_BASE_LEN} bytes, got {n}")
        return FragmentKind.FRAG1, size, (data[2] << 8) | data[3], 0, FRAG1_BASE_LEN
    if dispatch == DISPATCH_FRAGN:
        if n < FRAGN_BASE_LEN:
            raise Truncated(f"FragN base header needs {FRAGN_BASE_LEN} bytes, got {n}")
        offset = data[4]
        if offset * OFFSET_UNIT >= size:
            raise InvalidHeader(
                f"offset {offset} x {OFFSET_UNIT} must fall inside datagram_size {size}"
            )
        return FragmentKind.FRAGN, size, (data[2] << 8) | data[3], offset, FRAGN_BASE_LEN
    raise NotAFragment(f"dispatch {dispatch:05b} is not a fragmentation header")


def decode_base_header(data: bytes) -> FragmentHeader:
    """Parse only the base header, ignoring any trailing bytes.

    This is what a receiver without extension support does; it keeps the
    extension backward-compatible.
    """
    kind, size, tag, offset, _ = _parse_base(data)
    return FragmentHeader(kind, size, tag, offset)


def decode_header(data: bytes) -> FragmentHeader:
    """Inverse of encode_header.

    The input must be exactly a base header or a base header plus the
    full extension; any other length is rejected.
    """
    kind, size, tag, offset, base_len = _parse_base(data)
    trailing = len(data) - base_len
    # Frag1: base(4) trust(1) nonce(4) signature(8); FragN: base(5) trust(1) signature(8)
    if trailing == 0:
        ext = None
    elif kind is FragmentKind.FRAG1 and trailing == FRAG1_EXT_LEN:
        ext = ExtensionFields(data[4], data[5 : 5 + NONCE_LEN], data[5 + NONCE_LEN :])
    elif kind is FragmentKind.FRAGN and trailing == FRAGN_EXT_LEN:
        ext = ExtensionFields(data[5], b"", data[6:])
    else:
        raise InvalidHeader(f"{trailing} trailing bytes match no extension layout")
    return FragmentHeader(kind, size, tag, offset, ext)


# Zero-filled extensions for fragment_packet; frozen, so every fragment
# can share them until the sender stamps its own.
_BLANK_FRAG1_EXT = ExtensionFields(nonce=bytes(NONCE_LEN))
_BLANK_FRAGN_EXT = ExtensionFields()


def fragment_packet(payload: bytes, tag: int, with_extension: bool) -> list[Fragment]:
    """Slice a datagram payload into ordered fragments.

    The first fragment is a Frag1, the rest FragNs with offsets in
    8-byte units.  Extension fields, when requested, are zero-filled;
    the sender pipeline stamps trust, nonce and signature later.
    """
    if len(payload) == 0:
        raise CodecError("payload must be non-empty")
    if len(payload) > MAX_DATAGRAM_SIZE:
        raise PayloadTooLarge(f"payload of {len(payload)} bytes exceeds {MAX_DATAGRAM_SIZE}")
    size = len(payload)
    ext1 = _BLANK_FRAG1_EXT if with_extension else None
    extn = _BLANK_FRAGN_EXT if with_extension else None
    frags = [
        Fragment(FragmentHeader(FragmentKind.FRAG1, size, tag, 0, ext1),
                 payload[:MAX_FRAGMENT_PAYLOAD])
    ]
    for pos in range(MAX_FRAGMENT_PAYLOAD, size, MAX_FRAGMENT_PAYLOAD):
        header = FragmentHeader(FragmentKind.FRAGN, size, tag, pos // OFFSET_UNIT, extn)
        frags.append(Fragment(header, payload[pos : pos + MAX_FRAGMENT_PAYLOAD]))
    return frags
