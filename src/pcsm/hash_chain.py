"""Chained keyed-hash generation and verification for fragment trains.

The first fragment of a datagram seeds a chain:

    H_0 = HMAC(key, payload_0 || nonce)

and every later fragment extends it:

    H_i = HMAC(key, H_{i-1} || payload_i)

Wire signatures are the leftmost 8 bytes of each digest.  Because each
link covers the previous digest, tampering with, reordering, dropping
or injecting any fragment breaks verification at or before the
affected position.  Verification advances the chain only on success,
so one bad fragment poisons the remainder of that datagram.

HMAC-SHA1 is computed as RFC 2104 section 4 suggests: the key's inner
and outer pads are absorbed into two SHA-1 states once per key, and
each digest copies those states instead of rehashing the pads.

A signer may record the chain state each link reaches in ChainLinks; a
receiver handed them looks each link up before hashing it (a miss is
hashed, never added).
"""

from __future__ import annotations

import hashlib
import hmac
from functools import lru_cache
from typing import NamedTuple

from .frag_codec import FRAG1, ExtensionFields, Fragment, replace_ext

TAG_LEN = 8
_BLOCK = 64  # SHA-1's block: longer keys are hashed first, shorter ones zero-padded


class EmptyKey(ValueError):
    """The shared key must be non-empty."""


class HashChainState(NamedTuple):
    """Immutable chain position: advancing returns a new state."""

    key: bytes
    prev_hash: bytes


class ChainLinks(dict):
    """(payload_0, nonce) and (H_{i-1}, payload_i) -> the state at H_0 and H_i, signed under key."""

    def __init__(self, key: bytes):
        super().__init__()
        self.key = key


@lru_cache(maxsize=32)
def keyed(key: bytes) -> tuple:
    """SHA-1 states with key^ipad and key^opad absorbed: copy them, never update them."""
    if len(key) > _BLOCK:
        key = hashlib.sha1(key).digest()
    key = key.ljust(_BLOCK, b"\0")
    return (hashlib.sha1(bytes(b ^ 0x36 for b in key)),
            hashlib.sha1(bytes(b ^ 0x5C for b in key)))


def _digest(key: bytes, data: bytes) -> bytes:
    """HMAC-SHA1(key, data) from the key's absorbed pads."""
    inner, outer = keyed(key)
    inner = inner.copy()
    inner.update(data)
    outer = outer.copy()
    outer.update(inner.digest())
    return outer.digest()


def seed_chain(key: bytes, payload_frag1: bytes, nonce: bytes,
               links: ChainLinks | None = None) -> HashChainState:
    """Start a chain from the first fragment's payload and a nonce."""
    if not key:
        raise EmptyKey("chain key must be non-empty")
    found = links.get((payload_frag1, nonce)) if links is not None and links.key == key else None
    return found or HashChainState(key, _digest(key, payload_frag1 + nonce))


def chain_tag(state: HashChainState) -> bytes:
    """Truncated wire signature for the chain's current digest."""
    return state.prev_hash[:TAG_LEN]


def next_hash(state: HashChainState, payload: bytes) -> tuple[HashChainState, bytes]:
    """Advance the chain over one payload, returning the new wire tag."""
    digest = _digest(state.key, state.prev_hash + payload)
    advanced = HashChainState(state.key, digest)
    return advanced, digest[:TAG_LEN]


def validate_fragment(
    state: HashChainState, payload: bytes, received_tag: bytes, links: ChainLinks | None = None
) -> tuple[bool, HashChainState]:
    """Check one fragment against the chain.

    Returns (valid, state).  The state advances only when the tag
    matches; comparison is constant-time.
    """
    key, prev = state
    found = links.get((prev, payload)) if links is not None and links.key == key else None
    advanced = found or HashChainState(key, _digest(key, prev + payload))
    if hmac.compare_digest(advanced.prev_hash[:TAG_LEN], received_tag):
        return True, advanced
    return False, state


def sign_fragments(
    key: bytes, fragments: list[Fragment], nonce: bytes, trust_byte: int = 255,
    links: ChainLinks | None = None,
) -> list[Fragment]:
    """Stamp extension fields onto a fragment train, in place.

    The first fragment carries the nonce and the truncated seed digest;
    each later fragment carries its chained tag.  Fragments must be in
    offset order and carry zero-filled extensions from fragment_packet.
    Each link's chain state also goes into links, if given, which must be for key.
    """
    if not fragments or fragments[0].header.kind is not FRAG1:
        raise ValueError("fragment train must start with a Frag1")
    if not key:
        raise EmptyKey("chain key must be non-empty")
    if links is not None and links.key != key:
        raise ValueError("links were made for another key")
    first = fragments[0]
    digest = _digest(key, first.payload + nonce)
    if links is not None:
        links[first.payload, nonce] = HashChainState(key, digest)
    first.header = replace_ext(first.header, ExtensionFields(trust_byte, nonce, digest[:TAG_LEN]))
    for frag in fragments[1:]:
        prev, digest = digest, _digest(key, digest + frag.payload)
        if links is not None:
            links[prev, frag.payload] = HashChainState(key, digest)
        frag.header = replace_ext(frag.header, ExtensionFields(trust_byte, b"", digest[:TAG_LEN]))
    return fragments


# Inputs for the published test vectors: a typical three-fragment
# train under the default group key, plus corner cases for key and
# payload lengths. Regenerated output must stay byte-stable.
_VECTOR_CASES = (
    (
        "three_fragment_chain",
        b"shared-group-key",
        (1).to_bytes(4, "big"),
        (bytes(range(96)), bytes(range(96, 192)), bytes(range(192, 200))),
    ),
    ("single_fragment", b"k", bytes.fromhex("deadbeef"), (b"hello world",)),
    (
        "empty_fragn_payload",
        b"another key 32 bytes long padded",
        bytes.fromhex("0a0b0c0d"),
        (b"first", b""),
    ),
    (
        "long_key_chain",
        b"x" * 100,
        b"\xff\xff\xff\xff",
        (b"alpha" * 8, b"beta" * 12, b"gamma" * 6, bytes(16)),
    ),
)


def reference_vectors() -> list[dict]:
    """Deterministic signature-chain test vectors as JSON-ready dicts."""
    out = []
    for name, key, nonce, payloads in _VECTOR_CASES:
        state = seed_chain(key, payloads[0], nonce)
        tags = [chain_tag(state).hex()]
        seed_digest = state.prev_hash.hex()
        for payload in payloads[1:]:
            state, tag = next_hash(state, payload)
            tags.append(tag.hex())
        out.append(
            {
                "name": name,
                "key": key.hex(),
                "nonce": nonce.hex(),
                "payloads": [p.hex() for p in payloads],
                "seed_digest": seed_digest,
                "wire_tags": tags,
            }
        )
    return out
