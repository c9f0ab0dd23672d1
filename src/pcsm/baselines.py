"""Comparator receiver stacks sharing the reassembly machinery.

Three stacks bracket the secured pipeline:

- VanillaStack admits on structural criteria alone; slots are
  first-come-first-served and well-formed garbage reassembles fully.
- CsmLikeStack adds a per-source failure counter: a source whose
  reassemblies time out three times in a row is blocked for a while.
  There is no per-fragment validation, so replayed or forged fragments
  from a source in good standing pass untouched, and blocks act after
  radio reception (no RX savings).
- SecuPanLikeStack authenticates every fragment independently with a
  truncated per-fragment MAC before buffering, at a higher CPU price
  per fragment, and rejects duplicate (source, tag, nonce) first
  fragments.  It never blocks a source: attacker fragments are
  received, verified and dropped one by one, paying the verification
  cost every time.

All three subclass ReceiverStack, as PredictiveCsmStack does, and
override only the gates they have, so the simulator treats stacks
uniformly.  STACKS, at the end, maps each config name to its class.
"""

from __future__ import annotations

import hmac
import struct

from .frag_codec import FRAG1, ExtensionFields, Fragment, FragmentKind, replace_ext
from .hash_chain import _digest
from .reassembly import PredictiveCsmStack, ReceiverStack, ReplayLedger

# CPU milliseconds per independent per-fragment MAC (sign or verify).
MAC_CPU_MS = 4.0

_MAC_PREFIX = b"fragmac1"


def fragment_mac(
    key: bytes, source: int, frag_kind: FragmentKind, size: int, tag: int,
    offset: int, nonce: bytes, payload: bytes,
) -> bytes:
    """Independent 8-byte MAC binding one fragment to its source and position."""
    kind_byte = b"\x01" if frag_kind is FRAG1 else b"\x02"
    msg = (
        _MAC_PREFIX
        + struct.pack(">iHHB", source, size, tag, offset)
        + kind_byte
        + nonce
        + payload
    )
    return _digest(key, msg)[:8]


def mac_sign_fragments(
    key: bytes, fragments: list[Fragment], nonce: bytes, source: int, trust_byte: int = 255
) -> list[Fragment]:
    """Stamp per-fragment MACs onto a train, in place."""
    for frag in fragments:
        h = frag.header
        frag_nonce = nonce if h.kind is FRAG1 else b""
        sig = fragment_mac(
            key, source, h.kind, h.datagram_size, h.datagram_tag,
            h.datagram_offset, frag_nonce, frag.payload,
        )
        frag.header = replace_ext(h, ExtensionFields(trust_byte, frag_nonce, sig))
        frag.source = source
    return fragments


class VanillaStack(ReceiverStack):
    """Structural admission only: no trust, no signatures, no replay ledger."""

    # bench/layers.py wraps these in each stack class's own namespace
    admit, tick, flush = ReceiverStack.admit, ReceiverStack.tick, ReceiverStack.flush


class CsmLikeStack(ReceiverStack):
    """Vanilla plus a per-source consecutive-failure block.

    Failures are timed-out reassemblies attributed to the claimed
    source; a completed delivery resets the counter.  Blocks last for
    block_duration and the counter starts fresh when one expires.  The
    decision happens after radio reception, so blocked traffic still
    costs RX energy, and nothing validates individual fragments, so a
    spoofed trusted identity passes until its sessions start failing.
    """

    FAILURE_LIMIT = 3
    # bench/layers.py wraps these in each stack class's own namespace
    admit, tick, flush = ReceiverStack.admit, ReceiverStack.tick, ReceiverStack.flush

    def __init__(self, slots: int = 2, timeout: float = 10.0, block_duration: float = 60.0):
        super().__init__(slots, timeout)
        self.block_duration = block_duration
        self.failures: dict[int, int] = {}
        self.blocked_until: dict[int, float] = {}

    @classmethod
    def from_config(cls, cfg, trace: bool) -> CsmLikeStack:
        return cls(cfg.buffer.slots, cfg.buffer.timeout, cfg.trust.block_duration)

    def is_blocked(self, source: int, now: float) -> bool:
        until = self.blocked_until.get(source)
        if until is None:
            return False
        if now < until:
            return True
        del self.blocked_until[source]
        self.failures[source] = 0
        return False

    def _blocked(self, source: int, kind: FragmentKind, now: float) -> bool:
        return self.is_blocked(source, now)

    def _expired(self, source: int, now: float) -> None:
        count = self.failures.get(source, 0) + 1
        self.failures[source] = count
        if count >= self.FAILURE_LIMIT:
            if source not in self.blocked_until:
                self.block_events[source] = self.block_events.get(source, 0) + 1
            self.blocked_until[source] = now + self.block_duration

    def _delivered(self, source: int, now: float) -> None:
        self.failures[source] = 0


class SecuPanLikeStack(ReceiverStack):
    """Per-fragment MAC verification before buffering, no behavioral trust."""

    VERIFY_CPU_MS = MAC_CPU_MS
    SIGNER = "mac"

    # bench/layers.py wraps these in each stack class's own namespace
    admit, tick, flush = ReceiverStack.admit, ReceiverStack.tick, ReceiverStack.flush

    def __init__(self, key: bytes, slots: int = 2, timeout: float = 10.0):
        super().__init__(slots, timeout)
        self.key = key
        self.ledger = ReplayLedger()

    @classmethod
    def from_config(cls, cfg, trace: bool) -> SecuPanLikeStack:
        return cls(cfg.key, cfg.buffer.slots, cfg.buffer.timeout)

    def _authentic(self, source: int, kind: FragmentKind, size: int, tag: int, offset: int,
                   nonce: bytes | None, signature: bytes | None, payload: bytes) -> bool:
        if signature is None:
            return False
        if kind is not FRAG1:
            nonce = b""
        expected = fragment_mac(self.key, source, kind, size, tag, offset, nonce, payload)
        return hmac.compare_digest(expected, signature)


# Every receiver stack by its config name, in report order.
STACKS: dict[str, type[ReceiverStack]] = {
    "vanilla": VanillaStack, "csm": CsmLikeStack, "secupan": SecuPanLikeStack,
    "pcsm": PredictiveCsmStack,
}
