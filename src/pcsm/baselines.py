"""Comparator receiver stacks sharing the reassembly machinery.

Three stacks bracket the secured pipeline:

- VanillaStack admits on structural criteria alone; slots are
  first-come-first-served and well-formed garbage reassembles fully.
- CsmLikeStack adds a per-source failure counter: a source whose
  reassemblies fail or time out three times in a row is blocked for a
  while.  There is no per-fragment validation, so replayed or forged
  fragments from a source in good standing pass untouched, and blocks
  act after radio reception (no RX savings).
- SecuPanLikeStack authenticates every fragment independently with a
  truncated per-fragment MAC before buffering, at a higher CPU price
  per fragment, and rejects duplicate (source, tag, nonce) first
  fragments.  It never blocks a source: attacker fragments are
  received, verified and dropped one by one, paying the verification
  cost every time.

All three expose the same surface as PredictiveCsmStack (filter_frame,
admit, tick, flush, drain_evictions, buffer) so the simulator treats
stacks uniformly.
"""

from __future__ import annotations

import hmac
import struct

from .frag_codec import ExtensionFields, Fragment, FragmentKind, replace_ext
from .reassembly import (
    AdmitResult,
    AdmitStatus,
    DropReason,
    ReassemblyBuffer,
    ReassemblySession,
    ReplayLedger,
    _dropped,
)

# CPU milliseconds per independent per-fragment MAC (sign or verify).
MAC_CPU_MS = 4.0

_MAC_PREFIX = b"fragmac1"


def fragment_mac(
    key: bytes, source: int, frag_kind: FragmentKind, size: int, tag: int,
    offset: int, nonce: bytes, payload: bytes,
) -> bytes:
    """Independent 8-byte MAC binding one fragment to its source and position."""
    kind_byte = b"\x01" if frag_kind is FragmentKind.FRAG1 else b"\x02"
    msg = (
        _MAC_PREFIX
        + struct.pack(">iHHB", source, size, tag, offset)
        + kind_byte
        + nonce
        + payload
    )
    return hmac.new(key, msg, "sha1").digest()[:8]


def mac_sign_fragments(
    key: bytes, fragments: list[Fragment], nonce: bytes, source: int, trust_byte: int = 255
) -> list[Fragment]:
    """Stamp per-fragment MACs onto a train, in place."""
    for frag in fragments:
        h = frag.header
        frag_nonce = nonce if h.kind is FragmentKind.FRAG1 else b""
        sig = fragment_mac(
            key, source, h.kind, h.datagram_size, h.datagram_tag,
            h.datagram_offset, frag_nonce, frag.payload,
        )
        frag.header = replace_ext(h, ExtensionFields(trust_byte, frag_nonce, sig))
        frag.source = source
    return fragments


class VanillaStack:
    """Structural admission only: no trust, no signatures, no replay ledger."""

    def __init__(self, slots: int = 2, timeout: float = 10.0):
        self.buffer = ReassemblyBuffer(slots, timeout)
        self.evictions: list[ReassemblySession] = []

    def filter_frame(self, source: int, kind: FragmentKind, now: float) -> bool:
        """Radio-level filter on link source and dispatch kind: never drops."""
        return False

    def admit(self, frag: Fragment, now: float) -> AdmitResult:
        self.buffer.advance(now)
        if frag.header.kind is FragmentKind.FRAG1:
            return self._admit_frag1(frag, now)
        return self._admit_fragn(frag, now)

    def _admit_frag1(self, frag: Fragment, now: float) -> AdmitResult:
        src, tag = frag.source, frag.header.datagram_tag
        if self.buffer.find(src, tag) is not None:
            # Tag collision with an open session.  Without any replay
            # ledger this is indistinguishable from wrap-around reuse,
            # so it is a structural drop, not a detection.
            return _dropped(DropReason.DUPLICATE)
        if not self.buffer.has_free_slot():
            return _dropped(DropReason.BUFFER_FULL)
        session = ReassemblySession(
            src, tag, frag.header.datagram_size, now, bytes(4), None
        )
        session.store(frag)
        if session.complete:
            return AdmitResult(
                AdmitStatus.DELIVERED, payload=session.assemble(), fragments=session.fragments
            )
        self.buffer.open(session)
        return AdmitResult(AdmitStatus.STORED)

    def _admit_fragn(self, frag: Fragment, now: float) -> AdmitResult:
        session = self.buffer.find(frag.source, frag.header.datagram_tag)
        if session is None:
            return _dropped(DropReason.NO_SESSION)
        session.store(frag)
        if session.complete:
            self.buffer.close(session)
            return AdmitResult(
                AdmitStatus.DELIVERED, payload=session.assemble(), fragments=session.fragments
            )
        return AdmitResult(AdmitStatus.STORED)

    def tick(self, now: float) -> list[ReassemblySession]:
        self.buffer.advance(now)
        return self.buffer.evict_expired(now)

    def flush(self, now: float) -> list[ReassemblySession]:
        self.buffer.advance(now)
        return self.buffer.flush()

    def drain_evictions(self) -> list[ReassemblySession]:
        drained = self.evictions
        self.evictions = []
        return drained


class CsmLikeStack(VanillaStack):
    """Vanilla plus a per-source consecutive-failure block.

    Failures are timed-out reassemblies attributed to the claimed
    source; a completed delivery resets the counter.  Blocks last for
    block_duration and the counter starts fresh when one expires.  The
    decision happens after radio reception, so blocked traffic still
    costs RX energy, and nothing validates individual fragments, so a
    spoofed trusted identity passes until its sessions start failing.
    """

    def __init__(
        self,
        slots: int = 2,
        timeout: float = 10.0,
        failure_limit: int = 3,
        block_duration: float = 60.0,
    ):
        super().__init__(slots, timeout)
        self.failure_limit = failure_limit
        self.block_duration = block_duration
        self.failures: dict[int, int] = {}
        self.blocked_until: dict[int, float] = {}
        self.block_events: dict[int, int] = {}

    def is_blocked(self, source: int, now: float) -> bool:
        until = self.blocked_until.get(source)
        if until is None:
            return False
        if now < until:
            return True
        del self.blocked_until[source]
        self.failures[source] = 0
        return False

    def admit(self, frag: Fragment, now: float) -> AdmitResult:
        self.buffer.advance(now)
        if self.is_blocked(frag.source, now):
            return _dropped(DropReason.UNTRUSTED)
        if frag.header.kind is FragmentKind.FRAG1:
            result = self._admit_frag1(frag, now)
        else:
            result = self._admit_fragn(frag, now)
        if result.status is AdmitStatus.DELIVERED:
            self.failures[frag.source] = 0
        return result

    def tick(self, now: float) -> list[ReassemblySession]:
        self.buffer.advance(now)
        evicted = self.buffer.evict_expired(now)
        for session in evicted:
            count = self.failures.get(session.source, 0) + 1
            self.failures[session.source] = count
            if count >= self.failure_limit:
                if session.source not in self.blocked_until:
                    events = self.block_events.get(session.source, 0)
                    self.block_events[session.source] = events + 1
                self.blocked_until[session.source] = now + self.block_duration
        return evicted

    def flush(self, now: float) -> list[ReassemblySession]:
        self.buffer.advance(now)
        return self.buffer.flush()


class SecuPanLikeStack:
    """Per-fragment MAC verification before buffering, no behavioral trust."""

    def __init__(
        self,
        key: bytes,
        slots: int = 2,
        timeout: float = 10.0,
        replay_horizon: float = 60.0,
        replay_capacity: int = 64,
    ):
        self.key = key
        self.buffer = ReassemblyBuffer(slots, timeout)
        self.ledger = ReplayLedger(replay_horizon, replay_capacity)
        self.evictions: list[ReassemblySession] = []

    def filter_frame(self, source: int, kind: FragmentKind, now: float) -> bool:
        """Radio-level filter on link source and dispatch kind: never drops."""
        return False

    def _verify(self, frag: Fragment) -> bool:
        ext = frag.header.ext
        if ext is None:
            return False
        h = frag.header
        nonce = ext.nonce if h.kind is FragmentKind.FRAG1 else b""
        expected = fragment_mac(
            self.key, frag.source, h.kind, h.datagram_size, h.datagram_tag,
            h.datagram_offset, nonce, frag.payload,
        )
        return hmac.compare_digest(expected, ext.signature)

    def admit(self, frag: Fragment, now: float) -> AdmitResult:
        self.buffer.advance(now)
        # every received fragment is verified, valid or not
        if not self._verify(frag):
            return _dropped(DropReason.BAD_SIGNATURE, cpu_ms=MAC_CPU_MS)
        if frag.header.kind is FragmentKind.FRAG1:
            return self._admit_frag1(frag, now)
        return self._admit_fragn(frag, now)

    def _admit_frag1(self, frag: Fragment, now: float) -> AdmitResult:
        src, tag = frag.source, frag.header.datagram_tag
        nonce = frag.header.ext.nonce
        if self.ledger.seen(src, tag, nonce, now) or self.buffer.find(src, tag) is not None:
            return _dropped(DropReason.REPLAY, cpu_ms=MAC_CPU_MS)
        if not self.buffer.has_free_slot():
            return _dropped(DropReason.BUFFER_FULL, cpu_ms=MAC_CPU_MS)
        self.ledger.record(src, tag, nonce, now)
        session = ReassemblySession(src, tag, frag.header.datagram_size, now, nonce, None)
        session.store(frag)
        if session.complete:
            return AdmitResult(
                AdmitStatus.DELIVERED,
                payload=session.assemble(),
                cpu_ms=MAC_CPU_MS,
                fragments=session.fragments,
            )
        self.buffer.open(session)
        return AdmitResult(AdmitStatus.STORED, cpu_ms=MAC_CPU_MS)

    def _admit_fragn(self, frag: Fragment, now: float) -> AdmitResult:
        session = self.buffer.find(frag.source, frag.header.datagram_tag)
        if session is None:
            return _dropped(DropReason.NO_SESSION, cpu_ms=MAC_CPU_MS)
        session.store(frag)
        if session.complete:
            self.buffer.close(session)
            return AdmitResult(
                AdmitStatus.DELIVERED,
                payload=session.assemble(),
                cpu_ms=MAC_CPU_MS,
                fragments=session.fragments,
            )
        return AdmitResult(AdmitStatus.STORED, cpu_ms=MAC_CPU_MS)

    def tick(self, now: float) -> list[ReassemblySession]:
        self.buffer.advance(now)
        return self.buffer.evict_expired(now)

    def flush(self, now: float) -> list[ReassemblySession]:
        self.buffer.advance(now)
        return self.buffer.flush()

    def drain_evictions(self) -> list[ReassemblySession]:
        drained = self.evictions
        self.evictions = []
        return drained
