"""Slot-based reassembly and the admission pipeline every receiver stack runs.

The buffer itself is plain mechanics: a fixed number of slots, one
in-progress datagram per slot, timeout eviction, and occupancy
statistics.  ReceiverStack puts one fixed sequence of gates in front
of it; each stack overrides only the gates it has.  PredictiveCsmStack
fills in the blocked-source filter, the replay ledger, the behavioral
screen and the chained-signature check; the comparator stacks in
baselines.py fill in fewer.

Drops never raise; every fragment ends in exactly one disposition so
per-node accounting stays conserved (received = buffered + delivered +
dropped).  Continuation fragments validate strictly in sender order:
links here are FIFO and there is no retransmission, so a gap can never
fill and holding out-of-order fragments would only buy buffer bytes
for traffic that already failed the chain.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from enum import Enum

from .frag_codec import NONCE_LEN, OFFSET_UNIT, Fragment, FragmentKind
from .hash_chain import HashChainState, seed_chain, validate_fragment
from .trust_engine import ObservationTracker, TrustEngine, TrustParams

# CPU milliseconds charged per keyed-hash operation (seed or verify).
HASH_CPU_MS = 0.5


class DropReason(str, Enum):
    UNTRUSTED = "untrusted"
    REPLAY = "replay"
    BAD_SIGNATURE = "bad_signature"
    DUPLICATE = "duplicate"
    BUFFER_FULL = "buffer_full"
    NO_SESSION = "no_session"
    TIMEOUT = "timeout"


# Reasons that mean "rejected by a security gate before buffering".
# Structural drops (duplicate collision, no session, full buffer,
# timeout) are not gates: a stack with no defenses still produces those.
GATE_REASONS = frozenset({DropReason.UNTRUSTED, DropReason.REPLAY, DropReason.BAD_SIGNATURE})


class AdmitStatus(Enum):
    STORED = "stored"
    DELIVERED = "delivered"
    DROPPED = "dropped"


@dataclass
class AdmitResult:
    status: AdmitStatus
    reason: DropReason | None = None
    payload: bytes | None = None
    cpu_ms: float = 0.0
    # fragments released by a delivery, for the caller's accounting
    fragments: list[Fragment] = field(default_factory=list)


def _dropped(reason: DropReason, cpu_ms: float = 0.0) -> AdmitResult:
    return AdmitResult(AdmitStatus.DROPPED, reason=reason, cpu_ms=cpu_ms)


class ReplayLedger:
    """Recently admitted (source, tag, nonce) triples with expiry.

    A hit refreshes the entry: a triple being replayed is exactly the
    one worth remembering.  Capacity eviction is FIFO by insertion.
    """

    def __init__(self, horizon: float = 60.0, capacity: int = 64):
        self.horizon = horizon
        self.capacity = capacity
        self.entries: OrderedDict[tuple[int, int, bytes], float] = OrderedDict()

    def _purge(self, now: float) -> None:
        dead = [k for k, expiry in self.entries.items() if expiry <= now]
        for k in dead:
            del self.entries[k]

    def seen(self, source: int, tag: int, nonce: bytes, now: float) -> bool:
        self._purge(now)
        key = (source, tag, nonce)
        if key in self.entries:
            self.entries[key] = now + self.horizon
            return True
        return False

    def record(self, source: int, tag: int, nonce: bytes, now: float) -> None:
        self._purge(now)
        self.entries[(source, tag, nonce)] = now + self.horizon
        while len(self.entries) > self.capacity:
            self.entries.popitem(last=False)


@dataclass
class ReassemblySession:
    source: int
    tag: int
    expected_size: int
    started_at: float
    chain: HashChainState | None
    # stored in arrival order; no two share a byte
    fragments: list[Fragment] = field(default_factory=list)
    received_bytes: int = 0

    def overlaps(self, frag: Fragment) -> bool:
        """Whether frag shares a byte with a stored fragment."""
        start = frag.header.datagram_offset * OFFSET_UNIT
        end = start + len(frag.payload)
        for stored in self.fragments:
            at = stored.header.datagram_offset * OFFSET_UNIT
            if at < end and start < at + len(stored.payload):
                return True
        return False

    def store(self, frag: Fragment) -> None:
        self.fragments.append(frag)
        self.received_bytes += len(frag.payload)

    @property
    def complete(self) -> bool:
        return self.received_bytes == self.expected_size

    def assemble(self) -> bytes:
        ordered = sorted(self.fragments, key=lambda f: f.header.datagram_offset)
        return b"".join(f.payload for f in ordered)


class ReassemblyBuffer:
    """Fixed-slot session store with timeout eviction and occupancy stats."""

    def __init__(self, slots: int = 2, timeout: float = 10.0):
        self.slots = slots
        self.timeout = timeout
        self.sessions: dict[tuple[int, int], ReassemblySession] = {}
        self.max_occupancy = 0
        self._busy_integral = 0.0
        self._stat_clock = 0.0

    def advance(self, now: float) -> None:
        """Accumulate occupancy-time up to `now` (call before mutating)."""
        dt = now - self._stat_clock
        if dt > 0:
            self._busy_integral += len(self.sessions) * dt
            self._stat_clock = now

    def availability(self) -> float:
        return (self.slots - len(self.sessions)) / self.slots

    def mean_availability(self) -> float:
        """Time-averaged fraction of free slots since the start."""
        if self._stat_clock <= 0:
            return 1.0
        return 1.0 - self._busy_integral / (self.slots * self._stat_clock)

    def find(self, source: int, tag: int) -> ReassemblySession | None:
        return self.sessions.get((source, tag))

    def has_free_slot(self) -> bool:
        return len(self.sessions) < self.slots

    def open(self, session: ReassemblySession) -> None:
        if not self.has_free_slot():
            raise RuntimeError("no free slot; callers must check first")
        self.sessions[(session.source, session.tag)] = session
        self.max_occupancy = max(self.max_occupancy, len(self.sessions))

    def close(self, session: ReassemblySession) -> None:
        self.sessions.pop((session.source, session.tag), None)

    def evict_expired(self, now: float) -> list[ReassemblySession]:
        expired = [
            s for s in self.sessions.values() if s.started_at + self.timeout < now and not s.complete
        ]
        for s in expired:
            self.close(s)
        return expired

    def purge_source(self, source: int) -> list[ReassemblySession]:
        purged = [s for s in self.sessions.values() if s.source == source]
        for s in purged:
            self.close(s)
        return purged

    def flush(self) -> list[ReassemblySession]:
        remaining = list(self.sessions.values())
        self.sessions.clear()
        return remaining


class ReceiverStack:
    """The admission pipeline every receiver stack runs; subclasses add gates.

    admit() holds the one fixed gate order.  Every gate here is open and
    every outcome hook a no-op, so this class as it stands is the vanilla
    stack.  An open-session collision is a REPLAY on a stack with a replay
    ledger; without one it cannot be told from tag wrap-around and is a
    structural DUPLICATE.  Only a session that holds a chain is checked,
    and each chain seed or verify costs HASH_CPU_MS.  VERIFY_CPU_MS is
    charged on every outcome past the blocked-source gate.  A continuation
    that passes every check but overlaps stored bytes is a DUPLICATE, with
    no trust effect.
    """

    VERIFY_CPU_MS = 0.0
    # how this stack's senders sign a train: None (no extension), "chain" or "mac"
    SIGNER: str | None = None
    ledger: ReplayLedger | None = None
    trust_history: list[tuple[float, int, float]] | None = None

    def __init__(self, slots: int = 2, timeout: float = 10.0):
        self.buffer = ReassemblyBuffer(slots, timeout)
        # sessions evicted outside tick() (blacklist purges), drained by the caller
        self.evictions: list[ReassemblySession] = []
        # per-source count of transitions into the blocked state
        self.block_events: dict[int, int] = {}

    @classmethod
    def from_config(cls, cfg, trace: bool) -> ReceiverStack:
        """The stack a config.ScenarioConfig asks for; trace keeps the trust history, if any."""
        return cls(cfg.buffer.slots, cfg.buffer.timeout)

    def filter_frame(self, source: int, kind: FragmentKind, now: float) -> bool:
        """Radio-level filter on link source and dispatch kind: True drops the frame."""
        return False

    def identified_at(self, source: int) -> float | None:
        """When the stack first identified source as hostile, if it has."""
        return None

    def _blocked(self, source: int, kind: FragmentKind, now: float) -> bool:
        return False

    def _authentic(self, frag: Fragment) -> bool:
        return True

    def _screen(self, source: int, tag: int, now: float) -> bool:
        return True

    def _seed(self, payload: bytes, nonce: bytes) -> HashChainState | None:
        return None

    def _rejected(self, source: int, now: float, bad_chain: bool) -> None:
        """A continuation had no session, or failed the chain check."""

    def _expired(self, source: int, now: float) -> None:
        """A session timed out."""

    def _flushed(self, source: int, now: float) -> None:
        """A session was still open at the end of the run."""

    def _delivered(self, source: int, now: float) -> None:
        """A datagram completed."""

    def admit(self, frag: Fragment, now: float) -> AdmitResult:
        buffer = self.buffer
        buffer.advance(now)
        src = frag.source
        header = frag.header
        kind = header.kind
        if self._blocked(src, kind, now):
            return _dropped(DropReason.UNTRUSTED)
        cpu = self.VERIFY_CPU_MS
        if not self._authentic(frag):
            return _dropped(DropReason.BAD_SIGNATURE, cpu)
        tag = header.datagram_tag
        ext = header.ext
        if kind is FragmentKind.FRAG1:
            nonce = ext.nonce if ext is not None else bytes(NONCE_LEN)
            ledger = self.ledger
            if ledger is not None and ledger.seen(src, tag, nonce, now):
                return _dropped(DropReason.REPLAY, cpu)
            if buffer.find(src, tag) is not None:
                collision = DropReason.DUPLICATE if ledger is None else DropReason.REPLAY
                return _dropped(collision, cpu)
            if not self._screen(src, tag, now):
                return _dropped(DropReason.UNTRUSTED, cpu)
            if not buffer.has_free_slot():
                return _dropped(DropReason.BUFFER_FULL, cpu)
            if ledger is not None:
                ledger.record(src, tag, nonce, now)
            chain = self._seed(frag.payload, nonce)
            if chain is not None:
                cpu += HASH_CPU_MS
            session = ReassemblySession(src, tag, header.datagram_size, now, chain)
            session.store(frag)
            if not session.complete:
                buffer.open(session)
                return AdmitResult(AdmitStatus.STORED, cpu_ms=cpu)
        else:
            session = buffer.find(src, tag)
            if session is None:
                self._rejected(src, now, False)
                return _dropped(DropReason.NO_SESSION, cpu)
            chain = session.chain
            if chain is not None:
                cpu += HASH_CPU_MS
                signature = ext.signature if ext is not None else b""
                ok, chain = validate_fragment(chain, frag.payload, signature)
                if not ok:
                    self._rejected(src, now, True)
                    return _dropped(DropReason.BAD_SIGNATURE, cpu)
            if session.overlaps(frag):
                return _dropped(DropReason.DUPLICATE, cpu)
            session.chain = chain
            session.store(frag)
            if not session.complete:
                return AdmitResult(AdmitStatus.STORED, cpu_ms=cpu)
            buffer.close(session)
        self._delivered(src, now)
        return AdmitResult(
            AdmitStatus.DELIVERED, payload=session.assemble(), cpu_ms=cpu,
            fragments=session.fragments,
        )

    def tick(self, now: float) -> list[ReassemblySession]:
        """Evict expired sessions."""
        self.buffer.advance(now)
        evicted = self.buffer.evict_expired(now)
        for session in evicted:
            self._expired(session.source, now)
        evicted.extend(self.drain_evictions())
        return evicted

    def flush(self, now: float) -> list[ReassemblySession]:
        """End of run: evict everything still incomplete."""
        self.buffer.advance(now)
        remaining = self.buffer.flush()
        for session in remaining:
            self._flushed(session.source, now)
        remaining.extend(self.drain_evictions())
        return remaining

    def drain_evictions(self) -> list[ReassemblySession]:
        drained = self.evictions
        self.evictions = []
        return drained


class PredictiveCsmStack(ReceiverStack):
    """Trust gate, replay ledger and chained signatures on the shared pipeline.

    Design notes, where behavior is not obvious from the structure:

    - The replay ledger is consulted before behavioral screening and a
      hit carries no trust penalty: replayed headers name a spoofed
      victim, and punishing the victim would let an attacker talk a
      legitimate neighbor onto the blacklist.
    - A behaviorally anomalous first fragment is refused admission even
      when the source still sits above the trust threshold.  The score
      drop is gradual by design; quarantining the anomalous arrival
      itself keeps the slot from being reserved by traffic the engine
      already considers suspicious.
    - First-fragment signatures are not checked at admission (there is
      no chain state yet to check against; the seed digest doubles as
      the stamp).  A single-fragment datagram therefore delivers on the
      strength of trust and replay checks alone.
    - Orphan continuation fragments are penalized: with FIFO links and
      no retransmission, a continuation with no session is either an
      injection or the tail of traffic that already failed.
    - When a source crosses onto the blacklist its open sessions are
      purged immediately (counted as timeouts, with no extra penalty).
    """

    SIGNER = "chain"
    # bench/layers.py wraps these in each stack class's own namespace
    admit, tick, flush = ReceiverStack.admit, ReceiverStack.tick, ReceiverStack.flush

    def __init__(
        self,
        key: bytes,
        trust: TrustParams | None = None,
        nominal_interval: float = 90.0,
        slots: int = 2,
        timeout: float = 10.0,
        keep_trust_history: bool = False,
    ):
        super().__init__(slots, timeout)
        self.key = key
        self.engine = TrustEngine(trust, nominal_interval, keep_trust_history)
        self.tracker = ObservationTracker(nominal_interval)
        self.ledger = ReplayLedger()
        self.block_events = self.engine.block_events
        self.trust_history = self.engine.history

    @classmethod
    def from_config(cls, cfg, trace: bool) -> PredictiveCsmStack:
        return cls(cfg.key, cfg.trust, cfg.traffic.send_interval, cfg.buffer.slots,
                   cfg.buffer.timeout, trace)

    def filter_frame(self, source: int, kind: FragmentKind, now: float) -> bool:
        """Radio-level filter: True when the source is blacklisted.

        Decided from what the radio sees before reassembly, the link
        source and the dispatch kind, so a caller can drop a frame here
        without ever building its fragment.  Filtered frames never reach
        the stack proper (no RX or CPU cost for the receiver), but the
        contact still refreshes the block and the source's timing track.
        """
        if not self.engine.note_blocked_contact(source, now):
            return False
        if kind is FragmentKind.FRAG1:
            self.tracker.touch(source, now)
        return True

    def identified_at(self, source: int) -> float | None:
        return self.engine.first_blocked.get(source)

    def _purge_if_blocked(self, source: int, now: float) -> None:
        if self.engine.is_blocked(source, now):
            self.evictions.extend(self.buffer.purge_source(source))

    def _blocked(self, source: int, kind: FragmentKind, now: float) -> bool:
        # a frame the radio would have filtered never gets past admit() either
        return self.filter_frame(source, kind, now)

    def _screen(self, source: int, tag: int, now: float) -> bool:
        obs = self.tracker.observe_frag1(source, tag, now)
        accept, anomalous = self.engine.evaluate_frag1(source, obs, now)
        if accept and not anomalous:
            return True
        self._purge_if_blocked(source, now)
        return False

    def _seed(self, payload: bytes, nonce: bytes) -> HashChainState:
        return seed_chain(self.key, payload, nonce)

    def _rejected(self, source: int, now: float, bad_chain: bool) -> None:
        self.engine.penalize(source, now)
        if bad_chain:
            self.tracker.note_violation(source)
        self._purge_if_blocked(source, now)

    def _expired(self, source: int, now: float) -> None:
        self.engine.penalize(source, now)
        self._purge_if_blocked(source, now)

    def _flushed(self, source: int, now: float) -> None:
        self.engine.penalize(source, now)

    def _delivered(self, source: int, now: float) -> None:
        self.engine.reward(source, now)
