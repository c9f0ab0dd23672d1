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

from bisect import bisect_left, bisect_right
from collections import OrderedDict
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from heapq import heappop, heappush
from operator import itemgetter
from typing import NamedTuple

from .frag_codec import FRAG1, KIND_CODES, NONCE_LEN, OFFSET_UNIT, Fragment, FragmentKind
from .hash_chain import ChainLinks, HashChainState, seed_chain, validate_fragment
from .trust_engine import TrustEngine, TrustParams

# CPU milliseconds charged per keyed-hash operation (seed or verify).
HASH_CPU_MS = 0.5
# the nonce of a first fragment that carries no extension
_NO_NONCE = bytes(NONCE_LEN)


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


class AdmitResult(NamedTuple):
    status: AdmitStatus
    reason: DropReason | None = None
    payload: bytes | None = None
    cpu_ms: float = 0.0
    # the delivered session's (offset, payload, record) rows, for the caller's accounting
    fragments: Sequence[tuple[int, bytes, int | None]] = ()


@lru_cache(maxsize=64)
def _dropped(reason: DropReason, cpu_ms: float = 0.0) -> AdmitResult:
    # immutable, so one result serves every drop with the same reason and charge
    return AdmitResult(AdmitStatus.DROPPED, reason=reason, cpu_ms=cpu_ms)


# admit()'s result for a frame its radio filter drops, told apart by identity
FILTERED = AdmitResult(AdmitStatus.DROPPED, DropReason.UNTRUSTED)


@lru_cache(maxsize=16)
def _stored(cpu_ms: float) -> AdmitResult:
    return AdmitResult(AdmitStatus.STORED, cpu_ms=cpu_ms)


class ReplayLedger:
    """Recently admitted (source, tag, nonce) triples with expiry.

    A hit refreshes the entry: a triple being replayed is exactly the
    one worth remembering.  Capacity eviction is FIFO by insertion.
    Every expiry set also goes on a heap, so a purge pops only expired
    items; each deletes its entry only if the entry's current expiry has
    passed too, since a refresh or an eviction may have overtaken it.
    """

    def __init__(self, horizon: float = 60.0, capacity: int = 64):
        self.horizon = horizon
        self.capacity = capacity
        self.entries: OrderedDict[tuple[int, int, bytes], float] = OrderedDict()
        self._expiries: list[tuple[float, tuple[int, int, bytes]]] = []
        self._purged_at: float | None = None

    def _purge(self, now: float) -> None:
        # a positive horizon sets every expiry past its instant, so nothing expires
        # between two calls at one instant: record right after seen purges once
        if now == self._purged_at:
            return
        self._purged_at = now if self.horizon > 0 else None
        heap, entries = self._expiries, self.entries
        while heap and heap[0][0] <= now:
            key = heappop(heap)[1]
            expiry = entries.get(key)
            if expiry is not None and expiry <= now:
                del entries[key]

    def _refresh(self, key: tuple[int, int, bytes], now: float) -> None:
        expiry = now + self.horizon
        self.entries[key] = expiry
        heappush(self._expiries, (expiry, key))

    def seen(self, source: int, tag: int, nonce: bytes, now: float) -> bool:
        self._purge(now)
        key = (source, tag, nonce)
        if key in self.entries:
            self._refresh(key, now)
            return True
        return False

    def record(self, source: int, tag: int, nonce: bytes, now: float) -> None:
        self._purge(now)
        self._refresh((source, tag, nonce), now)
        while len(self.entries) > self.capacity:
            self.entries.popitem(last=False)


@dataclass(slots=True)
class ReassemblySession:
    source: int
    tag: int
    expected_size: int
    started_at: float
    chain: HashChainState | None
    # (offset in OFFSET_UNITs, payload, record) per stored frame, in arrival order;
    # no two share a byte
    fragments: list[tuple[int, bytes, int | None]] = field(default_factory=list)
    received_bytes: int = 0

    def fits(self, offset: int, length: int) -> bool:
        """Whether length bytes at offset (in OFFSET_UNITs) end inside the
        datagram and share no byte with a stored fragment."""
        start = offset * OFFSET_UNIT
        end = start + length
        if end > self.expected_size:
            return False
        for at, payload, _ in self.fragments:
            at *= OFFSET_UNIT
            if at < end and start < at + len(payload):
                return False
        return True

    def store(self, offset: int, payload: bytes, record: int | None) -> None:
        self.fragments.append((offset, payload, record))
        self.received_bytes += len(payload)

    @property
    def complete(self) -> bool:
        return self.received_bytes == self.expected_size

    def assemble(self) -> bytes:
        return b"".join(payload for _, payload, _ in sorted(self.fragments, key=itemgetter(0)))


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

    def open(self, session: ReassemblySession) -> None:
        if len(self.sessions) >= self.slots:
            raise RuntimeError("no free slot; callers must check first")
        self.sessions[(session.source, session.tag)] = session
        self.max_occupancy = max(self.max_occupancy, len(self.sessions))

    def close(self, session: ReassemblySession) -> None:
        self.sessions.pop((session.source, session.tag), None)

    def idle_tick(self, now: float) -> bool:
        """advance(now) and True if evict_expired(now) would evict nothing; else False, no change."""
        for s in self.sessions.values():
            if s.started_at + self.timeout < now and not s.complete:
                return False
        self.advance(now)
        return True

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

    admit_fields() holds the one fixed gate order, over a frame's header
    fields and payload; a session stores a frame as its offset, payload
    and record, never as a Fragment.  The simulator calls it for each
    arrival the radio check (filter_frame) lets through; admit() runs a
    library caller's Fragment through both.
    Every gate here is open and every outcome hook a no-op, so this class
    as it stands is the vanilla stack.  An open-session collision is a
    REPLAY on a stack with a replay ledger; without one it cannot be told
    from tag wrap-around and is a structural DUPLICATE.  Only a session
    that holds a chain is checked, and each chain seed or verify costs
    HASH_CPU_MS.  VERIFY_CPU_MS is charged on every outcome past the
    blocked-source gate.  A continuation that passes every check but does
    not fit the datagram (it overlaps stored bytes or runs past the
    declared size) is a DUPLICATE, with no trust effect, and so is a first
    fragment that carries more bytes than its datagram declares, which no
    session could ever complete.
    """

    VERIFY_CPU_MS = 0.0
    # how this stack's senders sign a train: None (no extension), "chain" or "mac"
    SIGNER: str | None = None
    ledger: ReplayLedger | None = None
    trust_history: list[tuple[float, int, float]] | None = None
    # chain links the senders already hashed, looked up before hashing again
    links: ChainLinks | None = None

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

    def filter_run(self, plan, i: int) -> Sequence[tuple[int, int]]:
        """The (start, end) ranges of plan's arrival indexes, from i on, that the radio filters,
        once filter_frame has filtered arrival i.

        The radio sees only each arrival's link source and dispatch kind
        (plan's times, sources and kinds columns; kinds index
        KIND_CODES).  The caller drops the ranges unseen, so no frame or
        tick between them may change what the stack does with them.  Here: arrival i alone.
        """
        return ((i, i + 1),)

    def filter_frame(self, source: int, kind: FragmentKind, now: float) -> bool:
        """The radio filter for one frame: True drops it; this stack filters nothing."""
        return False

    def identified_at(self, source: int) -> float | None:
        """When the stack first identified source as hostile, if it has."""
        return None

    def _blocked(self, source: int, kind: FragmentKind, now: float) -> bool:
        return False

    def _authentic(self, source: int, kind: FragmentKind, size: int, tag: int, offset: int,
                   nonce: bytes | None, signature: bytes | None, payload: bytes) -> bool:
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
        """Run frag through the radio filter, then the gates; admit_fields has the sequence."""
        header = frag.header
        if self.filter_frame(frag.source, header.kind, now):
            return FILTERED
        ext = header.ext
        nonce, signature = (None, None) if ext is None else (ext.nonce, ext.signature)
        return self.admit_fields(
            frag.source, header.kind, header.datagram_size, header.datagram_tag,
            header.datagram_offset, nonce, signature, frag.payload, now, frag.record)

    def admit_fields(self, src: int, kind: FragmentKind, size: int, tag: int, offset: int,
                     nonce: bytes | None, signature: bytes | None, payload: bytes, now: float,
                     record: int | None) -> AdmitResult:
        """The gate sequence, over one frame's header fields and payload.

        nonce and signature are the extension's, both None on a frame
        without one.  record is the caller's name for the frame
        (Fragment.record); a session that stores the frame keeps it with
        the frame's offset and payload.
        """
        buffer = self.buffer
        sessions = buffer.sessions
        buffer.advance(now)
        if self._blocked(src, kind, now):
            return _dropped(DropReason.UNTRUSTED)
        cpu = self.VERIFY_CPU_MS
        if not self._authentic(src, kind, size, tag, offset, nonce, signature, payload):
            return _dropped(DropReason.BAD_SIGNATURE, cpu)
        if kind is FRAG1:
            if nonce is None:
                nonce = _NO_NONCE
            ledger = self.ledger
            if ledger is not None and ledger.seen(src, tag, nonce, now):
                return _dropped(DropReason.REPLAY, cpu)
            if (src, tag) in sessions:
                collision = DropReason.DUPLICATE if ledger is None else DropReason.REPLAY
                return _dropped(collision, cpu)
            if len(payload) > size:
                return _dropped(DropReason.DUPLICATE, cpu)
            if not self._screen(src, tag, now):
                return _dropped(DropReason.UNTRUSTED, cpu)
            if len(sessions) >= buffer.slots:
                return _dropped(DropReason.BUFFER_FULL, cpu)
            if ledger is not None:
                ledger.record(src, tag, nonce, now)
            chain = self._seed(payload, nonce)
            if chain is not None:
                cpu += HASH_CPU_MS
            session = ReassemblySession(src, tag, size, now, chain)
            session.store(offset, payload, record)
            if not session.complete:
                buffer.open(session)
                return _stored(cpu)
        else:
            session = sessions.get((src, tag))
            if session is None:
                self._rejected(src, now, False)
                return _dropped(DropReason.NO_SESSION, cpu)
            chain = session.chain
            if chain is not None:
                cpu += HASH_CPU_MS
                ok, chain = validate_fragment(chain, payload, signature or b"", self.links)
                if not ok:
                    self._rejected(src, now, True)
                    return _dropped(DropReason.BAD_SIGNATURE, cpu)
            if not session.fits(offset, len(payload)):
                return _dropped(DropReason.DUPLICATE, cpu)
            session.chain = chain
            session.store(offset, payload, record)
            if not session.complete:
                return _stored(cpu)
            buffer.close(session)
        self._delivered(src, now)
        return AdmitResult(
            AdmitStatus.DELIVERED, payload=session.assemble(), cpu_ms=cpu,
            fragments=session.fragments,
        )

    def tick(self, now: float) -> list[ReassemblySession]:
        """Evict expired sessions; a tick that evicts nothing only moves the occupancy clock."""
        if not self.evictions and self.buffer.idle_tick(now):
            return []
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
    - The radio check is filter_frame, first in admit() and run once
      per arrival by the simulator; filter_run then hands over the rest
      of the block episode it opens.
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
        contact still pushes the block's expiry out to now plus block_duration
        and sets the source's first-fragment time, so probing during a
        block cannot launder its inter-arrival.  An unknown or unblocked
        source costs one state lookup and gets no TrustState.
        """
        state = self.engine.states.get(source)
        if state is None:
            return False
        until = state.blacklisted_until
        if until is None or now >= until:
            return False
        proposed = now + self.engine.params.block_duration
        if proposed > until:
            state.blacklisted_until = proposed
        if kind is FRAG1:
            state.last_frag1_time = now
        return True

    def filter_run(self, plan, i: int) -> Sequence[tuple[int, int]]:
        """The block episode of arrival i, which filter_frame has just filtered, at once.

        A blocked source holds no session, since every move into a block
        purges its sessions (_purge_if_blocked, from _screen, _rejected
        and _expired); so only its own arrivals change its block expiry
        and last first-fragment time, and each filtered one pushes the
        expiry to its time plus block_duration.  Its next arrival is
        therefore filtered iff it comes before its predecessor's time plus
        block_duration, whatever other sources' frames and ticks fall
        between.  Then the expiry and the first-fragment time each take
        one write, with what per-frame calls would have left.
        """
        times, source = plan.times, plan.sources[i]
        block = self.engine.params.block_duration
        starts, ends = plan.runs(source)
        r, a, ranges = bisect_right(starts, i) - 1, i, []
        while True:
            k, end = a, ends[r]
            # a gap of a block ends the episode inside a run that spans a block:
            # jump to the last arrival less than a block after arrival k
            while times[end - 1] >= times[k] + block:
                j = bisect_left(times, times[k] + block, k + 1, end)
                if j == k + 1:
                    end = j
                    break
                k = j - 1
            ranges.append((a, end))
            if (end < ends[r] or r + 1 == len(starts)
                    or times[starts[r + 1]] >= times[end - 1] + block):
                break
            r, a = r + 1, starts[r + 1]
        # pushed here, not by filter_frame: the episode has passed the
        # expiry filter_frame set for arrival i
        state = self.engine.states[source]
        state.blacklisted_until = max(state.blacklisted_until, times[end - 1] + block)
        kinds = plan.kinds.tobytes()
        for a, b in reversed(ranges):
            k = kinds.rfind(KIND_CODES.index(FRAG1), a, b)
            if k >= 0:
                if k > i:
                    state.last_frag1_time = times[k]
                break
        return ranges

    def identified_at(self, source: int) -> float | None:
        return self.engine.first_blocked.get(source)

    def _purge_if_blocked(self, source: int, now: float) -> None:
        if self.engine.is_blocked(source, now):
            self.evictions.extend(self.buffer.purge_source(source))

    def _screen(self, source: int, tag: int, now: float) -> bool:
        obs = self.engine.observe_frag1(source, tag, now)
        accept, anomalous = self.engine.evaluate_frag1(source, obs, now)
        if accept and not anomalous:
            return True
        self._purge_if_blocked(source, now)
        return False

    def _seed(self, payload: bytes, nonce: bytes) -> HashChainState:
        return seed_chain(self.key, payload, nonce, self.links)

    def _rejected(self, source: int, now: float, bad_chain: bool) -> None:
        state = self.engine.penalize(source, now)
        if bad_chain:
            state.violation_pending = True
        self._purge_if_blocked(source, now)

    def _expired(self, source: int, now: float) -> None:
        self.engine.penalize(source, now)
        self._purge_if_blocked(source, now)

    def _flushed(self, source: int, now: float) -> None:
        self.engine.penalize(source, now)

    def _delivered(self, source: int, now: float) -> None:
        self.engine.reward(source, now)
