"""Adversary traffic generators.

Five repertoires against the reassembly buffer, each produced as a
time-sorted AttackSchedule.  An emission is a wire recipe, not a
finished frame: the simulator materializes it with the extension
layout of whichever stack variant is under test, consuming no extra
randomness, so one seed yields an identical adversary schedule against
every stack.

A schedule keeps its emissions as columns: times, kinds, sources,
sizes, tags and offsets in arrays, and the payload, nonce and signature
bytes as slices of one blob that holds the builder's random draws in
call order.  Indexing or iterating it builds AttackEmission records,
so a caller that needs only the columns never builds one.

Attacks that rely on the adversary's own radio identity (everything
except header replay) are preceded by a low-rate warmup phase of
innocuous single-fragment datagrams, which builds a normal-looking
behavioral record before the attack turns on.  The header replay
builder instead captures recent first-fragment headers it observed
arriving at the root and re-emits them byte-exactly with fresh bogus
payloads.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

from .frag_codec import MAX_FRAGMENT_PAYLOAD, FragmentKind

ATTACK_KINDS = (
    "early_frag1",
    "complete_flooding",
    "header_replay",
    "burst_injection",
    "late_phase",
)

# tag range reserved for forged traffic so it never collides with the
# attacker's own warmup datagrams
_FORGED_TAG_BASE = 0x8000


@dataclass(frozen=True)
class ScheduledSend:
    """One legitimate datagram transmission, known to an omniscient adversary."""

    time: float
    source: int
    tag: int
    nonce: bytes
    payload: bytes
    # per-fragment channel fate at the root, index 0 is the first fragment
    lost: tuple[bool, ...] = ()


class AttackEmission(NamedTuple):
    """A single frame the adversary puts on the air."""

    time: float
    kind: FragmentKind
    claimed_source: int
    datagram_size: int
    tag: int
    offset: int = 0
    payload: bytes = b""
    nonce: bytes = b""
    sig: bytes = bytes(8)
    # set when replaying a captured header: the original first-fragment
    # payload, needed to reconstruct the signature the victim sent
    replayed_payload: bytes | None = None


@dataclass(frozen=True)
class AttackSpec:
    """Which attack runs, when, and with what intensity."""

    kind: str
    attacker: int = 9
    start: float = 900.0
    forged_size: int = 200
    warmup_interval: float = 90.0
    warmup_start: float = 50.0
    warmup_bytes: int = 64
    # early_frag1: salvo of forged reservations just before each victim send
    early_lead: float = 0.005
    salvo_size: int = 12
    salvo_spacing: float = 0.0004
    # complete_flooding: well-formed garbage trains
    flood_interval: float = 1.5
    flood_bytes: int = 960
    flood_pacing: float = 0.1
    # header_replay: captured first-fragment headers, round-robin
    replay_interval: float = 3.0
    replay_pool: int = 4
    # burst_injection: sustained forged reservations
    burst_rate: float = 6.0
    # late_phase: orphan continuation fragments trailing each victim send
    late_lag: float = 0.05
    late_orphans: int = 16
    late_spacing: float = 0.1


class _TagCounter:
    def __init__(self, base: int = _FORGED_TAG_BASE):
        self.next_tag = base

    def take_n(self, n: int) -> list[int]:
        """The next n tags, wrapping back into the forged range."""
        tags = []
        tag = self.next_tag
        for _ in range(n):
            tags.append(tag)
            tag = (tag + 1) % 0x10000 or _FORGED_TAG_BASE
        self.next_tag = tag
        return tags

    def take(self) -> int:
        [tag] = self.take_n(1)
        return tag


# kind codes in AttackSchedule.kinds
KIND_CODES = (FragmentKind.FRAG1, FragmentKind.FRAGN)
_FRAG1, _FRAGN = 0, 1
# largest single getrandbits call the blob makes, in bytes
_DRAW_CHUNK = 1 << 16


class AttackSchedule(Sequence):
    """Adversary emissions as columns, written by one builder's rng.

    ``draw(n)`` stands for ``rng.randbytes(n)`` and returns where those
    bytes sit in the blob.  randbytes(n) is getrandbits(8 * n) in
    little-endian order, so consecutive draws that are each a whole
    number of 32-bit words are taken as one getrandbits call (at most
    _DRAW_CHUNK bytes); any other size keeps its own call.  Either way
    the rng leaves in the state the separate calls would leave it in.
    """

    def __init__(self, rng):
        self.times = array("d")
        self.kinds = array("B")
        self.sources = array("q")
        self.sizes = array("i")
        self.tags = array("i")
        self.offsets = array("i")
        # blob positions; nonce_at is -1 for an emission with no nonce of its own
        self.payload_at = array("i")
        self.payload_len = array("i")
        self.nonce_at = array("i")
        self.sig_at = array("i")
        # emission index -> the legit send a header replay copies
        self.victims: dict[int, ScheduledSend] = {}
        self.blob = bytearray()
        self._rng = rng
        self._pending = 0

    def draw(self, n: int) -> int:
        at = len(self.blob) + self._pending
        if n % 4:
            self._flush()
            self.blob += self._rng.randbytes(n)
        else:
            self._pending += n
            if self._pending >= _DRAW_CHUNK:
                self._flush()
        return at

    def _flush(self) -> None:
        n, self._pending = self._pending, 0
        if n:
            self.blob += self._rng.getrandbits(8 * n).to_bytes(n, "little")

    def add(self, time, kind, source, size, tag, offset, payload_at, payload_len,
            nonce_at=-1, sig_at=-1, victim=None) -> None:
        if victim is not None:
            self.victims[len(self.times)] = victim
        self.times.append(time)
        self.kinds.append(kind)
        self.sources.append(source)
        self.sizes.append(size)
        self.tags.append(tag)
        self.offsets.append(offset)
        self.payload_at.append(payload_at)
        self.payload_len.append(payload_len)
        self.nonce_at.append(nonce_at)
        self.sig_at.append(sig_at)

    def _columns(self) -> list[array]:
        return [self.times, self.kinds, self.sources, self.sizes, self.tags, self.offsets,
                self.payload_at, self.payload_len, self.nonce_at, self.sig_at]

    def sort(self) -> AttackSchedule:
        """Stable sort by time, in place."""
        times = self.times
        order = sorted(range(len(times)), key=times.__getitem__)
        if any(i != j for i, j in enumerate(order)):
            for col in self._columns():
                col[:] = array(col.typecode, map(col.__getitem__, order))
            if self.victims:
                place = {old: new for new, old in enumerate(order)}
                self.victims = {place[i]: v for i, v in self.victims.items()}
        return self

    def cut(self, end: float) -> AttackSchedule:
        """Drop every emission at or after end; the schedule must be sorted."""
        self._flush()
        n = bisect_left(self.times, end)
        for col in self._columns():
            del col[n:]
        self.victims = {i: v for i, v in self.victims.items() if i < n}
        return self

    def __len__(self) -> int:
        return len(self.times)

    def __getitem__(self, i: int) -> AttackEmission:
        if i < 0:
            i += len(self)
        self._flush()
        blob = self.blob
        kind = KIND_CODES[self.kinds[i]]
        at = self.payload_at[i]
        payload = bytes(blob[at : at + self.payload_len[i]])
        victim = self.victims.get(i)
        if victim is not None:
            return AttackEmission(self.times[i], kind, self.sources[i], self.sizes[i],
                                  self.tags[i], self.offsets[i], payload, victim.nonce,
                                  bytes(8), victim.payload[:MAX_FRAGMENT_PAYLOAD])
        nonce_at, sig_at = self.nonce_at[i], self.sig_at[i]
        nonce = bytes(blob[nonce_at : nonce_at + 4]) if nonce_at >= 0 else b""
        return AttackEmission(self.times[i], kind, self.sources[i], self.sizes[i],
                              self.tags[i], self.offsets[i], payload, nonce,
                              bytes(blob[sig_at : sig_at + 8]))

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return list(self) == list(other)

    __hash__ = None


def _warmup_emissions(spec: AttackSpec, out: AttackSchedule, tags: _TagCounter,
                      duration: float) -> None:
    # Stopping at the end of the run changes nothing: when start >= duration
    # no later draw emits inside the run either.
    t = spec.warmup_start
    size = spec.warmup_bytes
    while t < min(spec.start, duration):
        at = out.draw(size)
        out.add(t, _FRAG1, spec.attacker, size, tags.take(), 0, at, size,
                out.draw(4), out.draw(8))
        t += spec.warmup_interval


_FORGED_BYTES = MAX_FRAGMENT_PAYLOAD + 4 + 8


def _forged_frag1s(spec: AttackSpec, out: AttackSchedule, tags: _TagCounter, times) -> AttackSchedule:
    """Forged first-fragment reservations, one at each of `times` in order."""
    # payload, nonce and signature are three consecutive draws of whole words
    attacker, size = spec.attacker, spec.forged_size
    for when, tag in zip(times, tags.take_n(len(times))):
        at = out.draw(_FORGED_BYTES)
        out.add(when, _FRAG1, attacker, size, tag, 0, at, MAX_FRAGMENT_PAYLOAD,
                at + MAX_FRAGMENT_PAYLOAD, at + MAX_FRAGMENT_PAYLOAD + 4)
    return out


def build_early_frag1(spec, legit_sends, duration, rng) -> AttackSchedule:
    """Salvo of forged buffer reservations just ahead of each victim transmission."""
    tags = _TagCounter()
    out = AttackSchedule(rng)
    _warmup_emissions(spec, out, tags, duration)
    for send in legit_sends:
        if send.time < spec.start or send.time >= duration:
            continue
        t0 = send.time - spec.early_lead
        _forged_frag1s(
            spec, out, tags, [t0 + k * spec.salvo_spacing for k in range(spec.salvo_size)]
        )
    return out.sort()


def build_complete_flooding(spec, legit_sends, duration, rng) -> AttackSchedule:
    """Full well-formed fragment trains with garbage payloads and signatures."""
    tags = _TagCounter()
    out = AttackSchedule(rng)
    _warmup_emissions(spec, out, tags, duration)
    size = spec.flood_bytes
    t = spec.start
    while t < duration:
        tag = tags.take()
        nonce_at = out.draw(4)
        body_at = out.draw(size)
        for j in range(0, size, MAX_FRAGMENT_PAYLOAD):
            first = j == 0
            out.add(t + (j // MAX_FRAGMENT_PAYLOAD) * spec.flood_pacing,
                    _FRAG1 if first else _FRAGN, spec.attacker, size, tag, j // 8,
                    body_at + j, min(MAX_FRAGMENT_PAYLOAD, size - j),
                    nonce_at if first else -1, out.draw(8))
        t += spec.flood_interval
    return out.sort()


def build_header_replay(spec, legit_sends, duration, rng) -> AttackSchedule:
    """Byte-exact re-emission of recently observed first-fragment headers.

    The adversary sniffs next to the root, so only headers whose first
    fragment actually arrived there enter the capture pool.  Each
    replay pairs the stolen header with a fresh bogus payload.
    """
    observed = [
        s for s in legit_sends
        if not (s.lost and s.lost[0])
    ]
    out = AttackSchedule(rng)
    t = spec.start
    n = 0
    while t < duration:
        pool = [s for s in observed if s.time < t][-spec.replay_pool:]
        if pool:
            victim = pool[n % len(pool)]
            size = len(victim.payload)
            payload_len = min(MAX_FRAGMENT_PAYLOAD, size)
            out.add(t, _FRAG1, victim.source, size, victim.tag, 0,
                    out.draw(payload_len), payload_len, victim=victim)
            n += 1
        t += spec.replay_interval
    return out


def build_burst_injection(spec, legit_sends, duration, rng) -> AttackSchedule:
    """Sustained stream of forged reservations at a fixed rate."""
    tags = _TagCounter()
    out = AttackSchedule(rng)
    _warmup_emissions(spec, out, tags, duration)
    times = []
    n = 0
    while True:
        t = spec.start + n / spec.burst_rate
        if t >= duration:
            break
        times.append(t)
        n += 1
    return _forged_frag1s(spec, out, tags, times)


def build_late_phase(spec, legit_sends, duration, rng) -> AttackSchedule:
    """Bursts of orphan continuation fragments trailing each victim send."""
    tags = _TagCounter()
    out = AttackSchedule(rng)
    _warmup_emissions(spec, out, tags, duration)
    for send in legit_sends:
        if send.time < spec.start or send.time >= duration:
            continue
        for j, tag in enumerate(tags.take_n(spec.late_orphans)):
            at = out.draw(MAX_FRAGMENT_PAYLOAD)
            out.add(send.time + spec.late_lag + j * spec.late_spacing, _FRAGN,
                    spec.attacker, spec.forged_size, tag, MAX_FRAGMENT_PAYLOAD // 8,
                    at, MAX_FRAGMENT_PAYLOAD, -1, out.draw(8))
    return out.sort()


BUILDERS = {
    "early_frag1": build_early_frag1,
    "complete_flooding": build_complete_flooding,
    "header_replay": build_header_replay,
    "burst_injection": build_burst_injection,
    "late_phase": build_late_phase,
}


def build_attack(spec: AttackSpec, legit_sends, duration: float, rng) -> AttackSchedule:
    """Dispatch to the builder for spec.kind; emissions at or past duration are dropped."""
    try:
        builder = BUILDERS[spec.kind]
    except KeyError:
        raise ValueError(f"unknown attack kind: {spec.kind!r}") from None
    return builder(spec, legit_sends, duration, rng).cut(duration)
