"""Adversary traffic generators.

Five repertoires against the reassembly buffer, one entry each in KINDS
under its config name.  An entry holds all that sets a kind apart: its
emit function, whether a warmup from the attacker's own identity comes
first, its planned-emission estimate and its config check.  build_attack
does the rest once: the tag counter, the warmup, the sort and the cut.

An emission is a wire recipe, not a finished frame: the simulator
materializes it with the extension layout of whichever stack variant
is under test, consuming no extra randomness, so one seed yields an
identical adversary schedule against every stack.

A schedule keeps its emissions as columns: times, kinds, sources,
sizes, tags, offsets and victims in arrays, and the payload, nonce and
signature bytes as slices of one blob that holds the builder's random
draws in call order, each made when a reader first needs its bytes.
That is the only form an emission takes: the simulator builds an
admitted frame's fragment straight from its row.

The warmup is a low-rate phase of innocuous single-fragment datagrams,
which builds a normal-looking behavioral record before the attack turns
on.  Header replay has none: it re-emits first-fragment headers it saw
arrive at the root, byte-exactly, with fresh bogus payloads.  A victim
is the legit fragment an emission copies, by its index among the
traffic's legit fragments (each send's, in send order, as
fragment_packet slices them): for a header replay, a send's first.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial
from itertools import count, islice, repeat, takewhile
from operator import add, gt, le, truediv
from typing import NamedTuple

from .frag_codec import MAX_FRAGMENT_PAYLOAD

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

    def take_n(self, n: int) -> array:
        """The next n tags, wrapping back into the forged range."""
        tags = array("i")
        tag = self.next_tag
        while n:
            run = min(n, 0x10000 - tag)  # up to the wrap
            tags.extend(range(tag, tag + run))
            n -= run
            tag = (tag + run) % 0x10000 or _FORGED_TAG_BASE
        self.next_tag = tag
        return tags

    def take(self) -> int:
        [tag] = self.take_n(1)
        return tag


# codes in AttackSchedule.kinds, indexes of frag_codec.KIND_CODES
_FRAG1, _FRAGN = 0, 1


def sort_columns(columns: list[array]) -> None:
    """Stable sort of equal-length columns by the first one, in place."""
    key = columns[0]
    if all(map(le, key, islice(key, 1, None))):
        return  # the usual case: no order list to build
    order = sorted(range(len(key)), key=key.__getitem__)
    for col in columns:
        col[:] = array(col.typecode, map(col.__getitem__, order))


class AttackSchedule:
    """Adversary emissions as columns, written by one builder's rng.

    Row i of the columns is one emission; kinds[i] indexes frag_codec.KIND_CODES.
    Its payload, nonce and signature are the blob's payload_len[i]
    bytes at payload_at[i], 4 at nonce_at[i] and 8 at sig_at[i].
    ``draw(n)`` records one ``rng.randbytes(n)`` and returns its offset;
    ``fill(end)`` makes the draws in call order until the blob, the
    bytes made so far, holds end of them, and returns its length.  A
    reader past its end calls fill first.
    """

    def __init__(self, rng):
        self.times = array("d")
        self.kinds = array("B")
        self.sources = array("i")
        self.sizes = array("i")
        self.tags = array("i")
        self.offsets = array("i")
        # blob positions; nonce_at is -1 on a FragN, and both are -1 on a
        # header replay, which goes out with its victim's header
        self.payload_at = array("i")
        self.payload_len = array("i")
        self.nonce_at = array("i")
        self.sig_at = array("i")
        # the legit fragment an emission copies (see the module docstring), or -1
        self.victims = array("i")
        self.blob = bytearray()
        # every draw's size in call order, how many are made, and their total
        self._draws, self._made, self.drawn = array("i"), 0, 0
        self._rng = rng

    def draw(self, n: int) -> int:
        """Record a draw of n random bytes and return where they will start in the blob."""
        at = self.drawn
        self._draws.append(n)
        self.drawn += n
        return at

    def fill(self, end: int) -> int:
        """Draw, in call order, until the blob holds end bytes; return the blob's length."""
        blob, draws, randbytes = self.blob, self._draws, self._rng.randbytes
        k = self._made
        while len(blob) < end:
            blob += randbytes(draws[k])
            k += 1
        self._made = k
        return len(blob)

    def add(self, time, kind, source, size, tag, offset, payload_at, payload_len,
            nonce_at=-1, sig_at=-1, victim=-1) -> None:
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
        self.victims.append(victim)

    def _columns(self) -> list[array]:
        return [self.times, self.kinds, self.sources, self.sizes, self.tags, self.offsets,
                self.payload_at, self.payload_len, self.nonce_at, self.sig_at, self.victims]

    def sort(self) -> AttackSchedule:
        """Stable sort by time, in place."""
        sort_columns(self._columns())
        return self

    def cut(self, end: float) -> AttackSchedule:
        """Drop every emission at or after end; the schedule must be sorted."""
        n = bisect_left(self.times, end)
        for col in self._columns():
            del col[n:]
        return self

    def __len__(self) -> int:
        return len(self.times)


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
# emissions per draw, so that one draw stays within 64 KiB
_FORGED_CHUNK = 65536 // _FORGED_BYTES


def _forged_frag1s(spec: AttackSpec, out: AttackSchedule, tags: _TagCounter, times) -> AttackSchedule:
    """Forged first-fragment reservations, one at each of `times` in order."""
    # one draw per chunk, each emission's payload, nonce and signature in
    # turn: whole words, so the same bytes and rng state as three draws each
    tag_list = tags.take_n(len(times))
    for lo in range(0, len(times), _FORGED_CHUNK):
        k = min(_FORGED_CHUNK, len(times) - lo)
        at = out.draw(k * _FORGED_BYTES)
        end = out.drawn
        runs = (times[lo : lo + k], _FRAG1, spec.attacker, spec.forged_size,  # add()'s order
                tag_list[lo : lo + k], 0, range(at, end, _FORGED_BYTES), MAX_FRAGMENT_PAYLOAD,
                range(at + MAX_FRAGMENT_PAYLOAD, end, _FORGED_BYTES),
                range(at + MAX_FRAGMENT_PAYLOAD + 4, end, _FORGED_BYTES), -1)
        for col, run in zip(out._columns(), runs):
            col.extend(array(col.typecode, (run,)) * k if isinstance(run, int) else run)
    return out


def _emit_early_frag1(spec, legit_sends, duration, out, tags) -> None:
    """Salvo of forged buffer reservations just ahead of each victim transmission."""
    for send in legit_sends:
        if spec.start <= send.time < duration:
            t0 = send.time - spec.early_lead
            _forged_frag1s(spec, out, tags,
                           [t0 + k * spec.salvo_spacing for k in range(spec.salvo_size)])


def _emit_complete_flooding(spec, legit_sends, duration, out, tags) -> None:
    """Full well-formed fragment trains with garbage payloads and signatures."""
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


def _emit_header_replay(spec, legit_sends, duration, out, tags) -> None:
    """Byte-exact re-emission of recently observed first-fragment headers.

    The adversary sniffs next to the root, so only headers whose first
    fragment actually arrived there enter the capture pool: the last
    replay_pool of them sent before the replay, a window that moves along
    the time-sorted sends.  Each replay pairs the stolen header with a
    fresh bogus payload.
    """
    observed = []  # (first-fragment index, send) per send whose first fragment arrived
    first = 0
    for send in legit_sends:
        if not (send.lost and send.lost[0]):
            observed.append((first, send))
        first += -(-len(send.payload) // MAX_FRAGMENT_PAYLOAD)  # the send's fragments
    seen = n = 0
    t = spec.start
    while t < duration:
        while seen < len(observed) and observed[seen][1].time < t:
            seen += 1
        pool = min(seen, spec.replay_pool)
        if pool:
            victim, send = observed[seen - pool + n % pool]
            size = len(send.payload)
            payload_len = min(MAX_FRAGMENT_PAYLOAD, size)
            out.add(t, _FRAG1, send.source, size, send.tag, 0,
                    out.draw(payload_len), payload_len, victim=victim)
            n += 1
        t += spec.replay_interval


def _emit_burst_injection(spec, legit_sends, duration, out, tags) -> None:
    """Sustained stream of forged reservations at a fixed rate."""
    times = map(truediv, count(), repeat(spec.burst_rate))
    times = takewhile(partial(gt, duration), map(partial(add, spec.start), times))
    _forged_frag1s(spec, out, tags, array("d", times))


def _emit_late_phase(spec, legit_sends, duration, out, tags) -> None:
    """Bursts of orphan continuation fragments trailing each victim send."""
    for send in legit_sends:
        if spec.start <= send.time < duration:
            for j, tag in enumerate(tags.take_n(spec.late_orphans)):
                at = out.draw(MAX_FRAGMENT_PAYLOAD)
                out.add(send.time + spec.late_lag + j * spec.late_spacing, _FRAGN,
                        spec.attacker, spec.forged_size, tag, MAX_FRAGMENT_PAYLOAD // 8,
                        at, MAX_FRAGMENT_PAYLOAD, -1, out.draw(8))


def _check_late_phase(spec):
    # every orphan sits at offset MAX_FRAGMENT_PAYLOAD, which must fall inside the datagram
    if spec.forged_size <= MAX_FRAGMENT_PAYLOAD:
        return "forged_size", f"must be > {MAX_FRAGMENT_PAYLOAD} for late_phase"
    return None


class AttackKind(NamedTuple):
    """What sets one attack kind apart from the others."""

    # emit(spec, legit_sends, duration, out, tags): add the kind's emissions to
    # the AttackSchedule out, in any order, taking forged tags from tags
    emit: Callable
    # whether a warmup from the attacker's own identity comes first
    warmup: bool
    # planned(spec, sends, window): at least the emissions past the warmup, given
    # the legit sends planned and the attack window (see config.planned_arrivals)
    planned: Callable
    # check(spec): None, or (field, problem) for a spec the kind cannot build
    check: Callable = lambda spec: None


KINDS = {
    "early_frag1": AttackKind(_emit_early_frag1, True,
                              lambda a, sends, _: sends * a.salvo_size),
    "complete_flooding": AttackKind(_emit_complete_flooding, True, lambda a, _, window: (
        window / a.flood_interval + 1) * -(-a.flood_bytes // MAX_FRAGMENT_PAYLOAD)),
    "header_replay": AttackKind(_emit_header_replay, False,
                                lambda a, _, window: window / a.replay_interval + 1),
    "burst_injection": AttackKind(_emit_burst_injection, True,
                                  lambda a, _, window: window * a.burst_rate + 1),
    "late_phase": AttackKind(_emit_late_phase, True,
                             lambda a, sends, _: sends * a.late_orphans, _check_late_phase),
}
ATTACK_KINDS = tuple(KINDS)


def build_attack(spec: AttackSpec, legit_sends, duration: float, rng) -> AttackSchedule:
    """spec's schedule against the time-sorted legit_sends, cut at duration."""
    try:
        kind = KINDS[spec.kind]
    except KeyError:
        raise ValueError(f"unknown attack kind: {spec.kind!r}") from None
    out, tags = AttackSchedule(rng), _TagCounter()
    if kind.warmup:
        _warmup_emissions(spec, out, tags, duration)
    kind.emit(spec, legit_sends, duration, out, tags)
    return out.sort().cut(duration)
