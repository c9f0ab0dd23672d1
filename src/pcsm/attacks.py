"""Adversary traffic generators.

Five repertoires against the reassembly buffer, each produced as a
time-sorted list of AttackEmission records.  An emission is a wire
recipe, not a finished frame: the simulator materializes it with the
extension layout of whichever stack variant is under test, consuming
no extra randomness, so one seed yields an identical adversary
schedule against every stack.

Attacks that rely on the adversary's own radio identity (everything
except header replay) are preceded by a low-rate warmup phase of
innocuous single-fragment datagrams, which builds a normal-looking
behavioral record before the attack turns on.  The header replay
builder instead captures recent first-fragment headers it observed
arriving at the root and re-emits them byte-exactly with fresh bogus
payloads.
"""

from __future__ import annotations

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


def _warmup_emissions(spec: AttackSpec, rng, tags: _TagCounter, duration: float):
    # Stopping at the end of the run changes nothing: when start >= duration
    # no later draw emits inside the run either.
    out = []
    t = spec.warmup_start
    while t < min(spec.start, duration):
        payload = rng.randbytes(spec.warmup_bytes)
        out.append(AttackEmission(t, FragmentKind.FRAG1, spec.attacker, len(payload), tags.take(),
                                  0, payload, rng.randbytes(4), rng.randbytes(8)))
        t += spec.warmup_interval
    return out


_FORGED_BYTES = MAX_FRAGMENT_PAYLOAD + 4 + 8


def _forged_frag1s(spec: AttackSpec, rng, tags: _TagCounter, times) -> list[AttackEmission]:
    """Forged first-fragment reservations, one at each of `times` in order."""
    # One draw for payload, nonce and signature: randbytes(n) is
    # getrandbits(8 * n) in little-endian order and every part is a whole
    # number of 32-bit words, so this is the stream three randbytes calls give.
    draw = rng.getrandbits
    frag1, attacker, size = FragmentKind.FRAG1, spec.attacker, spec.forged_size
    out = []
    for when, tag in zip(times, tags.take_n(len(times))):
        blob = draw(8 * _FORGED_BYTES).to_bytes(_FORGED_BYTES, "little")
        out.append(AttackEmission(when, frag1, attacker, size, tag, 0,
                                  blob[:MAX_FRAGMENT_PAYLOAD], blob[MAX_FRAGMENT_PAYLOAD:-8],
                                  blob[-8:]))
    return out


def build_early_frag1(spec, legit_sends, duration, rng):
    """Salvo of forged buffer reservations just ahead of each victim transmission."""
    tags = _TagCounter()
    out = _warmup_emissions(spec, rng, tags, duration)
    for send in legit_sends:
        if send.time < spec.start or send.time >= duration:
            continue
        t0 = send.time - spec.early_lead
        out += _forged_frag1s(
            spec, rng, tags, [t0 + k * spec.salvo_spacing for k in range(spec.salvo_size)]
        )
    out.sort(key=lambda e: e.time)
    return out


def build_complete_flooding(spec, legit_sends, duration, rng):
    """Full well-formed fragment trains with garbage payloads and signatures."""
    tags = _TagCounter()
    out = _warmup_emissions(spec, rng, tags, duration)
    t = spec.start
    while t < duration:
        tag = tags.take()
        nonce = rng.randbytes(4)
        body = rng.randbytes(spec.flood_bytes)
        for j in range(0, len(body), MAX_FRAGMENT_PAYLOAD):
            first = j == 0
            out.append(AttackEmission(
                t + (j // MAX_FRAGMENT_PAYLOAD) * spec.flood_pacing,
                FragmentKind.FRAG1 if first else FragmentKind.FRAGN,
                spec.attacker, len(body), tag, j // 8, body[j : j + MAX_FRAGMENT_PAYLOAD],
                nonce if first else b"", rng.randbytes(8),
            ))
        t += spec.flood_interval
    out.sort(key=lambda e: e.time)
    return out


def build_header_replay(spec, legit_sends, duration, rng):
    """Byte-exact re-emission of recently observed first-fragment headers.

    The adversary sniffs next to the root, so only headers whose first
    fragment actually arrived there enter the capture pool.  Each
    replay pairs the stolen header with a fresh bogus payload.
    """
    observed = [
        s for s in legit_sends
        if not (s.lost and s.lost[0])
    ]
    out = []
    t = spec.start
    n = 0
    while t < duration:
        pool = [s for s in observed if s.time < t][-spec.replay_pool:]
        if pool:
            victim = pool[n % len(pool)]
            payload = rng.randbytes(min(MAX_FRAGMENT_PAYLOAD, len(victim.payload)))
            out.append(AttackEmission(
                t, FragmentKind.FRAG1, victim.source, len(victim.payload), victim.tag, 0,
                payload, victim.nonce, bytes(8), victim.payload[:MAX_FRAGMENT_PAYLOAD],
            ))
            n += 1
        t += spec.replay_interval
    return out


def build_burst_injection(spec, legit_sends, duration, rng):
    """Sustained stream of forged reservations at a fixed rate."""
    tags = _TagCounter()
    out = _warmup_emissions(spec, rng, tags, duration)
    times = []
    n = 0
    while True:
        t = spec.start + n / spec.burst_rate
        if t >= duration:
            break
        times.append(t)
        n += 1
    out += _forged_frag1s(spec, rng, tags, times)
    return out


def build_late_phase(spec, legit_sends, duration, rng):
    """Bursts of orphan continuation fragments trailing each victim send."""
    tags = _TagCounter()
    out = _warmup_emissions(spec, rng, tags, duration)
    for send in legit_sends:
        if send.time < spec.start or send.time >= duration:
            continue
        for j, tag in enumerate(tags.take_n(spec.late_orphans)):
            payload = rng.randbytes(MAX_FRAGMENT_PAYLOAD)
            out.append(AttackEmission(
                send.time + spec.late_lag + j * spec.late_spacing, FragmentKind.FRAGN,
                spec.attacker, spec.forged_size, tag, MAX_FRAGMENT_PAYLOAD // 8,
                payload, b"", rng.randbytes(8),
            ))
    out.sort(key=lambda e: e.time)
    return out


BUILDERS = {
    "early_frag1": build_early_frag1,
    "complete_flooding": build_complete_flooding,
    "header_replay": build_header_replay,
    "burst_injection": build_burst_injection,
    "late_phase": build_late_phase,
}


def build_attack(spec: AttackSpec, legit_sends, duration: float, rng) -> list[AttackEmission]:
    """Dispatch to the builder for spec.kind."""
    try:
        builder = BUILDERS[spec.kind]
    except KeyError:
        raise ValueError(f"unknown attack kind: {spec.kind!r}") from None
    ems = builder(spec, legit_sends, duration, rng)
    return [e for e in ems if e.time < duration]
