"""Deterministic discrete-event simulation of a star 6LoWPAN deployment.

One root (node 0) reassembles fragmented datagrams from a ring of
senders (nodes 1..N); an optional adversary node transmits whatever its
attack schedule says.  Frames propagate with a fixed 1 ms delay, may be
lost or payload-corrupted by the channel, and are then pushed through
the configured receiver stack.  Every received fragment ends the run
with exactly one terminal disposition, which downstream metrics rely
on for conservation checking.

Randomness is split into named streams keyed by the run seed alone, so
a seed fully determines the traffic, the adversary schedule, and the
channel, independently of which stack variant is under test.  That
alignment is what makes cross-stack comparisons under a matched seed
meaningful, and it splits a run in two:

- Plan (plan_arrivals): the legit sends with their loss and corruption
  fates, the adversary schedule with its channel fates, the sent
  counts, and every frame that reaches the root, stable-sorted by
  arrival time (legitimate fragments before adversary frames at equal
  times).  It depends on the seed and the world (every config field
  except the stack, its buffer and trust settings, and the name), and
  is stored as columns.  It signs the legit fragments lazily, once per
  wire format.
- Replay (simulate): build the stack, visit the plan's arrivals in one
  pass, and keep the ledgers and records.  No event schedules another,
  so nothing is added to the plan on the way.  Housekeeping ticks fall
  on whole seconds, after any arrival at the same instant, and run only
  while the reassembly buffer holds an open session; on an empty buffer
  a tick changes nothing.

A plan lives as long as its caller keeps it: simulate builds one per
run unless given one, and the command-line sweeps build one per seed
and world, replay it for every stack and trust cell that shares it,
and drop it before the next.  Nothing caches plans across calls.

Every arrival meets the radio prefilter first, which sees only the link
source and the dispatch kind.  A frame the prefilter drops gets one
record, final from the start ("untrusted", prefiltered), and costs
nothing more.  Any other frame gets one record that the stack's outcome
completes, and a fragment built for this run: a legit one from the
plan's signed fragments, an adversary one from its schedule entry in
the wire shape of the stack under test.  A replayed header is the
victim's own signed first fragment, so that header is taken as sent.
"""

from __future__ import annotations

import heapq  # unused here; bench/layers.py patches simulator.heapq when tracing
import math
import random
from array import array
from dataclasses import dataclass, field, fields
from typing import NamedTuple

from .attacks import KIND_CODES, AttackEmission, AttackSchedule, ScheduledSend, build_attack
# fragment_mac and seed_chain are unused here; bench/layers.py wraps both when tracing
from .baselines import MAC_CPU_MS, STACKS, fragment_mac, mac_sign_fragments
from .config import ScenarioConfig
from .frag_codec import (
    MAX_FRAGMENT_PAYLOAD,
    ExtensionFields,
    Fragment,
    FragmentHeader,
    FragmentKind,
    fragment_packet,
    header_length,
)
from .hash_chain import seed_chain, sign_fragments
from .reassembly import HASH_CPU_MS, AdmitStatus

PROPAGATION_DELAY = 0.001
TICK_INTERVAL = 1.0
BITRATE = 250_000.0

# Current draw per powered state, milliamps at 3 volts.
VOLTAGE = 3.0
CURRENT_CPU_MA = 1.8
CURRENT_LPM_MA = 0.0545
CURRENT_TX_MA = 17.7
CURRENT_RX_MA = 20.0

ROOT = 0


def airtime(nbytes: int) -> float:
    """Seconds on air for a frame of the given size."""
    return nbytes * 8 / BITRATE


@dataclass
class EnergyLedger:
    """Accumulated active time for one node."""

    cpu_ms: float = 0.0
    tx_s: float = 0.0
    rx_s: float = 0.0

    def power_mw(self, elapsed: float) -> float:
        """Mean power over the run; idle time is spent in low-power mode."""
        if elapsed <= 0:
            return 0.0
        cpu_s = min(self.cpu_ms / 1000.0, elapsed)
        lpm_s = elapsed - cpu_s
        ma_seconds = (
            CURRENT_CPU_MA * cpu_s
            + CURRENT_LPM_MA * lpm_s
            + CURRENT_TX_MA * self.tx_s
            + CURRENT_RX_MA * self.rx_s
        )
        return VOLTAGE * ma_seconds / elapsed


@dataclass(slots=True)
class FrameRecord:
    """Terminal accounting entry for one fragment that reached the root."""

    time: float
    source: int
    origin: int
    kind: FragmentKind
    disposition: str
    prefiltered: bool = False


@dataclass
class DeliveredRecord:
    time: float
    source: int
    origin: int
    tag: int
    intact: bool


@dataclass
class RunResult:
    name: str
    stack: str
    seed: int
    duration: float
    senders: int
    attacker: int | None
    attack_kind: str | None
    attack_start: float | None
    sent_datagrams: dict[int, int]
    sent_fragments: dict[int, int]
    records: list[FrameRecord]
    delivered: list[DeliveredRecord]
    identified_at: float | None
    mean_availability: float
    max_occupancy: int
    node_power_mw: dict[int, float]
    block_events: dict[int, int] = field(default_factory=dict)
    trust_history: list | None = None


class _Frame(NamedTuple):
    """One frame of a plan that survives the channel and reaches the root."""

    arrival: float
    source: int
    kind: FragmentKind
    origin: int
    corrupt: bool
    # index of the legit fragment, or ~index of the adversary emission
    ref: int


def _corrupt_payload(payload: bytes) -> bytes:
    if not payload:
        return payload
    return payload[:-1] + bytes([payload[-1] ^ 0x55])


def _legit_schedule(cfg: ScenarioConfig, seed: int) -> list[ScheduledSend]:
    """Per-sender periodic datagrams with staggered phases and channel fates."""
    rng_data = random.Random(f"{seed}:payload")
    rng_loss = random.Random(f"{seed}:loss")
    sends = []
    tr = cfg.traffic
    frags_per = -(-tr.payload_bytes // MAX_FRAGMENT_PAYLOAD)
    for src in range(1, cfg.senders + 1):
        t = tr.phase_base + src * tr.phase_step
        tag = 1
        train_time = (frags_per - 1) * tr.pacing
        while t + train_time + TICK_INTERVAL <= cfg.duration:
            payload = rng_data.randbytes(tr.payload_bytes)
            nonce = rng_data.randbytes(4)
            lost = tuple(
                rng_loss.random() < cfg.channel.loss_rate for _ in range(frags_per)
            )
            sends.append(ScheduledSend(t, src, tag, nonce, payload, lost))
            tag = (tag + 1) % 0x10000
            t += tr.send_interval
    sends.sort(key=lambda s: s.time)
    return sends


# Scenario fields that belong to the stack under test; every other field
# shapes the traffic, so runs that differ only in these can share a plan.
_STACK_FIELDS = ("name", "stack", "buffer", "trust")
_WORLD_FIELDS = tuple(f.name for f in fields(ScenarioConfig) if f.name not in _STACK_FIELDS)


def world(cfg: ScenarioConfig) -> tuple:
    """The part of a config an arrival plan depends on; hashable."""
    return tuple(getattr(cfg, name) for name in _WORLD_FIELDS)


class _Wire(NamedTuple):
    """A plan's traffic in one wire format."""

    # every legit fragment, lost ones too, signed for the format
    fragments: list[Fragment]
    # per non-root node, summed in emission order as the senders spend them
    cpu_ms: dict[int, float]
    tx_s: dict[int, float]


class ArrivalPlan(NamedTuple):
    """Everything about one seed's run that no stack variant changes.

    The legit sends with their channel fates, the adversary schedule
    with its channel fates, and every frame that reaches the root in
    arrival order, as columns.  A frame's ref is the index of its legit
    fragment, or ~index of its adversary emission.  Build one with
    plan_arrivals; simulate only reads it, except to sign the legit
    fragments once per wire format on first use.
    """

    seed: int
    world: tuple
    key: bytes
    sends: list[ScheduledSend]
    # index of each send's first fragment among the legit fragments
    firsts: array
    attacker: int | None
    attack: AttackSchedule | None
    sent_datagrams: dict[int, int]
    sent_fragments: dict[int, int]
    times: array
    sources: array
    kinds: array
    refs: array
    # channel corruption, per legit fragment and per adversary emission
    legit_corrupt: bytearray
    attack_corrupt: bytearray
    # signer -> _Wire, filled by wire() on first use
    wires: dict

    def check(self, cfg: ScenarioConfig, seed: int) -> None:
        """Raise ValueError unless this plan is the one cfg and seed would build."""
        if seed != self.seed:
            raise ValueError(f"arrival plan was built for seed {self.seed}, not {seed}")
        for name, mine, theirs in zip(_WORLD_FIELDS, self.world, world(cfg)):
            if mine != theirs:
                raise ValueError(f"arrival plan was built for another {name}: "
                                 f"{mine!r}, not {theirs!r}")

    def wire(self, signer: str | None) -> _Wire:
        """The traffic as signer ("chain", "mac" or None) puts it on the air."""
        built = self.wires.get(signer)
        if built is None:
            built = self.wires[signer] = _build_wire(self, signer)
        return built

    def frames(self):
        """The arrivals in order, one _Frame each."""
        attacker, legit_corrupt, attack_corrupt = (
            self.attacker, self.legit_corrupt, self.attack_corrupt)
        for now, source, code, ref in zip(self.times, self.sources, self.kinds, self.refs):
            legit = ref >= 0
            yield _Frame(now, source, KIND_CODES[code], source if legit else attacker,
                         bool(legit_corrupt[ref] if legit else attack_corrupt[~ref]), ref)


_SIGN_CPU_MS = {None: 0.0, "chain": HASH_CPU_MS, "mac": MAC_CPU_MS}


def signed_fragments(key: bytes, send: ScheduledSend, signer: str | None) -> list[Fragment]:
    """One send's fragments as its sender puts them on the air under signer."""
    frags = fragment_packet(send.payload, send.tag, with_extension=signer is not None)
    if signer == "chain":
        sign_fragments(key, frags, send.nonce)
    elif signer == "mac":
        mac_sign_fragments(key, frags, send.nonce, send.source)
    return frags


def _build_wire(plan: ArrivalPlan, signer: str | None) -> _Wire:
    with_ext = signer is not None
    sign_cpu_ms = _SIGN_CPU_MS[signer]
    fragments: list[Fragment] = []
    cpu_ms = dict.fromkeys(plan.sent_fragments, 0.0)
    tx_s = dict(cpu_ms)
    for send in plan.sends:
        frags = signed_fragments(plan.key, send, signer)
        src = send.source
        for frag in frags:
            tx_s[src] += airtime(header_length(frag.header.kind, with_ext) + len(frag.payload))
            cpu_ms[src] += sign_cpu_ms
        fragments += frags
    if plan.attack is not None:
        header_lens = [header_length(kind, with_ext) for kind in KIND_CODES]
        tx = tx_s[plan.attacker]
        for code, n in zip(plan.attack.kinds, plan.attack.payload_len):
            tx += airtime(header_lens[code] + n)
        tx_s[plan.attacker] = tx
    return _Wire(fragments, cpu_ms, tx_s)


def plan_arrivals(cfg: ScenarioConfig, seed: int) -> ArrivalPlan:
    """Draw one seed's traffic, adversary schedule and channel fates."""
    sends = _legit_schedule(cfg, seed)
    rng_corrupt = random.Random(f"{seed}:corrupt")
    loss_rate, corruption_rate = cfg.channel.loss_rate, cfg.channel.corruption_rate

    attacker = cfg.attack.attacker if cfg.attack else None
    sent_datagrams = {src: 0 for src in range(1, cfg.senders + 1)}
    sent_fragments = dict(sent_datagrams)
    if attacker is not None:
        sent_fragments[attacker] = 0
    times, sources, kinds, refs = array("d"), array("q"), array("B"), array("i")

    # legitimate traffic, fragment by fragment in send order
    legit_corrupt = bytearray()
    firsts = array("i")
    pacing = cfg.traffic.pacing
    for send in sends:
        firsts.append(len(legit_corrupt))
        src = send.source
        sent_datagrams[src] += 1
        sent_fragments[src] += len(send.lost)
        for j, lost in enumerate(send.lost):
            # drawn for lost fragments too, so the stream stays aligned
            legit_corrupt.append(rng_corrupt.random() < corruption_rate)
            if not lost:
                times.append(send.time + j * pacing + PROPAGATION_DELAY)
                sources.append(src)
                kinds.append(j > 0)
                refs.append(len(legit_corrupt) - 1)

    # adversary traffic, one loss and one corruption draw per emission
    attack = None
    attack_corrupt = bytearray()
    if cfg.attack is not None:
        rng_attack = random.Random(f"{seed}:attack")
        rng_chan = random.Random(f"{seed}:attack-channel")
        attack = build_attack(cfg.attack, sends, cfg.duration, rng_attack)
        sent_fragments[attacker] += len(attack)
        draw = rng_chan.random
        for i, (t, source, code) in enumerate(zip(attack.times, attack.sources, attack.kinds)):
            lost = draw() < loss_rate
            attack_corrupt.append(draw() < corruption_rate)
            if not lost:
                times.append(t + PROPAGATION_DELAY)
                sources.append(source)
                kinds.append(code)
                refs.append(~i)

    # stable, so equal arrival times keep legit-then-adversary emission order
    order = sorted(range(len(times)), key=times.__getitem__)
    times, sources, kinds, refs = (
        array(col.typecode, map(col.__getitem__, order)) for col in (times, sources, kinds, refs)
    )
    return ArrivalPlan(seed, world(cfg), cfg.key, sends, firsts, attacker, attack, sent_datagrams,
                       sent_fragments, times, sources, kinds, refs, legit_corrupt, attack_corrupt,
                       {})


def simulate(cfg: ScenarioConfig, seed: int, trace: bool = False,
             plan: ArrivalPlan | None = None) -> RunResult:
    """Run cfg's stack against one seed's traffic.

    plan, if given, must come from plan_arrivals for the same seed and
    world (see world()); it saves rebuilding the traffic when several
    stacks or trust cells face the same seed.  The result is the same
    either way.
    """
    if plan is None:
        plan = plan_arrivals(cfg, seed)
    else:
        plan.check(cfg, seed)
    stack = STACKS[cfg.stack].from_config(cfg, trace)
    with_ext = stack.SIGNER is not None
    wire = plan.wire(stack.SIGNER)

    attacker = plan.attacker
    ledgers = {ROOT: EnergyLedger()}
    for node in plan.sent_fragments:
        ledgers[node] = EnergyLedger(wire.cpu_ms[node], wire.tx_s[node])
    # filled as the run reaches each send: tags wrap, so one (source, tag)
    # can name several datagrams, and the one delivered is the latest so far
    original_payload: dict[tuple[int, int], bytes] = {}
    unreached = plan.sends[::-1]

    records: list[FrameRecord] = []
    delivered: list[DeliveredRecord] = []
    root = ledgers[ROOT]
    buffer = stack.buffer
    duration = cfg.duration
    next_tick = TICK_INTERVAL
    record, add_record = FrameRecord, records.append
    filter_frame = stack.filter_frame
    kind_of = KIND_CODES
    header_lens = [header_length(kind, with_ext) for kind in KIND_CODES]
    legit, legit_corrupt, firsts = wire.fragments, plan.legit_corrupt, plan.firsts
    attack, attack_corrupt = plan.attack, plan.attack_corrupt

    def _mark(sessions, disposition):
        for session in sessions:
            for frag in session.fragments:
                frag.record.disposition = disposition

    for now, source, code, ref in zip(plan.times, plan.sources, plan.kinds, plan.refs):
        # ticks strictly before this arrival; on an empty buffer a tick
        # is a no-op, so skip to the first one not before it
        while next_tick < now and next_tick <= duration:
            if not buffer.sessions:
                next_tick = math.ceil(now / TICK_INTERVAL) * TICK_INTERVAL
                break
            _mark(stack.tick(next_tick), "timeout")
            next_tick += TICK_INTERVAL

        kind = kind_of[code]
        if filter_frame(source, kind, now):
            # address-filtered in the radio: no RX cost, no CPU
            add_record(record(now, source, source if ref >= 0 else attacker, kind,
                              "untrusted", True))
            continue

        if ref >= 0:
            # a fresh fragment per run: corruption and the record are per run
            sent = legit[ref]
            frag = Fragment(sent.header, sent.payload, source)
            corrupt = legit_corrupt[ref]
            origin = source
        else:
            em = attack[~ref]
            if em.victim < 0:
                frag = _materialize_emission(em, with_ext)
            else:
                frag = Fragment(legit[firsts[em.victim]].header, em.payload, source)
            corrupt = attack_corrupt[~ref]
            origin = attacker
        rec = record(now, source, origin, kind, "stored")
        add_record(rec)
        nbytes = header_lens[code] + len(frag.payload)
        if corrupt:
            frag.payload = _corrupt_payload(frag.payload)
        frag.record = rec

        root.rx_s += airtime(nbytes)
        result = stack.admit(frag, now)
        root.cpu_ms += result.cpu_ms

        if result.status is AdmitStatus.DROPPED:
            rec.disposition = result.reason.value
        elif result.status is AdmitStatus.DELIVERED:
            for f in result.fragments:
                f.record.disposition = "delivered"
            while unreached and unreached[-1].time <= now:
                send = unreached.pop()
                original_payload[(send.source, send.tag)] = send.payload
            src, tag = frag.source, frag.header.datagram_tag
            want = original_payload.get((src, tag))
            delivered.append(DeliveredRecord(now, src, origin, tag, result.payload == want))
        _mark(stack.drain_evictions(), "timeout")

    while next_tick <= duration and buffer.sessions:
        _mark(stack.tick(next_tick), "timeout")
        next_tick += TICK_INTERVAL

    # read before flush: a block that only starts at the end of the run is no identification
    identified_at = stack.identified_at(attacker) if attacker is not None else None
    _mark(stack.flush(cfg.duration), "buffered")

    return RunResult(
        name=cfg.name,
        stack=cfg.stack,
        seed=seed,
        duration=cfg.duration,
        senders=cfg.senders,
        attacker=attacker,
        attack_kind=cfg.attack.kind if cfg.attack else None,
        attack_start=cfg.attack.start if cfg.attack else None,
        sent_datagrams=dict(plan.sent_datagrams),
        sent_fragments=dict(plan.sent_fragments),
        records=records,
        delivered=delivered,
        identified_at=identified_at,
        mean_availability=stack.buffer.mean_availability(),
        max_occupancy=stack.buffer.max_occupancy,
        node_power_mw={n: led.power_mw(cfg.duration) for n, led in ledgers.items()},
        block_events=dict(stack.block_events),
        trust_history=stack.trust_history,
    )


def _materialize_emission(em: AttackEmission, with_ext: bool) -> Fragment:
    """Give a forged schedule entry the wire shape the stack under test expects."""
    ext = ExtensionFields(255, em.nonce, em.sig) if with_ext else None
    header = FragmentHeader(em.kind, em.datagram_size, em.tag, em.offset, ext)
    return Fragment(header, em.payload, source=em.claimed_source)
