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
meaningful, and it splits a run in three:

- Traffic (legit_traffic): the legit sends with their loss and
  corruption fates, and each legit fragment that reaches the root.  It
  depends on the seed and the traffic world (the world below without
  the attack), and it is itself the plan of that world with no
  adversary.  It signs the legit fragments lazily, once per wire format,
  and the chain signer keeps every link it hashes (hash_chain.ChainLinks):
  so a traffic's chain links are hashed once, by its senders, and every
  pcsm run over it looks them up instead of hashing them again.
- Plan (plan_arrivals): a traffic plus the adversary schedule with its
  channel fates, the sent counts, and every frame that reaches the
  root, stable-sorted by arrival time (legitimate fragments before
  adversary frames at equal times).  It depends on the seed and the
  world (every config field except the stack, its buffer and trust
  settings, and the name), and is stored as columns.
- Replay (simulate): build the stack, visit the plan's arrivals in one
  pass, and keep the ledgers and records; no event schedules another.
  Housekeeping ticks fall on whole seconds, after any arrival at the
  same instant, while the buffer holds an open session; a tick that
  evicts nothing only moves its occupancy clock (ReceiverStack.tick).

A traffic or plan lives as long as its caller keeps it: simulate builds
a plan per run unless given one, and the command-line sweeps build one
traffic per seed and traffic world, one plan over it per world, replay
each plan for every stack and trust cell that shares it, and drop both
before the next seed.  Nothing caches them across calls.

Every arrival takes one path: the radio check (the stack's filter_frame),
which sees only the link source and the dispatch kind, then the gates.
A blocked source holds no session, so only its own arrivals change its
block: other sources' frames and ticks do not.  So when the radio drops
an arrival, the stack's filter_run hands over the rest of its block
episode at once, as ranges of arrival indexes; each costs one slice
write to its disposition codes ("untrusted", prefiltered), and the loop
skips its arrivals.  An arrival the radio lets through goes to the
stack's gates (admit_fields) as header fields and payload, in the wire
shape of the stack under test: a legit one from its sender's signed
fragment with the payload the channel left, an adversary one from its
schedule row, with blob slices for its payload, nonce and signature (a
header replay's nonce and signature are its victim's).  It becomes a
Fragment only if a session stores it, a legit one once per plan and
wire format.  The blob's bytes are drawn on first read, so a schedule
the prefilter drops unseen is never drawn, and what is drawn stays with
the plan for every later run over it.

A run's records are FrameRecords: the plan's arrival columns plus one
byte per arrival for this run's disposition.  A FrameRecord is built
only when a row is read.
"""

from __future__ import annotations

import heapq  # unused here; bench/layers.py patches simulator.heapq when tracing
import math
import random
import re
from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field, fields, replace
from itertools import chain, compress, repeat, starmap
from operator import add, ge, lt, ne
from typing import NamedTuple

from .attacks import AttackSchedule, ScheduledSend, build_attack, sort_columns
# fragment_mac and seed_chain are unused here; bench/layers.py wraps both when tracing
from .baselines import MAC_CPU_MS, STACKS, fragment_mac, mac_sign_fragments
from .config import ScenarioConfig
from .frag_codec import (
    KIND_CODES,
    MAX_FRAGMENT_PAYLOAD,
    ExtensionFields,
    Fragment,
    FragmentHeader,
    FragmentKind,
    fragment_packet,
    header_length,
)
from .hash_chain import ChainLinks, seed_chain, sign_fragments
from .reassembly import HASH_CPU_MS, AdmitResult, AdmitStatus, DropReason

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


# A record's disposition code: the low four bits index DISPOSITIONS, and
# two flags sit above them.  Every record starts as "stored" (0).
DISPOSITIONS = ("stored", "delivered", "buffered") + tuple(r.value for r in DropReason)
HOSTILE = 0x10  # the frame's origin is the attacker
PREFILTERED = 0x20  # the radio dropped the frame
DISPOSITION_MASK = 0x0F
_CODE = {d: code for code, d in enumerate(DISPOSITIONS)}
_REASON_CODE = {r: _CODE[r.value] for r in DropReason}
_DELIVERED, _BUFFERED, _TIMEOUT = _CODE["delivered"], _CODE["buffered"], _CODE["timeout"]
# stored codes to prefiltered "untrusted", keeping the hostile flag
_PREFILTER = bytes(code | PREFILTERED | _CODE["untrusted"] for code in range(256))


class FrameRecords(Sequence):
    """One run's frame records as columns, row i for arrival i, sorted by time.

    times, sources, kinds (indexes of KIND_CODES) and origins are the
    plan's arrival columns, shared and never written; codes holds this
    run's disposition code per arrival.  Reading a row builds its
    FrameRecord.
    """

    __slots__ = ("times", "sources", "kinds", "origins", "codes")

    def __init__(self, times: array, sources: array, kinds: array, origins: array,
                 codes: bytearray):
        self.times, self.sources, self.kinds, self.origins = times, sources, kinds, origins
        self.codes = codes

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(*i.indices(len(self.codes)))]
        code = self.codes[i]
        return FrameRecord(self.times[i], self.sources[i], self.origins[i],
                           KIND_CODES[self.kinds[i]], DISPOSITIONS[code & DISPOSITION_MASK],
                           bool(code & PREFILTERED))


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
    records: FrameRecords
    delivered: list[DeliveredRecord]
    identified_at: float | None
    mean_availability: float
    max_occupancy: int
    node_power_mw: dict[int, float]
    block_events: dict[int, int] = field(default_factory=dict)
    trust_history: list | None = None


# unused here; bench/layers.py wraps simulator._Frame when tracing
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


def traffic_world(cfg: ScenarioConfig) -> tuple:
    """The part of a config its legit traffic depends on: the world without its attack."""
    return world(replace(cfg, attack=None))


class _Wire(NamedTuple):
    """A plan's traffic in one wire format."""

    # every legit fragment, lost ones too, signed for the format
    fragments: list[Fragment]
    # per non-root node, summed in emission order as the senders spend them
    cpu_ms: dict[int, float]
    tx_s: dict[int, float]
    # the chain signer's links (hash_chain.ChainLinks), shared with every run's receiver
    links: ChainLinks | None


class ArrivalPlan(NamedTuple):
    """Everything about one seed's run that no stack variant changes.

    The legit sends with their channel fates, the adversary schedule
    with its channel fates, and every frame that reaches the root in
    arrival order, as columns.  A frame's ref is the index of its legit
    fragment, or ~index of its adversary emission.  Build one with
    plan_arrivals; simulate only reads it, except to fill its tables on
    first use (wires, arrived, source_runs) and to draw adversary bytes
    on first read.  A plan with an adversary shares the legit part with
    the plan of its traffic, except arrived: arrival indexes differ.
    """

    seed: int
    world: tuple
    key: bytes
    sends: list[ScheduledSend]
    attacker: int | None
    attack: AttackSchedule | None
    sent_datagrams: dict[int, int]
    sent_fragments: dict[int, int]
    times: array
    sources: array
    kinds: array
    refs: array
    origins: array
    # each arrival's disposition code before replay: "stored", HOSTILE if adversary
    codes: array
    # channel corruption, per legit fragment and per adversary emission
    legit_corrupt: bytearray
    attack_corrupt: bytearray
    # the plan without the adversary (see legit_traffic), None if this is it
    traffic: ArrivalPlan | None
    # signer -> _Wire, filled by wire() on first use
    wires: dict
    # signer -> per legit fragment, the Fragment a session stored for it, or None
    # until a run stores it; filled by simulate's runs, and shared by later ones
    arrived: dict
    # source -> its runs, filled by runs() on first use
    source_runs: dict

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

    def runs(self, source: int) -> tuple[array, array]:
        """Where each maximal run of source's consecutive arrivals starts, and where it ends.

        The first call splits every source's runs at once, at each change of source."""
        if not self.source_runs:
            column = self.sources
            starts = [*compress(range(len(column)), map(ne, column, chain((None,), column)))]
            for a, b in zip(starts, [*starts[1:], len(column)]):
                built = self.source_runs.get(column[a])
                if built is None:
                    built = self.source_runs[column[a]] = (array("i"), array("i"))
                built[0].append(a)
                built[1].append(b)
        return self.source_runs.get(source) or (array("i"), array("i"))


_SIGN_CPU_MS = {None: 0.0, "chain": HASH_CPU_MS, "mac": MAC_CPU_MS}


def signed_fragments(key: bytes, send: ScheduledSend, signer: str | None,
                     links: ChainLinks | None = None) -> list[Fragment]:
    """One send's fragments as its sender puts them on the air; a chain signer fills links."""
    frags = fragment_packet(send.payload, send.tag, with_extension=signer is not None)
    if signer == "chain":
        sign_fragments(key, frags, send.nonce, links=links)
    elif signer == "mac":
        mac_sign_fragments(key, frags, send.nonce, send.source)
    return frags


def _build_wire(plan: ArrivalPlan, signer: str | None) -> _Wire:
    with_ext = signer is not None
    if plan.traffic is not None:
        # the legit traffic's wire, plus the adversary's airtime
        header_lens = [header_length(kind, with_ext) for kind in KIND_CODES]
        tx = 0.0
        for code, n in zip(plan.attack.kinds, plan.attack.payload_len):
            tx += airtime(header_lens[code] + n)
        legit = plan.traffic.wire(signer)
        return _Wire(legit.fragments, {**legit.cpu_ms, plan.attacker: 0.0},
                     {**legit.tx_s, plan.attacker: tx}, legit.links)
    sign_cpu_ms = _SIGN_CPU_MS[signer]
    fragments: list[Fragment] = []
    cpu_ms = dict.fromkeys(plan.sent_fragments, 0.0)
    tx_s = dict(cpu_ms)
    links = ChainLinks(plan.key) if signer == "chain" else None
    for send in plan.sends:
        frags = signed_fragments(plan.key, send, signer, links)
        src = send.source
        for frag in frags:
            tx_s[src] += airtime(header_length(frag.header.kind, with_ext) + len(frag.payload))
            cpu_ms[src] += sign_cpu_ms
        fragments += frags
    return _Wire(fragments, cpu_ms, tx_s, links)


def legit_traffic(cfg: ScenarioConfig, seed: int) -> ArrivalPlan:
    """The plan of cfg's world without its adversary, which every traffic_world() peer shares."""
    sends = _legit_schedule(cfg, seed)
    rng_corrupt = random.Random(f"{seed}:corrupt")
    corruption_rate = cfg.channel.corruption_rate
    sent_datagrams = {src: 0 for src in range(1, cfg.senders + 1)}
    sent_fragments = dict(sent_datagrams)
    times, sources, kinds, refs = array("d"), array("i"), array("B"), array("i")
    legit_corrupt = bytearray()
    pacing = cfg.traffic.pacing
    for send in sends:
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
    columns = [times, sources, kinds, refs]
    sort_columns(columns)
    return ArrivalPlan(seed, traffic_world(cfg), cfg.key, sends, None, None,
                       sent_datagrams, sent_fragments, *columns, sources[:],
                       array("B", bytes(len(times))), legit_corrupt, bytearray(), None,
                       {}, {}, {})


def plan_arrivals(cfg: ScenarioConfig, seed: int,
                  traffic: ArrivalPlan | None = None) -> ArrivalPlan:
    """Draw one seed's traffic, adversary schedule and channel fates.

    traffic, if given, is legit_traffic for the same seed and traffic_world();
    the plan is the same either way.
    """
    if traffic is None:
        traffic = legit_traffic(cfg, seed)
    else:
        traffic.check(replace(cfg, attack=None), seed)
    if cfg.attack is None:
        return traffic

    # adversary traffic, one loss and then one corruption draw per emission
    attacker = cfg.attack.attacker
    rng_attack = random.Random(f"{seed}:attack")
    rng_chan = random.Random(f"{seed}:attack-channel")
    loss_rate, corruption_rate = cfg.channel.loss_rate, cfg.channel.corruption_rate
    attack = build_attack(cfg.attack, traffic.sends, cfg.duration, rng_attack)
    sent_fragments = {**traffic.sent_fragments, attacker: len(attack)}
    fates = array("d", starmap(rng_chan.random, repeat((), 2 * len(attack))))
    attack_corrupt = bytearray(map(lt, fates[1::2], repeat(corruption_rate)))
    kept = bytes(map(ge, fates[::2], repeat(loss_rate)))
    del fates
    times = array("d", map(add, compress(attack.times, kept), repeat(PROPAGATION_DELAY)))
    # loss keeps most emissions, so copy the schedule a kept span at a time
    sources, kinds, refs = array("i"), array("B"), array("i")
    for a, b in map(re.Match.span, re.finditer(b"\x01+", kept)):
        sources += attack.sources[a:b]
        kinds += attack.kinds[a:b]
        refs += array("i", range(~a, ~b, -1))
    hostile = [times, sources, kinds, refs,
               array("i", [attacker]) * len(times), array("B", [HOSTILE]) * len(times)]
    # a schedule is time-sorted, and so is the traffic
    columns = _merge([traffic.times, traffic.sources, traffic.kinds, traffic.refs,
                      traffic.origins, traffic.codes], hostile)
    return ArrivalPlan(seed, world(cfg), traffic.key, traffic.sends, attacker,
                       attack, traffic.sent_datagrams, sent_fragments, *columns,
                       traffic.legit_corrupt, attack_corrupt, traffic, {}, {}, {})


def _merge(first: list[array], second: list[array]) -> list[array]:
    """Two sets of columns, each sorted by its first (time) column, as one.

    Stable, as sorting first's rows followed by second's would be: first's
    rows come before second's at equal times.  The rows of first that fall
    between the same two rows of second go in as one slice per column.
    """
    times, later = first[0], second[0]
    merged = [array(col.typecode) for col in first]
    i = at = 0
    while i < len(times):
        upto = bisect_left(later, times[i], at)
        j = bisect_right(times, later[upto], i) if upto < len(later) else len(times)
        for out, mine, theirs in zip(merged, first, second):
            out += theirs[at:upto]
            out += mine[i:j]
        i, at = j, upto
    for out, theirs in zip(merged, second):
        out += theirs[at:]
    return merged


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
    wire = plan.wire(stack.SIGNER)
    stack.links = wire.links

    attacker = plan.attacker
    ledgers = {ROOT: EnergyLedger()}
    for node in plan.sent_fragments:
        ledgers[node] = EnergyLedger(wire.cpu_ms[node], wire.tx_s[node])
    # filled as the run reaches each send: tags wrap, so one (source, tag)
    # can name several datagrams, and the one delivered is the latest so far
    original_payload: dict[tuple[int, int], bytes] = {}
    unreached = plan.sends[::-1]

    delivered: list[DeliveredRecord] = []
    root = ledgers[ROOT]
    buffer = stack.buffer
    duration = cfg.duration
    next_tick = TICK_INTERVAL
    filter_frame, filter_run = stack.filter_frame, stack.filter_run
    admit = _row_admitter(stack, plan, root)
    dropped, delivered_status = AdmitStatus.DROPPED, AdmitStatus.DELIVERED  # read once
    times, sources, kinds, refs, origins = (
        plan.times, plan.sources, plan.kinds, plan.refs, plan.origins)
    codes = bytearray(plan.codes)
    # nonzero where the radio filtered ahead of the loop; a 0 past the end stops find()
    taken = bytearray(len(codes) + 1)

    # a record leaves "stored" (0) at most once, so or-ing keeps its flags
    def _mark(sessions, code):
        for session in sessions:
            for frag in session.fragments:
                codes[frag.record] |= code

    i, n = 0, len(codes)
    while i < n:
        if taken[i]:
            i = taken.find(0, i)
            continue
        now = times[i]
        # ticks strictly before this arrival; on an empty buffer a tick
        # is a no-op, so skip to the first one not before it
        while next_tick < now and next_tick <= duration:
            if not buffer.sessions:
                next_tick = math.ceil(now / TICK_INTERVAL) * TICK_INTERVAL
                break
            _mark(stack.tick(next_tick), _TIMEOUT)
            next_tick += TICK_INTERVAL

        # the one radio check; a drop hands over the rest of the block episode
        if filter_frame(sources[i], KIND_CODES[kinds[i]], now):
            # address-filtered in the radio: no RX cost, no CPU
            for a, b in filter_run(plan, i):
                codes[a:b] = taken[a:b] = codes[a:b].translate(_PREFILTER)
            continue

        result = admit(refs[i], i, now)
        root.cpu_ms += result.cpu_ms

        if result.status is dropped:
            codes[i] |= _REASON_CODE[result.reason]
        elif result.status is delivered_status:
            for f in result.fragments:
                codes[f.record] |= _DELIVERED
            while unreached and unreached[-1].time <= now:
                send = unreached.pop()
                original_payload[(send.source, send.tag)] = send.payload
            # the frame just admitted is the last one its session stored
            last = result.fragments[-1]
            src, tag = last.source, last.header.datagram_tag
            want = original_payload.get((src, tag))
            delivered.append(DeliveredRecord(now, src, origins[i], tag, result.payload == want))
        if stack.evictions:
            _mark(stack.drain_evictions(), _TIMEOUT)
        i += 1

    while next_tick <= duration and buffer.sessions:
        _mark(stack.tick(next_tick), _TIMEOUT)
        next_tick += TICK_INTERVAL

    # read before flush: a block that only starts at the end of the run is no identification
    identified_at = stack.identified_at(attacker) if attacker is not None else None
    _mark(stack.flush(cfg.duration), _BUFFERED)

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
        records=FrameRecords(times, sources, kinds, origins, codes),
        delivered=delivered,
        identified_at=identified_at,
        mean_availability=stack.buffer.mean_availability(),
        max_occupancy=stack.buffer.max_occupancy,
        node_power_mw={n: led.power_mw(cfg.duration) for n, led in ledgers.items()},
        block_events=dict(stack.block_events),
        trust_history=stack.trust_history,
    )


_NO_EXT = (None, None, None)  # a frame without the extension: no nonce, no signature


def _row_admitter(stack, plan: ArrivalPlan, root: EnergyLedger):
    """admit(row, record, now): arrival record, whose plan ref is row, heard by root and put
    through stack's gates.

    Charges the frame's airtime to root's RX, and returns what
    stack.admit_fields makes of its header fields and payload.  A legit
    row (row >= 0) reads them from its fragment as stack's senders sign
    it, with the payload the channel left; the Fragment a session stores
    for it is built once per plan and signer, in plan.arrived.  An
    adversary row (~row, its emission) reads its row of the attack
    schedule and blob slices (one with a victim carries the signed nonce
    and signature of that legit fragment) and becomes a Fragment only if
    a session stores it.  A slice past the bytes drawn so far draws up to
    its end first.
    """
    signer = stack.SIGNER
    with_ext = signer is not None
    legit = plan.wire(signer).fragments
    stored = plan.arrived.get(signer) or plan.arrived.setdefault(signer, [None] * len(legit))
    legit_corrupt, attack_corrupt, row_sources, row_kinds = (
        plan.legit_corrupt, plan.attack_corrupt, plan.sources, plan.kinds)
    header_lens = [header_length(kind, with_ext) for kind in KIND_CODES]
    # a plan with no adversary has no adversary row to read
    attack = plan.attack or AttackSchedule(None)
    blob, fill, victims, sources, kinds = (
        attack.blob, attack.fill, attack.victims, attack.sources, attack.kinds)
    sizes, tags, offsets = attack.sizes, attack.tags, attack.offsets
    payload_at, payload_len, nonce_at, sig_at = (
        attack.payload_at, attack.payload_len, attack.nonce_at, attack.sig_at)
    admit_fields = stack.admit_fields
    made = len(blob)  # only fill grows the blob
    # the row in hand: admit_fields calls build() only inside admit()
    ref = header = source = kind = size = tag = offset = nonce = sig = payload = arrival = None

    def build() -> Fragment:
        if ref < 0:
            return _materialize_emission(source, kind, size, tag, offset, nonce, sig, payload,
                                         arrival)
        frag = stored[ref]
        if frag is None:
            frag = stored[ref] = Fragment(header, payload, source, arrival)
        return frag

    def admit(row: int, record: int, now: float) -> AdmitResult:
        nonlocal made, ref, header, source, kind, size, tag, offset, nonce, sig, payload, arrival
        if row >= 0:
            sent = legit[row]
            kind, size, tag, offset, ext = header = sent.header
            payload = sent.payload
            if legit_corrupt[row]:  # as the channel left it, or as an earlier run stored it
                payload = _corrupt_payload(payload) if stored[row] is None else stored[row].payload
            _, nonce, sig = ext or _NO_EXT
            source, code = row_sources[record], row_kinds[record]
        else:
            k = ~row
            at = payload_at[k]
            end = at + payload_len[k]
            if end > made:
                made = fill(end)
            payload = bytes(blob[at:end])
            if attack_corrupt[k]:
                payload = _corrupt_payload(payload)
            nonce = sig = None
            if victims[k] >= 0:
                _, nonce, sig = legit[victims[k]].header.ext or _NO_EXT
            elif with_ext:
                end = sig_at[k] + 8  # an emission's signature is its last draw
                if end > made:
                    made = fill(end)
                at = nonce_at[k]
                nonce = bytes(blob[at : at + 4]) if at >= 0 else b""
                at = sig_at[k]
                sig = bytes(blob[at : at + 8])
            code = kinds[k]
            source, kind, size, tag, offset = (
                sources[k], KIND_CODES[code], sizes[k], tags[k], offsets[k])
        ref, arrival = row, record
        # airtime() inlined: the RX charge of the frame's header and payload
        root.rx_s += (header_lens[code] + len(payload)) * 8 / BITRATE
        return admit_fields(source, kind, size, tag, offset, nonce, sig, payload, now, build)

    return admit


def _materialize_emission(source: int, kind: FragmentKind, size: int, tag: int, offset: int,
                          nonce: bytes | None, signature: bytes | None, payload: bytes,
                          record: int) -> Fragment:
    """The Fragment an adversary emission's fields describe, accounted at arrival record.

    The frame carries an extension unless nonce is None.
    """
    ext = None if nonce is None else ExtensionFields(255, nonce, signature)
    return Fragment(FragmentHeader(kind, size, tag, offset, ext), payload, source, record)
