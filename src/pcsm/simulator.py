"""Deterministic discrete-event simulation of a star 6LoWPAN deployment.

One root (node 0) reassembles fragmented datagrams from a ring of
senders (nodes 1..N); an optional adversary node transmits whatever its
attack schedule says.  Frames propagate with a fixed 1 ms delay, may be
lost or payload-corrupted by the channel, and are then pushed through
the configured receiver stack.  Every received fragment ends the run
with exactly one terminal disposition, which downstream metrics rely
on for conservation checking.

No event schedules another, so the whole run is known before it
starts: the frames that survive the channel are stable-sorted by
arrival time (legitimate fragments before adversary frames at equal
times) and visited in one pass.  Housekeeping ticks fall on whole
seconds, after any arrival at the same instant, and run only while the
reassembly buffer holds an open session; on an empty buffer a tick
changes nothing.

Every arrival meets the radio prefilter first, which sees only the link
source and the dispatch kind.  A frame the prefilter drops gets one
record, final from the start ("untrusted", prefiltered), and costs
nothing more.  Any other frame gets one record that the stack's outcome
completes.  An adversary frame is a bare schedule entry up to this
point and is built into a fragment for the stack under test only once
it passes the prefilter.

Randomness is split into named streams keyed by the run seed alone, so
a seed fully determines the traffic, the adversary schedule, and the
channel, independently of which stack variant is under test.  That
alignment is what makes cross-stack comparisons under a matched seed
meaningful.
"""

from __future__ import annotations

import heapq  # unused here; bench/layers.py patches simulator.heapq when tracing
import math
import random
from dataclasses import dataclass, field
from operator import itemgetter
from typing import NamedTuple

from .attacks import AttackEmission, ScheduledSend, build_attack
from .baselines import (
    MAC_CPU_MS,
    CsmLikeStack,
    SecuPanLikeStack,
    VanillaStack,
    fragment_mac,
    mac_sign_fragments,
)
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
from .hash_chain import chain_tag, seed_chain, sign_fragments
from .reassembly import HASH_CPU_MS, AdmitStatus, PredictiveCsmStack

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
    """One frame that survives the channel and reaches the root."""

    arrival: float
    source: int
    kind: FragmentKind
    origin: int
    bytes_on_air: int
    corrupt: bool
    # a legitimate Fragment, or the AttackEmission an adversary frame is
    # built from once it passes the prefilter
    wire: Fragment | AttackEmission


def _corrupt_payload(payload: bytes) -> bytes:
    if not payload:
        return payload
    return payload[:-1] + bytes([payload[-1] ^ 0x55])


def _build_stack(cfg: ScenarioConfig, trace: bool):
    slots, timeout = cfg.buffer.slots, cfg.buffer.timeout
    if cfg.stack == "pcsm":
        return PredictiveCsmStack(
            cfg.key, cfg.trust, cfg.traffic.send_interval, slots=slots, timeout=timeout,
            keep_trust_history=trace,
        )
    if cfg.stack == "vanilla":
        return VanillaStack(slots, timeout)
    if cfg.stack == "csm":
        return CsmLikeStack(slots, timeout, block_duration=cfg.trust.block_duration)
    if cfg.stack == "secupan":
        return SecuPanLikeStack(cfg.key, slots, timeout)
    raise ValueError(f"unknown stack: {cfg.stack!r}")


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


def simulate(cfg: ScenarioConfig, seed: int, trace: bool = False) -> RunResult:
    stack = _build_stack(cfg, trace)
    is_pcsm = cfg.stack == "pcsm"
    with_ext = cfg.stack in ("pcsm", "secupan")
    sign_cpu_ms = HASH_CPU_MS if is_pcsm else MAC_CPU_MS if cfg.stack == "secupan" else 0.0

    sends = _legit_schedule(cfg, seed)
    rng_corrupt = random.Random(f"{seed}:corrupt")

    attacker = cfg.attack.attacker if cfg.attack else None
    nodes = [ROOT] + list(range(1, cfg.senders + 1))
    if attacker is not None:
        nodes.append(attacker)
    ledgers = {node: EnergyLedger() for node in nodes}

    sent_datagrams: dict[int, int] = {src: 0 for src in range(1, cfg.senders + 1)}
    sent_fragments: dict[int, int] = {node: 0 for node in nodes if node != ROOT}
    # filled as the run reaches each send: tags wrap, so one (source, tag)
    # can name several datagrams, and the one delivered is the latest so far
    original_payload: dict[tuple[int, int], bytes] = {}
    unreached = sends[::-1]

    arrivals: list[_Frame] = []

    # legitimate traffic, signed per the stack's wire format
    for send in sends:
        frags = fragment_packet(send.payload, send.tag, with_extension=with_ext)
        if is_pcsm:
            sign_fragments(cfg.key, frags, send.nonce)
        elif cfg.stack == "secupan":
            mac_sign_fragments(cfg.key, frags, send.nonce, send.source)
        sent_datagrams[send.source] += 1
        for j, frag in enumerate(frags):
            frag.source = send.source
            emit = send.time + j * cfg.traffic.pacing
            kind = frag.header.kind
            nbytes = header_length(kind, with_ext) + len(frag.payload)
            ledgers[send.source].tx_s += airtime(nbytes)
            ledgers[send.source].cpu_ms += sign_cpu_ms
            sent_fragments[send.source] += 1
            # drawn for lost fragments too, so the stream stays aligned
            corrupt = rng_corrupt.random() < cfg.channel.corruption_rate
            if not send.lost[j]:
                arrivals.append(
                    _Frame(emit + PROPAGATION_DELAY, send.source, kind, send.source,
                           nbytes, corrupt, frag)
                )

    # adversary traffic, kept as schedule entries until the prefilter passes them
    attack_start = None
    if cfg.attack is not None:
        attack_start = cfg.attack.start
        rng_attack = random.Random(f"{seed}:attack")
        rng_chan = random.Random(f"{seed}:attack-channel")
        emissions = build_attack(cfg.attack, sends, cfg.duration, rng_attack)
        sent_fragments[attacker] += len(emissions)
        frag1 = FragmentKind.FRAG1
        frag1_len = header_length(frag1, with_ext)
        fragn_len = header_length(FragmentKind.FRAGN, with_ext)
        draw = rng_chan.random
        loss_rate, corruption_rate = cfg.channel.loss_rate, cfg.channel.corruption_rate
        make_frame, append = _Frame, arrivals.append
        tx_s = ledgers[attacker].tx_s
        for em in emissions:
            kind = em.kind
            nbytes = (frag1_len if kind is frag1 else fragn_len) + len(em.payload)
            tx_s += airtime(nbytes)
            lost = draw() < loss_rate
            corrupt = draw() < corruption_rate
            if not lost:
                append(make_frame(em.time + PROPAGATION_DELAY, em.claimed_source, kind,
                                  attacker, nbytes, corrupt, em))
        ledgers[attacker].tx_s = tx_s
        del emissions  # a frame holds its emission; lost ones can go now

    # stable, so equal arrival times keep legit-then-adversary emission order
    arrivals.sort(key=itemgetter(0))

    records: list[FrameRecord] = []
    delivered: list[DeliveredRecord] = []
    root = ledgers[ROOT]
    buffer = stack.buffer
    duration = cfg.duration
    next_tick = TICK_INTERVAL
    record, add_record = FrameRecord, records.append
    filter_frame = stack.filter_frame

    def _mark(sessions, disposition):
        for session in sessions:
            for frag in session.fragments:
                frag.record.disposition = disposition

    # Visit the arrivals in order, releasing each frame once visited: a
    # prefiltered frame then frees its frame and emission as it allocates
    # its record, which keeps the garbage collector's young generation
    # from filling up on the hostile traffic.
    arrivals.reverse()
    next_arrival = arrivals.pop
    while arrivals:
        now, source, kind, origin, nbytes, corrupt, frag = next_arrival()
        # ticks strictly before this arrival; on an empty buffer a tick
        # is a no-op, so skip to the first one not before it
        while next_tick < now and next_tick <= duration:
            if not buffer.sessions:
                next_tick = math.ceil(now / TICK_INTERVAL) * TICK_INTERVAL
                break
            _mark(stack.tick(next_tick), "timeout")
            next_tick += TICK_INTERVAL

        if filter_frame(source, kind, now):
            # address-filtered in the radio: no RX cost, no CPU
            add_record(record(now, source, origin, kind, "untrusted", True))
            continue

        rec = record(now, source, origin, kind, "stored")
        add_record(rec)
        if isinstance(frag, AttackEmission):
            frag = _materialize_emission(frag, cfg, with_ext, is_pcsm)
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
        attack_start=attack_start,
        sent_datagrams=sent_datagrams,
        sent_fragments=sent_fragments,
        records=records,
        delivered=delivered,
        identified_at=identified_at,
        mean_availability=stack.buffer.mean_availability(),
        max_occupancy=stack.buffer.max_occupancy,
        node_power_mw={n: led.power_mw(cfg.duration) for n, led in ledgers.items()},
        block_events=dict(stack.block_events),
        trust_history=stack.trust_history,
    )


def _materialize_emission(
    em: AttackEmission, cfg: ScenarioConfig, with_ext: bool, is_pcsm: bool
) -> Fragment:
    """Give a schedule entry the wire shape the stack under test expects."""
    ext = None
    if with_ext:
        if em.replayed_payload is not None:
            if is_pcsm:
                sig = chain_tag(seed_chain(cfg.key, em.replayed_payload, em.nonce))
            else:
                sig = fragment_mac(
                    cfg.key, em.claimed_source, em.kind, em.datagram_size,
                    em.tag, em.offset, em.nonce, em.replayed_payload,
                )
        else:
            sig = em.sig
        nonce = em.nonce if em.kind is FragmentKind.FRAG1 else b""
        ext = ExtensionFields(255, nonce, sig)
    header = FragmentHeader(em.kind, em.datagram_size, em.tag, em.offset, ext)
    return Fragment(header, em.payload, source=em.claimed_source)
