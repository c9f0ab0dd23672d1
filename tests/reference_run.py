"""One whole run the plain way: the reference every fast path of simulate() is checked against.

reference_run(cfg, plan) replays a plan in the simulator's design before
any of its fast paths.  The senders sign each send with signed_fragments;
the receiver gets no chain links, so it hashes every link.  Every hostile
frame is built from its row of the schedule, once the whole blob is
drawn.  Every arrival goes to stack.admit, whose first gate is the radio
filter.  A full tick runs at every whole second up to the duration, after
any arrival at the same instant: the buffer never reports an idle tick.
Evictions are drained after each admit, and the identification is read
before the flush.  Energy is summed in send, emission and arrival order.
Not collected by pytest.
"""

from collections import defaultdict

import pytest

from pcsm.baselines import MAC_CPU_MS, STACKS
from pcsm.frag_codec import Fragment, header_length
from pcsm.metrics import collect
from pcsm.reassembly import FILTERED, HASH_CPU_MS, AdmitStatus, ReassemblySession, ReceiverStack
from pcsm.simulator import (DISPOSITIONS, PREFILTERED, ROOT, TICK_INTERVAL, DeliveredRecord,
                            EnergyLedger, FrameRecords, RunResult, _corrupt_payload, airtime,
                            signed_fragments, simulate)
from test_attacks import _ref_materialize, _rows

_SIGN_CPU_MS = {None: 0.0, "chain": HASH_CPU_MS, "mac": MAC_CPU_MS}


def reference_run(cfg, plan) -> RunResult:
    """cfg's stack over plan, one frame and one whole-second tick at a time."""
    stack = STACKS[cfg.stack].from_config(cfg, True)
    stack.buffer.idle_tick = lambda now: False
    with_ext = stack.SIGNER is not None
    attacker = plan.attacker
    ledgers = {ROOT: EnergyLedger(), **{node: EnergyLedger() for node in plan.sent_fragments}}

    def on_air(frag):
        return airtime(header_length(frag.header.kind, with_ext) + len(frag.payload))

    legit, hostile, sends_by_id = [], [], defaultdict(list)
    for send in plan.sends:
        sends_by_id[send.source, send.tag].append(send)
        for frag in signed_fragments(plan.key, send, stack.SIGNER):
            ledgers[send.source].tx_s += on_air(frag)
            ledgers[send.source].cpu_ms += _SIGN_CPU_MS[stack.SIGNER]
            legit.append(frag)
    if plan.attack is not None:
        plan.attack.fill(plan.attack.drawn)
        hostile = [_ref_materialize(em, with_ext, legit) for em in _rows(plan.attack)]
        for frag in hostile:
            ledgers[attacker].tx_s += on_air(frag)

    dispositions, prefiltered = ["stored"] * len(plan.times), [False] * len(plan.times)
    delivered = []

    def settle(sessions, disposition):
        for frag in (f for session in sessions for f in session.fragments):
            assert dispositions[frag.record] == "stored"
            dispositions[frag.record] = disposition

    next_tick = TICK_INTERVAL
    for i, now in enumerate(plan.times):
        while next_tick < now and next_tick <= cfg.duration:
            settle(stack.tick(next_tick), "timeout")
            next_tick += TICK_INTERVAL
        ref, source = plan.refs[i], plan.sources[i]
        sent, corrupt = ((legit[ref], plan.legit_corrupt[ref]) if ref >= 0
                         else (hostile[~ref], plan.attack_corrupt[~ref]))
        frag = Fragment(sent.header, _corrupt_payload(sent.payload) if corrupt else sent.payload,
                        source, i)
        result = stack.admit(frag, now)
        if result is FILTERED:
            dispositions[i], prefiltered[i] = "untrusted", True
            continue
        ledgers[ROOT].rx_s += on_air(frag)
        ledgers[ROOT].cpu_ms += result.cpu_ms
        if result.status is AdmitStatus.DROPPED:
            dispositions[i] = result.reason.value
        elif result.status is AdmitStatus.DELIVERED:
            settle([result], "delivered")
            tag = frag.header.datagram_tag
            before = [send.payload for send in sends_by_id[source, tag] if send.time <= now]
            delivered.append(DeliveredRecord(now, source, plan.origins[i], tag,
                                             bool(before) and result.payload == before[-1]))
        settle(stack.drain_evictions(), "timeout")
    while next_tick <= cfg.duration:
        settle(stack.tick(next_tick), "timeout")
        next_tick += TICK_INTERVAL
    identified_at = stack.identified_at(attacker) if attacker is not None else None
    settle(stack.flush(cfg.duration), "buffered")

    codes = bytearray(DISPOSITIONS.index(d) | PREFILTERED * p | hostile_flag
                      for d, p, hostile_flag in zip(dispositions, prefiltered, plan.codes))
    return RunResult(
        cfg.name, cfg.stack, plan.seed, cfg.duration, cfg.senders, attacker,
        cfg.attack and cfg.attack.kind, cfg.attack and cfg.attack.start,
        dict(plan.sent_datagrams), dict(plan.sent_fragments),
        FrameRecords(plan.times, plan.sources, plan.kinds, plan.origins, codes), delivered,
        identified_at, stack.buffer.mean_availability(), stack.buffer.max_occupancy,
        {node: ledger.power_mw(cfg.duration) for node, ledger in ledgers.items()},
        dict(stack.block_events), stack.trust_history)


def outcome(run, cfg, plan) -> dict:
    """What run(cfg, plan) leaves, by name: its result's values, the fields and time of every
    frame the radio filter let through to the gates, every fragment a session stored as
    (record, source, header, payload), and pcsm's trust state per source."""
    stacks, gated, stored = [], [], []
    init, gates, store = ReceiverStack.__init__, ReceiverStack.admit_fields, ReassemblySession.store
    with pytest.MonkeyPatch.context() as m:
        m.setattr(ReceiverStack, "__init__",
                  lambda self, *args: init(self, *args) or stacks.append(self))
        m.setattr(ReceiverStack, "admit_fields",
                  lambda self, *fields: gated.append(fields[:-1]) or gates(self, *fields))
        m.setattr(ReassemblySession, "store", lambda self, frag: stored.append(
            (frag.record, frag.source, frag.header, frag.payload)) or store(self, frag))
        r = run(cfg, plan)
    [stack] = stacks
    engine = getattr(stack, "engine", None)
    return {"records": list(r.records), "delivered": r.delivered,
            "identified_at": r.identified_at, "mean_availability": r.mean_availability.hex(),
            "max_occupancy": r.max_occupancy, "node_power_mw": r.node_power_mw,
            "block_events": r.block_events, "trust_history": r.trust_history,
            "gated": gated, "stored": stored, "trust_states": engine and engine.states,
            "collect": collect(r).to_json()}


def assert_matches_reference(cfg, plan) -> dict:
    """simulate()'s outcome over plan, once it has equalled the reference's on every value.

    simulate() goes first, so it draws the adversary's bytes as it reads them, and keeps
    the trust history as the reference does.
    """
    got = outcome(lambda cfg, plan: simulate(cfg, plan.seed, trace=True, plan=plan), cfg, plan)
    want = outcome(reference_run, cfg, plan)
    for name in got:
        assert got[name] == want[name], name
    return got
