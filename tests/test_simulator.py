"""End-to-end runs of the event loop, checked against hand counts and the reference run."""

import dataclasses
import hashlib
import itertools
import json
import pathlib
import random
import tracemalloc
import weakref
from array import array

import pytest

from pcsm import baselines, cli, hash_chain, simulator
from pcsm.attacks import ATTACK_KINDS, AttackSchedule
from pcsm.baselines import fragment_mac
from pcsm.cli import _trace_lines
from pcsm.config import STACKS, load_config, parse_config
from pcsm.frag_codec import (
    MAX_FRAGMENT_PAYLOAD,
    FragmentHeader,
    FragmentKind,
    encode_header,
)
from pcsm.hash_chain import ChainLinks, chain_tag, seed_chain
from pcsm.metrics import FINAL_DISPOSITIONS, collect
from pcsm.reassembly import PredictiveCsmStack, ReassemblyBuffer, ReceiverStack
from pcsm.simulator import HOSTILE, _legit_schedule, legit_traffic, plan_arrivals, simulate
from reference_run import assert_matches_reference

REPO = pathlib.Path(__file__).parent.parent
DIGESTS = json.loads(
    (pathlib.Path(__file__).parent / "fixtures" / "run_digests.json").read_text(encoding="utf-8")
)


def _cfg(**over):
    data = {
        "stack": "vanilla",
        "duration": 300.0,
        "senders": 2,
        "channel": {"loss_rate": 0.0},
    }
    data.update(over)
    return parse_config(data, default_name="sim")


def test_lossless_run_delivers_everything():
    r = simulate(_cfg(), seed=1)
    assert sum(r.sent_datagrams.values()) == 6
    assert sum(r.sent_fragments.values()) == 18
    assert len(r.delivered) == 6
    assert all(d.intact for d in r.delivered)
    assert all(rec.disposition == "delivered" for rec in r.records)


def test_schedule_respects_duration_boundary():
    # Sender 1 phases in at 61.25 s; a train takes 0.2 s and the loop
    # requires one spare tick, so 62.45 s is the tightest duration that
    # still admits the first datagram.
    fits = simulate(_cfg(senders=1, duration=62.45), seed=1)
    assert sum(fits.sent_datagrams.values()) == 1
    too_short = simulate(_cfg(senders=1, duration=62.44), seed=1)
    assert sum(too_short.sent_datagrams.values()) == 0


def test_single_fragment_datagrams_deliver_everywhere():
    for stack in STACKS:
        r = simulate(_cfg(stack=stack, traffic={"payload_bytes": 64}), seed=1)
        assert len(r.delivered) == 6, stack
        assert all(d.intact for d in r.delivered)


def test_matched_seed_is_deterministic():
    a = simulate(_cfg(stack="pcsm", attack={"kind": "burst_injection"}), seed=7)
    b = simulate(_cfg(stack="pcsm", attack={"kind": "burst_injection"}), seed=7)
    assert [
        (r.time, r.origin, r.disposition) for r in a.records
    ] == [(r.time, r.origin, r.disposition) for r in b.records]
    assert collect(a).to_json() == collect(b).to_json()
    c = simulate(_cfg(stack="pcsm", attack={"kind": "burst_injection"}), seed=8)
    assert collect(a).to_json() != collect(c).to_json()


def test_stacks_share_channel_fates_per_seed():
    # The loss draws depend only on the seed, so the same fragments
    # vanish no matter which stack is listening.
    results = {
        stack: simulate(_cfg(stack=stack, channel={"loss_rate": 0.2}), seed=3)
        for stack in STACKS
    }
    arrival_sets = {
        stack: [(rec.time, rec.source) for rec in r.records]
        for stack, r in results.items()
    }
    assert len(set(map(tuple, arrival_sets.values()))) == 1


def test_corrupted_train_rejected_by_chain_but_not_by_vanilla():
    kw = dict(senders=1, channel={"loss_rate": 0.0, "corruption_rate": 1.0})
    vanilla = simulate(_cfg(**kw), seed=2)
    # nothing checks payload bytes, so the mangled datagram still delivers
    assert len(vanilla.delivered) == 3
    assert not any(d.intact for d in vanilla.delivered)
    assert collect(vanilla).delivered_datagrams == 0

    guarded = simulate(_cfg(stack="pcsm", **kw), seed=2)
    # a mangled first fragment seeds the wrong verification chain, so
    # every continuation fails its tag and the session starves out
    assert len(guarded.delivered) == 0
    reasons = {rec.disposition for rec in guarded.records}
    assert "bad_signature" in reasons and "timeout" in reasons


def test_prefilter_skips_radio_for_blocked_source():
    burst = {"stack": "pcsm", "attack": {"kind": "burst_injection"}}
    r = simulate(parse_config(burst, default_name="b"), seed=1)
    assert any(rec.prefiltered for rec in r.records)
    # blocked traffic never reaches the radio, so the root spends less
    # energy than under the baseline that receives everything first
    csm = dict(burst, stack="csm")
    r_csm = simulate(parse_config(csm, default_name="b"), seed=1)
    assert r.node_power_mw[0] < r_csm.node_power_mw[0]


def test_identification_only_after_onset():
    r = simulate(
        parse_config(
            {"stack": "pcsm", "attack": {"kind": "burst_injection"}},
            default_name="b",
        ),
        seed=1,
    )
    assert r.identified_at is not None
    assert r.identified_at >= r.attack_start
    assert r.block_events.get(r.attacker, 0) >= 1


def test_warmup_traffic_alone_is_never_blocked():
    r = simulate(
        parse_config(
            {
                "stack": "pcsm",
                "duration": 600.0,
                "attack": {"kind": "burst_injection", "start": 4000.0},
            },
            default_name="w",
        ),
        seed=1,
    )
    # onset lies past the end of the run, so only warmup mimicry is sent
    assert r.identified_at is None
    assert r.block_events == {}


@pytest.mark.parametrize("stack", STACKS)
@pytest.mark.parametrize("kind", ["complete_flooding", "header_replay"])
def test_every_record_reaches_a_terminal_state(stack, kind):
    cfg = parse_config(
        {"stack": stack, "duration": 1200.0, "attack": {"kind": kind}},
        default_name="t",
    )
    r = simulate(cfg, seed=5)
    assert all(rec.disposition in FINAL_DISPOSITIONS for rec in r.records)
    assert collect(r).conservation_ok


@pytest.mark.parametrize("stack", STACKS)
def test_largest_accepted_attack_datagrams_run_on_every_stack(stack):
    # 2047 fills the 11-bit size field; a flood that long still ends at
    # an offset that fits the 8-bit offset field.  A warmup datagram is one
    # first fragment, so 96 bytes is the most it can carry.
    attack = {"kind": "complete_flooding", "start": 900.0, "flood_bytes": 2047,
              "forged_size": 2047, "warmup_bytes": 96}
    cfg = parse_config({"stack": stack, "duration": 960.0, "attack": attack}, default_name="t")
    assert collect(simulate(cfg, seed=1)).conservation_ok


@pytest.mark.parametrize("stack", STACKS)
@pytest.mark.parametrize(
    "edge",
    [{"duration": 0}, {"buffer": {"slots": 1}}, {"traffic": {"payload_bytes": 2047}},
     # one byte is one first fragment: a chain with no link, only its seed
     {"traffic": {"payload_bytes": 1}}, {"channel": {"loss_rate": 1.0}},
     # every legit payload corrupted: each chain lookup misses and is hashed
     {"channel": {"corruption_rate": 1.0}}, {"senders": 1},
     {"attack": {"kind": "burst_injection", "start": 0.0}},
     {"attack": {"kind": "burst_injection", "start": 300.0, "attacker": 2**31 - 1}}],
    ids=["no_time", "one_slot", "largest_datagram", "one_byte_datagram", "all_lost",
         "all_corrupt", "one_sender", "attack_from_the_start", "largest_attacker"],
)
def test_edge_configs_run_on_every_stack(stack, edge):
    data = {"stack": stack, "duration": 600.0,
            "attack": {"kind": "burst_injection", "start": 300.0}}
    data.update(edge)
    assert collect(simulate(parse_config(data, default_name="edge"), seed=1)).conservation_ok


def test_largest_attacker_id_runs_on_secupan():
    # the largest source id baselines.fragment_mac can pack; config rejects one more
    attack = {"kind": "burst_injection", "start": 60.0, "attacker": 2**31 - 1}
    cfg = parse_config({"stack": "secupan", "duration": 120.0, "attack": attack},
                       default_name="t")
    assert collect(simulate(cfg, seed=1)).conservation_ok


def _fast_sender():
    # one single-fragment datagram every 10 ms: 70,000 sends, past the 16-bit tag space
    return _cfg(senders=1, duration=700.0,
                traffic={"send_interval": 0.01, "payload_bytes": 64, "phase_base": 0.0})


def test_legit_tags_wrap_at_sixteen_bits():
    tags = [s.tag for s in _legit_schedule(_fast_sender(), seed=1)]
    assert len(tags) > 0x10000
    assert all(b == (a + 1) % 0x10000 for a, b in zip(tags, tags[1:]))
    for tag in set(tags):
        encode_header(FragmentHeader(FragmentKind.FRAG1, 64, tag))


def test_wrapped_tags_still_check_the_right_payload():
    r = simulate(_fast_sender(), seed=1)
    assert len(r.delivered) > 0x10000
    assert all(d.intact for d in r.delivered)


def test_energy_ledger_covers_every_node():
    r = simulate(
        parse_config(
            {"stack": "pcsm", "attack": {"kind": "early_frag1"}},
            default_name="e",
        ),
        seed=1,
    )
    assert set(r.node_power_mw) == {0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
    assert all(p > 0.0 for p in r.node_power_mw.values())


def _starved_session(timeout, duration):
    # Every fragment is corrupted, so sender 1's first datagram (first
    # fragment at 61.251 s) seeds the wrong chain, its continuations fail
    # their tags, and the session stays open until something ends it.
    cfg = _cfg(
        stack="pcsm",
        senders=1,
        duration=duration,
        channel={"loss_rate": 0.0, "corruption_rate": 1.0},
        buffer={"timeout": timeout},
    )
    return cfg, plan_arrivals(cfg, 2)


@pytest.mark.parametrize(
    "timeout,evicted_at",
    # 61.251 + 10.749 is exactly 72.0, which is not past the deadline yet
    [(10.0, 72.0), (10.749, 73.0)],
)
def test_open_session_times_out_at_first_whole_second_tick_past_deadline(timeout, evicted_at,
                                                                        monkeypatch):
    # evict_expired runs only in a tick's full pass, never on an idle tick's early return
    ran, evict = [], ReassemblyBuffer.evict_expired
    monkeypatch.setattr(ReassemblyBuffer, "evict_expired",
                        lambda self, now: ran.append(now) or evict(self, now))
    got = assert_matches_reference(*_starved_session(timeout, duration=100.0))
    first = got["records"][0]
    assert first.time == 61.251
    assert first.disposition == "timeout"
    late_penalties = [when for when, node, _ in got["trust_history"] if node == 1 and when > 62.0]
    assert late_penalties == [evicted_at]
    # the session opens at 61.251 s: simulate() takes the full pass only at the tick past
    # its deadline, which evicts it, and the reference then at every whole second
    assert ran == [evicted_at] + [float(t) for t in range(1, 101)]


@pytest.mark.parametrize("duration,disposition", [(71.9, "buffered"), (72.0, "timeout")])
def test_session_open_at_end_of_run_is_buffered(duration, disposition):
    got = assert_matches_reference(*_starved_session(10.0, duration=duration))
    assert got["records"][0].disposition == disposition


def test_arrival_goes_before_a_tick_at_the_same_instant():
    # The train's fragments land at 61.0, 66.5 and exactly 72.0 s; the
    # session passes its 71.5 s deadline, so the tick at 72.0 s would
    # evict it if it ran before the last fragment.
    cfg = _cfg(
        senders=1,
        duration=100.0,
        buffer={"timeout": 10.5},
        traffic={"phase_base": 60.999, "phase_step": 0.0, "pacing": 5.5},
    )
    r = simulate(cfg, seed=1)
    assert [rec.time for rec in r.records] == [61.0, 66.5, 72.0]
    assert [rec.disposition for rec in r.records] == ["delivered"] * 3


def _digest(result) -> str:
    # the digest tests/test_run_digest.py pins: trace lines, then collected metrics
    text = "".join(line + "\n" for line in _trace_lines(result))
    text += json.dumps(collect(result).to_dict(), sort_keys=True) + "\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _other(cfg):
    """A config that shares cfg's plan: the previous stack, or another trust cell."""
    if cfg.name.startswith("base"):
        trust = dataclasses.replace(cfg.trust, forgetting_factor=0.7, threshold=0.2)
        return dataclasses.replace(cfg, name="other", trust=trust)
    return dataclasses.replace(cfg, name="other", stack=STACKS[STACKS.index(cfg.stack) - 1])


@pytest.mark.parametrize("case", sorted(DIGESTS))
def test_shared_plan_reproduces_the_pinned_digest(case):
    config, seed = case.rsplit(":", 1)
    cfg, seed = load_config(REPO / config), int(seed)
    plan = plan_arrivals(cfg, seed)
    simulate(_other(cfg), seed, trace=True, plan=plan)
    assert _digest(simulate(cfg, seed, trace=True, plan=plan)) == DIGESTS[case]


def test_simulate_sends_every_arrival_through_admit_fields_and_never_admit(monkeypatch):
    """One path into the gates: legit and hostile arrivals alike reach admit_fields from
    the row admitter; admit() is the adapter for library callers only."""
    cfg = load_config(REPO / "configs/pcsm-burst_injection.yaml")
    admitted, gated = [], []
    admit, gates = PredictiveCsmStack.admit, ReceiverStack.admit_fields
    monkeypatch.setattr(PredictiveCsmStack, "admit",
                        lambda self, frag, now: admitted.append(frag) or admit(self, frag, now))
    monkeypatch.setattr(ReceiverStack, "admit_fields",
                        lambda self, *fields: gated.append(fields[0]) or gates(self, *fields))
    r = simulate(cfg, 1)
    assert admitted == []
    heard = [rec for rec in r.records if not rec.prefiltered]
    assert len(gated) == len(heard)
    assert {rec.origin == cfg.attack.attacker for rec in heard} == {False, True}


def _schedule_bytes(schedule):
    """Every column of an attack schedule, and its fully drawn blob, as bytes."""
    schedule.fill(schedule.drawn)
    return {name: bytes(value) for name, value in vars(schedule).items()
            if isinstance(value, (array, bytearray))}


def test_replaying_a_plan_leaves_it_unchanged():
    a = load_config(REPO / "configs/pcsm-burst_injection.yaml")
    # with corrupted legit fragments
    a = dataclasses.replace(a, channel=dataclasses.replace(a.channel, corruption_rate=0.03))
    # every stack, so every signer, and a second pcsm trust cell
    trust = dataclasses.replace(a.trust, forgetting_factor=0.7, threshold=0.2)
    cells = [dataclasses.replace(a, name=stack, stack=stack) for stack in STACKS]
    cells.append(dataclasses.replace(a, name="other", trust=trust))
    # each cell alone on a fresh plan
    alone = {cell.name: _digest(simulate(cell, 3, trace=True, plan=plan_arrivals(a, 3)))
             for cell in cells}
    # a twin's, so that the replays draw each plan's blob on first read
    schedule = _schedule_bytes(plan_arrivals(a, 3).attack)
    for order in (cells, cells[::-1]):
        plan = plan_arrivals(a, 3)
        before = _plan_rows(plan), bytes(plan.legit_corrupt), bytes(plan.attack_corrupt)
        assert schedule["blob"] and schedule["times"] and not plan.attack.blob
        shared = [_digest(simulate(cell, 3, trace=True, plan=plan)) for cell in order]
        # the first cell again, after every other cell has replayed the plan
        shared.append(_digest(simulate(order[0], 3, trace=True, plan=plan)))
        assert shared == [alone[cell.name] for cell in order + order[:1]]
        assert (_plan_rows(plan), bytes(plan.legit_corrupt), bytes(plan.attack_corrupt)) == before
        assert _schedule_bytes(plan.attack) == schedule
        assert all(origin == a.attack.attacker for _, _, _, ref, origin, _ in before[0] if ref < 0)


def test_a_sensitivity_plan_peaks_within_its_memory_budget():
    """The adversary's bytes are drawn on first read, so building the plan holds none of them."""
    cfg = load_config(REPO / "configs/sensitivity/base.yaml")
    tracemalloc.start()
    try:
        plan = plan_arrivals(cfg, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(plan.attack) > 25_000
    assert peak < 4.5e6


@pytest.mark.parametrize(
    "change,named",
    [
        (dict(duration=1700.0), "duration"),
        (dict(senders=7), "senders"),
        (dict(key=b"another-key"), "key"),
        (dict(channel=dataclasses.replace(_cfg().channel, loss_rate=0.1)), "channel"),
        (dict(attack=None), "attack"),
    ],
    ids=["duration", "senders", "key", "channel", "attack"],
)
def test_plan_for_another_world_is_rejected(change, named):
    cfg = load_config(REPO / "configs/pcsm-early_frag1.yaml")
    plan = plan_arrivals(cfg, 1)
    with pytest.raises(ValueError, match=f"another {named}"):
        simulate(dataclasses.replace(cfg, **change), 1, plan=plan)


def test_plan_for_another_seed_is_rejected():
    cfg = load_config(REPO / "configs/pcsm-early_frag1.yaml")
    with pytest.raises(ValueError, match="seed 1, not 2"):
        simulate(cfg, 2, plan=plan_arrivals(cfg, 1))


def test_stack_settings_may_differ_under_one_plan():
    cfg = load_config(REPO / "configs/pcsm-early_frag1.yaml")
    plan = plan_arrivals(cfg, 1)
    for change in (dict(name="x"), dict(stack="csm"),
                   dict(buffer=dataclasses.replace(cfg.buffer, slots=4)),
                   dict(trust=dataclasses.replace(cfg.trust, threshold=0.4))):
        assert collect(simulate(dataclasses.replace(cfg, **change), 1, plan=plan)).conservation_ok


@pytest.mark.parametrize("stack", STACKS)
def test_replayed_header_is_the_victims_signed_first_fragment(stack, monkeypatch):
    # No run digest sees these bytes: the secupan MAC also covers the bogus
    # payload, and pcsm never checks a first fragment's signature.  So the
    # header each stack receives is recomputed here from the victim's send.
    cfg = parse_config({"stack": stack, "duration": 900.0, "key": "replay-key",
                        "attack": {"kind": "header_replay", "start": 300.0}},
                       default_name="replay")
    cls = baselines.STACKS[stack]
    replays = []

    plan = plan_arrivals(cfg, 4)

    def admit_fields(self, *fields):
        src, record = fields[0], fields[-1]
        if plan.origins[record] != src:
            replays.append(fields)
        return baselines.ReceiverStack.admit_fields(self, *fields)

    monkeypatch.setattr(cls, "admit_fields", admit_fields)
    simulate(cfg, seed=4, plan=plan)
    sends = {(s.source, s.tag): s for s in _legit_schedule(cfg, 4)}
    assert len(replays) > 100
    for src, kind, size, tag, offset, nonce, signature, payload, _, _ in replays:
        victim = sends[src, tag]
        first = victim.payload[:MAX_FRAGMENT_PAYLOAD]
        assert kind is FragmentKind.FRAG1
        assert (size, offset) == (288, 0)
        assert len(payload) == len(first) and payload != first
        if cls.SIGNER is None:
            assert nonce is signature is None
            continue
        if cls.SIGNER == "chain":
            sig = chain_tag(seed_chain(b"replay-key", first, victim.nonce))
        else:
            sig = fragment_mac(b"replay-key", victim.source, FragmentKind.FRAG1, 288,
                               victim.tag, 0, victim.nonce, first)
        assert (nonce, signature) == (victim.nonce, sig)


def _hand_plan(cfg, seed, rows, legit_kinds=(0, 1), traffic=None):
    """cfg's plan for seed, over traffic if given, with hand-built adversary arrivals.

    rows are (arrival time, source, kind code), each a forged fragment
    from the attacker (a FragN is an orphan); legit arrivals of other
    kinds than legit_kinds are left out.
    """
    base = plan_arrivals(cfg, seed, traffic)
    attack = AttackSchedule(random.Random(0))
    for t, source, kind in rows:
        attack.add(t, kind, source, 200, 0x8000 + len(attack), 12 * kind, attack.draw(96), 96,
                   -1 if kind else attack.draw(4), attack.draw(8))
    arrivals = [a for a in zip(base.times, base.sources, base.kinds, base.refs, base.origins)
                if a[3] >= 0 and a[2] in legit_kinds]
    arrivals += [(t, source, kind, ~i, base.attacker) for i, (t, source, kind) in enumerate(rows)]
    arrivals.sort(key=lambda a: a[0])
    times, sources, kinds, refs, origins = map(list, zip(*arrivals))
    return base._replace(
        attack=attack, attack_corrupt=bytearray(len(rows)), wires={}, source_runs={},
        times=array("d", times), sources=array("q", sources), kinds=array("B", kinds),
        refs=array("i", refs), origins=array("q", origins),
        codes=array("B", (HOSTILE if ref < 0 else 0 for ref in refs)))


def _record_episodes(monkeypatch):
    """The block episodes simulate() filters through PredictiveCsmStack.filter_run, each as
    its (start, end) ranges; at every filter hit the source holds no reassembly session."""
    episodes, filter_run = [], PredictiveCsmStack.filter_run

    def spy(self, plan, i):
        ranges = filter_run(self, plan, i)
        if ranges:
            source = plan.sources[i]
            assert all(s.source != source for s in self.buffer.sessions.values())
            episodes.append(ranges)
        return ranges

    monkeypatch.setattr(PredictiveCsmStack, "filter_run", spy)
    return episodes


def _orphans(source, start, count, step=1.0):
    return [(start + k * step, source, 1) for k in range(count)]


def _fast_forward_case(case):
    """(config, plan) for one hand-built case; the attacker is node 2, the legit sender node 1."""
    cfg = _cfg(stack="pcsm", senders=1, duration=400.0,
               channel={"loss_rate": 0.0, "corruption_rate": 0.0},
               traffic={"phase_base": 40.0, "phase_step": 0.0},
               attack={"kind": "late_phase", "start": 1.0})
    # five orphans put their source on the blacklist at t = 14 (score 0.295)
    blocked = _orphans(2, 10.0, 5)
    if case == "long_run":
        # 200 s of Frag1 and FragN every 0.5 s, with no legit traffic to cut it
        cfg = dataclasses.replace(cfg, traffic=dataclasses.replace(cfg.traffic, phase_base=300.0))
        rows = blocked + [(15.0 + 0.5 * k, 2, int(k % 3 > 0)) for k in range(400)]
    elif case in ("lapse", "lapse_in_a_run"):
        if case == "lapse_in_a_run":
            # no legit frame before 300 s: the lapse falls inside one run of node 2
            cfg = dataclasses.replace(
                cfg, traffic=dataclasses.replace(cfg.traffic, phase_base=300.0))
        # 20 -> 80 is a gap of exactly one block: the block has lapsed at 80
        rows = blocked + [(20.0, 2, 1), (80.0, 2, 1), (81.0, 2, 0), (82.0, 2, 1), (142.0, 2, 0)]
    elif case == "tick":
        # a legit first fragment alone holds a session open from 40.001 to its
        # timeout at the 51 s tick, while the blocked attacker sends every 0.25 s
        rows = blocked + [(15.0 + 0.25 * k, 2, k % 2) for k in range(200)]
        return cfg, _hand_plan(cfg, 1, rows, legit_kinds=(0,))
    elif case == "two_sources":
        # node 3 is blocked at t = 14.5 as node 2 is at 14; then they alternate
        rows = sorted(blocked + _orphans(3, 10.5, 5)
                      + [(15.0 + 0.25 * k, 2 + k % 2, k // 2 % 2) for k in range(200)])
    elif case == "shared_traffic":
        # a run over the traffic alone has stored its legit fragments at their arrival
        # indexes there; the attacker's ten frames before them shift every index here
        traffic = legit_traffic(cfg, 1)
        simulate(dataclasses.replace(cfg, attack=None), 1, plan=traffic)
        return cfg, _hand_plan(cfg, 1, blocked + _orphans(2, 15.0, 5), traffic=traffic)
    elif case == "tick_block":
        # node 3's one accepted Frag1 (t = 20) opens a session, five anomalous
        # ones take its score to 0.325, and the 31 s tick that evicts the session
        # blocks it, in the middle of node 2's episode; node 3 then keeps sending
        node3 = [(20.0 + k, 3, 0) for k in range(6)] + _orphans(3, 32.0, 40, step=0.5)
        rows = sorted(blocked + node3 + [(15.0 + 0.25 * k, 2, k % 2) for k in range(200)])
    else:
        # the attacker frames legit node 1, then sends under its address
        # while node 1's own trains arrive
        rows = _orphans(1, 10.0, 5) + _orphans(1, 15.0, 200, step=0.3)
    return cfg, _hand_plan(cfg, 1, rows)


@pytest.mark.parametrize("case", ["long_run", "lapse", "lapse_in_a_run", "tick", "two_sources",
                                  "shared_traffic", "tick_block", "spoofed"])
def test_filtered_runs_equal_the_reference_run(case, monkeypatch):
    cfg, plan = _fast_forward_case(case)
    episodes = _record_episodes(monkeypatch)
    got = assert_matches_reference(cfg, plan)
    records, history, states = got["records"], got["trust_history"], got["trust_states"]
    times, sources = plan.times, plan.sources
    spans = [(ep[0][0], ep[-1][1] - 1) for ep in episodes]
    if case == "long_run":
        # one episode of 199.5 s, up to node 1's first train; its expiry is
        # the last contact's plus one block
        [[(i, j)]] = episodes
        assert (times[i], times[j - 1], sources[j]) == (15.0, 214.5, 1)
        assert (states[2].blacklisted_until, states[2].last_frag1_time) == (274.5, 214.5)
    elif case in ("lapse", "lapse_in_a_run"):
        hostile = [(r.disposition, r.prefiltered) for r in records[5:] if r.origin == 2]
        assert hostile == [("untrusted", True), ("no_session", False), ("untrusted", True),
                           ("untrusted", True), ("timeout", False)]
    elif case == "tick":
        # one episode, across the legit Frag1 and the 51 s tick that evicts its session
        [(first, last)] = spans
        assert (times[first], times[last]) == (15.0, 64.75)
        assert len(episodes[0]) == 2
        assert {r.disposition for r in records if r.origin == 1} == {"timeout"}
    elif case == "two_sources":
        # the two episodes interleave frame by frame
        assert sorted(sources[first] for first, _ in spans) == [2, 3]
        assert all(b - a == 1 for ep in episodes for a, b in ep)
        (first2, last2), (first3, last3) = sorted(spans, key=lambda span: sources[span[0]])
        assert first2 < first3 < last2 < last3
    elif case == "shared_traffic":
        assert [(times[first], times[last]) for first, last in spans] == [(15.0, 19.0)]
        assert got["stored"] and all(plan.refs[record] >= 0 for record, *_ in got["stored"])
    elif case == "tick_block":
        assert [r.disposition for r in records if r.source == 3][:6] == ["timeout"] + [
            "untrusted"] * 5
        # node 3's first score under the threshold comes from the tick
        assert min((t, n) for t, n, score in history if n == 3 and score < 0.3) == (31.0, 3)
        assert states[3].blacklisted_until == 32.0 + 0.5 * 39 + 60.0
        [node3] = [span for span in spans if sources[span[0]] == 3]
        [node2] = [span for span in spans if sources[span[0]] == 2]
        assert node2[0] < node3[0] and times[node3[0]] == 32.0 and node3[1] < node2[1]
    else:
        spoofed = [r for r in records if r.prefiltered and r.source == 1]
        assert {r.origin for r in spoofed} == {1, 2}
        assert max(b - a for ep in episodes for a, b in ep) > 100
        assert any(len({plan.origins[k] for k in range(a, b)}) == 2
                   for ep in episodes for a, b in ep)


BUNDLED = sorted(str(path.relative_to(REPO / "configs"))
                 for path in (REPO / "configs").rglob("*.yaml"))


# every bundled config at its own channel rates, and every stack x attack kind
# with every frame corrupted, since no bundled config corrupts hostile payloads
@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("config,corruption", [(config, None) for config in BUNDLED] + [
    (f"{stack}-{kind}.yaml", 1.0) for stack in STACKS for kind in ("none",) + ATTACK_KINDS])
def test_runs_of_bundled_configs_equal_the_reference_run(config, corruption, seed, monkeypatch):
    cfg = load_config(REPO / "configs" / config)
    if corruption is not None:
        cfg = _with_channel(cfg, corruption_rate=corruption)
    episodes = _record_episodes(monkeypatch)
    plan = plan_arrivals(cfg, seed)
    got = assert_matches_reference(cfg, plan)
    if cfg.stack == "pcsm" and cfg.attack is not None and cfg.attack.kind != "header_replay":
        assert episodes
    if corruption is not None and cfg.stack == "vanilla":
        # vanilla stores the corrupted hostile frames, so the stored fragments show them
        hostile = any(plan.refs[record] < 0 for record, *_ in got["stored"])
        assert hostile == (cfg.attack is not None)


# an int is the attacker id of the burst injection config, a str a bundled config
@pytest.mark.parametrize("case", [9, 300, 2**31 - 1, *BUNDLED])
def test_runs_are_each_sources_maximal_runs_of_consecutive_arrivals(case):
    if isinstance(case, int):
        cfg = load_config(REPO / "configs/pcsm-burst_injection.yaml")
        cfg = dataclasses.replace(cfg, attack=dataclasses.replace(cfg.attack, attacker=case))
    else:
        cfg = load_config(REPO / "configs" / case)
    plan = plan_arrivals(cfg, 1)
    want, at = {}, 0
    for source, group in itertools.groupby(plan.sources):
        n = len(list(group))
        want.setdefault(source, []).append((at, at + n))
        at += n
    if isinstance(case, int):
        assert case in want
    absent = max(want) + 1
    assert absent not in plan.sources
    # the first call splits every source's runs: ask for one with none first, the rest backwards
    for source in [absent, *sorted(want, reverse=True), absent]:
        starts, ends = plan.runs(source)
        assert list(zip(starts, ends)) == want.get(source, [])


def _with_channel(cfg, **rates):
    return dataclasses.replace(cfg, channel=dataclasses.replace(cfg.channel, **rates))


def _reference_plan(cfg, seed):
    """cfg's arrivals for seed, one row at a time, and each emission's channel fates.

    A row is (time, source, kind, ref, origin, code).  The legit rows go
    in send and fragment order and the hostile ones in emission order, one
    loss and then one corruption draw each, and the rows are stable-sorted
    by time: so a legit row comes before a hostile one at the same time.
    Returns the rows, and per emission whether it was kept and corrupted.
    """
    sends = _legit_schedule(cfg, seed)
    rows, ref, pacing = [], 0, cfg.traffic.pacing
    for send in sends:
        for j, lost in enumerate(send.lost):
            if not lost:
                t = send.time + j * pacing + simulator.PROPAGATION_DELAY
                rows.append((t, send.source, int(j > 0), ref, send.source, 0))
            ref += 1
    kept, corrupt = [], []
    if cfg.attack is not None:
        attacker = cfg.attack.attacker
        attack = simulator.build_attack(cfg.attack, sends, cfg.duration,
                                        random.Random(f"{seed}:attack"))
        rng = random.Random(f"{seed}:attack-channel")
        for k in range(len(attack)):
            kept.append(rng.random() >= cfg.channel.loss_rate)
            corrupt.append(rng.random() < cfg.channel.corruption_rate)
            if kept[-1]:
                t = attack.times[k] + simulator.PROPAGATION_DELAY
                rows.append((t, attack.sources[k], attack.kinds[k], ~k, attacker, HOSTILE))
    rows.sort(key=lambda row: row[0])
    return rows, kept, corrupt


def _plan_rows(plan):
    return list(zip(plan.times, plan.sources, plan.kinds, plan.refs, plan.origins, plan.codes))


def _assert_plan_matches_reference(cfg, seed):
    plan = plan_arrivals(cfg, seed)
    rows, _, corrupt = _reference_plan(cfg, seed)
    assert _plan_rows(plan) == rows
    assert list(plan.attack_corrupt) == corrupt
    return plan, rows


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("config", BUNDLED)
def test_plan_columns_equal_rows_sorted_one_at_a_time(config, seed):
    _assert_plan_matches_reference(load_config(REPO / "configs" / config), seed)


@pytest.mark.parametrize("loss", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("kind", ["burst_injection", "header_replay"])
def test_plan_columns_equal_the_reference_at_any_loss(kind, loss):
    cfg = _with_channel(load_config(REPO / f"configs/pcsm-{kind}.yaml"), loss_rate=loss)
    plan, rows = _assert_plan_matches_reference(cfg, 1)
    hostile = sum(code == HOSTILE for *_, code in rows)
    if loss == 0.0:
        assert hostile == len(plan.attack) > 0
    elif loss == 0.3:
        assert 0 < hostile < len(plan.attack)
    else:
        assert rows == []
        assert [list(column) for column in plan.runs(cfg.attack.attacker)] == [[], []]


@pytest.mark.parametrize("end", [0, -1], ids=["first", "last"])
def test_plan_columns_equal_the_reference_with_the_end_emission_lost(end):
    cfg = _with_channel(load_config(REPO / "configs/pcsm-burst_injection.yaml"), loss_rate=0.3)
    seed = next(seed for seed in range(1, 50) if not _reference_plan(cfg, seed)[1][end])
    _assert_plan_matches_reference(cfg, seed)


def test_plan_columns_put_legit_rows_first_at_hand_built_ties(monkeypatch):
    cfg = load_config(REPO / "configs/pcsm-burst_injection.yaml")
    pacing = cfg.traffic.pacing

    def tied_attack(spec, sends, duration, rng):
        # one forged FragN sent with each of the first sends' fragments, so both land at once
        out = AttackSchedule(rng)
        for send in sends[:6]:
            for j in range(len(send.lost)):
                out.add(send.time + j * pacing, 1, spec.attacker, 200, 0x8000, 12, out.draw(96), 96)
        return out

    monkeypatch.setattr(simulator, "build_attack", tied_attack)
    _, rows = _assert_plan_matches_reference(cfg, 1)
    times = [row[0] for row in rows]
    ties = [k for k in range(1, len(rows)) if times[k] == times[k - 1]]
    assert len(ties) == 6 * 3
    assert all(rows[k - 1][5] == 0 and rows[k][5] == HOSTILE for k in ties)


@pytest.mark.parametrize("first_times,second_times", [
    ([1.0, 2.0, 2.0, 3.0, 5.0], [0.5, 2.0, 2.0, 2.5, 3.0, 4.0, 6.0]),
    ([2.0, 2.0], [2.0, 2.0, 2.0]),
    ([1.0, 2.0], [3.0, 4.0]),
    ([3.0, 4.0], [1.0, 2.0]),
    ([], [1.0]),
    ([1.0], []),
])
def test_merge_is_a_stable_sort_of_first_then_second(first_times, second_times):
    first = [array("d", first_times), array("i", range(len(first_times)))]
    second = [array("d", second_times), array("i", range(-1, -len(second_times) - 1, -1))]
    rows = sorted([*zip(*first), *zip(*second)], key=lambda row: row[0])
    merged = simulator._merge(first, second)
    assert [col.typecode for col in merged] == ["d", "i"]
    assert list(zip(*merged)) == rows


def _plan_state(plan):
    columns = {name: bytes(getattr(plan, name)) for name in (
        "times", "sources", "kinds", "refs", "origins", "codes", "legit_corrupt",
        "attack_corrupt")}
    wires = {}
    for signer in (None, "chain", "mac"):
        wire = plan.wire(signer)
        wires[signer] = ([(f.header, f.payload, f.source) for f in wire.fragments],
                         wire.cpu_ms, wire.tx_s)
    return columns, plan.sends, plan.sent_datagrams, plan.sent_fragments, wires


@pytest.mark.parametrize("seed", [1, 2])
def test_plans_over_shared_traffic_equal_plans_built_alone(seed):
    cfgs = [load_config(REPO / f"configs/pcsm-{kind}.yaml") for kind in ("none",) + ATTACK_KINDS]
    traffic = legit_traffic(cfgs[0], seed)
    shared = [plan_arrivals(cfg, seed, traffic) for cfg in cfgs]
    for plan in shared:
        plan.wire(None), plan.wire("chain"), plan.wire("mac")
    # compared only once every plan has used the traffic, so none may have changed it
    for cfg, plan in zip(cfgs, shared):
        assert _plan_state(plan) == _plan_state(plan_arrivals(cfg, seed))


def test_traffic_for_another_world_is_rejected():
    cfg = load_config(REPO / "configs/pcsm-early_frag1.yaml")
    with pytest.raises(ValueError, match="another key"):
        plan_arrivals(cfg, 1, legit_traffic(dataclasses.replace(cfg, key=b"another-key"), 1))
    with pytest.raises(ValueError, match="another attack"):
        plan_arrivals(cfg, 1, plan_arrivals(cfg, 1))
    with pytest.raises(ValueError, match="seed 1, not 2"):
        plan_arrivals(cfg, 2, legit_traffic(cfg, 1))


@pytest.mark.parametrize(
    "change",
    [dict(key=b"another-key"), dict(traffic={"pacing": 0.2}), dict(channel={"loss_rate": 0.1}),
     dict(senders=3), dict(duration=290.0)],
    ids=["key", "traffic", "channel", "senders", "duration"],
)
def test_sweep_shares_legit_traffic_only_within_a_traffic_world(change, monkeypatch):
    base = _cfg(stack="pcsm", attack={"kind": "burst_injection", "start": 100.0})
    # another stack and another attack share the base's traffic; the change does not
    same = dataclasses.replace(base, name="same", stack="csm",
                               attack=dataclasses.replace(base.attack, kind="late_phase"))
    change = {name: dataclasses.replace(getattr(base, name), **value)
              if isinstance(value, dict) else value for name, value in change.items()}
    other = dataclasses.replace(base, name="other", **change)
    built = []

    def traffic(cfg, seed):
        built.append((cfg.name, seed))
        return legit_traffic(cfg, seed)

    monkeypatch.setattr(cli, "legit_traffic", traffic)
    kept = cli._sweep([base, same, other], [1, 2], keep=lambda r: (r.name, r.seed))
    assert kept == [[("sim", 1), ("sim", 2)], [("same", 1), ("same", 2)],
                    [("other", 1), ("other", 2)]]
    assert built == [("sim", 1), ("other", 1), ("sim", 2), ("other", 2)]


def _no_links(self, key, default=None):
    return default


@pytest.mark.parametrize("corruption", [0.0, 1.0])
@pytest.mark.parametrize("kind", ("none",) + ATTACK_KINDS)
def test_runs_over_shared_chain_links_hash_fewer_links(kind, corruption, monkeypatch):
    # that runs over shared links equal runs that hash every link, the reference
    # run shows: it gives its stack no links
    hashed = []
    digest = hash_chain._digest
    monkeypatch.setattr(hash_chain, "_digest",
                        lambda key, data: hashed.append(data) or digest(key, data))
    for seed in (1, 2):
        plan = None
        for stack in STACKS:
            cfg = _with_channel(load_config(REPO / f"configs/{stack}-{kind}.yaml"),
                                corruption_rate=corruption)
            plan = plan or plan_arrivals(cfg, seed)
            plan.wire("chain")  # signed before either run, so neither counts the signing
            hashed.clear()
            simulate(cfg, seed, plan=plan)
            shared = len(hashed)
            with monkeypatch.context() as m:
                m.setattr(ChainLinks, "get", _no_links)
                hashed.clear()
                simulate(cfg, seed, plan=plan)
            if stack != "pcsm":
                assert shared == len(hashed) == 0
            elif corruption:
                assert shared == len(hashed) > 0  # every legit payload misses
            else:
                assert shared < len(hashed)


def test_chain_links_hold_each_signed_fragment_and_go_with_their_traffic(monkeypatch):
    cfgs = [load_config(REPO / f"configs/{stack}-burst_injection.yaml") for stack in STACKS]
    tables = []
    run = cli.simulate

    def spy(cfg, seed, trace=False, plan=None):
        traffic = plan.traffic or plan
        links = plan.wire("chain").links
        assert links is traffic.wire("chain").links
        assert len(links) == len(traffic.wire("chain").fragments) == sum(
            len(send.lost) for send in traffic.sends)
        tables.append(weakref.ref(links))
        return run(cfg, seed, trace=trace, plan=plan)

    def traffic(cfg, seed):
        # the traffic of the seed before is gone by now, and its table with it
        assert all(table() is None for table in tables)
        return legit_traffic(cfg, seed)

    monkeypatch.setattr(cli, "simulate", spy)
    monkeypatch.setattr(cli, "legit_traffic", traffic)
    cli._sweep(cfgs, [1, 2])
    assert len(tables) == 8
    assert all(table() is None for table in tables)
