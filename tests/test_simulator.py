"""End-to-end runs of the event loop, checked against hand counts."""

import dataclasses
import hashlib
import json
import pathlib

import pytest

from pcsm import baselines
from pcsm.baselines import fragment_mac
from pcsm.cli import _trace_lines
from pcsm.config import STACKS, load_config, parse_config
from pcsm.frag_codec import (
    MAX_FRAGMENT_PAYLOAD,
    ExtensionFields,
    FragmentHeader,
    FragmentKind,
    encode_header,
)
from pcsm.hash_chain import chain_tag, seed_chain
from pcsm.metrics import FINAL_DISPOSITIONS, collect
from pcsm.simulator import _legit_schedule, plan_arrivals, simulate

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
    [{"duration": 0}, {"buffer": {"slots": 1}}, {"traffic": {"payload_bytes": 2047}}],
    ids=["no_time", "one_slot", "largest_datagram"],
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


def _starved_session_run(timeout, duration):
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
    return simulate(cfg, seed=2, trace=True)


@pytest.mark.parametrize(
    "timeout,evicted_at",
    # 61.251 + 10.749 is exactly 72.0, which is not past the deadline yet
    [(10.0, 72.0), (10.749, 73.0)],
)
def test_open_session_times_out_at_first_whole_second_tick_past_deadline(timeout, evicted_at):
    r = _starved_session_run(timeout, duration=100.0)
    first = r.records[0]
    assert first.time == 61.251
    assert first.disposition == "timeout"
    late_penalties = [when for when, node, _ in r.trust_history if node == 1 and when > 62.0]
    assert late_penalties == [evicted_at]


@pytest.mark.parametrize("duration,disposition", [(71.9, "buffered"), (72.0, "timeout")])
def test_session_open_at_end_of_run_is_buffered(duration, disposition):
    r = _starved_session_run(10.0, duration=duration)
    assert r.records[0].disposition == disposition


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


def test_replaying_a_plan_leaves_it_unchanged():
    a = load_config(REPO / "configs/pcsm-burst_injection.yaml")
    b = dataclasses.replace(a, stack="secupan")
    plan = plan_arrivals(a, 3)
    before = list(plan.frames())
    first = _digest(simulate(a, 3, trace=True, plan=plan))
    other = _digest(simulate(b, 3, trace=True, plan=plan))
    again = _digest(simulate(a, 3, trace=True, plan=plan))
    assert first == again == _digest(simulate(a, 3, trace=True))
    assert other == _digest(simulate(b, 3, trace=True))
    assert list(plan.frames()) == before
    assert all(frame.origin == a.attack.attacker for frame in before if frame.ref < 0)


def test_plan_arrivals_are_time_sorted_and_match_the_records():
    cfg = load_config(REPO / "configs/vanilla-late_phase.yaml")
    plan = plan_arrivals(cfg, 2)
    frames = list(plan.frames())
    assert [f.arrival for f in frames] == sorted(f.arrival for f in frames)
    records = simulate(cfg, 2, plan=plan).records
    assert [(f.arrival, f.source, f.origin, f.kind) for f in frames] == [
        (r.time, r.source, r.origin, r.kind) for r in records
    ]


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

    def admit(self, frag, now):
        if frag.record.origin != frag.source:
            replays.append(frag)
        return baselines.ReceiverStack.admit(self, frag, now)

    monkeypatch.setattr(cls, "admit", admit)
    simulate(cfg, seed=4)
    sends = {(s.source, s.tag): s for s in _legit_schedule(cfg, 4)}
    assert len(replays) > 100
    for frag in replays:
        victim = sends[frag.source, frag.header.datagram_tag]
        first = victim.payload[:MAX_FRAGMENT_PAYLOAD]
        assert frag.header.kind is FragmentKind.FRAG1
        assert (frag.header.datagram_size, frag.header.datagram_offset) == (288, 0)
        assert len(frag.payload) == len(first) and frag.payload != first
        if cls.SIGNER is None:
            assert frag.header.ext is None
            continue
        if cls.SIGNER == "chain":
            sig = chain_tag(seed_chain(b"replay-key", first, victim.nonce))
        else:
            sig = fragment_mac(b"replay-key", victim.source, FragmentKind.FRAG1, 288,
                               victim.tag, 0, victim.nonce, first)
        assert frag.header.ext == ExtensionFields(255, victim.nonce, sig)
