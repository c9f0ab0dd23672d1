"""Every config ends in a diagnostic, or in a run its planned-arrival estimate bounds and
that equals the reference run."""

import json
from dataclasses import fields

import pytest

from pcsm.attacks import KINDS, AttackSpec
from pcsm.config import STACKS, ConfigInvalid, TrafficConfig, parse_config, planned_arrivals
from pcsm.simulator import plan_arrivals
from reference_run import assert_matches_reference

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

# In-bounds values per field: the edges of its bound, a typical value, and for
# each field that sizes a plan one extreme that plans past the cap from the
# shortest attack window drawn (1 s), so those configs are refused before any
# build.  The rest keep a run to some tens of thousands of arrivals.
_ATTACK_VALUES = {
    "attacker": [None, None, None, 1, 2**31 - 1],  # None: the first id past the senders
    "start": [0.0, 30.0, 120.0, 1e9],
    "forged_size": [1, 96, 97, 200, 2047],
    "warmup_interval": [1e-9, 7.0, 90.0],
    "warmup_start": [0.0, 0.5, 50.0],
    "warmup_bytes": [1, 64, 96],
    "early_lead": [0.0, 0.005, 2.0],
    "salvo_size": [1, 12, 10**7],
    "salvo_spacing": [0.0, 0.0004, 0.5],
    "flood_interval": [1e-9, 1.5, 20.0],
    "flood_bytes": [1, 960, 2047],
    "flood_pacing": [0.0, 0.1, 3.0],
    "replay_interval": [1e-9, 0.05, 3.0],
    "replay_pool": [1, 4, 10**6],
    "burst_rate": [1e-3, 6.0, 1e9],
    "late_lag": [0.0, 0.05, 5.0],
    "late_orphans": [1, 16, 10**7],
    "late_spacing": [0.0, 0.1, 1.0],
}
_TRAFFIC_VALUES = {
    "payload_bytes": [1, 96, 97, 288, 2047],
    "send_interval": [1e-9, 5.0, 30.0, 90.0],
    "phase_base": [0.0, 50.0],
    "phase_step": [0.0, 11.25],
    "pacing": [0.0, 0.1, 1.0],
}


def _section(values):
    return st.fixed_dictionaries({k: st.sampled_from(v) for k, v in values.items()}).map(
        lambda d: {k: v for k, v in d.items() if v is not None})


def test_the_strategy_draws_every_attack_and_traffic_field():
    assert set(_ATTACK_VALUES) == {f.name for f in fields(AttackSpec)} - {"kind"}
    assert set(_TRAFFIC_VALUES) == {f.name for f in fields(TrafficConfig)}


# Typical values for the rest, none of which a config refuses: whole and
# fractional durations, so runs end on and off a tick, 0 and 1 s among
# them (the tightest windows for the planned-arrival estimate), and
# fractional timeouts, so deadlines fall between ticks.
_RATE = st.floats(0.0, 0.3)
_UNIT = st.floats(0.01, 0.99)  # inside the open interval the trust fields take
_TYPICAL = st.fixed_dictionaries({
    "duration": st.sampled_from([60.0, 71.9, 150.5, 300.0, 599.75, 900.0, 0.0, 1.0]),
    "senders": st.integers(1, 10),
    "buffer": st.fixed_dictionaries({"slots": st.integers(1, 4),
                                     "timeout": st.sampled_from([10.0, 2.5, 10.749])}),
    "channel": st.fixed_dictionaries({"loss_rate": _RATE, "corruption_rate": _RATE}),
    "trust": st.fixed_dictionaries({"lambda": _UNIT, "theta": _UNIT}),
})


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(stack=st.sampled_from(STACKS), kind=st.sampled_from((None, *KINDS)),
       attack=_section(_ATTACK_VALUES), traffic=_section(_TRAFFIC_VALUES), typical=_TYPICAL,
       seed=st.integers(1, 3))
def test_every_config_is_refused_or_runs_as_the_reference_run_does(stack, kind, attack, traffic,
                                                                    typical, seed):
    data = {"stack": stack, "traffic": traffic, **typical}
    if kind is not None:
        data["attack"] = {"kind": kind, **attack}
    try:
        cfg = parse_config(data, default_name="prop")
    except ConfigInvalid as refused:
        assert refused.field.startswith(("attack.", "traffic."))
        return
    plan = plan_arrivals(cfg, seed)
    # every legit fragment, lost or not, and every emission of the schedule
    emissions = len(plan.attack) if plan.attack is not None else 0
    assert sum(len(send.lost) for send in plan.sends) + emissions <= planned_arrivals(cfg)
    assert json.loads(assert_matches_reference(cfg, plan)["collect"])["conservation_ok"]
