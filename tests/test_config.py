"""Scenario schema: defaults, overrides, and dotted-path diagnostics."""

from pathlib import Path

import pytest
import yaml

from pcsm import baselines
from pcsm.config import (
    MAX_PLANNED_ARRIVALS,
    SENSITIVITY_LAMBDAS,
    SENSITIVITY_THETAS,
    STACKS,
    ConfigInvalid,
    load_config,
    parse_config,
    planned_arrivals,
)
from pcsm.reassembly import PredictiveCsmStack
from pcsm.simulator import plan_arrivals

REPO = Path(__file__).resolve().parents[1]
README = REPO / "README.md"


def test_minimal_config_fills_defaults():
    cfg = parse_config({"name": "tiny", "stack": "pcsm"})
    assert cfg.duration == 1800.0
    assert cfg.senders == 8
    assert cfg.key == b"shared-group-key"
    assert cfg.channel.loss_rate == 0.005
    assert cfg.buffer.slots == 2
    assert cfg.trust.forgetting_factor == 0.9
    assert cfg.trust.threshold == 0.3
    assert cfg.traffic.payload_bytes == 288
    assert cfg.attack is None


def test_trust_params_mapping_uses_send_interval_as_nominal():
    cfg = parse_config(
        {
            "name": "t",
            "stack": "pcsm",
            "trust": {"lambda": 0.8, "theta": 0.2},
            "traffic": {"send_interval": 45.0},
        }
    )
    stack = PredictiveCsmStack.from_config(cfg, trace=False)
    assert stack.engine.params.forgetting_factor == 0.8
    assert stack.engine.params.threshold == 0.2
    assert stack.engine.state(1).ewma_inter_arrival == 45.0
    assert stack.engine.observe_frag1(1, 1, 10.0).inter_arrival == 45.0


def test_attack_section_builds_spec_with_overrides():
    cfg = parse_config(
        {
            "name": "a",
            "stack": "pcsm",
            "attack": {"kind": "burst_injection", "start": 600.0, "burst_rate": 4.0},
        }
    )
    assert cfg.attack.kind == "burst_injection"
    assert cfg.attack.start == 600.0
    assert cfg.attack.burst_rate == 4.0
    assert cfg.attack.attacker == 9  # first id past the senders


def test_attack_none_token():
    cfg = parse_config({"name": "a", "stack": "vanilla", "attack": {"kind": "none"}})
    assert cfg.attack is None


@pytest.mark.parametrize(
    "mutation,wanted_field",
    [
        ({"stack": "tls"}, "stack"),
        ({"duration": -1.0}, "duration"),
        ({"senders": 0}, "senders"),
        ({"name": ""}, "name"),
        ({"key": ""}, "key"),
        ({"trust": {"theta": 1.5}}, "trust.theta"),
        ({"trust": {"lambda": 0.0}}, "trust.lambda"),
        ({"trust": {"thetaa": 0.3}}, "trust.thetaa"),
        ({"channel": {"loss_rate": -0.1}}, "channel.loss_rate"),
        ({"channel": {"loss_rate": True}}, "channel.loss_rate"),
        ({"buffer": {"slots": 0}}, "buffer.slots"),
        ({"buffer": {"slots": 2.5}}, "buffer.slots"),
        ({"traffic": {"payload_bytes": 4096}}, "traffic.payload_bytes"),
        ({"attack": {"kind": "phantom"}}, "attack.kind"),
        ({"attack": {"kind": "late_phase", "attacker": 3}}, "attack.attacker"),
        ({"attack": {"kind": "late_phase", "late_orphans": 0}}, "attack.late_orphans"),
        ({"bogus_top": 1}, "bogus_top"),
        ({"trust": "not a map"}, "trust"),
        ({"attack": {"kind": "early_frag1", "warmup_interval": 0}}, "attack.warmup_interval"),
        ({"attack": {"kind": "complete_flooding", "flood_interval": 0}}, "attack.flood_interval"),
        ({"attack": {"kind": "header_replay", "replay_interval": 0}}, "attack.replay_interval"),
        ({"attack": {"kind": "burst_injection", "burst_rate": 0}}, "attack.burst_rate"),
        ({"attack": {"kind": "complete_flooding", "flood_bytes": 5000}}, "attack.flood_bytes"),
        ({"attack": {"kind": "burst_injection", "forged_size": 2048}}, "attack.forged_size"),
        ({"attack": {"kind": "early_frag1", "warmup_bytes": 2048}}, "attack.warmup_bytes"),
        ({"attack": {"kind": "early_frag1", "warmup_bytes": 97}}, "attack.warmup_bytes"),
        ({"attack": {"kind": "late_phase", "forged_size": 96}}, "attack.forged_size"),
        ({"attack": {"kind": "late_phase", "forged_size": 50}}, "attack.forged_size"),
        ({"attack": {"kind": "burst_injection", "attacker": 2**31}}, "attack.attacker"),
        # the name names the output files, which must stay inside --out
        ({"name": "../escaped"}, "name"),
        ({"name": "a\\b"}, "name"),
        ({"name": "a\0b"}, "name"),
    ],
)
def test_invalid_fields_name_their_dotted_path(mutation, wanted_field):
    data = {"name": "x", "stack": "pcsm"}
    data.update(mutation)
    with pytest.raises(ConfigInvalid) as err:
        parse_config(data)
    assert err.value.field == wanted_field
    assert str(err.value).startswith(wanted_field + ":")


@pytest.mark.parametrize(
    "mutation,message",
    [
        ({"trust": {"history_alpha": 1.0}}, "trust.history_alpha: must be < 1.0"),
        ({"trust": {"lambda": 1.0}}, "trust.lambda: must be < 1.0"),
        ({"trust": {"initial_score": 1.5}}, "trust.initial_score: must be <= 1.0"),
        ({"trust": {"block_duration": 0}}, "trust.block_duration: must be > 0.0"),
        ({"buffer": {"timeout": 0}}, "buffer.timeout: must be > 0.0"),
        ({"traffic": {"pacing": -1}}, "traffic.pacing: must be >= 0.0"),
        ({"traffic": {"payload_bytes": 2.5}}, "traffic.payload_bytes: expected an integer"),
        ({"traffic": {"payload_bytes": 2048}}, "traffic.payload_bytes: must be <= 2047"),
        ({"traffic": {"send_interval": 0}}, "traffic.send_interval: must be > 0.0"),
        ({"channel": {"corruption_rate": 2}}, "channel.corruption_rate: must be <= 1.0"),
        ({"channel": {"cost": 1}}, "channel.cost: unknown field"),
        ({"buffer": []}, "buffer: expected a mapping"),
        ({"duration": "long"}, "duration: expected a number"),
        ({"senders": 0}, "senders: must be >= 1"),
        ({"attack": {"kind": "burst_injection", "salvo_size": 0}}, "attack.salvo_size: must be >= 1"),
        ({"attack": {"kind": "burst_injection", "start": -1}}, "attack.start: must be >= 0.0"),
        ({"attack": {"kind": "burst_injection", "flood_pacing": "x"}},
         "attack.flood_pacing: expected a number"),
        ({"attack": {"kind": "burst_injection", "late_spacing": True}},
         "attack.late_spacing: expected a number"),
        ({"attack": {"kind": "burst_injection", "replay_pool": 1.0}},
         "attack.replay_pool: expected an integer"),
        ({"attack": {"kind": "header_replay", "decoy": 1}}, "attack.decoy: unknown field"),
        ({"attack": {"kind": "none", "start": 1.0}}, "attack.start: unknown field"),
    ],
)
def test_diagnostics_read_exactly(mutation, message):
    data = {"name": "x", "stack": "pcsm"}
    data.update(mutation)
    with pytest.raises(ConfigInvalid) as err:
        parse_config(data)
    assert str(err.value) == message


def test_readme_defaults_match_the_parser():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Scenario configuration"):]
    start = section.index("```yaml\n") + len("```yaml\n")
    shown = yaml.safe_load(section[start:section.index("\n```", start)])
    del shown["attack"]
    assert parse_config(shown) == parse_config({"stack": shown["stack"]})


def test_attack_size_limits_accept_values_at_their_edges():
    early = parse_config({"name": "x", "stack": "pcsm",
                          "attack": {"kind": "early_frag1", "warmup_bytes": 96}})
    assert early.attack.warmup_bytes == 96
    late = parse_config({"name": "x", "stack": "pcsm",
                         "attack": {"kind": "late_phase", "forged_size": 97}})
    assert late.attack.forged_size == 97
    # the floor on forged_size is late_phase's alone
    burst = parse_config({"name": "x", "stack": "pcsm",
                          "attack": {"kind": "burst_injection", "forged_size": 50}})
    assert burst.attack.forged_size == 50


def test_all_stack_tokens_accepted():
    for stack in STACKS:
        assert parse_config({"name": "s", "stack": stack}).stack == stack
    assert STACKS == ("vanilla", "csm", "secupan", "pcsm")


@pytest.mark.parametrize("name", STACKS)
def test_every_stack_builds_from_its_config_section(name):
    cfg = parse_config({"name": "s", "stack": name, "buffer": {"slots": 3, "timeout": 4.0},
                        "trust": {"block_duration": 30.0}})
    cls = baselines.STACKS[name]
    stack = cls.from_config(cfg, trace=True)
    assert type(stack) is cls
    assert (stack.buffer.slots, stack.buffer.timeout) == (3, 4.0)
    if name == "csm":
        assert stack.block_duration == 30.0
    if name == "pcsm":
        assert stack.engine.params.block_duration == 30.0
        assert stack.trust_history == []


def test_load_config_reads_yaml_and_names_from_filename(tmp_path):
    p = tmp_path / "demo-run.yaml"
    p.write_text("stack: csm\nbuffer:\n  timeout: 5.0\n")
    cfg = load_config(p)
    assert cfg.name == "demo-run"
    assert cfg.stack == "csm"
    assert cfg.buffer.timeout == 5.0


def test_load_config_rejects_broken_yaml(tmp_path):
    p = tmp_path / "broken.yaml"
    p.write_text("stack: [unclosed\n")
    with pytest.raises(ConfigInvalid):
        load_config(p)


@pytest.mark.parametrize(
    "text,wanted_field",
    [
        ("duration: .inf\n", "duration"),
        ("duration: .nan\n", "duration"),
        ("duration: -.inf\n", "duration"),
        ("duration: 1" + "0" * 400 + "\n", "duration"),
        ("channel:\n  loss_rate: .nan\n", "channel.loss_rate"),
        ("trust:\n  lambda: .nan\n", "trust.lambda"),
        ("attack:\n  kind: burst_injection\n  burst_rate: .inf\n", "attack.burst_rate"),
    ],
)
def test_non_finite_numbers_are_rejected(tmp_path, text, wanted_field):
    # through the parser only: a regression here would loop or trace back in a run
    text = "stack: pcsm\n" + text
    message = f"{wanted_field}: must be a finite number"
    with pytest.raises(ConfigInvalid) as err:
        parse_config(yaml.safe_load(text))
    assert str(err.value) == message
    p = tmp_path / "inf.yaml"
    p.write_text(text)
    with pytest.raises(ConfigInvalid) as err:
        load_config(p)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "path", sorted(REPO.glob("configs/**/*.yaml")), ids=lambda p: str(p.relative_to(REPO))
)
def test_bundled_configs_parse_equal_under_both_loaders(path):
    fast = getattr(yaml, "CSafeLoader", None)
    if fast is None:
        pytest.skip("PyYAML built without libyaml")
    raw = path.read_bytes()
    data = yaml.load(raw, Loader=yaml.SafeLoader)
    assert yaml.load(raw, Loader=fast) == data
    assert load_config(path) == parse_config(data, default_name=path.stem)


def test_sensitivity_grid_constants():
    assert SENSITIVITY_LAMBDAS == (0.7, 0.8, 0.9, 0.95)
    assert SENSITIVITY_THETAS == (0.2, 0.3, 0.4)


# Each plans far more arrivals than a run may hold; they are parsed here, never run.
_OVERSIZED = [
    ({"duration": 1e12}, "duration"),
    ({"senders": 10**9}, "senders"),
    ({"senders": 10**6}, "senders"),
    ({"traffic": {"send_interval": 1e-9}}, "traffic.send_interval"),
    ({"duration": 1e7, "traffic": {"payload_bytes": 2047}}, "duration"),
    ({"attack": {"kind": "burst_injection", "burst_rate": 1e9}}, "attack.burst_rate"),
    ({"attack": {"kind": "burst_injection", "start": 0.0, "burst_rate": 1e5}},
     "attack.burst_rate"),
    ({"attack": {"kind": "burst_injection", "warmup_interval": 1e-5}}, "attack.warmup_interval"),
    ({"attack": {"kind": "early_frag1", "salvo_size": 10**6}}, "attack.salvo_size"),
    ({"attack": {"kind": "complete_flooding", "flood_interval": 1e-4}}, "attack.flood_interval"),
    ({"attack": {"kind": "header_replay", "replay_interval": 1e-5}}, "attack.replay_interval"),
    ({"attack": {"kind": "late_phase", "late_orphans": 10**6}}, "attack.late_orphans"),
    ({"attack": {"kind": "late_phase", "late_orphans": 10**9}}, "attack.late_orphans"),
    ({"duration": 1e12, "attack": {"kind": "burst_injection"}}, "duration"),
]


@pytest.mark.parametrize("data,wanted_field", _OVERSIZED,
                         ids=lambda v: v if isinstance(v, str) else None)
def test_configs_that_plan_too_many_arrivals_are_invalid(data, wanted_field):
    with pytest.raises(ConfigInvalid) as err:
        parse_config({"name": "huge", "stack": "pcsm", **data})
    assert err.value.field == wanted_field
    assert "arrivals" in str(err.value) or f"<= {MAX_PLANNED_ARRIVALS}" in str(err.value)


def test_a_plan_just_under_the_cap_is_accepted():
    cfg = parse_config({"name": "x", "stack": "pcsm",
                        "attack": {"kind": "burst_injection", "burst_rate": 11000.0}})
    assert 0.99 * MAX_PLANNED_ARRIVALS < planned_arrivals(cfg) <= MAX_PLANNED_ARRIVALS


@pytest.mark.parametrize("path", sorted(REPO.glob("configs/**/*.yaml")), ids=lambda p: p.stem)
def test_planned_arrivals_bound_the_frames_a_plan_builds(path):
    cfg = load_config(path)
    plan = plan_arrivals(cfg, 1)
    # every legit fragment, lost or not, and every emission of the schedule
    built = sum(len(send.lost) for send in plan.sends) + len(plan.attack or ())
    assert built <= planned_arrivals(cfg) <= 2 * built + cfg.senders * 3
