"""Scenario schema: defaults, overrides, and dotted-path diagnostics."""

from pathlib import Path

import pytest
import yaml

from pcsm import baselines
from pcsm.config import (
    SENSITIVITY_LAMBDAS,
    SENSITIVITY_THETAS,
    STACKS,
    ConfigInvalid,
    load_config,
    parse_config,
)
from pcsm.reassembly import PredictiveCsmStack

README = Path(__file__).resolve().parents[1] / "README.md"


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
    assert stack.tracker.observe_frag1(1, 1, 10.0).inter_arrival == 45.0


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


def test_sensitivity_grid_constants():
    assert SENSITIVITY_LAMBDAS == (0.7, 0.8, 0.9, 0.95)
    assert SENSITIVITY_THETAS == (0.2, 0.3, 0.4)
