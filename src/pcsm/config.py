"""Scenario configuration: YAML schema, validation, bundled defaults.

A scenario file describes one simulated deployment: the receiver stack
variant, legitimate traffic shape, channel impairments, buffer and
trust parameters, and an optional attack. Validation failures raise
ConfigInvalid carrying the dotted path of the offending field
(for example ``trust.theta``), which the command line surfaces
verbatim before exiting.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import yaml

from .attacks import ATTACK_KINDS, AttackSpec
from .frag_codec import MAX_DATAGRAM_SIZE, MAX_FRAGMENT_PAYLOAD
from .trust_engine import TrustParams

STACKS = ("vanilla", "csm", "secupan", "pcsm")

SENSITIVITY_LAMBDAS = (0.7, 0.8, 0.9, 0.95)
SENSITIVITY_THETAS = (0.2, 0.3, 0.4)


class ConfigInvalid(ValueError):
    """A scenario file failed validation; .field holds the dotted path."""

    def __init__(self, path: str, problem: str):
        super().__init__(f"{path}: {problem}")
        self.field = path


@dataclass(frozen=True)
class ChannelConfig:
    loss_rate: float = 0.005
    corruption_rate: float = 0.0


@dataclass(frozen=True)
class BufferConfig:
    slots: int = 2
    timeout: float = 10.0


@dataclass(frozen=True)
class TrustConfig:
    forgetting_factor: float = 0.9
    threshold: float = 0.3
    anomaly_threshold: float = 2.0
    history_alpha: float = 0.2
    block_duration: float = 60.0
    initial_score: float = 0.5


@dataclass(frozen=True)
class TrafficConfig:
    payload_bytes: int = 288
    send_interval: float = 90.0
    phase_base: float = 50.0
    phase_step: float = 11.25
    pacing: float = 0.1


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    stack: str
    duration: float = 1800.0
    senders: int = 8
    key: bytes = b"shared-group-key"
    channel: ChannelConfig = field(default_factory=ChannelConfig)
    buffer: BufferConfig = field(default_factory=BufferConfig)
    trust: TrustConfig = field(default_factory=TrustConfig)
    traffic: TrafficConfig = field(default_factory=TrafficConfig)
    attack: AttackSpec | None = None

    def trust_params(self) -> TrustParams:
        return TrustParams(
            forgetting_factor=self.trust.forgetting_factor,
            threshold=self.trust.threshold,
            anomaly_threshold=self.trust.anomaly_threshold,
            history_alpha=self.trust.history_alpha,
            block_duration=self.trust.block_duration,
            initial_score=self.trust.initial_score,
            nominal_interval=self.traffic.send_interval,
        )


def _require_map(value, path):
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigInvalid(path, "expected a mapping")
    return dict(value)


def _reject_unknown(section: dict, path: str) -> None:
    if section:
        key = sorted(section)[0]
        raise ConfigInvalid(f"{path}.{key}" if path else str(key), "unknown field")


def _num(section, key, path, default, *, lo=None, hi=None, lo_open=False, hi_open=False):
    value = section.pop(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigInvalid(f"{path}{key}", "expected a number")
    value = float(value)
    if lo is not None and (value <= lo if lo_open else value < lo):
        raise ConfigInvalid(f"{path}{key}", f"must be {'>' if lo_open else '>='} {lo}")
    if hi is not None and (value >= hi if hi_open else value > hi):
        raise ConfigInvalid(f"{path}{key}", f"must be {'<' if hi_open else '<='} {hi}")
    return value


def _int(section, key, path, default, *, lo=None, hi=None):
    value = section.pop(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigInvalid(f"{path}{key}", "expected an integer")
    if lo is not None and value < lo:
        raise ConfigInvalid(f"{path}{key}", f"must be >= {lo}")
    if hi is not None and value > hi:
        raise ConfigInvalid(f"{path}{key}", f"must be <= {hi}")
    return value


def _parse_channel(data) -> ChannelConfig:
    section = _require_map(data, "channel")
    cfg = ChannelConfig(
        loss_rate=_num(section, "loss_rate", "channel.", 0.005, lo=0.0, hi=1.0),
        corruption_rate=_num(
            section, "corruption_rate", "channel.", 0.0, lo=0.0, hi=1.0
        ),
    )
    _reject_unknown(section, "channel")
    return cfg


def _parse_buffer(data) -> BufferConfig:
    section = _require_map(data, "buffer")
    cfg = BufferConfig(
        slots=_int(section, "slots", "buffer.", 2, lo=1),
        timeout=_num(section, "timeout", "buffer.", 10.0, lo=0.0, lo_open=True),
    )
    _reject_unknown(section, "buffer")
    return cfg


def _parse_trust(data) -> TrustConfig:
    section = _require_map(data, "trust")
    cfg = TrustConfig(
        forgetting_factor=_num(
            section, "lambda", "trust.", 0.9, lo=0.0, hi=1.0, lo_open=True, hi_open=True
        ),
        threshold=_num(section, "theta", "trust.", 0.3, lo=0.0, hi=1.0, lo_open=True, hi_open=True),
        anomaly_threshold=_num(section, "anomaly_threshold", "trust.", 2.0, lo=0.0, lo_open=True),
        history_alpha=_num(section, "history_alpha", "trust.", 0.2, lo=0.0, hi=1.0, hi_open=True),
        block_duration=_num(section, "block_duration", "trust.", 60.0, lo=0.0, lo_open=True),
        initial_score=_num(section, "initial_score", "trust.", 0.5, lo=0.0, hi=1.0),
    )
    _reject_unknown(section, "trust")
    return cfg


def _parse_traffic(data) -> TrafficConfig:
    section = _require_map(data, "traffic")
    cfg = TrafficConfig(
        payload_bytes=_int(section, "payload_bytes", "traffic.", 288, lo=1, hi=2047),
        send_interval=_num(section, "send_interval", "traffic.", 90.0, lo=0.0, lo_open=True),
        phase_base=_num(section, "phase_base", "traffic.", 50.0, lo=0.0),
        phase_step=_num(section, "phase_step", "traffic.", 11.25, lo=0.0),
        pacing=_num(section, "pacing", "traffic.", 0.1, lo=0.0),
    )
    _reject_unknown(section, "traffic")
    return cfg


_ATTACK_INT_FIELDS = (
    "salvo_size", "late_orphans", "replay_pool", "warmup_bytes", "forged_size", "flood_bytes",
)
# datagram sizes: the header's size field is 11 bits wide, and a warmup
# datagram goes out as one first fragment, so it must fit one frame
_ATTACK_SIZE_CAPS = {
    "warmup_bytes": MAX_FRAGMENT_PAYLOAD,
    "forged_size": MAX_DATAGRAM_SIZE,
    "flood_bytes": MAX_DATAGRAM_SIZE,
}
_ATTACK_NUMBER_FIELDS = {
    f.name: f.default
    for f in fields(AttackSpec)
    if f.name not in ("kind", "attacker") + _ATTACK_INT_FIELDS
}
# the builders step their clocks by these; zero would never advance
_ATTACK_POSITIVE_FIELDS = ("warmup_interval", "flood_interval", "replay_interval", "burst_rate")


def _parse_attack(data, senders: int) -> AttackSpec | None:
    section = _require_map(data, "attack")
    kind = section.pop("kind", "none")
    if kind in (None, "none"):
        _reject_unknown(section, "attack")
        return None
    if kind not in ATTACK_KINDS:
        raise ConfigInvalid(
            "attack.kind", f"must be one of none, {', '.join(ATTACK_KINDS)}"
        )
    kwargs = {"kind": kind}
    kwargs["attacker"] = _int(section, "attacker", "attack.", senders + 1, lo=1)
    for name in _ATTACK_INT_FIELDS:
        default = next(f.default for f in fields(AttackSpec) if f.name == name)
        hi = _ATTACK_SIZE_CAPS.get(name)
        kwargs[name] = _int(section, name, "attack.", default, lo=1, hi=hi)
    for name, default in _ATTACK_NUMBER_FIELDS.items():
        positive = name in _ATTACK_POSITIVE_FIELDS
        kwargs[name] = _num(section, name, "attack.", default, lo=0.0, lo_open=positive)
    _reject_unknown(section, "attack")
    if kind == "late_phase" and kwargs["forged_size"] <= MAX_FRAGMENT_PAYLOAD:
        # every orphan sits at offset MAX_FRAGMENT_PAYLOAD, which must fall inside the datagram
        raise ConfigInvalid(
            "attack.forged_size", f"must be > {MAX_FRAGMENT_PAYLOAD} for late_phase"
        )
    return AttackSpec(**kwargs)


def parse_config(data, *, default_name: str = "scenario") -> ScenarioConfig:
    """Validate a deserialized scenario mapping into a ScenarioConfig."""
    top = _require_map(data, "config")
    name = top.pop("name", default_name)
    if not isinstance(name, str) or not name:
        raise ConfigInvalid("name", "expected a non-empty string")
    stack = top.pop("stack", None)
    if stack not in STACKS:
        raise ConfigInvalid("stack", f"must be one of {', '.join(STACKS)}")
    duration = _num(top, "duration", "", 1800.0, lo=0.0)
    senders = _int(top, "senders", "", 8, lo=1)
    key = top.pop("key", "shared-group-key")
    if not isinstance(key, str) or not key:
        raise ConfigInvalid("key", "expected a non-empty string")
    cfg = ScenarioConfig(
        name=name,
        stack=stack,
        duration=duration,
        senders=senders,
        key=key.encode(),
        channel=_parse_channel(top.pop("channel", None)),
        buffer=_parse_buffer(top.pop("buffer", None)),
        trust=_parse_trust(top.pop("trust", None)),
        traffic=_parse_traffic(top.pop("traffic", None)),
        attack=_parse_attack(top.pop("attack", None), senders=senders),
    )
    _reject_unknown(top, "")
    if cfg.attack is not None and cfg.attack.attacker <= cfg.senders:
        raise ConfigInvalid("attack.attacker", "collides with a sender id")
    return cfg


def load_config(path) -> ScenarioConfig:
    """Read and validate one scenario file. IO errors propagate to the caller."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigInvalid("(file)", f"not valid YAML: {exc}") from exc
    name = str(path).rsplit("/", 1)[-1].removesuffix(".yaml").removesuffix(".yml")
    return parse_config(data, default_name=name)
