"""Scenario configuration: YAML schema, validation, bundled defaults.

A scenario file describes one simulated deployment: the receiver stack
variant, legitimate traffic shape, channel impairments, buffer and
trust parameters, and an optional attack. Validation failures raise
ConfigInvalid carrying the dotted path of the offending field
(for example ``trust.theta``), which the command line surfaces
verbatim before exiting.
"""

from __future__ import annotations

import sys
from dataclasses import Field, dataclass, field, fields, replace

import yaml

from . import baselines
from .attacks import KINDS, AttackSpec
from .frag_codec import MAX_DATAGRAM_SIZE, MAX_FRAGMENT_PAYLOAD
from .trust_engine import TrustParams

STACKS = tuple(baselines.STACKS)  # names in report order
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)  # libyaml's, where PyYAML has it

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
    trust: TrustParams = field(default_factory=TrustParams)
    traffic: TrafficConfig = field(default_factory=TrafficConfig)
    attack: AttackSpec | None = None


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
    # NaN fails every bound test, inf passes a one-sided one, a huge int overflows float()
    if not abs(value) <= sys.float_info.max:
        raise ConfigInvalid(f"{path}{key}", "must be a finite number")
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


# A run holds its whole plan at once, so a config may plan at most this many arrivals.
MAX_PLANNED_ARRIVALS = 10**7
# Bounds per field, shared by every section; a field not listed takes
# the lower bound of its type, 1 for an integer and 0.0 for a number.
_UNIT = {"lo": 0.0, "hi": 1.0}
_OPEN_UNIT = {"lo": 0.0, "hi": 1.0, "lo_open": True, "hi_open": True}
_POSITIVE = {"lo": 0.0, "lo_open": True}
_BOUNDS = {
    "loss_rate": _UNIT,
    "corruption_rate": _UNIT,
    "timeout": _POSITIVE,
    "forgetting_factor": _OPEN_UNIT,
    "threshold": _OPEN_UNIT,
    "anomaly_threshold": _POSITIVE,
    "history_alpha": {"lo": 0.0, "hi": 1.0, "hi_open": True},
    "block_duration": _POSITIVE,
    "initial_score": _UNIT,
    "send_interval": _POSITIVE,
    # baselines.fragment_mac packs the source as a signed 32-bit field
    "attacker": {"hi": 2**31 - 1},
    # datagram sizes: the header's size field is 11 bits wide, and a warmup
    # datagram goes out as one first fragment, so it must fit one frame
    "payload_bytes": {"hi": MAX_DATAGRAM_SIZE},
    "forged_size": {"hi": MAX_DATAGRAM_SIZE},
    "flood_bytes": {"hi": MAX_DATAGRAM_SIZE},
    "warmup_bytes": {"hi": MAX_FRAGMENT_PAYLOAD},
    # the attack builders step their clocks by these; zero would never advance
    "warmup_interval": _POSITIVE,
    "flood_interval": _POSITIVE,
    "replay_interval": _POSITIVE,
    "burst_rate": _POSITIVE,
    # each alone can plan as many arrivals; see planned_arrivals
    **dict.fromkeys(("senders", "salvo_size", "late_orphans"), {"hi": MAX_PLANNED_ARRIVALS}),
}
# YAML keys that differ from the field they set
_YAML_KEYS = {"forgetting_factor": "lambda", "threshold": "theta"}
_TOP_FIELDS = {f.name: f for f in fields(ScenarioConfig)}


def _parse_field(section: dict, f: Field, prefix: str):
    """Pop one field's YAML key from section, defaulting and bounding it per f."""
    parse, lo = (_int, 1) if f.type == "int" else (_num, 0.0)
    key = _YAML_KEYS.get(f.name, f.name)
    return parse(section, key, prefix, f.default, **{"lo": lo, **_BOUNDS.get(f.name, {})})


def _parse_section(cls, data, path: str, **given):
    """Build cls from one YAML mapping; fields in given are taken as they are."""
    section = _require_map(data, path)
    values = {
        f.name: _parse_field(section, f, path + ".") for f in fields(cls) if f.name not in given
    }
    _reject_unknown(section, path)
    return cls(**given, **values)


def _parse_attack(data, senders: int) -> AttackSpec | None:
    section = _require_map(data, "attack")
    kind = section.pop("kind", "none")
    if kind in (None, "none"):
        _reject_unknown(section, "attack")
        return None
    if kind not in KINDS:
        raise ConfigInvalid("attack.kind", f"must be one of none, {', '.join(KINDS)}")
    # the attacker takes the first id past the senders unless told otherwise
    section.setdefault("attacker", senders + 1)
    spec = _parse_section(AttackSpec, section, "attack", kind=kind)
    problem = KINDS[kind].check(spec)  # None, or (field, problem)
    if problem:
        raise ConfigInvalid("attack." + problem[0], problem[1])
    return spec


# the fields that size a plan, in the order a tie names them
_PLAN_FIELDS = ("duration", "senders", "traffic.send_interval", "traffic.payload_bytes") + tuple(
    "attack." + name for name in ("start", "warmup_start", "warmup_interval", "salvo_size",
                                  "flood_interval", "flood_bytes", "replay_interval",
                                  "burst_rate", "late_orphans"))


def planned_arrivals(cfg: ScenarioConfig) -> float:
    """At least the frames cfg's plan builds: each sender counts one send more than fits."""
    tr, a = cfg.traffic, cfg.attack
    sends = cfg.senders * (cfg.duration / tr.send_interval + 1)
    legit = sends * -(-tr.payload_bytes // MAX_FRAGMENT_PAYLOAD)
    if a is None:
        return legit
    kind = KINDS[a.kind]
    hostile = kind.planned(a, sends, max(cfg.duration - a.start, 0.0))
    if kind.warmup:
        hostile += max(min(a.start, cfg.duration) - a.warmup_start, 0.0) / a.warmup_interval + 1
    return legit + hostile


def _with_default(cfg: ScenarioConfig, path: str) -> ScenarioConfig:
    section, _, name = path.rpartition(".")
    part = getattr(cfg, section) if section else cfg
    changed = replace(part, **{name: next(f.default for f in fields(part) if f.name == name)})
    return replace(cfg, **{section: changed}) if section else changed


def parse_config(data, *, default_name: str = "scenario") -> ScenarioConfig:
    """Validate a deserialized scenario mapping into a ScenarioConfig."""
    top = _require_map(data, "config")
    name = top.pop("name", default_name)
    if not isinstance(name, str) or not name:
        raise ConfigInvalid("name", "expected a non-empty string")
    if any(c in name for c in "/\\\0"):  # it names files, which must stay inside --out
        raise ConfigInvalid("name", "must not contain '/', '\\' or NUL")
    stack = top.pop("stack", None)
    if stack not in STACKS:
        raise ConfigInvalid("stack", f"must be one of {', '.join(STACKS)}")
    duration = _parse_field(top, _TOP_FIELDS["duration"], "")
    senders = _parse_field(top, _TOP_FIELDS["senders"], "")
    key = top.pop("key", ScenarioConfig.key.decode())
    if not isinstance(key, str) or not key:
        raise ConfigInvalid("key", "expected a non-empty string")
    cfg = ScenarioConfig(
        name=name,
        stack=stack,
        duration=duration,
        senders=senders,
        key=key.encode(),
        channel=_parse_section(ChannelConfig, top.pop("channel", None), "channel"),
        buffer=_parse_section(BufferConfig, top.pop("buffer", None), "buffer"),
        trust=_parse_section(TrustParams, top.pop("trust", None), "trust"),
        traffic=_parse_section(TrafficConfig, top.pop("traffic", None), "traffic"),
        attack=_parse_attack(top.pop("attack", None), senders=senders),
    )
    _reject_unknown(top, "")
    if cfg.attack is not None and cfg.attack.attacker <= cfg.senders:
        raise ConfigInvalid("attack.attacker", "collides with a sender id")
    planned = planned_arrivals(cfg)
    if planned > MAX_PLANNED_ARRIVALS:
        # named: the field whose default would shrink the plan most
        path = min((p for p in _PLAN_FIELDS if cfg.attack or not p.startswith("attack.")),
                   key=lambda p: planned_arrivals(_with_default(cfg, p)))
        raise ConfigInvalid(path, f"plans about {planned:.3g} arrivals, "
                                  f"more than the {MAX_PLANNED_ARRIVALS:.0e} a run may hold")
    return cfg


def load_config(path) -> ScenarioConfig:
    """Read and validate one scenario file. IO errors propagate to the caller."""
    # bytes, so the YAML reader detects the encoding and rejects bad input itself
    with open(path, "rb") as fh:
        try:
            data = yaml.load(fh, Loader=_LOADER)
        except yaml.YAMLError as exc:
            raise ConfigInvalid("(file)", f"not valid YAML: {exc}") from exc
    name = str(path).rsplit("/", 1)[-1].removesuffix(".yaml").removesuffix(".yml")
    return parse_config(data, default_name=name)
