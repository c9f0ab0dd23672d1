"""Per-run metrics and cross-seed aggregation.

Turns the raw event records of one simulation run into the numbers the
evaluation cares about: delivery ratio, collateral drop rates, attack
suppression and identification latency, false blocks, and node power.
A suppression latency is only reported when the run ends with the
attacker fully gated; a stack that merely degrades under attack gets
None, which aggregation folds into a detection rate.

A run's frame records are columns (simulator.FrameRecords) sorted by
time, one disposition code per frame, so the reductions here count and
search those codes in bulk and never build a record.
"""

from __future__ import annotations

import json
import statistics
from bisect import bisect_left
from dataclasses import dataclass, fields

from .reassembly import GATE_REASONS
from .simulator import (
    DISPOSITION_MASK,
    DISPOSITIONS,
    HOSTILE,
    PREFILTERED,
    FrameRecords,
    RunResult,
)

# Terminal per-fragment dispositions a finished run may contain.
GATE_DISPOSITIONS = frozenset(r.value for r in GATE_REASONS)
DROP_DISPOSITIONS = GATE_DISPOSITIONS | {
    "duplicate",
    "buffer_full",
    "no_session",
    "timeout",
}
FINAL_DISPOSITIONS = DROP_DISPOSITIONS | {"delivered", "buffered"}


def compute_pdr(sent: int, delivered: int) -> float:
    """Packet delivery ratio in percent. An idle network delivers everything."""
    if sent == 0:
        return 100.0
    return 100.0 * delivered / sent


# Every code a record can hold, and each hostile one's class for
# detection_latency: _GATED if a security gate rejected it, else _OPEN.
_CODES = tuple(d | origin | flag for d in range(len(DISPOSITIONS))
               for origin in (0, HOSTILE) for flag in (0, PREFILTERED))
_GATED, _OPEN = 1, 2
_HOSTILE_CLASS = bytearray(256)
for _code in _CODES:
    if _code & HOSTILE:
        _HOSTILE_CLASS[_code] = (
            _GATED if DISPOSITIONS[_code & DISPOSITION_MASK] in GATE_DISPOSITIONS else _OPEN)


def detection_latency(records: FrameRecords, attack_start: float) -> float | None:
    """Time from first hostile arrival until the last non-gated one.

    Takes the hostile arrivals from the attack onset onward, in time
    order, and finds the earliest point after which every arrival was
    rejected by a security gate.  Returns the gap between the first
    arrival and that point, 0.0 when nothing ever got through, and None
    when the run ended with hostile traffic still being admitted (or
    when the attacker never transmitted after the onset).  It searches
    the codes, so it never builds a record.
    """
    hostile = records.codes.translate(_HOSTILE_CLASS)
    start = bisect_left(records.times, attack_start)
    found = [k for k in (hostile.find(_GATED, start), hostile.find(_OPEN, start)) if k >= 0]
    if not found:
        return None
    last_open = hostile.rfind(_OPEN, start)
    if last_open < 0:
        return 0.0
    suffix = hostile.find(_GATED, last_open + 1)
    return None if suffix < 0 else records.times[suffix] - records.times[min(found)]


@dataclass
class RunMetrics:
    """Flat summary of one simulation run."""

    name: str
    stack: str
    seed: int
    attack_kind: str | None
    duration: float
    sent_datagrams: int
    delivered_datagrams: int
    pdr: float
    received_fragments: int
    legit_fragments: int
    legit_drops: int
    legit_drop_rate: float
    legit_drops_by_reason: dict[str, int]
    attacker_fragments: int
    attacker_drops: int
    attacker_drops_by_reason: dict[str, int]
    attacker_delivered_datagrams: int
    detection_latency_s: float | None
    identification_latency_s: float | None
    false_blocks: int
    false_block_rate: float
    avg_power_mw: float
    root_power_mw: float
    attacker_power_mw: float | None
    mean_availability: float
    max_occupancy: int
    conservation_ok: bool

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def collect(result: RunResult) -> RunMetrics:
    """Reduce one run's records to a RunMetrics, counting each code once."""
    attacker = result.attacker
    attack_start = result.attack_start
    codes = result.records.codes
    legit_drops: dict[str, int] = {}
    hostile_drops: dict[str, int] = {}
    n_hostile = stray = 0
    for code in _CODES:
        count = codes.count(code)
        if not count:
            continue
        if code & HOSTILE:
            n_hostile += count
            drops = hostile_drops
        else:
            drops = legit_drops
        disposition = DISPOSITIONS[code & DISPOSITION_MASK]
        if disposition in DROP_DISPOSITIONS:
            drops[disposition] = drops.get(disposition, 0) + count
        elif disposition not in FINAL_DISPOSITIONS:
            stray += count
    n_legit = len(codes) - n_hostile

    sent = sum(result.sent_datagrams.values())
    delivered = attacker_delivered = 0
    for d in result.delivered:
        if d.origin == attacker:
            attacker_delivered += 1
        elif d.intact:
            delivered += 1

    n_legit_drops = sum(legit_drops.values())
    n_hostile_drops = sum(hostile_drops.values())

    if attacker is not None and attack_start is not None:
        det = detection_latency(result.records, attack_start)
        ident = (
            result.identified_at - attack_start
            if result.identified_at is not None
            else None
        )
    else:
        det = None
        ident = None

    false_blocks = sum(
        count for node, count in result.block_events.items() if node != attacker
    )

    non_attacker_power = [
        p for node, p in result.node_power_mw.items() if node != attacker
    ]

    return RunMetrics(
        name=result.name,
        stack=result.stack,
        seed=result.seed,
        attack_kind=result.attack_kind,
        duration=result.duration,
        sent_datagrams=sent,
        delivered_datagrams=delivered,
        pdr=compute_pdr(sent, delivered),
        received_fragments=len(result.records),
        legit_fragments=n_legit,
        legit_drops=n_legit_drops,
        legit_drop_rate=100.0 * n_legit_drops / n_legit if n_legit else 0.0,
        legit_drops_by_reason=dict(sorted(legit_drops.items())),
        attacker_fragments=n_hostile,
        attacker_drops=n_hostile_drops,
        attacker_drops_by_reason=dict(sorted(hostile_drops.items())),
        attacker_delivered_datagrams=attacker_delivered,
        detection_latency_s=det,
        identification_latency_s=ident,
        false_blocks=false_blocks,
        false_block_rate=100.0 * false_blocks / sent if sent else 0.0,
        avg_power_mw=statistics.fmean(non_attacker_power),
        root_power_mw=result.node_power_mw[0],
        attacker_power_mw=(
            result.node_power_mw[attacker] if attacker is not None else None
        ),
        mean_availability=result.mean_availability,
        max_occupancy=result.max_occupancy,
        conservation_ok=stray == 0,
    )


# Fields aggregated numerically across seeds. Latencies are handled
# separately because individual runs may have None there.
_NUMERIC_FIELDS = (
    "pdr",
    "sent_datagrams",
    "delivered_datagrams",
    "legit_drop_rate",
    "false_blocks",
    "false_block_rate",
    "avg_power_mw",
    "root_power_mw",
    "mean_availability",
    "max_occupancy",
)
_LATENCY_FIELDS = ("detection_latency_s", "identification_latency_s")


def _stats(values: list[float]) -> dict[str, float]:
    return {
        "mean": statistics.fmean(values),
        "stdev": statistics.stdev(values) if len(values) > 1 else 0.0,
        "min": min(values),
        "max": max(values),
        "median": statistics.median(values),
    }


def aggregate(runs: list[RunMetrics]) -> dict:
    """Cross-seed summary statistics for one scenario.

    Latency fields additionally report a rate: the fraction of runs in
    which the stack actually reached that state.
    """
    if not runs:
        raise ValueError("nothing to aggregate: no runs given")
    out: dict = {
        "name": runs[0].name,
        "stack": runs[0].stack,
        "attack_kind": runs[0].attack_kind,
        "runs": len(runs),
        "seeds": [m.seed for m in runs],
    }
    for field_name in _NUMERIC_FIELDS:
        out[field_name] = _stats([float(getattr(m, field_name)) for m in runs])
    for field_name in _LATENCY_FIELDS:
        present = [getattr(m, field_name) for m in runs]
        known = [v for v in present if v is not None]
        rate_key = field_name.replace("_latency_s", "_rate")
        out[rate_key] = len(known) / len(runs)
        out[field_name] = _stats(known) if known else None
    out["conservation_ok"] = all(m.conservation_ok for m in runs)
    return out


def render_table(rows: list[dict], columns: list[str]) -> str:
    """Left-aligned plain-text table of preformatted row dicts."""
    cells = [[str(row.get(c, "")) for c in columns] for row in rows]
    widths = [
        max(len(col), *(len(r[i]) for r in cells)) if cells else len(col)
        for i, col in enumerate(columns)
    ]
    lines = [
        "  ".join(col.ljust(w) for col, w in zip(columns, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for r in cells:
        lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)))
    return "\n".join(line.rstrip() for line in lines)
