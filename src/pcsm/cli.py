"""Command-line front end: seeded scenario runs and report tables.

Subcommands:
    run          execute one scenario config across seeds
    matrix       run a directory of configs and tabulate stack x attack
    sensitivity  sweep trust parameters over a fixed grid
    analytic     print the closed-form buffer and blacklist numbers
    vectors      dump wire-format and signature-chain test vectors

Exit codes: 0 success, 2 invalid configuration, 3 filesystem failure.
All artifacts are plain JSON lines or JSON, written with sorted keys so
identical inputs rebuild identical bytes.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .analytic import (
    BufferModelParams,
    buffer_availability_model,
    occupancy_standard,
    steps_to_blacklist,
)
from .attacks import ATTACK_KINDS
from .config import (
    SENSITIVITY_LAMBDAS,
    SENSITIVITY_THETAS,
    STACKS,
    BufferConfig,
    ConfigInvalid,
    load_config,
)
from .frag_codec import ExtensionFields, FragmentHeader, FragmentKind, encode_header
from .hash_chain import reference_vectors
from .metrics import RunMetrics, aggregate, collect, render_table
from .simulator import legit_traffic, plan_arrivals, simulate, traffic_world, world
from .trust_engine import TrustParams

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3

# Named cells of the sensitivity grid, most to least trigger-happy.
SENSITIVITY_LABELS = {
    (0.7, 0.2): "aggressive",
    (0.9, 0.3): "default",
    (0.95, 0.4): "conservative",
}


def _seeds(args) -> list[int]:
    return list(range(args.seed, args.seed + args.seed_count))


def _fmt(value, digits=2) -> str:
    if value is None:
        return "-"
    return f"{value:.{digits}f}"


def _out_dir(args) -> Path:
    path = Path(args.out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_text(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8")


def _sweep(cfgs, seeds, keep=None, trace=False) -> list[list]:
    """keep(simulate(cfg, seed)) for every config and seed, one list per config.

    Seed-outer: the configs that share a traffic world share one legit
    traffic per seed, and those that share a world one arrival plan over
    it (see simulator.traffic_world and world); each is dropped once its
    configs have run, and each RunResult once keep (default collect) has
    read it.
    """
    keep = collect if keep is None else keep
    groups: dict[tuple, dict[tuple, list[int]]] = {}
    for i, cfg in enumerate(cfgs):
        groups.setdefault(traffic_world(cfg), {}).setdefault(world(cfg), []).append(i)
    kept: list[list] = [[] for _ in cfgs]
    for seed in seeds:
        for worlds in groups.values():
            traffic = None
            for members in worlds.values():
                first = cfgs[members[0]]
                if traffic is None:
                    traffic = legit_traffic(first, seed)
                plan = plan_arrivals(first, seed, traffic)
                for i in members:
                    kept[i].append(keep(simulate(cfgs[i], seed, trace=trace, plan=plan)))
                del plan  # freed before the next one is built
            del traffic
    return kept


def _trace_lines(result) -> list[str]:
    lines = []
    for rec in result.records:
        lines.append(
            json.dumps(
                {
                    "type": "frame",
                    "seed": result.seed,
                    "time": rec.time,
                    "source": rec.source,
                    "origin": rec.origin,
                    "kind": rec.kind.name.lower(),
                    "disposition": rec.disposition,
                    "prefiltered": rec.prefiltered,
                },
                sort_keys=True,
            )
        )
    for when, node, score in result.trust_history or []:
        lines.append(
            json.dumps(
                {"type": "trust", "seed": result.seed, "time": when,
                 "node": node, "score": score},
                sort_keys=True,
            )
        )
    return lines


def _per_seed_rows(metrics: list[RunMetrics]) -> list[dict]:
    return [
        {
            "seed": m.seed,
            "pdr": _fmt(m.pdr),
            "drop_rate": _fmt(m.legit_drop_rate),
            "detect_s": _fmt(m.detection_latency_s, 3),
            "identify_s": _fmt(m.identification_latency_s, 3),
            "false_blocks": m.false_blocks,
            "power_mw": _fmt(m.avg_power_mw, 4),
        }
        for m in metrics
    ]


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    out = _out_dir(args)
    trace_lines: list[str] = []

    def keep(result):
        if args.trace:
            trace_lines.extend(_trace_lines(result))
        return collect(result)

    [metrics] = _sweep([cfg], _seeds(args), keep=keep, trace=args.trace)

    runs_path = out / f"{cfg.name}.runs.jsonl"
    _write_text(runs_path, "".join(m.to_json() + "\n" for m in metrics))
    summary = aggregate(metrics)
    summary_path = out / f"{cfg.name}.summary.json"
    _write_text(summary_path, json.dumps(summary, sort_keys=True, indent=2) + "\n")
    if args.trace:
        trace_path = out / f"{cfg.name}.trace.jsonl"
        _write_text(trace_path, "".join(line + "\n" for line in trace_lines))

    print(f"scenario {cfg.name} stack={cfg.stack} "
          f"attack={cfg.attack.kind if cfg.attack else 'none'} "
          f"seeds={args.seed}..{args.seed + args.seed_count - 1}")
    print(render_table(_per_seed_rows(metrics),
                       ["seed", "pdr", "drop_rate", "detect_s", "identify_s",
                        "false_blocks", "power_mw"]))
    pdr = summary["pdr"]
    print(f"mean PDR {pdr['mean']:.2f}% (stdev {pdr['stdev']:.2f}), "
          f"detection rate {summary['detection_rate']:.2f}, "
          f"records in {runs_path}")
    return EXIT_OK


def _write_grid(out: Path, stem: str, aggs: list[dict], rows: list[dict]) -> int:
    """stem.jsonl, one aggregate per line, and stem.txt, the table of rows, also printed."""
    _write_text(out / f"{stem}.jsonl", "".join(json.dumps(a, sort_keys=True) + "\n" for a in aggs))
    table = render_table(rows, list(rows[0]))
    _write_text(out / f"{stem}.txt", table + "\n")
    print(table)
    return EXIT_OK


_scenario_key = (("none",) + ATTACK_KINDS).index  # a matrix row's place in the report


def cmd_matrix(args) -> int:
    config_dir = Path(args.config_dir)
    files = sorted(config_dir.glob("*.yaml")) + sorted(config_dir.glob("*.yml"))
    if not files:
        raise ConfigInvalid("(dir)", f"no scenario configs in {config_dir}")
    configs = [load_config(f) for f in files]
    out = _out_dir(args)
    seeds = _seeds(args)

    cells = {}
    for cfg in configs:
        kind = cfg.attack.kind if cfg.attack else "none"
        key = (kind, cfg.stack)
        if key in cells:
            print(f"warning: scenario={kind} stack={cfg.stack} defined more "
                  f"than once, keeping {cells[key].name}", file=sys.stderr)
            continue
        cells[key] = cfg
    for kind in sorted({k for k, _ in cells}, key=_scenario_key):
        for stack in STACKS:
            if (kind, stack) not in cells:
                print(f"warning: no config for scenario={kind} stack={stack}, "
                      f"row omitted", file=sys.stderr)

    order = sorted(cells, key=lambda c: (_scenario_key(c[0]), STACKS.index(c[1])))
    aggs = [aggregate(metrics) for metrics in _sweep([cells[c] for c in order], seeds)]
    rows = [{"scenario": kind, "stack": stack, "pdr": _fmt(agg["pdr"]["mean"]),
             "drop_rate": _fmt(agg["legit_drop_rate"]["mean"]),
             "detect_s": _fmt((agg["detection_latency_s"] or {}).get("median"), 3),
             "power_mw": _fmt(agg["avg_power_mw"]["mean"], 4)}
            for (kind, stack), agg in zip(order, aggs)]
    return _write_grid(out, "matrix", aggs, rows)


def cmd_sensitivity(args) -> int:
    cfg = load_config(args.config)
    if cfg.attack is None:
        raise ConfigInvalid("attack.kind", "sensitivity sweep needs an attack scenario")
    out = _out_dir(args)
    seeds = _seeds(args)

    grid = [(lam, theta) for lam in SENSITIVITY_LAMBDAS for theta in SENSITIVITY_THETAS]
    cells = [
        dataclasses.replace(
            cfg,
            name=f"{cfg.name}-f{lam}-t{theta}",
            trust=dataclasses.replace(cfg.trust, forgetting_factor=lam, threshold=theta),
        )
        for lam, theta in grid
    ]
    aggs = [{**aggregate(metrics), "forgetting_factor": lam, "threshold": theta,
             "label": SENSITIVITY_LABELS.get((lam, theta), "")}
            for (lam, theta), metrics in zip(grid, _sweep(cells, seeds))]
    rows = [{"lambda": agg["forgetting_factor"], "theta": agg["threshold"], "label": agg["label"],
             "identify_s": _fmt((agg["identification_latency_s"] or {}).get("mean"), 3),
             "false_blocks_per_100": _fmt(agg["false_block_rate"]["mean"], 3),
             "pdr": _fmt(agg["pdr"]["mean"])} for agg in aggs]
    return _write_grid(out, "sensitivity", aggs, rows)


def cmd_analytic(args) -> int:
    params = BufferModelParams(
        legit_rate=args.legit_rate,
        attack_rate=args.attack_rate,
        slots=args.slots,
        timeout=args.timeout,
    )
    rho, avail = buffer_availability_model(params)
    occ = occupancy_standard(params)
    steps = steps_to_blacklist(args.trust_start, args.forgetting, args.threshold)
    print(f"contention_ratio      {rho:.6f}")
    print(f"availability_primary  {avail:.6f}")
    print(f"occupancy_standard    {occ:.6f}")
    print(f"availability_standard {1.0 - occ:.6f}")
    print(f"blacklist_steps       {steps}  "
          f"(start {args.trust_start}, forgetting {args.forgetting}, "
          f"threshold {args.threshold})")
    return EXIT_OK


def _frame_vectors() -> list[dict]:
    cases = [
        ("frag1_base", FragmentHeader(FragmentKind.FRAG1, 200, 7)),
        ("fragn_base", FragmentHeader(FragmentKind.FRAGN, 200, 7, 12)),
        (
            "frag1_extended",
            FragmentHeader(
                FragmentKind.FRAG1, 200, 7, 0,
                ExtensionFields(128, bytes.fromhex("01020304"),
                                bytes.fromhex("1122334455667788")),
            ),
        ),
        (
            "fragn_extended",
            FragmentHeader(
                FragmentKind.FRAGN, 200, 7, 24,
                ExtensionFields(255, b"", bytes.fromhex("1122334455667788")),
            ),
        ),
    ]
    return [
        {
            "name": name,
            "kind": h.kind.name.lower(),
            "datagram_size": h.datagram_size,
            "datagram_tag": h.datagram_tag,
            "datagram_offset": h.datagram_offset,
            "encoded": encode_header(h).hex(),
        }
        for name, h in cases
    ]


def cmd_vectors(args) -> int:
    doc = {
        "frame_headers": _frame_vectors(),
        "signature_chains": reference_vectors(),
    }
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if args.out:
        path = Path(args.out)
        if path.parent != Path():
            path.parent.mkdir(parents=True, exist_ok=True)
        _write_text(path, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _seed_count(text: str) -> int:
    try:
        count = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {count}")
    return count


def _add_seed_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=1, help="base seed (default 1)")
    p.add_argument("--seed-count", type=_seed_count, default=15,
                   help="number of consecutive seeds (default 15)")
    p.add_argument("--out", default="results",
                   help="directory for result files (default ./results)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcsm",
        description="Fragment-security protocol simulator and report generator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one scenario config")
    p_run.add_argument("config", help="path to a scenario YAML file")
    _add_seed_flags(p_run)
    p_run.add_argument("--trace", action="store_true",
                       help="also write per-frame and trust-score traces")
    p_run.set_defaults(func=cmd_run)

    p_matrix = sub.add_parser("matrix", help="run every config in a directory")
    p_matrix.add_argument("config_dir", help="directory of scenario YAML files")
    _add_seed_flags(p_matrix)
    p_matrix.set_defaults(func=cmd_matrix)

    p_sens = sub.add_parser("sensitivity",
                            help="sweep trust parameters on one attack config")
    p_sens.add_argument("config", help="base scenario YAML (must define an attack)")
    _add_seed_flags(p_sens)
    p_sens.set_defaults(func=cmd_sensitivity)

    p_ana = sub.add_parser("analytic", help="print closed-form model numbers")
    p_ana.add_argument("--legit-rate", type=float, default=24.0 / 90.0,
                       help="legitimate fragment arrivals per second")
    p_ana.add_argument("--attack-rate", type=float, default=0.0,
                       help="hostile fragment arrivals per second")
    p_ana.add_argument("--slots", type=int, default=BufferConfig.slots)
    p_ana.add_argument("--timeout", type=float, default=BufferConfig.timeout)
    p_ana.add_argument("--trust-start", type=float, default=0.8)
    p_ana.add_argument("--forgetting", type=float, default=TrustParams.forgetting_factor)
    p_ana.add_argument("--threshold", type=float, default=TrustParams.threshold)
    p_ana.set_defaults(func=cmd_analytic)

    p_vec = sub.add_parser("vectors", help="dump golden test vectors as JSON")
    p_vec.add_argument("--out", default=None, help="write to a file instead of stdout")
    p_vec.set_defaults(func=cmd_vectors)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
