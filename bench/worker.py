"""Runs one workload in a fresh process and prints its figures as one JSON line.

Started by ``run.py`` from the repository root, with the arguments it
was given.  Untraced sweeps repeat for ``--seconds`` (at least
``MIN_SWEEPS`` of them), timed raw and scaled to a reference host
speed sampled as they go (see ``calibration.py``), and medians are
reported.  With ``--trace 1`` each is followed by a traced sweep of the
same seed, so both see the same machine noise.  Every sweep is checked:
its digest against the golden digest for the seed (or, for a seed with
none stored, against the first sweep of this process), and each op for
conservation or intact delivery.  Single-threaded and single-process.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import tempfile
import threading
import time
from pathlib import Path

MIN_SWEEPS = 3


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    import calibration
    import golden
    import layers
    import workloads
    from spans import Tracer

    name, seed = args.workload, args.seed
    sweep = workloads.SWEEPS[name]
    reference = golden.expected(name, seed)
    golden_state = "match" if reference is not None else "not stored; sweeps compared to the first"

    out_root = root / ".bench_out"
    out_root.mkdir(exist_ok=True)
    probe = workloads.Probe()
    timer = calibration.ScaledTimer()
    probe.boundary = timer.boundary
    tracer = Tracer() if args.trace else None
    untraced, layer_rows, run_samples = [], [], []
    attempted = failed = 0

    def check(result) -> None:
        nonlocal reference, golden_state, attempted, failed
        if reference is None:
            reference = result.digest
        attempted += result.ops
        if result.digest != reference:
            golden_state = "MISMATCH"
            failed += result.ops
        else:
            failed += result.failed

    with tempfile.TemporaryDirectory(dir=out_root) as tmp:
        ctx = workloads.Context(root, Path(tmp), probe,
                                workloads.wire_inputs(seed) if name == "wire" else [])
        workloads.warm_up(name, ctx, seed)
        window_start = time.perf_counter()
        cycles = []
        while True:
            cycle_start = time.perf_counter()
            timer.start()
            result = sweep(ctx, seed)
            timer.stop()
            untraced.append((timer.raw, timer.scaled, result))
            check(result)
            if tracer is not None:
                tracer.reset()
                patches = layers.install(tracer)
                try:
                    start = time.perf_counter()
                    result = tracer.span(layers.ROOT_SPAN, sweep, ctx, seed)
                    wall = time.perf_counter() - start
                finally:
                    layers.uninstall(patches)
                check(result)
                layer_rows.append(layers.sweep_metrics(tracer, wall))
                run_samples.extend(tracer.samples.get("simulator.simulate", []))
            now = time.perf_counter()
            cycles.append(now - cycle_start)
            # stop once the next cycle would likely end past the window
            if (len(cycles) >= MIN_SWEEPS
                    and now + statistics.median(cycles) > window_start + args.seconds):
                break
    probe.close()

    walls = [wall for wall, _, _ in untraced]
    ref_walls = [ref for _, ref, _ in untraced]
    usage = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
             + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    report = {
        "attempted": attempted,
        "failed": failed,
        "golden": golden_state,
        "op": workloads.OP_UNITS[name],
        "sweeps": len(untraced),
        "walls": walls,
        "frames": untraced[0][2].frames,
        "wall_s": statistics.median(walls),
        "frames_per_s": statistics.median(r.frames / wall for wall, _, r in untraced),
        "wall_ref_s": statistics.median(ref_walls),
        "frames_per_ref_s": statistics.median(r.frames / ref for ref, (_, _, r)
                                              in zip(ref_walls, untraced)),
        "speed": statistics.median(ref / wall for wall, ref, _ in untraced),
        "peak_rss_mb": usage / 1024.0,
        "threads": threading.active_count(),
    }
    if tracer is not None:
        per_layer = layers.summarize(layer_rows, run_samples, report["wall_s"])
        spans_path = out_root / f"spans-{name}-seed{seed}.jsonl"
        tracer.write(spans_path)
        report["per_layer"] = {k: {"value": v, "unit": layers.unit(k)}
                               for k, v in per_layer.items()}
        report["traced_sweeps"] = len(layer_rows)
        report["spans_file"] = str(spans_path.relative_to(root))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
