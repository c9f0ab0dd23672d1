"""Benchmark of the pcsm simulator and protocol library.

Run from the repository root:

    python3 bench/run.py --workload matrix --seed 1 --seconds 30 --trace 0

It times set-up (a fresh interpreter importing ``pcsm.cli``), then runs
the workload in a fresh single-process worker (``worker.py``) that
repeats the workload's sweep for ``--seconds`` and checks every output.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it repeat
the figures with their units and the machine they were taken on.
Scratch output (CLI ``--out`` directories, span files, result files)
goes to ``.bench_out/`` in the root, never into tracked files.

Workloads, and why each exists:

- ``matrix``: ``pcsm matrix configs/`` over the 24 bundled configs for
  one seed (1800 s simulated each): the paper's main table.  The only
  workload that loads ``baselines`` (vanilla, csm, secupan stacks and
  the per-fragment MAC) and 24 YAML files through ``config``; most of
  its time goes to admission.
- ``sensitivity``: ``pcsm sensitivity configs/sensitivity/base.yaml``
  for one seed: the pcsm stack over the 12 trust cells, 5400 s
  simulated with ``burst_injection``.  About 92% of received frames
  are hostile frames dropped by the prefilter, so it loads
  ``simulator`` (event loop, ticks, frame materialization), ``attacks``,
  the prefilter in ``reassembly``/``trust_engine`` and ``metrics``, and
  barely touches admission.
- ``wire``: the library path with no simulator.  64 well-behaved
  senders x 40 rounds of datagrams generated from the seed; senders
  call ``frag_codec.fragment_packet``, ``hash_chain.sign_fragments`` and
  ``frag_codec.encode_header``, the receiver ``frag_codec.decode_header``
  and ``PredictiveCsmStack.admit``.  The only workload that decodes
  wire bytes; it loads ``hash_chain`` and ``trust_engine.evaluate_frag1``
  and delivers every datagram, so a change that speeds up hostile drops
  by slowing delivery shows here.

``analytic`` is deliberately unmeasured: it is a closed form that
finishes in microseconds.

End-to-end metrics (``--trace 0``):

- ``wall_ref_s``: median host seconds per sweep, each part of a sweep
  scaled to the reference host speed sampled as it runs
  (``calibration.py``).
- ``frames_per_ref_s``: received frames pushed through the receiver
  stack per reference-speed host second, i.e. host cost per simulated
  event, comparable across workloads.
- ``setup_s``: median of 11 fresh interpreters importing ``pcsm.cli``,
  each scaled the same way.
- ``peak_rss_mb``: peak resident memory of the worker plus its children.

The unscaled ``wall_s``, ``frames_per_s`` and ``setup_s`` are printed
beside them; on a shared host they swing by more than any useful bound
between runs, so they are not the gated figures.  ``fail_ratio`` is
printed with its base and reported as ``failed``/``attempted``; it is 0
on a correct tree, so it is not a bounded metric.  ``--trace 1`` runs a
traced sweep after each untraced one and reports per-layer metrics (see
``layers.py``), including the tracing overhead.

Processes: one worker at a time, single-threaded; set-up probes run one
after another.  No sweep uses more processes than ``nproc``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration

SETUP_SAMPLES = 11
WORKER_TIMEOUT_S = 170
WORKLOADS = ("matrix", "sensitivity", "wire")
END_TO_END_UNITS = {"wall_ref_s": "s", "frames_per_ref_s": "1/s", "setup_s": "s",
                    "peak_rss_mb": "MB"}


def measure_setup(root: Path) -> tuple[float, float]:
    """Seconds for a fresh interpreter to start, import ``pcsm.cli`` and exit.

    Returns the median over ``SETUP_SAMPLES`` probes, scaled to the
    reference host speed sampled before each probe, and unscaled.
    """
    cmd = [sys.executable, "-c", "import sys; sys.path.insert(0, 'src'); import pcsm.cli"]
    raw, scaled = [], []
    # the first probe also writes bytecode caches, so it is not counted
    for i in range(SETUP_SAMPLES + 1):
        speed = calibration.REFERENCE_S / calibration.measure()
        start = time.perf_counter()
        # no timeout: with one, subprocess polls the child in sleeps of up to 50 ms
        subprocess.run(cmd, cwd=root, check=True)
        if i:
            raw.append(time.perf_counter() - start)
            scaled.append(raw[-1] * speed)
    return statistics.median(scaled), statistics.median(raw)


def _git_commit(root: Path) -> str:
    # the ceiling keeps git from reporting an enclosing repository's commit
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def _source_digest(root: Path) -> str:
    """sha256 over the package sources and bundled configs, for checkouts without git."""
    h = hashlib.sha256()
    files = sorted((root / "src" / "pcsm").glob("*.py")) + sorted((root / "configs").rglob("*.yaml"))
    for path in files:
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_info(root: Path) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "commit": _git_commit(root),
        "source_sha256": _source_digest(root),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "pcsm" / "cli.py").is_file() or not (root / "configs").is_dir():
        print("bench: run from the repository root (src/pcsm and configs/ not found)",
              file=sys.stderr)
        return 2

    setup_s, setup_raw_s = (None, None) if args.trace else measure_setup(root)
    worker = [sys.executable, str(Path(__file__).with_name("worker.py")),
              "--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(worker, cwd=root, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"bench: worker exceeded {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"bench: worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    report = json.loads(proc.stdout.splitlines()[-1])
    info = machine_info(root)

    if args.trace:
        metrics = report["per_layer"]
    else:
        values = {"wall_ref_s": report["wall_ref_s"],
                  "frames_per_ref_s": report["frames_per_ref_s"],
                  "setup_s": setup_s, "peak_rss_mb": report["peak_rss_mb"]}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

    attempted, failed = report["attempted"], report["failed"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"sweeps {report['sweeps']}  frames/sweep {report['frames']}")
    print("machine  " + "  ".join(f"{k}={v}" for k, v in info.items()))
    print(f"processes  1 worker, {report['threads']} thread(s); nproc {info['nproc']}")
    for key, metric in metrics.items():
        print(f"  {key:32s} {metric['value']:.6g} {metric['unit']}")
    print(f"  {'wall_s':32s} {report['wall_s']:.6g} s (unscaled)")
    print(f"  {'frames_per_s':32s} {report['frames_per_s']:.6g} 1/s (unscaled)")
    if setup_raw_s is not None:
        print(f"  {'setup_s':32s} {setup_raw_s:.6g} s (unscaled)")
    print(f"  {'fail_ratio':32s} {failed / attempted:.6g} "
          f"({failed} failed of {attempted} ops; op = one {report['op']})")
    walls = report["walls"]
    q1, _, q3 = statistics.quantiles(walls, n=4)
    print(f"untraced sweep seconds  median {statistics.median(walls):.4f}  q1 {q1:.4f}  "
          f"q3 {q3:.4f}  max {max(walls):.4f}  (n={len(walls)}); host speed "
          f"{report['speed']:.3f} of reference")
    print(f"digest  {report['golden']}")
    if args.trace:
        layer = {k: m["value"] for k, m in metrics.items()}
        within = abs(layer["trace.unaccounted_s"]) <= max(layer["trace.overhead_s"], 0.0)
        print(f"trace  {report['traced_sweeps']} traced sweeps; overhead "
              f"{layer['trace.overhead_s']:.4f} s ({100 * layer['trace.overhead_ratio']:.1f}%); "
              f"self-time sum {layer['trace.self_sum_s']:.4f} s vs traced wall "
              f"{layer['trace.wall_s']:.4f} s (within overhead: {'yes' if within else 'no'}); "
              f"spans in {report['spans_file']}")

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    out = root / ".bench_out" / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({**result, "machine": info, "worker": report}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
