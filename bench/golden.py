"""Golden sha256 digests of each workload's output, one per seed.

For ``matrix`` and ``sensitivity`` the digest is the sha256 of the
``matrix.jsonl`` / ``sensitivity.jsonl`` that ``pcsm`` writes for that
single seed; for ``wire`` it covers every delivered (source, tag,
payload) in order.  A refactor or speed-up must leave every digest
unchanged.  Regenerate only when a change alters simulated behaviour on
purpose, and say why in CHANGES.md.  From the repository root:

    python3 bench/golden.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).with_name("golden.json")
SEEDS = range(0, 33)


def expected(workload: str, seed: int) -> str | None:
    """The stored digest, or None for a seed outside the stored range."""
    return json.loads(GOLDEN.read_text(encoding="utf-8"))[workload].get(str(seed))


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    import workloads

    out_root = root / ".bench_out"
    out_root.mkdir(exist_ok=True)
    table = {}
    probe = workloads.Probe()
    with tempfile.TemporaryDirectory(dir=out_root) as tmp:
        for name, sweep in workloads.SWEEPS.items():
            table[name] = {}
            for seed in SEEDS:
                ctx = workloads.Context(root, Path(tmp), probe,
                                        workloads.wire_inputs(seed) if name == "wire" else [])
                result = sweep(ctx, seed)
                if result.failed:
                    print(f"{name} seed {seed}: {result.failed} of {result.ops} ops failed",
                          file=sys.stderr)
                    return 1
                table[name][str(seed)] = result.digest
            print(f"{name}: {len(SEEDS)} seeds", file=sys.stderr)
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
