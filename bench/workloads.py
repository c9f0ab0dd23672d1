"""The three benchmark workloads, each one sweep at a time.

A sweep is one full pass of a workload for one seed.  It returns what
the benchmark needs to time and check it: the number of received
frames, the ops attempted and failed, and a sha256 digest of the
deterministic output.  Every ``pcsm`` name is looked up through its
module at call time, so spans installed by ``layers.install`` see the
calls.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path

from pcsm import cli, frag_codec, hash_chain, reassembly

# Wire workload shape.  Senders keep the trust engine's nominal 90 s
# cadence so the behavioural screen accepts every datagram, and their
# phases are spread over the interval so one train completes before the
# next starts: nothing is dropped, and the receive path is all delivery.
WIRE_KEY = b"shared-group-key"
WIRE_SENDERS = 64
WIRE_ROUNDS = 40
WIRE_INTERVAL = 90.0
WIRE_PACING = 0.001
WIRE_PAYLOAD_BYTES = (200, 760)  # 3 to 8 fragments per datagram

_FRAG1_LEN = frag_codec.FRAG1_BASE_LEN + frag_codec.FRAG1_EXT_LEN
_FRAGN_LEN = frag_codec.FRAGN_BASE_LEN + frag_codec.FRAGN_EXT_LEN


@dataclass
class SweepResult:
    frames: int
    ops: int
    failed: int
    digest: str


class Probe:
    """Counts received frames per simulated run and marks part boundaries.

    Wraps ``cli.simulate``: one extra call per run, so it stays on when
    tracing is off.  ``boundary`` is called before each simulated run,
    and by the wire sweep before each round of datagrams.
    """

    def __init__(self):
        self.frames = 0
        self.boundary = lambda: None
        self._simulate = cli.simulate

        def probed_simulate(*args, **kwargs):
            self.boundary()
            result = self._simulate(*args, **kwargs)
            self.frames += len(result.records)
            return result

        cli.simulate = probed_simulate

    def take(self) -> int:
        frames, self.frames = self.frames, 0
        return frames

    def close(self) -> None:
        cli.simulate = self._simulate


def _cli_sweep(argv: list[str], artifact: str, seed: int, out: Path,
               probe: Probe) -> SweepResult:
    argv = argv + ["--seed", str(seed), "--seed-count", "1", "--out", str(out)]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != cli.EXIT_OK:
        raise RuntimeError(f"pcsm {' '.join(argv)} exited with {code}")
    data = (out / artifact).read_bytes()
    # one seed per sweep, so each line is one (config, seed) run
    lines = data.decode("utf-8").splitlines()
    broken = sum(1 for line in lines if not json.loads(line)["conservation_ok"])
    return SweepResult(probe.take(), len(lines), broken, hashlib.sha256(data).hexdigest())


def matrix_sweep(ctx, seed: int) -> SweepResult:
    return _cli_sweep(["matrix", str(ctx.root / "configs")], "matrix.jsonl",
                      seed, ctx.out, ctx.probe)


def sensitivity_sweep(ctx, seed: int) -> SweepResult:
    return _cli_sweep(["sensitivity", str(ctx.root / "configs/sensitivity/base.yaml")],
                      "sensitivity.jsonl", seed, ctx.out, ctx.probe)


def wire_inputs(seed: int) -> list[tuple[float, int, int, bytes, bytes]]:
    """Time-ordered (time, source, tag, nonce, payload) sends for one seed."""
    rng = random.Random(f"wire:{seed}")
    lo, hi = WIRE_PAYLOAD_BYTES
    step = WIRE_INTERVAL / (WIRE_SENDERS + 1)
    return [
        (rnd * WIRE_INTERVAL + src * step, src, rnd + 1, rng.randbytes(4),
         rng.randbytes(rng.randint(lo, hi)))
        for rnd in range(WIRE_ROUNDS)
        for src in range(1, WIRE_SENDERS + 1)
    ]


def wire_sweep(ctx, seed: int) -> SweepResult:
    """Sign, encode, decode and admit every datagram of ``ctx.wire``."""
    stack = reassembly.PredictiveCsmStack(WIRE_KEY)
    delivered = hashlib.sha256()
    frames = failed = 0
    next_tick = 1.0
    for i, (when, src, tag, nonce, payload) in enumerate(ctx.wire):
        if i % WIRE_SENDERS == 0:
            ctx.probe.boundary()
        frags = frag_codec.fragment_packet(payload, tag, with_extension=True)
        hash_chain.sign_fragments(WIRE_KEY, frags, nonce)
        wire = [frag_codec.encode_header(f.header) + f.payload for f in frags]

        while next_tick <= when:
            stack.tick(next_tick)
            next_tick += 1.0
        result = None
        for j, data in enumerate(wire):
            hlen = _FRAG1_LEN if data[0] >> 3 == frag_codec.DISPATCH_FRAG1 else _FRAGN_LEN
            header = frag_codec.decode_header(data[:hlen])
            frag = frag_codec.Fragment(header, data[hlen:], source=src)
            result = stack.admit(frag, when + j * WIRE_PACING)
        frames += len(wire)
        if result.status is reassembly.AdmitStatus.DELIVERED and result.payload == payload:
            delivered.update(src.to_bytes(2, "big") + tag.to_bytes(2, "big") + payload)
        else:
            failed += 1
    return SweepResult(frames, len(ctx.wire), failed, delivered.hexdigest())


SWEEPS = {
    "matrix": matrix_sweep,
    "sensitivity": sensitivity_sweep,
    "wire": wire_sweep,
}

# What each sweep counts as one op, for the fail_ratio base.
OP_UNITS = {
    "matrix": "(config, seed) run",
    "sensitivity": "(trust cell, seed) run",
    "wire": "datagram",
}


@dataclass
class Context:
    """Inputs and scratch space shared by the sweeps of one process."""

    root: Path
    out: Path
    probe: Probe
    wire: list


def warm_up(name: str, ctx: Context, seed: int) -> None:
    """Run each code path once before timing, outside the measured window."""
    if name == "wire":
        wire_sweep(ctx, seed)
        return
    config = ctx.root / ("configs/sensitivity/base.yaml" if name == "sensitivity"
                         else "configs/pcsm-burst_injection.yaml")
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["run", str(config), "--seed", str(seed), "--seed-count", "1",
                  "--out", str(ctx.out)])
    ctx.probe.take()
