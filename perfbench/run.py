"""P3 benchmark entry point.

    python3 perfbench/run.py --workload cold_view --seed 1 --seconds 20 --trace 0

Runs from the root of a checkout and builds nothing but the native codec
kernel, which the package compiles on first use.  Each step runs in a
fresh interpreter (``worker.py``) with BLAS/OpenMP pinned to one thread:

1. ``SETUP_SAMPLES - 1`` set-up-only processes, plus the measuring
   process's own set-up, give the set-up samples; ``setup_s`` is their
   median, so the one sample that pays the kernel build and bytecode
   compilation in a fresh checkout does not move it;
2. the measuring process runs the workload and verifies every response.

Timings are scaled to a reference machine speed (``speed.py``): each
set-up phase by the probes run around it, each request by the median
probe time in the seconds around it.  The unscaled figures and the
probe times go to stderr.

The last stdout line is the result: ``correct``, ``attempted``,
``failed`` and ``metrics``: the ``end_to_end`` metrics that
``BENCHMARK.json`` lists with ``--trace 0``, its ``per_layer`` metrics
with ``--trace 1``.  Input digests, set-up samples and trace
diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3
DEADLINE_S = 170.0

SETUP_LAYERS = ("import_s", "construct_s", "warmup_s")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    # The compiler's scratch files, from the first native-kernel build,
    # stay inside the checkout like everything else the run writes.
    scratch = ROOT / ".bench_build" / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(scratch)
    for var in (
        "OPENBLAS_NUM_THREADS",
        "OMP_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    ):
        env[var] = "1"
    return env


def worker(args: list[str], timeout: float) -> dict:
    """Run one worker process to completion; its last stdout line."""
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=max(1.0, timeout),
        )
    except subprocess.TimeoutExpired as error:
        raise SystemExit(f"worker {args} timed out after {error.timeout:.0f}s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {args} exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"worker {args} printed no result")
    return json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="P3 end-to-end benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds through subprocess.run, which kills the worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no P3 sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    samples = [
        worker(["--workload", args.workload, "--setup-only"], deadline - time.monotonic())["setup"]
        for _ in range(SETUP_SAMPLES - 1)
    ]
    result = worker(
        [
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ],
        deadline - time.monotonic(),
    )
    samples.append(result["setup"])
    setup = {
        phase: statistics.median(sample["scaled"][phase] for sample in samples)
        for phase in SETUP_LAYERS
    }
    setup_s = statistics.median(sum(sample["scaled"].values()) for sample in samples)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        values = dict(result["layers"])
        values.update({f"setup.{phase}": setup[phase] for phase in SETUP_LAYERS})
        listed = spec["per_layer"]
        print(json.dumps({"trace": result["trace"]}), file=sys.stderr)
    else:
        values = dict(result["metrics"], setup_s=setup_s)
        listed = spec["end_to_end"]
    print(
        json.dumps(
            {
                "inputs": result["inputs"],
                "requests": result["requests"],
                "stages_s": result["stages_s"],
                "unscaled": result["unscaled"],
                "speed": result["speed"],
                "setup": samples,
            }
        ),
        file=sys.stderr,
    )
    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    output = {
        "correct": result["failed"] == 0 and not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
    }
    print(json.dumps(output))
    return 0


if __name__ == "__main__":
    sys.exit(main())
