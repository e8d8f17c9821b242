"""Benchmark entry point: one run of one workload.

    python3 perfbench/run.py --workload synth_g1 --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The run itself happens in a fresh Python
process (worker.py) whose environment pins the BLAS thread count before
numpy loads.  For an untraced run, set-up is first done in separate probe
processes as well, so the reported ``setup_s`` is a median.  The last line
of stdout is the result JSON; exit code 0 means the run completed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

BLAS_THREADS = 1       # see README.md for how this was chosen
SETUP_PROBES = 2       # extra set-ups per untraced run; setup_s is the median of all
RUN_TIMEOUT_S = 170.0  # whole run, probes included


def _env(threads: int) -> dict:
    env = dict(os.environ, PERFBENCH_T0=repr(time.monotonic()))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="risbench benchmark: one run of one workload")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--blas-threads", type=int, default=BLAS_THREADS)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "risbench" / "__init__.py").is_file():
        print(f"perfbench: no risbench sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    threads = max(1, min(args.blas_threads, os.cpu_count() or 1))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    deadline = time.monotonic() + RUN_TIMEOUT_S
    try:
        setups = []
        for _ in range(0 if args.trace else SETUP_PROBES):
            probe = subprocess.run(cmd + ["--probe"], env=_env(threads), cwd=ROOT,
                                   capture_output=True, text=True, check=True,
                                   timeout=max(1.0, deadline - time.monotonic()))
            setups.append(json.loads(probe.stdout.splitlines()[-1])["setup_s"])
        run = subprocess.run(cmd + ["--probe-setup", ",".join(map(repr, setups))],
                             env=_env(threads), cwd=ROOT,
                             timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.CalledProcessError as exc:
        sys.stderr.write(exc.stderr or "")
        print(f"perfbench: set-up probe exited {exc.returncode}", file=sys.stderr)
        return 1
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S:.0f} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
