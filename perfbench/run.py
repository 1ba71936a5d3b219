"""wittnorm benchmark: one workload per invocation, one JSON line out.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads: norm-compare, tate-lift,
drw-tower, witt-fpx (see perfbench/README.md).

--trace 0 prints the end-to-end metrics:
  wall_s       median over rounds of the wall time of the timed calls,
  setup_s      median over 2 * SETUP_PROBES + 1 fresh processes of the
               time from process start to the end of set-up (interpreter,
               `import wittnorm`, inputs built from the seed); half of the
               set-up-only probes run before the rounds and half after,
               so that the median spans the whole run,
  peak_rss_mb  peak resident set of the process that ran the rounds.
--trace 1 runs one round untraced and one round traced, each in a fresh
process, prints the per-layer metrics of the traced round plus the
tracing overhead, and writes the spans to perfbench/out/.

This process only starts and waits for worker processes
(perfbench/workloads.py), one at a time; it never imports wittnorm.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import List, Tuple

WORKLOADS = ("norm-compare", "tate-lift", "drw-tower", "witt-fpx")
SETUP_PROBES = 5
WORKER = os.path.join("perfbench", "workloads.py")
OUT_DIR = os.path.join("perfbench", "out")
TIMEOUT_S = 170

# a workload runs in one process with no threads, BLAS pools included
WORKER_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                  MKL_NUM_THREADS="1")


def start_worker(args: List[str]) -> Tuple[dict, float]:
    """Run one worker; returns its result and its seconds from start to READY."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER] + args, stdout=subprocess.PIPE,
                            text=True, env=WORKER_ENV)
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if first.strip() != "READY" or proc.returncode != 0:
        raise SystemExit(f"perfbench: worker {args} failed with exit code {proc.returncode}")
    lines = rest.strip().splitlines()
    return (json.loads(lines[-1]) if lines else {}), ready


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="wittnorm benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "wittnorm", "__init__.py")):
        print("perfbench: src/wittnorm not found; run from the root of a checkout",
              file=sys.stderr)
        return 2

    base = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.trace == 0:
        probe = base + ["--setup-only"]
        setups = [start_worker(probe)[1] for _ in range(SETUP_PROBES)]
        res, ready = start_worker(base + ["--seconds", str(args.seconds)])
        setups.append(ready)
        setups += [start_worker(probe)[1] for _ in range(SETUP_PROBES)]
        out = {
            "correct": res["correct"],
            "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {
                "wall_s": {"value": statistics.median(res["walls"]), "unit": "s"},
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "peak_rss_mb": {"value": res["maxrss_kb"] / 1024, "unit": "MB"},
            },
        }
        problems, errors = res["problems"], res["errors"]
    else:
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json.gz")
        plain, _ = start_worker(base + ["--max-rounds", "1"])
        traced, _ = start_worker(base + ["--max-rounds", "1", "--trace-out", path])
        metrics = dict(traced["per_layer"])
        metrics["trace.overhead_s"] = {"value": traced["walls"][0] - plain["walls"][0],
                                       "unit": "s"}
        out = {
            "correct": plain["correct"] and traced["correct"],
            "attempted": plain["attempted"] + traced["attempted"],
            "failed": plain["failed"] + traced["failed"],
            "metrics": metrics,
        }
        problems = plain["problems"] + traced["problems"]
        errors = plain["errors"] + traced["errors"]
        print(f"perfbench: spans written to {path}", file=sys.stderr)
    for line in problems + errors:
        print(f"perfbench: {line}", file=sys.stderr)
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
