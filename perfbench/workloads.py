"""One benchmark workload in one process: set up, run timed rounds, check.

Run from the root of a checkout:

    python3 perfbench/workloads.py --workload NAME --seed N --seconds S
        [--max-rounds K] [--trace-out PATH]

The process imports wittnorm from ./src, builds the workload's inputs
from the seed, prints READY, and then runs whole rounds of the same
operations until the next round would end after S seconds (at least one
round, at most K).  Only the calls into wittnorm are timed.  Round one's
outputs are checked against the oracles in oracles.py; every later
round's outputs must equal round one's.  The last line of standard output
is one JSON object with the per-round wall times, the operation counts,
the check result and the peak resident set.  --setup-only stops after
READY.  With --trace-out, the rounds run under the tracer and the spans
and per-layer totals are written to PATH.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import sys
import time
from typing import Callable, Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracles  # noqa: E402


def load_wittnorm() -> None:
    """Import wittnorm from ./src of the checkout, never from elsewhere."""
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "wittnorm", "__init__.py")):
        raise SystemExit("perfbench: no src/wittnorm here; run from the root of a checkout")
    sys.path.insert(0, src)
    import wittnorm
    if not os.path.abspath(wittnorm.__file__).startswith(src + os.sep):
        raise SystemExit(f"perfbench: wittnorm imported from {wittnorm.__file__}, not {src}")


class Round:
    """Times calls into wittnorm and keeps a summary of each result."""

    def __init__(self, tracer=None):
        self.wall = 0.0
        self.attempted = 0
        self.failed = 0
        self.outputs: List[Tuple[str, object]] = []
        self.errors: List[str] = []
        self._tracer = tracer

    def call(self, label: str, fn: Callable, *args, summary: Callable, **kwargs):
        if self._tracer is not None:
            fn = self._tracer.span("op." + label, fn)
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # counted as a failed operation
            self.wall += time.perf_counter() - t0
            self.failed += 1
            self.errors.append(f"{label}: {type(exc).__name__}: {exc}")
            return None
        self.wall += time.perf_counter() - t0
        self.outputs.append((label, summary(result)))
        return result


# ---------------------------------------------------------------------------
# workloads: setup(seed) builds inputs; run(rnd) makes the timed calls;
# check(outputs) returns a list of problems found by the oracles


class NormCompare:
    """The compare suite and the two pipelines at p=2 d=4 r=3 (dim 256)."""

    P, D, R = 2, 4, 3

    def setup(self, seed: int):
        load_wittnorm()
        from wittnorm import polywitt, suites
        self.polywitt, self.suites = polywitt, suites
        self.seed = seed
        self.space = self.polywitt.FpVectorSpace(self.P, self.D)

    def run(self, rnd: Round):
        rnd.call("suites.run_suite", self.suites.run_suite, "compare", seed=self.seed,
                 summary=lambda rep: [(x.key, x.ok, x.skipped, x.witness) for x in rep.records])
        rnd.call("polywitt.compare_pipelines", self.polywitt.compare_pipelines,
                 self.space, self.R,
                 summary=lambda rep: (rep.tate, rep.norm, rep.passed))

    def check(self, outputs) -> List[str]:
        problems = []
        for label, out in outputs:
            if label == "suites.run_suite":
                if not out:
                    problems.append("compare suite produced no records")
                for key, ok, skipped, witness in out:
                    if skipped or not ok:
                        problems.append(f"suite record {key}: ok={ok} skipped={skipped} {witness}")
            else:
                tate, norm, passed = out
                if tate != norm or not passed:
                    problems.append(f"pipelines disagree: tate={tate} norm={norm}")
                problems += oracles.check_factors(self.P, self.D, self.R, tate)
                problems += oracles.check_factors(self.P, self.D, self.R, norm)
        return problems


class TateLift:
    """Tate pipeline at p=2 d=6 r=3 (dim 1296) and at p=2 d=4 r=3, then
    the Tate group of seeded unimodular conjugates at p=2 d=4 r=3."""

    BIG = (2, 6, 3)
    SMALL = (2, 4, 3)
    SAMPLES = 8

    def setup(self, seed: int):
        load_wittnorm()
        from wittnorm import polywitt
        self.polywitt = polywitt
        self.seed = seed

    def run(self, rnd: Round):
        pw = self.polywitt
        for p, d, r in (self.BIG, self.SMALL):
            rnd.call(f"polywitt.tate_polywitt d={d}", pw.tate_polywitt, pw.FpVectorSpace(p, d), r,
                     summary=lambda res, key=(p, d, r): (key, res.invariant_factors()))
        p, d, r = self.SMALL
        rnd.call("polywitt.lift_independence_report", pw.lift_independence_report,
                 pw.FpVectorSpace(p, d), r, samples=self.SAMPLES, seed=self.seed,
                 summary=list)

    def check(self, outputs) -> List[str]:
        problems = []
        for label, out in outputs:
            if label == "polywitt.lift_independence_report":
                if len(out) != self.SAMPLES or not all(out):
                    problems.append(f"conjugates changed the Tate group: {out}")
            else:
                (p, d, r), factors = out
                problems += oracles.check_factors(p, d, r, factors)
        return problems


class DrwTower:
    """The p=3 r=3 de Rham-Witt tower of F_3[x] to weight 8, and its axioms."""

    P, R, NVARS, CAP = 3, 3, 1, 8

    def setup(self, seed: int):
        load_wittnorm()
        from wittnorm import drw
        self.drw = drw
        self.seed = seed

    def run(self, rnd: Round):
        tower = rnd.call("drw.build_drw", self.drw.build_drw, self.P, self.R, self.NVARS, self.CAP,
                         summary=lambda t: {(s, deg, w[0]): pc.group.moduli
                                            for (s, deg, w), pc in t.pieces.items()})
        if tower is not None:
            rnd.call("drw.check_fv_axioms", self.drw.check_fv_axioms, tower,
                     samples=40, seed=self.seed,
                     summary=lambda rep: (rep.ok, rep.failures()))

    def check(self, outputs) -> List[str]:
        problems = []
        for label, out in outputs:
            if label == "drw.build_drw":
                problems += oracles.check_tower(self.P, self.R, self.CAP, out)
            else:
                ok, failures = out
                if not ok:
                    problems.append(f"axiom failures: {failures}")
        return problems


class WittFpx:
    """Witt vector arithmetic over F_p[x] for p in {2, 3, 5}, r in 1..4.

    Every component is a seeded polynomial of degree exactly DEGREE.
    """

    PRIMES = (2, 3, 5)
    LENGTHS = (1, 2, 3, 4)
    PAIRS = 40
    DEGREE = 5

    def setup(self, seed: int):
        load_wittnorm()
        from wittnorm import rings, witt
        rng = random.Random(seed)
        self.cases = []
        for p in self.PRIMES:
            for r in self.LENGTHS:
                ring = witt.WittRing(p, r, rings.GFPolyRing(p))
                for _ in range(self.PAIRS):
                    a, b = (ring.vector([self._poly(rng, p) for _ in range(r)]) for _ in range(2))
                    self.cases.append((ring, a, b))

    def _poly(self, rng: random.Random, p: int) -> Tuple[int, ...]:
        return tuple(rng.randrange(p) for _ in range(self.DEGREE)) + (rng.randrange(1, p),)

    def run(self, rnd: Round):
        for ring, a, b in self.cases:
            key = (ring.p, a.components, b.components)
            ops = [("add", ring.add, (a, b)), ("mul", ring.mul, (a, b)), ("neg", ring.neg, (a,))]
            if ring.r >= 2:
                ops.append(("frobenius", ring.frobenius, (a,)))
            ops += [("verschiebung", ring.verschiebung, (a,)), ("ghost", ring.ghost, (a,))]
            for op, fn, args in ops:
                rnd.call("witt." + op, fn, *args,
                         summary=lambda res, op=op, key=key: (key, op, _components(res)))

    def check(self, outputs) -> List[str]:
        problems = []
        for _, ((p, a, b), op, out) in outputs:
            problems += oracles.check_witt_op(p, op, a, b, out)
        return problems


def _components(res) -> Tuple[Tuple[int, ...], ...]:
    """Witt components of a result, or the ghost components it lists."""
    return tuple(res.components) if hasattr(res, "components") else tuple(map(tuple, res))


WORKLOADS: Dict[str, type] = {
    "norm-compare": NormCompare,
    "tate-lift": TateLift,
    "drw-tower": DrwTower,
    "witt-fpx": WittFpx,
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--max-rounds", type=int, default=0, help="0 means no limit")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args(argv)

    work = WORKLOADS[args.workload]()
    work.setup(args.seed)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace_out:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    walls: List[float] = []
    attempted = failed = 0
    errors: List[str] = []
    problems: List[str] = []
    reference = None
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        rnd = Round(tracer)
        work.run(rnd)
        last = time.perf_counter() - t0
        walls.append(rnd.wall)
        attempted += rnd.attempted
        failed += rnd.failed
        errors += rnd.errors
        if reference is None:
            reference = rnd.outputs
            problems += work.check(rnd.outputs)
        elif rnd.outputs != reference:
            problems.append(f"round {len(walls)} outputs differ from round 1")
        if args.max_rounds and len(walls) >= args.max_rounds:
            break
        if time.perf_counter() - start + last > args.seconds:
            break

    result = {
        "walls": walls,
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:10],
        "problems": problems[:10],
        "correct": not problems,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        tracer.uninstall()
        result["per_layer"] = tracer.reported()
        tracer.write(args.trace_out, {"workload": args.workload, "seed": args.seed,
                                      "walls": walls, "per_layer": result["per_layer"]})
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
