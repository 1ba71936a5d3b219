"""Command-line front end: one subcommand per layer and `run` for the
suites, each importing the layer it runs where it runs it; `main` exits 0
on a pass, 2 on a failed check and 3 on an invalid invocation."""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import List, Optional

from . import DEFAULT_CAP, MackeyError, SaturationError
from .serialize import (
    dumps_value,
    emit_csv,
    emit_json,
    emit_text,
    mackey_json,
    report_dict,
    witt_json,
)
from .suites import SUITE_IDS, run_suites


class _Parser(argparse.ArgumentParser):
    # configuration errors must exit 3, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(3)


# the flags several subcommands share; each registers only those it reads
_SHARED_FLAGS = {
    "json": dict(metavar="PATH", default=None,
                 help="write the JSON document to PATH ('-' for stdout)"),
    "seed": dict(type=int, default=0),
    "cap": dict(type=int, default=DEFAULT_CAP,
                help=f"tensor dimension cap (default {DEFAULT_CAP})"),
    "timings": dict(action="store_true",
                    help="include wall times (output no longer byte-stable)"),
}


def _add_shared(sub: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        sub.add_argument(f"--{name}", **_SHARED_FLAGS[name])


def _write(doc_text: str, path: Optional[str]) -> None:
    if path is None or path == "-":
        sys.stdout.write(doc_text)
    else:
        with open(path, "w") as fh:
            fh.write(doc_text)


def _check_failed(what) -> int:
    sys.stderr.write(f"check failed: {what}\n")
    return 2


def _parse_range(name: str, text: str) -> set:
    vals = set()
    try:
        for part in text.split(","):
            if ".." in part:
                lo, hi = part.split("..", 1)
                vals.update(range(int(lo), int(hi) + 1))
            else:
                vals.add(int(part))
    except ValueError:
        raise ValueError(f"bad range for --{name}: {text!r}") from None
    return vals


# ---------------------------------------------------------------------------
# witt


# each --ring choice and the base ring it names at the prime p, read
# from the rings module
_RINGS = {
    "z": lambda rings, p: rings.ZRing(),
    "fp": lambda rings, p: rings.ZModRing(p),
    "zp2": lambda rings, p: rings.ZModRing(p * p),
    "fpx": lambda rings, p: rings.GFPolyRing(p),
}


def _parse_int(raw) -> int:
    """A JSON integer or a decimal-integer string; bools and floats are not."""
    if isinstance(raw, int) and not isinstance(raw, bool):
        return raw
    if isinstance(raw, str) and re.fullmatch(r"[+-]?[0-9]+", raw):
        return int(raw)
    raise ValueError(f"--in: expected an integer, got {json.dumps(raw)}")


def _parse_elt(raw, ring):
    from .rings import GFPolyRing

    # an F_p[x] element may also be written as its coefficient array,
    # reduced mod p and trimmed like every other element
    if isinstance(raw, list) and isinstance(ring, GFPolyRing):
        return ring.add(ring.zero(), [_parse_int(c) for c in raw])
    return ring.from_int(_parse_int(raw))


def _parse_vec(raw, w):
    if not isinstance(raw, list):
        raise ValueError(f"--in: expected an array of components, got {json.dumps(raw)}")
    return w.vector([_parse_elt(c, w.base) for c in raw])


def _cmd_witt(args) -> int:
    from . import rings
    from .witt import WittRing

    ring = _RINGS[args.ring](rings, args.p)
    w = WittRing(args.p, args.r, ring)
    payload = json.loads(args.infile)
    if args.verb in ("add", "mul"):
        if not (isinstance(payload, list) and len(payload) == 2):
            raise ValueError(f"--in: {args.verb} expects an array of two vectors,"
                             f" got {json.dumps(payload)}")
        a, b = (_parse_vec(v, w) for v in payload)
        out = a + b if args.verb == "add" else a * b
    elif args.verb == "teich":
        out = w.teichmuller(_parse_elt(payload, ring))
    else:
        vec = _parse_vec(payload, w)
        if args.verb == "F":
            out = w.frobenius(vec)
        elif args.verb == "V":
            out = w.verschiebung(vec)
        else:
            out = w.restrict(vec)
    _write(dumps_value(witt_json(out)), args.json)
    return 0


# ---------------------------------------------------------------------------
# mackey


# each --kind choice and how it builds its functor from the mackey
# module and the parsed flags
_MACKEY_KINDS = {
    "constant": lambda mackey, a: mackey.constant_mackey(a.p, a.n),
    "witt": lambda mackey, a: mackey.witt_mackey(a.p, a.n),
    "zero": lambda mackey, a: mackey.zero_mackey(a.p, a.n),
    "permutation": lambda mackey, a: mackey.permutation_mackey(
        a.p, a.n, [int(x) for x in (a.orbits or "0").split(",")]),
    "fixed-regular": lambda mackey, a: mackey.fixed_point_mackey(
        mackey.regular_gmodule(a.p, a.n)),
    "fixed-orbit": lambda mackey, a: mackey.fixed_point_mackey(
        mackey.orbit_gmodule(a.p, a.n, a.h)),
}


def _cmd_mackey(args) -> int:
    from . import mackey

    if args.verb == "resolve":
        res = mackey.WittResolution(args.p, args.r)
        rep = res.check()
        doc = {
            "kind": "resolution-report",
            "p": args.p,
            "r": args.r,
            "exact": rep.ok,
            "entries": [{"check": name, "level": level, "ok": ok}
                        for name, level, ok in rep.entries],
        }
        _write(dumps_value(doc), args.json)
        return 0 if rep.ok else 2
    m = _MACKEY_KINDS[args.kind](mackey, args)
    if args.verb == "validate":
        # the constructor has validated m
        _write(dumps_value({"kind": "mackey-validation", "ok": True}), args.json)
        return 0
    if args.verb == "boxperm":
        m = mackey.box_with_permutation(m, args.k)
    elif args.verb == "q":
        m = mackey.augmentation_cokernel(m)
    elif args.verb == "witt-basechange":
        m = mackey.base_change_to_witt(m)
    _write(dumps_value(mackey_json(m)), args.json)
    return 0


# ---------------------------------------------------------------------------
# polywitt


def _cmd_polywitt(args) -> int:
    from .polywitt import FpVectorSpace, compare_pipelines

    rep = compare_pipelines(FpVectorSpace(args.p, args.d), args.r, cap=args.cap)
    _write(dumps_value(rep.to_dict(with_timings=args.timings)), args.json)
    return 0 if rep.passed else 2


# ---------------------------------------------------------------------------
# drw


def _drw_build_doc(args, tower) -> dict:
    from .drw import symbol_label

    keys = sorted(tower.pieces, key=lambda k: (k[0], k[1], sum(k[2]), k[2]))
    pieces = []
    operators = []
    for key in keys:
        s, deg, w = key
        piece = tower.pieces[key]
        if not piece.symbols:
            continue
        pieces.append({
            "level": s,
            "degree": deg,
            "weight": w,
            "invariant_factors": piece.group.moduli,
            "symbols": [symbol_label(sym) for sym in piece.symbols],
        })
        for op, _ in tower.operators(piece.key):
            operators.append({
                "op": op,
                "from": {"level": s, "degree": deg, "weight": w},
                "matrix": tower.operator_hom(op, piece.key).matrix.to_rows(),
            })
    return {"kind": "drw-tower", "p": args.p, "r": args.r,
            "vars": args.vars, "weight_cap": args.weight_cap,
            "pieces": pieces, "operators": operators}


def _drw_mixed_doc(args) -> dict:
    from .drw import mixed_char_weight_piece

    if args.weight_cap < 0:
        raise ValueError(f"weight cap must be at least 0, got {args.weight_cap}")
    pieces = []
    for num in range(args.weight_cap + 1):
        for s in range(1, args.r + 1):
            g = mixed_char_weight_piece(args.p, args.r, args.char_exp, s, num)
            pieces.append({
                "level": s,
                "degree": 0,
                "weight": (num,),
                "invariant_factors": g.moduli,
            })
    return {"kind": "drw-degree-zero-mixed", "p": args.p, "r": args.r,
            "char_exp": args.char_exp, "weight_cap": args.weight_cap,
            "pieces": pieces}


def _cmd_drw(args) -> int:
    from .drw import build_drw, check_fv_axioms, langer_zink_mismatch

    if args.base == "zpN" and args.verb == "build":
        _write(dumps_value(_drw_mixed_doc(args)), args.json)
        return 0
    tower = build_drw(args.p, args.r, args.vars, args.weight_cap)
    # a cap too low for the tower's relations leaves a piece too large
    wit = langer_zink_mismatch(tower)
    if wit:
        return _check_failed(wit)
    if args.verb == "build":
        _write(dumps_value(_drw_build_doc(args, tower)), args.json)
        return 0
    rep = check_fv_axioms(tower, seed=args.seed)
    doc = {
        "kind": "drw-axiom-report",
        "p": args.p, "r": args.r,
        "axioms": [{"axiom": name, "ok": ok, "witness": wit}
                   for name, ok, wit in rep.entries],
        "ok": rep.ok,
    }
    _write(dumps_value(doc), args.json)
    return 0 if rep.ok else 2


# ---------------------------------------------------------------------------
# trace


def _cmd_trace(args) -> int:
    from .traces import (
        OrbitTraceTheory,
        RawPowerTraceTheory,
        negative_raw_power,
        polywitt_trace,
        run_axiom_checks,
    )

    if args.theory == "polywitt":
        data = polywitt_trace(args.p, args.r, rank_cap=args.rank_cap,
                              seed=args.seed)
        reports, ok = data.reports, data.descended
        extra = {"m": data.m, "descended": data.descended}
    else:
        cls = OrbitTraceTheory if args.theory == "orbit" else RawPowerTraceTheory
        theory = cls(args.m, args.p, rank_cap=args.rank_cap)
        reports = run_axiom_checks(theory, seed=args.seed)
        if args.theory == "orbit":
            ok = all(r.ok for r in reports)
            extra = {}
        else:
            neg = negative_raw_power(args.m, args.p, rank_cap=args.rank_cap)
            ok = neg.passed
            extra = {"counterexample": neg.found or None,
                     "counterexample_found": neg.passed}
    doc = {
        "kind": "trace-report",
        "theory": args.theory,
        "axioms": [{"axiom": r.axiom, "ok": r.ok, "checked": r.checked,
                    "witness": r.witness} for r in reports],
        "ok": ok,
    }
    doc.update(extra)
    _write(dumps_value(doc), args.json)
    return 0 if ok else 2


# ---------------------------------------------------------------------------
# run


def _cmd_run(args) -> int:
    ids = args.suite
    for sid in ids:
        if sid != "all" and sid not in SUITE_IDS:
            sys.stderr.write(f"unknown suite {sid!r}; known: "
                             f"{', '.join(SUITE_IDS)} or all\n")
            return 3
    grid = {name: _parse_range(name, getattr(args, name))
            for name in ("p", "d", "r", "m") if getattr(args, name) is not None}
    if args.json == "-" and args.csv == "-":
        sys.stderr.write("error: --json - and --csv - cannot both write to stdout\n")
        return 3
    reports = run_suites(ids, seed=args.seed, cap=args.cap, grid=grid or None)
    # a run that checked nothing is not a pass
    if not any(rep.records for rep in reports):
        flags = " ".join(f"--{name} {getattr(args, name)}" for name in grid)
        sys.stderr.write(f"error: the grid filter {flags} selects no instance of "
                         f"{' '.join(ids)}\n")
        return 3
    if all(rec.skipped for rep in reports for rec in rep.records):
        sys.stderr.write(f"error: the cap --cap {args.cap} skips every instance of "
                         f"{' '.join(ids)}\n")
        return 3
    # a document on stdout stands alone there; the summary goes to stderr
    summary = sys.stderr if "-" in (args.json, args.csv) else sys.stdout
    for rep in reports:
        summary.write(emit_text(rep, timings=args.timings))
    if args.json:
        if len(reports) == 1:
            text = emit_json(reports[0], timings=args.timings)
        else:
            text = dumps_value([report_dict(r, timings=args.timings) for r in reports])
        _write(text, args.json)
    if args.csv:
        _write(emit_csv(reports, args.timings), args.csv)
    return 0 if all(r.ok for r in reports) else 2


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="wittnorm",
                  description="Exact computations with Witt vectors, cyclic "
                              "Mackey functors, polynomial Witt vectors, "
                              "truncated de Rham-Witt towers, and trace axioms.")
    subs = top.add_subparsers(dest="command", required=True)

    w = subs.add_parser("witt", help="Witt vector arithmetic")
    w.add_argument("verb", choices=("add", "mul", "F", "V", "R", "teich"))
    w.add_argument("--p", type=int, required=True)
    w.add_argument("--r", type=int, required=True)
    w.add_argument("--ring", choices=tuple(_RINGS), default="z")
    w.add_argument("--in", dest="infile", required=True,
                   help="JSON component tuples (array, or array pair for add/mul)")
    _add_shared(w, "json")
    w.set_defaults(fn=_cmd_witt)

    m = subs.add_parser("mackey", help="cyclic Mackey functors")
    m.add_argument("verb", choices=("build", "validate", "resolve", "boxperm",
                                    "q", "witt-basechange"))
    m.add_argument("--kind", choices=tuple(_MACKEY_KINDS), default="constant")
    m.add_argument("--p", type=int, default=2)
    m.add_argument("--n", type=int, default=1)
    m.add_argument("--r", type=int, default=2, help="resolve only")
    m.add_argument("--h", type=int, default=0, help="orbit stabilizer level")
    m.add_argument("--k", type=int, default=0, help="boxperm orbit level")
    m.add_argument("--orbits", default=None, help="comma-separated orbit levels")
    _add_shared(m, "json")
    m.set_defaults(fn=_cmd_mackey)

    pw = subs.add_parser("polywitt", help="polynomial Witt vector pipelines")
    pw.add_argument("verb", choices=("compare",))
    pw.add_argument("--p", type=int, required=True)
    pw.add_argument("--d", type=int, required=True)
    pw.add_argument("--r", type=int, required=True)
    _add_shared(pw, "json", "cap", "timings")
    pw.set_defaults(fn=_cmd_polywitt)

    d = subs.add_parser("drw", help="truncated de Rham-Witt towers")
    d.add_argument("verb", choices=("build", "check"))
    d.add_argument("--p", type=int, required=True)
    d.add_argument("--r", type=int, required=True)
    d.add_argument("--vars", type=int, default=1)
    d.add_argument("--weight-cap", type=int, default=8)
    d.add_argument("--base", choices=("fp", "zpN"), default="fp",
                   help="zpN emits the degree-zero weight pieces over Z/p^N")
    d.add_argument("--char-exp", type=int, default=2,
                   help="N for --base zpN")
    _add_shared(d, "json", "seed")
    d.set_defaults(fn=_cmd_drw)

    t = subs.add_parser("trace", help="trace exchange axioms")
    t.add_argument("verb", choices=("check",))
    t.add_argument("--theory", choices=("orbit", "raw", "polywitt"),
                   required=True)
    t.add_argument("--p", type=int, default=2,
                   help="base characteristic (0 for the integers)")
    t.add_argument("--r", type=int, default=2, help="polywitt truncation")
    t.add_argument("--m", type=int, default=2, help="tensor power")
    t.add_argument("--rank-cap", type=int, default=2)
    _add_shared(t, "json", "seed")
    t.set_defaults(fn=_cmd_trace)

    r = subs.add_parser("run", help="verification suites")
    r.add_argument("suite", nargs="+",
                   help=f"one or more of: {', '.join(SUITE_IDS)}, all")
    r.add_argument("--p", default=None, help="grid filter, e.g. 2 or 2..3")
    r.add_argument("--d", default=None)
    r.add_argument("--r", default=None)
    r.add_argument("--m", default=None)
    r.add_argument("--csv", metavar="PATH", default=None)
    _add_shared(r, "json", "seed", "cap", "timings")
    r.set_defaults(fn=_cmd_run)

    return top


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (MackeyError, SaturationError, AssertionError, ArithmeticError) as exc:
        # a failed Mackey axiom, a tower without a fixpoint or with an
        # operator that does not descend, an internal invariant or an
        # inexact division in the Witt recursion: a check failed, not the
        # input (MackeyError is a ValueError, so it is caught first)
        return _check_failed(exc)
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
