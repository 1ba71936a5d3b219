"""Spans around wittnorm's public functions, recorded from outside src/.

Tracer.install() replaces each function named in LAYERS by a wrapper.  A
module-level function is rebound in every wittnorm module that imported
it by name, so calls through `from .intlinalg import kernel_basis` are
seen as well; a method is replaced on its class.  Each call records one
span (id, parent id, name, start, end) and adds to its name's totals:
calls, self time (duration minus the time of its direct child spans) and
the sizes listed for it.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import json
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

SizeFn = Callable[[tuple, dict, object], Dict[str, int]]


def _snf_sizes(args, kwargs, result):
    m = args[0]
    return {"cells": m.rows * m.cols, "nnz": m.nnz()}


def _insert_sizes(args, kwargs, result):
    return {"rows_offered": len(args[1]), "rows_kept": len(result)}


# (module, attribute path, span name, sizes recorded per call)
LAYERS: List[Tuple[str, str, str, Optional[SizeFn]]] = [
    ("intlinalg", "smith_normal_form", "intlinalg.smith_normal_form", _snf_sizes),
    ("intlinalg", "solve_int", "intlinalg.solve", lambda a, k, res: {"rhs": 1}),
    ("intlinalg", "solve_int_matrix", "intlinalg.solve", lambda a, k, res: {"rhs": a[1].cols}),
    ("intlinalg", "kernel_basis", "intlinalg.kernel_basis", None),
    ("abgroups", "present_quotient", "abgroups.present_quotient", lambda a, k, res: {"dim": a[0]}),
    ("abgroups", "induced_hom", "abgroups.induced_hom", None),
    ("abgroups", "GroupHom.__init__", "abgroups.GroupHom.init", None),
    ("mackey", "express_via", "mackey.express_via", None),
    ("mackey", "express_matrix_via", "mackey.express_matrix_via", lambda a, k, res: {"cols": a[1].cols}),
    ("mackey", "fixed_point_mackey", "mackey.fixed_point_mackey", None),
    ("mackey", "base_change_to_witt", "mackey.base_change_to_witt", None),
    ("mackey", "validate_mackey", "mackey.validate_mackey", None),
    ("polywitt", "norm_over_W", "polywitt.norm_over_W", None),
    ("polywitt", "tate_h0", "polywitt.tate_h0", None),
    ("polywitt", "tensor_power_action", "polywitt.tensor_power_action", None),
    ("drw", "build_drw", "drw.build_drw", None),
    ("drw", "LatticeModQ.insert_batch", "drw.LatticeModQ.insert_batch", _insert_sizes),
    ("drw", "SymbolCalculus.canon", "drw.SymbolCalculus.canon", None),
    ("drw", "present_quotient_ppower", "drw.present_quotient_ppower", None),
    ("drw", "check_fv_axioms", "drw.check_fv_axioms", None),
    ("witt", "WittRing.add", "witt.WittRing.add", None),
    ("witt", "WittRing.mul", "witt.WittRing.mul", None),
    ("witt", "WittRing.frobenius", "witt.WittRing.frobenius", None),
    ("witt", "get_table", "witt.get_table", None),
    ("rings", "poly_mul", "rings.poly_mul", None),
    ("rings", "PadicPolyCover.mul", "rings.PadicPolyCover.mul", None),
    ("suites", "run_suite", "suites.run_suite", None),
]

# The per-layer metrics a traced run prints, as "<span name>.<field>";
# "s" is self time in seconds, every other field is a count.
REPORTED: Dict[str, Tuple[str, ...]] = {
    "intlinalg.smith_normal_form": ("calls", "s", "cells", "nnz"),
    "intlinalg.solve": ("calls", "s", "rhs"),
    "intlinalg.kernel_basis": ("calls", "s"),
    "abgroups.present_quotient": ("calls", "s", "dim"),
    "abgroups.induced_hom": ("calls", "s"),
    "abgroups.GroupHom.init": ("calls", "s"),
    "mackey.express_via": ("calls", "s"),
    "mackey.express_matrix_via": ("calls", "s", "cols"),
    "mackey.fixed_point_mackey": ("s",),
    "mackey.base_change_to_witt": ("s",),
    "mackey.validate_mackey": ("s",),
    "polywitt.norm_over_W": ("calls", "s"),
    "polywitt.tate_h0": ("calls", "s"),
    "polywitt.tensor_power_action": ("calls",),
    "drw.build_drw": ("s",),
    "drw.LatticeModQ.insert_batch": ("calls", "s", "rows_offered", "rows_kept"),
    "drw.SymbolCalculus.canon": ("calls", "s"),
    "drw.present_quotient_ppower": ("calls", "s"),
    "drw.check_fv_axioms": ("s",),
    "witt.WittRing.add": ("calls", "s"),
    "witt.WittRing.mul": ("calls", "s"),
    "witt.WittRing.frobenius": ("calls", "s"),
    "rings.poly_mul": ("calls", "s"),
    "rings.PadicPolyCover.mul": ("calls", "s"),
    "suites.run_suite": ("s",),
}


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self._name_idx: Dict[str, int] = {}
        self.spans: List[Tuple[int, int, int, float, float]] = []
        self.totals: Dict[str, Dict[str, float]] = {}
        self._stack: List[List] = []  # [span id, time covered by children]
        self._ids = itertools.count(1)
        self._originals: List[Tuple[object, str, object]] = []

    def span(self, name: str, fn: Callable, sizes: Optional[SizeFn] = None) -> Callable:
        """fn wrapped so that each call records a span under name."""
        if name not in self._name_idx:
            self._name_idx[name] = len(self.names)
            self.names.append(name)
            self.totals[name] = {"calls": 0, "s": 0.0}
        idx = self._name_idx[name]
        totals = self.totals[name]
        spans = self.spans
        stack = self._stack
        ids = self._ids
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1][0] if stack else 0
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                spans.append((sid, parent, idx, t0, t1))
                totals["calls"] += 1
                totals["s"] += dur - frame[1]
            if sizes is not None:
                for key, val in sizes(args, kwargs, result).items():
                    totals[key] = totals.get(key, 0) + val
            return result

        return functools.wraps(fn)(traced)

    def install(self) -> None:
        """Wrap every LAYERS entry, importing the modules that hold them."""
        for mod_name, _, _, _ in LAYERS:
            importlib.import_module(f"wittnorm.{mod_name}")
        mods = [m for n, m in sorted(sys.modules.items())
                if n == "wittnorm" or n.startswith("wittnorm.")]
        for mod_name, path, name, sizes in LAYERS:
            home = sys.modules[f"wittnorm.{mod_name}"]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(home, cls_name)
                orig = cls.__dict__[attr]
                self._patch(cls, attr, self.span(name, orig, sizes))
                continue
            orig = getattr(home, path)
            wrapped = self.span(name, orig, sizes)
            for mod in mods:
                if getattr(mod, path, None) is orig:
                    self._patch(mod, path, wrapped)

    def _patch(self, owner, attr: str, new) -> None:
        self._originals.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._originals):
            setattr(owner, attr, orig)
        self._originals.clear()

    def reported(self) -> Dict[str, Dict[str, object]]:
        out = {}
        for name, fields in REPORTED.items():
            for field in fields:
                out[f"{name}.{field}"] = {"value": self.totals.get(name, {}).get(field, 0),
                                          "unit": "s" if field == "s" else "count"}
        return out

    def write(self, path: str, extra: dict) -> None:
        """extra, the totals and the spans as gzipped JSON.

        A span is [id, parent id (0 for none), index into names, start, end].
        """
        doc = dict(extra)
        doc["names"] = self.names
        doc["totals"] = self.totals
        doc["spans"] = [[sid, parent, idx, round(t0, 7), round(t1, 7)]
                        for sid, parent, idx, t0, t1 in self.spans]
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
