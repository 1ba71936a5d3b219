"""Deterministic report and value serialization.

Every integer leaf is emitted as a decimal string so arbitrarily large
exact values survive any JSON parser; keys are sorted and records are
sorted by instance key, so reruns with the same seed produce identical
bytes.  Wall times are attached only when explicitly requested, keeping
the default output reproducible.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

from .abgroups import FgAbGroup
from .intlinalg import IntMatrix

SCHEMA_VERSION = "1"


@dataclass
class InstanceRecord:
    key: str
    inputs: Dict[str, object]
    ok: bool
    skipped: bool = False
    witness: Optional[str] = None
    ms: int = 0


@dataclass
class SuiteReport:
    suite: str
    seed: int
    cap: int
    records: List[InstanceRecord] = field(default_factory=list)

    @property
    def passed(self) -> int:
        return sum(1 for r in self.records if r.ok and not r.skipped)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if not r.ok and not r.skipped)

    @property
    def skipped(self) -> int:
        return sum(1 for r in self.records if r.skipped)

    @property
    def total(self) -> int:
        return len(self.records)

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def sort(self) -> None:
        self.records.sort(key=lambda r: r.key)


def _stringify(value):
    """Recursively turn integer leaves into decimal strings."""
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return str(value)
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, (list, tuple)):
        return [_stringify(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _stringify(v) for k, v in value.items()}
    return value


def record_dict(rec: InstanceRecord, timings: bool = False) -> dict:
    out = {
        "key": rec.key,
        "inputs": _stringify(rec.inputs),
        "ok": rec.ok,
        "skipped": rec.skipped,
        "witness": rec.witness,
    }
    if timings:
        out["ms"] = str(rec.ms)
    return out


def report_dict(report: SuiteReport, timings: bool = False) -> dict:
    report.sort()
    return {
        "schema": SCHEMA_VERSION,
        "suite": report.suite,
        "config": {"seed": str(report.seed), "cap": str(report.cap)},
        "records": [record_dict(r, timings) for r in report.records],
        "aggregate": {
            "passed": str(report.passed),
            "failed": str(report.failed),
            "skipped": str(report.skipped),
            "total": str(report.total),
        },
    }


def emit_json(report: SuiteReport, timings: bool = False) -> str:
    return json.dumps(report_dict(report, timings), sort_keys=True, indent=2) + "\n"


def emit_csv(reports: Sequence[SuiteReport], timings: bool = False) -> str:
    buf = io.StringIO()
    cols = ["suite", "key", "ok", "skipped", "witness"] + (["ms"] if timings else [])
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(cols)
    for report in reports:
        report.sort()
        for r in report.records:
            row = [report.suite, r.key, str(r.ok).lower(), str(r.skipped).lower(),
                   r.witness or ""]
            if timings:
                row.append(str(r.ms))
            w.writerow(row)
    return buf.getvalue()


def emit_text(report: SuiteReport, timings: bool = False) -> str:
    report.sort()
    lines = []
    for r in report.records:
        if r.skipped:
            lines.append(f"SKIP {r.key} :: {r.witness or ''}")
        elif r.ok:
            tail = f" [{r.ms} ms]" if timings else ""
            lines.append(f"PASS {r.key}{tail}")
        else:
            lines.append(f"FAIL {r.key} :: {r.witness or ''}")
    lines.append(
        f"suite={report.suite} passed={report.passed} failed={report.failed}"
        f" skipped={report.skipped} total={report.total}"
    )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# value serializers shared by the CLI subcommands


def matrix_json(m: IntMatrix) -> dict:
    rows = [[str(m.entry(i, j)) for j in range(m.cols)] for i in range(m.rows)]
    return {"kind": "integer-matrix", "rows": str(m.rows), "cols": str(m.cols),
            "matrix": rows}


def group_json(g: FgAbGroup) -> dict:
    return {"kind": "abelian-group",
            "invariant_factors": [str(m) for m in g.moduli]}


def mackey_json(m) -> dict:
    return {
        "kind": "cyclic-mackey-functor",
        "p": str(m.p),
        "n": str(m.n),
        "levels": [group_json(g)["invariant_factors"] for g in m.levels],
        "res": [matrix_json(h.matrix)["matrix"] for h in m.res],
        "tr": [matrix_json(h.matrix)["matrix"] for h in m.tr],
        "weyl": [matrix_json(h.matrix)["matrix"] for h in m.weyl],
    }


def base_elt_json(x):
    # base ring elements are ints or coefficient tuples
    if isinstance(x, tuple):
        return [str(c) for c in x]
    return str(x)


def witt_json(w) -> dict:
    return {"kind": "witt-vector", "p": str(w.ring.p), "r": str(w.ring.r),
            "components": [base_elt_json(c) for c in w.components]}


def weight_str(w) -> List[str]:
    return [f"{q.numerator}/{q.denominator}" if q.denominator != 1
            else str(q.numerator) for q in w]


def dumps_value(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
