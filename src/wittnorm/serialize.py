"""Deterministic report and value serialization.

Builders return plain values (ints, Fractions, tuples, lists, dicts) and
`dumps_value` alone encodes a document: every integer and rational leaf
becomes a decimal string (`3`, `-3`, `3/2`), so arbitrarily large exact
values survive any JSON parser, and keys are sorted.  Records are sorted
by instance key, so reruns with the same seed produce identical bytes.
Wall times are attached only when explicitly requested, keeping the
default output reproducible.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

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
    """Recursively turn integer and rational leaves into decimal strings."""
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, Fraction)):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_stringify(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _stringify(v) for k, v in value.items()}
    return value


def record_dict(rec: InstanceRecord, timings: bool = False) -> dict:
    out = {
        "key": rec.key,
        "inputs": rec.inputs,
        "ok": rec.ok,
        "skipped": rec.skipped,
        "witness": rec.witness,
    }
    if timings:
        out["ms"] = rec.ms
    return out


def report_dict(report: SuiteReport, timings: bool = False) -> dict:
    report.sort()
    return {
        "schema": SCHEMA_VERSION,
        "suite": report.suite,
        "config": {"seed": report.seed, "cap": report.cap},
        "records": [record_dict(r, timings) for r in report.records],
        "aggregate": {
            "passed": report.passed,
            "failed": report.failed,
            "skipped": report.skipped,
            "total": report.total,
        },
    }


def emit_json(report: SuiteReport, timings: bool = False) -> str:
    return dumps_value(report_dict(report, timings))


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


def mackey_json(m) -> dict:
    return {
        "kind": "cyclic-mackey-functor",
        "p": m.p,
        "n": m.n,
        "levels": [g.moduli for g in m.levels],
        "res": [h.matrix.to_rows() for h in m.res],
        "tr": [h.matrix.to_rows() for h in m.tr],
        "weyl": [h.matrix.to_rows() for h in m.weyl],
    }


def witt_json(w) -> dict:
    # base ring elements are ints or coefficient tuples
    return {"kind": "witt-vector", "p": w.ring.p, "r": w.ring.r,
            "components": w.components}


def dumps_value(doc) -> str:
    """The one encoder of every CLI document: decimal-string numbers,
    sorted keys, two-space indent."""
    return json.dumps(_stringify(doc), sort_keys=True, indent=2) + "\n"
