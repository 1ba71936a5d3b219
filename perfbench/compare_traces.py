"""Check that two traced runs made the same calls.

    python3 perfbench/compare_traces.py FIRST.json.gz SECOND.json.gz

Compares every count the tracer keeps (calls and summed sizes per span
name, and the number of spans under each parent name) and ignores times.
Exits 0 when all counts are identical, 1 otherwise.
"""

import gzip
import json
import sys
from collections import Counter


def counts(path: str) -> dict:
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        doc = json.load(fh)
    names = doc["names"]
    out = {}
    for name, totals in doc["totals"].items():
        for field, val in totals.items():
            if field != "s":
                out[f"{name}.{field}"] = val
    span_name = {sid: names[idx] for sid, _, idx, _, _ in doc["spans"]}
    edges = Counter((span_name.get(parent, "-"), names[idx])
                    for _, parent, idx, _, _ in doc["spans"])
    for (parent, child), n in edges.items():
        out[f"{parent} > {child}"] = n
    return out


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (counts(p) for p in argv)
    diffs = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
    for k in diffs:
        print(f"{k}: {a.get(k)} != {b.get(k)}")
    print(f"{len(a)} counts compared, {len(diffs)} differ")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
