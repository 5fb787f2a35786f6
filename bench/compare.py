#!/usr/bin/env python3
"""Check two benchmark records for the same results.

    python3 bench/compare.py .bench_out/sweep-seed3-trace0.json other/sweep-seed3-trace0.json

Both records must come from the same workload and seed (for example the
parent commit and a change).  "Same results" follows the ROADMAP: identical
certificate verdicts and counts, sweep max ratios equal to 1e-12, report
energies and oracle errors equal to 1e-8.  Differing CSV bytes are reported
but are not a failure, since reordered floating-point sums change last
digits.  Exits 1 when a result differs.
"""

from __future__ import annotations

import json
import sys

# Relative tolerance per digest field; fields not listed must be equal.
TOLERANCE = {
    "max_ratio": 1e-12,
    "energy": 1e-8,
    "rel_l2": 1e-8,
    "max_abs": 1e-8,
    "fdm_energy": 1e-8,
}
NOTED = {"csv_sha256"}


def _close(a, b, rel):
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k], rel) for k in a)
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return a == b or abs(a - b) <= rel * max(abs(a), abs(b))
    return a == b


def differences(first: dict, second: dict) -> tuple[list[str], list[str]]:
    """(failures, notes) between two records' digests."""
    failures, notes = [], []
    for key in ("workload", "smoke"):
        if first.get(key) != second.get(key):
            failures.append(f"{key}: {first.get(key)!r} vs {second.get(key)!r}")
    if first["environment"]["seed"] != second["environment"]["seed"]:
        failures.append("records come from different seeds")
    a, b = first["digest"], second["digest"]
    for op in sorted(a.keys() | b.keys()):
        if op not in a or op not in b:
            failures.append(f"{op}: missing from one record")
            continue
        for field in sorted(a[op].keys() | b[op].keys()):
            x, y = a[op].get(field), b[op].get(field)
            if field in NOTED:
                if x != y:
                    notes.append(f"{op}.{field} differs")
            elif not _close(x, y, TOLERANCE.get(field, 0.0)):
                failures.append(f"{op}.{field}: {x!r} vs {y!r}")
    return failures, notes


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    records = []
    for path in argv:
        with open(path, encoding="utf-8") as fh:
            records.append(json.load(fh))
    failures, notes = differences(*records)
    for line in notes:
        print(f"note: {line}")
    for line in failures:
        print(f"DIFFERS: {line}")
    print("same results" if not failures else f"{len(failures)} result(s) differ")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
