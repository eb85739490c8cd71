"""Field-by-field differences of two run artifacts of the same kind.

    python scripts/artifact_diff.py A B [--rtol R] [--atol T]

A and B are two ``error_report.json`` files or two CSV artifacts
(``loss_history.csv``, ``solution_grid.csv``, ``timing.csv``).  Prints one
line per numeric field (a JSON number, or a CSV column whose every cell is
a number) with its largest relative difference |a - b| / max(|a|, |b|) and
its largest absolute one.  Exits 0 when the non-numeric content (JSON
strings and nulls, the CSV header, row count and the columns holding a cell
that is not a number, such as timing.csv's ``method``) is equal and every
pair of values satisfies |a - b| <= T + R max(|a|, |b|);
otherwise the exit status is 1.  A field outside the tolerance is marked
"exceeds".  Both tolerances default to 0, which asks for equal values.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys


def read_fields(path: str):
    """(numeric fields, each a list of values; the other content) of an artifact."""
    if path.endswith(".json"):
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
        numeric = {
            k: [v] for k, v in data.items() if isinstance(v, (int, float)) and not isinstance(v, bool)
        }
        return numeric, {k: v for k, v in data.items() if k not in numeric}
    with open(path, newline="", encoding="utf-8") as f:
        header, *rows = list(csv.reader(f)) or [[]]
    columns, text = {}, {}
    for i, name in enumerate(header):
        cells = [row[i] for row in rows]
        try:
            columns[name] = [float(cell) for cell in cells]
        except ValueError:
            text[name] = cells
    return columns, (header, len(rows), text)


def field_diff(xs, ys, rtol: float, atol: float):
    """(largest relative difference, largest absolute one, whether every pair is within tolerance)."""
    rel = ab = 0.0
    ok = True
    for x, y in zip(xs, ys):
        if x == y:
            continue
        d = abs(x - y)
        scale = max(abs(x), abs(y))
        ab = max(ab, d)
        rel = max(rel, d / scale)
        ok = ok and d <= atol + rtol * scale  # False for a NaN on one side
    return rel, ab, ok


def compare(path_a: str, path_b: str, rtol: float = 0.0, atol: float = 0.0) -> bool:
    """Print the differences of two artifacts; whether they agree within the tolerance."""
    (a, rest_a), (b, rest_b) = read_fields(path_a), read_fields(path_b)
    ok = rest_a == rest_b
    if not ok:
        print("  non-numeric content differs")
    for name in [*a, *(k for k in b if k not in a)]:
        xs, ys = a.get(name), b.get(name)
        if xs is None or ys is None or len(xs) != len(ys):
            print(f"  {name}: not comparable (missing, or a different row count)")
            ok = False
            continue
        rel, ab, within = field_diff(xs, ys, rtol, atol)
        mark = "" if within else "  exceeds"
        print(f"  {name}: max rel diff {rel:.3g}, max abs diff {ab:.3g}{mark}")
        ok = ok and within
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a")
    parser.add_argument("b")
    parser.add_argument("--rtol", type=float, default=0.0)
    parser.add_argument("--atol", type=float, default=0.0)
    args = parser.parse_args(argv)
    if not (args.rtol >= 0 and args.atol >= 0):
        parser.error("--rtol and --atol must be nonnegative numbers")
    return 0 if compare(args.a, args.b, args.rtol, args.atol) else 1


if __name__ == "__main__":
    sys.exit(main())
