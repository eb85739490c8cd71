#!/usr/bin/env bash
# Compare the run artifacts of the working tree with those of revision REV.
#
#   scripts/compare_outputs.sh REV [CONFIG...]
#
# The src/ of REV is extracted with `git archive` into a temporary
# directory, removed on exit.  Each CONFIG, a bundled config name such as
# mfg1d_gp or a path to a JSON config (default: every bundled config), runs
# in both trees through `python -m mfgsolvers run`, each tree on its own
# src/ and with one BLAS thread.  A bundled name runs each tree's own config
# of that name.  Prints one identical/differs line per config and artifact;
# under a differing artifact, one line per numeric field (a column of
# loss_history.csv or solution_grid.csv) with its largest relative
# difference |a - b| / max(|a|, |b|) and its largest absolute one.  Exits 1
# on any difference or failed run.
set -euo pipefail
if [ $# -lt 1 ]; then
  echo "usage: $0 REV [CONFIG...]" >&2
  exit 2
fi
rev=$1
shift
here=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base"
git -C "$here" archive "$rev" src | tar -x -C "$tmp/base"

configs=("$@")
if [ ${#configs[@]} -eq 0 ]; then
  for f in "$here"/src/mfgsolvers/configs/*.json; do
    configs+=("$(basename "$f" .json)")
  done
fi
export MFG_THREADS=1 OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1

# run TREE CONFIG OUTDIR: one `mfgsolvers run` on TREE's src, from a neutral directory
run() {
  local cfg=$2
  [ -f "$cfg" ] || cfg=$1/src/mfgsolvers/configs/$2.json
  (cd "$tmp" && PYTHONPATH="$1/src" python -m mfgsolvers run "$cfg" --output-dir "$3" >"$3.log" 2>&1)
}

# field_diffs A B: the largest relative and absolute difference of each
# numeric field of two error_report.json files, or of each column of two CSV
# artifacts
field_diffs() {
  python - "$1" "$2" <<'PY'
import csv
import json
import sys


def fields(path):
    """Numeric fields of an artifact, each a list of values."""
    if path.endswith(".json"):
        with open(path) as f:
            data = json.load(f)
        return {k: [v] for k, v in data.items() if isinstance(v, (int, float))}
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    return {k: [float(r[k]) for r in rows] for k in (rows[0] if rows else {})}


a, b = fields(sys.argv[1]), fields(sys.argv[2])
for name, xs in a.items():
    ys = b.get(name)
    if ys is None or len(ys) != len(xs):
        print(f"  {name}: not comparable (missing, or a different row count)")
        continue
    rel = ab = 0.0
    for x, y in zip(xs, ys):
        d = abs(x - y)
        ab = max(ab, d)
        if d:
            rel = max(rel, d / max(abs(x), abs(y)))
    print(f"  {name}: max rel diff {rel:.3g}, max abs diff {ab:.3g}")
PY
}

status=0
for config in "${configs[@]}"; do
  name=$(basename "$config" .json)
  [ -f "$config" ] && config=$(cd "$(dirname "$config")" && pwd)/$(basename "$config")
  ok=1
  for side in base head; do
    tree=$here
    [ "$side" = base ] && tree=$tmp/base
    if ! run "$tree" "$config" "$tmp/$side-$name"; then
      echo "$name: run failed at $side ($rev is base):" >&2
      tail -n 5 "$tmp/$side-$name.log" >&2
      ok=0
    fi
  done
  if [ $ok = 0 ]; then
    status=1
    continue
  fi
  for artifact in error_report.json loss_history.csv solution_grid.csv; do
    if cmp -s "$tmp/base-$name/$artifact" "$tmp/head-$name/$artifact"; then
      echo "$name $artifact identical"
    else
      echo "$name $artifact differs"
      status=1
      field_diffs "$tmp/base-$name/$artifact" "$tmp/head-$name/$artifact" || true
    fi
  done
done
exit $status
