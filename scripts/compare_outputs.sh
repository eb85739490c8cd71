#!/usr/bin/env bash
# Compare the run artifacts of the working tree with those of revision REV.
#
#   scripts/compare_outputs.sh [--rtol R] [--atol A] REV [CONFIG...]
#
# The src/ of REV is extracted with `git archive` into a temporary
# directory, removed on exit.  Each CONFIG, a bundled config name such as
# mfg1d_gp or a path to a JSON config (default: every bundled config), runs
# in both trees through `python -m mfgsolvers run`, each tree on its own
# src/ and with one BLAS thread.  A bundled name runs each tree's own config
# of that name.  Prints one line per config and artifact: identical, within
# tolerance, or differs; under an artifact that is not identical, one line
# per numeric field (a column of loss_history.csv or solution_grid.csv)
# with its largest relative difference |a - b| / max(|a|, |b|) and its
# largest absolute one (scripts/artifact_diff.py).  Before those, one line
# per config gives each tree's peak RSS in MiB (the run's ru_maxrss, read
# by a small Python parent through RUSAGE_CHILDREN) and wall seconds; these
# are for information only and never change the exit status.
#
# Without --rtol and --atol, exits 1 on any byte difference or failed run.
# With either of them (the other defaults to 0), an artifact that differs
# passes when its non-numeric content is equal and every numeric field
# satisfies |a - b| <= A + R max(|a|, |b|); a field that does not is marked
# "exceeds", and the script exits 1.
set -euo pipefail
usage() {
  echo "usage: $0 [--rtol R] [--atol A] REV [CONFIG...]" >&2
  exit 2
}
tolerance=()
while [ $# -gt 0 ]; do
  case $1 in
    --rtol | --atol)
      # a nonnegative decimal number, such as 0, 1e-9 or 2.5E-12
      [[ $# -ge 2 && $2 =~ ^([0-9]+\.?[0-9]*|\.[0-9]+)([eE][-+]?[0-9]+)?$ ]] || usage
      tolerance+=("$1" "$2")
      shift 2
      ;;
    -*) usage ;;
    *) break ;;
  esac
done
[ $# -ge 1 ] || usage
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

# USAGE_FILE COMMAND...: run COMMAND, write "<peak RSS MiB> <wall s>" to
# USAGE_FILE and exit with its status.  The child's ru_maxrss starts from
# the parent's at the fork; the parent imports no numpy, so that floor is a
# bare interpreter's.
measure='import resource, subprocess, sys, time
start = time.perf_counter()
code = subprocess.call([sys.executable, *sys.argv[2:]])
wall = time.perf_counter() - start
rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
with open(sys.argv[1], "w") as fh:
    fh.write(f"{rss:.1f} {wall:.2f}\n")
sys.exit(code)'

# run TREE CONFIG OUTDIR: one `mfgsolvers run` on TREE's src, from a neutral
# directory; its peak RSS and wall time go to OUTDIR.usage
run() {
  local cfg=$2
  [ -f "$cfg" ] || cfg=$1/src/mfgsolvers/configs/$2.json
  (cd "$tmp" && PYTHONPATH="$1/src" python -c "$measure" "$3.usage" \
    -m mfgsolvers run "$cfg" --output-dir "$3" >"$3.log" 2>&1)
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
  if [ -f "$tmp/base-$name.usage" ] && [ -f "$tmp/head-$name.usage" ]; then
    read -r base_rss base_wall <"$tmp/base-$name.usage"
    read -r head_rss head_wall <"$tmp/head-$name.usage"
    echo "$name peak RSS base $base_rss MiB, head $head_rss MiB; wall base $base_wall s, head $head_wall s"
  fi
  if [ $ok = 0 ]; then
    status=1
    continue
  fi
  for artifact in error_report.json loss_history.csv solution_grid.csv; do
    if cmp -s "$tmp/base-$name/$artifact" "$tmp/head-$name/$artifact"; then
      echo "$name $artifact identical"
      continue
    fi
    diffs=0
    python "$here/scripts/artifact_diff.py" "$tmp/base-$name/$artifact" \
      "$tmp/head-$name/$artifact" ${tolerance[@]+"${tolerance[@]}"} >"$tmp/diffs" || diffs=$?
    if [ ${#tolerance[@]} -gt 0 ] && [ $diffs = 0 ]; then
      echo "$name $artifact within tolerance"
    else
      echo "$name $artifact differs"
      status=1
    fi
    cat "$tmp/diffs"
  done
done
exit $status
