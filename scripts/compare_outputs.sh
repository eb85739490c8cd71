#!/usr/bin/env bash
# Compare the run artifacts of the working tree with those of revision REV.
#
#   scripts/compare_outputs.sh REV [CONFIG...]
#
# REV is checked out in a temporary git worktree, removed on exit.  Each
# CONFIG, a bundled config name such as mfg1d_gp or a path to a JSON config
# (default: every bundled config), runs in both trees through
# `python -m mfgsolvers run`, each tree on its own src/ and with one BLAS
# thread.  A bundled name runs each tree's own config of that name.  Prints
# one identical/differs line per config and artifact and exits 1 on any
# difference or failed run.
set -euo pipefail
if [ $# -lt 1 ]; then
  echo "usage: $0 REV [CONFIG...]" >&2
  exit 2
fi
rev=$1
shift
here=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d)
cleanup() {
  git -C "$here" worktree remove --force "$tmp/base" 2>/dev/null || true
  rm -rf "$tmp"
}
trap cleanup EXIT
git -C "$here" worktree add --detach --quiet "$tmp/base" "$rev"

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
    fi
  done
done
exit $status
