#!/usr/bin/env bash
# Byte-compare nine bromell CLI runs between a git revision and the working tree.
#
#   tools/compare_cli.sh <rev>
#
# <rev> is exported with `git archive` into a fresh temporary directory
# (under $TMPDIR, default /tmp), so no worktree is registered and an
# interrupted run leaves nothing behind in the repository. Every run uses one
# BLAS thread on both sides, because the thread count changes round-off.
# Each run keeps its output files, its stdout (with the output directory
# replaced by OUT, the only difference allowed), its stderr and its exit
# code; the two sides are then compared with `diff -r`.
#
# Exit status: 0 when every file is identical, 1 when any differs, 2 on a
# usage or export error.
set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: $0 <rev>" >&2
    exit 2
fi
repo=$(git -C "$(dirname "$0")/.." rev-parse --show-toplevel)
rev=$(git -C "$repo" rev-parse --verify "$1^{commit}") || exit 2
work=$(mktemp -d "${TMPDIR:-/tmp}/compare_cli.XXXXXX")
trap 'rm -rf "$work"' EXIT
mkdir "$work/base" "$work/out-base" "$work/out-work"
git -C "$repo" archive "$rev" src | tar -x -C "$work/base"

# The ninth run reads its settings from this file. Its --grid flag overrides
# the file's grid, which moves the contour away from bs-solve's.
cat >"$work/bs.conf" <<'CONF'
# bs-solve's settings, validated
problem=bs
t=1
tol=5e-6
zl=-40
zr=0.05
grid=30
validate=true
CONF

CD="--problem cd:d=400,n=64 --t 1 --tol 5e-8 --zl -40"
BS="--problem bs --t 1 --tol 5e-6 --zl -40"
WIN="--problem bs --t0 1 --t1 10 --tol 5e-8"
RUNS=(
    "cd-solve|solve $CD --zr 0.09 --grid 40 --validate"
    "cd-convergence|convergence $CD --zr 0.09 --grid 30 --validate"
    "bs-solve|solve $BS --zr 0.05 --grid 30 --validate"
    "bs-window|window $WIN --times 1,2,5,10"
    "bs-window-validate|window $WIN --times 1,10 --validate"
    "bs-pseudo|pseudo $BS --zr 0.05 --grid 50"
    "bs-solve-default-zr|solve $BS --grid 30"
    "cd-solve-default-zr|solve $CD --grid 40"
    "bs-solve-config|solve --config $work/bs.conf --grid 40"
)

run_side() {  # run_side <src dir> <output root>
    local src=$1 root=$2 entry name args out status
    for entry in "${RUNS[@]}"; do
        name=${entry%%|*}
        args=${entry#*|}
        out="$root/$name"
        mkdir "$out"
        status=0
        # shellcheck disable=SC2086  # args is a word list
        OPENBLAS_NUM_THREADS=1 PYTHONPATH="$src" python3 -m bromell.cli $args --out "$out" \
            >"$root/$name.stdout" 2>"$root/$name.stderr" || status=$?
        sed -i "s|$out|OUT|g" "$root/$name.stdout"
        echo "$status" >"$root/$name.exit"
        echo "  $name: exit $status"
    done
}

echo "$rev:"
run_side "$work/base/src" "$work/out-base"
echo "working tree:"
run_side "$repo/src" "$work/out-work"

if diff -r "$work/out-base" "$work/out-work"; then
    echo "identical: $(find "$work/out-base" -type f | wc -l) files"
else
    echo "outputs differ" >&2
    exit 1
fi
