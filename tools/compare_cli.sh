#!/usr/bin/env bash
# Byte-compare nineteen bromell CLI runs between a git revision and the working tree.
#
#   tools/compare_cli.sh <rev>
#
# <rev> is exported with `git archive` into a fresh temporary directory
# (under $TMPDIR, default /tmp), so no worktree is registered and an
# interrupted run leaves nothing behind in the repository. Every run uses one
# BLAS thread on both sides, because the thread count changes round-off.
# Each run keeps its output files, its stdout (with the output directory
# replaced by OUT, the only difference allowed), its stderr and its exit
# code. The two sides are then compared byte by byte. Each differing file
# is summarised by number: a CSV file (and a report's [errors] table) by the
# largest absolute and relative change per column, a one-value-per-line
# vector (solution.txt) the same way as one column and by its largest change
# relative to its largest entry, a report.txt by the keys whose values
# changed, and any other file by a short unified diff. When
# bs-pseudo's grid.csv differs, each side's worst node against a dense SVD
# of zI - A is printed as a fraction of the export bound
# 1e-9 sigma + 10 eps ||A||_2 (the working tree's bromell builds A).
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

# The fourteenth run reads this operator: 16 x 16, real and non-normal, with
# 2 x 2 blocks [[re, im], [-im, re]] (re = -1 - k/2, im = 1 + 0.4 k for
# k = 0, 2, ..., 14) and 30 on the second superdiagonal. Its eigenvalues reach
# Im 6.6, so the grid's lowest twelve upper rows lie below one of them.
awk 'BEGIN {
    print "%%MatrixMarket matrix coordinate real general"
    print "16 16 46"
    for (k = 0; k < 16; k += 2) {
        re = -1 - k / 2; im = 1 + 0.4 * k; i = k + 1  # rows count from 1
        printf "%d %d %.17g\n%d %d %.17g\n", i, i, re, i, i + 1, im
        printf "%d %d %.17g\n%d %d %.17g\n", i + 1, i, -im, i + 1, i + 1, re
    }
    for (i = 1; i <= 14; i++) print i, i + 2, 30
}' >"$work/block.mtx"
printf '1\n%.0s' $(seq 16) >"$work/block_u0.txt"

# The fifteenth and sixteenth runs read the 2 x 2 operator [[-1, 2], [-2, -1]],
# whose eigenvalues -1 +- 2i lie outside the circle about z_l that the default
# z_r allows, and u0 = (1, 0.5).
awk 'BEGIN {
    print "%%MatrixMarket matrix coordinate real general"
    print "2 2 4"
    print "1 1 -1\n1 2 2\n2 1 -2\n2 2 -1"
}' >"$work/rotation.mtx"
printf '1\n0.5\n' >"$work/rotation_u0.txt"

CD="--problem cd:d=400,n=64 --t 1 --tol 5e-8 --zl -40"
BS="--problem bs --t 1 --tol 5e-6 --zl -40"
WIN="--problem bs --t0 1 --t1 10 --tol 5e-8"
# The tenth run's tolerance is below the round-off forecast: solve stops at
# the feasibility check and the CLI exits 2 with a report and no quadrature.
# The eleventh run parses non-default problem parameters. The twelfth leaves
# out --times, so window samples its five default times (numpy floats). The
# thirteenth is perfbench's window plan (grid 50), whose t=10 end the
# plan's round-off margin moves. The fourteenth's grid has rows below an
# eigenvalue, which the grid walks up without leaving a column early. The
# fifteenth stops at the inner-ellipse stage, and the sixteenth, without
# --u0, has zero data and stops before any stage. In the seventeenth, at tol
# 1e-10, the round-off margin lowers a and the plan's condition estimates
# reach 5.5e3. The last two run out of node budget and exit 1: the
# eighteenth sums rules 7 and 14 and stops before 28 > 20, and the
# nineteenth caps each time's first rule at 100 of the plan's 164 nodes.
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
    "cd-solve-infeasible|solve --problem cd:d=400,n=64 --t 1 --tol 1e-13 --zl -40 --zr 0.09 --grid 30"
    "bs-solve-params|solve --problem bs:n=120,sigma=0.1,K=90 --t 1 --tol 5e-6 --zl -40 --grid 30 --validate"
    "bs-window-default-times|window $WIN"
    "bs-window-grid50|window $WIN --grid 50 --times 1,10 --validate"
    "block-pseudo|pseudo --problem file --matrix $work/block.mtx --u0 $work/block_u0.txt --t 1 --tol 1e-8 --zr 0.5 --eps1 1e-6 --eps2 1e-9 --grid 40"
    "rotation-solve-default-zr|solve --problem file --matrix $work/rotation.mtx --u0 $work/rotation_u0.txt --t 1 --tol 1e-8"
    "rotation-solve-zero-data|solve --problem file --matrix $work/rotation.mtx --t 1 --tol 1e-8 --zr 0.5"
    "bs-window-tol1e-10|window --problem bs --t0 1 --t1 10 --tol 1e-10 --grid 50 --times 1,10"
    "cd-convergence-nmax|convergence $CD --zr 0.09 --grid 30 --validate --nmax 20"
    "bs-window-nmax|window $WIN --times 1,10 --nmax 100"
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

OPENBLAS_NUM_THREADS=1 python3 - "$work/out-base" "$work/out-work" "$repo/src" <<'PY'
import difflib
import math
import sys
from pathlib import Path

base, work = Path(sys.argv[1]), Path(sys.argv[2])
sys.path.insert(0, sys.argv[3])


def files(root):
    return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}


def table_changes(old, new):
    """Largest absolute and relative change per column of two CSV line lists."""
    if old[:1] != new[:1] or len(old) != len(new):
        return [f"    header or row count differs ({len(old)} vs {len(new)} lines)"]
    out = []
    rows_old = [line.split(",") for line in old[1:]]
    rows_new = [line.split(",") for line in new[1:]]
    for col, name in enumerate(old[0].split(",")):
        worst_abs = worst_rel = 0.0
        rows = 0
        for a, b in zip(rows_old, rows_new):
            if a[col] == b[col]:
                continue
            rows += 1
            x, y = float(a[col]), float(b[col])
            if math.isnan(x) or math.isnan(y):
                worst_abs = worst_rel = math.nan
                continue
            d = abs(y - x)
            worst_abs = max(worst_abs, d)
            worst_rel = max(worst_rel, d / max(abs(x), abs(y)))
        if rows:
            out.append(f"    {name}: {rows} rows, max abs {worst_abs:.3g}, max rel {worst_rel:.3g}")
    return out


def vector_changes(old, new):
    """A one-value-per-line vector as a one-column table, plus its largest
    change over its largest entry: entries near 0 make the per-entry
    relative change large when the vector moved at round-off."""
    out = table_changes(["value"] + old, ["value"] + new)
    if len(old) == len(new):
        x, y = [float(v) for v in old], [float(v) for v in new]
        scale = max(map(abs, x + y))
        worst = max(abs(b - a) for a, b in zip(x, y))
        if scale:  # not only signed zeros
            out.append(f"    value: max abs over largest |value| {worst / scale:.3g}")
    return out


def export_bound_use(sides):
    """Each side's worst node of a Black-Scholes grid.csv against a dense SVD,
    as a fraction of the export bound 1e-9 sigma + 10 eps ||A||_2."""
    import numpy as np
    from bromell.problems import black_scholes_problem

    A = black_scholes_problem().operator.entries
    n = A.shape[0]
    floor = 10 * np.finfo(float).eps * np.linalg.norm(A, 2)
    refs = {}
    out = []
    for side, lines in sides:
        worst = (-1.0, None)
        for line in lines[1:]:
            x, y, s = map(float, line.split(","))
            if (x, y) not in refs:
                refs[x, y] = np.linalg.svd(complex(x, y) * np.eye(n) - A, compute_uv=False)[-1]
            ref = refs[x, y]
            worst = max(worst, (abs(s - ref) / (1e-9 * ref + floor), (x, y)))
        out.append(f"    {side}: worst node x={worst[1][0]:.6g}, y={worst[1][1]:.6g} "
                   f"at {worst[0]:.3g} of the export bound")
    return out


def report_changes(old, new):
    """Changed keys of two report.txt files, then their [errors] tables."""
    def split(lines):
        cut = lines.index("[errors]") if "[errors]" in lines else len(lines)
        keys = dict(line.partition("=")[::2] for line in lines[1:cut] if line)
        return keys, [line for line in lines[cut + 1:] if line]
    (keys_old, table_old), (keys_new, table_new) = split(old), split(new)
    out = [f"    {key}: {keys_old.get(key)} -> {keys_new.get(key)}"
           for key in sorted(keys_old.keys() | keys_new.keys())
           if keys_old.get(key) != keys_new.get(key)]
    if old[:1] != new[:1]:
        out.insert(0, f"    version: {old[:1]} -> {new[:1]}")
    if table_old != table_new:
        out.append("    [errors] table:")
        out += table_changes(table_old, table_new)
    return out


names_base, names_work = files(base), files(work)
differ = 0
for name in sorted(names_base | names_work):
    if name not in names_base or name not in names_work:
        side = "working tree" if name in names_work else "revision"
        print(f"{name}: only in the {side}")
        differ += 1
        continue
    old, new = (base / name).read_bytes(), (work / name).read_bytes()
    if old == new:
        continue
    differ += 1
    old, new = old.decode().splitlines(), new.decode().splitlines()
    print(f"{name}: differs")
    try:
        if name.endswith(".csv"):
            lines = table_changes(old, new)
            if name == "bs-pseudo/grid.csv":
                lines += export_bound_use([("revision", old), ("working tree", new)])
        elif name.endswith("report.txt"):
            lines = report_changes(old, new)
        elif name.endswith("solution.txt"):
            lines = vector_changes(old, new)
        else:
            raise ValueError
    except ValueError:  # not numeric where expected, or not a table at all
        lines = ["    " + line for line in
                 list(difflib.unified_diff(old, new, "revision", "working tree", lineterm=""))[:20]]
    print("\n".join(lines))
if differ:
    print(f"outputs differ: {differ} of {len(names_base | names_work)} files", file=sys.stderr)
    sys.exit(1)
print(f"identical: {len(names_base)} files")
PY
