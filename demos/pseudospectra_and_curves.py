"""Resolvent-norm landscape, level curves, and the contour that comes out.

Writes the grid, both level curves, the critical curve and the two contours
as CSV (plot them with any external tool), then prints a coarse ASCII sketch
of the weighted level curve and the bounding ellipse.

Run:  python3 demos/pseudospectra_and_curves.py [outdir]
"""

import pathlib
import sys

import numpy as np

import bromell as bm
from bromell import pseudospectra

out = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else "pseudo_out")
out.mkdir(parents=True, exist_ok=True)

problem = bm.black_scholes_problem()
t, tol = 1.0, 5e-6
prep = bm.prepare_contour(problem, t, t, tol, bm.SolveOptions(z_l=-40.0, z_r=0.05, grid_pts=60))

pseudospectra.grid_to_csv(prep.grid, out / "grid.csv")
pseudospectra.curve_to_csv(prep.c1, out / "curve_weighted.csv")
pseudospectra.curve_to_csv(prep.c2, out / "curve_plain.csv")
pseudospectra.curve_to_csv(prep.critical, out / "curve_critical.csv")
ellipse = prep.inner.boundary_points(361)
np.savetxt(
    out / "gamma_plus.csv",
    np.column_stack((ellipse.real, ellipse.imag)),
    delimiter=",",
    header="x,y",
    comments="",
)
arc = prep.contour.arc_points(361)
np.savetxt(
    out / "gamma.csv",
    np.column_stack((arc.real, arc.imag)),
    delimiter=",",
    header="x,y",
    comments="",
)
print(f"CSV written to {out}/")

# ASCII sketch: '#' critical curve, 'o' bounding ellipse, '*' integration arc
cols, rows = 72, 20
xs = np.linspace(prep.inner.z_l, prep.contour.A1 + prep.contour.A3 + 1.0, cols)
ymax = 1.1 * max(prep.critical.ys.max(), prep.inner.semi_minor, prep.contour.A2)
canvas = [[" "] * cols for _ in range(rows)]


def put(x, y, ch):
    ix = int((x - xs[0]) / (xs[-1] - xs[0]) * (cols - 1))
    iy = rows - 1 - int(y / ymax * (rows - 1))
    if 0 <= ix < cols and 0 <= iy < rows:
        canvas[iy][ix] = ch


for x, y in zip(prep.critical.xs, prep.critical.ys):
    put(x, y, "#")
for p in prep.inner.boundary_points(200):
    if p.imag >= 0:
        put(p.real, p.imag, "o")
for p in arc:
    if p.imag >= 0:
        put(p.real, p.imag, "*")
print("\n".join("".join(row) for row in canvas))
print(f"x in [{xs[0]:.1f}, {xs[-1]:.1f}], y in [0, {ymax:.2f}]  "
      "(#: critical curve, o: bounding ellipse, *: integration arc)")
