"""One contour for a whole time interval, with shared factorizations.

A single plan on [1, 10] prices the call curve at several maturities; the
shifted solves are done once and reused at every later time, so each extra
maturity costs only exponential re-weighting.

Run:  python3 demos/time_window_reuse.py
"""

import bromell as bm

problem = bm.black_scholes_problem()
t0, t1, tol = 1.0, 10.0, 5e-8

plan = bm.plan_window(problem, t0, t1, tol, bm.SolveOptions(grid_pts=50, validate=True))
print(f"window [{t0:g}, {t1:g}], tol {tol:g}")
print(f"contour: a = {plan.contour.a:.4f}, shared grid width c = {plan.c_grid:.4f}, "
      f"{plan.n_nodes} nodes")
print(f"endpoint truncations: c0 = {plan.trunc0.c:.4f} (K0 = {plan.trunc0.K:.1f}), "
      f"c1 = {plan.trunc1.c:.4f} (K1 = {plan.trunc1.K:.1f})")

print(f"\n{'t':>6} {'c_t':>8} {'K_t':>10} {'N':>5} {'error':>11} {'new solves':>11}")
for t in (1.0, 2.0, 3.0, 5.0, 7.0, 10.0):
    before = plan.cache.solve_count
    rep = bm.solve_at(plan, problem, t)
    print(
        f"{t:6.1f} {rep.truncation.c:8.4f} {rep.truncation.K:10.2f} "
        f"{rep.result.N:5d} {rep.reference_error:11.3e} {plan.cache.solve_count - before:11d}"
    )
print(f"\ntotal solves: {plan.cache.solve_count}, reused node values: {plan.cache.reuse_count}")
