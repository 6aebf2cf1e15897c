"""End-to-end walkthrough on the convection-diffusion test problem.

u_t = u_xx + u_x on [0, 400] with u(0, t) = 0, u(400, t) = 1 and zero initial
state, discretized by 65-point Chebyshev collocation. The script shows every
pipeline stage explicitly and compares the quadrature against the
matrix-exponential reference at each node count.

Run:  python3 demos/convection_diffusion_walkthrough.py
"""

import numpy as np

import bromell as bm

t, tol = 1.0, 5e-8
problem = bm.canonical_cd_problem(d=400.0, n=64)
print(f"operator: {problem.operator.source_tag} (dim {problem.dim})")
print(f"source poles: {problem.singularities}")

# Stage 1: resolvent-norm landscape and the critical curve.
opts = bm.SolveOptions(z_l=-40.0, z_r=0.09, prec=1e-2)
prep = bm.prepare_contour(problem, t, t, tol, opts)
print(f"\nstrip [{prep.inner.z_l}, {prep.inner.z_r}], grid {prep.grid.spec.n_pts} points per axis")
print(f"bounding ellipse: center {prep.inner.z_l}, vertex {prep.inner.z_r}, "
      f"passing point {prep.inner.d:.4f} + {prep.inner.r:.4f}i")

# Stage 2: the one-parameter contour family, optimized.
params = prep.contour
print(f"strip half-height a = {params.a:.4f}; arc semi-axes "
      f"{params.A1:.2f} x {params.A2:.2f}, growth constant D = {params.D:.3f}")

# Stage 3: truncation point where the integrand falls to tol.
trunc = bm.truncation_fixed_point(problem, params, t, tol, prec=1e-2)
print(f"truncation: c = {trunc.c:.4f}, K = {trunc.K:.4f} "
      f"({trunc.iterations} fixed-point steps)")
print(f"stability constant: {bm.stability_constant(params, trunc.c, t):.3e}")
print(f"feasibility: {bm.feasibility_check(problem, params, trunc.c, t, tol)}")

# Stage 4: trapezoidal refinement with node reuse.
reference = bm.reference_solution(problem, t)
print(f"\npredicted nodes: {bm.predicted_nodes(params.a, trunc.c, params.D, t, tol)}")
print(f"{'N':>4} {'measured':>12} {'model':>12}")
q = bm.trapezoid_sum(problem, params, trunc.c, t, 7)
while True:
    err = np.linalg.norm(q.approx - reference)
    print(f"{q.N:4d} {err:12.3e} {q.est_error:12.3e}")
    if err <= tol or q.N > 200:
        break
    q = bm.refine_doubling(q, problem, params, t)

print(f"\nsolves performed: {q.cache.solve_count} "
      f"(doubling reused {q.cache.reuse_count} earlier node values)")
print(f"final state at x = 200 (grid mid-ish): u = {q.approx[len(q.approx) // 2]:.8f}")
