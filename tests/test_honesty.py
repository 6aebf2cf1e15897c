"""Honesty sweep: unvalidated window claims judged against an independent oracle.

Window plans at grid 50 for bs on [1, 1], [1, 5], [1, 10], [2, 20] and
[0.5, 10], and for cd (z_l -40, z_r 0.09) on [1, 1], [1, 4] and [0.5, 2],
each at tol 5e-6, 5e-8 and 1e-9, priced by unvalidated solve_at at t0, the
midpoint and t1. A false claim is reached_tol with an error above tol. The
judge is SciPy's expm_multiply on the augmented system that
reference_solution exponentiates, since reference_solution's own error on bs
reaches 1.5e-9 at t = 11. Tol 1e-10 is left out: at that level the plan's
round-off margin cannot keep the claims honest without a stopping signal
that reads the round-off forecast.
"""

import numpy as np
import pytest

import bromell as bm

WINDOWS = {
    "bs": ((1.0, 1.0), (1.0, 5.0), (1.0, 10.0), (2.0, 20.0), (0.5, 10.0)),
    "cd": ((1.0, 1.0), (1.0, 4.0), (0.5, 2.0)),
}
OPTIONS = {
    "bs": bm.SolveOptions(grid_pts=50),
    "cd": bm.SolveOptions(z_l=-40.0, z_r=0.09, grid_pts=50),
}
TOLS = (5e-6, 5e-8, 1e-9)


def _oracle(problem, t):
    """u(t) from expm_multiply on the augmented matrix [[A, V], [0, -diag(rates)]]."""
    from scipy.sparse.linalg import expm_multiply

    A = problem.operator.entries
    n, terms = A.shape[0], list(problem.source_terms)
    M = np.zeros((n + len(terms),) * 2)
    M[:n, :n] = A
    for k, term in enumerate(terms):
        M[:n, n + k] = term.vector
        M[n + k, n + k] = -term.rate
    w = np.concatenate([problem.u0, np.ones(len(terms))])
    return expm_multiply(M * t, w)[:n]


def sweep(tols=TOLS):
    """One row (problem, window, tol, t, claimed, error / tol) per distinct item."""
    problems = {"bs": bm.black_scholes_problem(), "cd": bm.canonical_cd_problem(d=400.0, n=64)}
    oracles = {}
    rows = []
    for name, windows in WINDOWS.items():
        problem = problems[name]
        for t0, t1 in windows:
            for tol in tols:
                plan = bm.plan_window(problem, t0, t1, tol, OPTIONS[name])
                for t in sorted({t0, 0.5 * (t0 + t1), t1}):
                    if (name, t) not in oracles:
                        oracles[name, t] = _oracle(problem, t)
                    rep = bm.solve_at(plan, problem, t)
                    error = float(np.linalg.norm(rep.solution - oracles[name, t]))
                    rows.append((name, (t0, t1), tol, t, rep.reached_tol, error / tol))
    return rows


@pytest.fixture(scope="module")
def rows():
    return sweep()


def test_sweep_covers_sixty_items(rows):
    assert len(rows) == 60
    assert sum(row[4] for row in rows) > 40


def test_no_false_claim(rows):
    false = [row for row in rows if row[4] and row[5] > 1.0]
    assert false == []
