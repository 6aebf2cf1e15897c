"""Honesty sweep: unvalidated window claims judged against an independent oracle.

Window plans at grid 50 for bs on [1, 1], [1, 5], [1, 10], [2, 20] and
[0.5, 10], and for cd (z_l -40, z_r 0.09) on [1, 1], [1, 4] and [0.5, 2],
each at tol 5e-6, 5e-8 and 1e-9, priced by unvalidated solve_at at t0, the
midpoint and t1. A false claim is reached_tol with an error above tol. The
judge is SciPy's expm_multiply on the augmented system that
reference_solution exponentiates, since reference_solution's own error on bs
reaches 1.5e-9 at t = 11.

The same 20 items at tol 1e-10 and 1e-11 are pinned one test each. There
the plan's round-off margin cannot keep every claim honest without a
stopping signal that reads the round-off floor: 23 of the 40 claims are
false today. Each of those is a strict xfail whose reason carries its
measured error / tol (the same under one and two BLAS threads), so a fix
shows as XPASS.
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
LOW_TOLS = (1e-10, 1e-11)
# The false claims at LOW_TOLS: (problem, window, tol, t) -> measured error / tol.
FALSE_CLAIMS = {
    ("bs", (1.0, 1.0), 1e-11, 1.0): 5.07,
    ("bs", (1.0, 5.0), 1e-10, 3.0): 1.32,
    ("bs", (1.0, 5.0), 1e-10, 5.0): 1.76,
    ("bs", (1.0, 5.0), 1e-11, 1.0): 5.18,
    ("bs", (1.0, 5.0), 1e-11, 3.0): 13.4,
    ("bs", (1.0, 5.0), 1e-11, 5.0): 18.5,
    ("bs", (1.0, 10.0), 1e-10, 5.5): 1.96,
    ("bs", (1.0, 10.0), 1e-10, 10.0): 2.83,
    ("bs", (1.0, 10.0), 1e-11, 1.0): 5.14,
    ("bs", (1.0, 10.0), 1e-11, 5.5): 203,
    ("bs", (1.0, 10.0), 1e-11, 10.0): 2.98e5,
    ("bs", (2.0, 20.0), 1e-10, 2.0): 1.69,
    ("bs", (2.0, 20.0), 1e-10, 11.0): 2.90,
    ("bs", (2.0, 20.0), 1e-10, 20.0): 3.75,
    ("bs", (2.0, 20.0), 1e-11, 2.0): 9.37,
    ("bs", (2.0, 20.0), 1e-11, 11.0): 444,
    ("bs", (2.0, 20.0), 1e-11, 20.0): 8.86e5,
    ("bs", (0.5, 10.0), 1e-10, 5.25): 2.04,
    ("bs", (0.5, 10.0), 1e-10, 10.0): 2.75,
    ("bs", (0.5, 10.0), 1e-11, 0.5): 2.67,
    ("bs", (0.5, 10.0), 1e-11, 5.25): 330,
    ("bs", (0.5, 10.0), 1e-11, 10.0): 2.82e5,
    ("cd", (0.5, 2.0), 1e-11, 0.5): 1.96,
}


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


def _items(tols):
    """(problem, window, tol, t) of every distinct item, in sweep's order."""
    return [
        (name, (t0, t1), tol, t)
        for name, windows in WINDOWS.items()
        for t0, t1 in windows
        for tol in tols
        for t in sorted({t0, 0.5 * (t0 + t1), t1})
    ]


def _low_tol_params():
    params = []
    for item in _items(LOW_TOLS):
        name, (t0, t1), tol, t = item
        marks = ()
        if item in FALSE_CLAIMS:
            reason = f"false claim: error {FALSE_CLAIMS[item]:.3g} tol"
            marks = pytest.mark.xfail(strict=True, reason=reason)
        params.append(pytest.param(item, marks=marks, id=f"{name}-{t0:g}-{t1:g}-{tol:g}-t{t:g}"))
    return params


@pytest.fixture(scope="module")
def low_tol_rows():
    return {row[:4]: row for row in sweep(LOW_TOLS)}


def test_low_tol_sweep_covers_forty_items(low_tol_rows):
    assert list(low_tol_rows) == _items(LOW_TOLS)
    assert set(FALSE_CLAIMS) <= set(low_tol_rows)


@pytest.mark.parametrize("item", _low_tol_params())
def test_low_tol_claim_holds(item, low_tol_rows):
    *_, claimed, error_over_tol = low_tol_rows[item]
    assert not claimed or error_over_tol <= 1.0
