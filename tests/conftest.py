"""Shared fixtures: the expensive pipeline runs are built once per session."""

import numpy as np
import pytest

import bromell as bm
from bromell import numerics


@pytest.fixture(scope="session")
def cd_problem():
    return bm.canonical_cd_problem(d=400.0, n=64)


@pytest.fixture(scope="session")
def bs_problem():
    return bm.black_scholes_problem()


@pytest.fixture(scope="session")
def diag_problem():
    A = bm.Operator(np.diag([-1.0, -2.0]), source_tag="diag(-1,-2)")
    return bm.LaplaceProblem(A, np.array([1.0, 1.0]), label="diag")


@pytest.fixture(scope="session")
def cd_report(cd_problem):
    """Reference recipe: d=400, 64-point collocation, t=1, tol=5e-8."""
    opts = bm.SolveOptions(z_l=-40.0, z_r=0.09, prec=1e-2, validate=True)
    return bm.solve(cd_problem, 1.0, 5e-8, opts)


@pytest.fixture(scope="session")
def cd_reference(cd_problem):
    return bm.reference_solution(cd_problem, 1.0)


@pytest.fixture(scope="session")
def bs_report_t1(bs_problem):
    opts = bm.SolveOptions(z_l=-40.0, z_r=0.05, grid_pts=50, validate=True)
    return bm.solve(bs_problem, 1.0, 5e-6, opts)


@pytest.fixture(scope="session")
def bs_report_t10(bs_problem):
    opts = bm.SolveOptions(z_l=-4.0, z_r=0.01, grid_pts=50, validate=True)
    return bm.solve(bs_problem, 10.0, 5e-6, opts)


@pytest.fixture(scope="session")
def bs_window(bs_problem):
    plan = bm.plan_window(bs_problem, 1.0, 10.0, 5e-8, bm.SolveOptions(grid_pts=50))
    return plan


@pytest.fixture()
def schur_calls(monkeypatch):
    """List with one entry per Schur factorization run from bromell.numerics."""
    calls = []
    schur = numerics.sla.schur

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return schur(a, *args, **kwargs)

    monkeypatch.setattr(numerics.sla, "schur", counted)
    return calls
