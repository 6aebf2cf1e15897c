"""Linear-algebra kernels against closed-form and brute-force oracles."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import bromell as bm
from bromell import contour
from bromell.contour import conformal_map
from bromell.errors import DimensionLimitError, SingularSystemError
from bromell.numerics import resolvent_cond_bound, schur_solution
from bromell.pseudospectra import SigmaMinEvaluator, _slackened


def _transformed_solution(problem, z):
    """The x-space resolvent apply uhat(z) = (zI - A)^{-1} (u0 + bhat(z)) = Q yhat(z)."""
    return problem.operator.schur_vectors @ schur_solution(problem, z)


def _non_normal(rng, n, complex_entries):
    """A random non-normal operator: a diagonal plus a strong strictly
    upper-triangular part, turned by a random orthogonal similarity."""
    shape = (n, n)
    N = np.triu(rng.standard_normal(shape), 1) * 10.0
    D = np.diag(rng.standard_normal(n) * 3.0)
    if complex_entries:
        N = N + 1j * np.triu(rng.standard_normal(shape), 1) * 10.0
        D = D + 1j * np.diag(rng.standard_normal(n) * 3.0)
    V, _ = np.linalg.qr(rng.standard_normal(shape))
    return V @ (D + N) @ V.T


class TestResolventSolve:
    def test_diagonal_inversion(self):
        A = bm.Operator(np.diag([-1.0, -2.0]))
        x = bm.ShiftedSystem(A, 0.0).solve(np.array([1.0, 1.0]))
        np.testing.assert_allclose(x, [1.0, 0.5], rtol=1e-14)

    def test_identity_resolvent(self):
        A = bm.Operator(np.zeros((2, 2)))
        x = bm.ShiftedSystem(A, 1.0).solve(np.array([3.0, -4.0]))
        np.testing.assert_allclose(x, [3.0, -4.0], rtol=1e-14)

    def test_upper_triangular_hand_inversion(self):
        # (I - A) for A = [[0,1],[0,0]] inverts to [[1,1],[0,1]]; checked by
        # multiplying back.
        A = bm.Operator(np.array([[0.0, 1.0], [0.0, 0.0]]))
        x1 = bm.ShiftedSystem(A, 1.0).solve(np.array([1.0, 0.0]))
        x2 = bm.ShiftedSystem(A, 1.0).solve(np.array([0.0, 1.0]))
        np.testing.assert_allclose(x1, [1.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(x2, [1.0, 1.0], atol=1e-15)
        M = 1.0 * np.eye(2) - A.entries
        np.testing.assert_allclose(M @ x2, [0.0, 1.0], atol=1e-15)

    def test_singular_shift_raises(self):
        A = bm.Operator(np.diag([-1.0, -2.0]))
        with pytest.raises(SingularSystemError):
            bm.ShiftedSystem(A, -1.0).solve(np.array([1.0, 1.0]))

    def test_overflowing_solve_raises(self):
        # zI - A = [[1, -1e300], [0, 1]] at z = 1 factors finitely, but
        # x[0] = 1e300 * 1e10 overflows.
        system = bm.ShiftedSystem(bm.Operator(np.array([[0.0, 1e300], [0.0, 0.0]])), 1.0)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(SingularSystemError):
            system.solve(np.array([0.0, 1e10]))

    def test_residual_on_well_conditioned_system(self):
        rng = np.random.default_rng(7)
        M = rng.standard_normal((40, 40))
        A = bm.Operator(M)
        rhs = rng.standard_normal(40)
        z = 3.0 + 2.0j
        x = bm.ShiftedSystem(A, z).solve(rhs)
        residual = np.linalg.norm((z * np.eye(40) - M) @ x - rhs)
        assert residual <= 1e-12 * np.linalg.norm(rhs)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        n=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
        complex_entries=st.booleans(),
        shift=st.complex_numbers(max_magnitude=20.0, allow_nan=False, allow_infinity=False),
        rates=st.lists(st.floats(0.0, 5.0), min_size=1, max_size=2),
    )
    def test_backward_stable_on_non_normal_operators(self, n, seed, complex_entries, shift,
                                                     rates):
        # Checked twice: a plain solve, and the resolvent apply Q yhat of a
        # problem with one or two sources v_k exp(-r_k t), r_k >= 0.
        rng = np.random.default_rng(seed)
        M = _non_normal(rng, n, complex_entries)
        b = rng.standard_normal(n) + (1j * rng.standard_normal(n) if complex_entries else 0.0)
        z = complex(shift)
        # off the spectrum: away from every eigenvalue by more than round-off
        assume(np.min(np.abs(z - np.linalg.eigvals(M))) > 1e-6 * (1.0 + np.linalg.norm(M)))
        assume(all(abs(z + r) > 1e-6 for r in rates))
        op = bm.Operator(M)
        x = bm.ShiftedSystem(op, z).solve(b)
        S = z * np.eye(n) - M
        eps = np.finfo(float).eps
        bound = 100 * n * eps * (np.linalg.norm(S) * np.linalg.norm(x) + np.linalg.norm(b))
        assert np.linalg.norm(S @ x - b) <= bound
        terms = tuple(bm.SourceTerm(rng.standard_normal(n), r) for r in rates)
        problem = bm.LaplaceProblem(op, b, terms)
        u = _transformed_solution(problem, z)
        rhs_size = np.linalg.norm(b) + sum(np.linalg.norm(v.vector) / abs(z + v.rate)
                                           for v in terms)
        bound = 100 * n * eps * (np.linalg.norm(S) * np.linalg.norm(u) + rhs_size)
        assert np.linalg.norm(S @ u - (b + problem.bhat(z))) <= bound


def _bs_window_cases(bs_problem, bs_window):
    cache = bs_window.cache
    for j in (1, 4, 8, 13, 19, 24):
        z, _ = conformal_map(cache.params, cache.node_x(j, 25))
        yield bs_problem.operator, z, bs_problem.u0 + bs_problem.bhat(z)


def _complex_operator_cases():
    rng = np.random.default_rng(3)
    A = bm.Operator(rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40)))
    rhs = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    for z in (2.0 + 1.0j, -3.0 - 0.5j, 0.25j, -1.5):
        yield A, z, rhs


def _plain_ndarray_cases():
    rng = np.random.default_rng(4)
    M = rng.standard_normal((30, 30)) + np.diag(-np.linspace(1.0, 6.0, 30))
    rhs = rng.standard_normal(30)
    for z in (3.0, -2.0 + 0.5j, complex(-0.5, -0.0), 1j):
        yield M, z, rhs


def _shifted(A, z):
    M = A.entries if isinstance(A, bm.Operator) else np.asarray(A)
    return complex(z) * np.eye(M.shape[0]) - M


class TestShiftedSystemOracle:
    """The Schur-based solve against SciPy's LU solve on z*np.eye(n) - A."""

    @staticmethod
    def check(cases):
        for A, z, rhs in cases:
            expected = sla.lu_solve(sla.lu_factor(_shifted(A, z)), rhs)
            got = bm.ShiftedSystem(A, z).solve(rhs)
            assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_black_scholes_window_nodes(self, bs_problem, bs_window):
        self.check(_bs_window_cases(bs_problem, bs_window))

    def test_complex_operator(self):
        self.check(_complex_operator_cases())

    def test_plain_ndarray(self):
        self.check(_plain_ndarray_cases())

    def test_one_shift_buffer_serves_interleaved_systems(self):
        # Systems built before others on the same operator still solve at
        # their own shift.
        rng = np.random.default_rng(5)
        A = bm.Operator(rng.standard_normal((12, 12)))
        rhs = rng.standard_normal(12)
        systems = [bm.ShiftedSystem(A, z) for z in (2.0, 3.0j, -4.0 + 1.0j)]
        for system in reversed(systems):
            x = system.solve(rhs)
            residual = (system.z * np.eye(12) - A.entries) @ x - rhs
            assert np.linalg.norm(residual) <= 1e-13 * np.linalg.norm(rhs)

    def test_evaluator_solves_and_cond_share_one_buffer(self):
        # sigma_min evaluations, solves and condition estimates interleaved on
        # one operator give, bit for bit, what each gives on a fresh one.
        rng = np.random.default_rng(6)
        M = rng.standard_normal((16, 16))
        rhs = rng.standard_normal(16)
        shifts = (0.5 + 1.0j, -2.0, 3.0 - 0.25j, 1.5j)
        shared = bm.Operator(M)
        ev = SigmaMinEvaluator(shared)
        assert ev._M is shared._shift_buffer
        interleaved = []
        for z in shifts:
            interleaved.append(ev(z))
            interleaved.append(bm.ShiftedSystem(shared, -z).solve(rhs))
            interleaved.append(bm.resolvent_cond(shared, 2 * z))
        fresh_ev = SigmaMinEvaluator(bm.Operator(M))
        sigmas = [fresh_ev(z) for z in shifts]
        for k, z in enumerate(shifts):
            assert interleaved[3 * k] == sigmas[k]
            assert np.array_equal(interleaved[3 * k + 1],
                                  bm.ShiftedSystem(bm.Operator(M), -z).solve(rhs))
            assert interleaved[3 * k + 2] == bm.resolvent_cond(bm.Operator(M), 2 * z)


class TestSolveSchurInPlace:
    """solve_schur overwrites a contiguous complex right-hand side and
    returns it; a real or strided one is solved on a copy and left alone.
    Either way y has the bits of a solve on a copy."""

    @pytest.fixture()
    def case(self, bs_problem):
        z = -3.0 + 2.0j
        T = bs_problem.operator.schur_factor
        M = np.array(-T)
        np.fill_diagonal(M, z - np.diag(T))  # zI - T, entry for entry as solved
        return bm.ShiftedSystem(bs_problem.operator, z), bs_problem.schur_rhs(z), M

    def test_contiguous_complex_rhs_is_overwritten_and_returned(self, case):
        system, rhs, M = case
        expected = sla.solve_triangular(M, rhs)
        on_copy = system.solve_schur(rhs.copy())
        y = system.solve_schur(rhs)
        assert y is rhs
        assert y.tobytes() == on_copy.tobytes() == expected.tobytes()

    def test_row_of_a_block_is_solved_in_place(self, case):
        system, rhs, _ = case
        block = np.stack([rhs, 2.0 * rhs])
        other = block[0].copy()
        y = system.solve_schur(block[1])
        assert np.shares_memory(y, block)
        assert block[1].tobytes() == system.solve_schur(2.0 * rhs).tobytes()
        assert block[0].tobytes() == other.tobytes()

    @pytest.mark.parametrize("kind", ["real", "strided"])
    def test_other_rhs_is_left_unchanged(self, case, kind):
        system, rhs, _ = case
        b = rhs.real.copy() if kind == "real" else np.stack([rhs, rhs], axis=1)[:, 0]
        before = b.copy()
        y = system.solve_schur(b)
        assert not np.shares_memory(y, b)
        assert b.tobytes() == before.tobytes()
        assert y.tobytes() == system.solve_schur(b.astype(complex)).tobytes()


class TestResolventCond:
    """resolvent_cond against dense condition numbers: trcon estimates the
    1-norm condition of zI - T from below, and that lies within a factor n
    of the 2-norm condition of z*np.eye(n) - A."""

    @staticmethod
    def check(cases):
        for A, z, _rhs in cases:
            T = bm.as_operator(A).schur_factor
            n = T.shape[0]
            got = bm.resolvent_cond(A, z)
            assert got <= np.linalg.cond(complex(z) * np.eye(n) - T, 1) * (1 + 1e-12)
            assert got <= resolvent_cond_bound(A, z)
            cond2 = np.linalg.cond(_shifted(A, z), 2)
            assert cond2 / n <= got <= n * cond2

    def test_black_scholes_window_nodes(self, bs_problem, bs_window):
        self.check(_bs_window_cases(bs_problem, bs_window))

    def test_complex_operator(self):
        self.check(_complex_operator_cases())

    def test_plain_ndarray(self):
        self.check(_plain_ndarray_cases())

    def test_cond_estimate_order(self):
        # exact 2-norm condition of diag(1, 2) is 2; the 1-norm estimate must
        # be within a small factor
        assert 1.0 <= bm.resolvent_cond(bm.Operator(np.diag([-1.0, -2.0])), 0.0) <= 10.0

    def test_overflowing_factorization_is_infinite(self):
        # zI - A = [[1, 1.5e308], [1, -1.5e308]] at z = 1: U[1, 1] overflows.
        A = bm.Operator(np.array([[0.0, -1.5e308], [-1.0, 1.0 + 1.5e308]]))
        with np.errstate(over="ignore"):
            assert bm.resolvent_cond(A, 1.0) == np.inf

    def test_singular_shift_is_infinite(self):
        assert bm.resolvent_cond(bm.Operator(np.diag([-1.0, -2.0])), -1.0) == np.inf

    @settings(max_examples=80, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        n=st.integers(1, 20),
        seed=st.integers(0, 2**32 - 1),
        complex_entries=st.booleans(),
        where=st.sampled_from(["eigenvalue", "near", "far"]),
        offset=st.complex_numbers(min_magnitude=1e-3, max_magnitude=20.0,
                                  allow_nan=False, allow_infinity=False),
    )
    def test_comparison_bound_is_above_the_estimate(self, n, seed, complex_entries, where,
                                                    offset):
        # resolvent_cond_bound bounds the 1-norm condition number of
        # zI - T from above, which trcon estimates from below: at an
        # eigenvalue t_ii, within 1e-6 |offset| of one, and anywhere else.
        rng = np.random.default_rng(seed)
        op = bm.Operator(_non_normal(rng, n, complex_entries))
        t = complex(op.schur_diagonal[rng.integers(n)])
        z = {"eigenvalue": t, "near": t + 1e-6 * offset, "far": offset}[where]
        bound = resolvent_cond_bound(op, z)
        assert bm.resolvent_cond(op, z) <= bound
        if where == "eigenvalue":
            assert bound == np.inf


_ZTRCON = sla.get_lapack_funcs("trcon", dtype=complex)


def _ztrcon(A, z) -> float:
    """LAPACK ztrcon's 1-norm condition estimate of the triangular zI - T,
    entry for entry the matrix the shift buffer holds at z; inf at rcond 0."""
    op = bm.as_operator(A)
    M = np.asfortranarray(-op.schur_factor)
    np.fill_diagonal(M, complex(z) - op.schur_diagonal)
    rcond, info = _ZTRCON(M, norm="1")
    assert info == 0
    return 1.0 / rcond if rcond > 0.0 else np.inf


def _assert_trcon_bits(A, shifts):
    got = bm.resolvent_cond(A, shifts)
    expected = np.array([_ztrcon(A, z) for z in shifts])
    assert got.tobytes() == expected.tobytes()


class TestResolventCondIsTrcon:
    """resolvent_cond runs ztrcon's estimator in lock-step over all shifts of
    a call; every value keeps ztrcon's bits."""

    @pytest.mark.parametrize("case", ["bs grid 50", "bs grid 100", "bs tol 1e-10", "cd recipe"])
    def test_feasibility_shifts(self, case, bs_problem, cd_problem, monkeypatch):
        problem, t1, tol, opts = {
            "bs grid 50": (bs_problem, 10.0, 5e-8, bm.SolveOptions(grid_pts=50)),
            "bs grid 100": (bs_problem, 10.0, 5e-8, bm.SolveOptions(grid_pts=100)),
            "bs tol 1e-10": (bs_problem, 10.0, 1e-10, bm.SolveOptions(grid_pts=50)),
            "cd recipe": (cd_problem, 1.0, 5e-8,
                          bm.SolveOptions(z_l=-40.0, z_r=0.09, prec=1e-2)),
        }[case]
        checks = []
        resolvent_cond = contour.resolvent_cond

        def recorded(A, z):
            checks.append(np.array(z))
            return resolvent_cond(A, z)

        monkeypatch.setattr(contour, "resolvent_cond", recorded)
        plan = bm.plan_window(problem, 1.0, t1, tol, opts)
        assert [shifts.shape for shifts in checks] in ([(10,)], [(10,), (10,)])
        for shifts in checks:
            _assert_trcon_bits(problem.operator, shifts)
        assert plan.feasibility.max_cond == max(_ztrcon(problem.operator, z) for z in checks[-1])

    @settings(max_examples=60, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        n=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
        complex_entries=st.booleans(),
        offset=st.complex_numbers(min_magnitude=1.0, max_magnitude=10.0,
                                  allow_nan=False, allow_infinity=False),
    )
    def test_random_non_normal_operators(self, n, seed, complex_entries, offset):
        # Within 1e-8 |offset| of an eigenvalue, and 3-100 |offset| from the
        # origin, beyond every eigenvalue's reach for most draws.
        rng = np.random.default_rng(seed)
        op = bm.Operator(_non_normal(rng, n, complex_entries))
        turns = np.exp(2j * np.pi * rng.random(8))
        near = op.schur_diagonal[rng.integers(n, size=8)] + 1e-8 * offset * turns
        far = offset * turns * rng.uniform(3.0, 100.0, size=8)
        _assert_trcon_bits(op, np.concatenate([near, far]))

    def test_array_call_equals_scalar_calls(self, bs_problem, bs_window):
        op = bs_problem.operator
        shifts = contour.feasibility_shifts(bs_window.contour, bs_window.c_grid)
        shifts[3] = op.schur_diagonal[7]  # a zero pivot among the others
        block = shifts.reshape(2, 5)
        got = bm.resolvent_cond(op, block)
        assert got.shape == (2, 5)
        scalars = [bm.resolvent_cond(op, z) for z in shifts]
        assert all(value.shape == () for value in scalars)
        assert got.ravel().tobytes() == np.array(scalars).tobytes()
        assert got.ravel()[3] == np.inf
        assert np.isfinite(np.delete(got.ravel(), 3)).all()

    def test_zero_pivot_and_overflowing_solve_are_infinite(self):
        # At z = 0 the first solve, with -T from (1/2, 1/2), reaches
        # 1e-10 * 5e159 / 1e-160 in its first entry and overflows (ztrcon's
        # rescaled solve gives up there too); at t_22 the second pivot is
        # zero; at z = 1 the estimate is finite.
        op = bm.Operator(np.array([[1e-160, 1e-10], [0.0, 1e-160]]))
        shifts = np.array([0.0, op.schur_diagonal[1], 1.0])
        got = bm.resolvent_cond(op, shifts)
        assert got[0] == np.inf
        assert got[1] == np.inf
        assert np.isfinite(got[2])
        _assert_trcon_bits(op, shifts[[0, 2]])

    def test_non_finite_shift_is_rejected(self, bs_problem):
        with pytest.raises(ValueError):
            bm.resolvent_cond(bs_problem.operator, [1.0, complex(np.nan, 0.0)])


def _dense_sigma(M, x: float) -> float:
    """sigma_min(xI - M) by dense SVD."""
    return float(np.linalg.svd(x * np.eye(len(M)) - M, compute_uv=False)[-1])


def _sigma_min(M) -> float:
    """sigma_min(M) as the grid evaluates it: sigma_min(0 I - A) with A = -M."""
    return SigmaMinEvaluator(bm.Operator(-np.asarray(M)))(0)


class TestSmallestSingularValue:
    def test_diagonal(self):
        assert _sigma_min(np.diag([3.0, 5.0])) == pytest.approx(3.0)

    def test_normal_matrix_identity(self):
        lam = np.array([-1.0, -2.0, -5.0])
        z = 0.5 + 0.25j
        M = z * np.eye(3) - np.diag(lam)
        expected = np.min(np.abs(z - lam))
        assert _sigma_min(M) == pytest.approx(expected, rel=1e-10)

    def test_closed_form_2x2(self):
        # Independent oracle: eigenvalues of M^T M for [[1,10],[0,1]] are
        # 51 +/- sqrt(2600), so sigma_min = sqrt(51 - sqrt(2600)).
        expected = math.sqrt(51.0 - math.sqrt(2600.0))
        got = _sigma_min(np.array([[1.0, 10.0], [0.0, 1.0]]))
        assert got == pytest.approx(expected, rel=1e-12)

    def test_singular_matrix_returns_zero(self):
        assert _sigma_min(np.zeros((3, 3))) == 0.0

    def test_large_dim_normal_matrix(self):
        # A normal matrix above the old dense-SVD size, where sigma_min is
        # known exactly.
        n = 600
        lam = -np.linspace(1.0, 60.0, n)
        z = 0.3 + 0.1j
        M = z * np.eye(n) - np.diag(lam)
        expected = np.min(np.abs(z - lam))
        assert _sigma_min(M) == pytest.approx(expected, rel=1e-6)


class TestEigenvalues:
    def test_diagonal(self):
        got = np.sort_complex(bm.eigenvalues(bm.Operator(np.diag([-1.0, -2.0, -3.0]))))
        np.testing.assert_allclose(got, [-3.0, -2.0, -1.0], atol=1e-14)

    def test_rotation_matrix(self):
        got = bm.eigenvalues(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        got = sorted(got, key=lambda v: v.imag)
        np.testing.assert_allclose(got, [-1j, 1j], atol=1e-14)

    def test_transpose_same_multiset(self):
        rng = np.random.default_rng(11)
        M = rng.standard_normal((30, 30)) + np.diag(np.arange(30.0))
        a = np.sort(bm.eigenvalues(M).real)
        b = np.sort(bm.eigenvalues(M.T).real)
        np.testing.assert_allclose(a, b, atol=1e-8)


class TestReferenceSolution:
    def test_homogeneous_diagonal(self, diag_problem):
        got = bm.reference_solution(diag_problem, 1.0)
        np.testing.assert_allclose(got, [math.exp(-1.0), math.exp(-2.0)], rtol=1e-13)

    def test_pure_integration(self):
        # A = 0 (1x1), u0 = 0, constant source 1: u(t) = t.
        prob = bm.LaplaceProblem(
            bm.Operator(np.zeros((1, 1))), np.zeros(1), (bm.SourceTerm(np.ones(1), 0.0),)
        )
        assert bm.reference_solution(prob, 2.0)[0] == pytest.approx(2.0, rel=1e-14)

    def test_decaying_source_variation_of_constants(self):
        # A = -1, u0 = 0, b(t) = e^{-2t}: u(1) = e^{-1} - e^{-2} by the scalar
        # variation-of-constants integral.
        prob = bm.LaplaceProblem(
            bm.Operator(np.array([[-1.0]])), np.zeros(1), (bm.SourceTerm(np.ones(1), 2.0),)
        )
        expected = math.exp(-1.0) - math.exp(-2.0)
        assert bm.reference_solution(prob, 1.0)[0] == pytest.approx(expected, rel=1e-13)

    def test_time_zero_returns_initial_state(self, bs_problem):
        got = bm.reference_solution(bs_problem, 0.0)
        assert np.max(np.abs(got - bs_problem.u0)) <= 1e-14

    def test_dimension_limit(self):
        A = bm.Operator(np.diag(-np.ones(501)))
        prob = bm.LaplaceProblem(A, np.ones(501))
        with pytest.raises(DimensionLimitError):
            bm.reference_solution(prob, 1.0)


class TestOperator:
    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            bm.Operator(np.ones((2, 3)))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            bm.Operator(np.array([[np.inf, 0.0], [0.0, 1.0]]))

    def test_entries_read_only(self):
        A = bm.Operator(np.eye(2))
        with pytest.raises(ValueError):
            A.entries[0, 0] = 5.0

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40),
           complex_entries=st.booleans(), scale=st.sampled_from([1e-3, 1.0, 1e3]))
    def test_abscissa_bound_is_above_the_numerical_abscissa(self, seed, n, complex_entries,
                                                            scale):
        M = scale * _non_normal(np.random.default_rng(seed), n, complex_entries)
        A = bm.Operator(M)
        omega = np.linalg.eigvalsh(0.5 * (M + M.conj().T))[-1]
        assert A.abscissa_bound >= omega
        # Right of it, the evaluator's range bound, less its error
        # allowances, is below the evaluator's value and dense SVD's.
        x = A.abscissa_bound + scale
        ev = SigmaMinEvaluator(A)
        settled = _slackened(ev, ev.range_bound(x))
        assert 0.0 < settled <= ev(x)
        assert settled <= _dense_sigma(M, x)

    def test_abscissa_bound_of_a_diagonal_is_its_largest_real_part(self):
        A = bm.Operator(np.diag([-3.0 + 2.0j, -1.0 - 5.0j, -2.0]))
        assert A.abscissa_bound == pytest.approx(-1.0, rel=1e-14)
        assert A.abscissa_bound >= -1.0


class TestZeroPivotRule:
    @pytest.mark.parametrize("complex_entries", [False, True])
    def test_every_consumer_at_a_schur_entry_and_its_neighbours(self, complex_entries):
        # zI - T has a zero pivot exactly at a diagonal entry t_ii: every
        # consumer of the shift answers it there, and none does one ulp away.
        op = bm.Operator(_non_normal(np.random.default_rng(12), 8, complex_entries))
        ev = SigmaMinEvaluator(op)
        rhs = np.ones(op.dim)
        for t in op.schur_diagonal.tolist():
            with pytest.raises(SingularSystemError):
                bm.ShiftedSystem(op, t)
            assert ev(t) == 0.0
            assert ev.lower_bound(t) == 0.0
            assert resolvent_cond_bound(op, t) == math.inf
            assert bm.resolvent_cond(op, t) == math.inf
            neighbours = [complex(np.nextafter(t.real, d), t.imag) for d in (-np.inf, np.inf)]
            if t.imag:
                neighbours += [complex(t.real, np.nextafter(t.imag, d)) for d in (-np.inf, np.inf)]
            for z in neighbours:
                assert np.isfinite(bm.ShiftedSystem(op, z).solve(rhs)).all()
                assert ev(z) > 0.0
                assert ev.lower_bound(z) > 0.0
                assert resolvent_cond_bound(op, z) < math.inf
                assert bm.resolvent_cond(op, z) < math.inf


def _block_operator() -> np.ndarray:
    """16 x 16, real and non-normal: 2 x 2 blocks [[re, im], [-im, re]] with
    re = -1 - k/2, im = 1 + 0.4 k (k = 0, 2, ..., 14) and 30 on the second
    superdiagonal, the operator tools/compare_cli.sh builds."""
    M = 30.0 * np.eye(16, k=2)
    for k in range(0, 16, 2):
        re, im = -1.0 - k / 2, 1.0 + 0.4 * k
        M[k:k + 2, k:k + 2] = [[re, im], [-im, re]]
    return M


class TestSchurFactor:
    """The operator's one Schur factor: a real operator takes the real Schur
    form plus rsf2csf, a complex one zgees, and both give a complex upper
    triangular T and a unitary Q."""

    @staticmethod
    def cases(cd_problem, bs_problem):
        rng = np.random.default_rng(5)
        return {
            "bs": bs_problem.operator.entries,
            "cd": cd_problem.operator.entries,
            "block": _block_operator(),
            "complex": rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40)),
        }

    @pytest.mark.parametrize("case", ["bs", "cd", "block", "complex"])
    def test_contract(self, case, cd_problem, bs_problem, schur_calls):
        M = self.cases(cd_problem, bs_problem)[case]
        op = bm.Operator(M)  # a new operator: the fixtures' factors are cached
        T, Q = op.schur_factor, op.schur_vectors
        bm.eigenvalues(op)
        assert schur_calls == [M.shape]
        n = M.shape[0]
        assert T.dtype == Q.dtype == np.complex128
        assert not T.flags.writeable and not Q.flags.writeable
        assert not np.tril(T, -1).any()
        assert np.linalg.norm(Q.conj().T @ Q - np.eye(n), 2) <= 1e-13
        assert np.linalg.norm(Q @ T @ Q.conj().T - M, 2) <= 1e-13 * np.linalg.norm(M, 2)

    @pytest.mark.parametrize("case, output", [("bs", "real"), ("block", "real"), ("complex", "complex")])
    def test_path(self, case, output, cd_problem, bs_problem, monkeypatch):
        M = self.cases(cd_problem, bs_problem)[case]
        schur, rsf2csf = sla.schur, sla.rsf2csf
        calls = []

        def schur_spy(a, *args, **kwargs):
            calls.append(("schur", a.dtype, kwargs.get("output")))
            return schur(a, *args, **kwargs)

        def rsf2csf_spy(*args, **kwargs):
            calls.append(("rsf2csf",))
            return rsf2csf(*args, **kwargs)

        monkeypatch.setattr(sla, "schur", schur_spy)
        monkeypatch.setattr(sla, "rsf2csf", rsf2csf_spy)
        op = bm.Operator(M)
        T, Q = op.schur_factor, op.schur_vectors
        if output == "real":
            assert calls == [("schur", np.float64, "real"), ("rsf2csf",)]
        else:
            assert calls == [("schur", np.complex128, "complex")]
            # zgees on the operator's own entries: the factor it always gave.
            T_ref, Q_ref = schur(M, output="complex")
            np.testing.assert_array_equal(T, T_ref)
            np.testing.assert_array_equal(Q, Q_ref)

    def test_window_plan_is_blas_thread_independent(self):
        # The plan and its t = 1, 4 and 10 solutions. Fresh interpreters,
        # because the BLAS thread count is read at load.
        src = str(Path(bm.__file__).resolve().parent.parent)
        code = (
            f"import hashlib, json, sys; sys.path.insert(0, {src!r}); import bromell as bm; "
            "p = bm.black_scholes_problem(); "
            "plan = bm.plan_window(p, 1.0, 10.0, 5e-8, bm.SolveOptions(grid_pts=50)); "
            "op = p.operator; "
            "h = hashlib.sha1(op.schur_factor.tobytes() + op.schur_vectors.tobytes()).hexdigest(); "
            "u = [hashlib.sha1(bm.solve_at(plan, p, t).solution.tobytes()).hexdigest() "
            "for t in (1.0, 4.0, 10.0)]; "
            "print(json.dumps([h, repr(plan.contour.a), repr(plan.c_grid), plan.n_nodes, "
            "repr(plan.feasibility.max_cond), u]))"
        )
        runs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                                  text=True, check=True, env=env)
            runs.append(json.loads(proc.stdout))
        assert runs[0] == runs[1]
