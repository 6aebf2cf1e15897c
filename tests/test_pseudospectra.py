"""Resolvent-norm grids and level-curve extraction."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import bromell as bm
from bromell.errors import GeometryError
from bromell.pseudospectra import _CERTIFY_SLACK, _LOG_CAP, SigmaMinEvaluator, _level_values


def make_grid(entries, box, n=24):
    A = bm.Operator(np.atleast_2d(entries))
    return bm.compute_grid(A, bm.GridSpec(*box, n_pts=n))


class TestComputeGrid:
    def test_scalar_operator_distance_field(self):
        grid = make_grid([[-1.0]], (-2.0, 0.0, -1.0, 1.0), n=16)
        for iy, y in enumerate(grid.ys):
            for ix, x in enumerate(grid.xs):
                assert grid.sigma_min[iy, ix] == pytest.approx(abs(complex(x, y) + 1.0), abs=1e-12)

    def test_midpoint_between_eigenvalues(self):
        A = bm.Operator(np.diag([-1.0, -3.0]))
        grid = bm.compute_grid(A, bm.GridSpec(-3.0, -1.0, -1.0, 1.0, n_pts=9))
        # x = -2 is the middle column; at y = 0 the distance to both
        # eigenvalues is 1
        ix = 4
        iy = 4
        assert grid.xs[ix] == pytest.approx(-2.0)
        assert grid.ys[iy] == pytest.approx(0.0)
        assert grid.sigma_min[iy, ix] == pytest.approx(1.0, rel=1e-10)

    def test_matches_svd_oracle_at_random_nodes(self, bs_problem):
        # Brute-force SVD comparison on the production-size operator. The
        # comparison carries an absolute floor: two backward-stable methods
        # only agree to ~eps * ||A|| where sigma_min itself is that small.
        spec = bm.GridSpec(-40.0, 0.05, -10.0, 10.0, 100)
        grid = bm.compute_grid(bs_problem.operator, spec)
        A = bs_problem.operator.entries
        floor = 100 * np.finfo(float).eps * np.linalg.norm(A, 2)
        rng = np.random.default_rng(2024)
        for _ in range(20):
            ix = rng.integers(0, 100)
            iy = rng.integers(0, 100)
            z = complex(grid.xs[ix], grid.ys[iy])
            ref = np.linalg.svd(z * np.eye(200) - A, compute_uv=False)[-1]
            got = grid.sigma_min[iy, ix]
            assert abs(got - ref) <= 1e-8 * ref + floor

    def test_mirror_symmetry_real_operator(self):
        for n in (16, 17):
            grid = make_grid(np.diag([-1.0, -2.0]), (-3.0, 0.0, -2.0, 2.0), n=n)
            np.testing.assert_array_equal(grid.sigma_min, grid.sigma_min[::-1, :])

    def test_asymmetric_box_evaluates_every_row(self):
        # Row n-1-iy is not the mirror of row iy here, so no row may be copied.
        grid = make_grid([[-1.0]], (-2.0, 0.0, -0.5, 1.0), n=16)
        for iy, y in enumerate(grid.ys):
            for ix, x in enumerate(grid.xs):
                assert grid.sigma_min[iy, ix] == pytest.approx(abs(complex(x, y) + 1.0), abs=1e-12)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            bm.GridSpec(0.0, -1.0, 0.0, 1.0, 10)
        with pytest.raises(ValueError):
            bm.GridSpec(-1.0, 0.0, -1.0, 1.0, 4)


@pytest.fixture()
def eval_count(monkeypatch):
    """Callable returning the number of SigmaMinEvaluator calls made so far in the test."""
    calls = []
    evaluate = SigmaMinEvaluator.__call__

    def counted(self, z):
        calls.append(z)
        return evaluate(self, z)

    monkeypatch.setattr(SigmaMinEvaluator, "__call__", counted)
    return lambda: len(calls)


class TestEvaluationCount:
    @pytest.mark.parametrize("n", [16, 17])
    def test_full_grid_evaluates_upper_rows_once(self, n, eval_count):
        make_grid(np.diag([-1.0, -2.0]), (-3.0, 0.0, -2.0, 2.0), n=n)
        assert eval_count() == -(-n // 2) * n

    def test_export_evaluates_each_node_once(self, bs_problem, eval_count, tmp_path):
        opts = bm.SolveOptions(z_l=-40.0, z_r=0.05, grid_pts=50)
        prep = bm.prepare_contour(bs_problem, 1.0, 1.0, 5e-6, opts)
        assert eval_count() < 1250
        path = tmp_path / "grid.csv"
        bm.grid_to_csv(prep.grid, path)
        assert eval_count() == 1250
        values = np.loadtxt(path, delimiter=",", skiprows=1)[:, 2]
        assert values.size == 2500 and np.all(np.isfinite(values))

    def test_pruned_cd_recipe(self, cd_problem, eval_count):
        # The comparison-matrix bound certifies every node the Lipschitz
        # bound leaves, so the recipe's grid makes no Lanczos run at all.
        opts = bm.SolveOptions(z_l=-40.0, z_r=0.09)
        prep = bm.prepare_contour(cd_problem, 1.0, 1.0, 5e-8, opts)
        assert prep.grid.spec.n_pts == 100
        assert 0 < prep.grid.evaluator.bounds <= 80
        assert eval_count() == 0

    def test_pruned_bs_window(self, bs_problem):
        # One bound certifies the rest of each column above the real axis
        # (119 bounds); one bound per visited node made 1,168.
        prep = bm.prepare_contour(bs_problem, 1.0, 10.0, 5e-8, bm.SolveOptions(grid_pts=50))
        assert prep.grid.evaluator.evaluations <= 80
        assert prep.grid.evaluator.bounds <= 130

    def test_bs_window_work(self, bs_problem, monkeypatch):
        # The walk visits each node at most once, so no shift is bounded
        # twice, and it leaves each column at its first certifying bound
        # (118 grid bounds; 281 when a row scan certified columns). Most evaluated
        # nodes sit at the round-off floor and stop after two Lanczos steps,
        # and each column's queue stops at its topmost in-set nodes (133
        # grid steps; 149 bottom up, 218 with the difference test alone).
        # The numerical-range bound settles every z_r bracket test right of
        # the rightmost eigenvalue, so the z_r search runs no Lanczos (27
        # steps with the comparison bound alone, 85 without either).
        bounded = {}
        lower_bound = SigmaMinEvaluator.lower_bound

        def recorded(self, z):
            bounded.setdefault(self, []).append(complex(z))
            return lower_bound(self, z)

        monkeypatch.setattr(SigmaMinEvaluator, "lower_bound", recorded)
        prep = bm.prepare_contour(bs_problem, 1.0, 10.0, 5e-8, bm.SolveOptions(grid_pts=50))
        grid_ev = prep.grid.evaluator
        (z_r_ev,) = [ev for ev in bounded if ev is not grid_ev]
        for shifts in bounded.values():
            assert len(set(shifts)) == len(shifts)
        assert len(bounded[grid_ev]) == grid_ev.bounds <= 130
        assert grid_ev.lanczos_steps <= 140
        assert z_r_ev.lanczos_steps == 0


def _reference_scan(A, spec, levels):
    """compute_grid's pruned walk, node by node: it visits the upper-half
    columns left to right. Each column goes up from the bottom through the
    comparison-matrix bounds, queues each node whose bound fails, and leaves
    the column at its first certifying bound from the first row above every
    Im t_ii; the queue is then evaluated from the top down, skipping nodes
    certified meanwhile, until every level has an in-set node in the column.
    Each certifying bound and each value raises the bound of every node in
    the grid. Returns the grid values (NaN where skipped) and the evaluator."""
    ev = SigmaMinEvaluator(A)
    xs, ys = spec.xs, spec.ys
    sigma = np.full((spec.n_pts, spec.n_pts), np.nan)
    rows = np.flatnonzero(ys >= 0.0)
    nodes = xs[None, :] + 1j * ys[rows, None]
    with np.errstate(over="ignore"):
        theta = np.max([eps * np.exp(xs * t) for eps, t in levels], axis=0)
    bound = np.full(nodes.shape, -np.inf)
    r_up = np.searchsorted(ys[rows], max(ev.schur_diagonal.imag.max(), 0.0))
    for ix in range(xs.size):
        queue = []
        for r in range(rows.size):
            if bound[r, ix] > theta[ix]:
                continue
            s_low = ev.lower_bound(nodes[r, ix]) * (1.0 - _CERTIFY_SLACK) - ev.abs_error
            if s_low <= theta[ix]:
                queue.append(r)
                continue
            np.maximum(bound, s_low - np.abs(nodes - nodes[r, ix]), out=bound)
            if r >= r_up:
                break
        missing = list(levels)
        for r in reversed(queue):
            if not missing:
                break
            if bound[r, ix] > theta[ix]:
                continue
            s = sigma[rows[r], ix] = ev(nodes[r, ix])
            s_low = s * (1.0 - _CERTIFY_SLACK) - ev.abs_error
            np.maximum(bound, s_low - np.abs(nodes - nodes[r, ix]), out=bound)
            missing = [(eps, t) for eps, t in missing
                       if not _level_values(np.array([s]), xs[ix : ix + 1], t)[0] >= -np.log(eps)]
    for eps, t in levels:
        inside = _level_values(sigma[rows], xs, t) >= -np.log(eps)
        for ix in np.flatnonzero(inside.any(axis=0)):
            above = np.flatnonzero(inside[:, ix])[-1] + 1
            if above < rows.size and np.isnan(sigma[rows[above], ix]):
                sigma[rows[above], ix] = ev(nodes[above, ix])
    return sigma, ev


def _block_operator():
    """16 x 16, real and non-normal: eigenvalues -1 - k/2 +- (1 + 0.4 k) i for
    k = 0, 2, ..., 14 in 2 x 2 blocks, and 30 on the second superdiagonal."""
    A = 30.0 * np.eye(16, k=2)
    for k in range(0, 16, 2):
        re, im = -1.0 - k / 2, 1.0 + 0.4 * k
        A[k : k + 2, k : k + 2] = [[re, im], [-im, re]]
    return bm.Operator(A)


class TestPrunedScan:
    """The walk visits only uncertified nodes and updates bounds near each
    value; it must evaluate and bound exactly the nodes the node-by-node
    walk does, and give the full grid's level curves."""

    @staticmethod
    def check(A, spec, levels):
        want, ref = _reference_scan(A, spec, levels)
        grid = bm.compute_grid(A, spec, levels)
        np.testing.assert_array_equal(np.isnan(grid.sigma_min), np.isnan(want))
        assert grid.evaluator.evaluations == ref.evaluations
        assert grid.evaluator.bounds == ref.bounds
        # Same nodes, so the same values: each one depends on z alone.
        np.testing.assert_array_equal(grid.sigma_min, want)
        # The curves read only in-set nodes, which no bound certifies, and
        # the node above each column's topmost one: the walk's order and
        # its skipped nodes cannot move them.
        full = bm.compute_grid(A, spec)
        for eps, t in levels:
            np.testing.assert_array_equal(bm.level_curve(grid, eps, t).ys,
                                          bm.level_curve(full, eps, t).ys)
        return ref.evaluations

    # The top-down queue leaves each column at its topmost in-set node for
    # every level: the bottom-up walk evaluated 68 and 72 nodes here.
    @pytest.mark.parametrize("case, count", [("cd", 0), ("bs", 60), ("bs-pseudo", 63)])
    def test_solver_grids(self, case, count, cd_problem, bs_problem):
        problem, t1, tol, opts = {
            "cd": (cd_problem, 1.0, 5e-8, bm.SolveOptions(z_l=-40.0, z_r=0.09)),
            "bs": (bs_problem, 10.0, 5e-8, bm.SolveOptions(grid_pts=50)),
            "bs-pseudo": (bs_problem, 1.0, 5e-6,
                          bm.SolveOptions(z_l=-40.0, z_r=0.05, grid_pts=50)),
        }[case]
        spec = bm.prepare_contour(problem, 1.0, t1, tol, opts).grid.spec
        levels = ((opts.eps1, 1.0), (opts.eps2, 0.0))
        assert self.check(problem.operator, spec, levels) == count

    def test_random_boxes_and_levels(self):
        self.check_random_boxes(complex_entries=False)

    def test_random_complex_boxes_and_levels(self):
        # A complex operator has no mirrored rows, and its eigenvalues lie
        # above and below the real axis.
        self.check_random_boxes(complex_entries=True)

    def check_random_boxes(self, complex_entries):
        rng = np.random.default_rng(16)
        n = 30
        M = np.diag(-rng.uniform(0.5, 8.0, n)) + 3.0 * np.triu(rng.standard_normal((n, n)), 1)
        if complex_entries:
            M = M + 1j * (np.diag(rng.uniform(-3.0, 3.0, n))
                          + 3.0 * np.triu(rng.standard_normal((n, n)), 1))
        A = bm.Operator(M)
        pruned = 0
        for _ in range(10):
            x0 = rng.uniform(-12.0, -2.0)
            half = rng.uniform(1.0, 6.0)
            y0 = rng.choice([-half, rng.uniform(-2.0, 0.0)])  # mirrored or not
            spec = bm.GridSpec(x0, x0 + rng.uniform(4.0, 14.0), y0, half,
                               int(rng.integers(12, 41)))
            levels = tuple((10.0 ** rng.uniform(-12, -1), rng.uniform(0.0, 2.0))
                           for _ in range(rng.integers(1, 3)))
            count = self.check(A, spec, levels)
            pruned += count < np.count_nonzero(spec.ys >= 0.0) * spec.n_pts
        assert pruned >= 5

    def test_rows_below_an_eigenvalue(self):
        # The eigenvalues reach Im 6.6, so 12 of the 20 upper rows of this
        # box (bromell pseudo's at --zr 0.5, grid 40) lie below r_up, where
        # a certifying bound does not end a column.
        A = _block_operator()
        spec = bm.GridSpec(-41.0, 0.5, -10.375, 10.375, 40)
        r_up = np.searchsorted(spec.ys[spec.ys >= 0.0], np.diag(A.schur_factor).imag.max())
        assert r_up == 12
        assert self.check(A, spec, ((1e-6, 1.0), (1e-9, 0.0))) == 12


@pytest.fixture()
def fallback_count(monkeypatch):
    """Callable returning the number of dense-SVD fallbacks made so far in the test."""
    calls = []
    dense = SigmaMinEvaluator._dense_sigma_min

    def counted(self):
        calls.append(None)
        return dense(self)

    monkeypatch.setattr(SigmaMinEvaluator, "_dense_sigma_min", counted)
    return lambda: len(calls)


def _random_non_normal(seed, n, complex_entries):
    """A diagonal plus a strong strictly upper-triangular part, turned by a
    random orthogonal similarity."""
    rng = np.random.default_rng(seed)
    N = np.triu(rng.standard_normal((n, n)), 1) * 10.0
    D = np.diag(rng.standard_normal(n) * 3.0)
    if complex_entries:
        N = N + 1j * np.triu(rng.standard_normal((n, n)), 1) * 10.0
        D = D + 1j * np.diag(rng.standard_normal(n) * 3.0)
    V, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return V @ (D + N) @ V.T


def _window_sweep_shifts(problem):
    """The six upper-half rows of the Black-Scholes window grid nearest the
    real axis (300 shifts), where sigma_min falls to round-off, top row first."""
    spec = bm.prepare_contour(problem, 1.0, 10.0, 5e-8, bm.SolveOptions(grid_pts=50)).grid.spec
    upper = np.flatnonzero(spec.ys >= 0.0)
    return [complex(x, y) for y in spec.ys[upper[:6]][::-1] for x in spec.xs]


def _window_sweep(problem):
    """An evaluator after a top-down sweep of _window_sweep_shifts."""
    ev = SigmaMinEvaluator(problem.operator)
    for z in _window_sweep_shifts(problem):
        ev(z)
    return ev


def _export_bound(sigma_ref, A):
    """The export contract: agreement with dense SVD to 1e-9 sigma + 10 eps ||A||_2."""
    return 1e-9 * sigma_ref + 10 * np.finfo(float).eps * np.linalg.norm(A, 2)


class TestSigmaMinEvaluator:
    def test_agrees_with_svd_on_nonnormal(self):
        rng = np.random.default_rng(5)
        M = rng.standard_normal((60, 60)) + np.diag(-np.linspace(1, 10, 60))
        ev = SigmaMinEvaluator(bm.Operator(M))
        for z in (0.5 + 1.0j, -3.0 + 0.2j, -8.0 - 4.0j):
            ref = np.linalg.svd(z * np.eye(60) - M, compute_uv=False)[-1]
            assert ev(z) == pytest.approx(ref, rel=1e-9)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        n=st.integers(1, 20),
        seed=st.integers(0, 2**32 - 1),
        complex_entries=st.booleans(),
        shifts=st.lists(st.complex_numbers(max_magnitude=20.0, allow_nan=False,
                                           allow_infinity=False), min_size=1, max_size=4),
        near=st.floats(-12.0, 0.0),
    )
    def test_meets_export_bound_on_non_normal_operators(self, n, seed, complex_entries,
                                                       shifts, near):
        # The shifts run through one evaluator, and one more lies 10^near
        # from an eigenvalue.
        M = _random_non_normal(seed, n, complex_entries)
        lam = np.linalg.eigvals(M)
        ev = SigmaMinEvaluator(bm.Operator(M))
        for z in [complex(v) for v in shifts] + [lam[0] + 10.0**near * (0.6 + 0.8j)]:
            ref = np.linalg.svd(z * np.eye(n) - M, compute_uv=False)[-1]
            before = ev.fallbacks
            got = ev(z)
            assert abs(got - ref) <= 1e-9 * ref + ev.abs_error
            # Away from the spectrum by more than round-off, no run stalls.
            if np.min(np.abs(z - lam)) > 1e-6 * (1.0 + np.linalg.norm(M)):
                assert ev.fallbacks == before

    @settings(max_examples=60, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        n=st.integers(1, 20),
        seed=st.integers(0, 2**32 - 1),
        complex_entries=st.booleans(),
        shifts=st.lists(st.complex_numbers(max_magnitude=20.0, allow_nan=False,
                                           allow_infinity=False), min_size=1, max_size=4),
        near=st.floats(-12.0, 0.0),
    )
    def test_lower_bound_below_sigma_min(self, n, seed, complex_entries, shifts, near):
        M = _random_non_normal(seed, n, complex_entries)
        op = bm.Operator(M)
        lam = np.diag(op.schur_factor)
        ev = SigmaMinEvaluator(op)
        for z in [complex(v) for v in shifts] + [lam[0] + 10.0**near * (0.6 + 0.8j)]:
            ref = np.linalg.svd(z * np.eye(n) - M, compute_uv=False)[-1]
            assert 0.0 <= ev.lower_bound(z) <= ref + ev.abs_error
        assert ev.lower_bound(lam[-1]) == 0.0  # an exact eigenvalue shift
        assert ev.bounds == len(shifts) + 2
        assert ev.evaluations == 0

    @settings(max_examples=60, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        n=st.integers(1, 20),
        seed=st.integers(0, 2**32 - 1),
        x=st.floats(-10.0, 10.0),
        above=st.floats(0.0, 10.0),
        rise=st.floats(0.0, 10.0),
    )
    def test_lower_bound_grows_up_a_column(self, n, seed, x, above, rise):
        # Above every Im t_ii, raising y moves z away from every eigenvalue,
        # so the comparison matrix's diagonal grows and its inverse shrinks
        # entrywise: the bound can only grow. The grid walk leaves a column
        # at its first certifying bound on this.
        rng = np.random.default_rng(seed)
        T = 10.0 * np.triu(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), 1)
        T += np.diag(3.0 * (rng.standard_normal(n) + 1j * rng.standard_normal(n)))
        ev = SigmaMinEvaluator(bm.Operator(T))
        y = float(ev.schur_diagonal.imag.max()) + above
        lower, upper = complex(x, y), complex(x, y + rise)
        b_lower, b_upper = ev.lower_bound(lower), ev.lower_bound(upper)
        assert b_upper >= b_lower * (1.0 - 1e-9)
        for z, b in ((lower, b_lower), (upper, b_upper)):
            assert b <= np.linalg.svd(z * np.eye(n) - T, compute_uv=False)[-1]

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(2, 20),
        seed=st.integers(0, 2**32 - 1),
        complex_entries=st.booleans(),
        near=st.floats(-150.0, 0.0),
    )
    def test_lower_bound_is_zero_where_its_solves_overflow(self, n, seed, complex_entries,
                                                           near):
        # Entries of 1e200 above the diagonal overflow the comparison
        # matrix's solves at any shift within 1 of an eigenvalue.
        rng = np.random.default_rng(seed)
        T = np.triu(np.full((n, n), 1e200), 1) + np.diag(rng.standard_normal(n))
        if complex_entries:
            T = T + 1j * np.diag(rng.standard_normal(n))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            op = bm.Operator(T)
            ev = SigmaMinEvaluator(op)
            lam = np.diag(op.schur_factor)
            assert ev.lower_bound(lam[rng.integers(n)] + 10.0**near * (0.6 + 0.8j)) == 0.0

    def test_dim_two_near_eigenvalue_shifts_without_fallback(self):
        # At n = 2 two Lanczos steps span the whole space; a third would
        # work on a round-off residual and send near-eigenvalue shifts to
        # the dense SVD.
        rng = np.random.default_rng(2)
        fallbacks = 0
        for _ in range(100):
            M = np.diag(rng.standard_normal(2) * 3.0)
            M[0, 1] = rng.standard_normal() * 10.0
            V, _ = np.linalg.qr(rng.standard_normal((2, 2)))
            M = V @ M @ V.T
            lam = np.linalg.eigvals(M)
            ev = SigmaMinEvaluator(bm.Operator(M))
            for _ in range(2):
                z = lam[rng.integers(2)] + 10.0 ** rng.uniform(-14, -8) * np.exp(
                    2j * np.pi * rng.uniform())
                ref = np.linalg.svd(z * np.eye(2) - M, compute_uv=False)[-1]
                assert abs(ev(z) - ref) <= 1e-9 * ref + ev.abs_error
            fallbacks += ev.fallbacks
        assert fallbacks == 0

    def test_two_step_exit_near_isolated_eigenvalue(self):
        # sigma_min = 1e-9 against sigma_2 ~ 1: the 2 x 2 Ritz pair's
        # residual already certifies the largest eigenvalue of (M^H M)^-1.
        rng = np.random.default_rng(4)
        V, _ = np.linalg.qr(rng.standard_normal((30, 30)))
        A = V @ np.diag(-np.arange(1.0, 31.0)) @ V.T
        ev = SigmaMinEvaluator(bm.Operator(A))
        for lam in (-1.0, -5.0, -30.0):
            z = lam + 1e-9 * (0.6 + 0.8j)
            before = ev.lanczos_steps
            value = ev(z)
            assert ev.lanczos_steps - before == 2
            ref = np.linalg.svd(z * np.eye(30) - A, compute_uv=False)[-1]
            assert abs(value - ref) <= _export_bound(ref, A)
        assert ev.fallbacks == 0

    def test_exact_eigenvalue_shift_is_zero(self):
        ev = SigmaMinEvaluator(bm.Operator(np.diag([-1.0, -2.0])))
        assert ev(-1.0) == pytest.approx(0.0, abs=1e-12)

    def test_near_eigenvalue_shifts_without_fallback(self, bs_problem, fallback_count):
        # Below sigma ~ 1e-5 the Lanczos readouts carry an absolute error of
        # ~eps ||A||; they must still be accepted and meet the export bound.
        A = bs_problem.operator.entries
        n = A.shape[0]
        ev = SigmaMinEvaluator(bs_problem.operator)
        lam = np.linalg.eigvals(A)
        rng = np.random.default_rng(11)
        for i in rng.choice(n, 6, replace=False):
            for offset in (1e-10, 3e-11j, 2e-12 - 1e-12j):
                z = lam[i] + offset
                ref = np.linalg.svd(z * np.eye(n) - A, compute_uv=False)[-1]
                assert ref < 1e-9
                assert abs(ev(z) - ref) <= _export_bound(ref, A)
        assert fallback_count() == 0

    def test_window_plan_makes_no_dense_fallback(self, bs_problem, fallback_count):
        bm.plan_window(bs_problem, 1.0, 10.0, 5e-8, bm.SolveOptions(grid_pts=50))
        assert fallback_count() == 0
        # The plan's grid now evaluates too few nodes to show a rare
        # fallback; the sweep covers the rows where sigma reaches round-off.
        assert _window_sweep(bs_problem).evaluations == 300
        assert fallback_count() == 0

    def test_window_plan_steps_per_evaluation(self, bs_problem):
        # Each run stops at the first step from the third on whose Ritz
        # value settled, or at the second when the 2 x 2 residual bound
        # certifies it (2.6 steps per evaluation; 3.4 without that exit);
        # requiring two settled steps and at least seven made 7.8.
        ev = _window_sweep(bs_problem)
        assert ev.evaluations == 300
        assert ev.lanczos_steps <= 4.5 * ev.evaluations
        assert ev.fallbacks == 0

    def test_export_rows_meet_bound(self, bs_problem):
        # Where the early exit is least exact: the lowest upper-half row,
        # whose sigma reaches round-off, the top row, the largest values,
        # and the rightmost column, where the fixed-start run comes closest
        # to the bound.
        A = bs_problem.operator.entries
        grid = bm.compute_grid(bs_problem.operator, bm.GridSpec(-40.0, 0.05, -10.0, 10.0, 50))
        nodes = {(iy, ix) for iy in (25, 49) for ix in range(50)}
        nodes |= {(iy, 49) for iy in range(50)}
        for iy, ix in sorted(nodes):
            z = complex(grid.xs[ix], grid.ys[iy])
            ref = np.linalg.svd(z * np.eye(A.shape[0]) - A, compute_uv=False)[-1]
            assert abs(grid.sigma_min[iy, ix] - ref) <= _export_bound(ref, A)

    def test_value_depends_on_shift_alone(self, bs_problem):
        # The window sweep and the top three upper-half rows of the export
        # box, each shift on a fresh evaluator and then all of them on one
        # evaluator in reverse order: the values must be the same bits.
        opts = bm.SolveOptions(z_l=-40.0, z_r=0.05, grid_pts=50)
        spec = bm.prepare_contour(bs_problem, 1.0, 1.0, 5e-6, opts).grid.spec
        shifts = _window_sweep_shifts(bs_problem)
        shifts += [complex(x, y) for y in spec.ys[-3:] for x in spec.xs]
        assert len(shifts) == 450
        fresh = [SigmaMinEvaluator(bs_problem.operator)(z) for z in shifts]
        ev = SigmaMinEvaluator(bs_problem.operator)
        swept = [ev(z) for z in reversed(shifts)][::-1]
        assert swept == fresh

    def test_overflowing_solves_fall_back_once(self):
        # The triangular solves at this shift overflow, so the Lanczos run
        # must give up and the value must come from the one dense SVD.
        A = np.array([[0.0, 1e200, 0.0], [0.0, 0.0, 1e200], [0.0, 0.0, -1.0]])
        z = 1e-150j
        ev = SigmaMinEvaluator(bm.Operator(A))
        with np.errstate(over="ignore"):
            value = ev(z)
            ref = np.linalg.svd(z * np.eye(3) - A, compute_uv=False)[-1]
        assert (ev.evaluations, ev.fallbacks) == (1, 1)
        assert value == ref

    def test_abs_error_finite_for_huge_entries(self):
        # ||T||_F = sqrt(2) 1e200 is representable, but its plain sum of
        # squares overflows; the allowance must stay finite and exact.
        A = np.array([[0.0, 1e200, 0.0], [0.0, 0.0, 1e200], [0.0, 0.0, -1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ev = SigmaMinEvaluator(bm.Operator(A))
        want = 10 * np.finfo(float).eps * math.sqrt(2.0) * 1e200
        assert ev.abs_error == pytest.approx(want, rel=1e-15)

    def test_reused_shift_buffer_leaks_no_state(self):
        rng = np.random.default_rng(8)
        M = rng.standard_normal((40, 40)) + np.diag(-np.linspace(1, 8, 40))
        ev = SigmaMinEvaluator(bm.Operator(M))
        shifts = (0.5 + 1.0j, -3.0 + 0.2j, -6.0 - 2.0j, -1.0 + 0.0j)
        for z1 in shifts:
            for z2 in shifts:
                ev(z2)
                want = SigmaMinEvaluator(bm.Operator(M))(z1)
                assert ev(z1) == want

    def test_exact_eigenvalue_shift_after_other_shifts(self):
        ev = SigmaMinEvaluator(bm.Operator(np.diag([-1.0, -2.0, -3.0])))
        for z in (0.5 + 1.0j, -2.5, -1.0, -4.0 - 1.0j, -1.0, -3.0):
            before = ev.lanczos_steps
            s = ev(z)
            if z in (-1.0, -3.0):
                assert s == 0.0
                assert ev.lanczos_steps == before  # a zero pivot needs no Lanczos run
            else:
                assert s > 0.0
        assert ev.evaluations == 6

    def test_conjugate_shift_of_real_operator(self, bs_problem):
        A = bs_problem.operator.entries
        ev = SigmaMinEvaluator(bs_problem.operator)
        lam = np.linalg.eigvals(A)
        for z in (-1.0 + 2.0j, -20.0 + 0.5j, -0.2 + 0.05j, lam[0] + 1e-10 + 1e-11j):
            up, down = ev(z), ev(np.conj(z))
            assert abs(up - down) <= _export_bound(max(up, down), A)


def _reference_level_curve(grid, eps, t):
    """Heights of level_curve(grid, eps, t) found column by column, one scalar at a time."""
    yu = grid.ys[grid.ys >= 0.0]
    level_log = -np.log(eps)
    heights = np.zeros(grid.xs.size)
    values = _level_values(grid.sigma_min[grid.ys >= 0.0, :], grid.xs, t)
    for ix in range(grid.xs.size):
        logv = values[:, ix]
        above = logv >= level_log
        if not above.any():
            continue
        k = np.max(np.where(above)[0])
        if k == yu.size - 1:
            heights[ix] = yu[-1]
            continue
        v_lo = np.exp(logv[k])
        v_hi = np.exp(logv[k + 1])
        L = np.exp(min(level_log, _LOG_CAP))
        if v_lo == v_hi:
            heights[ix] = yu[k]
        else:
            heights[ix] = yu[k] + (v_lo - L) / (v_lo - v_hi) * (yu[k + 1] - yu[k])
    return heights


def _random_level_grid(rng, n):
    """A PseudoGrid of random sigma on an n-point box reaching y = 1, and its level eps.

    Some columns are all NaN, some cross the level at the top row, and some
    straddle it with adjacent doubles whose e^{-log sigma} round to one value.
    """
    spec = bm.GridSpec(-2.0, 0.5, -float(rng.choice([0.0, 0.5, 1.0])), 1.0, n)
    eps = 0.99853  # e^{-log} of it and of the next double up are equal
    sigma = eps * np.exp(rng.normal(0.0, 0.5, (n, n)))
    sigma[rng.random((n, n)) < 0.1] = np.nan
    cols = rng.permutation(n)
    sigma[:, cols[:2]] = np.nan
    sigma[-1, cols[2:4]] = 0.5 * eps
    for ix in cols[4:8]:
        k = int(rng.integers(n - 1))
        sigma[: k + 1, ix] = eps
        sigma[k + 1 :, ix] = np.nextafter(eps, 2.0)
    return bm.PseudoGrid(spec, sigma), eps


class TestLevelCurve:
    def test_matches_reference_on_pipeline_grids(self, cd_problem, bs_problem):
        cases = [
            (cd_problem, 1.0, 1.0, 5e-8, bm.SolveOptions(z_l=-40.0, z_r=0.09)),
            (bs_problem, 1.0, 10.0, 5e-8, bm.SolveOptions(grid_pts=50)),
            (bs_problem, 1.0, 1.0, 5e-6, bm.SolveOptions(z_l=-40.0, z_r=0.05, grid_pts=50)),
        ]
        crossed = []  # the cd recipe's curves are 0: its grid evaluates no node
        for problem, t_weight, t_opt, tol, opts in cases:
            grid = bm.prepare_contour(problem, t_weight, t_opt, tol, opts).grid
            for eps, t in ((opts.eps1, t_weight), (opts.eps2, 0.0)):
                want = _reference_level_curve(grid, eps, t)
                crossed.append(np.count_nonzero(want))
                np.testing.assert_array_equal(bm.level_curve(grid, eps, t).ys, want)
        assert all(crossed[2:])
        full = grid.completed()  # the bs-pseudo box, every node evaluated
        for eps, t in ((opts.eps1, t_weight), (opts.eps2, 0.0)):
            np.testing.assert_array_equal(bm.level_curve(full, eps, t).ys,
                                          _reference_level_curve(full, eps, t))

    def test_matches_reference_on_random_grids(self):
        rng = np.random.default_rng(41)
        flat = top = 0
        for trial in range(40):
            grid, eps = _random_level_grid(rng, int(rng.integers(8, 30)))
            for t in (0.0, 0.0, float(rng.uniform(-1.0, 1.0))):
                want = _reference_level_curve(grid, eps, t)
                got = bm.level_curve(grid, eps, t).ys
                np.testing.assert_array_equal(got, want, err_msg=str(trial))
                at_node = np.isin(want, grid.ys)
                flat += np.count_nonzero((want > 0.0) & at_node & (want < grid.ys[-1]))
                top += np.count_nonzero(want == grid.ys[-1])
        assert flat > 0 and top > 0  # heights at interior nodes (equal values) and at the top

    def test_normal_matrix_circle(self):
        # For A = -1 the plain level set |z + 1| = 1/2 is a circle; column
        # heights must follow sqrt(1/4 - (x+1)^2).
        grid = make_grid([[-1.0]], (-2.0, 0.0, -1.0, 1.0), n=161)
        curve = bm.level_curve(grid, 0.5, 0.0)
        for x, y in zip(curve.xs, curve.ys):
            inside = 0.25 - (x + 1.0) ** 2
            expected = np.sqrt(inside) if inside > 0 else 0.0
            assert y == pytest.approx(expected, abs=2e-2)

    @pytest.mark.parametrize("eps, t", [(0.5, 0.0), (0.2, 1.0)])
    def test_grid_for_levels_gives_full_grid_curve(self, eps, t):
        # Nodes just above the circle are certified outside by far nodes, so
        # this covers the extra evaluation level_curve interpolates against.
        spec = bm.GridSpec(-2.0, 0.0, -1.0, 1.0, 41)
        A = bm.Operator(np.array([[-1.0]]))
        pruned = bm.compute_grid(A, spec, levels=((eps, t),))
        full = bm.compute_grid(A, spec)
        assert np.isnan(pruned.sigma_min).any()
        want = bm.level_curve(full, eps, t).ys
        assert np.any(want > 0.0)
        np.testing.assert_allclose(bm.level_curve(pruned, eps, t).ys, want, rtol=0.0, atol=1e-12)
        np.testing.assert_array_equal(pruned.completed().sigma_min, full.sigma_min)

    def test_no_crossing_gives_zeros(self):
        grid = make_grid([[-1.0]], (-2.0, 0.0, -1.0, 1.0), n=16)
        curve = bm.level_curve(grid, 1e-12, 0.0)
        assert np.all(curve.ys == 0.0)

    def test_weighted_column_against_root_finder(self):
        # At the eigenvalue column the weighted value is e^{-t}/y; the curve
        # height must match the root of e^{-t}/y = 1/eps.
        from scipy.optimize import brentq

        t, eps = 1.0, 0.2
        grid = make_grid([[-1.0]], (-2.0, 0.0, -1.0, 1.0), n=201)
        curve = bm.level_curve(grid, eps, t)
        ix = np.argmin(np.abs(curve.xs + 1.0))
        assert curve.xs[ix] == pytest.approx(-1.0)
        root = brentq(lambda y: np.exp(-t) / y - 1.0 / eps, 1e-12, 1.0)
        assert curve.ys[ix] == pytest.approx(root, abs=2.0 / 200)

    def test_monotone_in_eps(self):
        grid = make_grid([[-1.0]], (-2.0, 0.0, -1.0, 1.0), n=101)
        tight = bm.level_curve(grid, 0.25, 0.0)
        loose = bm.level_curve(grid, 0.5, 0.0)
        assert np.all(tight.ys <= loose.ys + 1e-12)

    def test_rejects_bad_eps(self):
        grid = make_grid([[-1.0]], (-2.0, 0.0, -1.0, 1.0), n=16)
        with pytest.raises(ValueError):
            bm.level_curve(grid, 0.0)


class TestCriticalCurve:
    def test_max_with_zero_returns_other(self):
        xs = np.linspace(-1.0, 0.0, 12)
        flat = bm.LevelCurve(xs, np.zeros(12), 1e-9, 1.0)
        bumpy = bm.LevelCurve(xs, np.abs(np.sin(xs * 7)), 1e-13, 0.0)
        crit = bm.critical_curve(flat, bumpy)
        np.testing.assert_array_equal(crit.ys, bumpy.ys)

    def test_idempotent(self):
        xs = np.linspace(-1.0, 0.0, 12)
        c = bm.LevelCurve(xs, np.abs(np.cos(xs * 3)), 1e-9, 1.0)
        np.testing.assert_array_equal(bm.critical_curve(c, c).ys, c.ys)

    def test_interleaved_heights_elementwise(self):
        xs = np.linspace(-1.0, 0.0, 10)
        y1 = np.array([0.1, 0.9] * 5)
        y2 = np.array([0.8, 0.2] * 5)
        crit = bm.critical_curve(
            bm.LevelCurve(xs, y1, 1e-9, 1.0), bm.LevelCurve(xs, y2, 1e-13, 0.0)
        )
        np.testing.assert_array_equal(crit.ys, np.maximum(y1, y2))
        assert np.all((crit.ys == y1) | (crit.ys == y2))

    def test_mismatched_abscissae_rejected(self):
        c1 = bm.LevelCurve(np.linspace(-1, 0, 10), np.zeros(10), 1e-9)
        c2 = bm.LevelCurve(np.linspace(-2, 0, 10), np.zeros(10), 1e-13)
        with pytest.raises(GeometryError):
            bm.critical_curve(c1, c2)


class TestCsvExports:
    def test_grid_row_count_and_header(self, tmp_path):
        grid = make_grid([[-1.0]], (-2.0, 0.0, -1.0, 1.0), n=9)
        path = tmp_path / "grid.csv"
        bm.grid_to_csv(grid, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "x,y,sigma_min"
        assert len(lines) == 1 + 81

    def test_curve_export(self, tmp_path):
        grid = make_grid([[-1.0]], (-2.0, 0.0, -1.0, 1.0), n=9)
        curve = bm.level_curve(grid, 0.5, 0.0)
        path = tmp_path / "curve.csv"
        bm.curve_to_csv(curve, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "x,y_level"
        assert len(lines) == 1 + 9
        # full-precision scientific notation round-trips exactly
        x_back = float(lines[1].split(",")[0])
        assert x_back == curve.xs[0]
