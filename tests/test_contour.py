"""Ellipse construction, conformal family, optimization, truncation, stability."""

import math
import types

import numpy as np
import pytest

import bromell as bm
from bromell import contour
from bromell.contour import ENCLOSE_SLACK, _A_MAX, _c_from_k, _ellipse_form, window_objective
from bromell.errors import ArccosDomainError, ConvergenceError, GeometryError


@pytest.fixture()
def sample_inner():
    return bm.InnerEllipse(z_l=-40.0, z_r=0.09, d=-0.1071, r=0.3075)


@pytest.fixture()
def sample_params(sample_inner):
    return bm.contour_from_a(sample_inner, 0.4543)


def _form(inner, p):
    """The membership form of inner at each point of p; <= 1 inside."""
    return _ellipse_form(np.asarray(p, dtype=complex), inner.z_l, inner.semi_major, inner.semi_minor)


def _linear_scan_ellipse(phi, z_l, z_r, m_ell=1000):
    """Reference: try the candidate foci one after another, re-sorting phi for each."""
    points = [complex(p) for p in phi]
    A = z_r - z_l

    def first_violation(B):
        for p in sorted(points, key=lambda q: -q.real):
            if (p.real - z_l) ** 2 / A**2 + p.imag**2 / B**2 > 1.0 + 1e-12:
                return p
        return None

    assert first_violation(A) is None, "oracle covers phi inside the circle only"
    prev_B = A
    for focus in np.linspace(z_l, z_r, m_ell)[1:-1]:
        fd = focus - z_l
        B = math.sqrt(A * A - fd * fd)
        violation = first_violation(B)
        if violation is not None:
            d = violation.real
            r = prev_B * math.sqrt(max(0.0, 1.0 - ((d - z_l) / A) ** 2))
            return bm.InnerEllipse(z_l, z_r, d, r)
        prev_B = B
    return bm.InnerEllipse(z_l, z_r, z_l, prev_B)


def _scipy_bounded(f, lo, hi):
    """Reference: SciPy's bounded Brent on [lo, hi], absolute tolerance 1e-6."""
    from scipy.optimize import minimize_scalar

    res = minimize_scalar(f, bounds=(lo, hi), method="bounded", options={"xatol": 1e-6, "maxiter": 200})
    return float(res.x)


def _g(inner, a, t, tol):
    """t a D'(a) - (t D(a) - log(tol/pi)): the sign of window_objective's slope at a."""
    h = 1e-6 * a
    d_prime = (bm.contour_from_a(inner, a + h).D - bm.contour_from_a(inner, a - h).D) / (2 * h)
    return t * a * d_prime - (t * bm.contour_from_a(inner, a).D - math.log(tol / math.pi))


def _random_ellipses(seed, count):
    """(inner, t, tol) triples with real foci, as the pipeline builds them."""
    rng = np.random.default_rng(seed)
    cases = []
    while len(cases) < count:
        z_l = -rng.uniform(0.5, 60.0)
        z_r = rng.uniform(-0.4, 1.0) * (-z_l)
        d = rng.uniform(z_l, z_r)
        r = rng.uniform(1e-3, 1.0) * (z_r - z_l)
        inner = bm.InnerEllipse(z_l, z_r, d, r)
        if inner.semi_minor >= inner.semi_major:
            continue
        cases.append((inner, rng.uniform(0.05, 20.0), 10.0 ** rng.uniform(-13, -2)))
    return cases


def _no_worse_than_scipy(inner, t, tol):
    """optimize_a's point against SciPy's bounded Brent on [1e-8, _A_MAX].

    Its objective is at most Brent's, to 1e-12 relative. Where Brent's point
    is interior (more than its 1e-6 tolerance from either end), the two
    points agree to that tolerance.
    """
    def f(a):
        return window_objective(inner, a, t, tol)

    got, want = bm.optimize_a(inner, t, tol), _scipy_bounded(f, 1e-8, _A_MAX)
    assert f(got) <= f(want) + 1e-12 * abs(f(want))
    if 1e-8 + 1e-6 < want < _A_MAX - 1e-6:
        assert abs(got - want) <= 1e-6 * max(want, 1.0)


@pytest.fixture()
def captured_phi(monkeypatch):
    """Calls prepare_contour and returns the (phi, z_l, z_r) it passed to build_inner_ellipse."""
    from bromell import solver

    seen = []
    build = solver.build_inner_ellipse

    def recording(phi, z_l, z_r, *args, **kwargs):
        seen.append((list(phi), z_l, z_r))
        return build(phi, z_l, z_r, *args, **kwargs)

    monkeypatch.setattr(solver, "build_inner_ellipse", recording)

    def run(problem, t_weight, t_opt, tol, opts):
        bm.prepare_contour(problem, t_weight, t_opt, tol, opts)
        return seen[-1]

    return run


class TestBuildInnerEllipse:
    def test_real_segment_gives_most_eccentric(self, monkeypatch):
        # Everything on the real axis inside the strip: the sweep runs to its
        # end and reports the passing point above the center.
        monkeypatch.setattr(contour, "_M_ELL", 200)
        phi = [complex(x, 0.0) for x in np.linspace(-3.0, 0.4, 20)]
        inner = bm.build_inner_ellipse(phi, -4.0, 0.5)
        assert inner.d == -4.0
        assert inner.r == pytest.approx(inner.semi_minor)
        assert np.all(_form(inner, phi) <= 1.0 + ENCLOSE_SLACK)

    def test_enclosure_of_random_clouds(self, monkeypatch):
        # A cloud inside the circle of radius z_r - z_l is enclosed; one with
        # a point outside it raises, since no ellipse of the family reaches it.
        monkeypatch.setattr(contour, "_M_ELL", 500)
        rng = np.random.default_rng(23)
        z_l, z_r = -5.0, 0.3
        outcomes = set()
        for _ in range(10):
            pts = [
                complex(rng.uniform(z_l, z_r), abs(rng.normal(0, 0.8)))
                for _ in range(40)
            ]
            in_circle = all(abs(p - z_l) <= z_r - z_l for p in pts)
            outcomes.add(in_circle)
            if in_circle:
                inner = bm.build_inner_ellipse(pts, z_l, z_r)
                assert np.all(_form(inner, pts) <= 1.0 + 1e-9)
            else:
                with pytest.raises(GeometryError, match="outside the circle.*increase z_r"):
                    bm.build_inner_ellipse(pts, z_l, z_r)
        assert outcomes == {True, False}

    def test_circle_fallback_when_second_candidate_fails(self):
        # A point squeezed between the circle and the very first candidate
        # ellipse survives only the circle; the passing point is reported on
        # the circle above the offender.
        z_l, z_r = -1.0, 0.0
        h_p = (z_r - z_l) / (contour._M_ELL - 1)
        tall = complex(-1.0, math.sqrt(1.0 - 0.5 * h_p**2))
        inner = bm.build_inner_ellipse([tall], z_l, z_r)
        assert _form(inner, tall) <= 1.0 + ENCLOSE_SLACK
        assert inner.d == tall.real
        assert inner.r == pytest.approx(1.0, abs=1e-12)  # on the unit circle

    def test_escape_point_above_circle(self):
        # Every wider ellipse of the family is taller than wide, which
        # contour_from_a rejects, so a point above the circle ends the stage.
        z_l, z_r = -2.0, 0.5
        with pytest.raises(GeometryError, match=r"point \(-1\+3j\) lies outside .* increase z_r"):
            bm.build_inner_ellipse([-1.0 + 0.1j, complex(-1.0, 3.0)], z_l, z_r)
        # The default z_r of this operator sits just right of Re(-1 +- 2i),
        # so the circle about z_l = -41 passes below the eigenvalue.
        A = bm.Operator(np.array([[-1.0, 2.0], [-2.0, -1.0]]))
        problem = bm.LaplaceProblem(A, np.array([1.0, 0.5]))
        with pytest.raises(bm.StageError, match=r"\(-1\+2j\) .* increase z_r") as info:
            bm.prepare_contour(problem, 1.0, 1.0, 1e-8)
        assert info.value.stage == "inner-ellipse"

    def test_real_axis_outlier_is_an_error(self):
        with pytest.raises(GeometryError, match="increase z_r"):
            bm.build_inner_ellipse([5.0 + 0.0j], -2.0, 0.5)

    def test_pipeline_sets_match_linear_scan(self, cd_problem, bs_problem, captured_phi):
        cases = [
            (cd_problem, 1.0, 1.0, 5e-8, bm.SolveOptions(z_l=-40.0, z_r=0.09)),
            (bs_problem, 1.0, 10.0, 5e-8, bm.SolveOptions(grid_pts=50)),
        ]
        for problem, t_weight, t_opt, tol, opts in cases:
            phi, z_l, z_r = captured_phi(problem, t_weight, t_opt, tol, opts)
            assert len(phi) > 100
            assert bm.build_inner_ellipse(phi, z_l, z_r) == _linear_scan_ellipse(phi, z_l, z_r)

    def test_random_sets_match_linear_scan(self, monkeypatch):
        rng = np.random.default_rng(31)
        z_l, z_r = -5.0, 0.3
        A = z_r - z_l
        for trial in range(20):
            m_ell = int(rng.choice([2, 3, 17, 200, 1000]))
            height = rng.uniform(0.05, 3.0)
            pts = [
                complex(rng.uniform(z_l, z_r), abs(rng.normal(0.0, height)))
                for _ in range(int(rng.integers(1, 60)))
            ]
            pts = [p for p in pts if abs(p - z_l) < A] or [complex(z_l, 0.0)]
            monkeypatch.setattr(contour, "_M_ELL", m_ell)
            got = bm.build_inner_ellipse(pts, z_l, z_r)
            assert got == _linear_scan_ellipse(pts, z_l, z_r, m_ell), trial

    def test_shared_real_parts_match_linear_scan(self, monkeypatch):
        # Points with equal real parts: the stable sort keeps phi's order, so
        # the passing point's d is the first listed offender, signed zero too.
        z_l, z_r = -1.0, 0.5
        for first, second in ((-0.0, 0.0), (0.0, -0.0)):
            pts = [complex(first, 1.0), complex(second, 1.0), complex(-0.5, 0.2)]
            got, want = bm.build_inner_ellipse(pts, z_l, z_r), _linear_scan_ellipse(pts, z_l, z_r)
            assert got == want
            assert math.copysign(1.0, got.d) == math.copysign(1.0, want.d)
            assert math.copysign(1.0, got.d) == math.copysign(1.0, first)
        rng = np.random.default_rng(37)
        z_l, z_r = -5.0, 0.3
        for trial in range(20):
            m_ell = int(rng.choice([3, 17, 200, 1000]))
            columns = rng.uniform(z_l, z_r, int(rng.integers(1, 6)))
            pts = [
                complex(rng.choice(columns), rng.uniform(0.0, 2.0))
                for _ in range(int(rng.integers(2, 40)))
            ]
            pts = [p for p in pts if abs(p - z_l) < z_r - z_l] or [complex(z_l, 0.0)]
            monkeypatch.setattr(contour, "_M_ELL", m_ell)
            got = bm.build_inner_ellipse(pts, z_l, z_r)
            assert got == _linear_scan_ellipse(pts, z_l, z_r, m_ell), trial

    def test_first_candidate_violates_matches_linear_scan(self):
        z_l, z_r = -1.0, 0.0
        h_p = (z_r - z_l) / (contour._M_ELL - 1)
        tall = complex(-1.0, math.sqrt(1.0 - 0.5 * h_p**2))
        want = _linear_scan_ellipse([tall], z_l, z_r, contour._M_ELL)
        assert want.r == pytest.approx(1.0, abs=1e-12)  # the circle was kept
        assert bm.build_inner_ellipse([tall], z_l, z_r) == want

    def test_most_eccentric_encloses_all_matches_linear_scan(self, monkeypatch):
        monkeypatch.setattr(contour, "_M_ELL", 200)
        phi = [complex(x, 0.0) for x in np.linspace(-3.0, 0.4, 20)]
        want = _linear_scan_ellipse(phi, -4.0, 0.5, 200)
        assert want.d == -4.0  # no candidate violated
        assert bm.build_inner_ellipse(phi, -4.0, 0.5) == want

    def test_reference_recipe_passing_point(self, cd_report):
        # Known placement for the d=400 / 64-point / t=1 configuration
        # (+-20 percent: the level curves are grid-resolution dependent).
        inner = cd_report.inner
        assert inner.d == pytest.approx(-0.1071, rel=0.20)
        assert inner.r == pytest.approx(0.3075, rel=0.20)


class TestConformalMap:
    def test_arc_extremes(self, sample_params):
        p = sample_params
        top, _ = bm.conformal_map(p, math.pi / 2)
        bottom, _ = bm.conformal_map(p, -math.pi / 2)
        assert top == pytest.approx(complex(p.A3, p.A2), abs=1e-12)
        assert bottom == pytest.approx(complex(p.A3, -p.A2), abs=1e-12)

    def test_right_vertex(self, sample_params):
        p = sample_params
        z0, _ = bm.conformal_map(p, 0.0)
        assert z0 == pytest.approx(complex(p.a1 + p.a2 + p.A3), abs=1e-12)

    def test_lower_level_reaches_d(self, sample_params):
        # The rightmost point of the outer envelope is the growth constant D.
        p = sample_params
        z, _ = bm.conformal_map(p, complex(0.0, -p.a))
        assert z.real == pytest.approx(p.D, rel=1e-14)
        assert abs(z.imag) <= 1e-12

    def test_derivative_matches_finite_differences(self, sample_params):
        h = 1e-6
        for w in (0.3, -1.0 + 0.2j, complex(0.1, -0.4)):
            z_p, dz = bm.conformal_map(sample_params, w + h)
            z_m, _ = bm.conformal_map(sample_params, w - h)
            _, dz_mid = bm.conformal_map(sample_params, w)
            fd = (z_p - z_m) / (2 * h)
            assert dz_mid == pytest.approx(fd, rel=1e-8)

    def test_array_input(self, sample_params):
        xs = np.linspace(-1.0, 1.0, 7)
        z, dz = bm.conformal_map(sample_params, xs)
        assert z.shape == xs.shape and dz.shape == xs.shape


class TestContourFromA:
    def test_passing_conditions_at_strip_level(self, sample_inner):
        # The image of the strip level y = a must pass through z_r at x = 0
        # and through d + i r at x = w~; residuals vanish to 1e-12.
        a = 0.4543
        p = bm.contour_from_a(sample_inner, a)
        z0, _ = bm.conformal_map(p, complex(0.0, a))
        assert abs(z0 - sample_inner.z_r) <= 1e-12 * abs(sample_inner.z_r - sample_inner.z_l)
        zw, _ = bm.conformal_map(p, complex(sample_inner.w_tilde, a))
        assert abs(zw - complex(sample_inner.d, sample_inner.r)) <= 1e-12 * 40

    def test_growth_constant_limit_at_zero(self, sample_inner):
        # As a -> 0 the outer envelope collapses onto the bounding ellipse,
        # so D tends to z_r.
        p = bm.contour_from_a(sample_inner, 1e-9)
        assert p.D == pytest.approx(sample_inner.z_r, abs=1e-6)

    def test_exponential_scaling_in_a(self, sample_inner):
        a = 0.3
        p1 = bm.contour_from_a(sample_inner, a)
        p2 = bm.contour_from_a(sample_inner, 2 * a)
        assert p2.a2 == pytest.approx(p1.a2 * math.exp(a), rel=1e-14)
        assert p2.a1 == pytest.approx(p1.a1 * math.exp(-a), rel=1e-14)

    def test_degenerate_geometry_rejected(self):
        # Vertical semi-axis exceeding the horizontal one pushes the foci off
        # the real axis.
        inner = bm.InnerEllipse(z_l=-1.0, z_r=0.0, d=-1.0, r=2.0)
        with pytest.raises(GeometryError, match="foci"):
            bm.contour_from_a(inner, 0.5)

    def test_nesting_of_arc_and_bounding_ellipse(self, sample_inner, sample_params):
        # The integration arc stays strictly outside the bounding ellipse
        # (so every enclosed singularity is left of the arc), and strictly
        # inside the outer envelope.
        p = sample_params
        for x in np.linspace(-math.pi / 2, math.pi / 2, 100):
            z, _ = bm.conformal_map(p, x)
            assert _form(sample_inner, z) > 1.0
        outer_A = p.a1 * math.exp(-p.a) + p.a2 * math.exp(p.a)
        outer_B = p.a2 * math.exp(p.a) - p.a1 * math.exp(-p.a)
        for x in np.linspace(-math.pi / 2, math.pi / 2, 100):
            z, _ = bm.conformal_map(p, x)
            q = ((z.real - p.A3) / outer_A) ** 2 + (z.imag / outer_B) ** 2
            assert q < 1.0


class TestOptimizeA:
    def test_local_optimality(self, sample_inner):
        t, tol = 1.0, 5e-8
        a = bm.optimize_a(sample_inner, t, tol)

        def f(aa):
            return (bm.contour_from_a(sample_inner, aa).D * t - math.log(tol / math.pi)) / (2 * aa)

        assert f(a) <= f(a + 0.01)
        assert f(a) <= f(a - 0.01)

    def test_against_dense_scan(self, sample_inner):
        t, tol = 1.0, 5e-8
        a = bm.optimize_a(sample_inner, t, tol)
        grid = np.linspace(1e-4, 1.0, 10_000)
        vals = [
            (bm.contour_from_a(sample_inner, aa).D * t - math.log(tol / math.pi)) / (2 * aa)
            for aa in grid
        ]
        assert abs(a - grid[int(np.argmin(vals))]) <= 1e-3

    def test_scan_value_agreement(self, sample_inner):
        # The minimizer's objective must be within 1e-6 (relative) of the
        # best value seen by a thousand-point scan.
        t, tol = 1.0, 5e-8
        a = bm.optimize_a(sample_inner, t, tol)

        def f(aa):
            return (bm.contour_from_a(sample_inner, aa).D * t - math.log(tol / math.pi)) / (2 * aa)

        scan = min(f(aa) for aa in np.linspace(1e-4, 1.0, 1000))
        assert f(a) <= scan * (1 + 1e-6)

    def test_invariants_on_result(self, sample_inner):
        p = bm.contour_from_a(sample_inner, bm.optimize_a(sample_inner, 1.0, 5e-8))
        assert p.A1 > p.A2 > 0
        assert p.a1 > 0 and p.a2 > 0

    def test_matches_scipy_on_pipeline_ellipses(self, cd_problem, bs_problem, captured_phi):
        cases = [
            (cd_problem, 1.0, 1.0, 5e-8, bm.SolveOptions(z_l=-40.0, z_r=0.09)),
            (bs_problem, 1.0, 10.0, 5e-8, bm.SolveOptions(grid_pts=50)),
        ]
        for problem, t_weight, t_opt, tol, opts in cases:
            inner = bm.build_inner_ellipse(*captured_phi(problem, t_weight, t_opt, tol, opts))
            _no_worse_than_scipy(inner, t_opt, tol)

    def test_matches_scipy_on_random_ellipses(self):
        for inner, t, tol in _random_ellipses(41, 200):
            _no_worse_than_scipy(inner, t, tol)

    def test_slope_changes_sign_across_the_result(self):
        interior = 0
        for inner, t, tol in _random_ellipses(41, 200):
            a = bm.optimize_a(inner, t, tol)
            if 1e-8 < a < _A_MAX:
                interior += 1
                assert _g(inner, a * (1 - 1e-6), t, tol) < 0 < _g(inner, a * (1 + 1e-6), t, tol)
        assert interior > 100

    def test_degenerate_brackets_return_their_ends(self):
        inner = bm.InnerEllipse(z_l=-1.0, z_r=1.0, d=0.0, r=0.5)
        # t z_r < log(tol/pi): f < 0 and rising from a = 0, so the left end wins.
        assert bm.optimize_a(inner, 1e-3, 10.0) == 1e-8
        assert _g(inner, 1e-8, 1e-3, 10.0) > 0
        # A very small tol puts the root of g beyond the bracket.
        assert bm.optimize_a(inner, 1e-3, 1e-300) == _A_MAX
        assert _g(inner, _A_MAX, 1e-3, 1e-300) < 0

    def test_degenerate_geometry_raises(self):
        inner = bm.InnerEllipse(z_l=-1.0, z_r=1.0, d=-1.0, r=2.5)
        with pytest.raises(GeometryError, match="foci would leave the real axis"):
            bm.optimize_a(inner, 1.0, 1e-8)


class TestPredictedNodes:
    def test_half_truncation_matches_coarse_bound(self, sample_params):
        p = sample_params
        t, tol = 1.0, 5e-8
        got = bm.predicted_nodes(p.a, 0.5, p.D, t, tol)
        coarse = (p.D * t - math.log(tol / math.pi)) / (2 * p.a)
        assert got == math.ceil(coarse)

    def test_log_linearity_in_tol(self, sample_params):
        p = sample_params
        c, t, tol = 0.3, 1.0, 1e-6
        base = (c / p.a) * (p.D * t - math.log(tol / (2 * math.pi * c)))
        dN = 7
        shrunk = tol * math.exp(-p.a / c * dN)
        bumped = (c / p.a) * (p.D * t - math.log(shrunk / (2 * math.pi * c)))
        assert bumped - base == pytest.approx(dN, rel=1e-12)

    def test_inverse_pair_with_error_model(self, sample_params):
        p = sample_params
        c, t, tol = 0.316, 1.0, 5e-8
        n_real = (c / p.a) * (p.D * t - math.log(tol / (2 * math.pi * c)))
        assert bm.error_model(p, c, t, n_real) == pytest.approx(tol, rel=1e-12)
        assert bm.predicted_nodes(p.a, c, p.D, t, tol) == math.ceil(n_real)


def _x_from_z(params, z):
    """Invert the arc parametrization (oracle use only): solve for e^{ix}."""
    # a2 u^2 + (A3 - z) u + a1 = 0 with u = e^{ix}
    disc = np.sqrt((params.A3 - z) ** 2 - 4 * params.a1 * params.a2 + 0j)
    for sign in (1, -1):
        u = (-(params.A3 - z) + sign * disc) / (2 * params.a2)
        if abs(abs(u) - 1.0) < 1e-8:
            return u
    raise AssertionError("point not on the arc")


class _ConstantNormProblem:
    """Duck-typed problem whose ||uhat z'|| is constant along the arc."""

    def __init__(self, params, K_true):
        self.operator = bm.Operator(np.zeros((1, 1)))
        self.u0 = np.zeros(1)
        self.singularities = ()
        self.is_real = True
        self.dim = 1
        self._params = params
        self._K = K_true

    def bhat(self, z):
        u = _x_from_z(self._params, z)
        dz = 1j * (self._params.a2 * u - self._params.a1 / u)
        # uhat = bhat / z, so ||uhat|| |z'| = 2 pi K everywhere
        return np.array([z * 2 * math.pi * self._K / abs(dz)])

    def schur_rhs(self, z):
        """Q* (u0 + bhat(z)): the right-hand side every solve reads, in Schur coordinates."""
        return self.operator.schur_vectors.conj().T @ (self.u0 + self.bhat(z))


class TestTruncationFixedPoint:
    def test_constant_norm_converges_in_two_iterations(self, sample_params):
        prob = _ConstantNormProblem(sample_params, K_true=0.25)
        res = bm.truncation_fixed_point(prob, sample_params, 1.0, 5e-8, prec=0.1)
        assert res.iterations == 2
        assert res.K == pytest.approx(0.25, abs=1e-12)

    def test_zero_arccos_argument_gives_half(self, sample_params):
        p = sample_params
        tol = 5e-8
        K = tol * math.exp(-p.A3 * 1.0)
        assert _c_from_k(p, 1.0, tol, K, allow_clamp=False) == pytest.approx(0.5, abs=1e-14)

    def test_domain_error_without_clamp(self, sample_params):
        p = sample_params
        tol = 5e-8
        bad_K = tol * math.exp(-(p.A1 + p.A3) * 1.0) / math.e**2
        with pytest.raises(ArccosDomainError):
            _c_from_k(p, 1.0, tol, bad_K, allow_clamp=False)
        clamped = _c_from_k(p, 1.0, tol, bad_K, allow_clamp=True)
        assert 0.0 < clamped <= 0.5

    def test_iteration_budget_error(self, sample_params, cd_problem, monkeypatch):
        monkeypatch.setattr(contour, "_TRUNCATION_MAX_ITER", 2)
        with pytest.raises(ConvergenceError):
            bm.truncation_fixed_point(cd_problem, sample_params, 1.0, 5e-8, prec=1e-12)

    def test_postcondition_on_reference_run(self, cd_report, cd_problem):
        # (1/2 pi) ||uhat z'|| e^{Re z(c pi) t} must land within a factor 2
        # of the target accuracy.
        c = cd_report.truncation.c
        g = bm.integrand(cd_problem, cd_report.contour, c * math.pi, 1.0)
        level = np.linalg.norm(g) / (2 * math.pi)
        assert cd_report.tol / 2 <= level <= 2 * cd_report.tol


class TestStability:
    def test_unit_arithmetic(self):
        params = types.SimpleNamespace(a1=1.0, a2=1.0, A3=-2.0)
        assert bm.stability_constant(params, 0.25, 1.0) == pytest.approx(0.5, rel=1e-15)

    def test_shift_scaling_in_center(self):
        p1 = types.SimpleNamespace(a1=2.0, a2=5.0, A3=-3.0)
        p2 = types.SimpleNamespace(a1=2.0, a2=5.0, A3=-4.5)
        ratio = bm.stability_constant(p2, 0.3, 2.0) / bm.stability_constant(p1, 0.3, 2.0)
        assert ratio == pytest.approx(math.exp(-1.5 * 2.0), rel=1e-13)

    def test_two_forms_identical(self, cd_report):
        c = cd_report.truncation.c
        p = cd_report.contour
        tight = bm.stability_constant(p, c, 1.0)
        # loose form c (A1 + A2) e^{(A1 + A3) t}
        loose = c * (p.A1 + p.A2) * math.exp((p.A1 + p.A3) * 1.0)
        assert tight == pytest.approx(loose, rel=1e-14)


class TestFeasibility:
    def test_perfectly_conditioned_passes(self, sample_params):
        prob = bm.LaplaceProblem(bm.Operator(np.array([[-1.0]])), np.ones(1))
        verdict = bm.feasibility_check(prob, sample_params, 0.3, 1.0, 1e-6)
        assert verdict.passed

    def test_tol_below_achievable_fails(self, sample_params):
        prob = bm.LaplaceProblem(bm.Operator(np.array([[-1.0]])), np.ones(1))
        base = bm.feasibility_check(prob, sample_params, 0.3, 1.0, 1e-6)
        tight = bm.feasibility_check(prob, sample_params, 0.3, 1.0, base.achievable / 10)
        assert not tight.passed
        assert tight.achievable == pytest.approx(base.achievable)
