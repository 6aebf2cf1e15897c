"""Integration-contour selection.

Builds the bounding half-ellipse around the singularity set, maps it through
the conformal family z(w) = a1 e^{-iw} + a2 e^{iw} + A3 (horizontal segments
go to ellipses, the strip height a controls the quadrature rate), optimizes
the free strip parameter, locates the truncation point where the integrand
falls below the target accuracy, and prices the round-off amplification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArccosDomainError, ConvergenceError, GeometryError
from .numerics import resolvent_cond, resolvent_norms

TWO_PI = 2.0 * math.pi
# Points this far outside an ellipse's boundary still count as enclosed.
ENCLOSE_SLACK = 1e-12
# optimize_a searches the strip half-height a in [1e-8, _A_MAX].
_A_MAX = 1.0
# build_inner_ellipse tries right foci at the inner points of this many
# equally spaced points of [z_l, z_r].
_M_ELL = 1000
# truncation_fixed_point starts from K = _K_INIT and gives up after
# _TRUNCATION_MAX_ITER updates of K.
_K_INIT = 100.0
_TRUNCATION_MAX_ITER = 50
# Points along the truncated arc where feasibility_check samples the condition number.
_FEASIBILITY_SAMPLES = 10


def _ellipse_form(p, z_l: float, A: float, B: float):
    """(Re p - z_l)^2 / A^2 + (Im p)^2 / B^2 per point of p; <= 1 inside the (A, B) ellipse."""
    return (p.real - z_l) ** 2 / A**2 + p.imag**2 / B**2


@dataclass(frozen=True)
class InnerEllipse:
    """Bounding half-ellipse: center z_l, right vertex z_r, passing point d + i r.

    The geometry the contour family needs is (z_l, z_r, r / sin w~) where
    w~ = arccos((d - z_l) / (z_r - z_l)); r / sin w~ is the vertical semi-axis.
    """

    z_l: float
    z_r: float
    d: float
    r: float

    def __post_init__(self):
        if not self.z_l < self.z_r:
            raise GeometryError("need z_l < z_r")
        if not self.r > 0:
            raise GeometryError("passing point must have positive height")
        if abs(self.d - self.z_l) > self.semi_major:
            raise GeometryError("passing point lies outside the horizontal extent")

    @property
    def semi_major(self) -> float:
        return self.z_r - self.z_l

    @property
    def w_tilde(self) -> float:
        return math.acos((self.d - self.z_l) / self.semi_major)

    @property
    def semi_minor(self) -> float:
        s = math.sin(self.w_tilde)
        if s == 0.0:
            raise GeometryError(
                "passing point at the vertex leaves the vertical semi-axis undefined"
            )
        return self.r / s

    def quadratic_form(self, p: complex) -> float:
        return _ellipse_form(p, self.z_l, self.semi_major, self.semi_minor)

    def encloses(self, p: complex, slack: float = ENCLOSE_SLACK) -> bool:
        return self.quadratic_form(complex(p)) <= 1.0 + slack

    def boundary_points(self, m: int = 181) -> np.ndarray:
        """Right half of the ellipse, sampled at m parameter values."""
        theta = np.linspace(-math.pi / 2, math.pi / 2, m)
        return self.z_l + self.semi_major * np.cos(theta) + 1j * self.semi_minor * np.sin(theta)


def build_inner_ellipse(phi, z_l: float, z_r: float) -> InnerEllipse:
    """Shrink the circle around the singularity set phi into the tightest ellipse.

    Starting from the circle of radius z_r - z_l centered at z_l, candidate
    ellipses through z_r with right focus at successive points of the
    ``_M_ELL``-point partition of [z_l, z_r] are considered; the last
    candidate that still encloses every point of phi is kept. The candidates
    share their center and horizontal semi-axis while the vertical one
    shrinks as the focus moves right, so they are nested and the first
    violating candidate is found by bisection, each test one
    ``_ellipse_form`` over the array phi. The returned passing point d + i r
    reports where the accepted ellipse clears the rightmost point that the
    next candidate leaves out (of equal real parts, the first in phi). A
    point outside the circle raises: every wider ellipse of the family is
    taller than wide, which contour_from_a rejects.
    """
    phi = np.asarray(phi, dtype=complex).ravel()
    if not phi.size:
        raise GeometryError("singularity set is empty")
    if not z_l < z_r:
        raise GeometryError("need z_l < z_r")
    A = z_r - z_l

    def outside(B):
        return _ellipse_form(phi, z_l, A, B) > 1.0 + ENCLOSE_SLACK

    def rightmost(mask):
        """The rightmost point of phi where mask holds; of equal real parts, the first."""
        return complex(phi[np.argmax(np.where(mask, phi.real, -np.inf))])

    circle = outside(A)
    if circle.any():
        raise GeometryError(
            f"point ({rightmost(circle):.12g}) lies outside the circle of radius "
            f"z_r - z_l = {A:.12g} about z_l = {z_l}; increase z_r"
        )
    foci = np.linspace(z_l, z_r, _M_ELL)[1:-1]

    def semi_minor(j):
        """Vertical semi-axis of candidate j; the circle's for j = -1."""
        if j < 0:
            return A
        fd = foci[j] - z_l
        return math.sqrt(A * A - fd * fd)

    # Invariant: candidates below lo enclose phi, candidates from hi on do not.
    lo, hi = 0, foci.size
    while lo < hi:
        mid = (lo + hi) // 2
        if outside(semi_minor(mid)).any():
            hi = mid
        else:
            lo = mid + 1
    prev_B = semi_minor(lo - 1)
    if lo == foci.size:
        # Even the most eccentric candidate encloses everything.
        return InnerEllipse(z_l, z_r, z_l, prev_B)
    d = rightmost(outside(semi_minor(lo))).real
    r = prev_B * math.sqrt(max(0.0, 1.0 - ((d - z_l) / A) ** 2))
    return InnerEllipse(z_l, z_r, d, r)


@dataclass(frozen=True)
class ContourParams:
    """One member of the contour family, pinned by the strip half-height a.

    The integration arc is z(x) = (a1 + a2) cos x + i (a2 - a1) sin x + A3 for
    x in [-pi/2, pi/2]; displacing the strip coordinate to +/- i a gives the
    inner bounding ellipse and the outer envelope whose rightmost point is D.
    """

    a: float
    a1: float
    a2: float
    A3: float

    def __post_init__(self):
        if not self.a > 0:
            raise GeometryError("strip half-height must be positive")
        if not (self.a1 > 0 and self.a2 > 0):
            raise GeometryError("need a1 > 0 and a2 > 0 (real foci)")
        if not self.A1 > self.A2 > 0:
            raise GeometryError("need A1 > A2 > 0 (horizontal major axis)")

    @property
    def A1(self) -> float:
        return self.a1 + self.a2

    @property
    def A2(self) -> float:
        return self.a2 - self.a1

    @property
    def D(self) -> float:
        """Rightmost real part over the outer envelope (strip level -a)."""
        return self.a1 * math.exp(-self.a) + self.a2 * math.exp(self.a) + self.A3

    def arc_points(self, m: int = 181) -> np.ndarray:
        x = np.linspace(-math.pi / 2, math.pi / 2, m)
        return conformal_map(self, x)[0]


def conformal_map(params: ContourParams, w):
    """Map strip coordinates to the contour plane: returns (z(w), z'(w)).

    z(w) = a1 e^{-iw} + a2 e^{iw} + A3 is entire; its restriction to real w
    is the integration arc, and Im(w) = y slides across the nested ellipse
    family (y = +a innermost, y = -a outermost).
    """
    w = np.asarray(w, dtype=complex)
    em, ep = np.exp(-1j * w), np.exp(1j * w)
    z = params.a1 * em + params.a2 * ep + params.A3
    dz = 1j * (params.a2 * ep - params.a1 * em)
    return z, dz


def contour_from_a(inner: InnerEllipse, a: float) -> ContourParams:
    """Solve the passing conditions for (a1, a2, A3) at strip height a."""
    if not a > 0:
        raise GeometryError("need a > 0")
    W = inner.semi_major
    B = inner.semi_minor  # r / sin(w~)
    if W <= B:
        raise GeometryError(
            f"z_r - z_l = {W} must exceed r/sin(w~) = {B}; foci would leave the real axis"
        )
    a1 = 0.5 * math.exp(-a) * (W - B)
    a2 = 0.5 * math.exp(a) * (W + B)
    return ContourParams(a, a1, a2, inner.z_l)


def window_objective(inner: InnerEllipse, a: float, t1: float, tol: float) -> float:
    """f(a) = (D(a) t1 - log(tol/pi)) / (2a): the node-count estimate at time t1."""
    return (contour_from_a(inner, a).D * t1 - math.log(tol / math.pi)) / (2.0 * a)


def a_within_reach(inner: InnerEllipse, reach: float):
    """Largest a > 0 whose arc reaches at most z_l + reach, or None when no a > 0 does.

    The arc's right vertex is z_l + A1 with A1(a) = a1 + a2 =
    ((W - B) e^{-a} + (W + B) e^a) / 2, which rises from W at a = 0. So
    A1(a) <= reach holds up to the larger root x = e^a of the quadratic
    (W + B) x^2 - 2 reach x + (W - B), and that root exceeds 1 when reach > W.
    """
    W, B = inner.semi_major, inner.semi_minor
    if not reach > W:
        return None
    return math.log((reach + math.sqrt(reach * reach - (W * W - B * B))) / (W + B))


def optimize_a(inner: InnerEllipse, t: float, tol: float) -> float:
    """Minimize the node-count proxy ``window_objective`` over a in [1e-8, _A_MAX].

    f(a) = (t D(a) - log(tol/pi)) / (2a) has f'(a) = g(a) / (2a^2) with
    g(a) = t a D'(a) - (t D(a) - log(tol/pi)), and g' = t a D'' > 0, so the
    root of g is the only minimum. D = a1 e^{-a} + a2 e^{a} + z_l gives
    D' = 2 (a2 e^a - a1 e^{-a}) and D'' = 4 (a2 e^a + a1 e^{-a}). When g
    keeps one sign on the bracket, its end is returned; otherwise Newton runs
    from 0.5, falling back to bisection when a step leaves the bracket, until
    a step is at most 1e-12 a.
    """
    log_tol = math.log(tol / math.pi)

    def g(a):
        p = contour_from_a(inner, a)
        up, down = p.a2 * math.exp(a), p.a1 * math.exp(-a)
        return t * a * 2.0 * (up - down) - (t * p.D - log_tol), t * a * 4.0 * (up + down)

    lo, hi = 1e-8, _A_MAX
    if g(lo)[0] >= 0.0:
        return lo
    if g(hi)[0] <= 0.0:
        return hi
    a = 0.5
    while True:
        value, slope = g(a)
        if value < 0.0:
            lo = a
        else:
            hi = a
        nxt = a - value / slope
        if not lo <= nxt <= hi:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - a) <= 1e-12 * a:
            return nxt
        a = nxt


def predicted_nodes(a: float, c: float, D: float, t: float, tol: float) -> int:
    """Theoretical minimum node count: ceil((c/a) (D t - log(tol/(2 pi c))))."""
    n = (c / a) * (D * t - math.log(tol / (TWO_PI * c)))
    return max(2, math.ceil(n))


@dataclass(frozen=True)
class TruncationResult:
    """Truncation parameter c and integrand-scale constant K with iteration count."""

    c: float
    K: float
    iterations: int

    def __post_init__(self):
        if not 0.0 < self.c <= 0.5:
            raise GeometryError(f"truncation parameter c = {self.c} outside (0, 1/2]")
        if not self.K > 0:
            raise GeometryError("K must be positive")


def _c_from_k(params: ContourParams, t: float, tol: float, K: float, allow_clamp: bool):
    arg = math.log(tol / K) / (params.A1 * t) - params.A3 / params.A1
    if arg > 1.0 or arg < -1.0:
        if allow_clamp:
            arg = min(max(arg, -1.0 + 1e-12), 1.0 - 1e-12)
        else:
            raise ArccosDomainError(arg)
    # arg < 0 would put the truncation beyond the quarter arc; cap at c = 1/2.
    arg = max(arg, 0.0)
    return math.acos(arg) / math.pi


def truncation_fixed_point(
    problem,
    params: ContourParams,
    t: float,
    tol: float,
    prec: float,
) -> TruncationResult:
    """Alternate c = c(K) and K = ||u^(z(c pi)) z'(c pi)|| / (2 pi) to a fixed point.

    Each K update costs one shifted solve. Stops when successive K values
    differ by less than prec, starting from K = _K_INIT. The arccos argument
    is clamped into [-1, 1] on the first two iterations only (a large
    starting K can overshoot transiently); afterwards leaving the domain is
    a hard error.
    """
    if prec <= 0:
        raise ValueError("need prec > 0")

    def k_update(c):
        z, dz = conformal_map(params, c * math.pi)
        return float(resolvent_norms(problem, z) * abs(dz) / TWO_PI)

    K_prev = _K_INIT
    iterations = 0
    for it in range(1, _TRUNCATION_MAX_ITER + 1):
        c = _c_from_k(params, t, tol, K_prev, allow_clamp=(it <= 2))
        K_next = k_update(c)
        iterations = it
        if abs(K_next - K_prev) < prec:
            K_prev = K_next
            break
        K_prev = K_next
    else:
        raise ConvergenceError(
            f"truncation iteration did not settle within {_TRUNCATION_MAX_ITER} steps"
        )
    c_final = _c_from_k(params, t, tol, K_prev, allow_clamp=False)
    return TruncationResult(c_final, K_prev, iterations)


def stability_constant(params: ContourParams, c: float, t: float) -> float:
    """Amplification of per-node solve errors: 2 a2 c e^{(a1 + a2 + z_l) t}."""
    return 2.0 * params.a2 * c * math.exp((params.a1 + params.a2 + params.A3) * t)


@dataclass(frozen=True)
class FeasibilityReport:
    """Outcome of the attainable-precision check along the arc."""

    passed: bool
    achievable: float
    max_cond: float
    stability: float
    tol: float

    @classmethod
    def forecast(cls, max_cond: float, stability: float, tol: float) -> "FeasibilityReport":
        """Round-off forecast: stability constant x unit roundoff x worst condition number."""
        achievable = stability * (np.finfo(float).eps / 2.0) * max_cond
        return cls(achievable <= tol, achievable, max_cond, stability, tol)

    def __str__(self):
        verdict = "pass" if self.passed else "fail"
        return (
            f"{verdict}: achievable precision ~ {self.achievable:.3e} "
            f"(tol {self.tol:.3e}, max cond {self.max_cond:.3e})"
        )


def feasibility_shifts(params: ContourParams, c: float) -> np.ndarray:
    """The _FEASIBILITY_SAMPLES shifts z(x), x evenly spaced over [-c pi, c pi],
    where the round-off forecast samples the condition number."""
    xs = np.linspace(-c * math.pi, c * math.pi, _FEASIBILITY_SAMPLES)
    return conformal_map(params, xs)[0]


def feasibility_check(
    problem, params: ContourParams, c: float, t: float, tol: float
) -> FeasibilityReport:
    """Estimate the best accuracy the arc supports and compare with tol.

    Samples the condition number of (z(x) I - A) along the truncated arc and
    multiplies the worst one by the stability constant and the unit roundoff.
    A failure is a verdict, not an exception.
    """
    conds = [resolvent_cond(problem.operator, z) for z in feasibility_shifts(params, c)]
    max_cond = float(np.max(conds))
    return FeasibilityReport.forecast(max_cond, stability_constant(params, c, t), tol)
