"""Quadrature on the selected contour and pipeline orchestration.

The evolution value u(t) is recovered as a trapezoidal sum of
G(x) = e^{z(x) t} (z(x) I - A)^{-1} (u0 + bhat(z(x))) z'(x) over the
truncated arc x in [-c pi, c pi]. With A = Q T Q*, G(x) = Q e^{z t} yhat(z) z'
where yhat(z) = (zI - T)^{-1} Q* (u0 + bhat(z)) is the node's solve in Schur
coordinates (numerics.schur_solution), so every node costs one triangular
solve and each sum applies Q once, to its sum of rows. Node data that does
not depend on t (the shifted solves) is kept for the finest rule solved, so
doubling the node count reuses every previous evaluation and a whole time
window can share one contour's node solves.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .contour import (
    ContourParams,
    FeasibilityReport,
    InnerEllipse,
    TruncationResult,
    _c_from_k,
    a_within_reach,
    build_inner_ellipse,
    conformal_map,
    contour_from_a,
    feasibility_check,
    feasibility_shifts,
    optimize_a,
    predicted_nodes,
    stability_constant,
    truncation_fixed_point,
    window_objective,
)
from .errors import GeometryError, SingularSystemError, StageError
from .numerics import (
    ShiftedSystem,
    eigenvalues,
    reference_solution,
    resolvent_norms,
    schur_solution,
)
from .problems import write_csv
from .pseudospectra import (
    GridSpec,
    SigmaMinEvaluator,
    _slackened,
    compute_grid,
    critical_curve,
    level_curve,
)

PI = math.pi
TWO_PI = 2.0 * math.pi
# Quadrature nodes must keep this distance from source poles.
NODE_SINGULARITY_GAP = 1e-8
# Sample counts of the sampled bounds: points per end vertical or half-line
# (estimate_delta, estimate_k_ell) and per displaced-line range
# (sample_line_maxima, rigorous_error_bound).
_EDGE_SAMPLES = 32
_LINE_SAMPLES = 64
# plan_window lowers a until this multiple of the round-off forecast over
# the whole arc at t1 meets tol.
ROUNDOFF_SAFETY = 10.0
# plan_window skips the margin's condition estimates when ROUNDOFF_SAFETY
# times the bounded forecast is at most this fraction of tol; the rest
# absorbs the rounding of the estimates the bound exceeds.
_SIZING_CERTIFIED = 0.5


# ---------------------------------------------------------------------------
# node cache and quadrature


class NodeCache:
    """Shifted solves of the nested trapezoidal rules on a fixed truncated arc.

    Node j of an N-point rule sits at x = -c pi + (j/N) 2 c pi. Refinement is
    by doubling, and the 2N-point rule keeps every node of the N-point rule,
    so the cache holds one stack (z, dz, Y): the interior nodes of the finest
    rule it has solved, N_f, with row j-1 of Y the solve in Schur coordinates
    yhat = Q* uhat at node j (numerics.schur_solution); the sums apply Q.
    ``rule(N)`` reads it three ways:

    - N divides N_f: the rule is a strided view of the stack, rows s-1::s
      with s = N_f/N, so a time ladder or a coarser rule restacks nothing.
    - N is a multiple of N_f: a new stack of N-1 rows takes the held rows in
      every s-th row, s = N/N_f, and only the new nodes are prepared
      (``_prepare``) and solved, one block in the other rows; the older
      stack is then dropped.
    - Otherwise the rule starts a new base: the held stack is dropped and
      every node of the N-point rule is fresh. Every rule the pipeline sums
      is N0 2^k for the first rule N0 on its cache, so only direct callers
      start one.

    j s/(N s) rounds to the same x as j/N, so a node has the same bits
    whichever rule prepares it. Each fresh node is one ShiftedSystem and one
    triangular solve, in place in its row.

    Counting contract: every sum makes one ``node(j, N)`` call per node, and
    each fresh node's ShiftedSystem is made inside that call. So
    ``solve_count`` and ``reuse_count`` are those of a per-node loop over
    one chain of rules, and a tracer that wraps ``node`` and ShiftedSystem
    (perfbench) reads the same counts from its spans as the cache keeps.
    """

    def __init__(self, problem, params: ContourParams, c: float):
        self.problem = problem
        self.params = params
        self.c = float(c)
        self.solve_count = 0
        self.reuse_count = 0
        self._poles = np.array(problem.singularities, dtype=complex)
        # The finest rule held, N_f (the 1-point rule has no interior node),
        # its (z, dz, Y), and while rule() runs the rows not yet solved.
        self._N = 1
        self._stack: tuple[np.ndarray, np.ndarray, np.ndarray] = None
        self._unsolved: set[int] = set()

    def node_x(self, j, N: int):
        return -self.c * PI + (2.0 * self.c * PI) * (j / N)

    def _check_poles(self, z: np.ndarray) -> None:
        """Raise if a node of z (1-D, in node order) sits on a source pole."""
        if not self._poles.size:
            return
        near = np.abs(np.subtract.outer(z, self._poles)) < NODE_SINGULARITY_GAP
        if near.any():
            i, k = divmod(int(near.argmax()), self._poles.size)
            raise SingularSystemError(
                f"quadrature node z = {complex(z[i])} sits on source "
                f"pole {complex(self._poles[k])}; the contour is misplaced"
            )

    def _prepare(self, j: np.ndarray, N: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """z, dz and Schur right-hand sides Y of nodes j (1-D) of the N-point
        rule, as one block: the source-pole check runs on all of them before
        any is solved, and Y is C-contiguous complex, one row per node, so each
        row can be solved in place."""
        z, dz = conformal_map(self.params, self.node_x(j, N))
        self._check_poles(z)
        return z, dz, np.ascontiguousarray(self.problem.schur_rhs(z), dtype=complex)

    def node(self, j: int, N: int) -> None:
        """Count node j of the N-point rule, a rule of the held stack, as a
        reuse, or solve it in place in its row if that is not solved yet."""
        i = j * (self._N // N) - 1
        if i not in self._unsolved:
            self.reuse_count += 1
            return
        z, _, Y = self._stack
        y = Y[i]
        solved = ShiftedSystem(self.problem.operator, z[i]).solve_schur(y)
        if solved is not y:  # trtrs solved on a copy
            y[...] = solved
        self._unsolved.remove(i)
        self.solve_count += 1

    def rule(self, N: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only (z, dz, Y) of the N-point rule's interior nodes, Y (N-1, dim).

        Views of the held stack, after refining it to N or starting a new
        base at N when N does not divide N_f (see the class docstring). Every
        node goes through ``node`` on each call, so the solve and reuse counts
        are those of a per-node loop. A source pole on a new node raises
        before anything changes, and a failed solve restores the held rule.
        """
        held = self._N, self._stack
        if self._N % N:
            s = N // self._N if N % self._N == 0 else N  # N: a new base
            fresh = np.flatnonzero(np.arange(1, N) % s)
            stack = self._prepare(fresh + 1, N)
            if s < N:  # the held rows go to every s-th row of the new stack
                parts = []
                for old, new in zip(self._stack, stack):
                    part = np.empty((N - 1, *new.shape[1:]), dtype=complex)
                    part[s - 1 :: s], part[fresh] = old, new
                    parts.append(part)
                stack = tuple(parts)
            self._N, self._stack, self._unsolved = N, stack, set(fresh.tolist())
        try:
            for j in range(1, N):
                self.node(j, N)
        except BaseException:
            self._N, self._stack = held
            self._unsolved = set()
            raise
        s = self._N // N
        views = tuple(part[s - 1 :: s] for part in self._stack)
        for view in views:
            view.flags.writeable = False
        return views


def _rows(stack, t: float, start: int = 0) -> np.ndarray:
    """Fresh rows e^{zt} yhat dz of the stacked nodes from index start on, in
    the operand order of the per-node product exp(z t) * yhat * dz (the other
    order changes last bits)."""
    z, dz, Y = (part[start:] for part in stack)
    rows = np.multiply(np.exp(z * t)[:, None], Y)
    rows *= dz[:, None]
    return rows


@dataclass(frozen=True, eq=False)
class QuadratureResult:
    """One N-point trapezoidal evaluation plus its model diagnostics.

    node_values is read-only, (N-1, dim), in Schur coordinates: row j-1 is
    e^{zt} yhat(z) dz at node j, and G at node j is Q times it (Q the
    operator's Schur vectors, ``cache.problem.operator.schur_vectors``). It
    is formed on first access from the rule's stacked nodes (``stack``,
    read-only views of the cache's (z, dz, Y)) and t.
    """

    N: int
    approx: np.ndarray
    nodes: np.ndarray
    c: float
    t: float
    est_error: float
    B_term: float
    cache: NodeCache = field(repr=False)
    stack: tuple = field(repr=False)

    @cached_property
    def node_values(self) -> np.ndarray:
        rows = _rows(self.stack, self.t)
        rows.flags.writeable = False
        return rows


def integrand(problem, params: ContourParams, x, t: float) -> np.ndarray:
    """G at one strip coordinate (real on the arc, complex for diagnostics)."""
    z, dz = conformal_map(params, x)
    return np.exp(z * t) * (problem.operator.schur_vectors @ schur_solution(problem, z)) * dz


def _row_sum(rows: np.ndarray) -> np.ndarray:
    """Rows added in order, as a loop from np.zeros would. On the float view
    (at least two columns) np.add.reduce adds whole rows one after another;
    sum(axis=0) of a one-column array would go pairwise. 0.0 + turns a sum of
    -0 into +0 where the reduction starts from the first row instead of +0."""
    return 0.0 + np.add.reduce(rows.view(float), axis=0).view(complex)


def _unfolded_sum(values: np.ndarray, Q: np.ndarray, c: float, N: int) -> np.ndarray:
    return (c / (1j * N)) * (Q @ _row_sum(values))


def trapezoid_sum(
    problem, params: ContourParams, c: float, t: float, N: int, cache: NodeCache = None
) -> QuadratureResult:
    """N-point trapezoidal rule on the arc x in [-c pi, c pi].

    All interior nodes j = 1..N-1 are evaluated (and cached). The rows
    e^{zt} yhat dz are summed in Schur coordinates and Q is applied once, to
    the row sum. For real data the sum is folded onto the upper-half nodes
    through the imaginary part, (2c/N) Im(Q s_upper), which returns an
    exactly real vector; only those rows are formed, and the node at x = 0
    (present for even N) carries half weight so the folded sum equals the
    full one. The other rows carry no weight: a multiply by 1+0j would only
    change zero signs, which a sum started from +0 drops, for finite rows.
    """
    if N < 2:
        raise ValueError("need N >= 2")
    if not 0 < c <= 0.5:
        raise ValueError("need c in (0, 1/2]")
    if cache is None:
        cache = NodeCache(problem, params, c)
    if cache.problem is not problem:
        raise GeometryError("node cache belongs to a different problem")
    if cache.params != params:
        raise GeometryError("node cache belongs to a different contour")
    if cache.c != c:
        raise GeometryError("node cache belongs to a different truncation width")

    stack = cache.rule(N)
    Q = problem.operator.schur_vectors
    if problem.is_real:
        rows = _rows(stack, t, math.ceil(N / 2) - 1)
        if N % 2 == 0:
            rows[0] *= 0.5  # node j = N/2, at x = 0
        approx = (2.0 * c / N) * np.imag(Q @ _row_sum(rows))
    else:
        approx = _unfolded_sum(_rows(stack, t), Q, c, N)

    xs = cache.node_x(np.arange(1, N), N)
    est = error_model(params, c, t, N)
    B = b_term(params, c, t, N)
    return QuadratureResult(N, approx, xs, float(c), float(t), est, B, cache, stack)


def refine_doubling(prev: QuadratureResult, problem, params: ContourParams, t: float) -> QuadratureResult:
    """2N-point result reusing every previous node; N fresh solves."""
    return trapezoid_sum(problem, params, prev.c, t, 2 * prev.N, cache=prev.cache)


def full_sum(result: QuadratureResult) -> np.ndarray:
    """Unfolded sum over all interior nodes with the 1/(2 pi i) constant:
    Q applied to the sum of the Schur-coordinate rows.

    For real data this agrees with the folded imaginary-part formula; it is
    exposed so the agreement can be checked rather than assumed.
    """
    Q = result.cache.problem.operator.schur_vectors
    return _unfolded_sum(result.node_values, Q, result.c, result.N)


# ---------------------------------------------------------------------------
# error models


def error_model(params: ContourParams, c: float, t: float, N: int) -> float:
    """Leading-order quadrature error 2 pi c e^{D t - (a/c) N}.

    The inverse of the node-count prediction.
    """
    return TWO_PI * c * math.exp(params.D * t - (params.a / c) * N)


def delta_offset(c: float, N: int) -> float:
    """Distance delta in the end-segment alignment: pi/2 - (2k+1) eta - xi."""
    xi = c * PI
    eta = xi / N
    rem = PI / 2 - xi - eta
    if rem <= 0:
        return max(PI / 2 - xi, 0.0)
    k = math.floor(rem / (2 * eta))
    return rem - 2 * k * eta


def b_term(params: ContourParams, c: float, t: float, N: int) -> float:
    """End-of-arc leakage factor of the quadrature error bound per unit integrand
    size, (2 c log 2)/(N pi) e^{((a1 e^{-a} + a2 e^{a}) cos(pi/2 - delta) + A3) t};
    rigorous_error_bound scales it by estimate_delta, the sampled size near the arc ends.
    """
    delta = delta_offset(c, N)
    outer = params.a1 * math.exp(-params.a) + params.a2 * math.exp(params.a)
    return (2.0 * c * math.log(2.0)) / (N * PI) * math.exp(
        (outer * math.cos(PI / 2 - delta) + params.A3) * t
    )


def estimate_delta(problem, params: ContourParams, c: float, N: int) -> float:
    """Sampled bound (x2 safety) on ||uhat z'|| along the end verticals x = +/-(pi/2 - delta)."""
    x0 = PI / 2 - delta_offset(c, N)
    ys = np.linspace(-params.a, params.a, _EDGE_SAMPLES)
    z, dz = conformal_map(params, np.add.outer((x0, -x0), 1j * ys))
    return 2.0 * float(np.max(resolvent_norms(problem, z) * np.abs(dz)))


def estimate_k_ell(problem, params: ContourParams, t: float) -> float:
    """Sampled bound (x2 safety) on ||uhat z'|| along the outgoing half-lines.

    The half-lines leave the arc ends A3 +/- i A2 at 45 degrees; the
    exponential decay e^{x t} is handled analytically by the truncation
    bound, so only the algebraic factor is sampled (over a few decay lengths).
    """
    span = max(4.0 / max(t, 1e-12), 2.0)
    ss = np.linspace(0.0, span, _EDGE_SAMPLES)
    # For real data the lower half-line mirrors the upper one's norms.
    signs = np.array([1.0] if problem.is_real else [1.0, -1.0])[:, None]
    z = (params.A3 - ss) + 1j * (signs * (params.A2 + ss))
    return 2.0 * float(np.max(resolvent_norms(problem, z) * abs(complex(-1.0, 1.0))))


def _integrand_norms(problem, params: ContourParams, w, t: float) -> np.ndarray:
    """||G|| / (2 pi) at each strip coordinate of w."""
    z, dz = conformal_map(params, w)
    return resolvent_norms(problem, z) * np.abs(np.exp(z * t) * dz) / TWO_PI


def sample_line_maxima(problem, params: ContourParams, c: float, t: float, N: int):
    """Sampled maxima of ||G||/(2 pi) on the displaced lines.

    Returns (m_plus, m_minus, s_minus): m_plus spans the whole arc on the
    inner displaced line (strip level +a); m_minus and s_minus live on the
    outer line (level -a), split at |x| = c pi + c pi / N.
    """
    a, cpi = params.a, c * PI
    eta = cpi / N

    def max_g(x_values, level):
        return float(np.max(_integrand_norms(problem, params, x_values + 1j * level, t)))

    m_plus = max_g(np.linspace(-PI / 2, PI / 2, _LINE_SAMPLES), +a)
    m_minus = max_g(np.linspace(-(cpi + eta), cpi + eta, _LINE_SAMPLES), -a)
    s_minus = 0.0
    if PI / 2 - cpi - eta > 0:
        half = np.linspace(cpi + eta, PI / 2, _LINE_SAMPLES // 2)
        s_minus = max_g(np.concatenate((half, -half)), -a)
    return m_plus, m_minus, s_minus


def rigorous_error_bound(problem, params: ContourParams, c: float, t: float, N: int, tol: float) -> float:
    """Assembled quadrature error bound from sampled maxima on the displaced lines.

    Sampling raises the usual caveat: 64 points per range, no certification.
    The bound assumes the integrand tail beyond the truncation point stays at
    the target-accuracy level; that is spot-checked and warned about, not
    enforced.
    """
    cpi = c * PI
    eta = cpi / N
    m_plus, m_minus, s_minus = sample_line_maxima(problem, params, c, t, N)
    s_span = max(PI / 2 - cpi - eta, 0.0)

    if s_span > 0:
        xs = np.linspace(cpi, PI / 2, 8)
        g = _integrand_norms(problem, params, xs, t)
        over = np.flatnonzero(g > 2.0 * tol)
        if over.size:
            warnings.warn(
                f"integrand tail at x = {xs[over[0]]:.4f} is {g[over[0]]:.3e}, above the "
                f"assumed truncation size {tol:.3e}",
                stacklevel=2,
            )

    growth = math.expm1((params.a / c) * N)  # e^{(a/c)N} - 1
    main = (TWO_PI * c * (1 + 1.0 / N) * m_minus + 2.0 * s_span * s_minus + PI * m_plus) / growth
    floor = 4.0 * (PI / 2 - cpi + cpi / (2.0 * N)) * tol
    leak = estimate_delta(problem, params, c, N) * b_term(params, c, t, N)
    return main + floor + leak


def truncation_bound(params: ContourParams, c: float, t: float, K_ell: float, tol: float) -> float:
    """Bound on the discarded half-lines and arc tails: K_l e^{z_l t}/(pi t) + (1/2 - c) tol."""
    return K_ell * math.exp(params.A3 * t) / (PI * t) + (0.5 - c) * tol


# ---------------------------------------------------------------------------
# pipeline


@dataclass(frozen=True)
class SolveOptions:
    """Tunable pipeline knobs; None means 'derive a default'."""

    z_l: float = None
    z_r: float = None
    eps1: float = 1e-9
    eps2: float = 1e-13
    grid_pts: int = 100
    prec: float = 0.1
    n_max: int = 1024
    validate: bool = False


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Everything one pipeline run produced, including diagnostics."""

    label: str
    t: float
    tol: float
    inner: InnerEllipse
    contour: ContourParams
    truncation: TruncationResult
    feasibility: FeasibilityReport
    result: QuadratureResult = None
    errors_table: tuple = ()
    reference_error: float = None
    reference_error_inf: float = None
    truncation_bound: float = None
    reached_tol: bool = False
    solve_count: int = 0
    reuse_count: int = 0

    @property
    def solution(self):
        return None if self.result is None else self.result.approx

    @property
    def stability(self) -> float:
        return self.feasibility.stability


def _stage(name, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except StageError:
        raise
    except Exception as exc:
        raise StageError(name, exc) from exc


def default_z_l(t: float) -> float:
    """Center far enough left that e^{z_l t} is below the working precision."""
    return float(math.ceil(math.log(1e-18) / t))


def default_z_r(problem, eigs, eps1: float) -> float:
    """Real-axis crossing of sigma_min = eps1, kept right of source poles.

    When sigma_min is below eps1 at the rightmost eigenvalue, a bracket
    doubles rightward from it until sigma_min reaches eps1, and the bracket
    is then bisected to 1e-12 on a SigmaMinEvaluator, whose values depend on
    the shift alone. The result is clamped to 0.01 right of the rightmost
    source pole, so the bisection stops once the bracket lies left of that
    clamp: its upper end only falls, and the clamp is then the answer.

    Each test sigma_min(x) < eps1 first asks the evaluator's comparison-matrix
    ``lower_bound``. When that bound, less the evaluator's error allowances,
    already reaches eps1, the answer is no and no Lanczos runs: the
    evaluator's value, accurate to 1e-9 sigma + abs_error, lies above the
    slackened bound, so it would give the same answer.
    """
    sigma = SigmaMinEvaluator(problem.operator)

    def below(x: float) -> bool:
        return _slackened(sigma, sigma.lower_bound(x)) < eps1 and sigma(x) < eps1

    poles = problem.singularities
    floor = max(p.real for p in poles) + 0.01 if poles else -math.inf
    lo = float(np.max(eigs.real))
    z_r = lo + eps1
    if below(lo):
        hi = lo + 1.0
        step = 1.0
        # hi is an upper end of the bracket only once this loop exits, so
        # the clamp cannot stop it.
        while below(hi):
            if hi >= lo + 1e6:
                raise GeometryError(
                    f"sigma_min(xI - A) stays below eps1 = {eps1} up to x = {hi}"
                )
            step *= 2.0
            hi += step
        # Widened by a few ulps of hi: far from 0, 1e-12 is below the spacing
        # of doubles and the midpoint would stop moving.
        while hi > floor and hi - lo > 1e-12 + 4.0 * np.finfo(float).eps * abs(hi):
            mid = 0.5 * (lo + hi)
            if below(mid):
                lo = mid
            else:
                hi = mid
        z_r = hi
    return max(z_r, floor)


@dataclass(frozen=True)
class PipelinePrep:
    """Front half of the pipeline, shared by single-time and window solves."""

    grid: object
    c1: object
    c2: object
    critical: object
    inner: InnerEllipse
    contour: ContourParams


def prepare_contour(problem, t_weight: float, t_opt: float, tol: float, opts: SolveOptions = None) -> PipelinePrep:
    """Grid -> level curves -> critical curve -> bounding ellipse -> contour.

    The weighted level curve uses t_weight while the strip parameter is
    optimized against t_opt (they coincide for a single-time solve).
    t_weight, t_opt, tol, opts.eps1 and opts.eps2 must be finite and
    positive, opts.z_l and opts.z_r finite when given, and opts.grid_pts an
    int of at least 8; they are checked before any stage runs.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"need tol > 0, got {tol}")
    opts = opts or SolveOptions()
    checked = {"t_weight": t_weight, "t_opt": t_opt, "eps1": opts.eps1, "eps2": opts.eps2}
    for name, value in checked.items():
        if not 0 < value < math.inf:
            raise ValueError(f"need finite {name} > 0, got {value}")
    for name, value in (("z_l", opts.z_l), ("z_r", opts.z_r)):
        if value is not None and not math.isfinite(value):
            raise ValueError(f"need finite {name}, got {value}")
    if not (isinstance(opts.grid_pts, int) and opts.grid_pts >= 8):
        raise ValueError(f"need an int grid_pts >= 8, got {opts.grid_pts!r}")
    eigs = _stage("eigenvalues", eigenvalues, problem.operator)
    z_l = opts.z_l if opts.z_l is not None else default_z_l(t_weight)
    z_r = (
        opts.z_r
        if opts.z_r is not None
        else _stage("z_r-default", default_z_r, problem, eigs, opts.eps1)
    )
    if not z_l < z_r:
        raise StageError("box", GeometryError(f"z_l = {z_l} must be < z_r = {z_r}"))
    poles = problem.singularities
    for pole in poles:
        if pole.real >= z_r:
            raise StageError("box", GeometryError(f"source pole {pole} is not left of z_r = {z_r}"))
    strip_eigs = [complex(v) for v in eigs if z_l <= v.real <= z_r]
    eig_reach = max((abs(v.imag) for v in strip_eigs), default=0.0)
    ymax = max(1.0, 0.25 * (z_r - z_l), 1.2 * eig_reach)
    spec = GridSpec(z_l, z_r, -ymax, ymax, opts.grid_pts)
    levels = ((opts.eps1, t_weight), (opts.eps2, 0.0))
    grid = _stage("grid", compute_grid, problem.operator, spec, levels)
    c1 = _stage("curves", level_curve, grid, *levels[0])
    c2 = _stage("curves", level_curve, grid, *levels[1])
    crit = _stage("curves", critical_curve, c1, c2)
    # Upper-half-plane representatives of everything the ellipse must
    # enclose: curve points, then eigenvalues, then source poles. Only
    # build_inner_ellipse's tie rule (of equal real parts, the first) reads
    # this order.
    phi = np.concatenate((crit.xs.astype(complex), strip_eigs, poles))
    phi.imag = np.abs(np.concatenate((crit.ys, np.imag(strip_eigs), np.imag(poles))))
    inner = _stage("inner-ellipse", build_inner_ellipse, phi, z_l, z_r)
    a = _stage("optimize-a", optimize_a, inner, t_opt, tol)
    params = _stage("contour", contour_from_a, inner, a)
    return PipelinePrep(grid, c1, c2, crit, inner, params)


# ---------------------------------------------------------------------------
# window plans; a single-time solve is the window [t, t]


@dataclass(frozen=True, eq=False)
class TimeWindowPlan:
    """One contour serving all t in [t0, t1] with per-time truncation.

    The node grid is fixed by the wider endpoint truncation c_grid, so every
    shifted solve is shared across times; per-time (c_t, K_t) follow the
    linear-K rule between the endpoint fixed points. The feasibility check
    runs on the shared grid at t1. opts are the options the plan was built
    from; every evaluation reads its validate and n_max there.
    """

    t0: float
    t1: float
    tol: float
    inner: InnerEllipse
    contour: ContourParams
    trunc0: TruncationResult
    trunc1: TruncationResult
    c_grid: float
    n_nodes: int
    cache: NodeCache = field(repr=False)
    feasibility: FeasibilityReport
    opts: SolveOptions
    label: str = ""

    def k_at(self, t: float) -> float:
        if self.t1 == self.t0:
            return self.trunc0.K
        frac = (t - self.t0) / (self.t1 - self.t0)
        return self.trunc0.K + (self.trunc1.K - self.trunc0.K) * frac

    def c_at(self, t: float) -> float:
        return _c_from_k(self.contour, t, self.tol, self.k_at(t), allow_clamp=False)


def plan_window(problem, t0: float, t1: float, tol: float, opts: SolveOptions = None) -> TimeWindowPlan:
    """Build one contour for [t0, t1]: ellipse at t0, strip parameter sized for t1.

    The strip parameter is optimize_a's, lowered when needed so that
    ROUNDOFF_SAFETY times the round-off forecast over the whole arc at t1
    meets tol ('t Hout & Weideman, SIAM J. Sci. Comput. 33, 2011). It is
    kept when no a > 0 meets that, when the condition number is infinite,
    or when the lower a would need more than opts.n_max nodes at t1.
    t0, t1 and opts.prec must be finite and positive with t0 <= t1,
    opts.n_max at least 2, and u0 or a source vector nonzero (else u(t) = 0);
    these and prepare_contour's checks run before any stage. The plan keeps
    opts for every later evaluation.
    """
    if not 0 < t0 <= t1 < math.inf:
        raise ValueError("need 0 < t0 <= t1 < inf")
    opts = opts or SolveOptions()
    if not 0 < opts.prec < math.inf:
        raise ValueError(f"need finite prec > 0, got {opts.prec}")
    if not opts.n_max >= 2:
        raise ValueError(f"need n_max >= 2, got {opts.n_max}")
    if not (problem.u0.any() or any(term.vector.any() for term in problem.source_terms)):
        raise ValueError("u0 and every source vector are zero, so u(t) = 0: nothing to invert")
    prep = prepare_contour(problem, t0, t1, tol, opts)
    inner, params = prep.inner, prep.contour
    # Round-off margin. The forecast over the whole arc (c = 1/2) is
    # a2 e^{(A1 + z_l) t1} eps/2 max_cond; with a2 and max_cond frozen at
    # optimize_a's a only the exponent moves, so ROUNDOFF_SAFETY x forecast
    # <= tol bounds A1 and a_within_reach gives the a that meets it. The
    # sizing check's condition estimates are bounded from above first, at its
    # own shifts, by the grid evaluator's comparison matrix (cond_bound); when
    # ROUNDOFF_SAFETY x that forecast stays within _SIZING_CERTIFIED tol, no
    # margin can apply and the estimates are skipped.
    bounds = [prep.grid.evaluator.cond_bound(z) for z in feasibility_shifts(params, 0.5)]
    bounded = FeasibilityReport.forecast(max(bounds), stability_constant(params, 0.5, t1), tol)
    if ROUNDOFF_SAFETY * bounded.achievable > _SIZING_CERTIFIED * tol:
        sizing = _stage("feasibility", feasibility_check, problem, params, 0.5, t1, tol)
        excess = ROUNDOFF_SAFETY * sizing.achievable / tol
        if excess > 1.0 and math.isfinite(sizing.max_cond):
            a = a_within_reach(inner, params.A1 - math.log(excess) / t1)
            if a is not None and window_objective(inner, a, t1, tol) <= opts.n_max:
                params = _stage("contour", contour_from_a, inner, min(a, params.a))
    trunc0 = _stage("truncation", truncation_fixed_point, problem, params, t0, tol, opts.prec)
    if t1 == t0:
        trunc1 = trunc0
    else:
        trunc1 = _stage("truncation", truncation_fixed_point, problem, params, t1, tol, opts.prec)
    c_grid = max(trunc0.c, trunc1.c)
    n_nodes = max(2, math.ceil(window_objective(inner, params.a, t1, tol)))
    cache = NodeCache(problem, params, c_grid)
    feas = _stage("feasibility", feasibility_check, problem, params, c_grid, t1, tol)
    return TimeWindowPlan(
        float(t0),
        float(t1),
        float(tol),
        inner,
        params,
        trunc0,
        trunc1,
        c_grid,
        n_nodes,
        cache,
        feas,
        opts,
        problem.label,
    )


def _evaluate(plan, problem, t, truncation, feasibility, N) -> SolveReport:
    """Report the plan at time t after doubling the N-point rule on its shared grid.

    Every doubling reuses all cached node solves. The stopping signal is the
    measured error against the reference evolution when plan.opts.validate
    is set, the model estimate otherwise; doubling stops once it meets
    plan.tol or 2N would exceed plan.opts.n_max, and the first rule has at
    most n_max points. N None runs no quadrature (a failed feasibility
    check).
    """
    cache, validate, n_max = plan.cache, plan.opts.validate, plan.opts.n_max
    q = measured = worst = None
    table = []
    reached = False
    if N is not None:
        N = min(N, n_max)
        reference = _stage("reference", reference_solution, problem, t) if validate else None
        q = _stage("quadrature", trapezoid_sum, problem, cache.params, cache.c, t, N, cache=cache)
        while True:
            if reference is not None:
                measured = float(np.linalg.norm(q.approx - reference))
            table.append((q.N, measured, q.est_error, q.B_term))
            reached = (q.est_error if reference is None else measured) <= plan.tol
            if reached or 2 * q.N > n_max:
                break
            q = _stage("quadrature", refine_doubling, q, problem, cache.params, t)
        if reference is not None:
            worst = float(np.max(np.abs(q.approx - reference)))
    return SolveReport(
        label=plan.label,
        t=float(t),
        tol=plan.tol,
        inner=plan.inner,
        contour=plan.contour,
        truncation=truncation,
        feasibility=feasibility,
        result=q,
        errors_table=tuple(table),
        reference_error=measured,
        reference_error_inf=worst,
        reached_tol=reached,
        solve_count=cache.solve_count,
        reuse_count=cache.reuse_count,
    )


def solve(problem, t: float, tol: float, opts: SolveOptions = None) -> SolveReport:
    """Full pipeline: the one-time window plan [t, t], evaluated at t.

    The node count starts at a quarter of the predicted requirement and
    doubles (reusing all prior solves) until the stopping signal meets tol:
    the measured error against the reference evolution when opts.validate is
    set, the model estimate otherwise. A failed feasibility check returns a
    report without quadrature.
    """
    if not 0 < t < math.inf:
        raise ValueError("need t > 0")
    plan = plan_window(problem, t, t, tol, opts)
    params, trunc = plan.contour, plan.trunc0
    n0 = None
    if plan.feasibility.passed:
        n0 = max(5, math.ceil(predicted_nodes(params.a, trunc.c, params.D, t, tol) / 4))
    report = _evaluate(plan, problem, t, trunc, plan.feasibility, n0)
    if report.result is None:
        return report
    k_ell = _stage("truncation-bound", estimate_k_ell, problem, params, t)
    return replace(report, truncation_bound=truncation_bound(params, trunc.c, t, k_ell, tol))


def solve_at(plan: TimeWindowPlan, problem, t: float) -> SolveReport:
    """Evaluate the window plan at one time, reusing all cached node solves.

    The quadrature runs on the plan's shared grid (width c_grid) from
    plan.n_nodes nodes, with the validate and n_max of plan.opts; the
    per-time truncation pair (c_t, K_t) is interpolated and reported, and
    the round-off forecast uses the plan's worst condition number with the
    stability constant at (c_t, t). problem must be the plan's own object.
    """
    if problem is not plan.cache.problem:
        raise ValueError("solve_at needs the problem object the plan was built from")
    if not plan.t0 <= t <= plan.t1:
        raise ValueError(f"t = {t} outside the window [{plan.t0}, {plan.t1}]")
    if not plan.opts.n_max >= 2:
        raise ValueError(f"need n_max >= 2, got {plan.opts.n_max}")
    c_t = plan.c_at(t)
    trunc_t = TruncationResult(c_t, plan.k_at(t), 0)
    stab = stability_constant(plan.contour, c_t, t)
    feas = FeasibilityReport.forecast(plan.feasibility.max_cond, stab, plan.tol)
    return _evaluate(plan, problem, t, trunc_t, feas, plan.n_nodes)


# ---------------------------------------------------------------------------
# report serialization

REPORT_VERSION = "bromell-report 1"


def _fmt(v) -> str:
    if v is None:
        return "nan"
    return f"{v:.17g}"


def format_report(report: SolveReport) -> str:
    """Versioned key=value text plus a CSV block of the error-vs-N table."""
    p = report.contour
    lines = [
        REPORT_VERSION,
        f"problem={report.label}",
        f"t={_fmt(report.t)}",
        f"tol={_fmt(report.tol)}",
        f"z_l={_fmt(report.inner.z_l)}",
        f"z_r={_fmt(report.inner.z_r)}",
        f"d={_fmt(report.inner.d)}",
        f"r={_fmt(report.inner.r)}",
        f"a={_fmt(p.a)}",
        f"a1={_fmt(p.a1)}",
        f"a2={_fmt(p.a2)}",
        f"A3={_fmt(p.A3)}",
        f"D={_fmt(p.D)}",
        f"c={_fmt(report.truncation.c)}",
        f"K={_fmt(report.truncation.K)}",
        f"iterations={report.truncation.iterations}",
        f"stability={_fmt(report.stability)}",
        f"feasibility_passed={str(report.feasibility.passed).lower()}",
        f"feasibility_achievable={_fmt(report.feasibility.achievable)}",
        f"max_cond={_fmt(report.feasibility.max_cond)}",
        f"N_final={report.result.N if report.result is not None else 0}",
        f"est_error={_fmt(report.result.est_error if report.result else None)}",
        f"reference_error={_fmt(report.reference_error)}",
        f"reference_error_inf={_fmt(report.reference_error_inf)}",
        f"truncation_bound={_fmt(report.truncation_bound)}",
        f"reached_tol={str(report.reached_tol).lower()}",
        f"solve_count={report.solve_count}",
        f"reuse_count={report.reuse_count}",
        "[errors]",
        "N,measured_error,model_error,B_term",
    ]
    for N, measured, model, b in report.errors_table:
        lines.append(f"{N},{_fmt(measured)},{_fmt(model)},{_fmt(b)}")
    return "\n".join(lines) + "\n"


def write_report(report: SolveReport, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_report(report))


def read_report(path):
    """Parse a report file back into (keys dict, error-table rows)."""
    with open(path, "r", encoding="ascii") as fh:
        lines = [line.rstrip("\n") for line in fh]
    if not lines or lines[0] != REPORT_VERSION:
        raise ValueError(f"{path}: not a '{REPORT_VERSION}' file")
    keys = {}
    rows = []
    in_table = False
    for line in lines[1:]:
        if not line:
            continue
        if line == "[errors]":
            in_table = True
            continue
        if in_table:
            if line.startswith("N,"):
                continue
            n, measured, model, b = line.split(",")
            rows.append((int(n), float(measured), float(model), float(b)))
        else:
            key, _, value = line.partition("=")
            keys[key] = value
    return keys, rows


def write_errors_csv(report: SolveReport, path) -> None:
    """Error-vs-N table: columns N, measured_error, model_error, B_term."""
    write_csv(path, ["N", "measured_error", "model_error", "B_term"], report.errors_table)
