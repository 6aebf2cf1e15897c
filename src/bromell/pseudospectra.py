"""Resolvent-norm grids and level curves in a strip of the complex plane.

The solver needs to know where ||(zI - A)^-1|| (optionally damped by
e^{Re(z) t}) is large before it can place an integration contour. This module
computes sigma_min(zI - A) on a rectangular grid, extracts level curves of
the plain and the exponentially weighted resolvent norm, and combines them
into the critical curve that the bounding ellipse must enclose.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg as sla

from .errors import GeometryError
from .numerics import _TRTRS, as_operator
from .problems import write_csv

_DTRTRS = sla.get_lapack_funcs("trtrs", dtype=float)

_LOG_CAP = 700.0  # exp(700) is near the double-precision overflow edge
# Relative slack on an evaluated sigma_min before it certifies neighbours: the
# Lanczos readout is an upper bound on sigma_min converged to about 1e-9. The
# evaluator's absolute allowance (its abs_error) is subtracted as well.
_CERTIFY_SLACK = 1e-6
# Lanczos runs stop after this many steps, or at the first step from the
# third on whose largest Ritz value moved by at most this much relative, or
# at the second when the 2 x 2 residual bound is this small relative.
_LANCZOS_STEPS = 40
_LANCZOS_RTOL = 1e-12
# Relative allowance for rounding in the triangular solves of lower_bound and
# cond_bound: every term of their back substitutions is nonnegative, so
# nothing cancels.
_BOUND_ROUNDING = 1e-10


@dataclass(frozen=True)
class GridSpec:
    """Rectangular box [x_min, x_max] x [y_min, y_max] with n_pts per axis."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    n_pts: int

    def __post_init__(self):
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValueError("grid box must have positive extent")
        if self.n_pts < 8:
            raise ValueError("need at least 8 points per axis")

    @cached_property
    def xs(self) -> np.ndarray:
        """The read-only column abscissae, built once per spec."""
        return _axis(self.x_min, self.x_max, self.n_pts)

    @cached_property
    def ys(self) -> np.ndarray:
        """The read-only row ordinates, built once per spec."""
        return _axis(self.y_min, self.y_max, self.n_pts)


def _axis(start: float, stop: float, n_pts: int) -> np.ndarray:
    axis = np.linspace(start, stop, n_pts)
    axis.setflags(write=False)
    return axis


@dataclass(frozen=True, eq=False)
class PseudoGrid:
    """sigma_min(zI - A) sampled on a GridSpec; sigma_min[iy, ix] >= 0.

    For a real operator on a box symmetric about the real axis, each lower
    row is a copy of its mirror row n-1-iy (sigma is conjugation-symmetric
    there). A grid computed for given levels is NaN at every node it
    skipped, its lower rows included; ``completed`` evaluates them with
    ``evaluator``, the SigmaMinEvaluator that computed the grid.
    """

    spec: GridSpec
    sigma_min: np.ndarray
    evaluator: "SigmaMinEvaluator" = field(default=None, repr=False)

    @property
    def xs(self) -> np.ndarray:
        return self.spec.xs

    @property
    def ys(self) -> np.ndarray:
        return self.spec.ys

    def completed(self) -> "PseudoGrid":
        """This grid with every skipped node evaluated, each one once."""
        if self.evaluator is None or not np.isnan(self.sigma_min).any():
            return self
        sigma = self.sigma_min.copy()
        source = _mirror_source(self.spec, self.evaluator.is_real)
        own = np.flatnonzero(source == np.arange(source.size))
        iys, ixs = np.nonzero(np.isnan(sigma[own]))
        xs, ys = self.xs, self.ys
        for iy, ix in zip(own[iys], ixs):
            sigma[iy, ix] = self.evaluator(complex(xs[ix], ys[iy]))
        sigma = sigma[source]
        sigma.setflags(write=False)
        return PseudoGrid(self.spec, sigma, self.evaluator)


@dataclass(frozen=True, eq=False)
class LevelCurve:
    """One nonnegative height per grid column; y = 0 marks 'not attained'."""

    xs: np.ndarray
    ys: np.ndarray
    epsilon: float
    weighted_time: float = 0.0

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        ys = np.asarray(self.ys, dtype=float)
        if xs.shape != ys.shape or xs.ndim != 1:
            raise ValueError("curve needs matching 1-D abscissae and heights")
        if np.any(ys < 0):
            raise ValueError("curve heights must be >= 0")
        xs.setflags(write=False)
        ys.setflags(write=False)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)


class SigmaMinEvaluator:
    """sigma_min(zI - A) at many shifts, sharing the operator's Schur factor.

    zI - A and zI - T have identical singular values for the unitary Schur
    factor T, and zI - T is triangular, so inverse Lanczos costs O(n^2) per
    shift instead of a fresh O(n^3) SVD. A run stops at the first step from
    the third on whose largest Ritz value moved by at most 1e-12 relative,
    as EigTool stops once its Ritz value settles (Wright & Trefethen, 2001),
    or once its basis spans the whole space. At the second step it stops
    when the 2 x 2 Ritz pair's residual bound already puts its value within
    1e-12 relative of an eigenvalue, as at a shift whose sigma_min sits far
    below the next singular value.
    Every evaluation is one run from the same fixed start vector, so its
    value depends on z alone. The run is accepted when its readout ||Mv||
    agrees with the Ritz value within ``1e-9 * sigma + abs_error``, where
    ``abs_error = 10 eps ||T||_F`` (||T||_F >= ||A||_2): below sigma ~ 1e-5
    both carry an absolute error of order eps * ||A||. A dense SVD of the
    triangular shift runs only when the run is rejected. ``evaluations``,
    ``lanczos_steps`` and ``fallbacks`` count the work done so far, and
    ``bounds`` the calls to ``lower_bound``, a cheap certificate from below
    that runs no Lanczos; ``range_bound`` is one from the numerical range
    for real shifts, with no solve at all. ``cond_bound`` bounds the
    condition number of zI - T from above as lower_bound does.
    ``schur_diagonal`` holds the eigenvalues t_ii.

    zI - T is the operator's one shift buffer (``Operator._shift_buffer``),
    which ShiftedSystem and numerics.resolvent_cond share; each evaluation
    rewrites its diagonal, so the evaluator allocates no complex n x n
    matrix of its own. ``lower_bound``
    and ``cond_bound`` work the same way in a real n x n buffer that the
    evaluator builds on its first call.
    """

    def __init__(self, A):
        op = as_operator(A)
        self._op = op
        self.dim = op.dim
        self.is_real = op.is_real
        T = op.schur_factor
        frobenius = _frobenius(T)
        self.abs_error = 10.0 * np.finfo(float).eps * frobenius
        self._schur_error = self.dim * np.finfo(float).eps * frobenius
        self.schur_diagonal = op.schur_diagonal
        self._M = op._shift_buffer
        self._M_diag = op._shift_diagonal
        self._ones = np.ones(self.dim)
        self._differences = np.empty(self.dim, dtype=complex)  # z - t_ii, for C's diagonal
        self._sterf, self._stevd = sla.get_lapack_funcs(("sterf", "stevd"), dtype=float)
        # Lanczos workspace, shared by every run: the basis vectors as rows,
        # their conjugates, and the tridiagonal's diagonal and off-diagonal.
        # Row 0 is the one start vector of every run and is never rewritten.
        self._Q = np.empty((_LANCZOS_STEPS + 1, self.dim), dtype=complex)
        self._Qc = np.empty_like(self._Q)
        self._alphas = np.empty(_LANCZOS_STEPS)
        self._betas = np.empty(_LANCZOS_STEPS)
        start = np.ones(self.dim, dtype=complex)
        start[1::2] += 0.5j
        np.divide(start, _norm(start), out=self._Q[0])
        np.conjugate(self._Q[0], out=self._Qc[0])
        # Work counters: calls, Lanczos steps, dense SVDs, and lower bounds.
        self.evaluations = 0
        self.lanczos_steps = 0
        self.fallbacks = 0
        self.bounds = 0

    def __call__(self, z: complex) -> float:
        self.evaluations += 1
        np.subtract(complex(z), self.schur_diagonal, out=self._M_diag)
        if np.count_nonzero(self._M_diag) < self.dim:  # a zero pivot: z is an eigenvalue
            return 0.0
        sigma = self._lanczos()
        if sigma is None:
            self.fallbacks += 1
            sigma = self._dense_sigma_min()
        return sigma

    @cached_property
    def _comparison(self) -> tuple[np.ndarray, np.ndarray]:
        """Real Fortran-order -|T|, the off-diagonal of the comparison matrix
        of zI - T, and a view of its diagonal, which lower_bound rewrites
        with |z - t_ii| for each shift (8 n^2 bytes). M is -T off the diagonal."""
        C = np.asfortranarray(-np.abs(self._M))
        return C, C.reshape(-1, order="F")[:: self.dim + 1]

    def _comparison_at(self, z: complex) -> tuple[np.ndarray, np.ndarray]:
        """The comparison matrix of zI - T and its diagonal, |z - t_ii|
        written through the evaluator's buffers."""
        C, C_diag = self._comparison
        np.subtract(complex(z), self.schur_diagonal, out=self._differences)
        np.abs(self._differences, out=C_diag)
        return C, C_diag

    def lower_bound(self, z: complex) -> float:
        """A rigorous lower bound on sigma_min(zI - T), from two real triangular solves.

        The comparison matrix C of zI - T has |z - t_ii| on its diagonal and
        -|t_ij| above it, so |(zI - T)^-1| <= C^-1 entrywise (Higham,
        *Accuracy and Stability of Numerical Algorithms*, 2nd ed., §8.3) and
        ||(zI - T)^-1||_2 <= sqrt(||C^-1||_1 ||C^-1||_inf). C^-1 is
        nonnegative, so its inf- and 1-norms are ||C^-1 e||_inf and
        ||C^-T e||_inf for the vector e of ones. Returns 0.0 on a zero
        pivot or when the product of the two norms is not finite.
        """
        self.bounds += 1
        C, _ = self._comparison_at(z)
        x, info = _DTRTRS(C, self._ones)
        if info:  # a zero pivot: z is an eigenvalue
            return 0.0
        y = _DTRTRS(C, self._ones, trans=1)[0]
        # Python floats: a NumPy scalar product would warn where it overflows.
        product = float(x.max()) * float(y.max())
        if not 0.0 < product < math.inf:  # NaN and overflow fail too
            return 0.0
        return (1.0 - _BOUND_ROUNDING) / math.sqrt(product)

    def range_bound(self, x: float) -> float:
        """A rigorous lower bound on sigma_min(xI - T) at a real x, from the
        numerical range, with no solve.

        sigma_min(xI - A) >= x - omega(A) for the numerical abscissa omega(A)
        <= ``Operator.abscissa_bound``. The computed T is the Schur factor of
        A + E for a backward error E of order eps ||A||_2 (the QR algorithm
        is backward stable; Golub & Van Loan, *Matrix Computations*, ch. 7),
        and by Weyl's inequality E moves sigma_min by at most ||E||_2, for
        which n eps ||T||_F is allowed. The bound is negative left of
        omega(A).
        """
        return x - self._op.abscissa_bound - self._schur_error

    def cond_bound(self, z: complex) -> float:
        """A rigorous upper bound on the 1-norm condition number of zI - T,
        from one real triangular solve.

        ||zI - T||_1 is the largest column sum |z - t_jj| + sum_{i<j} |t_ij|,
        and with the comparison matrix C of lower_bound, |(zI - T)^-1| <= C^-1
        entrywise, so ||(zI - T)^-1||_1 <= ||C^-1||_1 = ||C^-T e||_inf. Their
        product, raised by the rounding allowance, bounds the number that
        numerics.resolvent_cond estimates from below. The column sums are the
        operator's, the ones resolvent_cond reads. Returns inf on a zero
        pivot or when the product is not finite.
        """
        C, C_diag = self._comparison_at(z)
        y, info = _DTRTRS(C, self._ones, trans=1)
        if info:  # a zero pivot: z is an eigenvalue
            return math.inf
        product = float((C_diag + self._op._column_sums).max()) * float(y.max())
        if not product < math.inf:  # NaN and overflow fail too
            return math.inf
        return (1.0 + _BOUND_ROUNDING) * product

    def _dense_sigma_min(self) -> float:
        """sigma_min of the current shift by dense SVD, for a stalled iteration."""
        return float(np.linalg.svd(self._M, compute_uv=False)[-1])

    def _lanczos(self):
        """Largest eigenvalue of (M^H M)^{-1} by Lanczos with full reorthogonalization.

        M is the current shift zI - T and the run starts from Q[0]. It
        stops at the first step k >= 2 whose largest Ritz value theta moved
        by at most _LANCZOS_RTOL relative, or at k = 1 when the residual
        bound beta_1 |s_2| of the 2 x 2 Ritz pair is at most _LANCZOS_RTOL
        theta. Returns ||M v|| for the converged Ritz vector v (an upper
        bound on sigma_min that is tight at convergence), or None when it
        and the Ritz value disagree by more than 1e-9 relative plus
        ``abs_error``, signalling the caller to fall back to a dense SVD.
        """
        M, trtrs = self._M, _TRTRS
        Q, Qc, alphas, betas = self._Q, self._Qc, self._alphas, self._betas
        theta = theta_prev = None
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(_LANCZOS_STEPS):
                self.lanczos_steps += 1
                w = trtrs(M, trtrs(M, Q[k], trans=2)[0], overwrite_b=1)[0]
                # Classical Gram-Schmidt against the whole basis, twice: one
                # pass is not enough once the basis picks up converged
                # directions, and two are (Giraud, Langou & Rozloznik 2005).
                # The first pass's coefficient on q_k is alpha.
                basis, conj = Q[: k + 1], Qc[: k + 1]
                c = conj @ w
                # A non-finite entry of w makes this coefficient non-finite.
                alpha = float(c[k].real)
                if not math.isfinite(alpha):
                    return None
                w -= c @ basis
                w -= (conj @ w) @ basis
                alphas[k] = alpha
                if k == 0:
                    theta = alpha
                else:
                    ritz_values, info = self._sterf(alphas[: k + 1], betas[:k])
                    if info:
                        return None
                    theta = float(ritz_values[-1])
                # Once the basis spans the whole space theta is final; a
                # further step would work on a round-off residual.
                if k + 1 == self.dim or (
                    k >= 2 and abs(theta - theta_prev) <= _LANCZOS_RTOL * abs(theta)
                ):
                    break
                theta_prev = theta
                beta = _norm(w)
                if beta == 0.0 or not math.isfinite(beta):
                    break  # exact invariant subspace (or breakdown -> readout check)
                # The 2 x 2 Ritz vector is proportional to (beta_0, d), so
                # beta_1 |d| / hypot(beta_0, d) bounds the distance from theta
                # to an eigenvalue (Parlett, The Symmetric Eigenvalue Problem,
                # §13). A shift with sigma_min far below sigma_2 stops here.
                if k == 1:
                    d = theta - alphas[0]
                    if beta * abs(d) <= _LANCZOS_RTOL * theta * math.hypot(betas[0], d):
                        break
                betas[k] = beta
                np.divide(w, beta, out=Q[k + 1])
                np.conjugate(Q[k + 1], out=Qc[k + 1])
        if theta is None or theta <= 0.0 or not math.isfinite(theta):
            return None
        steps = k + 1
        if steps == 1:
            vecs = np.ones((1, 1))  # stevd's wrapper rejects an empty off-diagonal
        else:
            # stevd is the driver eigh_tridiagonal picks for all eigenpairs.
            _, vecs, info = self._stevd(alphas[:steps], betas[:k])
            if info:
                raise np.linalg.LinAlgError(f"stevd failed with info = {info}")
        v = vecs[:, -1] @ Q[:steps]
        nv = _norm(v)
        if nv == 0.0 or not math.isfinite(nv):
            return None
        v /= nv
        val = _norm(M @ v)
        ritz = 1.0 / math.sqrt(theta)
        if not math.isfinite(val) or abs(val - ritz) > 1e-9 * max(val, ritz) + self.abs_error:
            return None
        return val


def _frobenius(T: np.ndarray) -> float:
    """||T||_F; rescaled by the largest entry only when the plain sum of squares overflows."""
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(T))
    if math.isinf(norm):
        scale = float(np.max(np.abs(T)))
        norm = scale * float(np.linalg.norm(T / scale))
    return norm


def _norm(x: np.ndarray) -> float:
    """2-norm of a complex vector by numpy.linalg.norm's formula, to the bit."""
    return math.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag))


def _mirror_source(spec: GridSpec, is_real: bool) -> np.ndarray:
    """Row each grid row takes its values from.

    A real operator on a box with y_min == -y_max has sigma_min(conj z) =
    sigma_min(z), so each lower row iy copies row n-1-iy; every other row is
    its own source.
    """
    rows = np.arange(spec.n_pts)
    if is_real and spec.y_min == -spec.y_max:
        return np.maximum(rows, rows[::-1])
    return rows


def _level_values(sigma: np.ndarray, xs: np.ndarray, t: float) -> np.ndarray:
    """log(e^{x t} / sigma_min) per node, capped below overflow; NaN stays NaN."""
    with np.errstate(divide="ignore"):
        return np.minimum(xs * t - np.log(sigma), _LOG_CAP)


def compute_grid(A, spec: GridSpec, levels=()) -> PseudoGrid:
    """Evaluate sigma_min(zI - A) on the box.

    For a real operator on a box symmetric about the real axis only the rows
    iy >= n-1-iy are evaluated; each lower row is a copy of row n-1-iy. Any
    other box evaluates every row.

    ``levels`` lists the (eps, t) pairs that ``level_curve`` will extract.
    Given levels, only the nodes those curves read are evaluated: in each
    column with y >= 0, the topmost node inside each level set and the node
    above it. sigma_min(zI - A) is 1-Lipschitz in z (Weyl's inequality), so
    node z' is certified outside every level set once max over evaluated z
    of s(z)(1 - slack) - abs_error - |z - z'| exceeds max over levels of
    eps e^{Re(z') t}, where slack and the evaluator's abs_error bound the
    error of each value s. ``SigmaMinEvaluator.lower_bound`` gives a
    rigorous lower bound b on sigma_min from two real triangular solves:
    when b(1 - slack) - abs_error already exceeds the node's level, the node
    is certified without an evaluation, and that value raises its
    neighbours' bounds as an evaluated s would. Another node is at least one
    grid step away, so a value of at most half a step raises no neighbour
    and updates nothing.

    The walk takes the columns from the left, each in two passes. The first
    goes up the column from its lowest row and asks the bound at each node
    not yet certified; a node whose bound fails is queued. From the first
    row with y >= max(Im t_ii, 0) up, moving up a column moves away from
    every eigenvalue, so the diagonal of the comparison matrix C grows; C is
    a triangular M-matrix, so C^-1 shrinks entrywise and the bound grows.
    The first bound that certifies a node from that row on therefore
    certifies every row above it, and the pass ends there. Rows already
    certified are jumped over with one search for the column's next
    uncertified row. The second pass evaluates the queue from the top down,
    skipping a node that a value above it has certified meanwhile, and stops
    once every level has an in-set node in the column: that node is the
    level's topmost (``_topmost_inside``, which level_curve reads too),
    because every row above it is certified or was evaluated outside. The
    in-set test is x t - log s against -log eps, decided by
    ``_level_values`` itself within 1e-9 of the threshold. Each value
    raises bounds only in the columns the walk has not left. The node
    directly above each column's topmost in-set node is evaluated as well,
    because level_curve interpolates against it. Every other node, the
    lower rows and the queued nodes below the topmost ones included, is
    NaN, which level_curve reads as outside; ``PseudoGrid.completed``
    evaluates them. No rigorous bound certifies an in-set node, so the
    order of the walk moves no curve. Without levels every node is
    evaluated.
    """
    ev = SigmaMinEvaluator(as_operator(A))
    sigma = np.full((spec.n_pts, spec.n_pts), np.nan)
    if levels:
        _evaluate_read_nodes(ev, sigma, spec.xs, spec.ys, levels)
    sigma.setflags(write=False)
    grid = PseudoGrid(spec, sigma, ev)
    return grid if levels else grid.completed()


def _evaluate_read_nodes(ev, sigma, xs, ys, levels) -> None:
    """Fill the nodes with y >= 0 that level_curve can read for these levels."""
    rows = np.flatnonzero(ys >= 0.0)
    yr = ys[rows]
    nodes = xs[None, :] + 1j * yr[:, None]
    with np.errstate(over="ignore"):
        theta = np.max([eps * np.exp(xs * t) for eps, t in levels], axis=0)
    bound = np.full(nodes.shape, -np.inf)  # certified lower bound on sigma_min
    # Every other node is at least one grid step from z, so an s_low of at
    # most half a step gives none of them a positive bound.
    reach = 0.5 * min(np.diff(xs).min(), np.diff(ys).min())
    # From row r_up on, y >= Im t_ii for every i: lower_bound grows up each column.
    r_up = int(np.searchsorted(yr, max(float(ev.schur_diagonal.imag.max()), 0.0)))
    x_axis, y_axis = xs.tolist(), yr.tolist()
    # The thresholds as level_curve forms them, so _inside decides as it does.
    level_logs = [(float(-np.log(eps)), t) for eps, t in levels]

    def certify(r, ix, s_low):
        """Raise the bounds of the nodes within s_low of node (r, ix)."""
        if s_low <= reach:
            return
        # Only nodes within s_low of z gain a positive bound; one more node on
        # each side keeps rounding in the search from dropping one. The walk
        # has left the columns left of ix for good.
        z = nodes[r, ix]
        r0, r1 = bisect_left(y_axis, z.imag - s_low), bisect_left(y_axis, z.imag + s_low)
        c0, c1 = bisect_left(x_axis, z.real - s_low), bisect_left(x_axis, z.real + s_low)
        near = np.s_[max(r0 - 1, 0) : r1 + 1, max(c0 - 1, ix) : c1 + 1]
        np.maximum(bound[near], s_low - np.abs(nodes[near] - z), out=bound[near])

    for ix in range(xs.size):
        level, r = float(theta[ix]), 0  # bottom row first
        queue = []  # rows whose comparison bound failed, bottom up
        while r < rows.size:
            if bound[r, ix] > level:
                # Jump to the column's next uncertified row in one search;
                # bounds only grow, so a row certified now stays certified.
                r += int((bound[r:, ix] > level).argmin())
                if bound[r, ix] > level:
                    break  # every row left is certified
            # The comparison-matrix bound is two real triangular solves, a
            # twentieth of an evaluation or less; a node it certifies stays NaN.
            s_low = _slackened(ev, ev.lower_bound(nodes[r, ix]))
            if s_low > level:
                certify(r, ix, s_low)
                if r >= r_up:
                    break  # this bound certifies every row above it too
            else:
                queue.append(r)
            r += 1
        # Evaluate the queue from the top down. The first in-set node of a
        # level is its topmost in the column: every row above it is certified
        # or was evaluated outside. level_curve reads no node below it.
        x, missing = x_axis[ix], level_logs
        for r in reversed(queue):
            if bound[r, ix] > level:
                continue  # a value above it certified it
            s = sigma[rows[r], ix] = ev(nodes[r, ix])
            certify(r, ix, _slackened(ev, s))
            missing = [(L, t) for L, t in missing if not _inside(s, x, t, L)]
            if not missing:
                break
    for eps, t in levels:
        above = _topmost_inside(_level_values(sigma[rows], xs, t), -np.log(eps)) + 1
        for ix in np.flatnonzero((above > 0) & (above < rows.size)):
            r = above[ix]
            if np.isnan(sigma[rows[r], ix]):
                sigma[rows[r], ix] = ev(nodes[r, ix])


def _inside(s: float, x: float, t: float, level_log: float) -> bool:
    """_level_values(s, x, t) >= level_log for one node, by a scalar test
    that defers to _level_values near the threshold or the cap."""
    if s > 0.0:
        value = x * t - math.log(s)
        if value < _LOG_CAP and abs(value - level_log) > 1e-9 * max(abs(level_log), abs(x * t), 1.0):
            return value > level_log
    return bool(_level_values(np.array([s]), np.array([x]), t)[0] >= level_log)


def _slackened(ev, s: float) -> float:
    """A lower bound on sigma_min from a value or bound s of ev: s less its error allowances."""
    return s * (1.0 - _CERTIFY_SLACK) - ev.abs_error


def _topmost_inside(values: np.ndarray, level_log: float) -> np.ndarray:
    """Row of each column's topmost value >= level_log, or -1 where none is (NaN is outside)."""
    rows = np.arange(values.shape[0])[:, None]
    return np.where(values >= level_log, rows, -1).max(axis=0)


def level_curve(grid: PseudoGrid, eps: float, t: float = 0.0) -> LevelCurve:
    """Topmost height per column where e^{x t} / sigma_min crosses 1/eps.

    Each column's topmost node at or above the level in the upper half of
    the box is found by ``_topmost_inside``; the crossing is located by
    linear interpolation between that node and the one above it, all
    columns at once. A column whose topmost such node is the box's top row
    gets the top's height, and one with none gets 0. t = 0 gives the plain
    resolvent-norm level curve.
    """
    if eps <= 0:
        raise ValueError("need eps > 0")
    xs = grid.xs
    ys = grid.ys
    upper = np.where(ys >= 0.0)[0]
    if upper.size == 0:
        raise GeometryError("grid box does not reach the upper half plane")
    yu = ys[upper]  # ascending: GridSpec.ys is a linspace from y_min < y_max
    level_log = -np.log(eps)
    values = _level_values(grid.sigma_min[upper, :], xs, t)
    top = _topmost_inside(values, level_log)
    heights = np.where(top == yu.size - 1, yu[-1], 0.0)  # attained at the box edge
    cols = np.flatnonzero((top >= 0) & (top < yu.size - 1))
    k = top[cols]
    v_lo = np.exp(values[k, cols])
    v_hi = np.exp(values[k + 1, cols])
    L = np.exp(min(level_log, _LOG_CAP))
    with np.errstate(divide="ignore", invalid="ignore"):  # v_lo == v_hi keeps y_k
        frac = (v_lo - L) / (v_lo - v_hi)
    heights[cols] = np.where(v_lo == v_hi, yu[k], yu[k] + frac * (yu[k + 1] - yu[k]))
    return LevelCurve(xs, heights, float(eps), float(t))


def critical_curve(c1: LevelCurve, c2: LevelCurve) -> LevelCurve:
    """Column-wise upper envelope of two level curves on shared abscissae."""
    if c1.xs.shape != c2.xs.shape or not np.array_equal(c1.xs, c2.xs):
        raise GeometryError("level curves have mismatched column abscissae")
    ys = np.maximum(np.abs(c1.ys), np.abs(c2.ys))
    return LevelCurve(c1.xs, ys, min(c1.epsilon, c2.epsilon), c1.weighted_time)


def grid_to_csv(grid: PseudoGrid, path) -> None:
    """Rows x,y,sigma_min for every node (n_pts^2 data rows).

    Nodes the grid skipped are evaluated first, so every row holds a value.
    """
    grid = grid.completed()
    rows = ((x, y, s) for y, sigma in zip(grid.ys, grid.sigma_min) for x, s in zip(grid.xs, sigma))
    write_csv(path, ["x", "y", "sigma_min"], rows)


def curve_to_csv(curve: LevelCurve, path) -> None:
    write_csv(path, ["x", "y_level"], zip(curve.xs, curve.ys))
