"""Resolvent-norm grids and level curves in a strip of the complex plane.

The solver needs to know where ||(zI - A)^-1|| (optionally damped by
e^{Re(z) t}) is large before it can place an integration contour. This module
computes sigma_min(zI - A) on a rectangular grid, extracts level curves of
the plain and the exponentially weighted resolvent norm, and combines them
into the critical curve that the bounding ellipse must enclose.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .errors import GeometryError
from .numerics import as_operator

_LOG_CAP = 700.0  # exp(700) is near the double-precision overflow edge
# Relative slack on an evaluated sigma_min before it certifies neighbours: the
# Lanczos readout is an upper bound on sigma_min converged to about 1e-9.
# Certifying another node takes s above a grid step, so the slack also stays
# far above the eps * ||A|| rounding floor of s.
_CERTIFY_SLACK = 1e-6


@dataclass(frozen=True)
class GridSpec:
    """Rectangular box [x_min, x_max] x [y_min, y_max] with n_pts per axis."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    n_pts: int = 100

    def __post_init__(self):
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValueError("grid box must have positive extent")
        if self.n_pts < 8:
            raise ValueError("need at least 8 points per axis")

    @property
    def xs(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_pts)

    @property
    def ys(self) -> np.ndarray:
        return np.linspace(self.y_min, self.y_max, self.n_pts)


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
        for iy, ix in zip(own[iys], ixs):
            sigma[iy, ix] = self.evaluator(complex(self.xs[ix], self.ys[iy]))
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


@dataclass(frozen=True)
class SingularitySet:
    """Upper-half-plane representatives of everything the ellipse must enclose."""

    points: tuple

    @classmethod
    def gather(cls, curve_points=(), eigenvalues=(), source_poles=()) -> "SingularitySet":
        pts = []
        for group in (curve_points, eigenvalues, source_poles):
            for p in group:
                p = complex(p)
                pts.append(complex(p.real, abs(p.imag)))
        return cls(tuple(pts))

    def __iter__(self):
        return iter(self.points)

    def __len__(self):
        return len(self.points)


class SigmaMinEvaluator:
    """sigma_min(zI - A) at many shifts, sharing one Schur factorization.

    zI - A and zI - T have identical singular values for the unitary Schur
    factor T, and zI - T is triangular, so inverse iteration costs O(n^2)
    per shift instead of a fresh O(n^3) SVD. Falls back to a dense SVD of
    the triangular shift whenever the iteration stalls.
    """

    def __init__(self, A):
        op = as_operator(A)
        self.dim = op.dim
        self.is_real = op.is_real
        self._T = sla.schur(op.entries.astype(complex), output="complex")[0]
        self._eye = np.eye(self.dim)
        start = np.ones(self.dim, dtype=complex)
        start[1::2] += 0.5j
        self._start = start / np.linalg.norm(start)
        # Warm start: neighbouring shifts share singular vectors, which cuts
        # the iteration count several-fold on grid sweeps.
        self._warm = self._start

    def __call__(self, z: complex) -> float:
        M = complex(z) * self._eye - self._T
        dmin = np.min(np.abs(np.diag(M)))
        if dmin == 0.0:
            return 0.0
        # Blending in the generic start keeps the warm vector from being
        # (numerically) orthogonal to the new minimal singular direction.
        v0 = self._warm + 0.1 * self._start
        sigma = self._lanczos(M, v0)
        if sigma is None:
            sigma = self._lanczos(M, self._start)
        if sigma is not None:
            return sigma
        return float(np.linalg.svd(M, compute_uv=False)[-1])

    def _lanczos(self, M, v0, max_k: int = 40, rtol: float = 1e-12):
        """Largest eigenvalue of (M^H M)^{-1} by Lanczos with full reorthogonalization.

        Returns ||M v|| for the converged Ritz vector v (an upper bound on
        sigma_min that is tight at convergence), or None when the readouts
        disagree, signalling the caller to fall back to a dense SVD.
        """
        n = M.shape[0]
        Q = np.empty((n, max_k + 1), dtype=complex)
        Q[:, 0] = v0 / np.linalg.norm(v0)
        alphas: list[float] = []
        betas: list[float] = []
        theta = theta_prev = None
        stalls = 0
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(max_k):
                y = sla.solve_triangular(M, Q[:, k], trans="C", check_finite=False)
                w = sla.solve_triangular(M, y, check_finite=False)
                if not np.all(np.isfinite(w)):
                    return None
                alpha = float(np.real(np.vdot(Q[:, k], w)))
                w -= alpha * Q[:, k]
                if k:
                    w -= betas[-1] * Q[:, k - 1]
                # Two Gram-Schmidt passes; one is not enough once the basis
                # starts picking up converged directions.
                for _ in range(2):
                    w -= Q[:, : k + 1] @ (Q[:, : k + 1].conj().T @ w)
                alphas.append(alpha)
                theta = float(
                    sla.eigvalsh_tridiagonal(np.array(alphas), np.array(betas))[-1]
                )
                if theta_prev is not None and abs(theta - theta_prev) <= rtol * abs(theta):
                    stalls += 1
                    if stalls >= 2 and k >= 6:
                        break
                else:
                    stalls = 0
                theta_prev = theta
                beta = float(np.linalg.norm(w))
                if beta == 0.0 or not np.isfinite(beta):
                    break  # exact invariant subspace (or breakdown -> readout check)
                betas.append(beta)
                Q[:, k + 1] = w / beta
        if theta is None or theta <= 0.0 or not np.isfinite(theta):
            return None
        k = len(alphas)
        _, vecs = sla.eigh_tridiagonal(np.array(alphas), np.array(betas[: k - 1]))
        v = Q[:, :k] @ vecs[:, -1]
        nv = np.linalg.norm(v)
        if nv == 0.0 or not np.isfinite(nv):
            return None
        v /= nv
        val = float(np.linalg.norm(M @ v))
        ritz = 1.0 / math.sqrt(theta)
        if not np.isfinite(val) or abs(val - ritz) > 1e-9 * max(val, ritz):
            return None
        self._warm = v
        return val


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
    Given levels, only the nodes those curves read are evaluated: nodes with
    y >= 0, scanned row by row from the top of the box down, minus every node
    certified outside all level sets. sigma_min(zI - A) is 1-Lipschitz in z
    (Weyl's inequality), so node z' is certified once
    max over evaluated z of s(z)(1 - slack) - |z - z'| exceeds
    max over levels of eps e^{Re(z') t}. The node directly above each
    column's topmost in-set node is evaluated as well, because level_curve
    interpolates against it. Every other node, the lower rows included, is
    NaN, which level_curve reads as outside; ``PseudoGrid.completed``
    evaluates them. Without levels every node is evaluated.
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
    nodes = xs[None, :] + 1j * ys[rows, None]
    with np.errstate(over="ignore"):
        theta = np.max([eps * np.exp(xs * t) for eps, t in levels], axis=0)
    bound = np.full(nodes.shape, -np.inf)  # certified lower bound on sigma_min
    for r in range(rows.size - 1, -1, -1):  # top row first
        for ix in range(xs.size):
            if bound[r, ix] > theta[ix]:
                continue
            s = sigma[rows[r], ix] = ev(nodes[r, ix])
            np.maximum(bound, s * (1.0 - _CERTIFY_SLACK) - np.abs(nodes - nodes[r, ix]), out=bound)
    for eps, t in levels:
        inside = _level_values(sigma[rows], xs, t) >= -np.log(eps)
        for ix in np.flatnonzero(inside.any(axis=0)):
            above = np.flatnonzero(inside[:, ix])[-1] + 1
            if above < rows.size and np.isnan(sigma[rows[above], ix]):
                sigma[rows[above], ix] = ev(nodes[above, ix])


def level_curve(grid: PseudoGrid, eps: float, t: float = 0.0) -> LevelCurve:
    """Topmost height per column where e^{x t} / sigma_min crosses 1/eps.

    Columns are scanned downward from the top of the (upper-half) box; the
    crossing is located by linear interpolation between the bracketing nodes.
    t = 0 gives the plain resolvent-norm level curve.
    """
    if eps <= 0:
        raise ValueError("need eps > 0")
    xs = grid.xs
    ys = grid.ys
    upper = np.where(ys >= 0.0)[0]
    if upper.size == 0:
        raise GeometryError("grid box does not reach the upper half plane")
    yu = ys[upper]
    order = np.argsort(yu)  # ascending y
    yu = yu[order]
    level_log = -np.log(eps)
    heights = np.zeros(xs.shape[0])
    values = _level_values(grid.sigma_min[upper[order], :], xs, t)
    for ix in range(xs.size):
        logv = values[:, ix]
        above = logv >= level_log
        if not above.any():
            continue  # stays at 0: level never attained in this column
        k = np.max(np.where(above)[0])  # topmost node at/above the level
        if k == yu.size - 1:
            heights[ix] = yu[-1]  # attained at the box edge already
            continue
        v_lo = np.exp(logv[k])
        v_hi = np.exp(logv[k + 1])
        L = np.exp(min(level_log, _LOG_CAP))
        if v_lo == v_hi:
            heights[ix] = yu[k]
        else:
            frac = (v_lo - L) / (v_lo - v_hi)
            heights[ix] = yu[k] + frac * (yu[k + 1] - yu[k])
    return LevelCurve(xs, heights, float(eps), float(t))


def critical_curve(c1: LevelCurve, c2: LevelCurve) -> LevelCurve:
    """Column-wise upper envelope of two level curves on shared abscissae."""
    if c1.xs.shape != c2.xs.shape or not np.array_equal(c1.xs, c2.xs):
        raise GeometryError("level curves have mismatched column abscissae")
    ys = np.maximum(np.abs(c1.ys), np.abs(c2.ys))
    return LevelCurve(c1.xs, ys, min(c1.epsilon, c2.epsilon), c1.weighted_time)


def _fmt(v: float) -> str:
    return f"{v:.16e}"


def grid_to_csv(grid: PseudoGrid, path) -> None:
    """Rows x,y,sigma_min for every node (n_pts^2 data rows).

    Nodes the grid skipped are evaluated first, so every row holds a value.
    """
    grid = grid.completed()
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "sigma_min"])
        for iy, y in enumerate(grid.ys):
            for ix, x in enumerate(grid.xs):
                writer.writerow([_fmt(x), _fmt(y), _fmt(grid.sigma_min[iy, ix])])


def curve_to_csv(curve: LevelCurve, path) -> None:
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y_level"])
        for x, y in zip(curve.xs, curve.ys):
            writer.writerow([_fmt(x), _fmt(y)])
