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
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import GeometryError
from .numerics import as_operator

_LOG_CAP = 700.0  # exp(700) is near the double-precision overflow edge


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

    For real operators only the upper half plane is evaluated; values at
    y < 0 are the mirrored ones (sigma is conjugation-symmetric there).
    """

    spec: GridSpec
    sigma_min: np.ndarray

    @property
    def xs(self) -> np.ndarray:
        return self.spec.xs

    @property
    def ys(self) -> np.ndarray:
        return self.spec.ys


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


def compute_grid(A, spec: GridSpec) -> PseudoGrid:
    """Evaluate sigma_min(zI - A) at every node of the box.

    For real A only distinct |y| rows are evaluated; the lower half plane is
    filled by mirror symmetry.
    """
    op = as_operator(A)
    ev = SigmaMinEvaluator(op)
    xs, ys = spec.xs, spec.ys
    sigma = np.empty((spec.n_pts, spec.n_pts))
    row_cache: dict[float, np.ndarray] = {}
    for iy, y in enumerate(ys):
        key = abs(float(y)) if op.is_real else float(y)
        row = row_cache.get(key)
        if row is None:
            yy = key if op.is_real else y
            row = np.array([ev(complex(x, yy)) for x in xs])
            row_cache[key] = row
        sigma[iy, :] = row
    sigma.setflags(write=False)
    return PseudoGrid(spec, sigma)


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
    with np.errstate(divide="ignore"):
        log_sigma = np.log(grid.sigma_min[upper[order], :])
    for ix, x in enumerate(xs):
        logv = np.minimum(x * t - log_sigma[:, ix], _LOG_CAP)
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
    """Rows x,y,sigma_min for every node (n_pts^2 data rows)."""
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
