"""Dense complex linear-algebra kernels.

Everything downstream (pseudospectral grids, contour selection, quadrature)
is built on the operations here: the operator's one complex Schur form
A = Q T Q* (for a real operator the real Schur form converted by rsf2csf,
for a complex one zgees), shifted solves (zI - A)x = b through it (one
triangular solve per shift), the resolvent apply in Schur coordinates
yhat(z) = (zI - T)^{-1} (Q* u0 + sum_k Q* v_k / (z + r_k)) at every
quadrature node (one triangular solve, no product with Q), the norms
||uhat(z)|| = ||yhat(z)|| (Q is unitary) at every truncation step and bound
sample, taken in Schur coordinates too, the feasibility check's condition
estimates (LAPACK ztrcon's 1-norm estimator, run in lock-step over all shifts
of a check and bit for bit with ztrcon), dense eigenvalues, and a
matrix-exponential reference evolution used as validation oracle.

All functions are deterministic and never mutate their inputs, except that
ShiftedSystem.solve_schur solves a contiguous complex right-hand side in
place; the only state is the operator's cached Schur form, its diagonal,
its one shift buffer (with a view of that buffer's diagonal), the
off-diagonal column sums of |T| and the bound on its numerical abscissa, and
the problem's cached Schur-coordinate data.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg as sla

from .errors import DimensionLimitError, EigenSolverError, SingularSystemError

# Operators above this size are rejected by the dense pipeline.
DENSE_DIM_LIMIT = 3000
# The matrix-exponential reference is trusted only up to this size.
REFERENCE_DIM_LIMIT = 500


@dataclass(frozen=True, eq=False)
class Operator:
    """Square, dense, complex-capable matrix with a provenance tag."""

    entries: np.ndarray
    source_tag: str = ""

    def __post_init__(self):
        M = np.asarray(self.entries)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ValueError(f"operator must be square, got shape {M.shape}")
        if M.shape[0] < 1:
            raise ValueError("operator must have dimension >= 1")
        dtype = np.complex128 if np.iscomplexobj(M) else np.float64
        M = np.ascontiguousarray(M, dtype=dtype)
        if not np.all(np.isfinite(M)):
            raise ValueError("operator entries must be finite")
        M.setflags(write=False)
        object.__setattr__(self, "entries", M)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @property
    def is_real(self) -> bool:
        return not np.iscomplexobj(self.entries)

    @cached_property
    def _schur(self) -> tuple[np.ndarray, np.ndarray]:
        try:
            if self.is_real:
                T, Q = sla.rsf2csf(*sla.schur(self.entries, output="real"))
            else:
                T, Q = sla.schur(self.entries, output="complex")
        except np.linalg.LinAlgError as exc:
            raise EigenSolverError(f"Schur factorization failed: {exc}") from exc
        T.setflags(write=False)
        Q.setflags(write=False)
        return T, Q

    @property
    def schur_factor(self) -> np.ndarray:
        """Read-only upper-triangular T of the complex Schur form A = Q T Q*.

        Computed on first use, together with Q, and kept for the operator's
        lifetime (16 n^2 bytes each); the eigenvalues, the default z_r, every
        resolvent-norm grid and every shifted solve read this one factor. A
        real operator takes the real Schur form (LAPACK ``dgees``) and
        converts its 2 x 2 blocks with ``rsf2csf``: about three times faster
        than ``zgees`` at n = 200, and with the same bits under any BLAS
        thread count. A complex operator takes ``zgees``.
        """
        return self._schur[0]

    @property
    def schur_vectors(self) -> np.ndarray:
        """Read-only unitary Q of the complex Schur form A = Q T Q*."""
        return self._schur[1]

    @cached_property
    def schur_diagonal(self) -> np.ndarray:
        """Read-only diagonal of T: the eigenvalues t_ii, in Schur order."""
        d = np.diag(self.schur_factor).copy()
        d.setflags(write=False)
        return d

    @cached_property
    def _shift_buffer(self) -> np.ndarray:
        """The operator's one shifted matrix: Fortran-order zI - T, -T off the
        diagonal, the diagonal rewritten for each shift (16 n^2 bytes).

        ShiftedSystem's solves, resolvent_cond's condition estimates and
        pseudospectra.SigmaMinEvaluator all work in it, one shift at a time.
        """
        return np.asfortranarray(-self.schur_factor)

    @cached_property
    def _shift_diagonal(self) -> np.ndarray:
        """A view of the shift buffer's diagonal, which each shift rewrites."""
        return self._shift_buffer.reshape(-1, order="F")[:: self.dim + 1]

    @cached_property
    def _column_sums(self) -> np.ndarray:
        """sum_{i<j} |t_ij| for each column j of T (n floats): the part of each
        column's 1-norm of zI - T that no shift changes.

        The moduli are ``hypot``'s and each sum adds in index order (a reduce
        down C-order rows), as LAPACK's ``zlantr`` forms them, so
        resolvent_cond keeps ``ztrcon``'s bits.
        """
        T = self.schur_factor
        return np.add.reduce(np.triu(np.hypot(T.real, T.imag, order="C"), 1), axis=0)

    @cached_property
    def abscissa_bound(self) -> float:
        """An upper bound on the numerical abscissa omega(A) = lambda_max((A + A*) / 2).

        For a unit vector v, ||(xI - A) v|| >= Re v*(xI - A) v >= x - omega(A),
        so sigma_min(xI - A) >= x - omega(A) for real x (Trefethen & Embree,
        *Spectra and Pseudospectra*, 2005, ch. 17); ``solver.default_z_r``
        settles its bracket tests right of it. The bound is Gershgorin's on
        the Hermitian part H: the largest Re a_ii + sum_{j != i} |h_ij|,
        raised by (n + 3) eps max_i (|Re a_ii| + sum_{j != i} |h_ij|) for the
        rounding of the sums, whose terms but the first are nonnegative.
        O(n^2), computed on first use and kept for the operator's lifetime.
        """
        A = self.entries
        centres = A.diagonal().real
        with np.errstate(over="ignore"):  # an overflow gives inf, which settles nothing
            H = np.abs(A + A.conj().T)
            H.flat[:: self.dim + 1] = 0.0
            radii = 0.5 * H.sum(axis=1)
            rounding = (self.dim + 3) * np.finfo(float).eps * float(np.max(np.abs(centres) + radii))
            return float(np.max(centres + radii)) + rounding


def as_operator(A) -> Operator:
    """Coerce a matrix-like into an Operator (no copy if already one)."""
    if isinstance(A, Operator):
        return A
    return Operator(np.asarray(A))


_TRTRS = sla.get_lapack_funcs("trtrs", dtype=complex)
# resolvent_cond runs LAPACK zlacn2's iteration: at most this many steps
# x = e_j, and a modulus at or below the safe minimum gives the sign 1.
_CONDEST_STEPS = 5
_SAFE_MINIMUM = np.finfo(float).tiny


class ShiftedSystem:
    """The shifted system (zI - A) x = b at one shift z, solved through the
    operator's Schur form A = Q T Q*.

    zI - A = Q (zI - T) Q*, so each solve is x = Q (zI - T)^{-1} Q* b: two
    matrix-vector products and one O(n^2) triangular solve (LAPACK
    ``trtrs``) instead of an O(n^3) LU per shift; ``solve_schur`` is the
    triangular solve alone, for a right-hand side already in Schur
    coordinates (Q* b), and it writes y over a contiguous complex
    right-hand side (pass a copy to keep one). T and Q are computed once
    per Operator (``Operator.schur_factor``; a plain array is wrapped in a
    new Operator, so pass an Operator to share them), and zI - T is written
    into the operator's one shift buffer, whose diagonal each triangular
    solve rewrites, as resolvent_cond and pseudospectra.SigmaMinEvaluator do;
    work on one operator therefore runs one shift at a time. Node reuse across
    quadrature refinements and time windows keeps solutions, not systems:
    ``solver.NodeCache`` holds one stack of them, one row per node of the
    finest rule solved.
    """

    def __init__(self, A, z: complex):
        self.z = complex(z)
        if not cmath.isfinite(self.z):
            raise ValueError("array must not contain infs or NaNs")
        self._op = op = as_operator(A)
        self._diag = self.z - op.schur_diagonal
        # A zero pivot of zI - T: z is an eigenvalue (count_nonzero is the
        # cheaper test).
        if np.count_nonzero(self._diag) < self._diag.size:
            raise SingularSystemError(
                f"(zI - A) is numerically singular at z = {self.z}"
            )

    def _shifted(self) -> np.ndarray:
        """The operator's shift buffer, holding zI - T at this shift."""
        self._op._shift_diagonal[...] = self._diag
        return self._op._shift_buffer

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs)
        if not np.all(np.isfinite(rhs)):
            raise ValueError("array must not contain infs or NaNs")
        Q = self._op.schur_vectors
        # Q* rhs without a conjugate-transposed copy of Q.
        return Q @ self.solve_schur(np.conj(Q.T @ np.conj(rhs)))

    def solve_schur(self, rhs: np.ndarray) -> np.ndarray:
        """y = (zI - T)^{-1} rhs: the solve in Schur coordinates, where
        rhs = Q* b and x = Q y. One triangular solve; a non-finite y (an
        overflow, or a non-finite rhs) raises SingularSystemError.

        A contiguous complex rhs is overwritten with y and returned, so a
        caller that reuses its rhs must pass a copy; any other rhs (real or
        strided) is solved on a copy and left unchanged. Both give the bits
        of a solve on a copy."""
        M = self._shifted()
        # Positional (lower, trans, unitdiag, lda, overwrite_b), as in resolvent_cond.
        y = _TRTRS(M, rhs, 0, 0, 0, M.shape[0], 1)[0]
        if np.count_nonzero(np.isfinite(y)) < y.size:
            raise SingularSystemError(
                f"solve with (zI - A) overflowed at z = {self.z}"
            )
        return y


def schur_solution(problem, z: complex) -> np.ndarray:
    """The Laplace-transformed state in Schur coordinates,
    yhat(z) = Q* uhat(z) = (zI - T)^{-1} (Q* u0 + sum_k Q* v_k / (z + r_k)).

    The right-hand side is ``problem.schur_rhs(z)``, built from Q* u0 and
    each Q* v_k computed once per problem, so each shift costs one
    ShiftedSystem and one triangular solve. Raises SingularSystemError when
    z is (numerically) an eigenvalue of A or the solve overflows.
    """
    return ShiftedSystem(problem.operator, z).solve_schur(problem.schur_rhs(z))


def resolvent_norms(problem, z) -> np.ndarray:
    """||uhat(z_k)|| at each point z_k of z, in z's shape: the one loop that samples
    sizes of uhat, which every truncation step and sampled bound scales.

    uhat = Q yhat with Q unitary, so each norm is taken in Schur coordinates,
    with no product with Q. ``problem.schur_rhs`` builds every right-hand
    side as one block, one row per point; each row is then solved by its own
    ShiftedSystem and stored back in its row (in place for a complex block),
    and the norms are taken along the rows. Raises
    SingularSystemError as schur_solution does.
    """
    z = np.asarray(z, dtype=complex)
    Y = problem.schur_rhs(z.ravel())
    for k, zk in enumerate(z.flat):
        Y[k] = ShiftedSystem(problem.operator, zk).solve_schur(Y[k])
    return np.linalg.norm(Y, axis=-1).reshape(z.shape)


def resolvent_cond(A, z) -> np.ndarray:
    """Condition estimate of (z_k I - A) at each shift z_k of z, in z's shape;
    feeds the feasibility check.

    Each value is LAPACK ``ztrcon``'s estimate, bit for bit, of the 1-norm
    condition number of zI - T, the triangular system every solve at z runs:
    1 / ((1 / ||zI - T||_1) / est), where est is Higham's estimate from below
    of ||(zI - T)^{-1}||_1 (ACM TOMS 14, 1988) as LAPACK's ``zlacn2`` runs
    it. That number lies within a factor n of the 2-norm condition number,
    which zI - T shares with zI - A = Q (zI - T) Q*. A zero pivot (z is an
    eigenvalue) and a solve that overflows both give inf; ``ztrcon`` would
    rescale the overflowing solve instead.

    All shifts of a call run in lock-step. Every diagonal z_k - t_ii is
    formed at once, and ||zI - T||_1 is the largest of the operator's
    off-diagonal column sums plus |z_k - t_jj|. Each round of the iteration
    makes one triangular solve (``trtrs``) per unfinished shift in the
    operator's shift buffer, then takes the moduli, sums, largest entries
    and signs of all their iterates at once. ``ztrcon``'s bits hold because
    every modulus is ``hypot``'s (Fortran's complex abs), every sum runs in
    index order and each sign x_i / |x_i| is two real divisions.
    """
    op = as_operator(A)
    z = np.asarray(z, dtype=complex)
    if not np.isfinite(z).all():
        raise ValueError("array must not contain infs or NaNs")
    n = op.dim
    D = z.reshape(-1, 1) - op.schur_diagonal
    pivots = np.hypot(D.real, D.imag)
    anorm = np.max(op._column_sums + pivots, axis=1)
    ainvnm = np.zeros(len(D))  # stays 0, read as inf, at a zero pivot or an overflow
    # zlacn2's state per unfinished shift: the iterate x (a row of X); the
    # entry its solve returns to (1, 3 and 5 after a solve with zI - T, 2
    # and 4 after one with its conjugate transpose); the estimate; the j of
    # the last x = e_j; the count of those steps.
    live = np.flatnonzero(pivots.min(axis=1) > 0.0).tolist()
    X = np.full((len(live), n), 1.0 / n, dtype=complex)
    entry = [1] * len(live)
    est = [0.0] * len(live)
    j = [0] * len(live)
    steps = [0] * len(live)
    alternating = 1.0 + np.arange(n) / max(n - 1, 1)
    alternating[1::2] *= -1.0
    M, diagonal = op._shift_buffer, op._shift_diagonal
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while live:
            for x, k, e in zip(X, live, entry):
                diagonal[...] = D[k]
                # Positional (lower, trans, unitdiag, lda, overwrite_b): keyword
                # parsing costs a fifth of a solve at n = 63.
                _TRTRS(M, x, 0, 2 if e in (2, 4) else 0, 0, n, 1)
            moduli = np.hypot(X.real, X.imag)
            totals = np.add.accumulate(moduli, axis=1)[:, -1].tolist()
            tops = moduli.argmax(axis=1).tolist()  # the first largest modulus
            if 1 in entry or 3 in entry:  # x / |x|, which only they read
                np.divide(X.real, moduli, out=X.real)
                np.divide(X.imag, moduli, out=X.imag)
                X[moduli <= _SAFE_MINIMUM] = 1.0
            keep = []
            for i, (k, e, total) in enumerate(zip(live, entry, totals)):
                if not math.isfinite(total):  # an overflow: the shift is done
                    continue
                if e == 5:  # the last solve, from the alternating vector
                    ainvnm[k] = max(est[i], 2.0 * (total / (3 * n)))
                    continue
                if e == 1:
                    est[i], entry[i] = total, 2
                    if n == 1:  # zlacn2 stops at its first solve
                        ainvnm[k] = total
                        continue
                elif e == 3:
                    grew, est[i] = total > est[i], total
                    entry[i] = 4 if grew else 5
                elif e == 2 or (steps[i] < _CONDEST_STEPS
                                and moduli[i, j[i]] != moduli[i, tops[i]]):
                    j[i], steps[i], entry[i] = tops[i], 2 if e == 2 else steps[i] + 1, 3
                    X[i] = 0.0
                    X[i, j[i]] = 1.0
                else:  # entry 4 at a repeated largest entry, or after its last step
                    entry[i] = 5
                if entry[i] == 5:
                    X[i] = alternating
                keep.append(i)
            if len(keep) < len(live):
                X = X[keep]
                live, entry, est, j, steps = (
                    [v[i] for i in keep] for v in (live, entry, est, j, steps)
                )
        rcond = np.where(ainvnm > 0.0, (1.0 / anorm) / ainvnm, 0.0)
        return (1.0 / rcond).reshape(z.shape)


def eigenvalues(A) -> np.ndarray:
    """All eigenvalues of A (unordered, complex): the diagonal of its Schur factor."""
    return as_operator(A).schur_diagonal.copy()


def reference_solution(problem, t: float) -> np.ndarray:
    """Evolve u' = Au + b(t), u(0) = u0 up to time t by one matrix exponential.

    The operator, the source-term vectors and their scalar decay modes are
    embedded into a single augmented matrix; the first block of
    expm(M t) @ [u0; 1...1] is exactly u(t) = e^{At} u0 + int_0^t e^{A(t-s)} b(s) ds.
    Every LaplaceProblem source is a sum of v * exp(-r s) terms (r = 0 gives
    a constant), so every problem has this reference.
    """
    A = problem.operator.entries
    n = A.shape[0]
    if n > REFERENCE_DIM_LIMIT:
        raise DimensionLimitError(
            f"reference evolution is certified only up to dim {REFERENCE_DIM_LIMIT}, "
            f"got {n}"
        )
    terms = list(problem.source_terms)
    m = len(terms)
    dtype = complex if (np.iscomplexobj(A) or any(np.iscomplexobj(v.vector) for v in terms)
                        or np.iscomplexobj(problem.u0)) else float
    M = np.zeros((n + m, n + m), dtype=dtype)
    M[:n, :n] = A
    for k, term in enumerate(terms):
        M[:n, n + k] = term.vector
        M[n + k, n + k] = -term.rate
    w = np.concatenate([np.asarray(problem.u0, dtype=dtype), np.ones(m, dtype=dtype)])
    return (sla.expm(M * float(t)) @ w)[:n]
