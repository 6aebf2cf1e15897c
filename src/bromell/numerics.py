"""Dense complex linear-algebra kernels.

Everything downstream (pseudospectral grids, contour selection, quadrature)
is built on the operations here: the operator's one complex Schur form
A = Q T Q* (for a real operator the real Schur form converted by rsf2csf,
for a complex one zgees), shifted solves (zI - A)x = b through it (one
triangular solve per shift), the resolvent apply in Schur coordinates
yhat(z) = (zI - T)^{-1} (Q* u0 + sum_k Q* v_k / (z + r_k)) at every
quadrature node (one triangular solve, no product with Q), the norms
||uhat(z)|| = ||yhat(z)|| (Q is unitary) at every truncation step and bound
sample, taken in Schur coordinates too, the triangular condition estimate
of the feasibility check, dense eigenvalues, and a matrix-exponential
reference evolution used as validation oracle.

All functions are deterministic and never mutate their inputs; the only
state is the operator's cached Schur form, its diagonal and its one shift
buffer (with a view of that buffer's diagonal), and the problem's cached
Schur-coordinate data.
"""

from __future__ import annotations

import cmath
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

        ShiftedSystem (solves and condition estimates) and
        pseudospectra.SigmaMinEvaluator both work in it, one shift at a time.
        """
        return np.asfortranarray(-self.schur_factor)

    @cached_property
    def _shift_diagonal(self) -> np.ndarray:
        """A view of the shift buffer's diagonal, which each shift rewrites."""
        return self._shift_buffer.reshape(-1, order="F")[:: self.dim + 1]


def as_operator(A) -> Operator:
    """Coerce a matrix-like into an Operator (no copy if already one)."""
    if isinstance(A, Operator):
        return A
    return Operator(np.asarray(A))


_TRTRS, _TRCON = sla.get_lapack_funcs(("trtrs", "trcon"), dtype=complex)


class ShiftedSystem:
    """The shifted system (zI - A) x = b at one shift z, solved through the
    operator's Schur form A = Q T Q*.

    zI - A = Q (zI - T) Q*, so each solve is x = Q (zI - T)^{-1} Q* b: two
    matrix-vector products and one O(n^2) triangular solve (LAPACK
    ``trtrs``) instead of an O(n^3) LU per shift; ``solve_schur`` is the
    triangular solve alone, for a right-hand side already in Schur
    coordinates (Q* b). T and Q are computed once per Operator
    (``Operator.schur_factor``; a plain array is wrapped in a new Operator,
    so pass an Operator to share them), and zI - T is written into the
    operator's one shift buffer, whose diagonal each triangular solve and
    ``cond`` rewrites, as pseudospectra.SigmaMinEvaluator does; work on one
    operator therefore runs one shift at a time. Node reuse across
    quadrature refinements and time windows keeps solutions in
    ``solver.NodeCache``, not systems.
    """

    def __init__(self, A, z: complex):
        self.z = complex(z)
        if not cmath.isfinite(self.z):
            raise ValueError("array must not contain infs or NaNs")
        self._op = op = as_operator(A)
        self._diag = self.z - op.schur_diagonal
        if not self._diag.all():  # zero pivot of zI - T: z is an eigenvalue
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
        overflow, or a non-finite rhs) raises SingularSystemError."""
        y = _TRTRS(self._shifted(), rhs)[0]
        if not np.isfinite(y).all():
            raise SingularSystemError(
                f"solve with (zI - A) overflowed at z = {self.z}"
            )
        return y

    def cond(self) -> float:
        """1-norm condition estimate of the triangular zI - T that solve runs
        (LAPACK ``trcon``, Hager-Higham); inf when its reciprocal is 0."""
        rcond, _ = _TRCON(self._shifted(), norm="1")
        return 1.0 / rcond if rcond > 0.0 else np.inf


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
    side as one block, one row per point; each row is then solved in place
    by its own ShiftedSystem, and the norms are taken along the rows. Raises
    SingularSystemError as schur_solution does.
    """
    z = np.asarray(z, dtype=complex)
    Y = problem.schur_rhs(z.ravel())
    for k, zk in enumerate(z.flat):
        Y[k] = ShiftedSystem(problem.operator, zk).solve_schur(Y[k])
    return np.linalg.norm(Y, axis=-1).reshape(z.shape)


def resolvent_cond(A, z: complex) -> float:
    """Condition estimate of (zI - A) at z; feeds the feasibility check.

    ``ShiftedSystem(A, z).cond()``: an estimate from below of the 1-norm
    condition number of zI - T, the triangular system every solve at z runs.
    That number lies within a factor n of the 2-norm condition number, which
    zI - T shares with zI - A = Q (zI - T) Q*. An eigenvalue shift gives inf.
    """
    try:
        return ShiftedSystem(A, z).cond()
    except SingularSystemError:
        return np.inf


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
