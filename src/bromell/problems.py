"""Problem generators and file ingestion.

Two built-in spatial discretizations (a convection-diffusion two-point
problem on a Chebyshev grid and a European-call finite-difference operator),
plus readers/writers for coordinate-format sparse matrix files and plain
one-value-per-line vectors, and the one writer of CSV tables.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionLimitError, FormatError
from .numerics import DENSE_DIM_LIMIT, Operator, as_operator

MM_HEADER = "%%MatrixMarket matrix coordinate real general"


@dataclass(frozen=True, eq=False)
class SourceTerm:
    """One closed-form source mode v * exp(-rate * t).

    Its Laplace transform is v / (z + rate): a simple pole at -rate.
    rate = 0 is a constant-in-time source with transform v / z.
    """

    vector: np.ndarray
    rate: float = 0.0

    def __post_init__(self):
        v = np.atleast_1d(np.asarray(self.vector))
        dtype = np.complex128 if np.iscomplexobj(v) else np.float64
        v = np.ascontiguousarray(v, dtype=dtype)
        if not np.all(np.isfinite(v)):
            raise ValueError("source term vector entries must be finite")
        v.setflags(write=False)
        object.__setattr__(self, "vector", v)
        object.__setattr__(self, "rate", float(self.rate))
        if not math.isfinite(self.rate):
            raise ValueError(f"source term rate must be finite, got {self.rate}")

    @property
    def pole(self) -> complex:
        return complex(-self.rate)


@dataclass(frozen=True, eq=False)
class LaplaceProblem:
    """u' = A u + b(t), u(0) = u0, with b a sum of closed-form modes.

    Every problem of this form up to the reference's dimension limit can be
    validated against the matrix-exponential reference.
    """

    operator: Operator
    u0: np.ndarray
    source_terms: tuple = ()
    label: str = ""

    def __post_init__(self):
        op = as_operator(self.operator)
        object.__setattr__(self, "operator", op)
        u0 = np.atleast_1d(np.asarray(self.u0))
        dtype = np.complex128 if np.iscomplexobj(u0) else np.float64
        u0 = np.ascontiguousarray(u0, dtype=dtype)
        if not np.all(np.isfinite(u0)):
            raise ValueError("u0 entries must be finite")
        u0.setflags(write=False)
        object.__setattr__(self, "u0", u0)
        terms = tuple(self.source_terms)
        object.__setattr__(self, "source_terms", terms)
        if u0.shape[0] != op.dim:
            raise ValueError(
                f"u0 has length {u0.shape[0]}, operator has dim {op.dim}"
            )
        for term in terms:
            if term.vector.shape[0] != op.dim:
                raise ValueError("source term length does not match operator dim")

    @property
    def dim(self) -> int:
        return self.operator.dim

    @property
    def is_real(self) -> bool:
        return (
            self.operator.is_real
            and not np.iscomplexobj(self.u0)
            and all(not np.iscomplexobj(term.vector) for term in self.source_terms)
        )

    @property
    def singularities(self) -> tuple:
        """Poles of the transformed source (empty for b = 0)."""
        return tuple(term.pole for term in self.source_terms)

    def bhat(self, z: complex) -> np.ndarray:
        """Transformed source evaluated at z."""
        out = np.zeros(self.dim, dtype=complex)
        for term in self.source_terms:
            out += term.vector / (z + term.rate)
        return out

    @cached_property
    def _schur_data(self) -> tuple[np.ndarray, tuple]:
        """Q* u0 and each source term's (Q* v_k, r_k), computed once from the
        operator's Schur vectors Q."""
        Qh = self.operator.schur_vectors.conj().T
        return Qh @ self.u0, tuple((Qh @ term.vector, term.rate) for term in self.source_terms)

    def schur_rhs(self, z) -> np.ndarray:
        """Q* (u0 + bhat(z)) = Q* u0 + sum_k Q* v_k / (z + r_k): the right-hand
        side of the shifted solve at z in Schur coordinates (A = Q T Q*),
        with no product with Q. A 1-D array of m shifts gives a fresh
        (m, dim) block, one row per shift with a scalar shift's arithmetic."""
        qu0, terms = self._schur_data
        if isinstance(z, np.ndarray):
            if not terms:
                return np.tile(qu0, (z.size, 1))
            z = z[:, None]
        elif not terms:
            return qu0.copy()
        (w, rate), *rest = terms
        out = qu0 + w / (z + rate)
        for w, rate in rest:
            out += w / (z + rate)
        return out


def chebyshev_points(n: int) -> np.ndarray:
    """Collocation points cos(j pi / n), j = 0..n (descending from 1 to -1)."""
    return np.cos(np.pi * np.arange(n + 1) / n)


def chebyshev_diff_matrix(n: int) -> np.ndarray:
    """First-derivative collocation matrix on the n+1 points cos(j pi / n)."""
    if n < 1:
        raise ValueError("need n >= 1")
    x = chebyshev_points(n)
    c = np.hstack([2.0, np.ones(n - 1), 2.0]) * (-1.0) ** np.arange(n + 1)
    X = np.tile(x, (n + 1, 1)).T
    dX = X - X.T
    D = np.outer(c, 1.0 / c) / (dX + np.eye(n + 1))
    # Negative-sum trick for the diagonal: rows must kill constants exactly.
    D -= np.diag(D.sum(axis=1))
    return D


def canonical_cd_problem(d: float = 400.0, n: int = 64) -> LaplaceProblem:
    """Convection-diffusion test problem u_t = u_xx + u_x on [0, d].

    Boundary data u(0, t) = 0, u(d, t) = 1, zero initial state. Discretized
    by Chebyshev collocation on n+1 points mapped onto [0, d]; the boundary
    rows are eliminated and the inhomogeneous right boundary becomes a
    constant source, so the transformed source is b / z with its pole at 0.
    """
    if d <= 0:
        raise ValueError("need d > 0")
    if n < 4:
        raise ValueError("need n >= 4")
    D = chebyshev_diff_matrix(n) * (2.0 / d)
    A_full = D @ D + D
    # Grid point j=0 is x=d, j=n is x=0; interior unknowns are 1..n-1.
    A = A_full[1:n, 1:n]
    b = A_full[1:n, 0] * 1.0  # u(d) = 1 folded into the source
    u0 = np.zeros(n - 1)
    return LaplaceProblem(
        Operator(A, source_tag=f"canonical-cd d={d} n={n}"),
        u0,
        (SourceTerm(b, 0.0),),
        label="canonical-cd",
    )


def canonical_cd_steady_state(d: float, n: int) -> np.ndarray:
    """Analytic steady profile (1 - e^{-x}) / (1 - e^{-d}) on the interior grid."""
    x = (chebyshev_points(n)[1:n] + 1.0) * (d / 2.0)
    return np.expm1(-x) / np.expm1(-d)


def black_scholes_problem(
    L: float = 0.0,
    S: float = 200.0,
    K: float = 80.0,
    r: float = 0.06,
    sigma: float = 0.05,
    n: int = 200,
) -> LaplaceProblem:
    """European-call operator from centered finite differences on [L, S].

    n interior unknowns with spacing h = (S - L)/(n + 1). The right boundary
    value S - K e^{-r tau} enters through the last row's super-diagonal
    coefficient, giving the transformed source coeff * (S/z - K/(z + r)) e_n
    with poles at 0 and -r. Initial data is the call payoff max(0, s - K).
    """
    if not (L >= 0 and L < K < S):
        raise ValueError("need 0 <= L < K < S")
    if n < 4:
        raise ValueError("need n >= 4")
    h = (S - L) / (n + 1)
    s = L + h * np.arange(1, n + 1)
    sub = sigma**2 * s**2 / (2 * h**2) - r * s / (2 * h)
    diag = -(sigma**2) * s**2 / h**2 - r
    sup = sigma**2 * s**2 / (2 * h**2) + r * s / (2 * h)
    A = np.diag(diag) + np.diag(sub[1:], -1) + np.diag(sup[:-1], 1)
    u0 = np.maximum(0.0, s - K)
    coeff = sup[-1]
    e_n = np.zeros(n)
    e_n[-1] = 1.0
    terms = (
        SourceTerm(coeff * S * e_n, 0.0),
        SourceTerm(-coeff * K * e_n, r),
    )
    return LaplaceProblem(
        Operator(A, source_tag=f"black-scholes n={n} r={r} sigma={sigma} K={K}"),
        u0,
        terms,
        label="black-scholes",
    )


def load_operator(path) -> Operator:
    """Read a dense Operator from a coordinate-format sparse matrix file.

    Duplicate (i, j) entries are summed, per the format convention. Files
    above the dense size limit are rejected.
    """
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.readlines()
    if not lines:
        raise FormatError(f"{path}: empty file")
    header = lines[0].strip()
    if header != MM_HEADER:
        raise FormatError(f"{path}:1: expected header '{MM_HEADER}', got '{header}'")
    k = 1
    while k < len(lines) and lines[k].lstrip().startswith("%"):
        k += 1
    if k >= len(lines):
        raise FormatError(f"{path}:{k}: missing size line")
    parts = lines[k].split()
    if len(parts) != 3:
        raise FormatError(f"{path}:{k + 1}: size line must be 'rows cols nnz'")
    try:
        rows, cols, nnz = (int(p) for p in parts)
    except ValueError as exc:
        raise FormatError(f"{path}:{k + 1}: bad size line: {exc}") from exc
    if rows != cols:
        raise FormatError(f"{path}:{k + 1}: operator must be square, got {rows}x{cols}")
    if rows > DENSE_DIM_LIMIT:
        raise DimensionLimitError(
            f"{path}: dimension {rows} exceeds dense limit {DENSE_DIM_LIMIT}"
        )
    M = np.zeros((rows, cols))
    count = 0
    for lineno in range(k + 1, len(lines)):
        text = lines[lineno].strip()
        if not text or text.startswith("%"):
            continue
        parts = text.split()
        if len(parts) != 3:
            raise FormatError(f"{path}:{lineno + 1}: entry must be 'i j value'")
        try:
            i, j, val = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno + 1}: bad entry: {exc}") from exc
        if not (1 <= i <= rows and 1 <= j <= cols):
            raise FormatError(f"{path}:{lineno + 1}: index ({i}, {j}) out of range")
        if not math.isfinite(val):
            raise FormatError(f"{path}:{lineno + 1}: value must be finite, got '{parts[2]}'")
        M[i - 1, j - 1] += val
        count += 1
    if count != nnz:
        raise FormatError(f"{path}: header promised {nnz} entries, found {count}")
    return Operator(M, source_tag=str(path))


def save_operator(path, A) -> None:
    """Write an Operator (real entries only) in coordinate text format."""
    op = as_operator(A)
    if not op.is_real:
        raise FormatError("coordinate 'real general' format cannot store complex entries")
    M = op.entries
    idx = np.argwhere(M != 0.0)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(MM_HEADER + "\n")
        fh.write(f"{op.dim} {op.dim} {len(idx)}\n")
        for i, j in idx:
            fh.write(f"{i + 1} {j + 1} {M[i, j]:.17g}\n")


def load_vector(path) -> np.ndarray:
    """Read a vector stored one value per line (blank lines ignored)."""
    values = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("%") or text.startswith("#"):
                continue
            try:
                value = float(text)
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: bad value: {exc}") from exc
            if not math.isfinite(value):
                raise FormatError(f"{path}:{lineno}: value must be finite, got '{text}'")
            values.append(value)
    if not values:
        raise FormatError(f"{path}: no values found")
    return np.array(values)


def save_vector(path, v) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for val in np.asarray(v):
            fh.write(f"{float(np.real_if_close(val)):.17g}\n")


def write_csv(path, header, rows) -> None:
    """ASCII CSV: the header row, then each row with integers (Python or
    numpy) unchanged, None as nan and every other value, numpy floats too,
    as %.16e. Python counts a bool as an integer, so rows hold none."""
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([v if isinstance(v, (int, np.integer)) else "nan" if v is None
                          else f"{v:.16e}" for v in row] for row in rows)


def load_problem(path_matrix, path_u0=None, source_spec=None) -> LaplaceProblem:
    """Assemble a LaplaceProblem from files.

    source_spec: None for b = 0, or an iterable of (rate, vector) pairs.
    """
    A = load_operator(path_matrix)
    if path_u0 is None:
        u0 = np.zeros(A.dim)
    else:
        u0 = load_vector(path_u0)
        if u0.shape[0] != A.dim:
            raise FormatError(
                f"{path_u0}: length {u0.shape[0]} does not match operator dim {A.dim}"
            )
    terms = tuple(SourceTerm(np.asarray(vec), float(rate)) for rate, vec in source_spec or ())
    return LaplaceProblem(A, u0, terms, label="file")
