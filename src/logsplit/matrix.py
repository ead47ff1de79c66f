"""Small dense complex matrices of exact Scalars and ``complex`` values.

Dimensions are capped at 8: local monodromies at desk scale.  All methods
are pure; a Matrix is immutable after construction.  Each entry is stored
as given: an exact :class:`~logsplit.scalar.Scalar`, or a ``complex`` for
a floating value (a floating Scalar is unboxed).  Arithmetic between the
two is Scalar arithmetic, whose floating results are ``complex``, and
every operation divides as a product with ``1.0 / x``.  Exact polar data
survives any operation that only needs products, reciprocals and colinear
sums (diagonal and triangular work in particular), and ``@`` and the
inverse keep exact entries exact in every dimension.  ``det`` and
``char_poly`` run on ``complex`` values from dimension 3.  ``rows``,
indexing, ``diagonal``, ``det``, ``char_poly`` and ``scalar_value``
return the values as stored or computed: exact Scalars and ``complex``.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from functools import reduce
from itertools import chain
from operator import add, mul

from .errors import DimensionMismatch, SingularMatrix
from .scalar import ONE, ZERO, Scalar, is_exact, modulus, value_of

MAX_DIM = 8

#: |det| at most ``SINGULARITY_TOL * (1 + max|entry|) ** n`` counts as singular.
SINGULARITY_TOL = 1e-12


def below_singularity_threshold(det_abs: float, max_abs: float, n: int) -> bool:
    """Whether ``det_abs <= SINGULARITY_TOL * (1 + max_abs) ** n``.

    Where the power overflows a float the same comparison is made between
    logarithms, so huge entries give a decision instead of OverflowError.
    A determinant beyond the float range is never below the threshold.
    """
    if det_abs == math.inf:
        return False
    try:
        return det_abs <= SINGULARITY_TOL * (1.0 + max_abs) ** n
    except OverflowError:
        log_tol = math.log(SINGULARITY_TOL)
        return det_abs == 0.0 or math.log(det_abs) <= log_tol + n * math.log1p(max_abs)


class Matrix:
    __slots__ = ("_rows",)

    def __init__(self, rows: Iterable[Iterable]):
        grid = tuple(tuple(map(_entry, row)) for row in rows)
        n = len(grid)
        if not 1 <= n <= MAX_DIM:
            raise DimensionMismatch(f"matrix dimension must be 1..{MAX_DIM}, got {n}")
        if any(len(row) != n for row in grid):
            raise DimensionMismatch("matrix must be square")
        self._rows = grid

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    # -- access ---------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self._rows)

    @property
    def rows(self) -> tuple[tuple[Scalar | complex, ...], ...]:
        return self._rows

    def __getitem__(self, ij: tuple[int, int]) -> Scalar | complex:
        i, j = ij
        return self._rows[i][j]

    def max_abs(self) -> float:
        try:
            return max(map(abs, chain.from_iterable(self._rows)))
        except OverflowError:  # that complex entry's modulus is the largest
            return math.inf

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self._rows == other._rows

    def __hash__(self) -> int:
        return hash(self._rows)

    def __repr__(self) -> str:
        body = "; ".join(", ".join(repr(e) for e in row) for row in self.rows)
        return f"Matrix[{body}]"

    # -- algebra ----------------------------------------------------------

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.n != other.n:
            raise DimensionMismatch(f"cannot multiply {self.n}x{self.n} by {other.n}x{other.n}")
        cols = tuple(zip(*other._rows))
        return Matrix([[reduce(add, map(mul, row, col)) for col in cols] for row in self._rows])

    def apply(self, v: Sequence) -> tuple:
        if len(v) != self.n:
            raise DimensionMismatch("vector length does not match matrix dimension")
        return tuple(reduce(add, map(mul, row, v)) for row in self._rows)

    def det(self) -> Scalar | complex:
        """The determinant (a complex from dimension 3)."""
        n = self.n
        r = self._rows
        if n == 1:
            return r[0][0]
        if n == 2:
            return r[0][0] * r[1][1] - r[0][1] * r[1][0]
        return _det_by_elimination([list(map(complex, row)) for row in r])

    def inverse(self) -> "Matrix":
        """Inverse by Gauss-Jordan elimination of ``[A | I]`` in the stored
        values, with an exact I unless every entry is floating, so exact
        entries stay exact.  Raises SingularMatrix when |det| is
        below_singularity_threshold."""
        n = self.n
        floating = all(e.__class__ is complex for e in chain.from_iterable(self._rows))
        one, zero = (1 + 0j, 0j) if floating else (ONE, ZERO)
        w = [list(self._rows[i]) + [zero] * i + [one] + [zero] * (n - i - 1) for i in range(n)]
        det_abs = modulus(_det_by_elimination(w))
        if below_singularity_threshold(det_abs, self.max_abs(), n):
            raise SingularMatrix(f"{n}x{n} determinant {det_abs:.3e} below tolerance")
        return Matrix(row[n:] for row in w)

    def char_poly(self) -> tuple[Scalar | complex, ...]:
        """Monic characteristic polynomial det(xI - A), coefficients from
        the leading 1 down to the constant term (length n + 1).

        Dimensions 1 and 2 are written out directly (trace and
        determinant, which keeps exact entries exact).  Larger matrices
        are reduced to Hessenberg form by a stabilized Gaussian
        similarity and the determinant is expanded along the last column,
        in complex floating point.
        Intermediates stay at the size of the coefficients themselves;
        trace-of-powers schemes carry errors of order eps * ||A||^n,
        which poisons the low coefficients whenever the spectrum is
        spread over a few orders of magnitude.
        """
        n = self.n
        if n == 1:
            return (ONE, -self._rows[0][0])
        if n == 2:
            (a, b), (c, d) = self._rows
            return (ONE, -(a + d), a * d - b * c)
        h = _hessenberg([list(map(complex, row)) for row in self._rows])
        return tuple(_hessenberg_char_poly(h))

    # -- structure probes -------------------------------------------------

    def is_upper_triangular(self) -> bool:
        for i, row in enumerate(self._rows):
            for e in row[:i]:
                if not _is_zero(e):
                    return False
        return True

    def is_lower_triangular(self) -> bool:
        for i, row in enumerate(self._rows):
            for e in row[i + 1:]:
                if not _is_zero(e):
                    return False
        return True

    def diagonal(self) -> tuple[Scalar | complex, ...]:
        return tuple(self._rows[i][i] for i in range(self.n))

    def scalar_value(self, tol: float) -> Scalar | complex | None:
        """The scalar c when this matrix equals c * I, else None.

        Fully exact matrices are tested exactly; otherwise deviation from
        the mean diagonal entry is compared against ``tol * max|entry|``,
        purely relatively, so the answer does not depend on the scale.
        """
        n = self.n
        rows = self._rows
        diag = [rows[i][i] for i in range(n)]
        if all(map(is_exact, chain.from_iterable(rows))):
            off_ok = all(rows[i][j].is_exact_zero for i in range(n) for j in range(n) if i != j)
            return diag[0] if off_ok and all(d == diag[0] for d in diag) else None
        mean = 0j  # a left fold: the package adds no floats with ``sum``
        for d in diag:
            mean += complex(d)
        mean /= n
        dev = max(abs(complex(e) - (mean if i == j else 0j))
                  for i, row in enumerate(rows) for j, e in enumerate(row))
        return mean if dev <= tol * self.max_abs() else None


# Kernels on plain complex values; the elimination also takes rows with
# exact Scalars, for the inverse of a matrix with exact entries.  Division
# is a multiplication by ``1.0 / pivot``, as in Scalar.


def _det_by_elimination(w: list[list]) -> complex | Scalar:
    """Determinant by partial-pivot elimination of rows of ``complex``
    values and exact Scalars; ``w`` is overwritten.  When ``w`` is wider
    than square, [A | B], each pivot row is also scaled to 1 and cleared
    from the rows above it (Gauss-Jordan), which leaves A^-1 B in the
    right block."""
    n, width = len(w), len(w[0])
    jordan = width > n
    det = 1 + 0j
    for col in range(n):
        pivot_row = max(range(col, n), key=lambda i: modulus(w[i][col]))
        pivot = w[pivot_row][col]
        if pivot == 0:
            return 0j
        if pivot_row != col:
            w[col], w[pivot_row] = w[pivot_row], w[col]
            det = -det
        det = det * pivot
        inv_pivot = 1.0 / pivot
        row_c = w[col]
        if jordan:
            row_c = w[col] = [e * inv_pivot for e in row_c]
        for row_i in w[0 if jordan else col + 1:]:
            if row_i is row_c:
                continue
            factor = row_i[col] if jordan else row_i[col] * inv_pivot
            if factor == 0:
                continue
            for j in range(col, width):
                row_i[j] = row_i[j] - factor * row_c[j]
    return det


def _hessenberg(w: list[list[complex]]) -> list[list[complex]]:
    """Similarity reduction of ``w``, in place, to upper Hessenberg form by
    pivoted Gaussian elimination; entries below the subdiagonal are dead
    after elimination and never read again."""
    n = len(w)
    for col in range(n - 2):
        p = col + 1
        pivot_row = max(range(p, n), key=lambda i: abs(w[i][col]))
        if w[pivot_row][col] == 0:
            continue
        if pivot_row != p:
            w[p], w[pivot_row] = w[pivot_row], w[p]
            for row in w:
                row[p], row[pivot_row] = row[pivot_row], row[p]
        inv_pivot = 1.0 / w[p][col]
        row_p = w[p]
        for i in range(col + 2, n):
            row_i = w[i]
            factor = row_i[col] * inv_pivot
            if factor == 0:
                continue
            for j in range(col, n):
                row_i[j] = row_i[j] - factor * row_p[j]
            for row in w:
                row[p] = row[p] + factor * row[i]
    return w


def _hessenberg_char_poly(h: list[list[complex]]) -> list[complex]:
    """det(xI - H) for upper Hessenberg H, expanded along the last column.

    With p_k the characteristic polynomial of the leading k-block and
    s_j = h[j+1][j] the subdiagonal,

        p_k = (x - h[k][k]) p_(k-1) - sum_i h[i][k] (prod_j s_j) p_(i-1)

    the product running over the subdiagonal between i and k.  Zero
    subdiagonal entries cut the sums off.
    """
    n = len(h)
    polys: list[list[complex]] = [[1 + 0j]]
    for k in range(1, n + 1):
        prev = polys[k - 1]
        hkk = h[k - 1][k - 1]
        cur = [prev[0]]
        cur.extend(prev[idx] - hkk * prev[idx - 1] for idx in range(1, len(prev)))
        cur.append(-(hkk * prev[-1]))
        subdiag_product = 1 + 0j
        for i in range(k - 1, 0, -1):
            subdiag_product = subdiag_product * h[i][i - 1]
            if subdiag_product == 0:
                break
            term = h[i - 1][k - 1] * subdiag_product
            if term == 0:
                continue
            pi = polys[i - 1]
            offset = len(cur) - len(pi)
            for idx, c in enumerate(pi):
                cur[offset + idx] = cur[offset + idx] - term * c
        polys.append(cur)
    return polys[n]


def _is_zero(e: Scalar | complex) -> bool:
    # A floating entry is a complex, never a Scalar: _entry unboxes it.
    return e is ZERO if e.__class__ is Scalar else e == 0


def _entry(e) -> Scalar | complex:
    v = e if e.__class__ is complex else value_of(e)
    if v is None:
        raise TypeError(f"matrix entries must be Scalars or numbers, got {type(e).__name__}")
    return v


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Product of two square matrices of equal dimension."""
    return a @ b


def mat_inverse(a: Matrix) -> Matrix:
    """Inverse of a matrix with |det| above the singularity tolerance."""
    return a.inverse()


def char_poly(a: Matrix) -> tuple[Scalar | complex, ...]:
    """Monic characteristic polynomial coefficients of ``a``."""
    return a.char_poly()
