"""Small dense complex matrices of exact Scalars and ``complex`` values.

Dimensions are capped at 8: local monodromies at desk scale.  All methods
are pure; a Matrix is immutable after construction.  Each entry is stored
as given: an exact :class:`~logsplit.scalar.Scalar`, or a ``complex`` for
a floating value (a floating Scalar is unboxed).  Arithmetic between the
two is Scalar arithmetic, whose floating results are ``complex``, and
every operation divides as a product with ``1.0 / x``, but ``det``,
``char_poly`` and the singularity test of ``inverse`` divide by a pivot
whose reciprocal overflows.  Exact polar
data survives any operation that only needs products, reciprocals and
colinear sums (diagonal and triangular work in particular), and ``@`` and
the inverse keep exact entries exact in every dimension.  ``det`` and
``char_poly`` run on ``complex`` values from dimension 3.  ``rows``,
indexing, ``diagonal``, ``det``, ``char_poly`` and ``scalar_value``
return the values as stored or computed: exact Scalars and ``complex``.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Iterable, Sequence
from functools import reduce
from itertools import chain
from operator import add, mul

from .errors import DimensionMismatch, FloatRangeError, SingularMatrix
from .scalar import ONE, ZERO, Scalar, is_exact, modulus, modulus_at_least, modulus_frexp
from .scalar import real_scalar, value_of

MAX_DIM = 8

#: |det| at most ``SINGULARITY_TOL * max|entry| ** n`` counts as singular.
SINGULARITY_TOL = 1e-12


def below_singularity_threshold(det_abs: float, max_abs: float, n: int) -> bool:
    """Whether ``det_abs <= SINGULARITY_TOL * max_abs ** n``.

    Both sides are compared at the exponent of ``det_abs``, the power taken
    of the mantissa of ``max_abs``, so the decision does not change when a
    matrix is scaled by a power of two, and no power over- or underflows.
    A determinant beyond the float range is never below the threshold.
    """
    if det_abs == math.inf:
        return False
    m, e = math.frexp(max_abs)
    d, f = math.frexp(det_abs)
    try:
        return d <= math.ldexp(SINGULARITY_TOL * m**n, n * e - f)
    except OverflowError:  # a threshold beyond the float range, above d < 1
        return True


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
    def _of_rows(cls, grid: tuple[tuple[Scalar | complex, ...], ...]) -> "Matrix":
        """The Matrix of ``grid``, square row tuples of dimension 1 to
        MAX_DIM whose entries are already held as stored (exact Scalars and
        ``complex``), as a decoder or a product builds them: kept as given,
        unchecked."""
        m = cls.__new__(cls)
        m._rows = grid
        return m

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
        # Scalar arithmetic yields stored values: exact Scalars and complex.
        return Matrix._of_rows(
            tuple([tuple([reduce(add, map(mul, row, col)) for col in cols]) for row in self._rows])
        )

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
        """Inverse by Gauss-Jordan elimination of ``[A * 2^-exp | I]``, whose
        max|entry| lies in [0.5, 1), in the stored values, with an exact I
        unless every entry is floating, so exact entries stay exact and
        scaling A by a power of two changes no decision.  ``exp`` is read
        from the exact moduli when every entry is exact, so an exact
        entry whose float under- or overflows still sets it.  Raises
        SingularMatrix when that block's |det| is below_singularity_threshold,
        else FloatRangeError for an entry of the inverse beyond the float
        range.  The determinant comes from the determinant-only elimination
        of the block, which divides by a pivot without a finite reciprocal,
        so no NaN decides; Gauss-Jordan runs only on a block that passed."""
        n = self.n
        entries = tuple(chain.from_iterable(self._rows))
        floating = all(e.__class__ is complex for e in entries)
        one, zero = (1 + 0j, 0j) if floating else (ONE, ZERO)
        if all(map(is_exact, entries)):
            largest = reduce(lambda x, y: x if modulus_at_least(x, y) else y, entries)
            top, exp = modulus_frexp(largest)
        else:
            top, exp = math.frexp(self.max_abs())
        block = [[_ldexp(e, -exp) for e in row] for row in self._rows]
        det_abs = modulus(_det_by_elimination([row[:] for row in block]))
        if below_singularity_threshold(det_abs, top, n):
            raise SingularMatrix(f"{n}x{n} determinant {det_abs:.3e} below tolerance")
        w = [row + [zero] * i + [one] + [zero] * (n - i - 1) for i, row in enumerate(block)]
        _det_by_elimination(w)  # Gauss-Jordan: leaves the inverse in the right block
        try:
            inverse = tuple(tuple(_ldexp(e, -exp) for e in row[n:]) for row in w)
            for e in chain.from_iterable(inverse):
                if e.__class__ is complex and not cmath.isfinite(e):
                    raise OverflowError
        except OverflowError:
            raise FloatRangeError(f"{n}x{n} inverse outside the floating-point range") from None
        return Matrix._of_rows(inverse)

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
# is a multiplication by ``1.0 / pivot``, as in Scalar, except where a pivot
# below about 2^-1024 has no finite reciprocal: the determinant-only
# elimination and the Hessenberg reduction divide by that pivot.  The
# inverse decides singularity on the determinant-only elimination first,
# and its Gauss-Jordan pass keeps the product: with partial pivoting every
# pivot of a block whose max|entry| lies in [0.5, 1) is at most 2^(n-1), so
# a pivot that small puts |det| far below the singularity threshold.


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
        divide = not jordan and not cmath.isfinite(inv_pivot)
        for row_i in w[0 if jordan else col + 1:]:
            if row_i is row_c:
                continue
            if jordan:
                factor = row_i[col]
            else:
                factor = row_i[col] / pivot if divide else row_i[col] * inv_pivot
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
        row_p = w[p]
        pivot = row_p[col]
        inv_pivot = 1.0 / pivot
        divide = not cmath.isfinite(inv_pivot)
        for i in range(col + 2, n):
            row_i = w[i]
            factor = row_i[col] / pivot if divide else row_i[col] * inv_pivot
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


def _ldexp(e: Scalar | complex, exp: int) -> Scalar | complex:
    """``e * 2**exp``: exact for an exact Scalar, and for a ``complex``
    unless a part falls below the normal float range; OverflowError above
    it."""
    if e.__class__ is complex:
        return complex(math.ldexp(e.real, exp), math.ldexp(e.imag, exp))
    return e * (real_scalar(1 << exp, 1) if exp >= 0 else real_scalar(1, 1 << -exp))


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
