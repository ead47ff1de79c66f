"""The complex-valued determinant and characteristic-polynomial kernels,
and every operation of a matrix stored as complex rows, against reference
copies of the same algorithms written on Scalars.

On matrices of floating Scalars every Scalar operation is one complex
operation with a complex result, and the kernels divide by multiplying with ``1.0 / pivot`` as
``Scalar.__truediv__`` does, so the results must agree bit for bit.
"""

import math
import random
from operator import mul

import pytest

from logsplit import Matrix, Scalar, char_poly
from logsplit.matrix import (
    SINGULARITY_TOL,
    _det_by_elimination,
    _hessenberg,
    _hessenberg_char_poly,
    below_singularity_threshold,
)
from logsplit.scalar import ONE, ZERO, quotient
from conftest import rand_complex, rand_matrix


def _ref_det(m: Matrix) -> Scalar:
    n = m.n
    work = [list(row) for row in m.rows]
    det = ONE
    for col in range(n):
        pivot_row = max(range(col, n), key=lambda i: abs(work[i][col]))
        if abs(work[pivot_row][col]) == 0.0:
            return ZERO
        if pivot_row != col:
            work[col], work[pivot_row] = work[pivot_row], work[col]
            det = -det
        pivot = work[col][col]
        det = det * pivot
        for i in range(col + 1, n):
            factor = quotient(work[i][col], pivot)
            if factor is ZERO:
                continue
            for j in range(col, n):
                work[i][j] = work[i][j] - factor * work[col][j]
    return det


def _ref_hessenberg(m: Matrix) -> list[list[Scalar]]:
    n = m.n
    w = [list(row) for row in m.rows]
    for col in range(n - 2):
        pivot_row = max(range(col + 1, n), key=lambda i: abs(w[i][col]))
        if abs(w[pivot_row][col]) == 0.0:
            continue
        p = col + 1
        if pivot_row != p:
            w[p], w[pivot_row] = w[pivot_row], w[p]
            for i in range(n):
                w[i][p], w[i][pivot_row] = w[i][pivot_row], w[i][p]
        pivot = w[p][col]
        for i in range(col + 2, n):
            factor = quotient(w[i][col], pivot)
            if factor is ZERO:
                continue
            for j in range(col, n):
                w[i][j] = w[i][j] - factor * w[p][j]
            for k in range(n):
                w[k][p] = w[k][p] + factor * w[k][i]
    return w


def _ref_hessenberg_char_poly(h: list[list[Scalar]]) -> tuple[Scalar, ...]:
    n = len(h)
    polys: list[list[Scalar]] = [[ONE]]
    for k in range(1, n + 1):
        prev = polys[k - 1]
        hkk = h[k - 1][k - 1]
        cur = list(prev) + [ZERO]
        for idx, c in enumerate(prev):
            cur[idx + 1] = cur[idx + 1] - hkk * c
        subdiag_product = ONE
        for i in range(k - 1, 0, -1):
            subdiag_product = subdiag_product * h[i][i - 1]
            if subdiag_product is ZERO:
                break
            term = h[i - 1][k - 1] * subdiag_product
            if term is ZERO:
                continue
            pi = polys[i - 1]
            offset = len(cur) - len(pi)
            for idx, c in enumerate(pi):
                cur[offset + idx] = cur[offset + idx] - term * c
        polys.append(cur)
    return tuple(polys[n])


def _bits(z: complex) -> tuple[str, str]:
    # float.hex tells -0.0 from 0.0, which == does not.
    return z.real.hex(), z.imag.hex()


@pytest.mark.parametrize("n", range(3, 9))
def test_kernels_match_scalar_reference_bit_for_bit(n):
    rng = random.Random(1000 + n)
    for _ in range(25):
        m = rand_matrix(rng, n, radius=10 ** rng.uniform(-3, 3))
        assert _bits(complex(m.det())) == _bits(complex(_ref_det(m)))
        expected = _ref_hessenberg_char_poly(_ref_hessenberg(m))
        assert [_bits(complex(c)) for c in char_poly(m)] == [_bits(complex(c)) for c in expected]


def test_zero_pivot_column_gives_zero_determinant():
    z = Scalar.inexact(0j)
    one = Scalar.inexact(1 + 0j)
    m = Matrix([[z, one, one], [z, one, z], [z, z, one]])
    assert m.det() == 0


def test_triangular_input_reproduces_diagonal_product():
    m = Matrix([[2, 5, 7], [0, 3, 11], [0, 0, 4]])
    coeffs = list(map(complex, char_poly(m)))
    assert coeffs == [1, -9, 26, -24]


# ---------------------------------------------------------------------------
# complex rows against the same arithmetic on floating Scalars


def _inexact_entries(rng: random.Random, n: int, family: int) -> list[list[complex]]:
    """Seeded floating entries with signed zero parts, which a JSON document
    would decode as exact but a library caller can build: in family 0 about
    one entry in four has a real or imaginary part of +-0.0, family 1 holds
    positive reals with imaginary part -0.0, family 2 imaginary values with
    real part +-0.0.  A product of two family-1 entries has imaginary part
    -0.0, and so has their sum, unless it starts from 0j."""
    def entry() -> complex:
        z = rand_complex(rng, 10 ** rng.uniform(-2, 2))
        kind = rng.randrange(8) if family == 0 else family - 1
        if kind == 0:
            return complex(abs(z.real), -0.0)
        if kind == 1:
            return complex(rng.choice((0.0, -0.0)), z.imag)
        return z

    return [[entry() for _ in range(n)] for _ in range(n)]


def _scalars(rows) -> list[list[Scalar]]:
    return [[Scalar.inexact(z) for z in row] for row in rows]


def _small_char_poly(a: list[list[Scalar]]) -> tuple[Scalar, ...]:
    if len(a) == 1:
        return (ONE, -a[0][0])
    (p, q), (r, s) = a
    return (ONE, -(p + s), p * s - q * r)


@pytest.mark.parametrize("n", range(1, 9))
def test_complex_rows_match_floating_scalars_bit_for_bit(n):
    # The references are the parent's arithmetic on floating Scalars: the
    # same kernels, and for the product, dimensions 1-2 and the inverse's
    # identity block the Scalar formulas.
    rng = random.Random(2000 + n)
    for k in range(30):
        rows, other_rows = _inexact_entries(rng, n, k % 3), _inexact_entries(rng, n, k % 3)
        m, other = Matrix(rows), Matrix(other_rows)
        assert all(type(e) is complex for row in m.rows for e in row)
        a, b = _scalars(rows), _scalars(other_rows)
        v = [Scalar.inexact(z) for z in other_rows[0]]
        # A Scalar sum starts from ZERO, which returns the first term itself.
        product = [[sum(map(mul, row, col), ZERO) for col in zip(*b)] for row in a]
        assert [[_bits(e) for e in row] for row in (m @ other).rows] == \
            [[_bits(e) for e in row] for row in product]
        assert [_bits(complex(e)) for e in m.apply(other_rows[0])] == \
            [_bits(sum(map(mul, row, v), ZERO)) for row in a]
        if n <= 2:
            coeffs = _small_char_poly(a)
            det = a[0][0] if n == 1 else coeffs[2]
        else:
            det, coeffs = _det_by_elimination([list(row) for row in a]), \
                _hessenberg_char_poly(_hessenberg([list(row) for row in a]))
        assert _bits(m.det()) == _bits(complex(det))
        assert [_bits(complex(c)) for c in m.char_poly()] == [_bits(complex(c)) for c in coeffs]
        assert m.max_abs().hex() == max(abs(e) for row in a for e in row).hex()
        unit = [[Scalar.inexact(complex(i == j)) for j in range(n)] for i in range(n)]
        work = [row + u for row, u in zip(a, unit)]
        _det_by_elimination(work)
        assert [[_bits(e) for e in row] for row in m.inverse().rows] == \
            [[_bits(complex(e)) for e in row[n:]] for row in work]


class TestSingularityThreshold:
    def test_same_decision_where_the_power_is_finite(self):
        rng = random.Random(3)
        for _ in range(2000):
            n = rng.randint(1, 8)
            max_abs = 10 ** rng.uniform(-5, 30)
            det_abs = 10 ** rng.uniform(-300, 200) if rng.random() < 0.9 else 0.0
            direct = det_abs <= SINGULARITY_TOL * max_abs**n
            assert below_singularity_threshold(det_abs, max_abs, n) == direct

    def test_same_decision_at_every_power_of_two(self):
        # Scaling a matrix by 2^k scales max|entry| by 2^k and |det| by
        # 2^(n k), exactly.  The threshold itself, and the float above it,
        # keep their decisions too, also where max^n leaves the float range.
        rng = random.Random(4)
        for _ in range(300):
            n = rng.randint(1, 8)
            max_abs = rng.uniform(0.5, 1.0)
            edge = SINGULARITY_TOL * max_abs**n
            for det_abs in (edge, math.nextafter(edge, math.inf), edge * rng.uniform(0.5, 2.0)):
                decision = below_singularity_threshold(det_abs, max_abs, n)
                assert decision == (det_abs <= edge)
                for k in range(-960 // n, 1000 // n, 7):  # det 2^(n k) stays normal
                    scaled = below_singularity_threshold(
                        math.ldexp(det_abs, n * k), math.ldexp(max_abs, k), n
                    )
                    assert scaled == decision, (det_abs, max_abs, n, k)

    def test_a_power_beyond_the_float_range_still_decides(self):
        assert below_singularity_threshold(1.0, 1e200, 2)
        assert not below_singularity_threshold(1.4e300, 1.4e154, 2)
        assert below_singularity_threshold(0.0, 1e300, 8)
        assert not below_singularity_threshold(5e-324, 1e-100, 4)
        assert not below_singularity_threshold(math.inf, 1e300, 8)
