"""The complex-valued determinant and characteristic-polynomial kernels
against reference copies of the same algorithms written on Scalars.

On matrices of floating Scalars every Scalar operation is one complex
operation, and the kernels divide by multiplying with ``1.0 / pivot`` as
``Scalar.__truediv__`` does, so the results must agree bit for bit.
"""

import random

import pytest

from logsplit import Matrix, Scalar, char_poly
from logsplit.matrix import SINGULARITY_TOL, below_singularity_threshold
from logsplit.scalar import ONE, ZERO
from conftest import rand_matrix


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
            factor = work[i][col] / pivot
            if factor.is_exact_zero:
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
            factor = w[i][col] / pivot
            if factor.is_exact_zero:
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
            if subdiag_product.is_exact_zero:
                break
            term = h[i - 1][k - 1] * subdiag_product
            if term.is_exact_zero:
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
        assert _bits(m.det().z) == _bits(_ref_det(m).z)
        expected = _ref_hessenberg_char_poly(_ref_hessenberg(m))
        assert [_bits(c.z) for c in char_poly(m)] == [_bits(c.z) for c in expected]


def test_zero_pivot_column_gives_zero_determinant():
    z = Scalar.inexact(0j)
    one = Scalar.inexact(1 + 0j)
    m = Matrix([[z, one, one], [z, one, z], [z, z, one]])
    assert m.det().z == 0


def test_triangular_input_reproduces_diagonal_product():
    m = Matrix([[2, 5, 7], [0, 3, 11], [0, 0, 4]])
    coeffs = [c.z for c in char_poly(m)]
    assert coeffs == [1, -9, 26, -24]


class TestSingularityThreshold:
    def test_same_decision_where_the_power_is_finite(self):
        rng = random.Random(3)
        for _ in range(2000):
            n = rng.randint(1, 8)
            max_abs = 10 ** rng.uniform(-5, 30)
            det_abs = 10 ** rng.uniform(-300, 200) if rng.random() < 0.9 else 0.0
            direct = det_abs <= SINGULARITY_TOL * (1.0 + max_abs) ** n
            assert below_singularity_threshold(det_abs, max_abs, n) == direct

    def test_overflowing_scale_decides_in_logarithms(self):
        assert below_singularity_threshold(1.0, 1e200, 2)
        assert not below_singularity_threshold(1.4e300, 1.4e154, 2)
        assert below_singularity_threshold(0.0, 1e300, 8)
