import cmath
import math
import random

import pytest
from hypothesis import settings

from logsplit import Matrix, Representation, Scalar

# CI runs pytest with --hypothesis-profile=ci: the same examples on every
# run, and no per-example deadline that a slow runner could miss.
settings.register_profile("ci", derandomize=True, deadline=None, print_blob=True)


def rand_complex(rng: random.Random, radius: float = 1.0) -> complex:
    # Uniform over the disk of the given radius.
    r = radius * math.sqrt(rng.random())
    return r * cmath.exp(2j * math.pi * rng.random())


def rand_matrix(rng: random.Random, n: int, radius: float = 1.0) -> Matrix:
    return Matrix(
        [[Scalar.inexact(rand_complex(rng, radius)) for _ in range(n)] for _ in range(n)]
    )


def rand_invertible(rng: random.Random, n: int, det_floor: float = 1e-6) -> Matrix:
    while True:
        m = rand_matrix(rng, n)
        if abs(m.det()) >= det_floor:
            return m


def stored_form(x) -> bool:
    """Whether ``x`` is a value as the package holds it: an exact Scalar
    or a complex, not a floating Scalar."""
    return (type(x) is Scalar and x.is_exact) or type(x) is complex


def matmul(a: list[list], b: list[list]) -> list[list]:
    """Product of matrices given as nested lists of numbers."""
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def conjugated(s: list[list], s_inv: list[list], m: list[list]) -> list[list]:
    """S M S^-1 on nested lists, with S^-1 given."""
    return matmul(matmul(s, m), s_inv)


def rotated_diag(t: float, angle: float) -> Matrix:
    """Floating R diag(t, 1) R^T for the rotation R through ``angle``."""
    c, s = math.cos(angle), math.sin(angle)
    rot = [[c, -s], [s, c]]
    return Matrix(
        [[complex(sum(rot[i][k] * (t, 1.0)[k] * rot[j][k] for k in range(2))) for j in range(2)]
         for i in range(2)]
    )


def close_to(a: Matrix, b: Matrix, tol: float) -> bool:
    """Whether every entry of ``a`` lies within ``tol * scale`` of ``b``'s,
    ``scale`` being 1 plus the largest entry modulus of either."""
    scale = 1.0 + max(a.max_abs(), b.max_abs())
    return a.n == b.n and all(
        abs(complex(x) - complex(y)) <= tol * scale
        for ra, rb in zip(a.rows, b.rows)
        for x, y in zip(ra, rb)
    )


def frobenius(m: Matrix) -> float:
    return math.sqrt(sum(abs(e) ** 2 for row in m.rows for e in row))


def rand_well_conditioned(rng: random.Random, n: int, cond_bound: float = 1e3) -> Matrix:
    # Frobenius-based estimate dominates the spectral condition number.
    while True:
        s = rand_invertible(rng, n)
        if frobenius(s) * frobenius(s.inverse()) < cond_bound:
            return s


def block_diag(a: Matrix, b: Matrix) -> Matrix:
    n, m = a.n, b.n
    zero = Scalar.exact(0)
    rows = []
    for i in range(n):
        rows.append(list(a.rows[i]) + [zero] * m)
    for i in range(m):
        rows.append([zero] * n + list(b.rows[i]))
    return Matrix(rows)


@pytest.fixture
def golden_pair() -> tuple[Matrix, Matrix]:
    """The embedded modular-group generators with exact rational entries."""
    from fractions import Fraction as F

    gen_t = Matrix([[1, 0], [0, -1]])
    gen_s = Matrix([[F(-1, 2), 1], [F(3, 4), F(1, 2)]])
    return gen_t, gen_s


@pytest.fixture
def golden_rep(golden_pair) -> Representation:
    return Representation(3, golden_pair)
