"""Reference answers computed apart from logsplit.

Nothing here imports logsplit.  The exact oracle works in ``Fraction``
arithmetic, the float oracle in closed-form 2x2 ``cmath`` algebra, and the
sweep oracle in integers.  Each returns the fields of an output document
that the benchmark compares: kind, c1, candidates and ambiguous (warnings
are always expected to be empty).
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

AMBIGUOUS_CANDIDATES = ((-1, -1), (0, -2))


# ---------------------------------------------------------------------------
# the paper's rules


def character_root(q0, q1) -> int:
    """Root of a 3-puncture character with branch data (q0, q1)."""
    if q0 == 0 and q1 == 0:
        return 0
    return -1 if q0 + q1 <= 1 else -2


def balanced_roots(c1: int) -> tuple[int, int]:
    """Irreducible 2-dimensional pair: roots balanced around c1/2."""
    return (c1 // 2, c1 // 2) if c1 % 2 == 0 else ((c1 + 1) // 2, (c1 - 1) // 2)


def expected(kind: str, c1: int, candidates) -> dict:
    candidates = tuple(tuple(c) for c in candidates)
    for roots in candidates:
        if sum(roots) != c1:
            raise ValueError(f"oracle roots {roots} do not sum to c1 = {c1}")
    return {
        "kind": kind,
        "c1": c1,
        "candidates": candidates,
        "ambiguous": len(candidates) == 2,
    }


def dim2_expected(c1: int, reducible: bool, sub=None, quot=None, decomposable=False) -> dict:
    """Three punctures, dimension 2.  ``sub``/``quot`` are the (q0, q1) of
    the invariant line and of the quotient, read off the construction."""
    if not reducible:
        return expected("ThreeDim2Irreducible", c1, [balanced_roots(c1)])
    r_sub, r_quot = character_root(*sub), character_root(*quot)
    roots = tuple(sorted((r_sub, r_quot), reverse=True))
    if decomposable:
        return expected("ThreeDim2Decomposable", c1, [roots])
    if (r_sub, r_quot) == (-2, 0):
        return expected("ThreeDim2ReducibleAmbiguous", c1, AMBIGUOUS_CANDIDATES)
    return expected("ThreeDim2ReducibleSplit", c1, [roots])


def two_puncture_expected(n: int) -> dict:
    """Two punctures, one n x n generator whose eigenvalues are all off the
    positive real axis: one O(-1) per eigenvalue."""
    return expected("TwoPunctureGeneral", -n, [(-1,) * n])


# ---------------------------------------------------------------------------
# exact 2x2 algebra over Fraction; a matrix is ((a, b), (c, d))


def mul2(x, y):
    (a, b), (c, d) = x
    (e, f), (g, h) = y
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


def det2(x):
    (a, b), (c, d) = x
    return a * d - b * c


def inv2(x):
    (a, b), (c, d) = x
    det = a * d - b * c
    return ((d / det, -b / det), (-c / det, a / det))


def sub2(x, y):
    return tuple(tuple(p - q for p, q in zip(rx, ry)) for rx, ry in zip(x, y))


def rational_disc(x) -> Fraction:
    t = x[0][0] + x[1][1]
    return t * t - 4 * det2(x)


def rational_q_sum(x) -> Fraction:
    """Branch part of the residue trace of a rational 2x2 monodromy, from
    the signs of its trace, determinant and discriminant alone."""
    t = x[0][0] + x[1][1]
    d = det2(x)
    if t * t - 4 * d < 0:
        return Fraction(1)  # conjugate pair: q + (1 - q)
    if d < 0:
        return Fraction(1, 2)  # one positive and one negative root
    return Fraction(0) if t > 0 else Fraction(1)


def rational_q(v: Fraction) -> Fraction:
    return Fraction(0) if v > 0 else Fraction(1, 2)


def _common_line_offsets(tri):
    """For an upper-triangular ((a, b), (0, d)): the x for which (x, 1) is an
    eigenvector.  Returns a Fraction, ``"all"`` or ``None``."""
    (a, b), (_, d) = tri
    if d != a:
        return b / (d - a)
    return "all" if b == 0 else None


def triangular_decomposable(t0, t1) -> bool:
    """Whether an upper-triangular pair has a second common eigenline."""
    x0, x1 = _common_line_offsets(t0), _common_line_offsets(t1)
    if x0 is None or x1 is None:
        return False
    return x0 == "all" or x1 == "all" or x0 == x1


def rational_pair_expected(m0, m1, triangular=None) -> dict:
    """Oracle for a rational pair.  ``triangular`` is the upper-triangular
    pair (t0, t1) it was conjugated from, or None for a generic pair."""
    m_inf = inv2(mul2(m0, m1))
    q_total = rational_q_sum(m0) + rational_q_sum(m1) + rational_q_sum(m_inf)
    if q_total.denominator != 1:
        raise ValueError(f"rational pair with non-integral q-sum {q_total}")
    c1 = -int(q_total)
    reducible = det2(sub2(mul2(m0, m1), mul2(m1, m0))) == 0
    if not reducible:
        return dim2_expected(c1, False)
    if triangular is None:
        raise ValueError("a reducible pair needs its triangular construction")
    t0, t1 = triangular
    sub = (rational_q(t0[0][0]), rational_q(t1[0][0]))
    quot = (rational_q(t0[1][1]), rational_q(t1[1][1]))
    return dim2_expected(c1, True, sub, quot, triangular_decomposable(t0, t1))


def polar_triangular_expected(a0, d0, a1, d1) -> dict:
    """Oracle for upper-triangular exact-polar pairs diag(a0, d0), [[a1, b1],
    [0, d1]] with b1 != 0 and a0 != d0, so that e1 is the only common line.
    Each diagonal entry is an (r, q) pair; only the q's matter."""
    qa0, qd0, qa1, qd1 = a0[1], d0[1], a1[1], d1[1]
    q_inf = ((-(qa0 + qa1)) % 1, (-(qd0 + qd1)) % 1)
    c1 = -int(qa0 + qd0 + qa1 + qd1 + sum(q_inf))
    return dim2_expected(c1, True, (qa0, qa1), (qd0, qd1))


# ---------------------------------------------------------------------------
# float algebra with cmath


def branch_q(z: complex) -> float:
    q = cmath.phase(z) / (2.0 * math.pi)
    return q + 1.0 if q < 0.0 else q


def eig2(x) -> tuple[complex, complex]:
    """Closed-form eigenvalues of a complex 2x2, the larger one first and
    the smaller from the determinant, which avoids cancellation."""
    (a, b), (c, d) = x
    half_t = (a + d) / 2
    root = cmath.sqrt(half_t * half_t - (a * d - b * c))
    big = half_t + root if abs(half_t + root) >= abs(half_t - root) else half_t - root
    return big, (a * d - b * c) / big


def norm2(x) -> float:
    return math.sqrt(sum(abs(e) ** 2 for row in x for e in row))


# ---------------------------------------------------------------------------
# sweep: integer rule on (i, j, steps)


def sweep_root(i: int, j: int, steps: int) -> int:
    if i == 0 and j == 0:
        return 0
    return -1 if i + j <= steps else -2


def lattice_label(i: int, steps: int) -> str:
    if i == 0:
        return "0"
    g = math.gcd(i, steps)
    num, den = i // g, steps // g
    return str(num) if den == 1 else f"{num}/{den}"


def sweep_csv(steps: int) -> str:
    labels = [lattice_label(i, steps) for i in range(steps)]
    return "".join(
        f"{labels[i]},{labels[j]},{sweep_root(i, j, steps)}\n"
        for i in range(steps)
        for j in range(steps)
    )
