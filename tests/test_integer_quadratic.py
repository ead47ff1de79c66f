"""The exact real 2x2 solve on cleared integers, against the Scalar route.

An exact real 2x2 matrix is solved from its trace and determinant on the
integers of its cleared entries, and the product m0 m1 at three punctures
from the traces and determinants of m0 and m1, without forming it.  The
reference kept here is the route they replace: ``char_poly`` in Scalar
arithmetic, its coefficients read back as int pairs, and the Scalar front
end of the exact quadratic, with the product formed by ``@``.  Both must
give the same EigenData, field for field and bit for bit, and the same
errors.
"""

import math
import random
from fractions import Fraction
from math import gcd, isqrt

import pytest

from logsplit import Matrix, Representation, Scalar, ZeroEigenvalue, build, eigenvalues
from logsplit.eigen import (
    DEFAULT_CLUSTER_TOL,
    EigenData,
    _SIXTHS,
    _THIRDS,
    _eigen_data,
    _from_diagonal,
    product_eigenvalues,
    reciprocal_eigenvalues,
)
from logsplit.scalar import real_ratio, real_scalar

F = Fraction
PAIRS = 20_000


# ---------------------------------------------------------------------------
# the reference: Scalar char_poly and the Scalar front end of the solve


def _reference_quadratic(b_s, c_s):
    """Roots of x^2 + b x + c for exact real Scalars b and c, as the solve
    took them before it read int pairs itself; None where a float of the
    coefficients leaves the range, which no drawn matrix reaches."""
    b, c = real_ratio(b_s), real_ratio(c_s)
    if b is None or c is None:
        return None
    (bn, bd), (cn, cd) = b, c
    if cn == 0:
        raise ZeroEigenvalue("exact zero eigenvalue; monodromy not invertible")
    dn, dd = bn * bn * cd - 4 * cn * bd * bd, bd * bd * cd
    g = gcd(dn, dd)
    dn, dd = dn // g, dd // g
    if dn == 0:
        return [(real_scalar(-bn, 2 * bd), 2)]
    if dn > 0:
        s, t = isqrt(dn), isqrt(dd)
        if s * s == dn and t * t == dd:
            return [
                (real_scalar(s * bd - bn * t, 2 * bd * t), 1),
                (real_scalar(-s * bd - bn * t, 2 * bd * t), 1),
            ]
    try:
        b_f, c_f, disc_f = bn / bd, cn / cd, dn / dd
    except OverflowError:
        return None
    if c_f == 0.0:
        return None
    if dn > 0:
        s_f = math.sqrt(disc_f)
        t = (-b_f - s_f) / 2 if bn >= 0 else (-b_f + s_f) / 2
        other = c_f / t
        hi, lo = max(t, other), min(t, other)
        if not all(0.0 < abs(v) < math.inf for v in (hi, lo)):
            return None
        sign_hi = 1 if (bn <= 0 or cn < 0) else -1
        sign_lo = 1 if (bn < 0 and cn > 0) else -1
        return [
            (Scalar(None, abs(hi).as_integer_ratio(), (0, 1) if sign_hi > 0 else (1, 2)), 1),
            (Scalar(None, abs(lo).as_integer_ratio(), (0, 1) if sign_lo > 0 else (1, 2)), 1),
        ]
    y = math.sqrt(-disc_f) / 2
    a, e = isqrt(cn), isqrt(cd)
    square = a * a == cn and e * e == cd
    if bn == 0:
        if not square:
            a, e = math.sqrt(c_f).as_integer_ratio()
        turns = ((1, 4), (3, 4))
    elif square and -bn * e == a * bd:
        turns = _SIXTHS
    elif square and bn * e == a * bd:
        turns = _THIRDS
    else:
        return [(complex(-b_f / 2, y), 1), (complex(-b_f / 2, -y), 1)]
    return [(Scalar(None, (a, e), turns[0]), 1), (Scalar(None, (a, e), turns[1]), 1)]


def _reference_eigenvalues(m, tol=DEFAULT_CLUSTER_TOL):
    if m.is_upper_triangular() or m.is_lower_triangular():
        return _from_diagonal(m.diagonal(), tol)
    coeffs = m.char_poly()
    roots = _reference_quadratic(coeffs[1], coeffs[2])
    assert roots is not None, m
    return _eigen_data(roots, tol)


def _reference_solves(m0, m1):
    """The EigenData of m0, m1 and m0 @ m1, with build's names on an error."""
    def named(name, m):
        try:
            return _reference_eigenvalues(m)
        except ZeroEigenvalue as exc:
            raise ZeroEigenvalue(f"{name}: {exc}") from None

    return named("generator 0", m0), named("generator 1", m1), named("product m0·m1", m0 @ m1)


def _build(m0, m1):
    return build(Representation(3, (m0, m1))).local_eigen


# ---------------------------------------------------------------------------
# comparing outcomes field for field


def _fields(data):
    """Every field of EigenData, floats by ``float.hex``."""
    pairs = []
    for p in data.pairs:
        v = p.value
        z = v.z
        q = (type(p.q).__name__, p.q.hex() if type(p.q) is float else p.q)
        pairs.append((v.is_exact, v._r, v._q, z.real.hex(), z.imag.hex(),
                      p.multiplicity, q, p.ln_r.hex()))
    return pairs, data.warnings


def _outcome(solve, *args):
    try:
        result = solve(*args)
    except ZeroEigenvalue as exc:
        return ("ZeroEigenvalue", str(exc))
    if isinstance(result, EigenData):
        return _fields(result)
    return [_fields(data) for data in result]


# ---------------------------------------------------------------------------
# drawing exact real pairs


class _Draw:
    def __init__(self, rng):
        self.rng = rng

    def ratio(self):
        """A nonzero Fraction, its numerator and denominator of up to 60
        bits, most of them small."""
        rng = self.rng
        bits = rng.choice((2, 3, 4, 8, 20, 60))
        n = rng.randint(1, 2**bits) * rng.choice((-1, 1))
        return F(n, rng.randint(1, 2 ** rng.choice((0, 1, 3, 8, 20, 60))))

    def general(self):
        return [[self.ratio(), self.ratio()], [self.ratio(), self.ratio()]]

    def with_trace_det(self, trace, det):
        """[[a, b], [c, trace - a]] with determinant ``det``, b != 0."""
        a, b = self.ratio(), self.ratio()
        return [[a, b], [(a * (trace - a) - det) / b, trace - a]]

    def matrix(self, kind):
        rng = self.rng
        if kind == "general":
            return self.general()
        if kind == "upper":
            return [[self.ratio(), self.ratio()], [0, self.ratio()]]
        if kind == "lower":
            return [[self.ratio(), 0], [self.ratio(), self.ratio()]]
        if kind == "scalar":
            x = self.ratio()
            return [[x, 0], [0, x]]
        if kind == "double":
            lam = self.ratio()
            return self.with_trace_det(2 * lam, lam * lam)
        if kind == "zero-trace":
            return self.with_trace_det(F(0), self.ratio())
        if kind == "niven":
            # r e(+-1/3) (trace -r), r e(+-1/6) (trace r), r e(+-1/4)
            # (trace 0), each with det r^2.
            r = abs(self.ratio())
            return self.with_trace_det(rng.choice((-r, r, F(0))), r * r)
        if kind == "singular":
            a, b, k = self.ratio(), self.ratio(), self.ratio()
            return [[a, b], [k * a, k * b]]
        raise AssertionError(kind)

    def member(self):
        """A matrix of a random kind, 1 in 50 singular."""
        rng = self.rng
        if rng.random() < 0.02:
            return self.matrix("singular")
        return self.matrix(rng.choice(("general", "general", "upper", "lower", "scalar",
                                       "double", "zero-trace", "niven")))

    def pair(self):
        rng = self.rng
        m0 = self.member()
        relation = rng.random()
        if relation < 0.1:
            # m0 m1 triangular: m1 = m0^-1 U, m0 invertible.
            (a, b), (c, d) = m0
            det = a * d - b * c
            if det:
                inv = [[d / det, -b / det], [-c / det, a / det]]
                u = self.matrix(rng.choice(("upper", "lower")))
                return m0, [[sum(inv[i][k] * u[k][j] for k in range(2)) for j in range(2)]
                            for i in range(2)]
        if relation < 0.2:
            # m0 m1 = r m0^2 or with a Niven angle: m1 a multiple of m0.
            x = self.ratio()
            return m0, [[x * e for e in row] for row in m0]
        return m0, self.member()


def seeded_pairs(seed, count):
    draw = _Draw(random.Random(seed))
    for _ in range(count):
        m0, m1 = draw.pair()
        yield Matrix(m0), Matrix(m1)


def _kind(pairs):
    """Which route of the solve ``_fields`` pairs came from."""
    if not all(exact for exact, *_ in pairs):
        return "complex"
    if any(q[1] in (3, 4, 6) for _, _, q, *_ in pairs):
        return "niven"
    return "double" if pairs[0][5] == 2 else "real"


# ---------------------------------------------------------------------------
# tests


def test_the_integer_route_matches_the_scalar_route():
    seen = {"real": 0, "niven": 0, "double": 0, "complex": 0, "error": 0}
    for m0, m1 in seeded_pairs(33, PAIRS):
        try:
            solves = _reference_solves(m0, m1)
        except ZeroEigenvalue as exc:
            assert _outcome(_build, m0, m1) == ("ZeroEigenvalue", str(exc)), (m0, m1)
            seen["error"] += 1
            continue
        want = [_fields(data) for data in solves]
        at_infinity = _fields(reciprocal_eigenvalues(solves[2]))
        assert _outcome(_build, m0, m1) == want[:2] + [at_infinity], (m0, m1)
        assert _outcome(product_eigenvalues, m0, m1) == want[2], (m0, m1)
        for pairs, _ in want:
            seen[_kind(pairs)] += 1
    assert min(seen.values()) >= 400, seen


@pytest.mark.parametrize(
    "m0, m1, message",
    [
        ([[1, 2], [2, 4]], [[1, 1], [0, 1]], "generator 0: exact zero eigenvalue"),
        ([[1, 1], [0, 1]], [[F(1, 3), 1], [F(1, 3), 1]], "generator 1: exact zero eigenvalue"),
    ],
)
def test_a_singular_generator_is_named(m0, m1, message):
    for solve in (_reference_solves, _build):
        with pytest.raises(ZeroEigenvalue) as info:
            solve(Matrix(m0), Matrix(m1))
        assert str(info.value) == message + "; monodromy not invertible"


def test_a_singular_product_raises_as_its_formed_solve():
    # Not reachable from build, where the generators are solved first.
    m0, m1 = Matrix([[1, 2], [2, 4]]), Matrix([[2, 1], [1, 3]])
    assert _outcome(product_eigenvalues, m0, m1) == _outcome(eigenvalues, m0 @ m1)
    m0 = Matrix([[1, 2], [3, 6]])
    assert _outcome(product_eigenvalues, m0, m1) == _outcome(eigenvalues, m0 @ m1)


def test_a_triangular_product_is_read_off_its_diagonal():
    # m0 m1 = [[1, 1], [0, 1 + 2^-60]] from two full generators: the
    # diagonal's order stands where the quadratic's roots would come
    # larger first, and the two moduli round to one float.
    m0 = Matrix([[2, 1], [1, 1]])
    m1 = Matrix([[1, -F(1, 2**60)], [-1, 1 + F(2, 2**60)]])
    product = m0 @ m1
    assert product == Matrix([[1, 1], [0, 1 + F(1, 2**60)]])
    got = _outcome(product_eigenvalues, m0, m1)
    assert got == _outcome(_reference_eigenvalues, product)
    assert [r for _, r, *_ in got[0]] == [(1, 1), (2**60 + 1, 2**60)]


def test_an_exact_real_product_of_imaginary_factors_matches_the_integer_route():
    # i A times -i B is the exact real A B, but neither factor is real, so
    # the product is formed and solved from its char_poly: the EigenData
    # and errors are those of the integer route on A and B.
    i = Scalar.exact(0, 1)
    seen = 0
    for a, b in seeded_pairs(37, 500):
        m0 = Matrix([[i * e for e in row] for row in a.rows])
        m1 = Matrix([[-i * e for e in row] for row in b.rows])
        assert m0 @ m1 == a @ b
        assert _outcome(product_eigenvalues, m0, m1) == _outcome(product_eigenvalues, a, b)
        seen += not a.is_upper_triangular() and not b.is_upper_triangular()
    assert seen >= 200


@pytest.mark.parametrize(
    "rows, calls",
    [
        ([[F(1, 2), 3], [0, 5]], 0),
        ([[F(1, 2), 0], [3, 5]], 0),
        ([[F(1, 2), 1], [3, 5]], 1),
    ],
)
def test_eigenvalues_clears_only_past_the_triangular_read_off(monkeypatch, rows, calls):
    # A triangular matrix is read off its diagonal, which never reads the
    # integer form, so the public eigenvalues does not clear it.
    from logsplit import eigen

    seen = []
    real = eigen.cleared

    def counting(entries):
        seen.append(entries)
        return real(entries)

    monkeypatch.setattr(eigen, "cleared", counting)
    eigenvalues(Matrix(rows))
    assert len(seen) == calls
