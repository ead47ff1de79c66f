"""``invariant_lines`` on exact pairs, against a Fraction model.

For an exact real pair the model takes the commutator C = m0 m1 - m1 m0
in Fractions: det C != 0 means no line; otherwise the line is ker C,
from the candidate kernel vector (c01, -c00) or (c00, c10) with the
larger entry, normalized so that its larger slot is the exact ONE.  On
the line m0 and m1 act by lam = row . v, read at that slot, and on the
quotient by det / lam.  A commuting pair's lines are the eigendirections
of a non-scalar member, normalized the same way.  Moduli are compared
exactly.

Each reported value is compared with the model's: the leading slot of a
direction must be the ONE singleton, a zero value the ZERO singleton,
and every other value an exact Scalar equal to the model's Fraction.

The pairs are seeded and invertible: half reducible by construction
(upper-triangular pairs conjugated by a rational S, and commuting pairs),
half random.  Entries are small Fractions, dyadic floats, or zeros, and a
third of the pairs are scaled by powers of two with exponents across
+-600.  Polar pairs omega A, eta B with real A and B take the Scalar
commutator; their lines are those of (A, B), with the eigenvalues scaled
by omega and eta.
"""

import json
import math
import random
from fractions import Fraction

import pytest

from logsplit import (
    ClassificationKind,
    Matrix,
    Representation,
    Scalar,
    SplittingType,
    classify,
    invariant_lines,
)
from logsplit.cli import EXIT_OK, main
from logsplit.scalar import ONE, ZERO, is_exact

F = Fraction

PAIRS = 20000


# ---------------------------------------------------------------------------
# the Fraction model


def _mul(x, y):
    return [[x[i][0] * y[0][j] + x[i][1] * y[1][j] for j in range(2)] for i in range(2)]


def _det(m):
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def _inverse(m):
    d = _det(m)
    return [[m[1][1] / d, -m[0][1] / d], [-m[1][0] / d, m[0][0] / d]]


def _kernel(u1, u2):
    """(lead, v): the candidate with the larger entry, scaled so that its
    larger slot ``lead`` is 1; None when both vanish."""
    v = u1 if max(map(abs, u1)) >= max(map(abs, u2)) else u2
    if max(map(abs, v)) == 0:
        return None
    lead = 0 if abs(v[0]) >= abs(v[1]) else 1
    return lead, tuple(x / v[lead] for x in v)


def _line(m0, m1, kernel):
    lead, v = kernel
    lams = tuple(m[lead][0] * v[0] + m[lead][1] * v[1] for m in (m0, m1))
    quotients = tuple(_det(m) / lam for m, lam in zip((m0, m1), lams))
    return lead, v, lams, quotients


def _eigen_kernels(m):
    """The kernels of m - mu I, one per distinct eigenvalue mu; None when
    an eigenvalue is irrational."""
    (a, b), (c, d) = m
    tr, det = a + d, _det(m)
    disc = tr * tr - 4 * det
    if disc < 0:
        return None
    n, d_ = math.isqrt(disc.numerator), math.isqrt(disc.denominator)
    if F(n * n, d_ * d_) != disc:
        return None
    mus = {(tr + F(n, d_)) / 2, (tr - F(n, d_)) / 2}
    return [_kernel((b, mu - a), (mu - d, c)) for mu in mus]


def _is_scalar(m):
    return m[0][1] == 0 and m[1][0] == 0 and m[0][0] == m[1][1]


def model(m0, m1):
    """(lines, decomposable) of the Fraction pair (m0, m1); None for a
    commuting pair with irrational eigenvalues, whose directions are not
    rational."""
    c = [[x - y for x, y in zip(r, s)] for r, s in zip(_mul(m0, m1), _mul(m1, m0))]
    (c00, c01), (c10, _) = c
    if _det(c) != 0:
        return [], False
    if c00 or c01 or c10:
        return [_line(m0, m1, _kernel((c01, -c00), (c00, c10)))], False
    if _is_scalar(m0) and _is_scalar(m1):
        axes = [(0, (F(1), F(0))), (1, (F(0), F(1)))]
        return [_line(m0, m1, k) for k in axes], True
    kernels = _eigen_kernels(m1 if _is_scalar(m0) else m0)
    if kernels is None:
        return None
    return [_line(m0, m1, k) for k in kernels], len(kernels) >= 2


# ---------------------------------------------------------------------------
# comparison


def _value_matches(x, expected, scale=ONE):
    """Whether the reported ``x`` is ``scale * expected``: the ZERO
    singleton for 0, else an exact Scalar that is neither singleton."""
    if expected == 0:
        return x is ZERO
    return (
        x is not ONE and x is not ZERO and is_exact(x)
        and x == scale * Scalar.exact(expected)
    )


def _line_matches(line, expected, scales=(ONE, ONE)):
    lead, v, lams, quotients = expected
    other = 1 - lead
    if line.direction[lead] is not ONE or not _value_matches(line.direction[other], v[other]):
        return False
    return all(
        _value_matches(x, e, s)
        for got, want in ((line.sub_eigen_pair, lams), (line.quotient_eigen_pair, quotients))
        for x, e, s in zip(got, want, scales)
    )


def _report_matches(report, expected, scales=(ONE, ONE)):
    lines, decomposable = expected
    if report.decomposable is not decomposable or len(report.lines) != len(lines):
        return False
    # A commuting pair's lines follow its eigenvalue order; any order may match.
    orders = [lines] if len(lines) < 2 else [lines, lines[::-1]]
    return any(
        all(_line_matches(got, want, scales) for got, want in zip(report.lines, order))
        for order in orders
    )


# ---------------------------------------------------------------------------
# seeded pairs
#
# A matrix is generated as (N, l), integer entries N over one denominator
# l, so that conjugating costs integer products; the model gets Fractions.


def _adjugate(n):
    return [[n[1][1], -n[0][1]], [-n[1][0], n[0][0]]]


class _Pairs:
    def __init__(self, rng, dyadic):
        self.rng = rng
        self.dyadic = dyadic

    def ratio(self):
        """(numerator, denominator): +-a/b with a, b in 1..9, b a power of
        two when dyadic."""
        rng = self.rng
        d = rng.choice((1, 2, 4, 8)) if self.dyadic else rng.randint(1, 9)
        return rng.choice((-1, 1)) * rng.randint(1, 9), d

    def matrix(self, kinds):
        """(N, l) with entries by ``kinds``, one letter per entry in row
        order: r a ratio, e a ratio or (15%) zero, 0 zero."""
        nums, dens = [], []
        for k in kinds:
            n, d = self.ratio()
            zero = k == "0" or k == "e" and self.rng.random() < 0.15
            nums.append(0 if zero else n)
            dens.append(d)
        ell = math.lcm(*dens)
        a, b, c, d = (n * (ell // d) for n, d in zip(nums, dens))
        return [[a, b], [c, d]], ell

    def invertible(self, kinds):
        while True:
            m = self.matrix(kinds)
            if _det(m[0]):
                return m

    def conjugator(self):
        """Integer N_S of an invertible S; shears keep dyadic entries dyadic."""
        if self.rng.random() < 0.1:
            return [[1, 0], [0, 1]]
        if self.dyadic:
            (sn, sd), (tn, td) = self.ratio(), self.ratio()
            return _mul([[sd, sn], [0, sd]], [[td, 0], [tn, td]])
        return self.invertible("eeee")[0]

    def conjugated(self, *ts):
        """S T S^-1 = N_S N_T adj(N_S) / (l_T det N_S) for each (N_T, l_T)."""
        s = self.conjugator()
        adj, det = _adjugate(s), _det(s)
        return [(_mul(_mul(s, n), adj), ell * det) for n, ell in ts]

    def commuting(self):
        """T and alpha T + beta I, T diagonal, a Jordan block or scalar."""
        rng = self.rng
        (pn, pd), (qn, qd) = self.ratio(), self.ratio()
        kind = rng.randrange(3)
        if kind == 0:
            t, ell = [[pn * qd, 0], [0, qn * pd]], pd * qd
        else:
            t, ell = [[pn, pd if kind == 1 else 0], [0, pn]], pd
        while True:
            (an, ad), (bn, bd) = self.ratio(), self.ratio()
            an *= rng.random() >= 0.2
            bn *= rng.random() >= 0.3
            t1 = [[an * bd * x + (bn * ad * ell if i == j else 0) for j, x in enumerate(row)]
                  for i, row in enumerate(t)]
            if _det(t1):
                return self.conjugated((t, ell), (t1, ad * bd * ell))

    def pair(self, reducible):
        if not reducible:
            return self.invertible("eeee"), self.invertible("eeee")
        if self.rng.random() < 0.15:
            return self.commuting()
        return self.conjugated(self.matrix("re0r"), self.matrix("re0r"))


def _fractions(m, e):
    """The Fraction matrix of (N, l) times 2**e."""
    n, ell = m
    if e >= 0:
        return [[F(x << e, ell) for x in row] for row in n]
    return [[F(x, ell << -e) for x in row] for row in n]


def _stored(rng, m):
    """Dyadic entries as floats half of the time, the rest as Fractions."""
    def value(x):
        d = x.denominator
        if d & (d - 1) or rng.random() < 0.5:
            return x
        f = float(x)
        assert f.as_integer_ratio() == (x.numerator, d)
        return f

    return Matrix([[value(x) for x in row] for row in m])


def seeded_pairs(seed, count):
    """``count`` pairs (m0, m1, model answer) of Fractions, every other
    one reducible by construction."""
    rng = random.Random(seed)
    k = 0
    while k < count:
        pairs = _Pairs(rng, dyadic=rng.random() < 0.5)
        g0, g1 = pairs.pair(reducible=k % 2 == 0)
        e0 = e1 = 0
        if rng.random() < 1 / 3:
            # Exponents across +-600, with |e0 + e1| <= 300 so that C's
            # entries keep normal float moduli.
            e0 = rng.randint(-600, 600)
            e1 = rng.randint(max(-600, -300 - e0), min(600, 300 - e0))
        m0, m1 = _fractions(g0, e0), _fractions(g1, e1)
        expected = model(m0, m1)
        if expected is not None:
            yield m0, m1, expected
            k += 1


# ---------------------------------------------------------------------------
# tests


def test_exact_real_pairs_match_the_fraction_model():
    store = random.Random(27)
    kinds = {"irreducible": 0, "one line": 0, "decomposable": 0}
    for m0, m1, expected in seeded_pairs(28, PAIRS):
        report = invariant_lines(_stored(store, m0), _stored(store, m1))
        assert _report_matches(report, expected), (m0, m1, report, expected)
        lines, decomposable = expected
        kinds["decomposable" if decomposable else "one line" if lines else "irreducible"] += 1
    assert min(kinds.values()) >= 500, kinds
    assert kinds["irreducible"] + kinds["one line"] + kinds["decomposable"] == PAIRS


def test_polar_pairs_take_the_scalar_commutator_with_the_same_lines():
    rng = random.Random(30)
    turns = [F(k, 12) for k in range(12) if k not in (0, 6)]
    checked = 0
    for m0, m1, expected in seeded_pairs(31, 600):
        if not expected[0] or _mul(m0, m1) == _mul(m1, m0):
            continue  # irreducible, or commuting: no line of the commutator
        omega, eta = (Scalar.polar(rng.choice((F(1, 2), 1, 3)), rng.choice(turns)) for _ in "ab")
        p0 = Matrix([[omega * Scalar.exact(x) for x in row] for row in m0])
        p1 = Matrix([[eta * Scalar.exact(x) for x in row] for row in m1])
        assert all(map(is_exact, p0.rows[0] + p0.rows[1] + p1.rows[0] + p1.rows[1]))
        report = invariant_lines(p0, p1)
        assert _report_matches(report, expected, (omega, eta)), (m0, m1, report)
        checked += 1
    assert checked >= 100


# Entries 2^-500, 2^-500 (1 + 2^-52) and 2^-600: the commutator entry
# f (a - d) = -2^-1152 is exactly nonzero, but its float modulus is 0.0.
UNDERFLOW_DOCUMENT = (
    '{"punctures": 3, "dim": 2, "generators": [[[3.054936363499605e-151, 0], '
    '[0, 3.0549363634996054e-151]], [[1, 2.409919865102884e-181], [0, 2]]]}'
)
_UNDERFLOW = json.loads(UNDERFLOW_DOCUMENT)["generators"]

#: A line (1, x) with x = 1 + 2^-60: |v0| and |v1| round to one float.
_X = 1 + F(1, 2**60)
_CLOSE_MODULI = (
    [[F(2), F(1)], [F(0), F(3)]],
    [[F(5), F(1)], [F(0), F(7)]],
)


def _close_moduli_pair():
    s, s_inv = [[F(1), F(0)], [_X, F(1)]], [[F(1), F(0)], [-_X, F(1)]]
    return [_mul(_mul(s, t), s_inv) for t in _CLOSE_MODULI]


def _polar(m, omega):
    return Matrix([[omega * Scalar.exact(x) for x in row] for row in m])


@pytest.mark.parametrize(
    "pair",
    [
        [[[F(x) for x in row] for row in m] for m in _UNDERFLOW],
        _close_moduli_pair(),
    ],
    ids=["underflow", "close-moduli"],
)
def test_kernel_directions_compare_exact_moduli(pair):
    m0, m1 = pair
    expected = model(m0, m1)
    assert len(expected[0]) == 1
    assert _report_matches(invariant_lines(Matrix(m0), Matrix(m1)), expected)
    # The Scalar commutator, on the same pair turned by omega and eta.
    omega, eta = Scalar.polar(1, F(1, 4)), Scalar.polar(2, F(1, 3))
    report = invariant_lines(_polar(m0, omega), _polar(m1, eta))
    assert _report_matches(report, expected, (omega, eta))


def test_the_underflow_document_is_answered(tmp_path, capsys):
    gens = tuple(Matrix(m) for m in _UNDERFLOW)
    report = classify(Representation(3, gens))
    assert report.kind is ClassificationKind.THREE_DIM2_REDUCIBLE_SPLIT
    assert (report.c1, report.candidates, report.warnings) == (0, (SplittingType((0, 0)),), ())
    path = tmp_path / "underflow.json"
    path.write_text(UNDERFLOW_DOCUMENT, encoding="utf-8")
    assert main(["classify", str(path)]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert (out["kind"], out["c1"], out["candidates"]) == ("ThreeDim2ReducibleSplit", 0, [[0, 0]])
