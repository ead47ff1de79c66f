"""Reducibility of 2x2 pairs: exact input gives exact decisions that do not
change under conjugation, and floating input near the diagonal
q0 + q1 = 1 gives the answer with a warning."""

import cmath
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from logsplit import (
    BRANCH_BOUNDARY,
    EIGENVALUE_UNCERTAIN,
    ClassificationKind,
    InternalInconsistency,
    REDUCIBILITY_UNCERTAIN,
    LogSplitError,
    Matrix,
    Representation,
    Scalar,
    classify,
    conjugate,
    invariant_lines,
    parse_input_document,
)
from logsplit.cli import CLI_DEFAULT_TOL
from logsplit.scalar import ZERO

try:
    import sympy
except ImportError:  # the oracle part of the property test is skipped
    sympy = None

F = Fraction

#: The exact conjugator of the exactness repro.
S = Matrix([[1, F(1, 3)], [F(2, 7), F(5, 3)]])


def _answer(rep: Representation):
    try:
        report = classify(rep)
    except LogSplitError as exc:
        return type(exc).__name__
    return report.kind, report.c1, tuple(c.roots for c in report.candidates)


def _random_ratio(rng: random.Random) -> Fraction:
    return F(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))


ratios = st.builds(
    lambda sign, a, b: F(sign * a, b),
    st.sampled_from((-1, 1)),
    st.integers(1, 9),
    st.integers(1, 9),
)
entries = st.one_of(st.just(F(0)), ratios)


@st.composite
def nonsingular(draw):
    """An invertible rational 2x2 by construction, as P L D U (Bruhat):
    L and U unit triangular with entries that are 0 half the time, D
    diagonal and nonzero, P the identity or the row swap.  Every
    invertible rational 2x2 has this form."""
    low, up = draw(entries), draw(entries)
    p, q = draw(ratios), draw(ratios)
    rows = [[p, p * up], [low * p, low * p * up + q]]
    return rows[::-1] if draw(st.booleans()) else rows


@st.composite
def rational_pairs(draw):
    """Upper-triangular pairs (always reducible) or generic pairs."""
    if draw(st.booleans()):
        return [[[draw(ratios), draw(entries)], [F(0), draw(ratios)]] for _ in range(2)]
    return [draw(nonsingular()) for _ in range(2)]


@st.composite
def conjugators(draw):
    return Matrix(draw(nonsingular()))


def _sympy_reducible(gens) -> bool:
    """Independent oracle: an exact eigenvector of m0 that m1 preserves."""
    m0, m1 = (sympy.Matrix(g) for g in gens)
    if m0.is_diagonal() and m0[0, 0] == m0[1, 1]:
        return True  # every line is m0-invariant; m1 has an eigenvector
    for _, _, vectors in m0.eigenvects():
        for v in vectors:
            w = m1 * v
            if sympy.simplify(v[0] * w[1] - v[1] * w[0]) == 0:
                return True
    return False


@settings(max_examples=60, deadline=None)
@given(rational_pairs(), conjugators())
def test_exact_classification_is_conjugation_invariant(gens, s):
    rep = Representation(3, tuple(Matrix(g) for g in gens))
    answer = _answer(rep)
    assert _answer(conjugate(rep, s)) == answer
    if sympy is not None and isinstance(answer, tuple):
        irreducible = answer[0] is ClassificationKind.THREE_DIM2_IRREDUCIBLE
        assert _sympy_reducible(gens) == (not irreducible)


def test_conjugated_reducible_rational_pairs_keep_their_answer():
    # With rounded moduli, conjugation by S turns most of these reducible
    # pairs irreducible without a warning.
    rng = random.Random(7)
    s_inv = S.inverse()
    changed = 0
    for _ in range(2000):
        gens = tuple(
            Matrix([[_random_ratio(rng), _random_ratio(rng)], [0, _random_ratio(rng)]])
            for _ in range(2)
        )
        conjugated = tuple(S @ g @ s_inv for g in gens)
        changed += _answer(Representation(3, gens)) != _answer(Representation(3, conjugated))
    assert changed == 0


@pytest.mark.parametrize(
    ("alpha", "beta", "roots"),
    [(2, 3, (0, 0)), (-5, 1, (-1, -1)), (1, -2, (0, -1)), (0, -1, (-1, -1))],
)
def test_commuting_pairs_with_irrational_eigenvalues(alpha, beta, roots):
    # A has eigenvalues (3 +- sqrt 5)/2; B = alpha I + beta A commutes with it.
    a = Matrix([[1, 1], [1, 2]])
    b = Matrix([[alpha + beta, beta], [beta, alpha + 2 * beta]])
    rep = Representation(3, (a, b))
    expected = (ClassificationKind.THREE_DIM2_DECOMPOSABLE, sum(roots), (roots,))
    assert _answer(rep) == expected
    for s in (S, Matrix([[2, -1], [F(1, 5), 3]])):
        assert _answer(conjugate(rep, s)) == expected


def test_badly_scaled_float_pair_stays_irreducible():
    # Its commutator determinant is about 5e24 in exact arithmetic; a
    # commutator threshold scaled by (|m0| |m1|)^2 would call it zero.
    doc = parse_input_document(
        '{"punctures": 3, "dim": 2, "generators": ['
        '[[0.5, 0], [-1, {"re": -2.5e6, "im": 2.5e8}]], '
        '[[{"re": 6.3e8, "im": 2.5e6}, 3.3e7], [0.5, -1]]]}'
    )
    m0, m1 = doc.generators
    assert invariant_lines(m0, m1, CLI_DEFAULT_TOL).lines == ()
    report = classify(doc.representation(), CLI_DEFAULT_TOL)
    assert report.kind is ClassificationKind.THREE_DIM2_IRREDUCIBLE



@pytest.mark.parametrize("eta", [0.0, 1e-20, 1e-12])
def test_noisy_triangular_float_pair_is_reducible(eta):
    # The lower-left noise is far below tol, so the line (1, 0) is shared.
    # det C is then about |c01| |c10|, tiny but large against any rounding
    # bound; a threshold relative to the pair, and to C, sees the line.
    noise = {"re": eta, "im": eta}
    text = json.dumps({
        "punctures": 3,
        "dim": 2,
        "generators": [[[2, 1], [noise, 3]], [[5, {"re": 1, "im": 1}], [noise, 7]]],
    })
    report = classify(parse_input_document(text).representation(), CLI_DEFAULT_TOL)
    assert report.kind is ClassificationKind.THREE_DIM2_REDUCIBLE_SPLIT
    assert (report.c1, report.candidates[0].roots) == (0, (0, 0))


def test_near_scalar_member_does_not_supply_foreign_lines():
    # m0 is within 4.2e-9 of scalar but not scalar at tol.  C = e [[1, 1],
    # [0, -1]], e = 3e-9 (1 + i), is far above rounding, and det C = -e^2
    # is small against the pair (|tr(m0 m1 m0^-1 m1^-1) - 2| = 3.6e-18) but
    # not against C: C is not near rank one, so its candidate line,
    # ker C = (1, -1), which m1 maps to (1, -2), is no line.
    m0 = Matrix([[1, 3e-9 * (1 + 1j)], [0, 1]])
    m1 = Matrix([[2, 1], [1, 3]])
    assert invariant_lines(m0, m1, 1e-9).lines == ()


def _near_diagonal_document(rng: random.Random):
    """A float pair whose invariant line carries the character
    (e(q), e(1 - q)), on the diagonal q0 + q1 = 1, conjugated by a random
    complex matrix; returns the document and its expected roots."""

    def e(q, r=1.0):
        return r * cmath.exp(2j * math.pi * q)

    def cx():
        return complex(rng.uniform(-1, 1), rng.uniform(-1, 1))

    def mul(x, y):
        return [[sum(x[i][k] * y[k][j] for k in range(2)) for j in range(2)] for i in range(2)]

    q = rng.uniform(0.05, 0.95)
    while True:
        quot = (rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95))
        if abs(sum(quot) - 1) > 0.05:
            break
    s = [[1 + 0.5 * cx(), 0.5 * cx()], [0.5 * cx(), 1 + 0.5 * cx()]]
    det = s[0][0] * s[1][1] - s[0][1] * s[1][0]
    s_inv = [[s[1][1] / det, -s[0][1] / det], [-s[1][0] / det, s[0][0] / det]]
    triangular = (
        [[e(q), cx()], [0j, e(quot[0], rng.uniform(0.5, 2))]],
        [[e(1 - q), cx()], [0j, e(quot[1], rng.uniform(0.5, 2))]],
    )
    gens = [mul(mul(s, t), s_inv) for t in triangular]
    text = json.dumps({
        "punctures": 3,
        "dim": 2,
        "generators": [[[{"re": z.real, "im": z.imag} for z in row] for row in g] for g in gens],
    })
    return text, (-1, -1 if sum(quot) <= 1 else -2)


def test_float_sub_character_on_the_diagonal():
    # The sub character sums to 1 up to rounding, so its root (-1) cannot
    # be read from q0 + q1; c1 fixes it, and the eigenvalue 1 at infinity
    # carries the BranchBoundary warning.
    rng = random.Random(5)
    for _ in range(200):
        text, roots = _near_diagonal_document(rng)
        report = classify(parse_input_document(text).representation(), CLI_DEFAULT_TOL)
        assert report.kind is ClassificationKind.THREE_DIM2_REDUCIBLE_SPLIT
        assert report.c1 == sum(roots)
        assert report.candidates[0].roots == roots
        assert BRANCH_BOUNDARY in report.warnings



def _diagonal_band_pairs():
    """600 float pairs S T S^-1, T diagonal (decomposable) or upper
    triangular (reducible), whose sub character (e(q), e(1 - q + eps)) lies
    at q0 + q1 = 1 + eps, |eps| = 10^U(-14, -6).  The quotient character is
    off the diagonal, on it in the same way, or at the origin, in turn.
    Yields the document, the answer read off the construction, whether a
    summand lies in the BranchBoundary band |q0 + q1 - 1| <= 10 tol and
    whether the quotient sits at the origin."""
    rng = random.Random(13)

    def e(q, r=1.0):
        return r * cmath.exp(2j * math.pi * q)

    def cx():
        return complex(rng.uniform(-1, 1), rng.uniform(-1, 1))

    def mul(x, y):
        return [[sum(x[i][k] * y[k][j] for k in range(2)) for j in range(2)] for i in range(2)]

    def near_diagonal():
        q = rng.uniform(0.05, 0.95)
        return q, 1 - q + rng.choice((-1, 1)) * 10 ** rng.uniform(-14, -6)

    def root(q0, q1):
        return 0 if q0 == q1 == 0 else (-1 if q0 + q1 <= 1 else -2)

    for k in range(600):
        triangular, mode = k % 2 == 1, (k // 2) % 3
        sub = near_diagonal()
        if mode == 0:
            quot = (rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95))
            while abs(sum(quot) - 1) <= 0.05:
                quot = (rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95))
        else:
            quot = near_diagonal() if mode == 1 else (0.0, 0.0)
        r = rng.uniform(0.5, 2)
        x, y = (cx(), cx()) if triangular else (0j, 0j)
        t = ([[e(sub[0]), x], [0j, e(quot[0], r)]], [[e(sub[1]), y], [0j, e(quot[1], 1 / r)]])
        s = [[1 + 0.5 * cx(), 0.5 * cx()], [0.5 * cx(), 1 + 0.5 * cx()]]
        det = s[0][0] * s[1][1] - s[0][1] * s[1][0]
        s_inv = [[s[1][1] / det, -s[0][1] / det], [-s[1][0] / det, s[0][0] / det]]
        gens = [mul(mul(s, m), s_inv) for m in t]
        text = json.dumps({
            "punctures": 3,
            "dim": 2,
            "generators": [[[{"re": z.real, "im": z.imag} for z in row] for row in g] for g in gens],
        })
        roots = (root(*sub), root(*quot))
        if not triangular:
            answer = (ClassificationKind.THREE_DIM2_DECOMPOSABLE, (tuple(sorted(roots))[::-1],))
        elif roots == (-2, 0):
            answer = (ClassificationKind.THREE_DIM2_REDUCIBLE_AMBIGUOUS, ((-1, -1), (0, -2)))
        else:
            answer = (ClassificationKind.THREE_DIM2_REDUCIBLE_SPLIT, (tuple(sorted(roots))[::-1],))
        in_band = any(abs(sum(c) - 1) <= 10 * CLI_DEFAULT_TOL for c in (sub, quot))
        yield text, answer, in_band, mode == 2


def test_diagonal_band_roots_are_c1_split_over_the_summands():
    # The roots come from c1 alone, so they always sum to it.  Where a
    # summand sits in the band, c1 counts the q at infinity, which lies at
    # the branch cut: the answer says so with BranchBoundary, and any answer
    # that differs from the construction carries a warning.
    in_band_count = 0
    inconsistent = 0
    for text, answer, in_band, quotient_at_origin in _diagonal_band_pairs():
        try:
            report = classify(parse_input_document(text).representation(), CLI_DEFAULT_TOL)
        except InternalInconsistency:
            # The quotient's eigenvalue 1 at infinity can come out at
            # q = 1 - 1.02e-9, just past the snap at tol = 1e-9, and count
            # 1 in c1 while the origin test reads 0: the snapping asymmetry
            # between a puncture and infinity.  Two such pairs remain here.
            assert quotient_at_origin
            inconsistent += 1
            continue
        assert all(c.degree == report.c1 for c in report.candidates)
        if in_band:
            in_band_count += 1
            assert BRANCH_BOUNDARY in report.warnings
        if (report.kind, tuple(c.roots for c in report.candidates)) != answer:
            assert {BRANCH_BOUNDARY, EIGENVALUE_UNCERTAIN} & set(report.warnings)
    assert in_band_count > 300
    assert inconsistent <= 2

def _near_jordan_pairs():
    """600 reducible float pairs S T S^-1 whose m0 is close to a Jordan
    block: T0 = [[lam, 1], [0, lam (1 + eps)]], T1 = [[mu, 0.3], [0, mu
    e^0.7i]], with eps cycling through 0, 1e-12, 1e-9, 1e-7.  Yields the
    pair and the answer read off the triangular construction."""
    rng = random.Random(5)

    def e(q):
        return cmath.exp(2j * math.pi * q)

    def mul(x, y):
        return [[sum(x[i][k] * y[k][j] for k in range(2)) for j in range(2)] for i in range(2)]

    def q_of(z):
        return (cmath.phase(z) / (2 * math.pi)) % 1.0

    def root(q0, q1):
        return 0 if q0 == q1 == 0 else (-1 if q0 + q1 <= 1 else -2)

    for k in range(600):
        eps = (0.0, 1e-12, 1e-9, 1e-7)[k % 4]
        lam = rng.uniform(0.5, 2) * e(rng.uniform(0.05, 0.95))
        mu = e(rng.uniform(0.05, 0.95))
        s = [[complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(2)] for _ in range(2)]
        det = s[0][0] * s[1][1] - s[0][1] * s[1][0]
        s_inv = [[s[1][1] / det, -s[0][1] / det], [-s[1][0] / det, s[0][0] / det]]
        t0 = [[lam, 1], [0, lam * (1 + eps)]]
        t1 = [[mu, 0.3], [0, mu * cmath.exp(0.7j)]]
        gens = tuple(
            Matrix([[Scalar.inexact(z) for z in row] for row in mul(mul(s, t), s_inv)])
            for t in (t0, t1)
        )
        sub = (q_of(lam), q_of(mu))
        quot = (q_of(t0[1][1]), q_of(t1[1][1]))
        c1 = -round(sum(sub) + sum(quot) + sum((-(a + b)) % 1.0 for a, b in (sub, quot)))
        roots = (root(*sub), root(*quot))
        if roots == (-2, 0):
            kind, candidates = ClassificationKind.THREE_DIM2_REDUCIBLE_AMBIGUOUS, ((-1, -1), (0, -2))
        else:
            kind, candidates = ClassificationKind.THREE_DIM2_REDUCIBLE_SPLIT, (tuple(sorted(roots))[::-1],)
        yield Representation(3, gens), (kind, c1, candidates)


def test_near_jordan_pairs_warn_rather_than_flip():
    # Every pair is reducible.  A wrong answer without a warning is a
    # silent flip; the roundoff-based inclusion radius turns most of them
    # into EigenvalueUncertain.  Eigendirections taken from m0, which is
    # near-Jordan, left 100 of 600 silent (66 of them at eps = 1e-7, where
    # the eigenvalue is accurate but not accurate enough for the
    # direction); taken from the member with the larger relative
    # eigenvalue gap, here m1, none was.  No pair commutes, so each is now
    # decided on ker C and det C, with no eigenvector and no member to
    # choose, and none is silent.
    silent = []
    reports = []
    for rep, answer in _near_jordan_pairs():
        report = classify(rep, 1e-9)
        reports.append(report)
        got = (report.kind, report.c1, tuple(c.roots for c in report.candidates))
        if got != answer and not report.warnings:
            silent.append(len(reports) - 1)
    assert silent == []
    # Pairs that a radius from |p| alone, which depends on where the
    # iteration stopped, let through as irreducible without a warning.
    for idx in (1, 4, 9, 18):
        assert EIGENVALUE_UNCERTAIN in reports[idx].warnings


def _reducibility_corpus(corpus: str, kappa: float):
    """300 float pairs S T S^-1, S = U diag(1, 1/kappa) V with U and V
    unitary, from random.Random(4).  "bnj" (both near-Jordan): T0 and T1
    upper triangular, each with a relative diagonal gap of 10^U(-12, -5),
    so the pair has one line.  "near-irr": a triangular pair whose T1 gets
    a lower-left entry of size 10^U(-8, -3), irreducible at that distance
    from a reducible pair.  "triangular": T0 and T1 upper triangular with
    unrelated diagonals, one line.  "generic-irr": T1 gets a lower-left
    entry of order 1.  Every q, m0·m1's too, lies in (0.05, 0.95).
    Yields the pair and the answer read off the construction."""
    rng = random.Random(4)

    def e(q):
        return cmath.exp(2j * math.pi * q)

    def cx():
        return complex(rng.uniform(-1, 1), rng.uniform(-1, 1))

    def q_of(z):
        return cmath.phase(z) / (2 * math.pi) % 1.0

    def mul(x, y):
        return [[x[i][0] * y[0][j] + x[i][1] * y[1][j] for j in range(2)] for i in range(2)]

    def unitary():
        a, b = e(rng.random()), e(rng.random())
        t = 2 * math.pi * rng.random()
        c, s = math.cos(t), math.sin(t)
        return [[c * a, -s * b.conjugate()], [s * b, c * a.conjugate()]]

    def adjoint(u):
        return [[u[j][i].conjugate() for j in range(2)] for i in range(2)]

    def eigen(m):
        (a, b), (c, d) = m
        root = cmath.sqrt((a - d) ** 2 + 4 * b * c)
        return (a + d + root) / 2, (a + d - root) / 2

    count = 0
    while count < 300:
        q0, q1 = rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95)
        lam, mu = rng.uniform(0.5, 2) * e(q0), rng.uniform(0.5, 2) * e(q1)
        if corpus == "bnj":
            g0, g1 = (rng.choice((-1, 1)) * 10 ** rng.uniform(-12, -5) for _ in range(2))
            t0 = [[lam, cx()], [0j, lam * (1 + g0)]]
            t1 = [[mu, cx()], [0j, mu * (1 + g1)]]
        else:
            k0, k1 = (rng.uniform(0.5, 2) * e(rng.uniform(0.05, 0.95)) for _ in range(2))
            t0 = [[lam, cx()], [0j, k0]]
            if corpus == "near-irr":
                t1 = [[mu, cx()], [10 ** rng.uniform(-8, -3) * cx(), k1]]
            else:
                t1 = [[mu, cx()], [cx() if corpus == "generic-irr" else 0j, k1]]
        u, v = unitary(), unitary()
        s = mul(mul(u, [[1, 0], [0, 1 / kappa]]), v)
        s_inv = mul(mul(adjoint(v), [[1, 0], [0, kappa]]), adjoint(u))
        qs = [q_of(z) for t in (t0, t1) for z in eigen(t)]
        qs += [-q_of(z) % 1.0 for z in eigen(mul(t0, t1))]
        if not all(0.05 < q < 0.95 for q in qs) or abs(q0 + q1 - 1) < 0.05:
            continue
        c1 = -round(math.fsum(qs))
        if corpus == "bnj":
            r = -1 if q0 + q1 <= 1 else -2
            answer = (ClassificationKind.THREE_DIM2_REDUCIBLE_SPLIT, c1, ((r, r),))
        elif corpus == "triangular":
            quot = q_of(t0[1][1]) + q_of(t1[1][1])
            if abs(quot - 1) < 0.05:
                continue
            roots = sorted((-1 if q0 + q1 <= 1 else -2, -1 if quot <= 1 else -2), reverse=True)
            answer = (ClassificationKind.THREE_DIM2_REDUCIBLE_SPLIT, c1, (tuple(roots),))
        else:
            answer = (ClassificationKind.THREE_DIM2_IRREDUCIBLE, c1, (((c1 + 1) // 2, c1 // 2),))
        count += 1
        gens = tuple(Matrix(mul(mul(s, t), s_inv)) for t in (t0, t1))
        yield Representation(3, gens), answer


@pytest.mark.parametrize(
    ("corpus", "kappa", "ceiling", "floor"),
    [
        ("bnj", 1.0, 0, 12), ("bnj", 1e3, 0, 265),
        ("near-irr", 1.0, 0, 300), ("near-irr", 1e3, 2, 298),
        ("triangular", 1.0, 0, 300), ("triangular", 1e3, 0, 293),
        ("generic-irr", 1.0, 0, 300), ("generic-irr", 1e3, 0, 300),
    ],
)
def test_reducibility_corpus_wrong_and_silent_ceiling(corpus, kappa, ceiling, floor):
    # A wrong answer without a warning is silent.  A floating pair is
    # decided by C and det C alone: a cross test of ker C against both
    # members left 0, 162, 0 and 86 of the bnj and near-irr pairs silent
    # here, eigenvectors of near-Jordan members before it 12, 265, 1 and
    # 116.  The near-irr ceiling at kappa = 1e3 is 2, not 0: pairs 56 and
    # 117 have |tr(m0 m1 m0^-1 m1^-1) - 2| = 6.6e-10 and 4.8e-10 on the
    # exact values of their entries, below tol and 900 times farther from
    # it than the rounding of those entries can move it, so at tol they are
    # reducible.  Their twins at kappa = 1 answer irreducible only because
    # C there is not within tol of rank one.  ReducibilityUncertain marks
    # the pairs whose det C the rounding of their entries can carry across
    # the threshold: 7 triangular pairs at kappa = 1e3, which keep their
    # line.  The floor counts the right answers without a warning, so a
    # bound loose enough to warn on every pair fails it.  The ceilings are
    # never to be raised, nor the floors lowered.
    silent_kinds = set()
    silent = right = 0
    for rep, answer in _reducibility_corpus(corpus, kappa):
        try:
            report = classify(rep)
        except LogSplitError:
            continue
        got = (report.kind, report.c1, tuple(c.roots for c in report.candidates))
        if got != answer and not report.warnings:
            silent += 1
            silent_kinds.add(report.kind)
        right += got == answer and not report.warnings
    assert silent <= ceiling
    assert right >= floor
    assert silent_kinds <= {ClassificationKind.THREE_DIM2_REDUCIBLE_SPLIT}


def test_commuting_within_rounding_warns_below_its_tolerance():
    # CI's decomposable document: every entry of C lies within its rounding
    # bound, so m0's eigendirections decide.  max|c_ij| is 6.3e-16, below
    # tol max|m0| max|m1| at tol 1e-9 and 1e-15, above it at 1e-16.
    doc = parse_input_document(
        '{"punctures": 3, "dim": 2, "generators": [[[{"re": 0.04335970883490925, '
        '"im": 1.6234845439448065}, {"re": 0.054932593740349304, "im": -1.6526582791992817}], '
        '[{"re": -0.24613165048495012, "im": 1.548980428218106}, {"re": -0.3523767032098568, '
        '"im": -2.5745410602399597}]], [[{"re": -0.5424588430954728, "im": 0.9636494159700106}, '
        '{"re": 0.4931109821097034, "im": -0.20669382139240364}], [{"re": -0.48842137391412127, '
        '"im": 0.13652230459170883}, {"re": 0.6379503459079993, "im": 0.2812997264713797}]]]}'
    )
    m0, m1 = doc.generators
    for tol, warnings in ((1e-9, ()), (1e-15, ()), (1e-16, (REDUCIBILITY_UNCERTAIN,))):
        report = invariant_lines(m0, m1, tol)
        assert (len(report.lines), report.decomposable, report.warnings) == (2, True, warnings)
    report = classify(doc.representation())
    assert report.kind is ClassificationKind.THREE_DIM2_DECOMPOSABLE
    assert (report.c1, report.warnings) == (-2, ())


# ---------------------------------------------------------------------------
# the rounding enclosure of the commutator, against exact arithmetic

#: Bits at which the exact values are worked out: every sum of products of
#: entries below is exact at this precision for float entries, and within
#: 2^-2000 of its value for exact thirds and for exact values off the axes.
_EXACT_PREC = 2400
_U = 2.0 ** -53

_OFF_AXIS_TURNS = tuple(F(n, d) for n, d in ((1, 3), (1, 5), (1, 8), (3, 7), (5, 12), (7, 10)))


def _exact_value(z):
    """The exact value of an entry as an mpmath mpc."""
    if isinstance(z, complex):
        return mpmath.mpc(z.real, z.imag)
    if z is ZERO:
        return mpmath.mpc(0)
    r, q = z.r, z.q
    return mpmath.mpf(r.numerator) / r.denominator * mpmath.expjpi(
        2 * mpmath.mpf(q.numerator) / q.denominator)


def _commutator_values(entries):
    """C's entries c00, c01, c10 and c00^2 + c01 c10 on the eight entries."""
    a, b, c, d, e, f, g, h = entries
    c00 = b * g - f * c
    c01 = f * (a - d) - b * (e - h)
    c10 = c * (e - h) - g * (a - d)
    return c00, c01, c10, c00 * c00 + c01 * c10


@st.composite
def _enclosure_entry(draw, exponent):
    """A float entry at 2^exponent, spread over 40 binades below it (its
    mantissa may be subnormal), an exact real or imaginary dyadic or
    third, an exact value r e(q) off the axes, or the exact zero."""
    kind = draw(st.sampled_from(
        ("float", "float", "float", "real", "imaginary", "polar", "zero")))
    if kind == "zero":
        return 0
    scale = 2.0 ** (exponent - draw(st.integers(0, 40)))
    if kind == "float":
        re, im = (draw(st.floats(-1, 1, allow_nan=False)) for _ in range(2))
        return complex(re * scale, im * scale)
    value = F(draw(st.integers(1, 9)), draw(st.sampled_from((1, 2, 3, 4)))) * F(scale)
    if kind == "polar":
        return Scalar.polar(value, draw(st.sampled_from(_OFF_AXIS_TURNS)))
    value *= draw(st.sampled_from((-1, 1)))
    return Scalar.exact(value) if kind == "real" else Scalar.exact(0, value)


@st.composite
def _enclosure_pairs(draw):
    """A 2x2 pair, each member at its own scale 2^k, k in [-500, 500]:
    generic, upper triangular, triangular but for a lower-left entry 2^-20
    to 2^-50 of the others, or m1 = alpha m0 + beta I plus such a
    perturbation, so that some pairs land near the threshold."""
    shape = draw(st.sampled_from(("generic", "triangular", "near-triangular", "near-commuting")))
    k0, k1 = draw(st.integers(-500, 500)), draw(st.integers(-500, 500))
    m0 = [[draw(_enclosure_entry(k0)) for _ in range(2)] for _ in range(2)]
    m1 = [[draw(_enclosure_entry(k1)) for _ in range(2)] for _ in range(2)]
    if shape != "generic":
        m0[1][0] = 0
        low = draw(_enclosure_entry(k1 - draw(st.integers(20, 50))))
        m1[1][0] = low if shape != "triangular" else 0
    if shape == "near-commuting":
        alpha, beta = draw(st.sampled_from((-3, 1, 2))), draw(st.sampled_from((-1, 0, 5)))
        m1 = [[alpha * 2.0 ** (k1 - k0) * complex(m0[i][j]) + (beta * 2.0 ** k1 if i == j else 0)
               for j in range(2)] for i in range(2)]
        m1[1][0] += complex(low)
    return Matrix(m0), Matrix(m1)


def _scale_of(given: Matrix, scaled: Matrix):
    """The power of two by which ``scaled`` is ``given``: read at the
    largest entry, and met by every floating entry within 2^-1074 a part,
    the rounding of a part scaled into the subnormal range, and by every
    exact entry exactly (within 2^-2000 of its modulus)."""
    pairs = [(_exact_value(x), _exact_value(y), isinstance(x, complex))
             for x, y in zip(given.rows[0] + given.rows[1], scaled.rows[0] + scaled.rows[1])]
    x, y, _ = max(pairs, key=lambda p: abs(p[0]))
    exponent = int(mpmath.nint(mpmath.log(abs(y) / abs(x), 2))) if x else 0
    rho = mpmath.ldexp(1, exponent)
    for x, y, floating in pairs:
        slack = mpmath.ldexp(1, -1073) if floating else abs(x) * mpmath.ldexp(1, -2000)
        assert abs(y - rho * x) <= slack
    return rho


@settings(max_examples=400, deadline=None)
@given(_enclosure_pairs(), st.sampled_from((1e-16, 1e-12, 1e-9, 1e-6)))
def test_commutator_enclosure_holds_and_decides_the_warning(pair, tol):
    # C, det C and the determinants are worked out from the exact values of
    # the given entries and scaled by the powers of two at which the pair
    # is decided.  Every computed entry of C, and det C, lies within its
    # radius of them; an exact value has radius 0 and is the exact value.
    # The decision is then read against the exact det C: a floating entry
    # is known to its own rounding, u of its modulus, and the band that
    # moves the exact det C by (to first order, taken here by differences)
    # is where a warning may fall.  A silent answer is right and lies
    # outside that band of the threshold; a warning keeps the line and
    # lies within the band (and the threshold's own enclosure) when every
    # entry has a rational value, else within the reach of the enclosure.
    mpmath = pytest.importorskip("mpmath")
    globals()["mpmath"] = mpmath
    from logsplit.splitting import _SCALE_BOTTOM, _SCALE_TOP, _commutator, _moduli, _normalized
    from logsplit.splitting import _threshold

    m0, m1 = pair
    with mpmath.workprec(_EXACT_PREC):
        given = [_exact_value(z) for m in pair for z in m.rows[0] + m.rows[1]]
        # An exact value enters floating arithmetic within 23u of its
        # modulus, which _EXACT_WEIGHT covers.
        for z, x in zip(m0.rows[0] + m0.rows[1] + m1.rows[0] + m1.rows[1], given):
            if isinstance(z, Scalar):
                assert abs(mpmath.mpc(z.z) - x) <= 23 * _U * abs(x)
        # Members that build would take: |det| above 1e-12 max|entry|^2.
        for values in (given[:4], given[4:]):
            det = values[0] * values[3] - values[1] * values[2]
            assume(abs(det) > mpmath.mpf(10) ** -12 * max(map(abs, values)) ** 2)
        scaled = pair
        if not all(_SCALE_BOTTOM <= m.max_abs() <= _SCALE_TOP for m in pair):
            scaled = (_normalized(m0), _normalized(m1))
        rho0, rho1 = _scale_of(m0, scaled[0]), _scale_of(m1, scaled[1])
        entries = [rho0 * z for z in given[:4]] + [rho1 * z for z in given[4:]]
        scaled_entries = scaled[0].rows[0] + scaled[0].rows[1] + scaled[1].rows[0] + scaled[1].rows[1]
        c, mods, radii, det_c, det_radius = _commutator(scaled_entries, _moduli(scaled_entries))
        exact = _commutator_values(entries)
        for z, x, r in zip(c + (det_c,), exact, radii + (det_radius,)):
            assert math.isfinite(r)
            if r:
                assert abs(_exact_value(z) - x) <= r
            else:
                assert isinstance(z, Scalar)
                assert abs(_exact_value(z) - x) <= abs(x) * mpmath.ldexp(1, -1900)

        report = invariant_lines(m0, m1, tol)
        lines, warned = bool(report.lines), bool(report.warnings)
        assert report.warnings in ((), (REDUCIBILITY_UNCERTAIN,))
        sizes = tuple(m.max_abs() for m in scaled)
        if all(n <= r if r else z is ZERO for z, n, r in zip(c, mods, radii)):
            # C zero within its radii: the commuting branch, which warns
            # unless max|c_ij| <= tol max|m0| max|m1|.
            assert warned == (max(mods) > tol * sizes[0] * sizes[1])
            return
        if not det_radius:
            # An exact det C decides alone, and exactly.
            assert not warned and lines == (det_c is ZERO)
            return
        size = abs(exact[3])
        dets = [entries[0] * entries[3] - entries[1] * entries[2],
                entries[4] * entries[7] - entries[5] * entries[6]]
        top = max(map(abs, exact[:3]))
        limit = min(tol * abs(dets[0]) * abs(dets[1]), top * (tol * top + max(radii)))
        band = 0
        for k, z in enumerate(m0.rows[0] + m0.rows[1] + m1.rows[0] + m1.rows[1]):
            if isinstance(z, complex) and z:
                step = abs(entries[k]) * mpmath.ldexp(1, -1200)
                moved = list(entries)
                moved[k] += step
                band += abs(_commutator_values(moved)[3] - exact[3]) / step * _U * abs(entries[k])
        lo, hi = _threshold([scaled[0].det(), scaled[1].det()], sizes, mods, radii, tol)
        assert lo <= limit <= hi
        slack = (size + limit) * 2.0 ** -55 + band * 1e-9
        if not warned:
            if lines:
                assert size + band <= limit + slack
            else:
                assert size - band > limit - slack
            return
        assert lines
        rational = not any(isinstance(z, Scalar) and z.q not in (0, F(1, 4), F(1, 2), F(3, 4))
                           for m in pair for z in m.rows[0] + m.rows[1] if z is not ZERO)
        spread = (hi - lo) / 8
        reach = band + spread if rational else 17 * det_radius / 8 + 9 * (hi - lo) / 8
        assert abs(size - limit) <= reach + slack
