import cmath
import math
import random
from fractions import Fraction
from functools import reduce
from operator import add

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from logsplit import (
    DEFAULT_CLUSTER_TOL,
    EigenData,
    EigenPair,
    InputFormatError,
    Matrix,
    NonIntegralChernClass,
    PuncturedRepresentation,
    Representation,
    Scalar,
    build,
    classify,
    conjugate,
    eigenvalues,
    ohtsuki_c1,
)
from logsplit.chern import INTEGRALITY_TOL_BOUND
from logsplit.scalar import ONE, Q_HALF, Q_QUARTER, Q_THREE_QUARTERS, Q_ZERO
from conftest import block_diag, conjugated, matmul, rand_invertible, rand_well_conditioned

F = Fraction


class TestResidueTrace:
    def test_identity_has_zero_trace(self):
        for n in (1, 2, 4):
            assert eigenvalues(Matrix.identity(n)).q_sum() == 0

    def test_golden_generator(self, golden_pair):
        _, gen_s = golden_pair
        assert eigenvalues(gen_s).q_sum() == F(1, 2)

    def test_golden_infinity(self, golden_pair):
        gen_t, gen_s = golden_pair
        m = (gen_t @ gen_s).inverse()
        assert eigenvalues(m).q_sum() == 1


class TestOhtsuki:
    def test_golden_chern_class(self, golden_rep):
        chern = ohtsuki_c1(build(golden_rep))
        assert chern.c1 == -2
        assert chern.exact
        assert chern.raw_q_sum == 2.0
        assert chern.integrality_defect == 0.0

    def test_trivial_representations(self):
        for punctures in (2, 3):
            for n in (1, 2, 3):
                gens = tuple(Matrix.identity(n) for _ in range(punctures - 1))
                chern = ohtsuki_c1(build(Representation(punctures, gens)))
                assert chern.c1 == 0

    def test_quarter_turn_character_two_punctures(self):
        rep = Representation(2, (Matrix([[Scalar.polar(1, F(1, 4))]]),))
        assert ohtsuki_c1(build(rep)).c1 == -1

    def test_additivity_over_direct_sums(self):
        rng = random.Random(29)
        for _ in range(10):
            a0, a1 = rand_invertible(rng, 2), rand_invertible(rng, 2)
            b0, b1 = rand_invertible(rng, 2), rand_invertible(rng, 2)
            separate = (
                ohtsuki_c1(build(Representation(3, (a0, a1)))).c1
                + ohtsuki_c1(build(Representation(3, (b0, b1)))).c1
            )
            joint = ohtsuki_c1(
                build(Representation(3, (block_diag(a0, b0), block_diag(a1, b1))))
            ).c1
            assert joint == separate

    def test_range_bound(self):
        rng = random.Random(37)
        for punctures in (2, 3):
            for _ in range(10):
                n = rng.randint(1, 4)
                gens = tuple(rand_invertible(rng, n) for _ in range(punctures - 1))
                chern = ohtsuki_c1(build(Representation(punctures, gens)))
                assert -n * (punctures - 1) <= chern.c1 <= 0

    def test_conjugation_invariance(self):
        rng = random.Random(41)
        gens = (rand_invertible(rng, 3), rand_invertible(rng, 3))
        rep = Representation(3, gens)
        c_ref = ohtsuki_c1(build(rep)).c1
        for _ in range(5):
            s = rand_well_conditioned(rng, 3)
            assert ohtsuki_c1(build(conjugate(rep, s))).c1 == c_ref

    def test_exact_inputs_have_zero_defects(self):
        rng = random.Random(43)
        for _ in range(10):
            qs = [F(rng.randint(0, 11), 12) for _ in range(2)]
            gens = tuple(Matrix([[Scalar.polar(1, q)]]) for q in qs)
            chern = ohtsuki_c1(build(Representation(3, gens)))
            assert chern.exact
            assert chern.integrality_defect == 0.0


class TestFailureModes:
    def test_non_integral_sum_is_rejected(self, golden_pair):
        # Hand-assembled inconsistent data: puncture list whose q-sum is 1/4.
        rep = Representation(2, (Matrix([[Scalar.polar(1, F(1, 4))]]),))
        broken = PuncturedRepresentation(
            rep,
            (eigenvalues(Matrix([[Scalar.polar(1, F(1, 4))]])), eigenvalues(Matrix([[1]]))),
        )
        with pytest.raises(NonIntegralChernClass):
            ohtsuki_c1(broken)

    def test_modulus_closure_defect_is_reported_not_rejected(self):
        # c1 reads only the q's, so moduli that do not close up answer.
        rep = Representation(2, (Matrix([[2]]),))
        open_ln = PuncturedRepresentation(
            rep,
            (eigenvalues(Matrix([[2]])), eigenvalues(Matrix([[1]]))),
        )
        chern = ohtsuki_c1(open_ln)
        assert chern.c1 == 0 and chern.exact
        assert chern.ln_r_closure_defect == math.log(2)

    @pytest.mark.parametrize(
        "itol, message",
        [
            (0, "integrality_tol: expected a finite number above zero, got 0"),
            (-1e-6, "integrality_tol: expected a finite number above zero, got -1e-06"),
            (math.nan, "integrality_tol: expected a finite number above zero, got nan"),
            (INTEGRALITY_TOL_BOUND, "integrality_tol: expected a number below 0.5, got 0.5"),
            (3, "integrality_tol: expected a number below 0.5, got 3"),
        ],
    )
    def test_integrality_tol_outside_its_bounds(self, golden_rep, itol, message):
        # ohtsuki_c1 and classify check integrality_tol as the command line does.
        with pytest.raises(InputFormatError) as info:
            ohtsuki_c1(build(golden_rep), itol)
        assert str(info.value) == message
        with pytest.raises(InputFormatError) as info:
            classify(golden_rep, DEFAULT_CLUSTER_TOL, itol)
        assert str(info.value) == message
        assert ohtsuki_c1(build(golden_rep), math.nextafter(INTEGRALITY_TOL_BOUND, 0.0)).c1 == -2

    def test_tight_tolerance_flags_float_noise(self, golden_rep):
        rng = random.Random(59)
        s = rand_well_conditioned(rng, 2)
        prep = build(conjugate(golden_rep, s))
        chern = ohtsuki_c1(prep)
        assert chern.c1 == -2
        if chern.integrality_defect > 0.0:
            with pytest.raises(NonIntegralChernClass):
                ohtsuki_c1(prep, tol=chern.integrality_defect / 2)


# -- the q-sum against the fold it replaced ----------------------------------
#
# Exact q's sum to a Fraction; from the first floating q on, the sum is a
# float folded left term by term, as ``reduce(add, (m * q ...), 0)`` folds
# it.  Builtin ``sum`` is no reference: it compensates from Python 3.12 on.

exact_q = st.sampled_from([Q_ZERO, Q_QUARTER, Q_HALF, Q_THREE_QUARTERS]) | st.fractions(
    min_value=0, max_value=1, max_denominator=60
).filter(lambda q: q < 1)
float_q = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)
q_of_kind = {"exact": exact_q, "float": float_q, "mixed": exact_q | float_q}


@st.composite
def punctures(draw):
    """Eigenvalue data of 2 or 3 punctures: (multiplicity, q) lists."""
    kind = draw(st.sampled_from(sorted(q_of_kind)))
    pairs = st.lists(st.tuples(st.integers(1, 4), q_of_kind[kind]), min_size=1, max_size=4)
    return draw(st.lists(pairs, min_size=2, max_size=3))


def _eigen_data(pairs) -> EigenData:
    return EigenData(tuple(EigenPair(ONE, m, q, 0.0) for m, q in pairs))


def _same(got, want) -> bool:
    if type(want) is F:
        return type(got) is F and got == want
    return type(got) is float and got.hex() == want.hex()


@settings(max_examples=300)
@given(punctures(), st.floats(min_value=1e-9, max_value=0.49))
def test_q_sums_match_the_fold(local, itol):
    data = tuple(_eigen_data(pairs) for pairs in local)
    sums = [reduce(add, (m * q for m, q in pairs), 0) for pairs in local]
    for e, want in zip(data, sums):
        assert _same(e.q_sum(), want)
    raw = reduce(add, sums, 0)
    nearest = round(raw)
    defect = abs(raw - nearest)
    rep = Representation(len(local), tuple(Matrix([[1]]) for _ in local[1:]))
    prep = PuncturedRepresentation(rep, data)
    if defect > itol:
        with pytest.raises(NonIntegralChernClass) as info:
            ohtsuki_c1(prep, itol)
        assert str(info.value) == (
            f"residue q-sum {float(raw)!r} is {float(defect):.3e} from an integer "
            f"(tolerance {itol:.3e})"
        )
        return
    chern = ohtsuki_c1(prep, itol)
    assert chern.c1 == -nearest
    assert chern.raw_q_sum.hex() == float(raw).hex()
    assert chern.integrality_defect.hex() == float(defect).hex()
    assert chern.exact is (type(raw) is F)


# -- the int-pair integrality test against a Fraction reference --------------
#
# Exact q's only: ohtsuki_c1 rounds and compares their total on ints.  The
# tolerance is dyadic, so a defect can sit exactly on it, just above it or
# just below it.

_DYADIC_STEP = F(1, 2**70)


@st.composite
def exact_punctures_at_tol(draw):
    """(local (multiplicity, q) lists of 2 or 3 punctures, dyadic tol): the
    last puncture gains a q that puts the total at an offset from an
    integer, or keeps its random total."""
    tol = F(1, 2 ** draw(st.integers(2, 50)))
    local = draw(
        st.lists(
            st.lists(st.tuples(st.integers(1, 4), exact_q), min_size=1, max_size=4),
            min_size=2,
            max_size=3,
        )
    )
    offset = draw(
        st.sampled_from([None, tol, -tol, tol + _DYADIC_STEP, -tol - _DYADIC_STEP, tol - _DYADIC_STEP])
    )
    if offset is not None:
        total = sum(m * q for pairs in local for m, q in pairs)
        local[-1].append((1, (offset - total) % 1))
    return local, float(tol)


@settings(max_examples=400)
@given(exact_punctures_at_tol())
@example(([[(1, F(3, 8))], [(1, F(5, 8)), (1, F(1, 1024))]], 2.0**-10))  # on the tolerance
@example(([[(1, F(3, 8))], [(1, F(5, 8)), (1, F(1, 1024))]], 2.0**-11))  # beyond it
def test_exact_integrality_matches_fractions(case):
    local, itol = case
    raw = sum(m * q for pairs in local for m, q in pairs)
    nearest = round(raw)
    defect = abs(raw - nearest)
    rep = Representation(len(local), tuple(Matrix([[1]]) for _ in local[1:]))
    prep = PuncturedRepresentation(rep, tuple(_eigen_data(pairs) for pairs in local))
    if defect > F(itol):
        with pytest.raises(NonIntegralChernClass) as info:
            ohtsuki_c1(prep, itol)
        assert str(info.value) == (
            f"residue q-sum {float(raw)!r} is {float(defect):.3e} from an integer "
            f"(tolerance {itol:.3e})"
        )
        return
    chern = ohtsuki_c1(prep, itol)
    assert type(chern.c1) is int and chern.c1 == -nearest
    assert chern.raw_q_sum.hex() == float(raw).hex()
    assert chern.integrality_defect.hex() == float(defect).hex()
    assert chern.exact is True


def test_non_integral_exact_sum_message():
    # Library-built data: e(1/3) at 0, e(1/4) and e(1/2) at 1, 1 at infinity.
    local = (
        eigenvalues(Matrix([[Scalar.polar(1, F(1, 3))]])),
        eigenvalues(Matrix([[Scalar.polar(1, F(1, 4)), 0], [0, -1]])),
        eigenvalues(Matrix([[1]])),
    )
    assert local[1].q_sum() == F(3, 4) and type(local[1].q_sum()) is F
    rep = Representation(3, (Matrix([[1]]), Matrix([[1]])))
    with pytest.raises(NonIntegralChernClass) as info:
        ohtsuki_c1(PuncturedRepresentation(rep, local))
    assert str(info.value) == (
        "residue q-sum 1.0833333333333333 is 8.333e-02 from an integer (tolerance 1.000e-06)"
    )


# ---------------------------------------------------------------------------
# c1 reads only the q's: a conjugation changes no answer, however far it
# moves the moduli from closing up.


def _unitary(rng: random.Random) -> list[list[complex]]:
    a, b = (cmath.exp(2j * math.pi * rng.random()) for _ in range(2))
    t = 2 * math.pi * rng.random()
    c, s = math.cos(t), math.sin(t)
    return [[c * a, -s * b.conjugate()], [s * b, c * a.conjugate()]]


def _adjoint(u: list[list[complex]]) -> list[list[complex]]:
    return [[u[j][i].conjugate() for j in range(2)] for i in range(2)]


def _q(z: complex) -> float:
    return cmath.phase(z) / (2 * math.pi) % 1.0


def _inner_q_pairs(seed: int, count: int) -> list[tuple[list[list], list[list]]]:
    """Float 2x2 pairs (m0, m1), alternately upper triangular (reducible)
    and diagonal against a unitarily conjugated diagonal (irreducible),
    with moduli in [0.5, 2] and every q, m0·m1's too, in (0.05, 0.95)."""
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < count:
        l0, l1, k0, k1 = (
            rng.uniform(0.5, 2.0) * cmath.exp(2j * math.pi * rng.uniform(0.05, 0.95))
            for _ in range(4)
        )
        if len(pairs) % 2:
            w = _unitary(rng)
            m0 = [[l0, 0j], [0j, l1]]
            m1 = matmul(matmul(w, [[k0, 0j], [0j, k1]]), _adjoint(w))
        else:
            m0 = [[l0, complex(rng.uniform(-1, 1), rng.uniform(-1, 1))], [0j, l1]]
            m1 = [[k0, complex(rng.uniform(-1, 1), rng.uniform(-1, 1))], [0j, k1]]
        (a, b), (c, d) = matmul(m0, m1)
        root = cmath.sqrt((a - d) ** 2 + 4 * b * c)
        if all(0.05 < _q(z) < 0.95 for z in ((a + d + root) / 2, (a + d - root) / 2)):
            pairs.append((m0, m1))
    return pairs


def _answer(m0: list[list], m1: list[list]):
    report = classify(Representation(3, (Matrix(m0), Matrix(m1))))
    return report.kind, report.c1, tuple(c.roots for c in report.candidates)


_INNER_Q_PAIRS = _inner_q_pairs(1, 200)


@pytest.mark.parametrize("kappa", [1e3, 1e4])
def test_conjugation_changes_no_answer(kappa):
    # S = U diag(1, 1/kappa) V has condition number kappa, and the rounding
    # of S m S^-1 moves its eigenvalues by an amount that grows with kappa:
    # the ln|lambda| sum strays from 0, which c1 never reads.  At 1e3 every
    # pair answers as it does unconjugated; at 1e4 the q's stray too, and
    # integrality, the one check on them, rejects what it cannot answer.
    rng = random.Random(7)
    for m0, m1 in _INNER_Q_PAIRS:
        expected = _answer(m0, m1)
        u, v = _unitary(rng), _unitary(rng)
        s = matmul(matmul(u, [[1, 0], [0, 1 / kappa]]), v)
        s_inv = matmul(matmul(_adjoint(v), [[1, 0], [0, kappa]]), _adjoint(u))
        try:
            got = _answer(conjugated(s, s_inv, m0), conjugated(s, s_inv, m1))
        except NonIntegralChernClass:
            assert kappa > 1e3
            continue
        assert got == expected
