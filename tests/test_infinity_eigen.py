"""Eigenvalue data at infinity, taken from the generator product.

``build`` no longer inverts the product P of the generators: the loop at
infinity carries P^-1, whose eigenvalues are the reciprocals of P's.  These
tests hold the derived data to ``eigenvalues(monodromy_at_infinity(gens))``
and, for inputs whose inverse the closure check used to reject, to a
high-precision oracle.
"""

import cmath
import math
import random
from fractions import Fraction

import pytest

from logsplit import (
    BRANCH_BOUNDARY,
    EIGENVALUE_UNCERTAIN,
    LogSplitError,
    Matrix,
    Representation,
    Scalar,
    build,
    eigenvalues,
    monodromy_at_infinity,
    ohtsuki_c1,
)
from logsplit.eigen import EigenData, reciprocal_eigenvalues
from conftest import rand_invertible

F = Fraction

#: Agreement of float branch data between the two routes.
FLOAT_Q_TOL = 1e-7


def _expanded(data: EigenData) -> list:
    return sorted(
        (p.q for p in data.pairs for _ in range(p.multiplicity)), key=float
    )


def _cyclic_gap(a: float, b: float) -> float:
    d = abs(a - b) % 1.0
    return min(d, 1.0 - d)


def _assert_same_branch_data(derived: EigenData, direct: EigenData, tol: float) -> None:
    qa, qb = _expanded(derived), _expanded(direct)
    assert len(qa) == len(qb)
    exact = [q for q in qa if isinstance(q, Fraction)]
    assert exact == [q for q in qb if isinstance(q, Fraction)]
    floats_a = [q for q in qa if not isinstance(q, Fraction)]
    floats_b = [q for q in qb if not isinstance(q, Fraction)]
    unused = list(floats_b)
    for q in floats_a:
        best = min(unused, key=lambda w: _cyclic_gap(q, w))
        assert _cyclic_gap(q, best) < tol
        unused.remove(best)


class TestDerivedMatchesDirect:
    def test_golden_pair(self, golden_pair):
        derived = build(Representation(3, golden_pair)).local_eigen[-1]
        direct = eigenvalues(monodromy_at_infinity(golden_pair))
        assert _expanded(derived) == _expanded(direct) == [F(1, 3), F(2, 3)]

    def test_exact_polar_triangular_pairs(self):
        rng = random.Random(31)
        for _ in range(60):
            gens = []
            for _ in range(2):
                diag = [Scalar.polar(rng.randint(1, 4), F(rng.randint(0, 11), 12)) for _ in range(2)]
                gens.append(Matrix([[diag[0], F(rng.randint(-3, 3), 2)], [0, diag[1]]]))
            gens = tuple(gens)
            derived = build(Representation(3, gens)).local_eigen[-1]
            direct = eigenvalues(monodromy_at_infinity(gens))
            assert all(type(p.q) is F for e in (derived, direct) for p in e.pairs)
            assert _expanded(derived) == _expanded(direct)

    def test_exact_two_puncture_generators(self):
        # At two punctures the generator's own solve is reused.
        for q in (F(0), F(1, 4), F(1, 2), F(5, 7)):
            g = Matrix([[Scalar.polar(3, q), 1], [0, Scalar.polar(F(1, 2), F(1, 3))]])
            derived = build(Representation(2, (g,))).local_eigen[-1]
            assert _expanded(derived) == _expanded(eigenvalues(monodromy_at_infinity([g])))

    def test_rational_pairs(self):
        # Real eigenvalues carry exact q's on both routes; irrational
        # angles are floats on both and agree to rounding.
        rng = random.Random(5)
        checked = 0
        for _ in range(300):
            def rat():
                return F(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))

            gens = tuple(Matrix([[rat(), rat()], [rat(), rat()]]) for _ in range(2))
            try:
                derived = build(Representation(3, gens)).local_eigen[-1]
            except LogSplitError:
                continue
            direct = eigenvalues(monodromy_at_infinity(gens))
            _assert_same_branch_data(derived, direct, FLOAT_Q_TOL)
            checked += 1
        assert checked > 250

    def test_random_float_inputs(self):
        rng = random.Random(41)
        for punctures in (2, 3):
            for n in range(1, 9):
                for _ in range(3):
                    gens = tuple(rand_invertible(rng, n) for _ in range(punctures - 1))
                    derived = build(Representation(punctures, gens), 1e-9).local_eigen[-1]
                    direct = eigenvalues(monodromy_at_infinity(gens), 1e-9)
                    _assert_same_branch_data(derived, direct, FLOAT_Q_TOL)

    def test_uncertainty_carries_over(self):
        data = eigenvalues(Matrix([[Scalar.inexact(2 + 1j)]]))
        flagged = EigenData(data.pairs, (EIGENVALUE_UNCERTAIN,))
        assert EIGENVALUE_UNCERTAIN in reciprocal_eigenvalues(flagged).warnings

    def test_infinity_monodromy_is_read_lazily(self, golden_pair):
        prep = build(Representation(3, golden_pair))
        assert prep.infinity_monodromy == monodromy_at_infinity(golden_pair)


# ---------------------------------------------------------------------------
# inputs the inverse-and-multiply closure check rejected


def test_reciprocal_argument_rounding_to_a_full_turn_stays_below_one():
    # At tol 1e-20, lambda = 1 + 6.28e-18i keeps its q of about 1e-18; the
    # reciprocal's argument, a full turn less 1e-18, rounds to 1.0 and is
    # stored as the float just below it.
    prep = build(Representation(2, (Matrix([[1 + 6.28e-18j]]),)), 1e-20)
    qs = [p.q for e in prep.local_eigen for p in e.pairs]
    assert all(0.0 <= q < 1.0 for q in qs)
    assert qs[1] == math.nextafter(1.0, 0.0)
    chern = ohtsuki_c1(prep)
    assert chern.c1 == -1
    assert chern.raw_q_sum == math.nextafter(1.0, 0.0)
    assert BRANCH_BOUNDARY in prep.warnings()


def _extreme(seed: int) -> Representation:
    """Entries of modulus up to 1e9, spread over many orders of magnitude."""
    rng = random.Random(seed)
    punctures = 2 + int(rng.random() * 2)
    n = 2 + int(rng.random() * 7)
    top = 9 * rng.random()

    def entry():
        mag = 10 ** (top * rng.random())
        return Scalar.inexact(mag * cmath.exp(2j * math.pi * rng.random()))

    gens = [Matrix([[entry() for _ in range(n)] for _ in range(n)]) for _ in range(punctures - 1)]
    return Representation(punctures, tuple(gens))


def _graded(seed: int) -> Representation:
    """Random matrices with rows and columns scaled over 10^(+-k): badly
    conditioned generator products."""
    rng = random.Random(seed)
    punctures = 2 + int(rng.random() * 2)
    n = 2 + int(rng.random() * 7)
    k = 6 * rng.random()

    def gen():
        rs = [10 ** (k * (2 * rng.random() - 1)) for _ in range(n)]
        cs = [10 ** (k * (2 * rng.random() - 1)) for _ in range(n)]
        return Matrix([
            [Scalar.inexact(rs[i] * cs[j] * cmath.exp(2j * math.pi * rng.random()) * rng.random())
             for j in range(n)]
            for i in range(n)
        ])

    return Representation(punctures, tuple(gen() for _ in range(punctures - 1)))


# Seeds of the two families above whose input made the former build (invert
# the product, multiply it back, require the identity) raise
# ProductNotIdentity.
_REJECTED = [("extreme", s) for s in (113, 345, 516, 1666, 2889)] + [
    ("graded", s)
    for s in (209, 240, 474, 475, 598, 740, 967, 2821, 3134, 3198, 3259, 3366, 3694,
              4302, 4874, 5317, 5375, 5781)
]

#: Relative distance allowed between a returned eigenvalue and the oracle's.
#: The product is formed in floating point, so its small eigenvalues (large
#: ones at infinity) carry the product's condition number.
ORACLE_REL_TOL = 1e-6


@pytest.mark.parametrize("family,seed", _REJECTED)
def test_rejected_closure_inputs_answer_correctly_or_raise(family, seed):
    mpmath = pytest.importorskip("mpmath")
    rep = (_extreme if family == "extreme" else _graded)(seed)
    try:
        prep = build(rep, 1e-9)
    except LogSplitError:
        return

    def exact(m: Matrix):
        return mpmath.matrix([[mpmath.mpc(complex(e)) for e in row] for row in m.rows])

    with mpmath.workdps(60):
        locals_ = [exact(g) for g in rep.generators]
        product = locals_[0] if len(locals_) == 1 else locals_[0] * locals_[1]
        locals_.append(product ** -1)
        spectra = [[complex(w) for w in mpmath.eig(m, left=False, right=False)] for m in locals_]
    for oracle, data in zip(spectra, prep.local_eigen):
        found = [p.value.z for p in data.pairs for _ in range(p.multiplicity)]
        assert len(found) == len(oracle)
        for z in found:
            best = min(oracle, key=lambda w: abs(w - z))
            assert abs(best - z) <= ORACLE_REL_TOL * abs(best)
            oracle.remove(best)
