"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as the
criteria execute.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from logsplit import (
    ClassificationKind,
    Matrix,
    NonIntegralChernClass,
    PuncturedRepresentation,
    Representation,
    Scalar,
    build,
    character_root,
    classify,
    classify_dim2,
    conjugate,
    eigenvalues,
    invariant_lines,
    ohtsuki_c1,
)
from conftest import rand_invertible, rand_well_conditioned

F = Fraction


@contextmanager
def criterion(num: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {num}: PASS - {description}")


def test_criterion_1_golden_modular_example():
    with criterion(1, "golden modular-group input: c1 = -2, splitting [-1, -1], irreducible"):
        start = time.perf_counter()
        rep = Representation(
            3,
            (
                Matrix([[1, 0], [0, -1]]),
                Matrix([[F(-1, 2), 1], [F(3, 4), F(1, 2)]]),
            ),
        )
        report = classify(rep, 1e-9)
        elapsed = time.perf_counter() - start
        assert report.c1 == -2
        assert report.chern.exact and report.chern.integrality_defect == 0.0
        assert report.candidates[0].roots == (-1, -1)
        assert report.kind is ClassificationKind.THREE_DIM2_IRREDUCIBLE
        assert not report.ambiguous
        assert elapsed < 1.0

        # Every intermediate, exactly: the monodromy at infinity, each
        # puncture's q multiset, and its residue trace.
        m0, m1 = rep.generators
        assert (m0 @ m1).inverse() == Matrix([[F(-1, 2), -1], [F(3, 4), F(-1, 2)]])
        local = build(rep, 1e-9).local_eigen
        q_multisets = tuple({p.q: p.multiplicity for p in e.pairs} for e in local)
        assert q_multisets == (
            {F(0): 1, F(1, 2): 1},
            {F(0): 1, F(1, 2): 1},
            {F(1, 3): 1, F(2, 3): 1},
        )
        assert all(type(p.q) is F for e in local for p in e.pairs)
        traces = tuple(e.q_sum() for e in local)
        assert traces == (F(1, 2), F(1, 2), F(1)) and all(type(t) is F for t in traces)


def test_criterion_2_character_region_table():
    with criterion(2, "character region table exact on the quarter lattice (16 checks)"):
        lattice = (F(0), F(1, 4), F(1, 2), F(3, 4))
        checks = 0
        for q0 in lattice:
            for q1 in lattice:
                if q0 == 0 and q1 == 0:
                    expected = 0
                elif q0 + q1 <= 1:
                    expected = -1
                else:
                    expected = -2
                assert character_root(q0, q1) == expected
                checks += 1
        assert checks == 16


def test_criterion_3_two_puncture_property_suite():
    with criterion(3, "100 random two-puncture inputs: roots, count law, conjugation"):
        start = time.perf_counter()
        rng = random.Random(20250801)
        for trial in range(100):
            n = rng.randint(1, 6)
            m = rand_invertible(rng, n, det_floor=1e-6)
            rep = Representation(2, (m,))
            report = classify(rep, 1e-9)
            roots = report.candidates[0].roots
            assert set(roots) <= {0, -1}
            gen_eigen = build(rep, 1e-9).local_eigen[0]
            k = sum(p.multiplicity for p in gen_eigen.pairs if p.q != 0)
            assert -report.c1 == k
            assert report.chern.integrality_defect < 1e-6

            s = rand_well_conditioned(rng, n, 1e3)
            conjugated = classify(conjugate(rep, s), 1e-9)
            assert conjugated.kind is report.kind
            assert conjugated.c1 == report.c1
            assert conjugated.candidates[0].roots == roots
        assert time.perf_counter() - start < 10.0


def test_criterion_4_minus_one_character():
    with criterion(4, "character sending both generators to -1 splits as O(-1)"):
        rep = Representation(3, (Matrix([[-1]]), Matrix([[-1]])))
        report = classify(rep, 1e-9)
        assert report.candidates[0].roots == (-1,)
        assert report.c1 == -1


def test_criterion_5_irreducible_parity_suite():
    with criterion(5, "200 irreducible 2x2 pairs: balanced roots, degree law, parity"):
        start = time.perf_counter()
        rng = random.Random(20250802)
        accepted = 0
        while accepted < 200:
            m0 = rand_invertible(rng, 2)
            m1 = rand_invertible(rng, 2)
            if invariant_lines(m0, m1, 1e-9).lines:
                continue
            accepted += 1
            report = classify_dim2(build(Representation(3, (m0, m1)), 1e-9), 1e-9)
            assert report.kind is ClassificationKind.THREE_DIM2_IRREDUCIBLE
            r1, r2 = report.candidates[0].roots
            assert abs(r1 - r2) <= 1
            assert r1 + r2 == report.c1
            assert (report.c1 % 2 == 0) == (r1 == r2)
        assert time.perf_counter() - start < 10.0


def test_criterion_6_decomposable_oracle_equivalence():
    with criterion(6, "50 exact-polar character sums match the independent root oracle"):
        rng = random.Random(20250803)
        for _ in range(50):
            qs = [F(rng.randint(0, k), k + 1) for k in rng.choices(range(1, 30), k=4)]
            rs = [F(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(4)]
            m0 = Matrix([[Scalar.polar(rs[0], qs[0]), 0], [0, Scalar.polar(rs[1], qs[1])]])
            m1 = Matrix([[Scalar.polar(rs[2], qs[2]), 0], [0, Scalar.polar(rs[3], qs[3])]])
            report = classify_dim2(build(Representation(3, (m0, m1)), 1e-9), 1e-9)
            expected = tuple(
                sorted(
                    (character_root(qs[0], qs[2]), character_root(qs[1], qs[3])),
                    reverse=True,
                )
            )
            assert report.candidates[0].roots == expected
            assert report.chern.exact


def test_criterion_7_ambiguity_reproduction():
    with criterion(7, "unique-line (0.6, 0.6)/(0, 0) input reports both candidates"):
        lam = Scalar.polar(1, F(3, 5))
        rep = Representation(3, (Matrix([[lam, 0], [0, 1]]), Matrix([[lam, 1], [0, 1]])))
        report = classify(rep, 1e-9)
        assert report.kind is ClassificationKind.THREE_DIM2_REDUCIBLE_AMBIGUOUS
        assert report.ambiguous
        assert tuple(c.roots for c in report.candidates) == ((-1, -1), (0, -2))
        assert report.c1 == -2
        assert report.chern.exact and report.chern.integrality_defect == 0.0


def test_criterion_8_closure_invariants():
    with criterion(8, "integrality holds or raises; the modulus closure is reported"):
        rng = random.Random(20250804)
        for punctures in (2, 3):
            for _ in range(10):
                n = rng.randint(1, 4)
                gens = tuple(rand_invertible(rng, n) for _ in range(punctures - 1))
                prep = build(Representation(punctures, gens), 1e-9)
                chern = ohtsuki_c1(prep)
                ln_scale = 1.0 + sum(
                    abs(p.ln_r) * p.multiplicity for e in prep.local_eigen for p in e.pairs
                )
                assert chern.ln_r_closure_defect < 1e-8 * ln_scale
                assert chern.integrality_defect < 1e-6

        # An integrality violation must surface as a typed error.
        rep = Representation(2, (Matrix([[Scalar.polar(1, F(1, 4))]]),))
        broken_q = PuncturedRepresentation(
            rep,
            (eigenvalues(Matrix([[Scalar.polar(1, F(1, 4))]])), eigenvalues(Matrix([[1]]))),
        )
        with pytest.raises(NonIntegralChernClass):
            ohtsuki_c1(broken_q)

        # c1 reads only the q's: moduli that do not close up answer, and
        # their defect is reported.
        rep2 = Representation(2, (Matrix([[2]]),))
        open_ln = PuncturedRepresentation(
            rep2,
            (eigenvalues(Matrix([[2]])), eigenvalues(Matrix([[1]]))),
        )
        chern = ohtsuki_c1(open_ln)
        assert chern.c1 == 0 and chern.exact
        assert chern.ln_r_closure_defect == math.log(2)
