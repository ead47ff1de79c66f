import math
import random
from fractions import Fraction

import pytest

from logsplit import (
    DEFAULT_CLUSTER_TOL,
    InputFormatError,
    Matrix,
    NonIntegralChernClass,
    ProductNotIdentity,
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
from conftest import block_diag, rand_invertible, rand_well_conditioned

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

    def test_modulus_closure_violation_is_rejected(self):
        rep = Representation(2, (Matrix([[2]]),))
        broken = PuncturedRepresentation(
            rep,
            (eigenvalues(Matrix([[2]])), eigenvalues(Matrix([[1]]))),
        )
        with pytest.raises(ProductNotIdentity):
            ohtsuki_c1(broken)

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
