import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from logsplit import OutOfBranch, Scalar

F = Fraction


class TestConstruction:
    def test_real_inputs_get_exact_axis_arguments(self):
        assert Scalar.exact(5).q == 0
        assert Scalar.exact(-1).q == F(1, 2)
        assert Scalar.exact(0, 2).q == F(1, 4)
        assert Scalar.exact(0, -3).q == F(3, 4)

    def test_general_cartesian_is_inexact(self):
        s = Scalar.exact(1, 1)
        assert not s.is_exact
        assert s.q is None
        assert s.z == 1 + 1j

    def test_zero_is_exact(self):
        z = Scalar.exact(0)
        assert z.is_exact_zero and z.is_exact and z.is_zero

    def test_polar_roundtrip(self):
        s = Scalar.polar(2, F(2, 3))
        assert s.q == F(2, 3)
        assert abs(s) == 2.0
        assert abs(s.z - 2 * complex(math.cos(4 * math.pi / 3), math.sin(4 * math.pi / 3))) < 1e-15

    def test_polar_quarter_turns_land_on_axes(self):
        assert Scalar.polar(3, F(1, 2)).z == -3 + 0j
        assert Scalar.polar(3, F(1, 4)).z == 3j
        assert Scalar.polar(3, F(3, 4)).z == -3j

    def test_polar_validation(self):
        with pytest.raises(OutOfBranch):
            Scalar.polar(1, F(5, 4))
        with pytest.raises(OutOfBranch):
            Scalar.polar(1, F(-1, 4))
        with pytest.raises(ValueError):
            Scalar.polar(0, F(1, 4))

    def test_inexact_never_promotes(self):
        s = Scalar.inexact(complex(2.0, 0.0))
        assert not s.is_exact
        assert s.q is None


class TestArithmetic:
    def test_product_adds_arguments_mod_one(self):
        a = Scalar.polar(2, F(2, 3))
        b = Scalar.polar(3, F(2, 3))
        p = a * b
        assert p.is_exact
        assert p.q == F(1, 3)
        assert abs(p) == 6.0

    def test_reciprocal_flips_argument(self):
        a = Scalar.polar(2, F(2, 3))
        assert a.reciprocal().q == F(1, 3)
        assert Scalar.exact(4).reciprocal().q == 0
        assert abs(Scalar.exact(4).reciprocal()) == 0.25

    def test_conjugate_complements_argument(self):
        assert Scalar.polar(1, F(1, 3)).conjugate().q == F(2, 3)
        assert Scalar.exact(7).conjugate().q == 0

    def test_colinear_addition_stays_exact(self):
        a = Scalar.polar(1, F(1, 3))
        b = Scalar.polar(2, F(1, 3))
        s = a + b
        assert s.is_exact and s.q == F(1, 3) and abs(s) == 3.0

    def test_opposite_addition_cancels_exactly(self):
        a = Scalar.exact(F(3, 4))
        b = Scalar.exact(F(-3, 4))
        assert (a + b).is_exact_zero
        c = Scalar.exact(F(1, 4))
        d = a + (-c)
        assert d.is_exact and d.q == 0 and abs(d) == 0.5

    def test_opposite_addition_sign_flip(self):
        a = Scalar.polar(1, F(1, 3))
        b = Scalar.polar(4, F(5, 6))
        s = a + b
        assert s.is_exact and s.q == F(5, 6) and abs(s) == 3.0

    def test_noncolinear_addition_degrades(self):
        s = Scalar.polar(1, F(1, 3)) + Scalar.exact(1)
        assert not s.is_exact
        assert abs(s.z - (complex(math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3)) + 1)) < 1e-15

    def test_zero_is_additive_identity_and_multiplicative_sink(self):
        zero = Scalar.exact(0)
        a = Scalar.polar(2, F(1, 3))
        assert (zero + a) is a
        assert (a + zero) is a
        assert (a * zero).is_exact_zero
        assert (a - a).is_exact_zero

    def test_number_coercion(self):
        a = Scalar.polar(2, F(1, 2))
        assert (a * 2).q == F(1, 2)
        assert abs(a * 2) == 4.0
        assert (a / 2).is_exact
        assert (1 / a).q == F(1, 2)
        assert abs(1 / a) == 0.5

    def test_real_one_divides_like_its_coercion(self):
        values = (Scalar.polar(2, F(1, 3)), Scalar.inexact(-0.0 + 3j), Scalar.inexact(1e-300 - 2j))
        for s in values:
            for one in (1, 1.0, F(1)):
                got, want = one / s, Scalar.exact(one) * s.reciprocal()
                assert (got.r, got.q) == (want.r, want.q)
                assert (got.z.real.hex(), got.z.imag.hex()) == (want.z.real.hex(), want.z.imag.hex())
        # A complex 1 is floating, and so is what it divides.
        assert not ((1 + 0j) / Scalar.exact(2)).is_exact

    def test_mixed_exact_inexact_degrades(self):
        a = Scalar.polar(1, F(1, 4))
        b = Scalar.inexact(2 + 0j)
        assert not (a * b).is_exact
        assert (a * b).z == 2j


class TestEquality:
    def test_exact_equality_is_structural(self):
        assert Scalar.polar(1, F(1, 2)) == Scalar.exact(-1)
        assert Scalar.polar(1, F(1, 3)) != Scalar.polar(1, F(2, 3))

    def test_same_value_exact_vs_tolerance(self):
        a = Scalar.polar(1, F(1, 3))
        b = Scalar.polar(1, F(1, 3))
        assert a.same_value(b, 0.0)
        c = Scalar.inexact(a.z + 1e-12)
        assert c.same_value(a, 1e-9)
        assert not c.same_value(a, 1e-15)


finite = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6)


@given(finite, finite, finite, finite)
def test_product_matches_complex_arithmetic(re1, im1, re2, im2):
    a = Scalar.exact(re1, im1)
    b = Scalar.exact(re2, im2)
    direct = complex(re1, im1) * complex(re2, im2)
    assert abs((a * b).z - direct) <= 1e-9 * (1.0 + abs(direct))


@given(finite, finite)
def test_conjugation_is_involutive(re, im):
    s = Scalar.exact(re, im)
    assert s.conjugate().conjugate() == s
