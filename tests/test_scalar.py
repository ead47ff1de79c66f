import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logsplit import FloatRangeError, OutOfBranch, Scalar
from logsplit.scalar import (
    ONE,
    Q_HALF,
    Q_QUARTER,
    Q_THREE_QUARTERS,
    Q_ZERO,
    ZERO,
    _half_turn,
    is_exact,
)

F = Fraction


class TestConstruction:
    def test_real_inputs_get_exact_axis_arguments(self):
        assert Scalar.exact(5).q == 0
        assert Scalar.exact(-1).q == F(1, 2)
        assert Scalar.exact(0, 2).q == F(1, 4)
        assert Scalar.exact(0, -3).q == F(3, 4)

    def test_general_cartesian_is_inexact(self):
        s = Scalar.exact(1, 1)
        assert type(s) is complex
        assert s == 1 + 1j

    def test_zero_is_exact(self):
        z = Scalar.exact(0)
        assert z is ZERO and z.is_exact_zero and z.is_exact

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
        assert type(s) is complex
        assert abs(s - (complex(math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3)) + 1)) < 1e-15

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
                _assert_same(one / s, _value(Scalar.exact(one) * s.reciprocal()))
        # A complex 1 is floating, and so is what it divides.
        assert type((1 + 0j) / Scalar.exact(2)) is complex

    def test_mixed_exact_inexact_degrades(self):
        a = Scalar.polar(1, F(1, 4))
        b = Scalar.inexact(2 + 0j)
        assert type(a * b) is complex
        assert a * b == 2j


TURNS = (Q_ZERO, Q_QUARTER, Q_HALF, Q_THREE_QUARTERS)
#: Exact values at q = k/4, with distinct moduli so no sum cancels.
AXES = (Scalar.exact(2), Scalar.exact(0, 3), Scalar.exact(F(-5, 2)), Scalar.exact(0, -1))


class TestQuarterTurns:
    @pytest.mark.parametrize("k", range(4))
    @pytest.mark.parametrize("j", range(4))
    def test_axis_arithmetic_returns_the_shared_constants(self, k, j):
        a, b = AXES[k], AXES[j]
        assert a.q is TURNS[k]
        assert (-a).q is TURNS[(k + 2) % 4]
        assert a.reciprocal().q is TURNS[-k % 4]
        assert (a * b).q is TURNS[(k + j) % 4]
        assert (a / b).q is TURNS[(k - j) % 4]
        assert (a - a) is ZERO
        sums = ((a + b, j),) if j == k else ((a + b, j), (a - b, (j + 2) % 4))
        for total, turn in sums:
            if turn == k or (turn - k) % 4 == 2:
                assert total.q is TURNS[k] or total.q is TURNS[turn]
            else:
                assert not is_exact(total)

    def test_polar_maps_equal_arguments_onto_the_constants(self):
        assert Scalar.polar(3, F(2, 4)).q is Q_HALF
        assert Scalar.polar(3, "3/4").q is Q_THREE_QUARTERS
        assert Scalar.polar(3, 0).q is Q_ZERO
        assert Scalar.polar(3, F(1, 3)).q == F(1, 3)

    def test_an_axis_reached_through_other_turns_is_the_axis(self):
        for a, b, axis in (
            (F(1, 3), F(1, 6), Q_HALF),
            (F(5, 12), F(1, 12), Q_HALF),
            (F(1, 8), F(1, 8), Q_QUARTER),
        ):
            reached = Scalar.polar(2, a) * Scalar.polar(1, b)
            assert reached.q is axis
            direct = Scalar.polar(2, axis)
            for other in AXES:
                assert reached * other == direct * other
                assert reached + other == direct + other
                assert reached - other == direct - other
            assert -reached == -direct and reached.reciprocal() == direct.reciprocal()
            assert reached.z == direct.z


class TestEquality:
    def test_exact_equality_is_structural(self):
        assert Scalar.polar(1, F(1, 2)) == Scalar.exact(-1)
        assert Scalar.polar(1, F(1, 3)) != Scalar.polar(1, F(2, 3))


finite = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6)


@given(finite, finite, finite, finite)
def test_product_matches_complex_arithmetic(re1, im1, re2, im2):
    a = Scalar.exact(re1, im1)
    b = Scalar.exact(re2, im2)
    direct = complex(re1, im1) * complex(re2, im2)
    assert abs(complex(a * b) - direct) <= 1e-9 * (1.0 + abs(direct))


# -- arithmetic against a plain model ----------------------------------------
#
# Each operand is read as the value arithmetic sees: a Scalar as itself, a
# complex as a floating Scalar, an int, float or Fraction as an exact one.
# A floating result must be a complex, the complex operation on the
# operands' complex values, bit for bit; an exact result must carry the
# model's r and q.  A floating operand returned by a ZERO shortcut is
# floating too, so it comes back as its complex value.

any_float = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -1e300]
)
floating = st.builds(lambda re, im: Scalar.inexact(complex(re, im)), any_float, any_float)
moduli = st.fractions(min_value=F(1, 10**9), max_value=10**9)
# Small denominators make colinear and opposite sums likely, and quarter
# turns are drawn often.  Values come from Scalar.polar and, as arithmetic
# and the exact quadratic solve build them, from reduced pairs given to the
# constructor.
turns = (
    st.fractions(min_value=0, max_value=1, max_denominator=12)
    | st.fractions(min_value=0, max_value=1, max_denominator=10**12)
).filter(lambda q: q < 1) | st.sampled_from(TURNS)
polar = st.builds(Scalar.polar, moduli, turns) | st.builds(
    lambda r, q: Scalar(None, r.as_integer_ratio(), q.as_integer_ratio()), moduli, turns
)
scalars = floating | polar | st.just(ZERO) | st.fractions().map(Scalar.exact)
plain = (
    st.integers()
    | any_float
    | st.fractions()
    | st.builds(complex, any_float, any_float)
)
OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _value(x) -> Scalar:
    if isinstance(x, Scalar):
        return x
    return Scalar.inexact(x) if isinstance(x, complex) else Scalar.exact(x)


def _model_neg(x: Scalar) -> Scalar:
    if x is ZERO:
        return ZERO
    if x.is_exact:
        return Scalar.polar(x.r, (x.q + F(1, 2)) % 1)
    return Scalar.inexact(-x.z)


def _model_sum(x: Scalar, y: Scalar) -> Scalar:
    if x is ZERO:
        return y
    if y is ZERO:
        return x
    if x.is_exact and y.is_exact:
        if x.q == y.q:
            return Scalar.polar(x.r + y.r, x.q)
        if (y.q - x.q) % 1 == F(1, 2):
            d = x.r - y.r
            return ZERO if d == 0 else Scalar.polar(abs(d), x.q if d > 0 else y.q)
    return Scalar.inexact(x.z + y.z)


def _model_product(x: Scalar, y: Scalar) -> Scalar:
    if x is ZERO or y is ZERO:
        return ZERO
    if x.is_exact and y.is_exact:
        return Scalar.polar(x.r * y.r, (x.q + y.q) % 1)
    return Scalar.inexact(x.z * y.z)


def _model_reciprocal(y: Scalar) -> Scalar:
    if y is ZERO:
        raise ZeroDivisionError
    if y.is_exact:
        return Scalar.polar(1 / y.r, -y.q % 1)
    return Scalar.inexact(1.0 / y.z)


def _model(op: str, x: Scalar, y: Scalar) -> Scalar:
    if op == "+":
        return _model_sum(x, y)
    if op == "-":
        return _model_sum(x, _model_neg(y))
    if op == "*":
        return _model_product(x, y)
    return _model_product(x, _model_reciprocal(y))


def _bits(z: complex) -> tuple[str, str]:
    return z.real.hex(), z.imag.hex()


def _assert_same(got: Scalar | complex, want: Scalar) -> None:
    if want is ZERO:
        assert got is ZERO
    elif want.is_exact:
        assert isinstance(got, Scalar)
        assert (got.r, got.q) == (want.r, want.q)
        assert got == want and _bits(got.z) == _bits(want.z)
    else:
        assert type(got) is complex
        assert _bits(got) == _bits(want.z)


@settings(max_examples=400)
@given(st.sampled_from(sorted(OPS)), scalars, scalars | plain, st.booleans())
def test_arithmetic_matches_the_model(op, s, other, scalar_left):
    x, y = (s, other) if scalar_left else (other, s)
    try:
        want = _model(op, _value(x), _value(y))
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            OPS[op](x, y)
        return
    _assert_same(OPS[op](x, y), want)


@settings(max_examples=400)
@given(scalars, scalars | plain)
def test_difference_is_the_sum_with_the_negated_operand(s, other):
    # A difference is the sum with the negated operand: it must leave what
    # adding the negated operand leaves, bit for bit.
    want = s + (-_value(other))
    _assert_same(s - other, want if isinstance(want, Scalar) else Scalar.inexact(want))


@given(scalars)
def test_negation_matches_the_model(s):
    _assert_same(-s, _model_neg(s))


def test_half_turn_matches_fractions():
    for d in range(1, 201):
        for n in range(d):
            if math.gcd(n, d) == 1:
                want = ((F(n, d) + F(1, 2)) % 1).as_integer_ratio()
                assert _half_turn((n, d)) == want, (n, d)


# -- exact moduli against Fraction -------------------------------------------
#
# An exact modulus is a reduced integer pair; its Fraction, float and
# equality must be those of the Fraction it stands for, far outside the
# float range included.

BIG = 2**2000 // 3
big_moduli = st.builds(F, st.integers(1, BIG), st.integers(1, BIG)) | moduli
real_inputs = (
    st.integers(-BIG, BIG)
    | st.booleans()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.builds(F, st.integers(-BIG, BIG), st.integers(1, BIG))
)


def _float_of(r: F) -> float:
    """The model's float: float(Fraction), +-inf beyond the range."""
    try:
        return float(r)
    except OverflowError:
        return math.inf if r > 0 else -math.inf


def _assert_modulus(s: Scalar, r: F) -> None:
    assert s.r == r and type(s.r) is F
    assert abs(s).hex() == _float_of(r).hex()
    # Built on another route: from the model's Fraction.
    other = Scalar.polar(r, s.q)
    assert s == other and hash(s) == hash(other)


@given(real_inputs)
def test_constructors_read_the_exact_value(x):
    s = Scalar.exact(x)
    if x == 0:
        assert s is ZERO and s.r == 0
        return
    assert s.r == abs(F(x)) and s.q == (0 if x > 0 else F(1, 2))
    assert s == Scalar.exact(F(x)) and hash(s) == hash(Scalar.exact(F(x)))
    assert s.z == complex(_float_of(F(x)), 0.0)
    assert Scalar.exact(0, x).r == abs(F(x))
    if x > 0:
        assert Scalar.polar(x, F(1, 3)).r == F(x)


def test_constructors_reject_values_outside_the_float_range():
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(FloatRangeError):
            Scalar.exact(bad)
        with pytest.raises(FloatRangeError):
            Scalar.exact(0, bad)
        with pytest.raises(ValueError):
            Scalar.polar(bad, 0)


@given(big_moduli, big_moduli, st.sampled_from(TURNS) | st.sampled_from([F(1, 3), F(5, 6)]))
def test_modulus_arithmetic_matches_fractions(a, b, q):
    x, y = Scalar.polar(a, q), Scalar.polar(b, q)
    _assert_modulus(x * y, a * b)
    _assert_modulus(x.reciprocal(), 1 / a)
    _assert_modulus(x / y, a / b)
    _assert_modulus(x + y, a + b)
    d = x - y
    if a == b:
        assert d is ZERO
    else:
        _assert_modulus(d, abs(a - b))
        assert d.q == (q if a > b else (q + F(1, 2)) % 1)
    if q is Q_ZERO:
        assert (x * y).z == complex(_float_of(a * b), 0.0)
        assert (x + y).z == complex(_float_of(a + b), 0.0)


def test_moduli_beyond_the_float_range_read_as_inf():
    huge = Scalar.exact(10**400)
    assert abs(huge) == math.inf and huge.z == complex(math.inf, 0.0)
    assert abs(huge.reciprocal()) == 0.0
    assert abs(huge * huge.reciprocal()) == 1.0
    assert huge * huge.reciprocal() == ONE
    assert abs(Scalar.exact(0, -(10**400))) == math.inf
