"""Exact complex scalars, and the arithmetic that mixes them with floats.

The classification downstream is discontinuous in the normalized argument
q of an eigenvalue (q = 0 versus q != 0 picks a different twisting sheaf),
so floating noise on the positive real axis is fatal.  A :class:`Scalar`
therefore carries, whenever its provenance allows, the exact value
``r * exp(2*pi*i*q)``: a rational modulus ``r > 0`` times e(q), with q
rational in [0, 1) (a float input is read as its exact dyadic value).
Arithmetic keeps the exact form alive through the operations that
preserve it (products, reciprocals, negation, addition of colinear
values), so exact zero tests decide on exact data, and degrades to a
plain ``complex`` otherwise: every floating result is a ``complex``,
computed on the operands' complex values in the order they are written,
and a ``complex`` operand is a floating value.  The complex value of an
exact scalar is derived when it is first read.  One exact modulus is
rounded: the irrational modulus of a root of a rational quadratic whose
q is exact, which eigen._exact_quadratic rounds from
``numerator / denominator`` floats of its coefficients, scaled by a
power of two when they leave the normal float range.

Both r and q are held as reduced pairs ``(numerator, denominator)`` of
``int``s, q with ``0 <= numerator < denominator``; products, reciprocals,
negations and colinear sums are done on the pairs, not with Fraction
arithmetic: a product reduces with ``math.gcd``, and a negation, like the
test whether two values of a sum are opposite, adds a half turn reduced
by one gcd (``_half_turn``).  A difference is the sum with the negated
operand.
``Scalar.r`` and ``Scalar.q`` build their Fractions when read, and no
arithmetic here reads them; ``.q`` of a quarter turn is its shared
constant (Q_ZERO, Q_QUARTER, Q_HALF or Q_THREE_QUARTERS).  Downstream a
Fraction is built only for ``EigenPair.q`` and ``EigenData.q_sum``
(eigen.py).
The float modulus is ``numerator / denominator``, which is how
``float(Fraction)`` rounds, and inf beyond the float range.  Code
outside this module reads an exact real as a signed pair with
``real_ratio``, clears the denominators of exact reals with
``cleared``, builds a real from a signed pair with ``real_scalar``
and a polar value from a modulus pair and a turn pair with
``Scalar(None, r, q)``, as the exact quadratic solve does, and compares
two moduli with ``modulus_at_least``, exactly when both values are exact.

Exactness is provenance, not coincidence: values produced by the float
root finder stay inexact even when their imaginary part happens to vanish,
so that boundary warnings still fire for them.  A floating Scalar only
boxes such a value where a Scalar is promised, as for an eigenvalue
(``Scalar.inexact``, or ``Scalar(z, None, None)`` for a ``complex`` z,
as eigen.py builds one); arithmetic on it gives a ``complex`` too.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import gcd

from .errors import FloatRangeError, OutOfBranch

_TWO_PI = 2.0 * math.pi

Q_ZERO = Fraction(0)
Q_QUARTER = Fraction(1, 4)
Q_HALF = Fraction(1, 2)
Q_THREE_QUARTERS = Fraction(3, 4)

#: The Fraction that ``Scalar.q`` returns for each quarter turn pair.
_QUARTER_TURNS = {(0, 1): Q_ZERO, (1, 4): Q_QUARTER, (1, 2): Q_HALF, (3, 4): Q_THREE_QUARTERS}


def _to_float(x: Fraction | int | float) -> float:
    """``float(x)``, with values beyond the float range becoming +-inf."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _ratio(x: Fraction | int | float) -> tuple[int, int]:
    """The reduced ``(numerator, denominator)`` of a finite real number."""
    try:
        return x.as_integer_ratio()
    except (OverflowError, ValueError) as exc:  # inf or nan
        raise FloatRangeError(f"{x!r} is not a finite number") from exc


def _ratio_float(r: tuple[int, int]) -> float:
    """An exact modulus as a float, rounded as ``float(Fraction)`` rounds;
    inf beyond the float range."""
    try:
        return r[0] / r[1]
    except OverflowError:
        return math.inf


def _ratio_sum(r: tuple[int, int], s: tuple[int, int]) -> tuple[int, int]:
    """``r + s`` reduced; numerators of either sign (0 for a zero sum)."""
    a, b = r
    c, d = s
    if b == d:
        n = a + c
    else:
        n = a * d + c * b
        b *= d
    g = gcd(n, b)
    return n // g, b // g


def _half_turn(q: tuple[int, int]) -> tuple[int, int]:
    """``(q + 1/2) mod 1`` of a reduced turn ``q = n / d``, reduced:
    ``(2n + d) mod 2d`` over ``2d``."""
    n, d = q
    n, d = (2 * n + d) % (2 * d), 2 * d
    g = gcd(n, d)
    return n // g, d // g


def _polar_to_complex(r: tuple[int, int], q: tuple[int, int]) -> complex:
    # Quarter turns hit the axes exactly; sin/cos of their float angles do not.
    r_f = _ratio_float(r)
    n, d = q
    if d == 1:
        return complex(r_f, 0.0)
    if d == 2:
        return complex(-r_f, 0.0)
    if d == 4:
        return complex(0.0, r_f if n == 1 else -r_f)
    a = _TWO_PI * (n / d)  # float(Fraction(n, d))
    return complex(r_f * math.cos(a), r_f * math.sin(a))


class Scalar:
    """Immutable complex scalar, exact or a boxed float.

    States:
      * exact zero      -- the ``ZERO`` singleton, tested by identity
      * exact polar     -- ``_r`` the modulus > 0 and ``_q`` the argument in
                           [0, 1), each a reduced int pair ``(numerator,
                           denominator)`` (``.r`` and ``.q`` build their
                           Fractions); ``_z`` is None until the complex
                           value is read
      * inexact (float) -- ``_r`` and ``_q`` None, ``_z`` the complex value
    """

    __slots__ = ("_z", "_r", "_q")

    def __init__(self, z: complex | None, r: tuple[int, int] | None, q: tuple[int, int] | None):
        self._z = z
        self._r = r
        self._q = q

    # -- constructors -------------------------------------------------

    @classmethod
    def exact(
        cls, re: float | int | Fraction = 0, im: float | int | Fraction = 0
    ) -> "Scalar | complex":
        """Exactly specified cartesian value.

        Real and purely imaginary inputs land on a known axis, so their
        branch argument is exact (0, 1/4, 1/2 or 3/4) and their modulus is
        the exact rational value of the input; anything else has no
        representable exact argument and is returned as a ``complex``.
        """
        if im == 0:
            if re == 0:
                return _ZERO
            n, d = _ratio(re)
            return cls(None, (n, d), (0, 1)) if n > 0 else cls(None, (-n, d), (1, 2))
        if re == 0:
            n, d = _ratio(im)
            return cls(None, (n, d), (1, 4)) if n > 0 else cls(None, (-n, d), (3, 4))
        try:
            return complex(re, im)
        except OverflowError:
            return complex(_to_float(re), _to_float(im))

    @classmethod
    def polar(cls, r: float | int | Fraction, q: Fraction | int | str) -> "Scalar":
        """Exact polar value ``r * exp(2*pi*i*q)`` with q rational in [0, 1)."""
        q_frac = q if q.__class__ is Fraction else Fraction(q)
        if not 0 <= q_frac < 1:
            raise OutOfBranch(f"polar argument q must lie in [0, 1), got {q_frac}")
        if isinstance(r, float) and not math.isfinite(r) or not r > 0:
            raise ValueError(f"polar modulus must be a finite positive real, got {r}")
        return cls(None, _ratio(r), q_frac.as_integer_ratio())

    @classmethod
    def inexact(cls, z: complex) -> "Scalar":
        """A floating value boxed as a Scalar, with no exactness claim (an
        iterated root, where a Scalar is promised)."""
        return cls(complex(z), None, None)

    # -- state predicates ---------------------------------------------

    @property
    def is_exact(self) -> bool:
        return self._r is not None

    @property
    def is_exact_zero(self) -> bool:
        return self is _ZERO

    @property
    def q(self) -> Fraction | None:
        """Exact normalized argument as a Fraction, when known: the shared
        constant for a quarter turn."""
        q = self._q
        if q is None:
            return None
        turn = _QUARTER_TURNS.get(q)
        return Fraction(*q) if turn is None else turn

    @property
    def r(self) -> Fraction | None:
        """Exact modulus as a Fraction, when known (0 for the exact zero)."""
        r = self._r
        return None if r is None else Fraction(*r)

    @property
    def z(self) -> complex:
        z = self._z
        if z is None:
            z = self._z = _polar_to_complex(self._r, self._q)
        return z

    def __complex__(self) -> complex:
        return self.z

    def __abs__(self) -> float:
        """The float modulus; inf beyond the float range, as for an exact
        modulus."""
        if self._r is not None:
            return _ratio_float(self._r)
        return modulus(self._z)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other) -> "Scalar | complex":
        o = other if other.__class__ is Scalar else value_of(other)
        if o is None:
            return NotImplemented
        if self is _ZERO:
            return o if o.__class__ is complex or o._r is not None else o._z
        if o is _ZERO:
            return self if self._r is not None else self._z
        if o.__class__ is complex:
            return self.z + o
        q, oq = self._q, o._q
        if q is None or oq is None:
            return self.z + o.z
        if q == oq:
            return Scalar(None, _ratio_sum(self._r, o._r), q)
        if _half_turn(q) == oq:
            on, od = o._r
            n, d = _ratio_sum(self._r, (-on, od))
            if n > 0:
                return Scalar(None, (n, d), q)
            if n < 0:
                return Scalar(None, (-n, d), oq)
            return _ZERO
        return self.z + o.z

    __radd__ = __add__

    def __neg__(self) -> "Scalar | complex":
        if self is _ZERO:
            return self
        q = self._q
        if q is not None:
            return Scalar(None, self._r, _half_turn(q))
        return -self._z

    def __sub__(self, other) -> "Scalar | complex":
        o = other if other.__class__ is Scalar else value_of(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "Scalar | complex":
        o = value_of(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other) -> "Scalar | complex":
        o = other if other.__class__ is Scalar else value_of(other)
        if o is None:
            return NotImplemented
        if self is _ZERO or o is _ZERO:
            return _ZERO
        if o.__class__ is complex:
            return self.z * o
        q, oq = self._q, o._q
        if q is None or oq is None:
            return self.z * o.z
        # The moduli's product reduced across (each numerator by the other
        # denominator), and the turns' sum reduced mod 1.
        a, b = self._r
        c, d = o._r
        g, h = gcd(a, d), gcd(c, b)
        n, m = q
        on, om = oq
        if m == om:
            n += on
        else:
            n = n * om + on * m
            m *= om
        k = gcd(n, m)
        m //= k
        return Scalar(None, ((a // g) * (c // h), (b // h) * (d // g)), (n // k % m, m))

    __rmul__ = __mul__

    def reciprocal(self) -> "Scalar | complex":
        if self is _ZERO:
            raise ZeroDivisionError("reciprocal of exact zero")
        q = self._q
        if q is not None:
            n, d = self._r
            qn, qd = q
            return Scalar(None, (d, n), (-qn % qd, qd))
        return 1.0 / self._z

    def __truediv__(self, other) -> "Scalar | complex":
        o = value_of(other)
        if o is None:
            return NotImplemented
        return self * (1.0 / o if o.__class__ is complex else o.reciprocal())

    def __rtruediv__(self, other) -> "Scalar | complex":
        o = value_of(other)
        if o is None:
            return NotImplemented
        return o * self.reciprocal()

    # -- comparison -----------------------------------------------------

    def __eq__(self, other) -> bool:
        o = value_of(other)
        if o is None:
            return NotImplemented
        if o.__class__ is Scalar and self._r is not None:  # both exact
            return self._r == o._r and self._q == o._q
        return self.z == complex(o)

    def __hash__(self) -> int:
        return hash(self.z)

    def __repr__(self) -> str:
        if self is _ZERO:
            return "Scalar(0)"
        if self._q is not None:
            return f"Scalar({self.r}*e2pi({self.q}))"
        return f"Scalar({self._z!r})"


def value_of(x) -> Scalar | complex | None:
    """A number as the package holds it: an exact value as a Scalar (a
    real int, float or Fraction is exact), a floating one as a ``complex``
    (a floating Scalar unboxed); None for anything else."""
    if x.__class__ is Scalar:
        return x if x._r is not None else x._z
    if isinstance(x, complex):
        return complex(x)
    if isinstance(x, (int, float, Fraction)):
        return Scalar.exact(x)
    return None


def modulus(x: Scalar | complex) -> float:
    """``abs(x)``, inf where a complex's modulus leaves the float range."""
    try:
        return abs(x)
    except OverflowError:  # abs of a complex with finite parts can raise it
        return math.inf


def is_exact(x: Scalar | complex) -> bool:
    return x.__class__ is Scalar and x._r is not None


def modulus_at_least(x: Scalar | complex, y: Scalar | complex) -> bool:
    """``|x| >= |y|``, on the exact moduli when both values are exact (a
    nonzero modulus whose float is 0.0 still counts), else on the float
    moduli."""
    if is_exact(x) and is_exact(y):
        (a, b), (c, d) = x._r, y._r
        return a * d >= c * b
    return modulus(x) >= modulus(y)


def modulus_frexp(x: Scalar) -> tuple[float, int]:
    """``math.frexp`` of the modulus of an exact Scalar, taken on its int
    pair, so that a modulus whose float under- or overflows keeps its
    exponent: the mantissa in [0.5, 1) (rounded, so possibly 1.0) and the
    exponent; (0.0, 0) for the exact zero."""
    n, d = x._r
    if not n:
        return 0.0, 0
    exp = n.bit_length() - d.bit_length()
    # n / d lies in (2^(exp - 1), 2^(exp + 1)), so num / den in (0.5, 2).
    num, den = (n, d << exp) if exp >= 0 else (n << -exp, d)
    if num >= den:
        return num / (den << 1), exp + 1
    return num / den, exp


def real_ratio(x: Scalar | complex) -> tuple[int, int] | None:
    """The signed reduced ``(numerator, denominator)`` of an exact real
    Scalar, ``(0, 1)`` for the exact zero; None for any other value."""
    if x.__class__ is not Scalar:
        return None
    q = x._q
    if x is _ZERO or q == (0, 1):
        return x._r
    if q == (1, 2):
        return -x._r[0], x._r[1]
    return None


def real_scalar(n: int, d: int) -> Scalar:
    """The exact real ``n / d``, for ``d > 0``, as ``Scalar.exact`` holds
    it: ZERO for ``n = 0``."""
    if not n:
        return _ZERO
    g = gcd(n, d)
    if n > 0:
        return Scalar(None, (n // g, d // g), (0, 1))
    return Scalar(None, (-n // g, d // g), (1, 2))


def cleared(values) -> tuple[int, tuple[int, ...]] | None:
    """``(s, ints)`` for exact real ``values``: s the lcm of their
    denominators and ``ints`` the tuple of the ints ``s * x``; None when a
    value is not an exact real.  A floating first value ends the probe at
    its class check."""
    ratios = []
    for x in values:
        r = real_ratio(x)
        if r is None:
            return None
        ratios.append(r)
    s = math.lcm(*[d for _, d in ratios])
    return s, tuple([n * (s // d) for n, d in ratios])


def quotient(x: Scalar | complex, y: Scalar | complex) -> Scalar | complex:
    """``x / y`` as Scalars divide: complex values as ``x * (1.0 / y)``."""
    return x * (1.0 / y) if x.__class__ is complex and y.__class__ is complex else x / y


_ZERO = Scalar(0j, (0, 1), None)

ZERO = _ZERO
ONE = Scalar.exact(1)
