"""The floating 2x2 route of ``eigenvalues``, pinned bit for bit.

A 2x2 matrix that is not triangular and whose characteristic polynomial
is not an exact rational quadratic is solved in floats: the closed form
of x^2 + b x + c, one clustering comparison, the centroids and the Newton
radius, all at the scale the polynomial is solved at: the matrix's own
when its largest entry modulus lies in [0.5, 2^100), else that of the
matrix scaled once by a power of two, whose eigenvalues alone are scaled
back.  Each case below pins the resulting EigenData (every float in
``float.hex``) and warnings, or the error, so that a rewrite of that
route which moves one bit fails here.  A sweep holds the answer of a
matrix times 2^k to its scale-1 answer, scaled, and each solve is made
once.  A differential test holds the one pass, whose clustering
comparison and Horner evaluation are written out, to the general
``_cluster_indices`` and ``_poly_eval`` that it replaces for two roots.
"""

import cmath
import math
import random
import sys
from fractions import Fraction

import pytest

from logsplit import FloatRangeError, LogSplitError, Matrix, Scalar, eigen
from logsplit.eigen import _from_float_roots, _from_quadratic, _poly_eval, eigenvalues

c = complex

#: The smallest tol at which the two roots of _BOUND merge, and the float
#: below it, which keeps them apart.
_MERGE_TOL = float.fromhex("0x1.7023987a94cb8p-7")
_SPLIT_TOL = math.nextafter(_MERGE_TOL, 0.0)

_BOUND = [[c(-0.6, 0.8), c(0.0025, 0.005)], [c(-0.00125, 0.000625), c(-0.61, 0.805)]]

# The large eigenvalue's |t| (|t| + |u|) would overflow Horner's roundoff
# bound to inf at this scale, and an infinite bound certifies nothing.
# Entries above 2^100 are solved at the scale 2^-512 instead, and the
# warnings are those of the matrix at every scale: BranchBoundary alone.
_NOISE_OVERFLOW = [[c(1.34e154, 1.0), c(1.0, 1.0)], [c(1.0, -1.0), c(1.0, 3.3e153)]]

CASES = {
    # Generic simple pairs.
    "generic": ([[c(1.5, 0.1), 2], [3, 4]], 1e-9),
    "generic-complex": ([[c(0.5, 0.25), c(1, -0.5)], [c(-0.75, 0.125), c(0.25, 1)]], 1e-9),
    # A Jordan block: the roots merge into one double eigenvalue, whose
    # Newton radius is large.
    "double": ([[c(2.5, 0.5), 1], [-1, c(0.5, 0.5)]], 1e-9),
    # Either side of tol * max(|x|, |y|).
    "bound-split": (_BOUND, _SPLIT_TOL),
    "bound-merged": (_BOUND, _MERGE_TOL),
    # Roots with negative zero parts, which the centroid's fold from 0j
    # turns positive.
    "negative-zero-imag": ([[c(3, -0.0), c(1, 0.0)], [c(2, 0.0), c(4, -0.0)]], 1e-9),
    "negative-zero-imag-left": ([[c(-3, -0.0), c(1, -0.0)], [c(2, -0.0), c(-4, -0.0)]], 1e-9),
    "negative-zero-real": ([[c(-0.0, -3), c(-0.0, 1)], [c(0.0, 2), c(-0.0, -4)]], 1e-9),
    # Finite coefficients whose closed form would overflow at scale 1 (4c
    # here, b^2 in the next): the roots are solved at the scale 2^-512.
    "closed-form-overflow": (
        [[c(1.2e154, 1e153), c(1e150, 1e150)], [c(1e150, -1e150), c(1.1e154, -1e153)]], 1e-9
    ),
    "closed-form-overflow-disc": (
        [[c(1.3e154, 1e150), c(1e150, 1e150)], [c(1e150, -1e150), c(-1.0e154, 1e150)]], 1e-9
    ),
    "horner-noise-overflow": (_NOISE_OVERFLOW, 1e-9),
    "horner-noise-overflow-scaled": (
        [[e * 2.0**-100 for e in row] for row in _NOISE_OVERFLOW], 1e-9
    ),
    # A determinant beyond the float range, and roots about 1.8e308 apart:
    # solved at the scale 2^-1024, where they lie apart.
    "distance-overflow": (
        [[c(1.3e308, 0.0), c(1e-300, 1e-300)], [c(1e-300, 1e-300), c(0.0, -1.3e308)]], 1e-9
    ),
    # Adjacent floats in one entry either side of below_singularity_threshold.
    "singular": ([[c(1, 1), c(1, 2)], [c(1.400000000001, 0.200000000002), c(2, 1)]], 1e-9),
    "not-singular": ([[c(1, 1), c(1, 2)], [c(1.4000000000010002, 0.200000000002), c(2, 1)]], 1e-9),
    # Merged roots whose sum would overflow at scale 1: their centroid is
    # taken at the scale 2^-1024, where it is finite, and scaled back.
    "centroid-overflow": (
        [[c(1.7e308, 1.0), c(1e290, 1e290)], [c(-1e290, 1e290), c(1.7e308, 1.0)]], 1e-9
    ),
    # An eigenvalue of 2.2e308 solved at the scale 2^-1024 cannot be scaled back.
    "scale-back-overflow": (
        [[c(1.2e308, 1e300), c(1.0e308, 2e300)], [c(1.0e308, 2e300), c(1.2e308, 1e300)]], 1e-9
    ),
}

EXPECTED = {
    "generic": (
        [
            ("0x1.5ffa17685d02dp+2", "0x1.bec99b4fecb04p-6", 1,
             "0x1.9dbedf008ec6ep-11", "0x1.b466e11bc292fp+0"),
            ("0x1.7a25e8bf4bfaep-12", "0x1.29e732c59e6d9p-4", 1,
             "0x1.fe624120ff714p-3", "-0x1.4f7c745164cb6p+1"),
        ],
        [],
    ),
    "generic-complex": (
        [
            ("0x1.301dde13d8cd2p-1", "0x1.8d7787e816923p+0", 1,
             "0x1.88e6cab16b27ap-3", "0x1.0436a971d2f3bp-1"),
            ("0x1.3f8887b09ccb8p-3", "-0x1.35de1fa05a48cp-2", 1,
             "0x1.a6cab2076af97p-1", "-0x1.13d454435d0b3p+0"),
        ],
        [],
    ),
    "double": (
        [
            ("0x1.8000000000000p+0", "0x1.0000000000000p-1", 2,
             "0x1.a37f5c4c419efp-5", "0x1.d5240f0e0e079p-2"),
        ],
        ["EigenvalueUncertain"],
    ),
    "bound-split": (
        [
            ("-0x1.3356d345df2ebp-1", "0x1.9945caa26640cp-1", 1,
             "0x1.68f8ed50cb972p-2", "-0x1.6d3f33ea805bdp-12"),
            ("-0x1.382e4b7272bcdp-1", "0x1.9c7cc4b9c2b4fp-1", 1,
             "0x1.69957d1649271p-2", "0x1.51aa797be9fb7p-7"),
        ],
        [],
    ),
    "bound-merged": (
        [
            ("-0x1.35c28f5c28f5cp-1", "0x1.9ae147ae147aep-1", 2,
             "0x1.69479ff1915a7p-2", "0x1.4710f830f7791p-8"),
        ],
        ["EigenvalueUncertain"],
    ),
    "negative-zero-imag": (
        [
            ("0x1.0000000000000p+1", "0x0.0p+0", 1,
             "0x0.0p+0", "0x1.62e42fefa39efp-1"),
            ("0x1.4000000000000p+2", "0x0.0p+0", 1,
             "0x0.0p+0", "0x1.9c041f7ed8d33p+0"),
        ],
        ["BranchBoundary"],
    ),
    "negative-zero-imag-left": (
        [
            ("-0x1.0000000000000p+1", "0x0.0p+0", 1,
             "0x1.0000000000000p-1", "0x1.62e42fefa39efp-1"),
            ("-0x1.4000000000000p+2", "0x0.0p+0", 1,
             "0x1.0000000000000p-1", "0x1.9c041f7ed8d33p+0"),
        ],
        [],
    ),
    "negative-zero-real": (
        [
            ("0x0.0p+0", "-0x1.0000000000000p+1", 1,
             "0x1.8000000000000p-1", "0x1.62e42fefa39efp-1"),
            ("0x0.0p+0", "-0x1.4000000000000p+2", 1,
             "0x1.8000000000000p-1", "0x1.9c041f7ed8d33p+0"),
        ],
        [],
    ),
    "closed-form-overflow": (
        [
            ("0x1.ca3d8f6dc51c9p+511", "0x1.317e4eef66fabp+508", 1,
             "0x1.b198cdf8faac2p-7", "0x1.62c8acc2dec2fp+8"),
            ("0x1.a40dc18ec7147p+511", "-0x1.317e4eef66fabp+508", 1,
             "0x1.f89cc48092f80p-1", "0x1.62b2914e93213p+8"),
        ],
        [],
    ),
    "closed-form-overflow-disc": (
        [
            ("0x1.f06d5a83abfd9p+511", "0x1.38d352e5096afp+498", 1,
             "0x1.9acbe33c5541bp-17", "0x1.62dc47ab7b9c6p+8"),
            ("-0x1.7dddf6e84bcaap+511", "0x1.38d352e5096aep+498", 1,
             "0x1.fffbd3ede49f7p-2", "0x1.62991d5d9d786p+8"),
        ],
        [],
    ),
    "horner-noise-overflow": (
        [
            ("0x1.ffb3abd82527bp+511", "0x0.0p+0", 1,
             "0x0.0p+0", "0x1.62e409c2b726bp+8"),
            ("0x1.81e9131abf0b8p-1", "0x1.f81083120dacdp+509", 1,
             "0x1.0000000000000p-2", "0x1.617d4c0d1007bp+8"),
        ],
        ["BranchBoundary"],
    ),
    "horner-noise-overflow-scaled": (
        [
            ("0x1.ffb3abd82527bp+411", "0x0.0p+0", 1,
             "0x0.0p+0", "0x1.1d937865e931bp+8"),
            ("0x1.81e9131abf0b8p-101", "0x1.f81083120dacdp+409", 1,
             "0x1.0000000000000p-2", "0x1.1c2cbab04212ap+8"),
        ],
        ["BranchBoundary"],
    ),
    "distance-overflow": (
        [
            ("0x1.72409614c1e69p+1023", "0x0.0p+0", 1,
             "0x0.0p+0", "0x1.62bab2845a695p+9"),
            ("0x0.0p+0", "-0x1.72409614c1e6ap+1023", 1,
             "0x1.8000000000000p-1", "0x1.62bab2845a695p+9"),
        ],
        ["BranchBoundary"],
    ),
    "singular": (
        "SingularMatrix", "2x2 determinant below tolerance at the scale of its entries"
    ),
    "not-singular": (
        [
            ("0x1.7ffffffffff53p+1", "0x1.0000000000c2ep+1", 1,
             "0x1.7f516f1bbdf7bp-4", "0x1.485042b318fc1p+0"),
            ("0x1.59fffffff6d62p-44", "-0x1.85bfffffffb43p-40", 1,
             "0x1.848442350e276p-1", "-0x1.b4dd4674cdf89p+4"),
        ],
        [],
    ),
    "centroid-overflow": (
        [
            ("0x1.e42d130773b76p+1023", "0x0.0p+0", 2,
             "0x0.0p+0", "0x1.62dd08fdc6f88p+9"),
        ],
        ["BranchBoundary", "EigenvalueUncertain"],
    ),
    "scale-back-overflow": (
        "FloatRangeError",
        "eigenvalue (1.2237906221789607+1.668805393880401e-08j) * 2**1024"
        " outside the floating-point range",
    ),
}


def _outcome(rows, tol):
    try:
        data = eigenvalues(Matrix(rows), tol)
    except LogSplitError as exc:
        return type(exc).__name__, str(exc)
    pairs = [
        (p.value.z.real.hex(), p.value.z.imag.hex(), p.multiplicity, p.q.hex(), p.ln_r.hex())
        for p in data.pairs
    ]
    return pairs, list(data.warnings)


@pytest.mark.parametrize("case", sorted(CASES))
def test_float_quadratic_route_is_bit_for_bit(case):
    assert _outcome(*CASES[case]) == EXPECTED[case]


@pytest.mark.parametrize("k", [0, -100, -200, 50])
def test_an_overflowing_roundoff_bound_warns_at_no_scale(k):
    rows = [[e * 2.0**k for e in row] for row in _NOISE_OVERFLOW]
    assert eigenvalues(Matrix(rows), 1e-9).warnings == ("BranchBoundary",)


def _ldexp(z, k):
    """``z * 2**k``; OverflowError where a nonzero part leaves the normal
    float range, above or below, where the scaling stops being exact."""
    w = complex(math.ldexp(z.real, k), math.ldexp(z.imag, k))
    if any(0.0 < abs(x) < sys.float_info.min for x in (w.real, w.imag)):
        raise OverflowError("a part below the normal float range")
    return w


def _scaled(data, k):
    """Each value of ``data`` times 2^k, with its multiplicity and q, and
    the warnings.  OverflowError when a scaled part leaves the normal float
    range or a scaled modulus overflows."""
    values = [_ldexp(p.value.z, k) for p in data.pairs]
    for z in values:
        abs(z)
    pairs = [
        (z.real.hex(), z.imag.hex(), p.multiplicity, p.q.hex())
        for z, p in zip(values, data.pairs)
    ]
    return pairs, data.warnings


@pytest.mark.parametrize(
    "case",
    [
        "generic",
        "generic-complex",
        "double",
        "bound-split",
        "negative-zero-imag",
        "negative-zero-imag-left",
        "negative-zero-real",
    ],
)
def test_every_scale_answers_the_scale_1_data_scaled(case):
    # From the scale-1 solve up and down to the last scale at which every
    # entry and eigenvalue part is normal and every modulus finite, past
    # the band of scales solved as given on both sides.
    rows, tol = CASES[case]
    base = eigenvalues(Matrix(rows), tol)
    for step in (1, -1):
        k = 0
        while True:
            try:
                expected = _scaled(base, k)
                # Each part scaled on its own keeps the sign of a zero part.
                scaled_rows = [[_ldexp(complex(e), k) for e in row] for row in rows]
            except OverflowError:
                break
            actual = eigenvalues(Matrix(scaled_rows), tol)
            assert _scaled(actual, 0) == expected, k
            k += step
        assert abs(k) > 1000


def test_a_modulus_beyond_the_range_takes_its_scale_from_the_largest_part():
    # Entries whose parts are finite and whose modulus is not.  The scale
    # comes from the largest part, 0.81 * 2^1024, so _BOUND itself is
    # solved, at the exponent 1024.  Scaled back, the larger eigenvalue,
    # 1.0104 * 2^1024, has finite parts and a modulus beyond the float range.
    rows = [[_ldexp(complex(e), 1024) for e in row] for row in _BOUND]
    larger = max((p.value.z for p in eigenvalues(Matrix(_BOUND), _SPLIT_TOL).pairs), key=abs)
    message = f"eigenvalue {_ldexp(larger, 1024)!r} outside the floating-point range"
    with pytest.raises(FloatRangeError) as info:
        eigenvalues(Matrix(rows), _SPLIT_TOL)
    assert str(info.value) == message


#: Matrices solved as given and once scaled: CI's Jordan block times 2^600,
#: _BOUND times 2^1024, whose eigenvalue then leaves the float range, and
#: at dimension 3 entries whose characteristic polynomial overflows.  The
#: overflow cases and the 3x3 times 2^341 have finite coefficients on which
#: a solve at scale 1 overflows, as the closed form or Horner's scheme.
#: The polar one is exact with a non-real trace: its exact polynomial,
#: formed to test for real coefficients, is the one solved.
_DIM3 = [[c(0.5, 0.3), 1, 0.25], [0.5, c(-0.7, 0.2), 1], [0.125, 0.5, c(1.5, -0.4)]]
_ONCE = {
    "generic": CASES["generic"][0],
    "jordan-2^600": [[complex(e) * 2.0**600 for e in row] for row in CASES["double"][0]],
    "bound-2^1024": [[_ldexp(complex(e), 1024) for e in row] for row in _BOUND],
    "closed-form-overflow": CASES["closed-form-overflow"][0],
    "horner-noise-overflow": _NOISE_OVERFLOW,
    "dim3": _DIM3,
    "dim3-2^341": [[complex(e) * 2.0**341 for e in row] for row in _DIM3],
    "dim3-1e120": [[1e120, 1, 0], [0, 2e120, 1], [1, 0, 3e120]],
    "polar": [[Scalar.polar(1, Fraction(1, 5)), 1], [1, Scalar.polar(1, Fraction(1, 3))]],
}


@pytest.mark.parametrize("case", sorted(_ONCE))
def test_each_floating_call_solves_once(monkeypatch, case):
    # One characteristic polynomial, formed after the scale is chosen, and
    # one solve of it.
    calls = {}
    hooks = ((eigen, "_from_quadratic"), (eigen, "_aberth_solve"), (Matrix, "char_poly"))
    for owner, name in hooks:

        def counted(*args, _solve=getattr(owner, name), _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            return _solve(*args)

        monkeypatch.setattr(owner, name, counted)
    try:
        eigenvalues(Matrix(_ONCE[case]), _SPLIT_TOL)
    except FloatRangeError:
        assert case == "bound-2^1024"
    assert calls.pop("char_poly") == 1
    assert list(calls.values()) == [1]


def _quadratic_model(b, c, tol):
    """The general route for x^2 + b x + c: the closed-form roots, then
    ``_from_float_roots``, which groups them with ``_cluster_indices`` and
    takes each Newton radius from ``_poly_eval``."""
    s = cmath.sqrt(b * b - 4.0 * c)
    if abs(b - s) > abs(b + s):
        s = -s
    t = -0.5 * (b + s)
    roots = [t, c / t]
    coeffs = [1 + 0j, b, c]
    return _from_float_roots(coeffs, roots, [_poly_eval(coeffs, r) for r in roots], tol)


def _bits(solve, b, c, tol):
    centroids, uncertain = solve(b, c, tol)
    return [(z.real.hex(), z.imag.hex(), size) for z, size in centroids], uncertain


def _on_axis(rng, z):
    """``z`` moved onto an axis, its other part a zero of either sign."""
    zero = rng.choice((0.0, -0.0))
    return complex(z.real, zero) if rng.random() < 0.5 else complex(zero, z.imag)


def _random_quadratics(rng, count):
    """(b, c, tol) of x^2 + b x + c with roots t and u: moduli from 1e-12
    to 1e30, those of 2x2 matrices in the solve band of ``eigenvalues``, u
    close to t or not, and parts of either sign of zero."""
    gaps = (0.0, 1e-15, 1e-10, 1e-9, 2e-9, 1e-6, 1e-3, 0.04, 1.0)
    for _ in range(count):
        scale = rng.choice((1.0, 1.0, 1.0, 1e24, 1e-6))
        t = scale * 10.0 ** rng.uniform(-6, 6) * cmath.exp(2j * math.pi * rng.random())
        if rng.random() < 0.4:
            gap = rng.choice(gaps) * rng.uniform(0.5, 2.0)
            u = t * (1.0 + gap * cmath.exp(2j * math.pi * rng.random()))
        else:
            u = scale * 10.0 ** rng.uniform(-6, 6) * cmath.exp(2j * math.pi * rng.random())
        if rng.random() < 0.2:
            t, u = _on_axis(rng, t), _on_axis(rng, u)
        b, c = -(t + u), t * u
        if c == 0:
            continue
        yield b, c, rng.choice((1e-9, 1e-9, 1e-6, 1e-3, 0.04))


def test_one_pass_matches_the_general_clustering_and_horner():
    rng = random.Random(5)
    sizes = set()
    for b, c, tol in _random_quadratics(rng, 20000):
        expected = _bits(_quadratic_model, b, c, tol)
        assert _bits(_from_quadratic, b, c, tol) == expected, (b, c, tol)
        sizes.add(len(expected[0]))
    # Both groupings were reached.
    assert sizes == {1, 2}


@pytest.mark.parametrize("case", ["bound-split", "bound-merged"])
def test_one_pass_matches_the_general_route_at_the_clustering_bound(case):
    rows, tol = CASES[case]
    _, b, c = map(complex, Matrix(rows).char_poly())
    assert _bits(_from_quadratic, b, c, tol) == _bits(_quadratic_model, b, c, tol)
