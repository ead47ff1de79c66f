"""The fused Aberth sweep of ``eigen._aberth_iterate``, held bit for bit to
the sweep it replaced.

``_reference_poly_eval`` and ``_reference_iterate`` are that sweep, kept
here as the model: every evaluation runs Horner's scheme with its running
roundoff bound, the repulsion tests each distance for zero, and the
largest step is taken by ``max``.  The fused sweep runs Horner's scheme
inline and forms the bound only where |p| is at most
``_roundoff_ceiling``, so the roots, the last evaluations and every
error must come out the same, float for float; a property test holds the
ceiling above the bound that it stands in for.
"""

import cmath
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logsplit import LogSplitError
from logsplit.eigen import (
    _aberth_iterate,
    _newton_polygon_starts,
    _poly_eval,
    _roundoff_ceiling,
)

_EPS = 2.0**-52


def _reference_poly_eval(coeffs, x):
    b = coeffs[0]
    d = 0j
    err = abs(b)
    ax = abs(x)
    for c in coeffs[1:]:
        d = d * x + b
        b = b * x + c
        err = abs(b) + ax * err
    return b, d, err * _EPS


def _reference_iterate(coeffs, z, budget):
    n = len(z)
    done = [False] * n
    evals = [None] * n
    exhausted = True
    for _ in range(budget):
        moved = 0.0
        for i in range(n):
            if done[i]:
                continue
            p, dp, noise = _reference_poly_eval(coeffs, z[i])
            if abs(p) <= noise < math.inf:
                done[i] = True
                evals[i] = p, dp, noise
                continue
            if dp == 0:
                z[i] += (1.0 + abs(z[i])) * 1e-6 * (1 + 1j)
                moved = math.inf
                continue
            newton = p / dp
            repulse = 0j
            collided = False
            for j in range(n):
                if j == i:
                    continue
                dz = z[i] - z[j]
                if dz == 0:
                    collided = True
                    break
                repulse += 1.0 / dz
            if collided:
                z[i] += (1.0 + abs(z[i])) * 1e-6 * (1 - 1j)
                moved = math.inf
                continue
            denom = 1.0 - newton * repulse
            w = newton if denom == 0 else newton / denom
            z[i] -= w
            moved = max(moved, abs(w) / (1.0 + abs(z[i])))
        if all(done) or moved < 64.0 * _EPS:
            exhausted = False
            break
    if not all(map(cmath.isfinite, z)):
        return "RootFindingDivergence", "root iteration left the floating-point range"
    for i in range(n):
        if not done[i]:
            p, dp, noise = evals[i] = _reference_poly_eval(coeffs, z[i])
            if exhausted and abs(p) > 1e3 * noise:
                return (
                    "RootFindingDivergence",
                    f"root iteration exhausted {budget} iterations with residual {abs(p):.3e}",
                )
    return _hexes(z, evals)


def _hex(z):
    return z.real.hex(), z.imag.hex()


def _hexes(z, evals):
    return [(_hex(x), _hex(p), _hex(dp), noise.hex()) for x, (p, dp, noise) in zip(z, evals)]


def _fused(coeffs, z, budget):
    try:
        return _hexes(*_aberth_iterate(coeffs, z, budget))
    except (ArithmeticError, LogSplitError) as exc:
        return type(exc).__name__, str(exc)


def _monic(roots):
    """Coefficients of prod (x - r), leading 1 first, in complex floats."""
    coeffs = [1 + 0j]
    for r in roots:
        coeffs = [a - r * b for a, b in zip(coeffs + [0j], [0j] + coeffs)]
    return coeffs


def _circle_starts(coeffs):
    # The first start of _aberth_solve.
    n = len(coeffs) - 1
    radius = math.exp(math.log(abs(coeffs[-1])) / n)
    return [radius * cmath.exp(1j * (2.0 * math.pi * k / n + 0.4)) for k in range(n)]


def _spread(rng, n):
    return [
        cmath.rect(10.0 ** rng.uniform(-3, 3), rng.uniform(-math.pi, math.pi)) for _ in range(n)
    ]


def _clustered(rng, n):
    # Pairs and triples of roots 1e-10 to 1e-4 apart, relative, around a
    # few centres, and an exact double root.
    centres = [cmath.rect(rng.uniform(0.5, 2.0), rng.uniform(-math.pi, math.pi)) for _ in range(3)]
    roots = [centres[0], centres[0]]
    while len(roots) < n:
        c = rng.choice(centres)
        roots.append(c * (1 + 10.0 ** rng.uniform(-10, -4) * cmath.exp(1j * rng.uniform(0, 6.3))))
    return roots


def _near_cut(rng, n):
    # Arguments within 1e-12 to 1e-6 turns of the positive real axis, on
    # either side, and one real root.
    roots = [rng.uniform(0.5, 2.0) + 0j]
    while len(roots) < n:
        q = rng.choice((-1, 1)) * 10.0 ** rng.uniform(-12, -6)
        roots.append(cmath.rect(rng.uniform(0.25, 4.0), 2.0 * math.pi * q))
    return roots


def _scaled(rng, n):
    # Every root at one scale, from 1e-30 to 1e31 (degree 3 only above 1e10,
    # so that the coefficients stay finite).
    scale = 10.0 ** rng.choice((-30, -12, 12, 29, 30, 31) if n == 3 else (-30, -8, 8))
    return [scale * r for r in _spread(rng, n)]


FAMILIES = {"spread": _spread, "clustered": _clustered, "near-cut": _near_cut, "scaled": _scaled}


def _cases(family, seed, count=12):
    rng = random.Random(seed)
    for _ in range(count):
        coeffs = _monic(FAMILIES[family](rng, rng.randint(3, 8)))
        yield coeffs, _circle_starts(coeffs)
        yield coeffs, _newton_polygon_starts(coeffs)


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("budget", [200, 4])
def test_the_fused_sweep_matches_the_reference_bit_for_bit(family, budget):
    # A budget of 4 leaves roots above their bounds: the trailing
    # evaluations, and the exhausted budget's error, are compared too.
    for coeffs, starts in _cases(family, seed=10 * sorted(FAMILIES).index(family) + budget):
        reference = _reference_iterate(coeffs, list(starts), budget)
        assert _fused(coeffs, list(starts), budget) == reference


_CUBE_ROOTS_OF_ONE = [1, cmath.exp(2j * math.pi / 3), cmath.exp(-2j * math.pi / 3)]


@pytest.mark.parametrize(
    "coeffs, starts",
    [
        # Two equal starting points: the second meets the first at distance
        # 0, and both take the collision nudge.
        (_monic([1, 2, 3]), [0.5 + 0.5j, 0.5 + 0.5j, -1]),
        (_monic([1, 2, 3, 4 + 1j]), [2j, 0.5, 2j, 0.5]),
        # x^3 - 1 from 0, where p' = 0: the derivative nudge.
        ([1, 0, 0, -1], [0, 2j, -1.5]),
        ([1, 0, -3, 1], [1, 2j, -1.5]),
        # Both, and roots the nudges leave close together.
        ([1, 0, 0, -1], [0, 0, 1]),
        (_monic(_CUBE_ROOTS_OF_ONE), [0, 0, 0]),
    ],
)
def test_the_nudges_match_the_reference(coeffs, starts):
    coeffs = [complex(c) for c in coeffs]
    starts = [complex(s) for s in starts]
    reference = _reference_iterate(coeffs, list(starts), 200)
    assert _fused(coeffs, list(starts), 200) == reference


def test_the_reference_poly_eval_is_the_library_one():
    # _poly_eval serves the trailing evaluations and the cluster centroids.
    rng = random.Random(3)
    for _ in range(200):
        coeffs = _monic(_spread(rng, rng.randint(3, 8)))
        x = cmath.rect(10.0 ** rng.uniform(-3, 3), rng.uniform(-4, 4))
        assert [_hex(v) if v.__class__ is complex else v.hex() for v in _poly_eval(coeffs, x)] == [
            _hex(v) if v.__class__ is complex else v.hex() for v in _reference_poly_eval(coeffs, x)
        ]


_points = st.builds(
    cmath.rect,
    st.floats(-40.0, 31.0).map(lambda e: 10.0**e),
    st.floats(-math.pi, math.pi),
)


@settings(max_examples=300)
@given(
    roots=st.lists(
        st.builds(cmath.rect, st.floats(-30.0, 30.0).map(lambda e: 10.0**e), st.floats(-4.0, 4.0)),
        min_size=3,
        max_size=8,
    ),
    x=_points,
    near=st.sampled_from([None, 1e-16, 1e-9, 1e-3]),
)
def test_the_ceiling_is_never_below_the_roundoff_bound(roots, x, near):
    coeffs = _monic(roots)
    if not all(map(cmath.isfinite, coeffs)):
        return
    if near is not None:
        # At and next to a root, where the bound is formed in earnest.
        x = roots[0] * (1 + near * x / abs(x))
    ceiling, reach = _roundoff_ceiling(coeffs)
    assert reach <= 1e30
    big = max(1.0, abs(x))
    if big < reach:
        # Below reach, no Horner value overflows abs and M**n is finite.
        assert _poly_eval(coeffs, x)[2] <= ceiling * big ** (len(coeffs) - 1)


@pytest.mark.parametrize("scale", [1e29, 9.99e29, 1e30, 1e-30, 1e-300])
def test_the_ceiling_holds_near_the_reach_and_at_tiny_points(scale):
    rng = random.Random(11)
    for _ in range(100):
        coeffs = _monic(_scaled(rng, 3))
        ceiling, reach = _roundoff_ceiling(coeffs)
        x = cmath.rect(scale * rng.uniform(0.5, 1.0), rng.uniform(-4, 4))
        big = max(1.0, abs(x))
        if big < reach:
            assert _poly_eval(coeffs, x)[2] <= ceiling * big**3


def test_an_overflowing_coefficient_modulus_leaves_no_reach():
    # Finite parts whose modulus is not: the bound is formed at every point.
    coeffs = [1 + 0j, 1.5e308 + 1.5e308j, 1 + 0j, -1 + 0j]
    assert _roundoff_ceiling(coeffs)[1] == 0.0
