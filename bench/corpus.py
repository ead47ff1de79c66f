"""Seeded inputs for the four workloads, each paired with its oracle answer.

A generator takes the workload seed as its argument and returns one round:
the fixed list of operations every run repeats whole.  Nothing here
imports logsplit; the payloads are plain Fractions, (r, q) polar pairs,
JSON text or a step count, and the expected answers come from
:mod:`oracles`.

Margins keep every seeded input a clear distance from the program's
thresholds, so that no seeded operation can fail.  The one slice that does
fail is ``exact-3p``'s conjugated reducible pairs: it is drawn from the
fixed ``FAULT_SEED`` and never from the workload seed, so its failed count
is the same on every run.
"""

from __future__ import annotations

import cmath
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction as F

import oracles as o

#: Seed of the conjugated reducible rational pairs (the exactness fault).
FAULT_SEED = 7
FAULT_PAIRS = 120
IRREDUCIBLE_PAIRS = 60
POLAR_PAIRS = 20
#: The exact conjugator of the fault slice.
FAULT_S = ((F(1), F(1, 3)), (F(2, 7), F(5, 3)))

FLOAT_3P_DOCS = 100
DIM8 = 8
DIM8_DOCS = 50
SWEEP_STEPS = 64

#: Distance every float q keeps from the cut, and every float character's
#: q0 + q1 from 1.
Q_MARGIN = 0.03
#: Relative separation of distinct float eigenvalues, and relative size of
#: the reducibility witnesses (cross term, commutator determinant).
SEPARATION = 0.05
#: Relative size of a rational discriminant away from 0: keeps real pairs
#: from merging and complex pairs away from the real axis.
DISC_MARGIN = F(1, 1000)


@dataclass(frozen=True)
class Item:
    """One operation: its input, the oracle's answer and bookkeeping."""

    payload: object
    expected: object
    #: In the slice the exactness fault breaks; a failure here is expected.
    fault: bool = False
    #: Work units counted by items_per_s (CSV rows for sweep, else 1).
    units: int = 1
    #: Constructed spectrum (float-2p-dim8), for the traced eigenvalue check.
    spectrum: tuple = ()


def make_round(workload: str, seed: int) -> list[Item]:
    return GENERATORS[workload](seed)


# ---------------------------------------------------------------------------
# exact-3p


def _small_ratio(rng: random.Random) -> F:
    return F(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))


def _upper(rng: random.Random):
    return ((_small_ratio(rng), _small_ratio(rng)), (F(0), _small_ratio(rng)))


def _conjugate(s, m):
    return o.mul2(o.mul2(s, m), o.inv2(s))


def fault_pairs() -> list[Item]:
    """Reducible rational pairs conjugated by ``FAULT_S``; seed-independent."""
    rng = random.Random(FAULT_SEED)
    items = []
    for _ in range(FAULT_PAIRS):
        t0, t1 = _upper(rng), _upper(rng)
        m0, m1 = _conjugate(FAULT_S, t0), _conjugate(FAULT_S, t1)
        items.append(Item((m0, m1), o.rational_pair_expected(m0, m1, (t0, t1)), fault=True))
    return items


def _disc_clear(m) -> bool:
    t, d = m[0][0] + m[1][1], o.det2(m)
    return abs(o.rational_disc(m)) >= DISC_MARGIN * (t * t + 4 * abs(d))


def _frob_sq(m) -> F:
    return sum(e * e for row in m for e in row)


def irreducible_pairs(rng: random.Random, count: int) -> list[Item]:
    items = []
    while len(items) < count:
        g0 = ((_small_ratio(rng), _small_ratio(rng)), (_small_ratio(rng), _small_ratio(rng)))
        g1 = ((_small_ratio(rng), _small_ratio(rng)), (_small_ratio(rng), _small_ratio(rng)))
        s = ((_small_ratio(rng), _small_ratio(rng)), (_small_ratio(rng), _small_ratio(rng)))
        if 0 in (o.det2(g0), o.det2(g1), o.det2(s)):
            continue
        m0, m1 = _conjugate(s, g0), _conjugate(s, g1)
        comm = o.sub2(o.mul2(m0, m1), o.mul2(m1, m0))
        if abs(o.det2(comm)) < DISC_MARGIN * _frob_sq(m0) * _frob_sq(m1):
            continue
        if not all(_disc_clear(m) for m in (m0, m1, o.inv2(o.mul2(m0, m1)))):
            continue
        items.append(Item((m0, m1), o.rational_pair_expected(m0, m1)))
    return items


_POLAR_Q = tuple(F(k, 12) for k in range(12))
_POLAR_R = (F(1, 2), F(1), F(3, 2), F(2))


def polar_pairs(rng: random.Random, count: int) -> list[Item]:
    """Triangular exact-polar pairs diag(a0, d0), [[a1, b1], [0, d1]] with
    a0 != d0 and b1 != 0; every other one is a (-2, 0) ambiguous pair."""
    def polar(q):
        return (rng.choice(_POLAR_R), q)

    items = []
    while len(items) < count:
        if len(items) % 2 == 0:
            qa0, qa1 = rng.choice(_POLAR_Q[1:]), rng.choice(_POLAR_Q[1:])
            if qa0 + qa1 <= 1:
                continue
            a0, a1, d0, d1 = polar(qa0), polar(qa1), polar(F(0)), polar(F(0))
        else:
            a0, a1, d0, d1 = (polar(rng.choice(_POLAR_Q)) for _ in range(4))
            if a0 == d0:
                continue
        b1 = polar(rng.choice(_POLAR_Q))
        m0 = ((a0, F(0)), (F(0), d0))
        m1 = ((a1, b1), (F(0), d1))
        items.append(Item((m0, m1), o.polar_triangular_expected(a0, d0, a1, d1)))
    return items


def exact_3p(seed: int) -> list[Item]:
    rng = random.Random(seed)
    items = fault_pairs() + irreducible_pairs(rng, IRREDUCIBLE_PAIRS) + polar_pairs(rng, POLAR_PAIRS)
    rng.shuffle(items)
    return items


# ---------------------------------------------------------------------------
# float documents


def _polar_c(rng: random.Random) -> complex:
    r = rng.uniform(0.5, 2.0)
    return r * cmath.exp(2j * math.pi * rng.uniform(Q_MARGIN, 1.0 - Q_MARGIN))


def _entry(rng: random.Random) -> complex:
    return complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))


def _mul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def _inverse(a):
    """Gauss-Jordan inverse with partial pivoting, complex entries."""
    n = len(a)
    w = [list(row) + [1.0 + 0j if i == j else 0j for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        p = max(range(col, n), key=lambda i: abs(w[i][col]))
        w[col], w[p] = w[p], w[col]
        inv_pivot = 1.0 / w[col][col]
        w[col] = [e * inv_pivot for e in w[col]]
        for i in range(n):
            if i != col and w[i][col] != 0:
                f = w[i][col]
                w[i] = [x - f * y for x, y in zip(w[i], w[col])]
    return [row[n:] for row in w]


def _inf_norm(a) -> float:
    return max(sum(abs(e) for e in row) for row in a)


def _document(punctures: int, gens) -> str:
    return json.dumps({
        "punctures": punctures,
        "dim": len(gens[0]),
        "generators": [[[{"re": z.real, "im": z.imag} for z in row] for row in g] for g in gens],
    })


def _clear_spectrum(m) -> list[float] | None:
    """Branch data of a float 2x2 when both eigenvalues keep the margins."""
    lam = o.eig2(m)
    qs = [o.branch_q(z) for z in lam]
    scale = 1.0 + max(abs(z) for z in lam)
    if abs(lam[0] - lam[1]) < SEPARATION * scale:
        return None
    if any(q < Q_MARGIN or q > 1.0 - Q_MARGIN for q in qs):
        return None
    return qs


def _float_pair(rng: random.Random, reducible: bool) -> Item | None:
    if reducible:
        a0, d0, a1, d1 = (_polar_c(rng) for _ in range(4))
        b0, b1 = _entry(rng), _entry(rng)
        sub = (o.branch_q(a0), o.branch_q(a1))
        quot = (o.branch_q(d0), o.branch_q(d1))
        if any(abs(q0 + q1 - 1.0) < Q_MARGIN for q0, q1 in (sub, quot)):
            return None
        if abs(b0 * (d1 - a1) - b1 * (d0 - a0)) < SEPARATION:
            return None  # too close to a second common line
        s = [[1.0 + 0.5 * _entry(rng), 0.5 * _entry(rng)], [0.5 * _entry(rng), 1.0 + 0.5 * _entry(rng)]]
        s_inv = _inverse(s)
        if _inf_norm(s) * _inf_norm(s_inv) > 20.0:
            return None
        m0 = _mul(_mul(s, [[a0, b0], [0j, d0]]), s_inv)
        m1 = _mul(_mul(s, [[a1, b1], [0j, d1]]), s_inv)
    else:
        m0 = [[_entry(rng), _entry(rng)], [_entry(rng), _entry(rng)]]
        m1 = [[_entry(rng), _entry(rng)], [_entry(rng), _entry(rng)]]
        if min(abs(o.det2(m0)), abs(o.det2(m1))) < 0.1:
            return None
        comm = o.sub2(_mul(m0, m1), _mul(m1, m0))
        if abs(o.det2(comm)) < SEPARATION * (o.norm2(m0) * o.norm2(m1)) ** 2:
            return None
    m_inf = _inverse(_mul(m0, m1))
    q_total = 0.0
    for m in (m0, m1, m_inf):
        qs = _clear_spectrum(m)
        if qs is None:
            return None
        q_total += sum(qs)
    c1 = -round(q_total)
    if abs(q_total + c1) > 1e-9:
        raise ValueError(f"float pair with non-integral q-sum {q_total}")
    if reducible:
        exp = o.dim2_expected(c1, True, sub, quot)
    else:
        exp = o.dim2_expected(c1, False)
    return Item(_document(3, [m0, m1]), exp)


def float_3p(seed: int) -> list[Item]:
    rng = random.Random(seed)
    items: list[Item] = []
    while len(items) < FLOAT_3P_DOCS:
        item = _float_pair(rng, reducible=len(items) % 2 == 0)
        if item is not None:
            items.append(item)
    return items


def _dim8_item(rng: random.Random) -> Item:
    spectrum: list[complex] = []
    while len(spectrum) < DIM8:
        z = _polar_c(rng)
        if all(abs(z - w) >= 2 * SEPARATION for w in spectrum):
            spectrum.append(z)
    while True:
        s = [[(1.0 if i == j else 0.0) + 0.1 * _entry(rng) for j in range(DIM8)] for i in range(DIM8)]
        s_inv = _inverse(s)
        if _inf_norm(s) * _inf_norm(s_inv) <= 20.0:
            break
    sd = [[s[i][j] * spectrum[j] for j in range(DIM8)] for i in range(DIM8)]
    m0 = _mul(sd, s_inv)
    exp = o.two_puncture_expected(DIM8)
    return Item(_document(2, [m0]), exp, spectrum=tuple(spectrum))


def float_2p_dim8(seed: int) -> list[Item]:
    rng = random.Random(seed)
    return [_dim8_item(rng) for _ in range(DIM8_DOCS)]


# ---------------------------------------------------------------------------
# sweep


def sweep(seed: int) -> list[Item]:
    """One fixed sweep command; the seed has nothing to vary here."""
    del seed
    return [Item(SWEEP_STEPS, o.sweep_csv(SWEEP_STEPS), units=SWEEP_STEPS * SWEEP_STEPS)]


GENERATORS = {
    "exact-3p": exact_3p,
    "float-3p": float_3p,
    "float-2p-dim8": float_2p_dim8,
    "sweep": sweep,
}
