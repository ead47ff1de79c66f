"""One SHA-256 over the answers of the public entry points on triangular pairs.

Upper triangular pairs with the exact ZERO below the diagonal are read off
their diagonals: the product's eigenvalues from the products of the
diagonal entries, and the invariant line e1 from the commutator's one
entry that can be nonzero.  This digest holds that read-off to the answers
of forming m0·m1 and all of C.  The seeded corpus covers:

* exact real, exact polar, floating and mixed entries;
* non-commuting pairs, exactly commuting pairs (m1 = s m0 + t I in exact
  arithmetic, diagonal pairs, scalar members) and pairs whose commutator
  entry c01 lies inside its rounding radius (m1 = s m0 + t I in floats);
* members scaled by powers of two past 2^+-200, one or both;
* products at dimensions 2 to 8;
* a few pairs that take the general route: lower triangular ones, and
  ones with a floating zero below the diagonal.

Each pair hashes the output of ``build`` (every EigenData and the integer
forms), ``product_eigenvalues``, ``invariant_lines`` (at dimension 2) and
``classify``, or the type and message of the LogSplitError each raises,
every float in ``float.hex``.  A change that moves one bit of one of them
fails here; an intended change re-pins the digest.
"""

import hashlib
import math
import random
from fractions import Fraction

from logsplit import LogSplitError, Matrix, Representation, Scalar, build, classify
from logsplit import invariant_lines
from logsplit.eigen import product_eigenvalues

SEED = 20261022
PAIRS = 300
PRODUCTS = 70

TRIANGULAR_SHA256 = "50bb87865adb5f4e1481b0c070cef572a259ffbe980cf6aa4198703b394c40cb"

KINDS = ("real", "polar", "float", "mixed")


def _real(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 6))


def _polar(rng: random.Random) -> Scalar:
    # Half on the real axis, so that some sums stay exact.
    turn = rng.choice((0, 6)) if rng.random() < 0.5 else rng.randrange(12)
    return Scalar.polar(Fraction(rng.randint(1, 9), rng.randint(1, 4)), Fraction(turn, 12))


def _float(rng: random.Random) -> complex:
    return complex(round(rng.uniform(-2, 2), 6), round(rng.uniform(-2, 2), 6))


def _entry(rng: random.Random, kind: str):
    if kind == "mixed":
        kind = rng.choice(KINDS[:3])
    return {"real": _real, "polar": _polar, "float": _float}[kind](rng)


def _upper(rng: random.Random, kind: str, n: int = 2) -> list[list]:
    return [[_entry(rng, kind) if j >= i else 0 for j in range(n)] for i in range(n)]


def _exact_scale(x, k: int):
    return Scalar.polar(x.r * Fraction(2) ** k, x.q) if isinstance(x, Scalar) else x * Fraction(2) ** k


def _scaled(rows: list[list], k: int) -> list[list]:
    """``rows`` times 2^k, exactly: a floating entry by ldexp, an exact
    one on its modulus; an exact zero stays one."""
    out = []
    for row in rows:
        new = []
        for x in row:
            if x.__class__ is complex:
                new.append(complex(math.ldexp(x.real, k), math.ldexp(x.imag, k)))
            elif x == 0:
                new.append(x)
            else:
                new.append(_exact_scale(x, k))
        out.append(new)
    return out


def _commuting(rng: random.Random, kind: str, m0: list[list]) -> list[list]:
    """A member that commutes with ``m0``: s m0 + t I in the entries'
    arithmetic (exact for exact entries, rounded for floating ones), a
    diagonal partner of a diagonal m0, or a scalar member."""
    shape = rng.random()
    if shape < 0.2:
        t = _entry(rng, kind)
        return [[t, 0], [0, t]]
    s, t = _entry(rng, kind), _entry(rng, kind)
    if kind in ("float", "mixed"):
        s, t = complex(s), complex(t)
    return [[s * m0[0][0] + t, s * m0[0][1]], [0, s * m0[1][1] + t]]


def _pairs(rng: random.Random) -> list[tuple[list[list], list[list]]]:
    pairs = []
    for k in range(PAIRS):
        kind = KINDS[k % len(KINDS)]
        m0 = _upper(rng, kind)
        shape = rng.random()
        if shape < 0.4:
            m1 = _upper(rng, kind)
        elif shape < 0.5:  # a diagonal m0: c01 = f (a - d), exact for colinear a, d
            m0[0][1] = 0
            m1 = _upper(rng, kind)
        elif shape < 0.6:
            m0[0][1] = 0
            m1 = _upper(rng, kind)
            m1[0][1] = 0
        else:
            m1 = _commuting(rng, kind, m0)
        if rng.random() < 0.2:
            m0 = _scaled(m0, rng.choice((-1, 1)) * rng.randint(201, 260))
            if rng.random() < 0.5:
                m1 = _scaled(m1, rng.choice((-1, 1)) * rng.randint(201, 260))
        route = rng.random()
        if route < 0.05:  # lower triangular: the general route
            m0, m1 = ([list(col) for col in zip(*m)] for m in (m0, m1))
        elif route < 0.1:  # a floating zero below the diagonal: the general route
            m1[1][0] = 0j
        pairs.append((m0, m1))
    return pairs


def _products(rng: random.Random) -> list[tuple[list[list], list[list]]]:
    return [(_upper(rng, kind, n), _upper(rng, kind, n))
            for n in range(2, 9) for kind in KINDS for _ in range(PRODUCTS // 28 + 1)]


def _num(x) -> str:
    if x.__class__ is float:
        return x.hex()
    if x.__class__ is complex:
        return f"{x.real.hex()},{x.imag.hex()}"
    if x.__class__ is Scalar:
        return repr(x) if x.is_exact else "~" + _num(x.z)
    if x.__class__ is tuple:
        return "(" + ",".join(map(_num, x)) + ")"
    return str(x)


def _data(data) -> str:
    pairs = ";".join(
        f"{_num(p.value)} x{p.multiplicity} q={_num(p.q)} ln_r={_num(p.ln_r)}" for p in data.pairs
    )
    return f"[{pairs}] {','.join(data.warnings)}"


def _outcome(text, *args) -> str:
    try:
        return text(*args)
    except LogSplitError as exc:
        return f"{type(exc).__name__}: {exc}"


def _build(rep: Representation) -> str:
    prep = build(rep)
    return " | ".join(map(_data, prep.local_eigen)) + f" forms={prep.integer_forms}"


def _lines(m0: Matrix, m1: Matrix) -> str:
    report = invariant_lines(m0, m1)
    lines = " ".join(
        f"{_num(line.direction)}:{_num(line.sub_eigen_pair)}/{_num(line.quotient_eigen_pair)}"
        for line in report.lines
    )
    return f"{lines} decomposable={report.decomposable} {','.join(report.warnings)}"


def _classify(rep: Representation) -> str:
    report = classify(rep)
    roots = [c.roots for c in report.candidates]
    return (f"{report.kind.value} {roots} {','.join(report.warnings)} "
            f"{_num(tuple(report.chern))}")


def _record(rows0: list[list], rows1: list[list]) -> str:
    m0, m1 = Matrix(rows0), Matrix(rows1)
    rep = Representation(3, (m0, m1))
    parts = [
        _outcome(_build, rep),
        _outcome(lambda: _data(product_eigenvalues(m0, m1))),
        _outcome(_classify, rep),
    ]
    if m0.n == 2:
        parts.append(_outcome(_lines, m0, m1))
    return "\n".join(parts)


def _corpus() -> list[tuple[list[list], list[list]]]:
    rng = random.Random(SEED)
    return _pairs(rng) + _products(rng)


def test_triangular_answers_hold_every_bit():
    digest = hashlib.sha256()
    for rows0, rows1 in _corpus():
        digest.update(_record(rows0, rows1).encode())
        digest.update(b"\n--\n")
    assert digest.hexdigest() == TRIANGULAR_SHA256
