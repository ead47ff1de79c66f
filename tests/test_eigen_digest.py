"""One SHA-256 over the eigenvalue data of 1500 seeded eigenproblems.

The problems cover every route of ``eigenvalues``:

* floating S D S^-1 at dimensions 1 to 8, their spectra clustered at
  relative gaps from 0 to 1e-5, some next to the branch cut, and scaled by
  2^-20, 1 or 2^20; some are left triangular, upper or lower;
* exact rational 2x2 matrices: rational, irrational real, double, sixth-,
  third- and quarter-turn and generic complex roots, a zero root, and
  exact polar entries whose polynomial is not real;
* exact polar triangular matrices of dimension 1 to 4, with repeated,
  near-repeated floating, zero and out-of-range diagonal entries.

Each problem hashes its EigenData (every float in ``float.hex``), its
warnings or its error, and the data of the reciprocals, so a change that
moves one bit of one eigenvalue, q, ln r or warning fails here.  An
intended change re-pins the digest.

The spectra and the similarities are built by arithmetic alone (a
rational parametrisation of the circle and a local Gauss-Jordan inverse),
not by ``cmath.exp``, so the digest depends on as little of the platform's
libm as the package itself does.  No builtin ``sum`` is used on floats.
"""

import hashlib
import math
import random
from fractions import Fraction

from logsplit import LogSplitError, Matrix, Scalar
from logsplit.eigen import eigenvalues, reciprocal_eigenvalues

SEED = 20261019
FLOAT_PROBLEMS = 1000
RATIONAL_PROBLEMS = 300
POLAR_PROBLEMS = 200

EIGEN_SHA256 = "37f07ce6c17e69a0037f051e56f1065b98f1c78fb56e2707e872cbd68f426c7c"

TOLS = (1e-9, 1e-9, 1e-9, 1e-6, 1e-12)
GAPS = (0.0, 1e-13, 1e-10, 5e-10, 1e-9, 3e-9, 1e-7, 1e-5)


def _unit(t: float) -> complex:
    """The point ((1 - t^2) + 2ti) / (1 + t^2) of the unit circle."""
    d = 1.0 + t * t
    return complex((1.0 - t * t) / d, 2.0 * t / d)


def _float_value(rng: random.Random) -> complex:
    kind = rng.random()
    if kind < 0.65:
        t = rng.uniform(-4.0, 4.0)
    elif kind < 0.85:
        t = rng.uniform(-1e-7, 1e-7)  # next to the cut, inside and outside the band
    elif kind < 0.9:
        t = 0.0
    elif kind < 0.95:
        t = rng.choice((-1.0, 1.0)) * rng.uniform(1e6, 1e9)  # next to -1
    else:
        return complex(-rng.uniform(0.25, 2.0), 0.0)
    r = 1.0 if rng.random() < 0.3 else rng.uniform(0.25, 2.25)
    return r * _unit(t)


def _spectrum(rng: random.Random, n: int) -> list[complex]:
    values = [_float_value(rng)]
    while len(values) < n:
        if rng.random() < 0.4:  # a near copy of a value already drawn: a cluster
            gap = rng.choice(GAPS)
            base = rng.choice(values)
            values.append(base * (1.0 + gap * _unit(rng.uniform(-3.0, 3.0))))
        else:
            values.append(_float_value(rng))
    return values


def _inverse(s: list[list[complex]]) -> list[list[complex]]:
    """Gauss-Jordan inverse with partial pivoting, on plain complex values."""
    n = len(s)
    w = [list(row) + [1.0 + 0j if i == j else 0j for j in range(n)] for i, row in enumerate(s)]
    for col in range(n):
        p = max(range(col, n), key=lambda i: abs(w[i][col]))
        w[col], w[p] = w[p], w[col]
        inv = 1.0 / w[col][col]
        w[col] = [e * inv for e in w[col]]
        for i in range(n):
            if i != col:
                f = w[i][col]
                w[i] = [a - f * b for a, b in zip(w[i], w[col])]
    return [row[n:] for row in w]


def _matmul(a: list[list], b: list[list]) -> list[list]:
    out = []
    for row in a:
        new = []
        for col in zip(*b):
            acc = 0j
            for x, y in zip(row, col):
                acc += x * y
            new.append(acc)
        out.append(new)
    return out


def _float_problem(rng: random.Random) -> Matrix:
    n = rng.choice((1, 2, 2, 2, 2, 3, 3, 4, 5, 6, 7, 8))
    shift = rng.choice((-20, 0, 0, 0, 20))
    spectrum = [complex(math.ldexp(v.real, shift), math.ldexp(v.imag, shift))
                for v in _spectrum(rng, n)]
    shape = rng.random()
    if shape < 0.15:  # triangular: the diagonal read off, upper or lower
        rows = [[spectrum[i] if i == j else
                 (complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) if j > i else 0j)
                 for j in range(n)] for i in range(n)]
        return Matrix(rows if shape < 0.1 else [list(col) for col in zip(*rows)])
    s = [[(1.0 if i == j else 0.0) + 0.5 * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
          for j in range(n)] for i in range(n)]
    sd = [[s[i][j] * spectrum[j] for j in range(n)] for i in range(n)]
    return Matrix(_matmul(sd, _inverse(s)))


def _fraction(rng: random.Random, top: int = 6) -> Fraction:
    return Fraction(rng.randint(-top, top), rng.randint(1, 4))


def _rational_problem(rng: random.Random) -> Matrix:
    """A companion matrix of x^2 + b x + c, conjugated by [[1, s], [0, 1]]."""
    kind = rng.randrange(8)
    r = Fraction(rng.randint(1, 9), rng.randint(1, 5))
    u, v = _fraction(rng), _fraction(rng)
    if kind == 0:  # rational roots u, v (a double root when equal, zero when 0)
        b, c = -(u + v), u * v
    elif kind == 1:
        b, c = -2 * u, u * u
    elif kind == 2:  # r e(+-1/6)
        b, c = -r, r * r
    elif kind == 3:  # r e(+-1/3)
        b, c = r, r * r
    elif kind == 4:  # +-i r, and +-i sqrt(c) for a non-square c
        b, c = Fraction(0), rng.choice((r * r, r))
    elif kind == 5:  # exact polar entries: a polynomial that is not real
        q = Fraction(rng.randint(1, 11), 12)
        return Matrix([[Scalar.polar(r, q), _fraction(rng)],
                       [_fraction(rng), Scalar.polar(u * u + 1, 0)]])
    else:  # any rational b and c: irrational real or generic complex roots
        b, c = u, v
    s = _fraction(rng)
    # [[1, s], [0, 1]] @ [[0, -c], [1, -b]] @ [[1, -s], [0, 1]]
    return Matrix([[s, -c - s * s - s * b], [1, -s - b]])


def _polar_problem(rng: random.Random) -> Matrix:
    n = rng.randint(1, 4)
    diag: list = []
    while len(diag) < n:
        kind = rng.random()
        if diag and kind < 0.25:
            diag.append(rng.choice(diag))  # an exact repeat
        elif diag and kind < 0.35:  # a floating value next to an exact one
            base = rng.choice(diag)
            gap = rng.choice(GAPS)
            diag.append(complex(base) * (1.0 + gap * _unit(rng.uniform(-3.0, 3.0))))
        elif kind < 0.37:
            diag.append(0)
        elif kind < 0.39:  # beyond the float range, above and below
            diag.append(Scalar.polar(Fraction(10) ** rng.choice((400, -400)), Fraction(1, 3)))
        else:
            d = rng.choice((1, 2, 3, 4, 5, 6, 8, 12, 1000))
            q = Fraction(rng.randrange(d), d)
            diag.append(Scalar.polar(Fraction(rng.randint(1, 9), rng.randint(1, 5)), q))
    rows = [[diag[i] if i == j else (_fraction(rng) if j > i else 0) for j in range(n)]
            for i in range(n)]
    return Matrix(rows if rng.random() < 0.5 else [list(col) for col in zip(*rows)])


def _num(x) -> str:
    if x.__class__ is float:
        return x.hex()
    if x.__class__ is complex:
        return f"{x.real.hex()},{x.imag.hex()}"
    if x.__class__ is Scalar:
        return repr(x) if x.is_exact else "~" + _num(x.z)
    return str(x)


def _data(data) -> str:
    pairs = ";".join(
        f"{_num(p.value)} x{p.multiplicity} q={_num(p.q)} ln_r={_num(p.ln_r)}" for p in data.pairs
    )
    return f"[{pairs}] {','.join(data.warnings)}"


def _record(m: Matrix, tol: float) -> str:
    try:
        data = eigenvalues(m, tol)
    except LogSplitError as exc:
        return f"{type(exc).__name__}: {exc}"
    try:
        recip = _data(reciprocal_eigenvalues(data, tol))
    except LogSplitError as exc:
        recip = f"{type(exc).__name__}: {exc}"
    return f"{_data(data)} | {recip}"


def problems(seed: int = SEED):
    """(matrix, tol) of every problem, in a fixed order."""
    rng = random.Random(seed)
    for make, count in (
        (_float_problem, FLOAT_PROBLEMS),
        (_rational_problem, RATIONAL_PROBLEMS),
        (_polar_problem, POLAR_PROBLEMS),
    ):
        for _ in range(count):
            yield make(rng), rng.choice(TOLS)


def eigen_digest(seed: int = SEED) -> str:
    digest = hashlib.sha256()
    for m, tol in problems(seed):
        digest.update(f"{m!r} {tol!r}\n{_record(m, tol)}\n".encode())
    return digest.hexdigest()


def test_eigen_data_is_bit_identical():
    assert eigen_digest() == EIGEN_SHA256
