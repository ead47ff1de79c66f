"""Byte-identical ``classify`` and ``c1`` output on fixed documents.

The expected stdout was captured from the command line before the entry
decoder was rewritten; any change to it must be a deliberate correctness
fix.  The axis document mixes every spelling of an axis entry, so a
decoder that turned cartesian objects into floats would lose the exact
answers (and gain warnings).
"""

import cmath
import hashlib
import json
import math
import random

import pytest

from conftest import conjugated
from logsplit.cli import EXIT_OK, main


def _float_2p_dim8() -> str:
    rng = random.Random(8)

    def entry(i, j):
        re, im = round(rng.uniform(-2, 2), 6), round(rng.uniform(-2, 2), 6)
        return re if (i + j) % 5 == 0 else {"re": re, "im": im}

    gen = [[entry(i, j) for j in range(8)] for i in range(8)]
    return json.dumps({"punctures": 2, "dim": 8, "generators": [gen]})


def _float_3p() -> str:
    rng = random.Random(3)

    def gen():
        return [
            [{"re": round(rng.uniform(-1, 1), 4), "im": round(rng.uniform(-1, 1), 4)} for _ in range(2)]
            for _ in range(2)
        ]

    return json.dumps({"punctures": 3, "dim": 2, "generators": [gen(), gen()]})


DOCUMENTS = {
    "readme_golden": (
        '{"punctures": 3, "dim": 2, "generators": [[[1, 0], [0, -1]], [[-0.5, 1], [0.75, 0.5]]]}'
    ),
    "readme_ambiguous": (
        '{"punctures": 3, "dim": 2, "generators": [[[{"r": 1, "q": "3/5"}, 0], [0, 1]], '
        '[[{"r": 1, "q": "3/5"}, 1], [0, 1]]]}'
    ),
    "float_2p_dim8": _float_2p_dim8(),
    "float_3p": _float_3p(),
    "axis_exactness": (
        '{"punctures": 2, "dim": 7, "generators": [[['
        '2, 1, 0, 0, 0, 0, 0], [0, 2.0, 1, 0, 0, 0, 0], [0, 0, {"re": 2}, 1, 0, 0, 0], '
        '[0, 0, 0, {"re": 2, "im": 0}, 1, 0, 0], [0, 0, 0, 0, {"re": 0.0, "im": -3}, 1, 0], '
        '[0, 0, 0, 0, 0, {"re": -0.0, "im": 1.5}, 1], [0, 0, 0, 0, 0, 0, {"r": 2, "q": "1/3"}]]]}'
    ),
}

EXPECTED = {
    ("readme_golden", "classify"): (
        '{"kind": "ThreeDim2Irreducible", "c1": -2, "candidates": [[-1, -1]], "ambiguous": false, "warnings": [], "diagnostics": {"raw_q_sum": 2.0, "integrality_defect": 0.0, "ln_r_closure_defect": 0.0}}'
    ),
    ("readme_golden", "c1"): (
        '{"c1": -2, "raw_q_sum": 2.0, "integrality_defect": 0.0, "ln_r_closure_defect": 0.0, "exact": true}'
    ),
    ("readme_ambiguous", "classify"): (
        '{"kind": "ThreeDim2ReducibleAmbiguous", "c1": -2, "candidates": [[-1, -1], [0, -2]], "ambiguous": true, "warnings": [], "diagnostics": {"raw_q_sum": 2.0, "integrality_defect": 0.0, "ln_r_closure_defect": 0.0}}'
    ),
    ("readme_ambiguous", "c1"): (
        '{"c1": -2, "raw_q_sum": 2.0, "integrality_defect": 0.0, "ln_r_closure_defect": 0.0, "exact": true}'
    ),
    ("float_2p_dim8", "classify"): (
        '{"kind": "TwoPunctureGeneral", "c1": -8, "candidates": [[-1, -1, -1, -1, -1, -1, -1, -1]], "ambiguous": false, "warnings": [], "diagnostics": {"raw_q_sum": 8.0, "integrality_defect": 0.0, "ln_r_closure_defect": 0.0}}'
    ),
    ("float_2p_dim8", "c1"): (
        '{"c1": -8, "raw_q_sum": 8.0, "integrality_defect": 0.0, "ln_r_closure_defect": 0.0, "exact": false}'
    ),
    ("float_3p", "classify"): (
        '{"kind": "ThreeDim2Irreducible", "c1": -3, "candidates": [[-1, -2]], "ambiguous": false, "warnings": [], "diagnostics": {"raw_q_sum": 3.0, "integrality_defect": 0.0, "ln_r_closure_defect": 1.249000902703301e-16}}'
    ),
    ("float_3p", "c1"): (
        '{"c1": -3, "raw_q_sum": 3.0, "integrality_defect": 0.0, "ln_r_closure_defect": 1.249000902703301e-16, "exact": false}'
    ),
    ("axis_exactness", "classify"): (
        '{"kind": "TwoPunctureGeneral", "c1": -3, "candidates": [[0, 0, 0, 0, -1, -1, -1]], "ambiguous": false, "warnings": [], "diagnostics": {"raw_q_sum": 3.0, "integrality_defect": 0.0, "ln_r_closure_defect": 0.0}}'
    ),
    ("axis_exactness", "c1"): (
        '{"c1": -3, "raw_q_sum": 3.0, "integrality_defect": 0.0, "ln_r_closure_defect": 0.0, "exact": true}'
    ),
}


@pytest.mark.parametrize("name, command", sorted(EXPECTED))
def test_stdout_is_pinned(tmp_path, capsys, name, command):
    path = tmp_path / "doc.json"
    path.write_text(DOCUMENTS[name], encoding="utf-8")
    assert main([command, str(path)]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == EXPECTED[name, command] + "\n"


# ---------------------------------------------------------------------------
# All-inexact documents: every entry a cartesian object with both parts
# nonzero, so no entry is exact.  The documents are built here in plain
# complex arithmetic, not by logsplit, and the digests were captured before
# all-inexact matrices were stored as complex rows.  The inexact_dim8 ones
# were captured again when the eigenvalue solve took over the singularity
# test, when that SingularMatrix message was prefixed with the matrix it
# names ("generator 0: "), and when the singularity test became relative
# to max|entry|^n: document 24 is answered, c1 -8 as its construction
# gives, and 6 singular documents remain.


def _cartesian(gens) -> list:
    def entry(z: complex) -> dict:
        assert z.real != 0 and z.imag != 0  # an axis value would decode as exact
        return {"re": z.real, "im": z.imag}

    return [[[entry(z) for z in row] for row in g] for g in gens]


def _inverse(a: list[list[complex]]) -> list[list[complex]]:
    n = len(a)
    w = [list(row) + [complex(i == j) for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        p = max(range(col, n), key=lambda i: abs(w[i][col]))
        w[col], w[p] = w[p], w[col]
        pivot = w[col][col]
        w[col] = [e / pivot for e in w[col]]
        for i in range(n):
            if i != col:
                f = w[i][col]
                w[i] = [e - f * c for e, c in zip(w[i], w[col])]
    return [row[n:] for row in w]


def _unit(rng: random.Random) -> complex:
    # Eigenvalue r e(q), q kept 0.05 away from the branch cut.
    return 10 ** rng.uniform(-1, 1) * cmath.exp(2j * math.pi * rng.uniform(0.05, 0.95))


def _inexact_3p_documents() -> list[str]:
    rng = random.Random(12)
    docs = []
    for k in range(200):
        def gauss():
            return complex(rng.gauss(0, 1), rng.gauss(0, 1))

        s = [[gauss(), gauss()], [gauss(), gauss()]]
        s_inv = _inverse(s)
        if k % 4 < 2:  # generic pair, irreducible
            gens = [[[gauss(), gauss()], [gauss(), gauss()]] for _ in range(2)]
        elif k % 4 == 2:  # common invariant line
            gens = [conjugated(s, s_inv, [[_unit(rng), gauss()], [0, _unit(rng)]]) for _ in range(2)]
        else:  # two common lines
            gens = [conjugated(s, s_inv, [[_unit(rng), 0], [0, _unit(rng)]]) for _ in range(2)]
        docs.append(json.dumps({"punctures": 3, "dim": 2, "generators": _cartesian(gens)}))
    return docs


def _inexact_dim8_documents() -> list[str]:
    rng = random.Random(88)
    docs = []
    for _ in range(40):
        s = [[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(8)] for _ in range(8)]
        d = [[_unit(rng) if i == j else 0j for j in range(8)] for i in range(8)]
        gen = conjugated(s, _inverse(s), d)
        docs.append(json.dumps({"punctures": 2, "dim": 8, "generators": _cartesian([gen])}))
    return docs


INEXACT_SETS = {"inexact_3p": _inexact_3p_documents, "inexact_dim8": _inexact_dim8_documents}

INEXACT_DIGESTS = {
    ("inexact_3p", "c1"): "a6d1d0e67b84d33392eb7d3e020088ef5cdc163ecce15e744a0d46f1723ec9d8",
    ("inexact_3p", "classify"): "2642517ea847d663299d05d1e8037f621474f22dcbc28f12d7bb894f07be22d7",
    ("inexact_dim8", "c1"): "2571ca427e8c96605b2f4e320d773bb08fe0a94154363dfc782efc0bd477e997",
    ("inexact_dim8", "classify"): "750f77c278c4253f386b98e4bfd15ccd06ffb2c3e9dedd930b275b5d4f8f4b1b",
}


@pytest.mark.parametrize("name, command", sorted(INEXACT_DIGESTS))
def test_all_inexact_outputs_are_pinned(tmp_path, capsys, name, command):
    path = tmp_path / "doc.json"
    digest = hashlib.sha256()
    for text in INEXACT_SETS[name]():
        path.write_text(text, encoding="utf-8")
        code = main([command, str(path)])
        captured = capsys.readouterr()
        digest.update(f"{code}\n{captured.out}{captured.err}\n".encode("utf-8"))
    assert digest.hexdigest() == INEXACT_DIGESTS[name, command]


# ---------------------------------------------------------------------------
# Exact documents: every entry exact, spelled as a dyadic JSON number, an
# imaginary-axis cartesian object, a polar object whose q is a quarter
# turn, 1/3, 1/6 or 3/5, or 0 off the diagonal.  Two punctures at dims 1-4 and three at dims 1-2,
# with triangular and full generators alike.  The digests were captured
# before quarter-turn arguments became shared constants.

_EXACT_SHAPES = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2)]
_EXACT_QS = ["0", "1/4", "1/2", "3/4", "2/4", 0, "1/3", "1/6", "3/5"]


def _dyadic(rng: random.Random) -> int | float:
    k = rng.choice([v for v in range(-8, 9) if v])
    shift = rng.randrange(4)
    return k if shift == 0 else k / 2**shift


def _exact_entry(rng: random.Random, diagonal: bool) -> int | float | dict:
    kind = rng.randrange(6 if diagonal else 7)
    if kind < 2:
        return _dyadic(rng)
    if kind < 4:
        return {"re": rng.choice([0, 0.0, -0.0]), "im": _dyadic(rng)}
    if kind < 6:
        return {"r": abs(_dyadic(rng)), "q": rng.choice(_EXACT_QS)}
    return 0


def _exact_documents() -> list[str]:
    rng = random.Random(15)
    docs = []
    for k in range(240):
        punctures, dim = _EXACT_SHAPES[k % len(_EXACT_SHAPES)]
        triangular = k // len(_EXACT_SHAPES) % 2 == 0
        gens = [
            [
                [0 if triangular and j < i else _exact_entry(rng, i == j) for j in range(dim)]
                for i in range(dim)
            ]
            for _ in range(punctures - 1)
        ]
        docs.append(json.dumps({"punctures": punctures, "dim": dim, "generators": gens}))
    return docs


EXACT_DIGESTS = {
    ("exact", "c1"): "294d9bb04a7afeee30e026d5328cc0629d2bb89489fcf68ea08c45bac7a18061",
    ("exact", "classify"): "9c374d7b16536149645d09f64e377205517acf01a5c4047156bc8686baf8ab0b",
}


@pytest.mark.parametrize("name, command", sorted(EXACT_DIGESTS))
def test_exact_outputs_are_pinned(tmp_path, capsys, name, command):
    path = tmp_path / "doc.json"
    digest = hashlib.sha256()
    for text in _exact_documents():
        path.write_text(text, encoding="utf-8")
        code = main([command, str(path)])
        captured = capsys.readouterr()
        digest.update(f"{code}\n{captured.out}{captured.err}\n".encode("utf-8"))
    assert digest.hexdigest() == EXACT_DIGESTS[name, command]


# ---------------------------------------------------------------------------
# Mixed documents: exact and floating entries side by side in one matrix,
# the storage in which a matrix holds exact Scalars next to complex values.
# Entries are dyadic JSON numbers, axis cartesian objects, polar objects
# with a rational q, and cartesian objects with both parts nonzero (the
# floating ones).  Two punctures at dims 1-5 and three at dims 1-3, with
# full, upper and lower triangular and diagonal generators.  The digests
# were captured before mixed matrices stopped boxing their complex entries
# as Scalars.

_MIXED_SHAPES = [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (3, 1), (3, 2), (3, 3)]
_MIXED_PATTERNS = ["full", "upper", "lower", "diagonal"]
_MIXED_QS = ["0", "1/4", "1/2", "3/4", "1/3", "1/6", "3/5", "7/8"]


def _mixed_entry(rng: random.Random, diagonal: bool) -> int | float | dict:
    kind = rng.randrange(8 if diagonal else 9)
    if kind < 2:
        return _dyadic(rng)
    if kind < 4:
        axis = _dyadic(rng)
        return {"re": 0, "im": axis} if kind == 2 else {"re": axis, "im": rng.choice([0, 0.0])}
    if kind < 6:
        return {"r": abs(_dyadic(rng)), "q": rng.choice(_MIXED_QS)}
    if kind < 8:
        re = rng.choice([-1, 1]) * round(rng.uniform(0.05, 3), 6)
        im = rng.choice([-1, 1]) * round(rng.uniform(0.05, 3), 6)
        return {"re": re, "im": im}
    return 0


def _mixed_documents() -> list[str]:
    rng = random.Random(16)
    docs = []
    for k in range(400):
        punctures, dim = _MIXED_SHAPES[k % len(_MIXED_SHAPES)]
        pattern = _MIXED_PATTERNS[k // len(_MIXED_SHAPES) % len(_MIXED_PATTERNS)]

        def keep(i, j):
            return (
                i == j
                or pattern == "full"
                or (pattern == "upper" and j > i)
                or (pattern == "lower" and j < i)
            )

        gens = [
            [
                [_mixed_entry(rng, i == j) if keep(i, j) else 0 for j in range(dim)]
                for i in range(dim)
            ]
            for _ in range(punctures - 1)
        ]
        docs.append(json.dumps({"punctures": punctures, "dim": dim, "generators": gens}))
    return docs


MIXED_DIGESTS = {
    ("mixed", "c1"): "7064da2825bbe994789e76b13175756b2af4f76f38d6715e27052885628d310f",
    ("mixed", "classify"): "86a76c1c4a89f5c5c093e3a53388755e4dc9e1420ed1d32ddc9dd6625e73e203",
}


@pytest.mark.parametrize("name, command", sorted(MIXED_DIGESTS))
def test_mixed_outputs_are_pinned(tmp_path, capsys, name, command):
    path = tmp_path / "doc.json"
    digest = hashlib.sha256()
    for text in _mixed_documents():
        path.write_text(text, encoding="utf-8")
        code = main([command, str(path)])
        captured = capsys.readouterr()
        digest.update(f"{code}\n{captured.out}{captured.err}\n".encode("utf-8"))
    assert digest.hexdigest() == MIXED_DIGESTS[name, command]
