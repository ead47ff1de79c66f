"""Built-in golden self-test.

Runs the embedded modular-group representation (exact rational entries)
through the whole pipeline and checks every intermediate against frozen
values, then sweeps the character region table on a 4x4 rational lattice.
All golden inputs are exact, so every decision is exact and the checks
run at the library's default tolerances, which no option changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .chern import ohtsuki_c1
from .matrix import Matrix
from .representation import Representation, build
from .splitting import ClassificationKind, character_root, classify

F = Fraction


def golden_representation() -> Representation:
    """The embedded two-generator representation with exact rational
    entries, whose every intermediate the self-test checks."""
    gen_t = Matrix([[1, 0], [0, -1]])
    gen_s = Matrix([[F(-1, 2), 1], [F(3, 4), F(1, 2)]])
    return Representation(3, (gen_t, gen_s))


_GOLDEN_INFINITY = Matrix([[F(-1, 2), -1], [F(3, 4), F(-1, 2)]])
_GOLDEN_Q_MULTISETS = (
    {F(0): 1, F(1, 2): 1},
    {F(0): 1, F(1, 2): 1},
    {F(1, 3): 1, F(2, 3): 1},
)
_GOLDEN_RESIDUE_TRACES = (F(1, 2), F(1, 2), F(1))
_GOLDEN_C1 = -2
_GOLDEN_ROOTS = (-1, -1)

# Region table on the lattice {0, 1/4, 1/2, 3/4}^2: 0 at the origin,
# -1 on q0 + q1 <= 1 off the origin, -2 above the antidiagonal.
_LATTICE = (F(0), F(1, 4), F(1, 2), F(3, 4))
_GOLDEN_CHARACTER_TABLE = {
    (F(0), F(0)): 0,
    (F(0), F(1, 4)): -1, (F(0), F(1, 2)): -1, (F(0), F(3, 4)): -1,
    (F(1, 4), F(0)): -1, (F(1, 4), F(1, 4)): -1, (F(1, 4), F(1, 2)): -1, (F(1, 4), F(3, 4)): -1,
    (F(1, 2), F(0)): -1, (F(1, 2), F(1, 4)): -1, (F(1, 2), F(1, 2)): -1, (F(1, 2), F(3, 4)): -2,
    (F(3, 4), F(0)): -1, (F(3, 4), F(1, 4)): -1, (F(3, 4), F(1, 2)): -2, (F(3, 4), F(3, 4)): -2,
}


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def run_selftest() -> list[CheckResult]:
    """Run every golden check; a fresh build must pass all of them."""
    results: list[CheckResult] = []

    def check(name: str, passed: bool, detail: str = "") -> None:
        results.append(CheckResult(name, passed, "" if passed else detail))

    rep = golden_representation()
    prep = build(rep)

    check(
        "infinity-monodromy",
        prep.infinity_monodromy == _GOLDEN_INFINITY,
        f"got {prep.infinity_monodromy!r}",
    )

    q_multisets = tuple(
        {p.q: p.multiplicity for p in e.pairs} for e in prep.local_eigen
    )
    check(
        "local-branch-data",
        q_multisets == _GOLDEN_Q_MULTISETS,
        f"got {q_multisets!r}",
    )

    traces = tuple(e.q_sum() for e in prep.local_eigen)
    check("residue-traces", traces == _GOLDEN_RESIDUE_TRACES, f"got {traces!r}")

    chern = ohtsuki_c1(prep)
    check(
        "chern-class",
        chern.c1 == _GOLDEN_C1 and chern.integrality_defect == 0.0 and chern.exact,
        f"got c1={chern.c1}, defect={chern.integrality_defect}, exact={chern.exact}",
    )

    report = classify(rep)
    check(
        "splitting",
        report.kind is ClassificationKind.THREE_DIM2_IRREDUCIBLE
        and report.candidates[0].roots == _GOLDEN_ROOTS
        and not report.ambiguous,
        f"got kind={report.kind.value}, candidates={[c.roots for c in report.candidates]}",
    )

    mismatches = [
        (q0, q1, character_root(q0, q1), expected)
        for (q0, q1), expected in _GOLDEN_CHARACTER_TABLE.items()
        if character_root(q0, q1) != expected
    ]
    check("character-table", not mismatches, f"mismatches: {mismatches!r}")

    return results
