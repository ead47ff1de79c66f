"""Byte-identical ``classify`` and ``c1`` output on fixed documents.

The expected stdout was captured from the command line before the entry
decoder was rewritten; any change to it must be a deliberate correctness
fix.  The axis document mixes every spelling of an axis entry, so a
decoder that turned cartesian objects into floats would lose the exact
answers (and gain warnings).
"""

import json
import random

import pytest

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
