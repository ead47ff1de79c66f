import argparse
import cmath
import contextlib
import io
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import conjugated, matmul, rand_well_conditioned
from logsplit import Matrix, cli
from logsplit.cli import (
    EXIT_ERROR,
    EXIT_NONINTEGRAL,
    EXIT_OK,
    EXIT_UNSUPPORTED,
    main,
)
from logsplit.documents import parse_input_document, report_to_output
from logsplit.splitting import character_root, classify

GOLDEN = '{"punctures": 3, "dim": 2, "generators": [[[1, 0], [0, -1]], [[-0.5, 1], [0.75, 0.5]]]}'


def _stdin(data: bytes, errors: str = "strict") -> io.TextIOWrapper:
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors=errors)


@pytest.fixture
def golden_file(tmp_path):
    path = tmp_path / "golden.json"
    path.write_text(GOLDEN, encoding="utf-8")
    return str(path)


class TestClassify:
    def test_golden_file(self, golden_file, capsys):
        assert main(["classify", golden_file]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["kind"] == "ThreeDim2Irreducible"
        assert out["c1"] == -2
        assert out["candidates"] == [[-1, -1]]
        assert out["ambiguous"] is False
        assert out["diagnostics"]["integrality_defect"] == 0.0

    def test_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", _stdin(GOLDEN.encode("utf-8")))
        assert main(["classify"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["c1"] == -2

    @pytest.mark.parametrize(
        "data",
        [
            b'{"punctures": 2, "dim": 1, "generators": [[[\xff]]]}',
            b'{"punctures": 2, "dim": 1, "generators": [[[2]]], "note": "\xff"}',
        ],
    )
    def test_stdin_that_is_not_utf8(self, capsys, monkeypatch, data):
        # A C locale reads stdin as UTF-8 with surrogateescape: the bytes
        # must be decoded before that text layer sees them.
        monkeypatch.setattr("sys.stdin", _stdin(data, errors="surrogateescape"))
        assert main(["classify", "-"]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error[InputFormatError]: input is not valid UTF-8")

    def test_trivial_character(self, tmp_path, capsys):
        path = tmp_path / "one.json"
        path.write_text('{"punctures": 2, "dim": 1, "generators": [[[1]]]}')
        assert main(["classify", str(path)]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["c1"] == 0
        assert out["candidates"] == [[0]]

    def test_byte_identical_output(self, golden_file, capsys):
        main(["classify", golden_file])
        first = capsys.readouterr().out
        main(["classify", golden_file])
        assert capsys.readouterr().out == first

    def test_malformed_polar_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"punctures": 2, "dim": 1, "generators": [[[{"r": 1, "q": "5/4"}]]]}')
        assert main(["classify", str(path)]) == EXIT_ERROR
        assert "OutOfBranch" in capsys.readouterr().err

    def test_unsupported_case_exits_two(self, tmp_path, capsys):
        path = tmp_path / "dim3.json"
        gens = [[[1, 0, 0], [0, 1, 0], [0, 0, 1]]] * 2
        path.write_text(json.dumps({"punctures": 3, "dim": 3, "generators": gens}))
        assert main(["classify", str(path)]) == EXIT_UNSUPPORTED
        assert "UnsupportedCase" in capsys.readouterr().err

    def test_missing_file_exits_one(self, tmp_path, capsys):
        assert main(["classify", str(tmp_path / "absent.json")]) == EXIT_ERROR
        assert "error" in capsys.readouterr().err

    def test_ambiguous_case_output(self, tmp_path, capsys):
        doc = {
            "punctures": 3,
            "dim": 2,
            "generators": [
                [[{"r": 1, "q": "3/5"}, 0], [0, 1]],
                [[{"r": 1, "q": "3/5"}, 1], [0, 1]],
            ],
        }
        path = tmp_path / "amb.json"
        path.write_text(json.dumps(doc))
        assert main(["classify", str(path)]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["kind"] == "ThreeDim2ReducibleAmbiguous"
        assert out["ambiguous"] is True
        assert out["candidates"] == [[-1, -1], [0, -2]]



def _e(q: float) -> dict:
    z = cmath.exp(2j * math.pi * q)
    return {"re": z.real, "im": z.imag}


class TestRootsFromC1:
    """Characters whose q at infinity lies at the branch cut: the root is
    c1, which counts that q, so the answer carries BranchBoundary where
    reading the root from the finite q's once disagreed with c1 and
    exited 1 with InternalInconsistency."""

    @pytest.mark.parametrize(
        ("generators", "c1"),
        [
            # q0 + q1 = 1 + 1e-12: q at infinity is 1 - 1e-12 and snaps to 0.
            ([[[_e(0.6)]], [[_e(0.4 + 1e-12)]]], -1),
            # q = 1.0000000001e-9 stays above tol = 1e-9, and so does its
            # reciprocal's 1 - q, which rounds onto 1 - tol: a reciprocal
            # snaps only where its eigenvalue did.
            ([[[_e(1.0000000001e-9)]]], -1),
        ],
    )
    def test_boundary_character_answers(self, tmp_path, capsys, generators, c1):
        path = tmp_path / "doc.json"
        doc = {"punctures": len(generators) + 1, "dim": 1, "generators": generators}
        path.write_text(json.dumps(doc))
        assert main(["classify", str(path)]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert (out["c1"], out["candidates"]) == (c1, [[c1]])
        assert out["warnings"] == ["BranchBoundary"]


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "--tol", "abc"],
            ["sweep", "--steps", "x"],
            ["sweep"],
            ["bogus"],
            [],
            ["c1", "a.json", "b.json"],
        ],
    )
    def test_usage_error_exits_one(self, capsys, argv):
        # argparse's own code would be 2, the code of an unsupported case.
        assert main(argv) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("usage: logsplit")
        assert "error: " in err.splitlines()[-1]

    @pytest.mark.parametrize("argv", [["--help"], ["classify", "--help"]])
    def test_help_exits_zero(self, capsys, argv):
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out.startswith("usage: logsplit")

    def test_retired_selftest_is_an_invalid_choice(self, capsys):
        # The golden checks it ran are tests now; its exit code 4 stays
        # unused.
        assert main(["selftest"]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == (
            "logsplit: error: argument command: invalid choice: 'selftest' "
            "(choose from 'classify', 'c1', 'sweep')"
        )


class TestParserReuse:
    def test_no_state_carries_between_calls(self, capsys, golden_file):
        def run(argv):
            code = main(argv)
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        first = run(["c1", golden_file])
        assert first[0] == EXIT_OK
        assert run(["c1", "--tol", "0.04", "--integrality-tol", "0.3", golden_file])[0] == EXIT_OK
        assert run(["--bogus"])[0] == EXIT_ERROR
        assert run(["classify", "--help"])[0] == EXIT_OK
        assert run(["sweep"])[0] == EXIT_ERROR
        assert run(["c1", golden_file]) == first

    def test_parser_is_built_once(self, monkeypatch, golden_file):
        main(["sweep", "--steps", "2"])
        inits = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            inits.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        assert main(["sweep", "--steps", "3"]) == EXIT_OK
        assert main(["c1", golden_file]) == EXIT_OK
        assert main(["bogus"]) == EXIT_ERROR
        assert inits == []


class TestC1:
    def test_golden(self, golden_file, capsys):
        assert main(["c1", golden_file]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["c1"] == -2
        assert out["exact"] is True

    def test_trivial_input(self, tmp_path, capsys):
        path = tmp_path / "one.json"
        path.write_text('{"punctures": 2, "dim": 1, "generators": [[[1]]]}')
        assert main(["c1", str(path)]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["c1"] == 0

    def test_quarter_turn_character(self, tmp_path, capsys):
        path = tmp_path / "q.json"
        path.write_text('{"punctures": 2, "dim": 1, "generators": [[[{"r": 1, "q": "1/4"}]]]}')
        assert main(["c1", str(path)]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["c1"] == -1

    def test_nonintegral_exits_three(self, tmp_path, capsys):
        # A float-path document whose q-sum misses an integer by ~1e-16;
        # an absurdly tight integrality tolerance must reject it.
        doc = {
            "punctures": 3,
            "dim": 2,
            "generators": [
                [[{"re": -0.563, "im": -0.993}, {"re": 0.845, "im": -0.974}],
                 [{"re": 0.753, "im": -0.768}, {"re": 0.62, "im": 0.566}]],
                [[{"re": 0.756, "im": 0.101}, {"re": 0.757, "im": -0.597}],
                 [{"re": 0.343, "im": -0.339}, {"re": 0.784, "im": 0.547}]],
            ],
        }
        path = tmp_path / "noisy.json"
        path.write_text(json.dumps(doc))
        assert main(["c1", str(path)]) == EXIT_OK
        defect = json.loads(capsys.readouterr().out)["integrality_defect"]
        assert defect > 0.0
        assert main(["c1", str(path), "--integrality-tol", str(defect / 2)]) == EXIT_NONINTEGRAL
        assert "NonIntegralChernClass" in capsys.readouterr().err


class TestTolerancePrecedence:
    def test_document_tolerance_applies(self, tmp_path, capsys):
        # Document demands an impossible integrality tolerance; the noisy
        # input must be rejected without any flag.
        doc = {
            "punctures": 3,
            "dim": 2,
            "generators": [
                [[{"re": -0.563, "im": -0.993}, {"re": 0.845, "im": -0.974}],
                 [{"re": 0.753, "im": -0.768}, {"re": 0.62, "im": 0.566}]],
                [[{"re": 0.756, "im": 0.101}, {"re": 0.757, "im": -0.597}],
                 [{"re": 0.343, "im": -0.339}, {"re": 0.784, "im": 0.547}]],
            ],
            "tolerances": {"integrality_tol": 1e-18},
        }
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        assert main(["c1", str(path)]) == EXIT_NONINTEGRAL
        capsys.readouterr()
        # An explicit flag overrides the document.
        assert main(["c1", str(path), "--integrality-tol", "1e-6"]) == EXIT_OK


class TestToleranceBounds:
    """A resolved tol must stay below 0.05 (the 10 tol BranchBoundary band
    under half a turn) and integrality_tol below 1/2 (the largest defect)."""

    PAIR = {
        "punctures": 3,
        "dim": 2,
        "generators": [
            [[{"re": -0.563, "im": -0.993}, {"re": 0.845, "im": -0.974}],
             [{"re": 0.753, "im": -0.768}, {"re": 0.62, "im": 0.566}]],
            [[{"re": 0.756, "im": 0.101}, {"re": 0.757, "im": -0.597}],
             [{"re": 0.343, "im": -0.339}, {"re": 0.784, "im": 0.547}]],
        ],
    }

    @staticmethod
    def _write(tmp_path, tolerances=None):
        doc = dict(TestToleranceBounds.PAIR)
        if tolerances is not None:
            doc["tolerances"] = tolerances
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        return str(path)

    @pytest.mark.parametrize("command", ["classify", "c1"])
    @pytest.mark.parametrize(
        "flag, value", [("--tol", "0.05"), ("--tol", "0.6"), ("--integrality-tol", "0.5"),
                        ("--integrality-tol", "3")],
    )
    def test_flag_at_or_above_the_bound(self, tmp_path, capsys, command, flag, value):
        path = self._write(tmp_path)
        assert main([command, path, flag, value]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error[InputFormatError]: {flag}: expected a number below")

    @pytest.mark.parametrize("command", ["classify", "c1"])
    @pytest.mark.parametrize(
        "field, value", [("tol", 0.05), ("tol", 0.6), ("integrality_tol", 0.5),
                         ("integrality_tol", 3)],
    )
    def test_document_at_or_above_the_bound(self, tmp_path, capsys, command, field, value):
        path = self._write(tmp_path, {field: value})
        assert main([command, path]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"error[InputFormatError]: tolerances.{field}: expected a number below")

    @pytest.mark.parametrize("command", ["classify", "c1"])
    def test_just_below_the_bounds(self, tmp_path, capsys, command):
        path = self._write(tmp_path, {"tol": 0.0499, "integrality_tol": 0.4999})
        assert main([command, path]) == EXIT_OK
        assert main([command, path, "--tol", "0.0499", "--integrality-tol", "0.4999"]) == EXIT_OK

    def test_flag_overrides_a_document_out_of_bounds(self, tmp_path, capsys):
        assert main(["c1", self._write(tmp_path)]) == EXIT_OK
        plain = capsys.readouterr().out
        path = self._write(tmp_path, {"tol": 0.6, "integrality_tol": 0.5})
        assert main(["c1", path, "--tol", "1e-9", "--integrality-tol", "1e-6"]) == EXIT_OK
        assert capsys.readouterr().out == plain


def _near_cut_character_documents(count: int, seed: int):
    """Seeded one-dimensional 2-puncture documents r * e(q), with q within
    1e-6 of the cut, within 1e-6 of 1/2, or uniform in [0, 1), in turn."""
    rng = random.Random(seed)
    for k in range(count):
        offset = rng.choice((-1, 1)) * 10 ** rng.uniform(-12, -6)
        q = (offset % 1.0, 0.5 + offset, rng.random())[k % 3]
        z = cmath.rect(math.exp(rng.uniform(-2, 2)), 2 * math.pi * q)
        entry = {"re": z.real, "im": z.imag}
        yield json.dumps({"punctures": 2, "dim": 1, "generators": [[[entry]]]})


class TestLibraryAgreesWithCli:
    def test_default_tolerances_give_the_same_answer(self, tmp_path, capsys):
        # One default tol serves both: library classify with no tolerance
        # answers what logsplit classify prints, also next to the cut.
        path = tmp_path / "doc.json"
        for text in _near_cut_character_documents(1500, seed=41):
            path.write_text(text)
            library = report_to_output(classify(parse_input_document(text).representation()))
            assert main(["classify", str(path)]) == EXIT_OK
            assert capsys.readouterr().out == library.to_json() + "\n", text


class _StopSweep(Exception):
    pass


class _RowSink:
    """Stdout that keeps lattice row ``i`` (the sweep writes each row in
    one call) and stops the sweep there."""

    def __init__(self, i: int):
        self.i = i
        self.rows_seen = 0

    def write(self, text: str) -> None:
        if self.rows_seen == self.i:
            self.text = text
            raise _StopSweep
        self.rows_seen += 1


class _LabelSink:
    """Stdout that keeps the q0 label of each lattice row and the q1 labels
    of row 0, and stops the sweep after ``rows`` rows."""

    def __init__(self, rows: int):
        self.rows = rows
        self.q0 = []

    def write(self, text: str) -> None:
        if not self.q0:
            self.q1 = [line.split(",")[1] for line in text.split("\n")[:-1]]
        self.q0.append(text[: text.index(",")])
        if len(self.q0) == self.rows:
            raise _StopSweep


class _WriteLog:
    """Stdout that keeps the text of every write call."""

    def __init__(self):
        self.chunks = []

    def write(self, text: str) -> None:
        self.chunks.append(text)


class TestSweep:
    def test_steps_two_rows(self, capsys):
        assert main(["sweep", "--steps", "2"]) == EXIT_OK
        assert capsys.readouterr().out == "0,0,0\n0,1/2,-1\n1/2,0,-1\n1/2,1/2,-1\n"

    def test_steps_one(self, capsys):
        assert main(["sweep", "--steps", "1"]) == EXIT_OK
        assert capsys.readouterr().out == "0,0,0\n"

    def test_row_count_and_zero_root_uniqueness(self, capsys):
        assert main(["sweep", "--steps", "7"]) == EXIT_OK
        rows = capsys.readouterr().out.strip().splitlines()
        assert len(rows) == 49
        assert sum(1 for r in rows if r.endswith(",0")) == 1

    def test_bounds(self, capsys):
        assert main(["sweep", "--steps", "0"]) == EXIT_ERROR
        assert main(["sweep", "--steps", "10001"]) == EXIT_ERROR

    @staticmethod
    def _labels(steps: int, rows: int) -> _LabelSink:
        sink = _LabelSink(rows)
        with pytest.raises(_StopSweep):
            with contextlib.redirect_stdout(sink):
                main(["sweep", "--steps", str(steps)])
        return sink

    def test_labels_are_reduced_fractions(self):
        for steps in range(1, 301):
            expected = [str(Fraction(i, steps)) for i in range(steps)]
            sink = self._labels(steps, steps)
            assert sink.q0 == expected and sink.q1 == expected, steps

    @pytest.mark.parametrize("steps", [9973, 10000])
    def test_labels_at_the_largest_steps(self, steps):
        # Row 0 carries every q1 label; the rows before the stop carry
        # their q0 label.
        sink = self._labels(steps, 50)
        assert sink.q1 == [str(Fraction(i, steps)) for i in range(steps)]
        assert sink.q0 == sink.q1[:50]

    @staticmethod
    def _expected_row(i: int, j: int, steps: int) -> str:
        q0, q1 = Fraction(i, steps), Fraction(j, steps)
        return f"{q0},{q1},{character_root(q0, q1)}"

    def test_rows_match_character_root(self, capsys):
        for steps in range(1, 65):
            assert main(["sweep", "--steps", str(steps)]) == EXIT_OK
            rows = capsys.readouterr().out.split("\n")
            assert rows.pop() == ""
            assert rows == [
                self._expected_row(i, j, steps) for i in range(steps) for j in range(steps)
            ]

    @pytest.mark.parametrize("steps", [1, 2, 3, 64, 97])
    def test_each_row_is_one_write(self, steps):
        # The streaming contract that _RowSink and _LabelSink rely on: row i
        # is written whole, in the i-th of exactly `steps` write calls.
        sink = _WriteLog()
        with contextlib.redirect_stdout(sink):
            assert main(["sweep", "--steps", str(steps)]) == EXIT_OK
        assert len(sink.chunks) == steps
        for i, chunk in enumerate(sink.chunks):
            expected = "".join(self._expected_row(i, j, steps) + "\n" for j in range(steps))
            assert chunk == expected, (steps, i)

    @settings(max_examples=10, deadline=None)
    @given(
        st.integers(1, cli.MAX_SWEEP_STEPS).flatmap(
            lambda n: st.tuples(st.just(n), st.integers(0, n - 1))
        )
    )
    @example((10000, 0))
    @example((10000, 1))
    @example((997, 996))
    def test_rows_around_the_cut(self, case):
        steps, i = case
        sink = _RowSink(i)
        with pytest.raises(_StopSweep):
            with contextlib.redirect_stdout(sink):
                main(["sweep", "--steps", str(steps)])
        rows = sink.text.split("\n")
        assert rows.pop() == "" and len(rows) == steps
        # i + j <= steps holds up to the cut column j = steps - i.
        for j in {0, steps - i - 1, steps - i, steps - i + 1, steps - 1}:
            if 0 <= j < steps:
                assert rows[j] == self._expected_row(i, j, steps)


class TestNumericRobustness:
    """Inputs that used to end in a traceback exit with a documented code."""

    @staticmethod
    def _run(tmp_path, text, *flags):
        path = tmp_path / "doc.json"
        path.write_text(text)
        return main(["classify", str(path), *flags])

    def test_huge_float_generator_is_answered(self, tmp_path, capsys):
        # Char-poly coefficients reach about 1e56, and the eigenvalues have
        # moduli of 8.6e6 to 3.1e7, none on the positive real axis.
        import random

        rng = random.Random(0)
        gen = [
            [{"re": rng.uniform(-1e7, 1e7), "im": rng.uniform(-1e7, 1e7)} for _ in range(8)]
            for _ in range(8)
        ]
        doc = json.dumps({"punctures": 2, "dim": 8, "generators": [gen]})
        assert self._run(tmp_path, doc) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert (out["kind"], out["c1"], out["candidates"]) == (
            "TwoPunctureGeneral", -8, [[-1] * 8],
        )

    def test_char_poly_beyond_the_float_range(self, tmp_path, capsys):
        # The constant term of det(xI - A) is about 6e360; the eigenvalues,
        # near 1e120, 2e120 and 3e120, are representable.
        doc = (
            '{"punctures": 2, "dim": 3, '
            '"generators": [[[1e120, 1, 0], [0, 2e120, 1], [1, 0, 3e120]]]}'
        )
        assert self._run(tmp_path, doc) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert (out["kind"], out["c1"], out["candidates"]) == ("TwoPunctureGeneral", 0, [[0, 0, 0]])

    @pytest.mark.parametrize("index, n", [(827, 7), (881, 3)])
    def test_horner_overflow_is_solved_at_a_smaller_scale(self, tmp_path, capsys, index, n):
        # Documents of a seeded corpus with entries gauss * 10^U(0, 300):
        # scale 4.3e43 at dim 7 and 2.1e102 at dim 3.  The coefficients are
        # finite but Horner's scheme overflows on them.  mpmath's 80-digit
        # eigenvalues put none on the positive real axis, so c1 = -n.
        from logsplit import RootFindingDivergence
        from logsplit.documents import parse_input_document
        from logsplit.eigen import _aberth_solve

        rng = random.Random(5)
        for _ in range(index + 1):
            dim = rng.randint(3, 8)
            scale = 10 ** rng.uniform(0, 300)
            gen = [
                [{"re": rng.gauss(0, 1) * scale, "im": rng.gauss(0, 1) * scale} for _ in range(dim)]
                for _ in range(dim)
            ]
        doc = json.dumps({"punctures": 2, "dim": dim, "generators": [gen]})
        assert dim == n
        coeffs = parse_input_document(doc).representation().generators[0].char_poly()
        with pytest.raises(RootFindingDivergence):
            _aberth_solve(list(map(complex, coeffs)))
        assert self._run(tmp_path, doc) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert (out["kind"], out["c1"], out["candidates"], out["warnings"]) == (
            "TwoPunctureGeneral", -n, [[-1] * n], [],
        )

    @pytest.mark.parametrize("n", range(3, 9))
    def test_spectrum_scaled_by_a_power_of_two(self, tmp_path, capsys, n):
        # S D S^-1 and the same matrix times 2**400 (exact), whose
        # char-poly constant term, about 2**(400 n), overflows.
        spectrum = [2.0, 0.5j, -1.5, 3 * cmath.exp(1.1j * math.pi), 1.25, -0.75j, 0.8, -2.0]
        s = rand_well_conditioned(random.Random(n), n)
        d = Matrix([[spectrum[i] if i == j else 0 for j in range(n)] for i in range(n)])
        m = s @ d @ s.inverse()

        def answer(exp: int) -> tuple:
            gen = [
                [{"re": math.ldexp(z.real, exp), "im": math.ldexp(z.imag, exp)} for z in row]
                for row in (map(complex, row) for row in m.rows)
            ]
            doc = json.dumps({"punctures": 2, "dim": n, "generators": [gen]})
            assert self._run(tmp_path, doc) == EXIT_OK
            out = json.loads(capsys.readouterr().out)
            return out["kind"], out["c1"], out["candidates"]

        positive = sum(1 for z in spectrum[:n] if z == abs(z))
        assert answer(0) == ("TwoPunctureGeneral", positive - n, [[0] * positive + [-1] * (n - positive)])
        assert answer(400) == answer(0)

    def test_spectrum_wider_than_the_float_range_is_singular(self, tmp_path, capsys):
        # Eigenvalues 1.6, -0.6 and +-2.4e288: scaled to entries below 1,
        # the determinant underflows, as it would for the same matrix
        # given at that scale.
        doc = (
            '{"punctures": 2, "dim": 4, "generators": [[[0, 0, 0, 1], [0, 0, 1e300, 0], '
            '[0, 5.935696573799322e276, 0, 0], [1, 0, 0, 1]]]}'
        )
        assert self._run(tmp_path, doc) == EXIT_ERROR
        assert capsys.readouterr().err.startswith("error[SingularMatrix]")

    def test_huge_eigenvalue_has_a_small_reciprocal_at_infinity(self, tmp_path, capsys):
        # The zero test applies to the generator's eigenvalue, not to its
        # reciprocal 1/(1e10 + 1e10 i) of modulus 7.1e-11 at infinity.
        doc = '{"punctures": 2, "dim": 1, "generators": [[[{"re": 1e10, "im": 1e10}]]]}'
        assert self._run(tmp_path, doc) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert (out["kind"], out["c1"], out["candidates"]) == ("Character", -1, [[-1]])

    def test_extreme_diagonal_is_answered(self, tmp_path, capsys):
        # Exact entries: the eigenvalues 1e-200 and 1e200 are read off the
        # diagonal, so the scale of the determinant does not matter.
        doc = '{"punctures": 2, "dim": 2, "generators": [[[1e-200, 0], [0, 1e200]]]}'
        assert self._run(tmp_path, doc) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert (out["kind"], out["c1"], out["candidates"]) == ("TwoPunctureGeneral", 0, [[0, 0]])

    def test_singular_conjugated_generators_exit_one(self, tmp_path, capsys):
        # S D S^-1 at dims 2-8, D with one eigenvalue 0 or 1e-14.  S is a
        # product of random unit-triangular factors, so det S = 1 while
        # its condition number reaches 1e6; none of these is answered.
        def unit_triangular(n, scale, upper):
            # I - N and its inverse sum_k N^k, N nilpotent.
            nil = [[complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale))
                    if (j > i if upper else j < i) else 0j for j in range(n)] for i in range(n)]
            eye = [[complex(i == j) for j in range(n)] for i in range(n)]
            inv = power = eye
            for _ in range(n - 1):
                power = matmul(power, nil)
                inv = [[x + y for x, y in zip(r, p)] for r, p in zip(inv, power)]
            return [[x - y for x, y in zip(r, p)] for r, p in zip(eye, nil)], inv

        def norm(a):
            return max(sum(map(abs, row)) for row in a)

        rng = random.Random(6)
        kappas, answered = [], []
        while len(kappas) < 200:
            n = 2 + len(kappas) % 7
            scale = 10 ** rng.uniform(-1, 1)
            s = s_inv = [[complex(i == j) for j in range(n)] for i in range(n)]
            for f in range(rng.randint(2, 4)):
                t, t_inv = unit_triangular(n, scale, f % 2 == 1)
                s, s_inv = matmul(s, t), matmul(t_inv, s_inv)
            kappa = norm(s) * norm(s_inv)
            if kappa > 1e6:
                continue
            d = [rng.uniform(0.5, 2.0) * cmath.exp(2j * math.pi * rng.random()) for _ in range(n)]
            d[rng.randrange(n)] = 0j if len(kappas) % 2 else 1e-14 + 0j
            diag = [[d[i] if i == j else 0j for j in range(n)] for i in range(n)]
            gen = conjugated(s, s_inv, diag)
            kappas.append(kappa)
            doc = json.dumps({"punctures": 2, "dim": n, "generators": [
                [[{"re": z.real, "im": z.imag} for z in row] for row in gen]]})
            if self._run(tmp_path, doc) != EXIT_ERROR:
                answered.append(len(kappas))
            capsys.readouterr()
        assert max(kappas) > 5e5
        assert answered == []

    def test_overflowing_generator_product(self, tmp_path, capsys):
        # The product at three punctures overflows to inf + inf*i; its
        # reciprocal would be NaN.
        doc = (
            '{"punctures": 3, "dim": 1, '
            '"generators": [[[1e200]], [[{"re": 1e200, "im": 1e200}]]]}'
        )
        assert self._run(tmp_path, doc) == EXIT_ERROR
        assert "error[FloatRangeError]" in capsys.readouterr().err

    def test_integer_beyond_float_range(self, tmp_path, capsys):
        doc = '{"punctures": 2, "dim": 1, "generators": [[[%s]]]}' % ("1" + "0" * 399)
        assert self._run(tmp_path, doc) == EXIT_ERROR
        assert "error[InputFormatError]" in capsys.readouterr().err

    def test_determinant_modulus_beyond_the_float_range(self, tmp_path, capsys):
        # det = 1.3e308 (1 + i): finite parts, but a modulus that abs()
        # cannot return as a float.
        doc = (
            '{"punctures": 2, "dim": 2, '
            '"generators": [[[{"re": 1.3e154, "im": 1.3e154}, 0], [0, 1e154]]]}'
        )
        assert self._run(tmp_path, doc) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert (out["kind"], out["c1"], out["candidates"]) == ("TwoPunctureGeneral", -1, [[0, -1]])

    def test_complex_determinant_modulus_beyond_the_float_range(self, tmp_path, capsys):
        # The same determinant from a generator whose entries are all
        # floating, so det() is a complex, not an exact Scalar.
        tiny = '{"re": 1e-300, "im": 1e-300}'
        doc = (
            '{"punctures": 2, "dim": 2, "generators": [[[{"re": 1.3e154, "im": 1.3e154}, %s], '
            '[%s, {"re": 1e154, "im": 1e-154}]]]}' % (tiny, tiny)
        )
        assert self._run(tmp_path, doc) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert (out["kind"], out["c1"], out["candidates"]) == ("TwoPunctureGeneral", -1, [[0, -1]])

    def test_integer_literal_beyond_the_digit_limit(self, tmp_path, capsys):
        # json.loads refuses integer literals of more than 4300 digits
        # with a ValueError that is not a JSONDecodeError.
        doc = '{"punctures": 2, "dim": 1, "generators": [[[%s]]]}' % ("1" * 5000)
        assert self._run(tmp_path, doc) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error[InputFormatError]: invalid JSON: an integer literal")
        assert err.count("\n") == 1

    def test_nesting_beyond_the_recursion_limit(self, tmp_path, capsys):
        doc = "[" * 100000 + "]" * 100000
        assert self._run(tmp_path, doc) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err == "error[InputFormatError]: invalid JSON: arrays or objects nested too deeply\n"

    def test_input_that_is_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "doc.json"
        path.write_bytes(b'{"punctures": 2, "dim": 1, "generators": [[[\xff]]]}')
        assert main(["classify", str(path)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error[InputFormatError]: input is not valid UTF-8")
        assert err.count("\n") == 1

    def test_nonpositive_document_tolerance(self, tmp_path, capsys):
        doc = '{"punctures": 2, "dim": 1, "generators": [[[2]]], "tolerances": {"tol": -1}}'
        assert self._run(tmp_path, doc) == EXIT_ERROR
        assert "tolerances.tol" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--tol", "--integrality-tol"])
    @pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
    def test_nonpositive_flag_tolerance(self, tmp_path, capsys, flag, value):
        doc = '{"punctures": 2, "dim": 1, "generators": [[[2]]]}'
        assert self._run(tmp_path, doc, f"{flag}={value}") == EXIT_ERROR
        assert flag in capsys.readouterr().err
        path = tmp_path / "doc.json"
        assert main(["c1", str(path), f"{flag}={value}"]) == EXIT_ERROR
