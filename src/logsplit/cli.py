"""Command line interface.

Commands: ``classify`` (full pipeline), ``c1`` (Chern class only) and
``sweep`` (character region table as CSV).  Structured results go to
stdout; human diagnostics to stderr.

Exit codes: 0 ok, 1 usage, validation or numeric error, 2 unsupported
case, 3 non-integral Chern class.  Code 4, once a failed self-test, is
retired and never returned.

``classify`` and ``c1`` check a tolerance given by a flag or the document
against the library's bound, naming the flag or the ``tolerances.*`` field.

The argument parser is built once per process, on the first ``main`` call:
building it costs several ``sweep --steps 64`` tables.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from math import gcd

from .chern import DEFAULT_INTEGRALITY_TOL, INTEGRALITY_TOL_BOUND, ohtsuki_c1
from .documents import parse_input_document, report_to_output
from .eigen import DEFAULT_CLUSTER_TOL, TOL_BOUND, checked_tolerance
from .errors import InputFormatError, LogSplitError, NonIntegralChernClass, UnsupportedCase
from .representation import build
from .splitting import classify

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNSUPPORTED = 2
EXIT_NONINTEGRAL = 3

#: The parallelism/clustering/snapping tolerance default, the library's.
CLI_DEFAULT_TOL = DEFAULT_CLUSTER_TOL

MAX_SWEEP_STEPS = 10000


def _exit_code(exc: LogSplitError) -> int:
    if isinstance(exc, UnsupportedCase):
        return EXIT_UNSUPPORTED
    if isinstance(exc, NonIntegralChernClass):
        return EXIT_NONINTEGRAL
    return EXIT_ERROR


def _read_input(path: str) -> str:
    # Decoded here, not by sys.stdin: under a C locale that would hand
    # undecodable bytes on to the JSON decoder as lone surrogates.
    if path == "-":
        data = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as f:
            data = f.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputFormatError(f"input is not valid UTF-8: {exc}") from exc


def _document_and_tols(args) -> tuple:
    """The input's representation and tolerances, each tolerance from its
    flag, else the document, else the default."""
    doc = parse_input_document(_read_input(args.input))
    resolved = []
    for field, flag, default, bound in (
        ("tol", "--tol", CLI_DEFAULT_TOL, TOL_BOUND),
        ("integrality_tol", "--integrality-tol", DEFAULT_INTEGRALITY_TOL, INTEGRALITY_TOL_BOUND),
    ):
        value, where = getattr(args, field), flag
        if value is None:
            value, where = getattr(doc, field), f"tolerances.{field}"
        resolved.append(default if value is None else checked_tolerance(value, where, bound))
    return doc.representation(), resolved[0], resolved[1]


def _cmd_classify(args) -> int:
    rep, tol, itol = _document_and_tols(args)
    print(report_to_output(classify(rep, tol, itol)).to_json())
    return EXIT_OK


def _cmd_c1(args) -> int:
    rep, tol, itol = _document_and_tols(args)
    chern = ohtsuki_c1(build(rep, tol), itol)
    print(json.dumps(chern._asdict()))
    return EXIT_OK


def _cmd_sweep(args) -> int:
    steps = args.steps
    if not 1 <= steps <= MAX_SWEEP_STEPS:
        print(f"error: --steps must lie in 1..{MAX_SWEEP_STEPS}", file=sys.stderr)
        return EXIT_ERROR
    # character_root on the lattice point (i/steps, j/steps), in integers:
    # 0 at the origin, -1 while i + j <= steps, -2 beyond.  Each label is
    # i/steps in lowest terms, as str(Fraction(i, steps)) prints it.
    labels = ["0"]
    for i in range(1, steps):
        g = gcd(i, steps)
        labels.append(f"{i // g}/{steps // g}")
    # cells[j + 1] is column j's ",q1,root\n"; the leading "" makes
    # label.join(cells) the whole row, label first.  Row i is row i - 1
    # with one cell changed: the origin turns -1 at row 1, and from row 2
    # on column steps + 1 - i, the first past the diagonal, turns -2.
    cells = ["", ",0,0\n", *[f",{label},-1\n" for label in labels[1:]]]
    out = sys.stdout
    out.write("0".join(cells))
    cells[1] = ",0,-1\n"
    for i in range(1, steps):
        j = steps + 1 - i
        if j < steps:
            cells[j + 1] = f",{labels[j]},-2\n"
        out.write(labels[i].join(cells))
    return EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built on first call, not at import.  parse_args returns a fresh
    # namespace and prints to the sys.stdout/sys.stderr current at its call.
    parser = argparse.ArgumentParser(
        prog="logsplit",
        description=(
            "Splitting type of the canonical logarithmic extension of a "
            "monodromy representation on the 2- or 3-punctured projective line."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_tol_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--tol",
            type=float,
            default=None,
            help=f"parallelism/clustering tolerance (default {CLI_DEFAULT_TOL})",
        )
        p.add_argument(
            "--integrality-tol",
            dest="integrality_tol",
            type=float,
            default=None,
            help=f"allowed distance of the q-sum from an integer (default {DEFAULT_INTEGRALITY_TOL})",
        )

    p_classify = sub.add_parser("classify", help="full classification of an input document")
    p_classify.add_argument("input", nargs="?", default="-", help="input file or - for stdin")
    add_tol_flags(p_classify)
    p_classify.set_defaults(func=_cmd_classify)

    p_c1 = sub.add_parser("c1", help="first Chern class and diagnostics only")
    p_c1.add_argument("input", nargs="?", default="-", help="input file or - for stdin")
    add_tol_flags(p_c1)
    p_c1.set_defaults(func=_cmd_c1)

    p_sweep = sub.add_parser("sweep", help="character region table over a rational lattice, CSV")
    p_sweep.add_argument("--steps", type=int, required=True, help="lattice subdivisions per axis")
    p_sweep.set_defaults(func=_cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after --help and 2, here an unsupported case, on a usage error.
        return EXIT_ERROR if exc.code else EXIT_OK
    try:
        return args.func(args)
    except LogSplitError as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return _exit_code(exc)
    except OSError as exc:
        print(f"error[io]: {exc}", file=sys.stderr)
        return EXIT_ERROR


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
