"""The operations each workload times, and their traced decomposition.

Importing this module puts the checkout's ``src`` first on ``sys.path`` and
imports logsplit from there; without those sources it exits with an error,
so the benchmark never measures some other installed copy.

The untraced operation is what a user runs.  The traced operation makes
the same calls through the public functions of each module, one span per
stage (parse, validate, build, dispatch, emit), and between build and
dispatch re-runs single layers on the same data as probe spans (generator
product, inverse, characteristic polynomial, eigenvalues, c1, invariant
lines).  Probes never feed the result, so a traced operation fails exactly
when its untraced twin does.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from fractions import Fraction

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if not os.path.isfile(os.path.join(_SRC, "logsplit", "__init__.py")):
    raise SystemExit(f"bench: no logsplit sources under {_SRC}")
sys.path.insert(0, _SRC)

import logsplit  # noqa: E402
from logsplit import (  # noqa: E402
    DEFAULT_INTEGRALITY_TOL,
    Matrix,
    Representation,
    Scalar,
    build,
    char_poly,
    character_root,
    classify,
    classify_dim2,
    eigenvalues,
    invariant_lines,
    mat_inverse,
    mat_mul,
    monodromy_at_infinity,
    ohtsuki_c1,
    parse_input_document,
    report_to_output,
    split_two_punctures,
)
from logsplit import cli  # noqa: E402
from logsplit.eigen import DEFAULT_CLUSTER_TOL  # noqa: E402

import oracles  # noqa: E402

if not os.path.abspath(logsplit.__file__).startswith(_SRC + os.sep):
    raise SystemExit(f"bench: imported logsplit from {logsplit.__file__}, not {_SRC}")

#: Top-level stages of one operation; their sum is what trace.coverage
#: compares with the untraced latency.
STAGES = (
    "documents.parse",
    "representation.validate",
    "representation.build",
    "splitting.dispatch",
    "documents.emit",
    "cli.sweep",
)

#: Relative tolerance of the traced eigenvalue check against the
#: constructed spectrum.
SPECTRUM_TOL = 1e-6


class Counts:
    """Per-pass counters recorded at the layer boundaries."""

    NAMES = ("eigen.exact_pairs", "eigen.float_pairs", "splitting.lines_found", "eigen.warnings")

    def __init__(self):
        self.values = dict.fromkeys(self.NAMES, 0)

    def eigen(self, prep) -> None:
        for data in prep.local_eigen:
            for pair in data.pairs:
                key = "eigen.exact_pairs" if isinstance(pair.q, Fraction) else "eigen.float_pairs"
                self.values[key] += 1
        self.values["eigen.warnings"] += len(prep.warnings())


def _report_fields(report) -> dict:
    return {
        "kind": report.kind.value,
        "c1": report.c1,
        "candidates": tuple(c.roots for c in report.candidates),
        "ambiguous": report.ambiguous,
        "warnings": tuple(report.warnings),
    }


def _matches(fields: dict, expected: dict) -> bool:
    return fields["warnings"] == () and all(fields[k] == v for k, v in expected.items())


def _probe_layers(prep, tol, itol, tracer, counts) -> None:
    gens = prep.rep.generators
    with tracer.span("representation.infinity"):
        monodromy_at_infinity(gens)
    product = gens[0]
    for g in gens[1:]:
        product = mat_mul(product, g)
    with tracer.span("matrix.inverse"):
        mat_inverse(product)
    with tracer.span("matrix.matmul"):
        mat_mul(gens[0], prep.infinity_monodromy)
    for m in prep.local_monodromies():
        with tracer.span("matrix.char_poly"):
            char_poly(m)
        with tracer.span("eigen.eigenvalues"):
            eigenvalues(m, tol)
    with tracer.span("chern.c1"):
        ohtsuki_c1(prep, itol)
    if prep.punctures == 3 and prep.dim == 2:
        with tracer.span("splitting.invariant_lines"):
            lines = invariant_lines(gens[0], gens[1], tol)
        counts.values["splitting.lines_found"] += len(lines.lines)
    counts.eigen(prep)


def _dispatch(prep, tol, itol):
    if prep.punctures == 2:
        return split_two_punctures(prep, tol, itol)
    return classify_dim2(prep, tol, itol)


class Exact3p:
    """Library ``classify`` on exact 3-puncture 2x2 pairs."""

    tol, itol = DEFAULT_CLUSTER_TOL, DEFAULT_INTEGRALITY_TOL

    @staticmethod
    def prepare(item):
        def scalar(e):
            return Scalar.polar(*e) if isinstance(e, tuple) else e

        return tuple(Matrix([[scalar(e) for e in row] for row in m]) for m in item.payload)

    def run(self, gens):
        return classify(Representation(3, gens), self.tol, self.itol)

    def check(self, item, report) -> bool:
        return _matches(_report_fields(report), item.expected)

    def traced(self, item, gens, tracer, counts):
        with tracer.span("representation.validate"):
            rep = Representation(3, gens)
        with tracer.span("representation.build"):
            prep = build(rep, self.tol)
        _probe_layers(prep, self.tol, self.itol, tracer, counts)
        with tracer.span("splitting.dispatch"):
            return _dispatch(prep, self.tol, self.itol)


class FloatDocuments:
    """JSON document -> parse -> classify -> JSON, as ``logsplit classify``
    does it (CLI default tolerances), without the process spawn."""

    tol, itol = cli.CLI_DEFAULT_TOL, DEFAULT_INTEGRALITY_TOL

    @staticmethod
    def prepare(item):
        return item.payload

    def run(self, text):
        doc = parse_input_document(text)
        report = classify(doc.representation(), self.tol, self.itol)
        return report_to_output(report).to_json()

    def check(self, item, out) -> bool:
        raw = json.loads(out)
        fields = {
            "kind": raw["kind"],
            "c1": raw["c1"],
            "candidates": tuple(tuple(c) for c in raw["candidates"]),
            "ambiguous": raw["ambiguous"],
            "warnings": tuple(raw["warnings"]),
        }
        return _matches(fields, item.expected)

    def traced(self, item, text, tracer, counts):
        with tracer.span("documents.parse"):
            doc = parse_input_document(text)
        with tracer.span("representation.validate"):
            rep = doc.representation()
        with tracer.span("representation.build"):
            prep = build(rep, self.tol)
        _probe_layers(prep, self.tol, self.itol, tracer, counts)
        if item.spectrum and not _spectrum_matches(prep.local_eigen[0], item.spectrum):
            raise AssertionError("eigenvalues differ from the constructed spectrum")
        with tracer.span("splitting.dispatch"):
            report = _dispatch(prep, self.tol, self.itol)
        with tracer.span("documents.emit"):
            return report_to_output(report).to_json()


def _spectrum_matches(data, spectrum) -> bool:
    found = [p.value.z for p in data.pairs for _ in range(p.multiplicity)]
    if len(found) != len(spectrum):
        return False
    unused = list(found)
    for z in spectrum:
        best = min(unused, key=lambda w: abs(w - z))
        if abs(best - z) > SPECTRUM_TOL * (1.0 + abs(z)):
            return False
        unused.remove(best)
    return True


class Sweep:
    """``logsplit sweep --steps N`` through ``cli.main``, stdout captured."""

    @staticmethod
    def prepare(item):
        return item.payload

    @staticmethod
    def run(steps):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            code = cli.main(["sweep", "--steps", str(steps)])
        return code, sink.getvalue()

    @staticmethod
    def check(item, out) -> bool:
        code, text = out
        return code == cli.EXIT_OK and text == item.expected

    def traced(self, item, steps, tracer, counts):
        with tracer.span("cli.sweep", calls=steps * steps):
            out = self.run(steps)
        lattice = [Fraction(i, steps) for i in range(steps)]
        with tracer.span("splitting.character_root", calls=steps * steps):
            roots = [character_root(q0, q1) for q0 in lattice for q1 in lattice]
        if roots != [oracles.sweep_root(i, j, steps) for i in range(steps) for j in range(steps)]:
            raise AssertionError("character_root disagrees with the integer rule")
        return out


WORKLOADS = {
    "exact-3p": Exact3p(),
    "float-3p": FloatDocuments(),
    "float-2p-dim8": FloatDocuments(),
    "sweep": Sweep(),
}
