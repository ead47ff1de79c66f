"""One SHA-256 over the seed-1 benchmark round of all four workloads.

The round is built by ``bench/corpus.py`` (read, never written: no
bytecode is cached there) and answered here through the public API, as
``bench/ops.py`` answers it: library ``classify`` on the exact 3-puncture
pairs, JSON in and out for the float documents, and ``sweep --steps 64``
through the command line.  The digest covers the whole output of the
document workloads, the verdict and the float diagnostics (``float.hex``)
of every exact pair, and the sweep table, so a change that moves any of
them by one bit fails here.  An intended output change re-pins it.

One digest holds on every supported Python: the package adds floats by
left folds, never by ``sum``, which compensates from 3.12 on.
"""

import contextlib
import hashlib
import io
import sys
from pathlib import Path

from logsplit import (
    DEFAULT_INTEGRALITY_TOL,
    LogSplitError,
    Matrix,
    Representation,
    Scalar,
    classify,
    parse_input_document,
    report_to_output,
)
from logsplit.cli import CLI_DEFAULT_TOL, main
from logsplit.eigen import DEFAULT_CLUSTER_TOL

BENCH = Path(__file__).resolve().parents[1] / "bench"
SEED = 1

ROUND_SHA256 = "6f0da435277b838a78c3bf9faa12cc45ba80b640d0c31fbb2c59673bb02eb77e"


def _corpus():
    path, bytecode = str(BENCH), sys.dont_write_bytecode
    sys.path.insert(0, path)
    sys.dont_write_bytecode = True
    try:
        import corpus
    finally:
        sys.path.remove(path)
        sys.dont_write_bytecode = bytecode
    return corpus


def _exact_3p(payload) -> str:
    def scalar(e):
        return Scalar.polar(*e) if isinstance(e, tuple) else e

    gens = tuple(Matrix([[scalar(e) for e in row] for row in m]) for m in payload)
    try:
        report = classify(Representation(3, gens), DEFAULT_CLUSTER_TOL, DEFAULT_INTEGRALITY_TOL)
    except LogSplitError as exc:
        return f"{type(exc).__name__}: {exc}"
    chern = report.chern
    return repr((
        report.kind.value,
        report.c1,
        tuple(c.roots for c in report.candidates),
        report.ambiguous,
        tuple(report.warnings),
        chern.raw_q_sum.hex(),
        chern.integrality_defect.hex(),
        chern.ln_r_closure_defect.hex(),
    ))


def _document(text: str) -> str:
    try:
        doc = parse_input_document(text)
        report = classify(doc.representation(), CLI_DEFAULT_TOL, DEFAULT_INTEGRALITY_TOL)
    except LogSplitError as exc:
        return f"{type(exc).__name__}: {exc}"
    return report_to_output(report).to_json()


def _sweep(steps: int) -> str:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        code = main(["sweep", "--steps", str(steps)])
    return f"{code}\n{sink.getvalue()}"


ANSWER = {
    "exact-3p": _exact_3p,
    "float-3p": _document,
    "float-2p-dim8": _document,
    "sweep": _sweep,
}


def round_digest(seed: int = SEED) -> str:
    corpus = _corpus()
    digest = hashlib.sha256()
    for workload, answer in ANSWER.items():
        for item in corpus.make_round(workload, seed):
            digest.update(f"{workload}\n{answer(item.payload)}\n".encode())
    return digest.hexdigest()


def test_seed_1_round_is_byte_identical():
    assert round_digest() == ROUND_SHA256
