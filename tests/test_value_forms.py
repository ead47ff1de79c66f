"""One floating form: exact values are Scalars, floating values ``complex``.

On the floating and mixed document corpora of test_pinned_output, no matrix
accessor and no invariant line returns a floating Scalar.  Eigenvalues are
the one boxed form: ``EigenPair.value`` is always a Scalar, so its complex
value ``.z`` exists for exact and floating eigenvalues alike.
"""

import pytest

from logsplit import LogSplitError, Matrix, Scalar, build, invariant_lines, parse_input_document
from logsplit.eigen import DEFAULT_CLUSTER_TOL
from conftest import stored_form
from test_pinned_output import _inexact_3p_documents, _inexact_dim8_documents, _mixed_documents

CORPORA = {
    "inexact_3p": _inexact_3p_documents,
    "inexact_dim8": _inexact_dim8_documents,
    "mixed": _mixed_documents,
}


def _matrix_values(m) -> list:
    values = [e for row in m.rows for e in row]
    values += [m[i, j] for i in range(m.n) for j in range(m.n)]
    values += [m.det(), *m.char_poly(), *m.diagonal()]
    scalar = m.scalar_value(DEFAULT_CLUSTER_TOL)
    return values if scalar is None else values + [scalar]


@pytest.mark.parametrize("name", sorted(CORPORA))
def test_accessors_return_exact_scalars_or_complex(name):
    floating_entries = eigenvalues_seen = lines_seen = 0
    for text in CORPORA[name]():
        doc = parse_input_document(text)
        gens = doc.generators
        for m in gens:
            values = _matrix_values(m)
            assert all(map(stored_form, values)), (text, values)
            # The checked constructor keeps each decoded entry as it is.
            checked = Matrix(m.rows).rows
            assert all(x is y for r, s in zip(checked, m.rows) for x, y in zip(r, s)), text
            floating_entries += sum(type(e) is complex for row in m.rows for e in row)
        try:
            prep = build(doc.representation())
        except LogSplitError:
            continue
        for data in prep.local_eigen:
            for pair in data.pairs:
                assert type(pair.value) is Scalar and type(pair.value.z) is complex
                eigenvalues_seen += 1
        if doc.punctures == 3 and doc.dim == 2:
            for line in invariant_lines(*gens).lines:
                values = line.direction + line.sub_eigen_pair + line.quotient_eigen_pair
                assert all(map(stored_form, values)), (text, values)
                lines_seen += 1
    assert floating_entries and eigenvalues_seen
    assert lines_seen or name == "inexact_dim8"  # two punctures only
