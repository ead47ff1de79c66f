import cmath
import math
import random
from fractions import Fraction

import pytest

from logsplit import (
    DimensionMismatch,
    InputFormatError,
    Matrix,
    Representation,
    Scalar,
    SingularMatrix,
    ZeroEigenvalue,
    build,
    classify,
    conjugate,
    eigenvalues,
    monodromy_at_infinity,
    ohtsuki_c1,
    report_to_output,
)
from logsplit.eigen import TOL_BOUND
from logsplit.scalar import ZERO
from conftest import close_to, rand_invertible, rand_well_conditioned, rotated_diag

F = Fraction


class TestInfinityMonodromy:
    def test_scalar_self_inverse(self):
        assert monodromy_at_infinity([Matrix([[-1]])]) == Matrix([[-1]])

    def test_golden_pair(self, golden_pair):
        expected = Matrix([[F(-1, 2), -1], [F(3, 4), F(-1, 2)]])
        assert monodromy_at_infinity(list(golden_pair)) == expected

    def test_product_collapses(self):
        rng = random.Random(3)
        a = rand_invertible(rng, 3)
        m = monodromy_at_infinity([a, a.inverse()])
        assert close_to(m, Matrix.identity(3), 1e-9)


class TestBuild:
    def test_trivial_two_puncture_character(self):
        prep = build(Representation(2, (Matrix([[1]]),)))
        assert [p.q for e in prep.local_eigen for p in e.pairs] == [F(0), F(0)]

    def test_golden_branch_multisets(self, golden_rep):
        prep = build(golden_rep)
        multisets = [sorted(p.q for p in e.pairs) for e in prep.local_eigen]
        assert multisets == [
            [F(0), F(1, 2)],
            [F(0), F(1, 2)],
            [F(1, 3), F(2, 3)],
        ]

    @pytest.mark.parametrize(
        "tol, message",
        [
            (-1, "tol: expected a finite number above zero, got -1"),
            (0.0, "tol: expected a finite number above zero, got 0.0"),
            (math.nan, "tol: expected a finite number above zero, got nan"),
            (TOL_BOUND, "tol: expected a number below 0.05, got 0.05"),
            (0.3, "tol: expected a number below 0.05, got 0.3"),
            (math.inf, "tol: expected a finite number above zero, got inf"),
        ],
    )
    def test_tol_outside_its_bounds(self, golden_rep, tol, message):
        # build and classify check tol as the command line does.
        for call in (build, classify):
            with pytest.raises(InputFormatError) as info:
                call(golden_rep, tol)
            assert str(info.value) == message

    def test_tol_just_inside_its_bounds(self, golden_rep):
        for tol in (1e-300, math.nextafter(TOL_BOUND, 0.0)):
            assert classify(golden_rep, tol).c1 == -2

    def test_minus_one_character_pair(self):
        prep = build(Representation(3, (Matrix([[-1]]), Matrix([[-1]]))))
        assert prep.infinity_monodromy == Matrix([[1]])
        qs = [[p.q for p in e.pairs] for e in prep.local_eigen]
        assert qs == [[F(1, 2)], [F(1, 2)], [F(0)]]

    def test_local_product_closes_up(self):
        rng = random.Random(13)
        for punctures in (2, 3):
            gens = tuple(rand_invertible(rng, 3) for _ in range(punctures - 1))
            prep = build(Representation(punctures, gens))
            product = prep.local_monodromies()[0]
            for m in prep.local_monodromies()[1:]:
                product = product @ m
            assert close_to(product, Matrix.identity(3), 1e-8)
            assert abs(sum(e.ln_r_sum() for e in prep.local_eigen)) < 1e-8

    def test_eigen_order_matches_punctures(self, golden_rep):
        prep = build(golden_rep)
        assert len(prep.local_eigen) == 3
        assert prep.punctures == 3
        assert prep.dim == 2


class TestConjugate:
    def test_identity_conjugation(self, golden_rep):
        assert conjugate(golden_rep, Matrix.identity(2)) == golden_rep

    def test_permutation_swaps_diagonal(self):
        rep = Representation(2, (Matrix([[2, 0], [0, 3]]),))
        swap = Matrix([[0, 1], [1, 0]])
        assert conjugate(rep, swap).generators[0] == Matrix([[3, 0], [0, 2]])

    def test_branch_multisets_are_invariant(self):
        rng = random.Random(17)
        gens = (rand_invertible(rng, 2), rand_invertible(rng, 2))
        rep = Representation(3, gens)
        s = rand_well_conditioned(rng, 2)
        original = build(rep)
        conjugated = build(conjugate(rep, s))
        for ea, eb in zip(original.local_eigen, conjugated.local_eigen):
            qa = sorted(float(p.q) for p in ea.pairs for _ in range(p.multiplicity))
            qb = sorted(float(p.q) for p in eb.pairs for _ in range(p.multiplicity))
            assert all(abs(x - y) < 1e-7 for x, y in zip(qa, qb))

    def test_dimension_check(self, golden_rep):
        with pytest.raises(DimensionMismatch):
            conjugate(golden_rep, Matrix.identity(3))


class TestExactnessInEveryDimension:
    """Exact data stays exact through the Scalar inverse and product at
    n >= 3, so exact answers do not change under exact conjugation."""

    # Moduli 2 and 1/2 and otherwise 1: their logarithms cancel exactly.
    VALUES = (
        Scalar.polar(2, F(1, 3)),
        Scalar.exact(1),
        Scalar.polar(F(1, 2), F(1, 2)),
        Scalar.polar(1, F(1, 4)),
        Scalar.polar(1, F(5, 6)),
        Scalar.exact(-1),
        Scalar.polar(1, F(2, 7)),
        Scalar.polar(1, F(3, 4)),
    )

    @staticmethod
    def _triangular_pair(rng: random.Random, n: int) -> tuple[Matrix, Matrix]:
        def polar() -> Scalar:
            return Scalar.polar(F(rng.randint(1, 5), rng.randint(1, 5)), F(rng.randrange(10), 10))

        return tuple(
            Matrix([[polar() if j >= i else ZERO for j in range(n)] for i in range(n)])
            for _ in range(2)
        )

    @pytest.mark.parametrize("n", range(3, 9))
    def test_cyclic_conjugation_keeps_the_report(self, n):
        diag = Matrix([[self.VALUES[i] if i == j else ZERO for j in range(n)] for i in range(n)])
        cycle = Matrix([[1 if j == (i + 1) % n else 0 for j in range(n)] for i in range(n)])
        rep = Representation(2, (diag,))
        plain = report_to_output(classify(rep, 1e-9)).to_json()
        assert report_to_output(classify(conjugate(rep, cycle), 1e-9)).to_json() == plain
        assert '"warnings": []' in plain and '"ln_r_closure_defect": 0.0' in plain

    @pytest.mark.parametrize("n", range(3, 9))
    def test_infinity_of_a_triangular_pair_has_exact_eigenvalues(self, n):
        rng = random.Random(90 + n)
        for _ in range(3):
            gens = self._triangular_pair(rng, n)
            assert all(type(p.q) is F for p in eigenvalues(monodromy_at_infinity(gens)).pairs)

    def test_c1_of_a_triangular_dim3_pair_is_exact(self):
        m0, m1 = self._triangular_pair(random.Random(5), 3)
        assert ohtsuki_c1(build(Representation(3, (m0, m1)))).exact


class TestValidation:
    def test_wrong_generator_count(self):
        with pytest.raises(DimensionMismatch):
            Representation(3, (Matrix([[1]]),))

    def test_mismatched_dimensions(self):
        with pytest.raises(DimensionMismatch):
            Representation(3, (Matrix([[1]]), Matrix.identity(2)))

    def test_unsupported_puncture_count(self):
        with pytest.raises(DimensionMismatch):
            Representation(4, (Matrix([[1]]), Matrix([[1]]), Matrix([[1]])))

    def test_singular_generator(self):
        # A representation checks shapes only; build decides singularity
        # where it solves for the eigenvalues, here exactly.
        rep = Representation(2, (Matrix([[1, 1], [1, 1]]),))
        with pytest.raises(ZeroEigenvalue):
            build(rep)

    def test_near_singular_float_generator(self):
        m = Matrix([[Scalar.inexact(1 + 0j), Scalar.inexact(1 + 0j)],
                    [Scalar.inexact(1 + 0j), Scalar.inexact(1 + 1e-15j)]])
        rep = Representation(2, (m,))
        with pytest.raises(SingularMatrix):
            build(rep)

    def test_singular_error_names_the_matrix(self):
        # R diag(1e-7, 1) R^T passes the singularity test; its square, the
        # product m0·m1, with determinant 1e-14, does not.
        near = rotated_diag(1e-7, 0.3)
        singular = Matrix([[1, 1], [1, 1]])
        for rep, error, name in [
            (Representation(2, (singular,)), ZeroEigenvalue, "generator 0"),
            (Representation(3, (near, singular)), ZeroEigenvalue, "generator 1"),
            (Representation(3, (near, near)), SingularMatrix, "product m0·m1"),
        ]:
            with pytest.raises(error, match=f"^{name}: "):
                build(rep)


class TestSingularityFromEigenvalues:
    """A triangular generator is singular only where a diagonal entry is
    exactly zero, whatever the scale of its determinant."""

    @pytest.mark.parametrize(
        "diagonal, kind, c1",
        [
            ([1e-50], "Character", 0),
            ([1e8, 1, 1, 1, -1], "TwoPunctureGeneral", -1),
            ([1e8, 1, 1, 1, 1], "TwoPunctureGeneral", 0),
            ([1e-10 + 0j, 1 + 0j], "TwoPunctureGeneral", 0),
        ],
    )
    def test_diagonal_generator_is_answered(self, diagonal, kind, c1):
        # Exact numbers, except the floating diag(1e-10, 1), whose small
        # entry lies below the clustering tolerance.
        n = len(diagonal)
        gen = Matrix([[diagonal[i] if i == j else 0 for j in range(n)] for i in range(n)])
        report = classify(Representation(2, (gen,)))
        assert (report.kind.value, report.chern.c1) == (kind, c1)

    def test_graded_triangular_corpus_is_answered_right(self):
        # Floating upper-triangular generators whose diagonal moduli spread
        # over 10^-100 .. 10^100, each entry on the positive real axis with
        # probability 1/2: c1 counts the entries off that axis.
        rng = random.Random(4)
        wrong = []
        for n in (2, 3, 5):
            for k in range(100):
                rows = [[0j] * n for _ in range(n)]
                off_axis = 0
                for i in range(n):
                    r = 10 ** rng.uniform(-100, 100)
                    if rng.random() < 0.5:
                        rows[i][i] = complex(r, 0.0)
                    else:
                        rows[i][i] = r * cmath.exp(2j * math.pi * rng.uniform(0.05, 0.95))
                        off_axis += 1
                    for j in range(i + 1, n):
                        rows[i][j] = complex(rng.gauss(0, 1), rng.gauss(0, 1))
                if classify(Representation(2, (Matrix(rows),))).chern.c1 != -off_axis:
                    wrong.append((n, k))
        assert wrong == []

    @pytest.mark.parametrize("scale", [1e-10, 1e-5, 1.0, 1e5, 1e10])
    def test_tiny_three_puncture_pair_keeps_its_answer(self, scale):
        # diag(1, 2) and [[1, 1], [0, 3]] share only the line e1.  At
        # scale 1e-10 both are within an absolute 1e-9 of a scalar matrix,
        # yet they are no more scalar than at scale 1.
        m0 = Matrix([[scale + 0j, 0j], [0j, 2 * scale + 0j]])
        m1 = Matrix([[scale + 0j, scale + 0j], [0j, 3 * scale + 0j]])
        report = classify(Representation(3, (m0, m1)))
        assert (report.kind.value, report.chern.c1) == ("ThreeDim2ReducibleSplit", 0)

    def test_graded_three_puncture_corpus_keeps_its_answer(self):
        # Floating upper-triangular pairs, diagonal for half of them, each
        # generator scaled by 10^U(-50, 50): a positive factor moves no
        # invariant line and no eigenvalue's argument, so the answer is
        # the one at scale 1.
        def answer(gens):
            report = classify(Representation(3, tuple(map(Matrix, gens))))
            return report.kind.value, report.chern.c1

        rng = random.Random(4)
        wrong = []
        for k in range(300):
            diagonal_only = rng.random() < 0.5
            gens = []
            for _ in range(2):
                d = [cmath.exp(2j * math.pi * rng.uniform(0.05, 0.95)) if rng.random() < 0.5
                     else complex(rng.uniform(0.5, 2.0), 0.0) for _ in range(2)]
                b = 0j if diagonal_only else complex(rng.gauss(0, 1), rng.gauss(0, 1))
                gens.append([[d[0], b], [0j, d[1]]])
            scales = [10 ** rng.uniform(-50, 50) for _ in gens]
            scaled = [[[e * f for e in row] for row in g] for g, f in zip(gens, scales)]
            if answer(scaled) != answer(gens):
                wrong.append(k)
        assert wrong == []
