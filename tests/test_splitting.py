import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from logsplit import (
    ClassificationKind,
    InternalInconsistency,
    Matrix,
    OutOfBranch,
    Representation,
    Scalar,
    SplittingType,
    UnsupportedCase,
    build,
    character_root,
    classify,
    classify_dim2,
    conjugate,
    invariant_lines,
    split_two_punctures,
)
from logsplit.scalar import ZERO, is_exact
from conftest import rand_invertible, rand_well_conditioned

F = Fraction


class TestCharacterRoot:
    def test_origin(self):
        assert character_root(F(0), F(0)) == 0
        assert character_root(0, 0) == 0

    def test_half_half_is_on_the_closed_boundary(self):
        assert character_root(F(1, 2), F(1, 2)) == -1

    def test_above_the_antidiagonal(self):
        assert character_root(F(7, 10), F(3, 5)) == -2

    def test_axis_points(self):
        assert character_root(F(0), F(1, 4)) == -1
        assert character_root(F(3, 4), F(0)) == -1

    def test_out_of_branch(self):
        with pytest.raises(OutOfBranch):
            character_root(F(5, 4), F(0))
        with pytest.raises(OutOfBranch):
            character_root(F(1, 2), 1)
        with pytest.raises(OutOfBranch):
            character_root(-0.25, 0.5)

    def test_floats_accepted(self):
        assert character_root(0.7, 0.6) == -2
        assert character_root(0.25, 0.25) == -1


@given(st.fractions(min_value=0, max_value=1).filter(lambda q: 0 < q < 1))
def test_boundary_segment_belongs_to_minus_one(q0):
    # The whole segment q0 + q1 = 1 (off the corners) maps to -1.
    assert character_root(q0, 1 - q0) == -1


@given(
    st.fractions(min_value=0, max_value=1).filter(lambda q: q < 1),
    st.fractions(min_value=0, max_value=1).filter(lambda q: q < 1),
)
def test_character_root_matches_region_formula(q0, q1):
    expected = 0 if (q0 == 0 and q1 == 0) else (-1 if q0 + q1 <= 1 else -2)
    assert character_root(q0, q1) == expected


class TestInvariantLines:
    def test_scalar_pair_reports_canonical_basis(self):
        report = invariant_lines(Matrix.identity(2), Matrix.identity(2))
        assert report.decomposable
        assert len(report.lines) == 2
        dirs = {tuple(map(complex, line.direction)) for line in report.lines}
        assert dirs == {(1 + 0j, 0j), (0j, 1 + 0j)}

    def test_golden_pair_is_irreducible(self, golden_pair):
        gen_t, gen_s = golden_pair
        # Independent oracle: the eigendirections of the diagonal generator
        # are the coordinate axes, and neither is preserved by the other
        # generator (cross products 3/4 and 1 by hand).
        for v in ((Scalar.exact(1), Scalar.exact(0)), (Scalar.exact(0), Scalar.exact(1))):
            w = gen_s.apply(v)
            cross = v[0] * w[1] - v[1] * w[0]
            assert cross is not ZERO
        report = invariant_lines(gen_t, gen_s)
        assert report.lines == ()
        assert not report.decomposable

    def test_unique_line_example(self):
        lam = Scalar.polar(1, F(3, 5))
        m0 = Matrix([[lam, 0], [0, 1]])
        m1 = Matrix([[lam, 1], [0, 1]])
        report = invariant_lines(m0, m1)
        assert not report.decomposable
        assert len(report.lines) == 1
        line = report.lines[0]
        assert tuple(map(complex, line.direction)) == (1 + 0j, 0j)
        assert line.sub_eigen_pair[0].q == F(3, 5)
        assert line.sub_eigen_pair[1].q == F(3, 5)
        assert line.quotient_eigen_pair[0].q == F(0)
        assert line.quotient_eigen_pair[1].q == F(0)

    def test_scalar_first_matrix_uses_second(self):
        m0 = Matrix([[-1, 0], [0, -1]])
        m1 = Matrix([[2, 0], [0, 3]])
        report = invariant_lines(m0, m1)
        assert report.decomposable
        subs = sorted(complex(line.sub_eigen_pair[1]).real for line in report.lines)
        assert subs == [2.0, 3.0]
        assert all(line.sub_eigen_pair[0].q == F(1, 2) for line in report.lines)

    def test_jordan_second_matrix_gives_unique_line(self):
        m0 = Matrix([[5, 0], [0, 5]])
        m1 = Matrix([[2, 1], [0, 2]])
        report = invariant_lines(m0, m1)
        assert len(report.lines) == 1
        assert not report.decomposable

    def test_float_pair_with_common_eigenvector(self):
        rng = random.Random(71)
        s = rand_well_conditioned(rng, 2)
        s_inv = s.inverse()
        m0 = s @ Matrix([[2, 1], [0, 3]]) @ s_inv
        m1 = s @ Matrix([[-1, 4], [0, 7]]) @ s_inv
        report = invariant_lines(m0, m1, 1e-9)
        assert len(report.lines) == 1
        sub = report.lines[0].sub_eigen_pair
        assert abs(sub[0] - 2) < 1e-6
        assert abs(sub[1] + 1) < 1e-6

    def test_reported_directions_are_invariant_under_both(self):
        # Every reported line must actually be preserved by both matrices,
        # with the reported eigenvalues acting on it.
        def check(m0, m1, tol):
            report = invariant_lines(m0, m1, tol)
            for line in report.lines:
                v = line.direction
                norm_v = max(abs(v[0]), abs(v[1]))
                for m, expected in ((m0, line.sub_eigen_pair[0]), (m1, line.sub_eigen_pair[1])):
                    w = m.apply(v)
                    cross = v[0] * w[1] - v[1] * w[0]
                    assert abs(cross) <= tol * (1 + m.max_abs()) * norm_v**2
                    residual = max(abs(w[0] - expected * v[0]), abs(w[1] - expected * v[1]))
                    assert residual <= 1e-6 * (1 + m.max_abs()) * norm_v
            return report

        rng = random.Random(113)
        for _ in range(25):
            up0 = Matrix([[rand_invertible(rng, 1)[0, 0], Scalar.inexact(complex(rng.uniform(-1, 1)))],
                          [0, rand_invertible(rng, 1)[0, 0]]])
            up1 = Matrix([[rand_invertible(rng, 1)[0, 0], Scalar.inexact(complex(rng.uniform(-1, 1)))],
                          [0, rand_invertible(rng, 1)[0, 0]]])
            s = rand_well_conditioned(rng, 2, 1e2)
            s_inv = s.inverse()
            report = check(s @ up0 @ s_inv, s @ up1 @ s_inv, 1e-9)
            assert len(report.lines) >= 1
        check(Matrix([[2, 0], [0, 3]]), Matrix([[5, 0], [0, 7]]), 1e-9)
        check(Matrix.identity(2), Matrix([[1, 2], [3, 4]]), 1e-9)


class TestTwoPunctures:
    def test_trivial_character(self):
        report = classify(Representation(2, (Matrix([[1]]),)))
        assert report.kind is ClassificationKind.CHARACTER
        assert report.candidates[0].roots == (0,)

    def test_offaxis_character(self):
        rep = Representation(2, (Matrix([[Scalar.polar(1, F(1, 4))]]),))
        report = classify(rep)
        assert report.candidates[0].roots == (-1,)
        assert report.c1 == -1

    def test_indecomposable_jordan_offaxis(self):
        lam = Scalar.polar(1, F(3, 10))
        m = Matrix([[lam, 1, 0], [0, lam, 1], [0, 0, lam]])
        report = classify(Representation(2, (m,)))
        assert report.kind is ClassificationKind.TWO_PUNCTURE_GENERAL
        assert report.candidates[0].roots == (-1, -1, -1)
        assert report.c1 == -3

    def test_mixed_diagonal(self):
        m = Matrix([[2, 0, 0], [0, -3, 0], [0, 0, Scalar.exact(0, 1)]])
        report = classify(Representation(2, (m,)))
        assert report.candidates[0].roots == (0, -1, -1)
        assert report.c1 == -2

    def test_jordan_minus_one(self):
        report = classify(Representation(2, (Matrix([[-1, 1], [0, -1]]),)))
        assert report.candidates[0].roots == (-1, -1)

    def test_roots_count_matches_chern_class(self):
        rng = random.Random(83)
        for _ in range(20):
            n = rng.randint(1, 6)
            rep = Representation(2, (rand_invertible(rng, n),))
            report = classify(rep, 1e-9)
            roots = report.candidates[0].roots
            assert set(roots) <= {0, -1}
            assert sum(roots) == report.c1
            assert roots.count(-1) == -report.c1

    def test_wrong_puncture_count_rejected(self, golden_rep):
        from logsplit import DimensionMismatch

        with pytest.raises(DimensionMismatch):
            split_two_punctures(build(golden_rep))


class TestClassifyDim2:
    def test_golden_is_irreducible(self, golden_rep):
        report = classify(golden_rep)
        assert report.kind is ClassificationKind.THREE_DIM2_IRREDUCIBLE
        assert report.c1 == -2
        assert report.candidates[0].roots == (-1, -1)
        assert not report.ambiguous

    def test_trivial_is_decomposable(self):
        rep = Representation(3, (Matrix.identity(2), Matrix.identity(2)))
        report = classify(rep)
        assert report.kind is ClassificationKind.THREE_DIM2_DECOMPOSABLE
        assert report.candidates[0].roots == (0, 0)

    def test_ambiguous_case(self):
        lam = Scalar.polar(1, F(3, 5))
        rep = Representation(3, (Matrix([[lam, 0], [0, 1]]), Matrix([[lam, 1], [0, 1]])))
        report = classify(rep)
        assert report.kind is ClassificationKind.THREE_DIM2_REDUCIBLE_AMBIGUOUS
        assert report.ambiguous
        assert tuple(c.roots for c in report.candidates) == ((-1, -1), (0, -2))
        assert report.c1 == -2
        assert report.chern.exact

    def test_unique_line_split_case(self):
        # Sub-character (1/4, 0), quotient (0, 0): flag pair (-1, 0) splits.
        lam = Scalar.polar(1, F(1, 4))
        rep = Representation(3, (Matrix([[lam, 0], [0, 1]]), Matrix([[1, 1], [0, 1]])))
        report = classify(rep)
        assert report.kind is ClassificationKind.THREE_DIM2_REDUCIBLE_SPLIT
        assert report.candidates[0].roots == (0, -1)
        assert report.c1 == -1

    def test_reverse_flag_order_is_not_ambiguous(self):
        # Sub-character (0, 0), quotient (3/5, 3/5): flag pair (0, -2) is the
        # mirror of the two-valued one and splits unconditionally; the
        # classification reads the line that is actually invariant.
        lam = Scalar.polar(1, F(3, 5))
        rep = Representation(3, (Matrix([[1, 0], [0, lam]]), Matrix([[1, 1], [0, lam]])))
        report = classify(rep)
        assert report.kind is ClassificationKind.THREE_DIM2_REDUCIBLE_SPLIT
        assert not report.ambiguous
        assert report.candidates[0].roots == (0, -2)
        assert report.c1 == -2

    def test_conjugated_decomposable_pair_float_path(self):
        # A decomposable exact pair pushed through a random conjugation:
        # the float route must find both lines and the same splitting.
        lam02 = Scalar.polar(1, F(3, 10))
        lam12, lam13 = Scalar.polar(1, F(2, 5)), Scalar.polar(1, F(1, 10))
        m0 = Matrix([[Scalar.polar(2, F(1, 5)), 0], [0, lam02]])
        m1 = Matrix([[lam12, 0], [0, lam13]])
        exact_report = classify(Representation(3, (m0, m1)), 1e-9)
        rng = random.Random(103)
        s = rand_well_conditioned(rng, 2)
        float_report = classify(conjugate(Representation(3, (m0, m1)), s), 1e-9)
        assert float_report.kind is ClassificationKind.THREE_DIM2_DECOMPOSABLE
        assert float_report.kind is exact_report.kind
        assert float_report.c1 == exact_report.c1 == -2
        assert float_report.candidates[0].roots == exact_report.candidates[0].roots

    def test_decomposable_matches_character_oracle(self):
        rng = random.Random(89)
        for _ in range(20):
            qs = [F(rng.randint(0, 9), 10) for _ in range(4)]
            rs = [F(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(4)]
            m0 = Matrix([[Scalar.polar(rs[0], qs[0]), 0], [0, Scalar.polar(rs[1], qs[1])]])
            m1 = Matrix([[Scalar.polar(rs[2], qs[2]), 0], [0, Scalar.polar(rs[3], qs[3])]])
            report = classify_dim2(build(Representation(3, (m0, m1))))
            expected = tuple(
                sorted(
                    (character_root(qs[0], qs[2]), character_root(qs[1], qs[3])),
                    reverse=True,
                )
            )
            assert report.candidates[0].roots == expected

    def test_irreducible_gap_law(self):
        rng = random.Random(97)
        trials = 0
        while trials < 30:
            m0 = rand_invertible(rng, 2)
            m1 = rand_invertible(rng, 2)
            if invariant_lines(m0, m1, 1e-9).lines:
                continue
            trials += 1
            report = classify_dim2(build(Representation(3, (m0, m1)), 1e-9), 1e-9)
            assert report.kind is ClassificationKind.THREE_DIM2_IRREDUCIBLE
            r1, r2 = report.candidates[0].roots
            assert abs(r1 - r2) <= 1
            assert r1 + r2 == report.c1
            assert (report.c1 % 2 == 0) == (r1 == r2)


class TestWarningsAndHighDimensions:
    def test_conjugated_golden_carries_boundary_warning(self, golden_rep):
        from logsplit import BRANCH_BOUNDARY

        rng = random.Random(107)
        s = rand_well_conditioned(rng, 2)
        report = classify(conjugate(golden_rep, s), 1e-9)
        # The float route puts eigenvalues within noise of the positive
        # real axis; the report must say so.
        assert BRANCH_BOUNDARY in report.warnings
        assert classify(golden_rep, 1e-9).warnings == ()

    def test_jordan_at_one_splits_trivially(self):
        report = classify(Representation(2, (Matrix([[1, 1], [0, 1]]),)))
        assert report.candidates[0].roots == (0, 0)
        assert report.c1 == 0

    def test_dimension_eight_two_punctures(self):
        rng = random.Random(109)
        rep = Representation(2, (rand_invertible(rng, 8),))
        report = classify(rep, 1e-9)
        roots = report.candidates[0].roots
        assert len(roots) == 8
        assert set(roots) <= {0, -1}
        assert sum(roots) == report.c1

    def test_spread_spectrum_closes_up(self):
        # Eigenvalue moduli spanning two orders of magnitude: the inverse
        # monodromy's characteristic polynomial must still be accurate
        # enough for the modulus-closure gate (trace-of-powers coefficient
        # schemes fail here with errors ~ eps * ||M||^n).
        rng = random.Random(2024)
        diag = [0.024, 0.43, 0.62, 0.81, 1.05, 1.3, 1.8, 2.3]
        rows = [
            [
                Scalar.inexact(complex(diag[i], 0.3 * diag[i]))
                if i == j
                else (
                    Scalar.inexact(complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3)))
                    if j > i
                    else Scalar.exact(0)
                )
                for j in range(8)
            ]
            for i in range(8)
        ]
        s = rand_well_conditioned(rng, 8, 1e3)
        m = s @ Matrix(rows) @ s.inverse()
        report = classify(Representation(2, (m,)), 1e-9)
        assert report.candidates[0].roots == (-1,) * 8
        assert report.chern.ln_r_closure_defect < 1e-10
        assert report.chern.integrality_defect < 1e-9


class TestClassifyDispatch:
    def test_three_puncture_character(self):
        rep = Representation(3, (Matrix([[-1]]), Matrix([[-1]])))
        report = classify(rep)
        assert report.kind is ClassificationKind.THREE_CHARACTER
        assert report.candidates[0].roots == (-1,)
        assert report.c1 == -1

    def test_dimension_three_unsupported(self):
        gens = (Matrix.identity(3), Matrix.identity(3))
        with pytest.raises(UnsupportedCase):
            classify(Representation(3, gens))

    def test_conjugation_invariance(self, golden_rep):
        rng = random.Random(101)
        reference = classify(golden_rep, 1e-9)
        for _ in range(10):
            s = rand_well_conditioned(rng, 2)
            report = classify(conjugate(golden_rep, s), 1e-9)
            assert report.kind is reference.kind
            assert report.c1 == reference.c1
            assert tuple(c.roots for c in report.candidates) == tuple(
                c.roots for c in reference.candidates
            )


class TestOneSolvePerMonodromy:
    """classify solves each eigenproblem once: the invariant-line analysis
    reads m0's and m1's eigenvalues from the build, not from a new solve."""

    @staticmethod
    def _counted(monkeypatch):
        from logsplit import eigen, representation, splitting

        calls = []

        def counting(a, tol):
            calls.append(a)
            return eigen._eigenvalues(a, tol)

        monkeypatch.setattr(representation, "_eigenvalues", counting)
        monkeypatch.setattr(splitting, "_eigenvalues", counting)
        return calls

    @staticmethod
    def _float_pair():
        rng = random.Random(71)
        s = rand_well_conditioned(rng, 2)
        s_inv = s.inverse()
        m0 = s @ Matrix([[2, 1], [0, 3]]) @ s_inv
        m1 = s @ Matrix([[-1, 4], [0, 7]]) @ s_inv
        assert not any(is_exact(e) for m in (m0, m1) for row in m.rows for e in row)
        return m0, m1

    def test_three_puncture_pair_solves_three_times(self, monkeypatch):
        calls = self._counted(monkeypatch)
        m0, m1 = self._float_pair()
        report = classify(Representation(3, (m0, m1)), 1e-9)
        assert report.kind is ClassificationKind.THREE_DIM2_REDUCIBLE_SPLIT
        assert len(calls) == 3  # m0, m1 and m0 m1

    def test_two_puncture_input_solves_once(self, monkeypatch):
        calls = self._counted(monkeypatch)
        m0, _ = self._float_pair()
        classify(Representation(2, (m0,)), 1e-9)
        assert len(calls) == 1

    def test_public_invariant_lines_solves_on_demand(self, monkeypatch):
        calls = self._counted(monkeypatch)
        report = invariant_lines(Matrix([[2, 0], [0, 1]]), Matrix([[3, 1], [0, 1]]))
        assert len(report.lines) == 1
        assert calls == []  # decided by the exact commutator
        m0, m1 = self._float_pair()
        assert len(invariant_lines(m0, m1, 1e-9).lines) == 1
        assert len(calls) == 2



class TestRootsFromC1:
    """Every root is c1 split over the summands; a c1 that does not split
    raises InternalInconsistency rather than becoming an answer."""

    @staticmethod
    def _forcing_c1(monkeypatch, c1):
        from logsplit import splitting

        real = splitting.ohtsuki_c1
        monkeypatch.setattr(
            splitting, "ohtsuki_c1", lambda prep, tol: real(prep, tol)._replace(c1=c1)
        )

    @staticmethod
    def _pair(triangular: bool) -> Representation:
        # Summands (1/4, 1/4) and the origin (0, 0): c1 = -1.
        lam = Scalar.polar(1, F(1, 4))
        m1 = Matrix([[lam, int(triangular)], [0, 1]])
        return Representation(3, (Matrix([[lam, 0], [0, 1]]), m1))

    @pytest.mark.parametrize("c1", [1, -3])
    def test_two_punctures_outside_zero_to_n(self, monkeypatch, c1):
        self._forcing_c1(monkeypatch, c1)
        with pytest.raises(InternalInconsistency):
            classify(Representation(2, (Matrix([[1, 0], [0, -1]]),)))

    @pytest.mark.parametrize("triangular", [False, True])
    @pytest.mark.parametrize("c1", [0, -3])
    def test_summand_off_the_origin_outside_minus_one_minus_two(self, monkeypatch, triangular, c1):
        self._forcing_c1(monkeypatch, c1)
        with pytest.raises(InternalInconsistency):
            classify(self._pair(triangular))

    def test_c1_decides_the_root_off_the_origin(self, monkeypatch):
        assert classify(self._pair(False)).candidates[0].roots == (0, -1)
        self._forcing_c1(monkeypatch, -2)
        assert classify(self._pair(False)).candidates[0].roots == (0, -2)
        # Sub at -2 over a quotient at the origin is the two-valued case.
        report = classify(self._pair(True))
        assert report.kind is ClassificationKind.THREE_DIM2_REDUCIBLE_AMBIGUOUS
        assert report.c1 == -2

class TestSplittingType:
    def test_rejects_unsorted_roots(self):
        with pytest.raises(InternalInconsistency):
            SplittingType((-1, 0))

    def test_degree_and_dim(self):
        s = SplittingType((0, -1, -1))
        assert s.degree == -2
