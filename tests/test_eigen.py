import cmath
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from logsplit import (
    BRANCH_BOUNDARY,
    FloatRangeError,
    InputFormatError,
    LogSplitError,
    Matrix,
    Scalar,
    Representation,
    SingularMatrix,
    ZeroEigenvalue,
    build,
    classify,
    classify_dim2,
    eigenvalues,
    invariant_lines,
    split_two_punctures,
)
from logsplit.eigen import (
    EIGENVALUE_UNCERTAIN,
    TOL_BOUND,
    _EPS,
    EigenData,
    EigenPair,
    _aberth_iterate,
    _aberth_solve,
    _cluster_indices,
    _exact_quadratic,
    _from_float_roots,
    _from_quadratic,
    _ldexp,
    _newton_polygon_starts,
    _poly_eval,
    _vieta_verdict,
)
from logsplit.scalar import Q_HALF, Q_QUARTER, Q_THREE_QUARTERS, Q_ZERO, real_ratio
from conftest import rand_invertible, rand_well_conditioned, rotated_diag

try:
    import numpy
except ImportError:  # the package and its tests run without it
    numpy = None

F = Fraction


def _times_2_to(rows, k):
    """The Matrix of ``rows`` times 2^k, each part scaled on its own."""
    return Matrix([[complex(math.ldexp(complex(z).real, k), math.ldexp(complex(z).imag, k))
                    for z in row] for row in rows])


def _q(z, tol=1e-9):
    """The q of the one eigenvalue of the 1x1 matrix [[z]]."""
    (pair,) = eigenvalues(Matrix([[z]]), tol).pairs
    return pair.q


class TestOneByOneArgument:
    def test_positive_real_axis(self):
        assert _q(Scalar.exact(5)) == 0

    def test_negative_real_axis(self):
        assert _q(Scalar.exact(-1)) == F(1, 2)

    def test_polar_input_returns_stored_q_verbatim(self):
        assert _q(Scalar.polar(1, F(2, 3))) == F(2, 3)

    def test_float_input_approximates(self):
        z = Scalar.inexact(cmath.exp(2j * math.pi * (2 / 3)))
        q = _q(z)
        assert isinstance(q, float)
        assert abs(q - 2 / 3) < 1e-12

    def test_snap_to_branch_cut(self):
        assert _q(Scalar.inexact(1 + 1e-12j)) == 0.0
        assert _q(Scalar.inexact(1 - 1e-12j)) == 0.0
        assert _q(Scalar.inexact(1 + 1e-6j)) > 0.0

    def test_zero_raises(self):
        with pytest.raises(ZeroEigenvalue):
            _q(Scalar.exact(0))
        with pytest.raises(ZeroEigenvalue):
            _q(Scalar.inexact(0j))


finite_complex = st.complex_numbers(
    min_magnitude=1e-6, max_magnitude=1e6, allow_nan=False, allow_infinity=False
)


@given(finite_complex)
def test_argument_complement_is_exact_after_snapping(z):
    # Snapped q(z) + q(conj z) lands on exactly 0 or exactly 1.
    q1 = _q(Scalar.inexact(z))
    q2 = _q(Scalar.inexact(z.conjugate()))
    assert q1 + q2 in (0.0, 1.0)


class TestEigenvaluesExact:
    def test_golden_generator(self, golden_pair):
        _, gen_s = golden_pair
        e = eigenvalues(gen_s)
        assert [(p.q, p.multiplicity) for p in e.pairs] == [(F(0), 1), (F(1, 2), 1)]
        assert all(type(p.q) is F for p in e.pairs)

    def test_float_range_messages(self):
        # The complex value of an exact eigenvalue is built only to word the
        # first message.
        huge = Matrix([[Scalar.polar(10**400, 0), 0], [0, 1]])
        with pytest.raises(FloatRangeError) as info:
            eigenvalues(huge)
        assert str(info.value) == "eigenvalue (inf+0j) outside the floating-point range"
        with pytest.raises(FloatRangeError) as info:
            eigenvalues(Matrix([[F(1, 10**400)]]))
        assert str(info.value) == "eigenvalue modulus below the floating-point range"

    def test_jordan_block_triangular_read(self):
        e = eigenvalues(Matrix([[5, 1, 0], [0, 5, 1], [0, 0, 5]]))
        assert len(e.pairs) == 1
        assert e.pairs[0].multiplicity == 3
        assert e.pairs[0].q == 0
        assert e.pairs[0].value.z == 5 + 0j

    def test_golden_infinity_monodromy_angles(self, golden_pair):
        gen_t, gen_s = golden_pair
        m = (gen_t @ gen_s).inverse()
        e = eigenvalues(m)
        assert [p.q for p in e.pairs] == [F(1, 3), F(2, 3)]
        assert all(abs(p.value) == 1.0 for p in e.pairs)

    def test_rotation_matrix_quarter_turns(self):
        e = eigenvalues(Matrix([[0, -1], [1, 0]]))
        assert [p.q for p in e.pairs] == [F(1, 4), F(3, 4)]

    def test_sixth_root_angles(self):
        # Companion of x^2 - x + 1, roots exp(+-i pi/3).
        e = eigenvalues(Matrix([[1, -1], [1, 0]]))
        assert [p.q for p in e.pairs] == [F(1, 6), F(5, 6)]

    def test_irrational_real_pair_keeps_exact_signs(self):
        # x^2 - x - 1: golden ratio and its negative-reciprocal partner.
        e = eigenvalues(Matrix([[1, 1], [1, 0]]))
        assert [p.q for p in e.pairs] == [F(0), F(1, 2)]
        phi = (1 + math.sqrt(5)) / 2
        assert abs(abs(e.pairs[0].value) - phi) < 1e-12
        assert abs(abs(e.pairs[1].value) - (phi - 1)) < 1e-12

    def test_pure_imaginary_pair_with_irrational_modulus(self):
        # x^2 + 6: roots +-i sqrt(6); q exact despite irrational modulus.
        e = eigenvalues(Matrix([[0, 2], [-3, 0]]))
        assert [p.q for p in e.pairs] == [F(1, 4), F(3, 4)]
        assert abs(abs(e.pairs[0].value) - math.sqrt(6)) < 1e-12

    def test_rational_double_root(self):
        e = eigenvalues(Matrix([[2, 1], [-F(1, 4), 3]]))
        # char poly x^2 - 5x + 25/4 = (x - 5/2)^2
        assert [(p.q, p.multiplicity) for p in e.pairs] == [(F(0), 2)]
        assert abs(e.pairs[0].value) == 2.5

    def test_exact_zero_eigenvalue_raises(self):
        with pytest.raises(ZeroEigenvalue):
            eigenvalues(Matrix([[0]]))
        with pytest.raises(ZeroEigenvalue):
            eigenvalues(Matrix([[1, 1], [1, 1]]))


class TestClusters:
    def test_exact_values_compare_exactly_floating_ones_relatively(self):
        a = Scalar.polar(1, F(1, 3))
        b = Scalar.polar(1, F(1, 3))
        assert len(_cluster_indices([a, b], 0.0)) == 1
        for c in (a.z + 1e-12, Scalar.inexact(a.z + 1e-12)):
            assert len(_cluster_indices([c, a], 1e-9)) == 1
            assert len(_cluster_indices([a, c], 1e-9)) == 1
            assert len(_cluster_indices([c, a], 1e-15)) == 2
        # A difference of finite values whose modulus leaves the float
        # range compares as inf instead of raising.
        assert len(_cluster_indices([complex(1.3e308, 1e-300), complex(0, -1.3e308)], 1e-9)) == 2

    def test_groups_do_not_change_with_scale(self):
        values = [1 + 1j, 1 + 1j + 1e-10, 1 - 1j, 1 - 1j + 1e-8, 0.5j]
        for k in range(-60, 61, 5):
            groups = _cluster_indices([v * 2.0**k for v in values], 1e-9)
            assert [len(g) for g in groups] == [2, 1, 1, 1]

    def test_groups_close_transitively(self):
        # Each neighbour lies within tol of the next, the ends do not.
        values = [complex(1.0), complex(1.0 + 0.8e-9), complex(1.0 + 1.6e-9)]
        assert [len(g) for g in _cluster_indices(values, 1e-9)] == [3]


class TestValueTypes:
    def test_pairs_and_data_refuse_assignment(self):
        data = eigenvalues(Matrix([[2, 1], [0, 1.5 + 2j]]))
        pair = data.pairs[0]
        fields = {pair: ("value", "multiplicity", "q", "ln_r"), data: ("pairs", "warnings")}
        for obj, names in fields.items():
            for name in names:
                with pytest.raises(AttributeError):
                    setattr(obj, name, None)

    def test_pairs_and_data_compare_and_hash_by_value(self):
        m = Matrix([[2, 1], [0, 1.5 + 2j]])
        data, again = eigenvalues(m), eigenvalues(m)
        assert data is not again and data == again and hash(data) == hash(again)
        for pair in data.pairs:
            fields = (pair.value, pair.multiplicity, pair.q, pair.ln_r)
            assert EigenPair(*fields) == pair
            assert hash(pair) == hash(EigenPair(*fields)) == hash(fields)
            assert EigenPair(pair.value, pair.multiplicity + 1, pair.q, pair.ln_r) != pair
        flagged = EigenData(data.pairs, (EIGENVALUE_UNCERTAIN,))
        assert flagged != data and flagged.pairs == data.pairs
        assert EigenData(data.pairs) == EigenData(data.pairs, ())

    @pytest.mark.parametrize(
        "coeffs, root, bits",
        [
            # The lone root's centroid is 0j + root: a negative zero part
            # turns positive.
            ([1 + 0j, 1 + 0j], complex(-1.0, -0.0), ("-0x1.0000000000000p+0", "0x0.0p+0")),
            ([1 + 0j, -2j], complex(-0.0, 2.0), ("0x0.0p+0", "0x1.0000000000000p+1")),
            ([1 + 0j, -3 + 0j], complex(3.0, -0.0), ("0x1.8000000000000p+1", "0x0.0p+0")),
        ],
    )
    def test_lone_root_centroid_bits(self, coeffs, root, bits):
        for evals in ([_poly_eval(coeffs, root)], [(0j, 1 + 0j, 0.0)]):
            ((z, size),), _ = _from_float_roots(coeffs, [root], evals, 1e-9)
            assert (z.real.hex(), z.imag.hex(), size) == bits + (1,)

    def test_newton_radius_takes_the_first_of_residual_and_noise(self):
        # Roots 1, 3 and 5 of x^3 - 9x^2 + 23x - 15, with crafted last
        # evaluations: the radius 4 max(|p|, noise) / |p'| of the root 1
        # against the bound 10 tol.  max keeps its first argument on a tie
        # and on NaN.
        tol = 2.0**-30
        bound = 10 * tol
        verdicts = []
        for p, noise in (
            (bound, bound),  # a tie, on the bound: certain
            (math.nextafter(bound, 1.0), bound),  # just above: uncertain
            (math.nan, 1.0),  # a NaN residual gives a NaN radius: certain
        ):
            evals = [(complex(p, 0.0), 4 + 0j, noise)] + [(0j, 1 + 0j, 0.0)] * 2
            coeffs = [1 + 0j, -9 + 0j, 23 + 0j, -15 + 0j]
            _, uncertain = _from_float_roots(coeffs, [1 + 0j, 3 + 0j, 5 + 0j], evals, tol)
            verdicts.append(uncertain)
        assert verdicts == [False, True, False]


@pytest.mark.parametrize(
    "tol, message",
    [
        (math.nan, "tol: expected a finite number above zero, got nan"),
        (-1.0, "tol: expected a finite number above zero, got -1.0"),
        (0.0, "tol: expected a finite number above zero, got 0.0"),
        (TOL_BOUND, "tol: expected a number below 0.05, got 0.05"),
        (5.0, "tol: expected a number below 0.05, got 5.0"),
        ("x", "tol: expected a finite number above zero, got 'x'"),
    ],
)
def test_public_solves_check_tol(tol, message):
    # Unchecked, this pair's solve gave a spurious BranchBoundary at nan, a
    # spurious EigenvalueUncertain at -1.0, and at 5.0 one double
    # eigenvalue and a decomposable pair; classify_dim2, on the pair built
    # at the default tol, raised InternalInconsistency at 5.0 and answered
    # at nan and -1.0; split_two_punctures answered c1 -2 at every value.
    # build checks it through the solves it makes.
    m0 = Matrix([[1.5 + 0.1j, 2], [3, 4]])
    m1 = Matrix([[1, 0], [0, 2.5 + 0.5j]])
    prep = build(Representation(3, (m0, m1)))
    prep2 = build(Representation(2, (m0,)))
    for solve in (
        lambda: eigenvalues(m0, tol),
        lambda: invariant_lines(m0, m1, tol),
        lambda: classify_dim2(prep, tol),
        lambda: split_two_punctures(prep2, tol),
        lambda: build(Representation(3, (m0, m1)), tol),
    ):
        with pytest.raises(InputFormatError) as info:
            solve()
        assert str(info.value) == message


class TestEigenvaluesFloat:
    def test_an_overflowing_modulus_is_outside_the_float_range(self):
        # Finite parts, a modulus beyond the float range: the eigenvalue is
        # refused where it is read, naming the top of the range, not as its
        # reciprocal's modulus below it at infinity.
        m = Matrix([[1.3e308 + 1.3e308j, 0j], [0j, 1 + 0j]])
        message = "eigenvalue (1.3e+308+1.3e+308j) outside the floating-point range"
        with pytest.raises(FloatRangeError) as info:
            eigenvalues(m)
        assert str(info.value) == message
        with pytest.raises(FloatRangeError) as info:
            classify(Representation(2, (m,)))
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "rows",
        [
            [[Scalar.polar(10**400, 0), 1, 0], [1, 1, 0], [0, 1, 2]],
            [[Scalar.polar(10**400, 0), 1], [1j, 1]],
            [[1, Scalar.polar(10**400, F(1, 3))], [1, 1]],
            [[1, 1], [complex(math.inf, 1.0), 1]],
        ],
    )
    def test_an_entry_beyond_the_float_range_is_outside_it(self, rows):
        # A real or imaginary part that is not finite as a float: no power
        # of two scales it into range, so the error names the entry, not
        # the iteration.
        m = Matrix(rows)
        k = next(k for k, e in enumerate(e for row in rows for e in row)
                 if not cmath.isfinite(complex(e)))
        message = f"entry ({k // m.n}, {k % m.n}) outside the floating-point range"
        with pytest.raises(FloatRangeError) as info:
            eigenvalues(m)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "rows, k, message",
        [
            # Subnormal entries: solved at 2^1039, the smallest eigenvalue
            # scales back to a few significant bits.
            ([[0.5 + 0.3j, 1, 0.25], [0.5, -0.7 + 0.2j, 1], [0.125, 0.5, 1.5 - 0.4j]], -1040,
             "eigenvalue (0.33230357168658625+0.0996967998178577j) * 2**-1039"),
            # Normal entries, and an eigenvalue 3.6e-11 times the larger.
            ([[1 + 0j, 2 + 0j], [1 + 0j, 2 + 1e-10 + 0j]], -1000,
             "eigenvalue (8.33333402265124e-12+0j) * 2**-998"),
        ],
    )
    def test_an_eigenvalue_below_the_normal_range_is_outside_it(self, rows, k, message):
        with pytest.raises(FloatRangeError) as info:
            eigenvalues(_times_2_to(rows, k))
        assert str(info.value) == message + " outside the floating-point range"

    @pytest.mark.parametrize(
        "rows, values",
        [
            ([[1e-300, 1e-300], [1e-300, 2e-300]],
             [1e-300 * (3 - math.sqrt(5)) / 2, 1e-300 * (3 + math.sqrt(5)) / 2]),
            ([[1e-200, 3e-200], [2e-200, 1e-200]],
             [1e-200 * (1 + math.sqrt(6)), 1e-200 * (1 - math.sqrt(6))]),
            ([[1e200, 1e200], [1e200, 2e200]],
             [1e200 * (3 - math.sqrt(5)) / 2, 1e200 * (3 + math.sqrt(5)) / 2]),
        ],
    )
    def test_exact_pairs_beyond_the_exact_quadratic_are_answered(self, rows, values):
        # Exact and invertible, with a determinant or discriminant beyond
        # the float range: the exact quadratic rounds the roots at a power
        # of two, so the q's are exact and nothing is warned.
        e = eigenvalues(Matrix(rows))
        assert e.warnings == ()
        q_top = 0 if values[1] > 0 else F(1, 2)
        assert [(p.multiplicity, p.q) for p in e.pairs] == [(1, 0), (1, q_top)]
        for p, v in zip(e.pairs, values):
            assert type(p.q) is F and p.value.is_exact
            assert abs(p.value.z - v) < 1e-15 * abs(v)

    @pytest.mark.parametrize(
        "rows",
        [
            [[1, 1], [1, 2]],  # (3 -+ sqrt 5) / 2
            [[1, 3], [2, 1]],  # 1 -+ sqrt 6
            [[1, -2], [1, 1]],  # 1 -+ i sqrt 2, floating
        ],
    )
    def test_exact_pairs_answer_alike_at_every_scale(self, rows):
        # rows times 2^k: the same q's and warnings, and values 2^k times
        # those at k = 0, for every k whose eigenvalue moduli are normal
        # floats.  Beyond the range, FloatRangeError; below the normal
        # range an exact modulus may still be answered, alike.
        base = eigenvalues(Matrix(rows))
        # r 2^k, r = m 2^e with m in [0.5, 1), is normal iff e + k lies in
        # [-1021, 1024], and its float is 0 below -1074.
        exps = [math.frexp(abs(p.value.z))[1] for p in base.pairs]
        for k in range(-1100, 1030):
            m = Matrix([[F(x) * F(2) ** k for x in row] for row in rows])
            normal = all(-1021 <= e + k <= 1024 for e in exps)
            try:
                e = eigenvalues(m)
            except FloatRangeError:
                assert not normal, k
                continue
            assert all(-1074 <= e + k <= 1024 for e in exps), k
            assert normal or all(p.value.is_exact for p in e.pairs), k
            assert e.warnings == base.warnings, k
            assert [(p.multiplicity, p.q) for p in e.pairs] == [
                (p.multiplicity, p.q) for p in base.pairs], k
            for p, b in zip(e.pairs, base.pairs):
                assert p.value.is_exact is b.value.is_exact
                assert p.value.z == _ldexp(b.value.z, k), k

    def test_an_exact_real_eigenvalue_beyond_the_float_range_is_outside_it(self):
        # The exact quadratic answers it; its modulus has no float.
        with pytest.raises(FloatRangeError) as info:
            eigenvalues(Matrix([[Scalar.polar(10**400, 0), 1], [1, 1]]))
        assert str(info.value) == "eigenvalue (inf+0j) outside the floating-point range"

    @pytest.mark.parametrize("t", [1e-9, 1e-10, 1e-11])
    def test_small_eigenvalue_is_answered_in_every_basis(self, t):
        # Triangular or not, the small eigenvalue is decided once, by the
        # determinant test, and not by its modulus against tol.
        for m in (Matrix([[complex(t), 0j], [0j, 1 + 0j]]),
                  rotated_diag(t, 0.3), rotated_diag(t, 1.0)):
            assert classify(Representation(2, (m,))).c1 == 0

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("gap", [5e-9, 3e-8])
    def test_close_pair_decisions_do_not_change_with_scale(self, dim, gap):
        # Eigenvalues lam and lam (1 + gap) of S D S^-1, scaled by 2^k:
        # clustering, EigenvalueUncertain and the singularity test are
        # relative to the scale of the matrix, so every scale gets the same
        # verdict.  dim 3 adds -0.7 + 0.2i and takes the Aberth route.
        lam = 1.3 * cmath.exp(2j * math.pi * 0.3)
        spectrum = [lam, lam * (1 + gap), -0.7 + 0.2j][:dim]
        s = Matrix([row[:dim] for row in [[1 + 1j, 0.5 + 0j, 0.2j],
                                          [0.25 - 0.5j, 1 - 0.25j, 0.5 + 0j],
                                          [0.5 + 0j, -0.25 + 0.5j, 1 + 0.5j]][:dim]])
        d = Matrix([[spectrum[i] if i == j else 0j for j in range(dim)] for i in range(dim)])
        a = s @ d @ s.inverse()
        verdicts = set()
        for k in range(-60, 61):
            e = eigenvalues(Matrix([[complex(x) * 2.0**k for x in row] for row in a.rows]))
            verdicts.add((tuple(sorted(p.multiplicity for p in e.pairs)), e.warnings))
        assert len(verdicts) == 1

    def test_scaling_by_a_power_of_two_changes_no_decision(self):
        # Seeded complex Gaussian matrices at dims 2-8, a third of them with
        # a last row within 1e-6 to 1e-12 of the first, near the singularity
        # threshold.  Times 2^k, each gives the multiplicities, q's and
        # warnings, or the error class, of its scale-1 solve, or a
        # FloatRangeError where an eigenvalue times 2^k leaves the normal
        # float range.
        def solve(rows, k):
            try:
                return "answer", eigenvalues(_times_2_to(rows, k))
            except LogSplitError as exc:
                return type(exc).__name__, None

        rng = random.Random(32)
        outcomes = set()
        for _ in range(200):
            n = rng.randint(2, 8)
            rows = [[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n)]
                    for _ in range(n)]
            if rng.random() < 1 / 3:
                gap = rng.choice((1e-6, 1e-9, 1e-12))
                rows[-1] = [z + gap * complex(rng.gauss(0, 1), rng.gauss(0, 1)) for z in rows[0]]
            kind, base = solve(rows, 0)
            outcomes.add(kind)
            for k in range(-1000, 1001, 125):
                other, data = solve(rows, k)
                moduli = [math.ldexp(abs(p.value.z), k) for p in base.pairs] if base else []
                if not all(sys.float_info.min <= r < math.inf for r in moduli):
                    outcomes.add("out of range")
                    assert other == "FloatRangeError", k
                    continue
                assert other == kind, k
                if base is not None:
                    assert data.warnings == base.warnings, k
                    assert [p.multiplicity for p in data.pairs] == \
                        [p.multiplicity for p in base.pairs], k
                    assert all(abs(p.q - r.q) < 1e-8 for p, r in zip(data.pairs, base.pairs)), k
        assert outcomes == {"answer", "SingularMatrix", "out of range"}

    def test_boundary_warning_near_positive_axis(self):
        m = Matrix([[Scalar.inexact(1 + 1e-11j), Scalar.inexact(0.5 + 0j)],
                    [Scalar.inexact(0j), Scalar.inexact(-1 + 0j)]])
        e = eigenvalues(m, 1e-9)
        assert BRANCH_BOUNDARY in e.warnings

    def test_ln_r_sum_matches_determinant(self):
        rng = random.Random(31)
        for n in (2, 3, 4, 6):
            a = rand_invertible(rng, n)
            e = eigenvalues(a, 1e-7)
            expected = math.log(abs(a.det()))
            assert abs(e.ln_r_sum() - expected) < 1e-9 * (1 + abs(expected))

    def test_similarity_invariance_of_the_multiset(self):
        rng = random.Random(47)
        for n in (2, 4, 5):
            a = rand_invertible(rng, n)
            s = rand_well_conditioned(rng, n)
            original = eigenvalues(a, 1e-7)
            conjugated = eigenvalues(s @ a @ s.inverse(), 1e-7)
            va = sorted((p.value.z for p in original.pairs for _ in range(p.multiplicity)),
                        key=lambda z: (z.real, z.imag))
            vb = sorted((p.value.z for p in conjugated.pairs for _ in range(p.multiplicity)),
                        key=lambda z: (z.real, z.imag))
            assert all(abs(x - y) < 1e-7 * (1 + abs(x)) for x, y in zip(va, vb))

    def test_char_poly_residual_at_reported_eigenvalues(self):
        rng = random.Random(53)
        for n in (3, 5, 6):
            a = rand_invertible(rng, n)
            coeffs = list(map(complex, a.char_poly()))
            bound = 1e-8 * (1 + max(abs(c) for c in coeffs))
            for p in eigenvalues(a, 1e-7).pairs:
                value, _, _ = _poly_eval(coeffs, p.value.z)
                assert abs(value) < bound

    def test_multiplicity_total_is_dimension(self):
        rng = random.Random(61)
        for n in (2, 3, 7):
            a = rand_invertible(rng, n)
            assert eigenvalues(a, 1e-7).dim == n

    def test_exact_complex_coefficients_fall_back_to_floats(self):
        # char poly x^2 - 2i x + (i^2 - 1) has non-real coefficients; the
        # rational route does not apply, but the values must still be right.
        i = Scalar.exact(0, 1)
        m = Matrix([[i, 1], [1, i]])
        e = eigenvalues(m, 1e-7)
        values = sorted((p.value.z for p in e.pairs), key=lambda z: z.real)
        assert abs(values[0] - (-1 + 1j)) < 1e-12
        assert abs(values[1] - (1 + 1j)) < 1e-12
        assert not all(type(p.q) is F for p in e.pairs)


class TestAberth:
    def test_known_integer_roots(self):
        roots = sorted(_aberth_solve(_integer_roots_1_to_6())[0], key=lambda z: z.real)
        for found, expected in zip(roots, range(1, 7)):
            assert abs(found - expected) < 1e-8

    def test_multiple_root_cluster(self):
        # (x - 2)^3 (x + 1): the triple root comes back as a tight cluster.
        coeffs = [1.0, -5.0, 6.0, 4.0, -8.0]
        roots = _aberth_solve([complex(c) for c in coeffs])[0]
        # 1.5e-4 times the modulus 2 of the triple root.
        clusters = _cluster_indices(roots, 1.5e-4)
        sizes = sorted(len(c) for c in clusters)
        assert sizes == [1, 3]
        triple = [roots[i] for i in max(clusters, key=len)]
        centroid = sum(triple, 0j) / 3
        # A triple root is only conditioned to ~eps^(1/3); the centroid
        # recovers a few extra digits but no more.
        assert abs(centroid - 2.0) < 1e-4

    def test_smeared_multiple_root_is_flagged(self):
        from logsplit import EIGENVALUE_UNCERTAIN

        # Companion matrix of (x - 2)^3 (x + 1): the triple root smears
        # wider than the clustering tolerance, which must be reported.
        companion = Matrix(
            [[5, -6, -4, 8], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]
        )
        e = eigenvalues(companion, 1e-7)
        assert EIGENVALUE_UNCERTAIN in e.warnings

    def test_deterministic(self):
        coeffs = [complex(1), complex(0.3, -1), complex(-2, 0.1), complex(0, 1.7)]
        assert _aberth_solve(coeffs)[0] == _aberth_solve(coeffs)[0]

    def test_exhausted_budget_raises(self, monkeypatch):
        from logsplit import RootFindingDivergence, eigen

        monkeypatch.setattr(eigen, "_ABERTH_BUDGET", 1)
        coeffs = [complex(1), complex(0.3, -1), complex(-2, 0.1), complex(0, 1.7)]
        with pytest.raises(RootFindingDivergence):
            _aberth_solve(coeffs)

    @pytest.mark.parametrize(
        "starts",
        [[1 + 0j, 2j, -2 + 0j], [2j, 2j, -2 + 0j]],
        ids=["start-where-the-derivative-vanishes", "collided-starts"],
    )
    def test_nudged_starts_still_converge(self, starts):
        # x^3 - 3x + 5: p'(1) = 0 while p(1) = 3, so a start at 1 has no
        # Newton step, and two equal starts have no Aberth repulsion; each
        # is nudged off its point before the iteration goes on.
        coeffs = [1 + 0j, 0j, -3 + 0j, 5 + 0j]
        z, radii = _aberth_iterate(coeffs, starts, 200)
        assert _vieta_verdict(coeffs, z, radii) is True
        if numpy is None:
            a, b, c = z
            assert abs(a + b + c) < 1e-12
            assert abs(a * b + b * c + c * a + 3) < 1e-12
            assert abs(a * b * c + 5) < 1e-12
        else:
            key = lambda r: (round(r.real, 9), r.imag)
            for found, expected in zip(sorted(z, key=key), sorted(numpy.roots([1, 0, -3, 5]), key=key)):
                assert abs(found - expected) < 1e-12


class TestClusteringKnob:
    def test_tolerance_controls_multiplicity_grouping(self):
        near = Matrix([[Scalar.inexact(1 + 0j), Scalar.inexact(0j)],
                       [Scalar.inexact(0j), Scalar.inexact(1 + 5e-7 + 0j)]])
        tight = eigenvalues(near, 1e-9)
        assert [p.multiplicity for p in tight.pairs] == [1, 1]
        loose = eigenvalues(near, 1e-5)
        assert [p.multiplicity for p in loose.pairs] == [2]


class TestAberthRange:
    def test_huge_roots_are_found_from_their_own_circle(self):
        # sum_k (1e7)^k x^(8-k) has the roots 1e7 e(k/9), k = 1..8; the
        # start circle |c_8|^(1/8) = 1e7 keeps Horner's scheme in range.
        coeffs = [1 + 0j] + [complex(10.0 ** (7 * k), 0.0) for k in range(1, 9)]
        roots = _aberth_solve(coeffs)[0]
        for k in range(1, 9):
            expected = 1e7 * cmath.exp(2j * math.pi * k / 9)
            assert min(abs(r - expected) for r in roots) < 1e-14 * 1e7

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    @pytest.mark.parametrize("slot", [1, 2, 3])
    def test_coefficient_beyond_float_range_raises(self, bad, slot):
        # NaN passes every comparison; it must not come back as a root.
        from logsplit import RootFindingDivergence

        coeffs = [complex(1), complex(0.3, -1), complex(-2, 0.1), complex(0, 1.7)]
        coeffs[slot] = complex(bad, 0.0)
        with pytest.raises(RootFindingDivergence):
            _aberth_solve(coeffs)

    @pytest.mark.parametrize("tiny", [1e-150, 1e-163, 1e-170])
    def test_root_near_the_bottom_of_the_float_range(self, tiny):
        # (x - tiny)(x - 1)(x - 2): |x| (|x| - radius) underflows in the
        # bound on the reciprocal of the tiny root.
        coeffs = [1 + 0j, -(3 + tiny) + 0j, (2 + 3 * tiny) + 0j, -(2 * tiny) + 0j]
        roots = sorted(_aberth_solve(coeffs)[0], key=abs)
        assert abs(roots[0] - tiny) < 1e-14 * tiny
        assert abs(roots[1] - 1) < 1e-14 and abs(roots[2] - 2) < 1e-14

    def test_zero_constant_term_is_singular(self):
        # det = 0 exactly, in a constant term the polynomial route computes
        # in floating point at n = 3: the singularity test rejects it before
        # a root is solved for, as it rejects every determinant near 0.
        with pytest.raises(SingularMatrix):
            eigenvalues(Matrix([[1, 1, 0], [1, 1, 0], [0, 0, 1]]))

    @pytest.mark.parametrize("entry", [lambda e: e, complex], ids=["exact", "complex"])
    def test_hessenberg_pivot_below_the_float_range(self, entry):
        # The subdiagonal pivot 1e-310 has no finite reciprocal; multiplied
        # by, it made the polynomial NaN and the iteration diverge.
        rows = [[1, 1, 1], [1e-310, 2, 1], [1e-310, 1e-300, 3]]
        e = eigenvalues(Matrix([[entry(x) for x in row] for row in rows]))
        assert [p.multiplicity for p in e.pairs] == [1, 1, 1]
        for p, want in zip(e.pairs, (1, 2, 3)):
            assert abs(complex(p.value) - want) < 1e-14 * want
        assert e.warnings == (BRANCH_BOUNDARY,)

    def test_overflowed_roundoff_bound_is_not_convergence(self):
        # At z ~ 1e51 the residual and its bound are both inf; inf <= inf
        # must not stop the iteration on a point that is no root.
        from logsplit import RootFindingDivergence

        coeffs = [1 + 0j, 1e8 + 0j, 1e16 + 0j, 1e24 + 0j, 1e32 + 0j, 1e39 + 0j, 1e45 + 0j, 1e51 + 0j]
        try:
            roots = _aberth_solve(coeffs)[0]
        except RootFindingDivergence:
            return
        for r in roots:
            p, _, noise = _poly_eval(coeffs, r)
            assert math.isfinite(noise) and abs(p) <= 1e3 * noise


def _expand(roots):
    """Monic coefficients of prod (x - r), highest degree first."""
    coeffs = [1 + 0j]
    for r in roots:
        coeffs = [a - r * b for a, b in zip(coeffs + [0j], [0j] + coeffs)]
    return coeffs


def _float_roots(coeffs):
    """The roots of the monic ``coeffs``: Aberth's from degree 3 on, and
    at degree 2 the values of the one-pass quadratic, where tol 0 merges
    no roots."""
    if len(coeffs) == 3:
        return [z for z, _ in _from_quadratic(coeffs[1], coeffs[2], 0.0)[0]]
    return _aberth_solve(coeffs)[0]


def _integer_roots_1_to_6():
    """(x-1)(x-2)...(x-6) expanded in real floats."""
    coeffs = [1.0]
    for r in range(1, 7):
        coeffs = [a - r * b for a, b in zip(coeffs + [0.0], [0.0] + coeffs)]
    return [complex(c) for c in coeffs]


@st.composite
def spectra(draw):
    """2 to 8 roots with moduli spread over 1e-6..1e6, some of them
    near-multiple copies of another root."""
    n = draw(st.integers(2, 8))
    roots = []
    for _ in range(n):
        if roots and draw(st.booleans()) and draw(st.booleans()):
            base = draw(st.sampled_from(roots))
            offset = 10.0 ** draw(st.floats(-9, -4))
            roots.append(base * (1 + offset * cmath.exp(1j * draw(st.floats(0, 2 * math.pi)))))
        else:
            modulus = 10.0 ** draw(st.floats(-6, 6))
            roots.append(modulus * cmath.exp(1j * draw(st.floats(0, 2 * math.pi))))
    return roots


class TestFloatRootsOracle:
    @settings(max_examples=60, deadline=None)
    @given(spectra())
    # An isolated root next to a seven-fold one, which the circle start
    # lost to the cluster.
    @example(roots=[17782.794100389227 + 0j] + [1 + 0j] * 7)
    def test_roots_match_mpmath_to_their_conditioning(self, roots):
        # The oracle solves the same float coefficients in 60 digits, as
        # the eigenvalues of their companion matrix.  A root found to
        # backward error e = 8 n eps sum|c_k||z|^(n-k) lies within
        # min_k (k! e / |p^(k)|)^(1/k) of the true root, up to the factor
        # allowed here (k = 1 for a simple root, 2 for a near-double one).
        mpmath = pytest.importorskip("mpmath")
        coeffs = _expand(roots)
        found = _float_roots(coeffs)
        n = len(coeffs) - 1
        with mpmath.workdps(60):
            mp_coeffs = [mpmath.mpc(c.real, c.imag) for c in coeffs]
            companion = mpmath.matrix(n, n)
            for k in range(n):
                companion[0, k] = -mp_coeffs[k + 1]
                if k:
                    companion[k, k - 1] = 1
            oracle = mpmath.eig(companion, left=False, right=False)
            bounds = []
            for w in oracle:
                e = 8 * n * _EPS * sum(abs(c) * abs(w) ** (n - k) for k, c in enumerate(mp_coeffs))
                bound = mpmath.inf
                derivative = mp_coeffs
                for k in range(1, n + 1):
                    degree = len(derivative) - 1
                    derivative = [j * c for j, c in zip(range(degree, 0, -1), derivative)]
                    slope = abs(mpmath.polyval(derivative, w))
                    if slope:
                        bound = min(bound, (mpmath.factorial(k) * e / slope) ** (mpmath.mpf(1) / k))
                bounds.append(float(bound))
            oracle = [complex(w) for w in oracle]
        unused = list(found)
        for w, bound in zip(oracle, bounds):
            best = min(unused, key=lambda z: abs(z - w))
            assert abs(best - w) <= 16 * bound
            unused.remove(best)

    def test_quadratic_roots_of_very_different_size_keep_full_accuracy(self):
        # x^2 - (1e8 + 1e-8) x + 1: the textbook formula loses every digit
        # of the small root to cancellation.
        roots = sorted(_float_roots([1 + 0j, complex(-(1e8 + 1e-8)), 1 + 0j]), key=abs)
        assert abs(roots[0] - 1e-8) <= 1e-15 * 1e-8
        assert abs(roots[1] - 1e8) <= 1e-15 * 1e8


class TestLostRoots:
    """Aberth iterates that settle in a cluster can leave an isolated root
    unfound while every residual sits at its noise floor; the Vieta check
    catches that and the Newton polygon restart finds the root."""

    def test_isolated_roots_next_to_a_tight_cluster_are_found(self):
        rng = random.Random(4)
        missed = []
        for rho in (1e-4, 1e-3, 1e-2, 1e-1):
            for _ in range(100):
                m = rng.randint(3, 6)
                centre = rho * cmath.exp(2j * math.pi * rng.random())
                cluster = [
                    centre * (1 + 1e-8 * rng.random() * cmath.exp(2j * math.pi * rng.random()))
                    for _ in range(m)
                ]
                isolated = [1, 100, -3, 0.5j][: 8 - m]
                found = _aberth_solve(_expand(cluster + isolated))[0]
                for w in isolated:
                    if min(abs(z - w) for z in found) > 1e-9 * abs(w):
                        missed.append((rho, w))
        assert missed == []

    def test_small_root_next_to_a_large_cluster_is_found(self):
        roots = [1e-5 + 2e-5j] + [2e5 - 9e5j] * 6 + [-2e5 + 3e5j]
        found = _aberth_solve(_expand(roots))[0]
        assert min(abs(z - roots[0]) for z in found) < 1e-9 * abs(roots[0])

    @pytest.mark.parametrize(
        "roots",
        [
            [-2.75513e-07 + 2.1165e-08j, 8423040 + 4312730j, -11513 + 1593.24j,
             -3.7855e-07 + 1.06372e-07j, 2.97426e-08 + 3.3342e-09j, -3021570 + 4452380j,
             -1835520 - 1147270j],
            [60101700 - 20884000j, -7.95896e-07 + 1.97304e-06j, 1081040 + 4066730j,
             -0.0125377 - 0.0848107j, -1.7226e-07 - 4.44492e-08j, -1.14997e-08 + 2.46475e-08j,
             -62089.6 - 362445j],
        ],
    )
    def test_roots_spread_over_fourteen_decades_are_found(self, roots):
        # Moduli from 3e-8 to 6e7: the sum of the residuals stops halving
        # for 30 steps before every root freezes, at step 31 and 34.
        found = _aberth_solve(_expand(roots))[0]
        assert len(found) == len(roots)
        for w in roots:
            assert min(abs(z - w) for z in found) <= 1e-12 * abs(w)

    def test_newton_polygon_separates_the_root_moduli(self):
        # (x - 1e4)(x - 1)^3: one start near 1e4 and three within a factor
        # of 3 of the triple root.
        radii = sorted(abs(z) for z in _newton_polygon_starts(_expand([1e4, 1, 1, 1])))
        assert len(radii) == 4
        assert all(1 / 3.01 < r < 3.01 for r in radii[:3])
        assert radii[3] == pytest.approx(10003)



def _from_hex(pairs):
    return [complex(float.fromhex(re), float.fromhex(im)) for re, im in pairs]


# Characteristic polynomial of the first float-2p-dim8 benchmark document
# (seed 1): eight eigenvalues of modulus 0.6 to 1.8 conjugated by a
# random S = I + 0.1 E.
_DIM8_COEFFS = [
    ("0x1.0000000000000p+0", "0x0.0p+0"),
    ("0x1.282c91df0adc0p-1", "-0x1.c470496089080p-7"),
    ("0x1.2eaadc25134fap-3", "0x1.57fa9300d14bbp+0"),
    ("-0x1.124c5f0a76f0cp-1", "-0x1.265e645fd8e82p+1"),
    ("-0x1.64a4320728816p+2", "-0x1.25983a41e96cbp+0"),
    ("-0x1.31e4a31c06748p-1", "-0x1.d510c33396aefp+2"),
    ("0x1.8378b9dc21a7bp+0", "-0x1.2b87a9f073776p+2"),
    ("0x1.d68f2f6f1b05ap+1", "0x1.9482fbf647410p+2"),
    ("-0x1.1413f99fff739p+2", "-0x1.855c120fabdcfp+0"),
]


class TestRootBits:
    """The roots' bits, in the order the solver returns them.  Documents
    round the low bits away, so these pins are what show that a change to
    the solver leaves its output alone."""

    @pytest.mark.parametrize(
        "coeffs, expected",
        [
            pytest.param(
                _integer_roots_1_to_6(),
                [
                    ("0x1.7fffffffffef6p+1", "0x1.0932850000000p-46"),
                    ("0x1.000000000001dp+2", "-0x1.3800000000000p-83"),
                    ("0x1.0000000000002p+0", "-0x1.36e4000000000p-65"),
                    ("0x1.7ffffffffffa2p+2", "0x1.3400000000000p-86"),
                    ("0x1.4000000000067p+2", "-0x1.4400000000000p-65"),
                    ("0x1.000000000000ep+1", "-0x1.f3a4000000000p-60"),
                ],
                id="integer-1-to-6",
            ),
            pytest.param(
                # Takes the Newton polygon restart.
                _expand([1e-5 + 2e-5j] + [2e5 - 9e5j] * 6 + [-2e5 + 3e5j]),
                [
                    ("0x1.4f8b588e368f2p-17", "0x1.4f8b588e368f1p-16"),
                    ("0x1.819de0cc8f3f0p+17", "-0x1.b80adba666658p+19"),
                    ("-0x1.86a0000000002p+17", "0x1.24f8000000000p+18"),
                    ("0x1.8915eda00421cp+17", "-0x1.b62e259fbc2eap+19"),
                    ("0x1.839dfef5dadc0p+17", "-0x1.b69784fffe6d5p+19"),
                    ("0x1.8530908f1e1a2p+17", "-0x1.b86933b3e2d1ep+19"),
                    ("0x1.8a056d5712e08p+17", "-0x1.b78d853fcbe44p+19"),
                    ("0x1.8d1a5a3247c7ep+17", "-0x1.b764cdd50e216p+19"),
                ],
                id="small-root-next-to-a-cluster",
            ),
            pytest.param(
                _from_hex(_DIM8_COEFFS),
                [
                    ("0x1.9c404010554b0p+0", "0x1.4fdfbb3fa75b5p-2"),
                    ("0x1.338592ec08a32p-1", "0x1.c949fbe773fa3p-3"),
                    ("-0x1.a178f3c96af05p-3", "0x1.a20b8592a30f8p+0"),
                    ("-0x1.3030e72e50fbcp+0", "0x1.76250e8aab9c1p-2"),
                    ("-0x1.9e00946e97965p+0", "0x1.5b3d1c7326d21p-1"),
                    ("-0x1.36330a1e68b25p-2", "-0x1.20cc3d3e5d6e6p+0"),
                    ("0x1.959c0a4e8caefp-3", "-0x1.76cc447142500p+0"),
                    ("0x1.4c822377fdf0ap-2", "-0x1.3e6646f2b1ca4p-1"),
                ],
                id="conjugated-dim8",
            ),
        ],
    )
    def test_roots_are_bit_for_bit(self, coeffs, expected):
        assert [(z.real.hex(), z.imag.hex()) for z in _aberth_solve(coeffs)[0]] == expected


# -- the exact quadratic route against a Fraction model -----------------------
#
# The model is the Fraction implementation the integer-pair route replaced,
# kept verbatim: every outcome must match it bit for bit.

_TURNS = (Q_ZERO, Q_QUARTER, Q_HALF, Q_THREE_QUARTERS)
_MODEL_COSINE_TURNS = {F(1, 2): (F(1, 6), F(5, 6)), F(-1, 2): (F(1, 3), F(2, 3))}


def _model_real_fraction(s):
    if s.is_exact_zero:
        return Q_ZERO
    q = s.q
    if q is Q_ZERO or q == 0:
        return s.r
    if q is Q_HALF or q == Q_HALF:
        return -s.r
    return None


def _model_fraction_sqrt(f):
    num, den = f.numerator, f.denominator
    a, b = math.isqrt(num), math.isqrt(den)
    if a * a == num and b * b == den:
        return F(a, b)
    return None


def _model_exact_quadratic(b_s, c_s):
    b = _model_real_fraction(b_s)
    c = _model_real_fraction(c_s)
    if b is None or c is None:
        return None
    if c == 0:
        raise ZeroEigenvalue("exact zero eigenvalue; monodromy not invertible")
    disc = b * b - 4 * c
    if disc == 0:
        return [(Scalar.exact(-b / 2), 2)]
    if disc > 0:
        root = _model_fraction_sqrt(disc)
        if root is not None:
            return [(Scalar.exact((-b + root) / 2), 1), (Scalar.exact((-b - root) / 2), 1)]
    try:
        b_f, c_f, disc_f = float(b), float(c), float(disc)
    except OverflowError:
        return BEYOND
    smallest = sys.float_info.min
    if not (b == 0 or abs(b_f) >= smallest) or min(abs(c_f), abs(disc_f)) < smallest:
        return BEYOND
    if disc > 0:
        s_f = math.sqrt(disc_f)
        t = (-b_f - s_f) / 2 if b >= 0 else (-b_f + s_f) / 2
        other = c_f / t
        hi, lo = max(t, other), min(t, other)
        if not all(sys.float_info.min <= abs(v) < math.inf for v in (hi, lo)):
            return BEYOND
        sign_hi = 1 if (b <= 0 or c < 0) else -1
        sign_lo = 1 if (b < 0 and c > 0) else -1
        return [
            (Scalar.polar(abs(hi), Q_ZERO if sign_hi > 0 else Q_HALF), 1),
            (Scalar.polar(abs(lo), Q_ZERO if sign_lo > 0 else Q_HALF), 1),
        ]
    x = -b / 2
    y = math.sqrt(-disc_f) / 2
    r_frac = _model_fraction_sqrt(c)
    if x == 0:
        r = r_frac if r_frac is not None else math.sqrt(c_f)
        return [(Scalar.polar(r, Q_QUARTER), 1), (Scalar.polar(r, Q_THREE_QUARTERS), 1)]
    if r_frac is not None:
        turns = _MODEL_COSINE_TURNS.get(x / r_frac)
        if turns is not None:
            return [(Scalar.polar(r_frac, turns[0]), 1), (Scalar.polar(r_frac, turns[1]), 1)]
    return [(complex(-b_f / 2, y), 1), (complex(-b_f / 2, -y), 1)]


#: The model's outcome where a coefficient, the discriminant or a rounded
#: root is not a normal float: the solve scales them, which the model
#: leaves to _assert_true_roots.
BEYOND = "beyond the normal float range"


def _pair_solve(b_s, c_s):
    """The exact quadratic as ``eigenvalues`` feeds it char_poly's
    coefficients: their real_ratio pairs, or None when one is not an exact
    real."""
    b, c = real_ratio(b_s), real_ratio(c_s)
    if b is None or c is None:
        return None
    return _exact_quadratic(b, c)


def _outcome(solve, b_s, c_s):
    try:
        return solve(b_s, c_s)
    except (ZeroEigenvalue, FloatRangeError) as exc:
        return type(exc)


def _sqrt(x: F) -> F:
    """sqrt(x) for x > 0, to about 2^-200 relative."""
    n, d = x.numerator, x.denominator
    return F(math.isqrt(n * d << 400), d << 200)


def _assert_true_roots(got, b: F, c: F):
    """``got`` of x^2 + b x + c, c != 0, against its roots to 2^-200: each
    exact root's sign and rounded modulus, each floating root's value, to
    a few roundings; FloatRangeError only for a floating root whose
    modulus is not a normal float."""
    disc = b * b - 4 * c
    if disc > 0:
        sq = _sqrt(disc)
        big = (-b - sq) / 2 if b >= 0 else (-b + sq) / 2
        want = sorted([big, c / big])
        values = sorted(g.r * (1 if g.q == 0 else -1) for g, _ in got)
        assert all(g.is_exact and g.q in (0, Q_HALF) for g, _ in got)
        for v, w in zip(values, want):
            assert abs(v - w) <= abs(w) / 2**50
        return
    modulus = _sqrt(c)
    if got is FloatRangeError:
        assert not F(sys.float_info.min) * F(10001, 10000) <= modulus < 2**1024
        return
    y = _sqrt(-disc) / 2
    for g, _ in got:
        if type(g) is complex:
            assert abs(F(g.real) + b / 2) <= modulus / 2**50
            assert abs(abs(F(g.imag)) - y) <= modulus / 2**50
        else:
            assert g.q.denominator in (4, 6, 3) and abs(g.r - modulus) <= modulus / 2**50


def _bits(z: complex) -> tuple[str, str]:
    return z.real.hex(), z.imag.hex()


BIG = 2**2000 // 3
rationals = (
    st.builds(F, st.integers(-BIG, BIG), st.integers(1, BIG))
    | st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**6)
    | st.integers(-12, 12).map(F)
)
positive_rationals = rationals.map(abs).filter(bool)


@st.composite
def quadratics(draw):
    """(b, c) of x^2 + b x + c, drawn to reach every branch of the solve."""
    case = draw(
        st.sampled_from(["any", "square", "double", "negative_c", "zero_b", "cosine", "tiny_c"])
    )
    b = draw(rationals)
    if case == "any":
        return b, draw(rationals)
    if case == "square":  # disc = s^2
        s = draw(rationals)
        return b, (b * b - s * s) / 4
    if case == "double":
        return b, b * b / 4
    if case == "negative_c":
        return b, -draw(positive_rationals)
    if case == "zero_b":
        c = draw(rationals)
        return F(0), draw(st.sampled_from([c, c * c, -c * c]))
    if case == "cosine":  # |root| = r and cos = -+1/2, or near misses
        r = draw(positive_rationals)
        return draw(st.sampled_from([r, -r, 2 * r, r + 1])), r * r
    return b, F(draw(st.sampled_from([1, -1])), 2 ** draw(st.integers(1000, 1200)))


def _coefficient(x: F, form: str):
    """``x`` as one of the exact forms a characteristic polynomial holds."""
    if form == "fresh" and x:
        # An argument of 0 or 1/2 reached as a product of other turns.
        return Scalar.polar(abs(x), F(1, 3)) * Scalar.polar(1, F(2, 3) if x > 0 else F(1, 6))
    if form == "imaginary" and x:
        return Scalar.exact(0, x)
    return Scalar.exact(x)


forms = st.sampled_from(["exact", "exact", "exact", "fresh", "imaginary"])


@settings(max_examples=600)
@given(quadratics(), forms, forms)
@example((F(1), F(1)), "exact", "exact")  # e(1/3), e(2/3)
@example((F(-3), F(9)), "exact", "exact")  # 3 e(1/6), 3 e(5/6)
@example((F(0), F(-4)), "fresh", "fresh")
@example((F(2**1100), F(1)), "exact", "exact")  # b's float overflows
@example((F(1), F(1, 2**1100)), "exact", "exact")  # c's float underflows
@example((F(-3, 10**300), F(1, 10**600)), "exact", "exact")  # the exact 1e-300 matrix
@example((F(2**1100), F(2**2300)), "exact", "exact")  # a conjugate pair beyond the range
@example((F(0), F(3, 2**2100)), "exact", "exact")  # imaginary, irrational, below the range
@example((F(3), F(0)), "exact", "exact")
def test_exact_quadratic_matches_the_fraction_model(coeffs, b_form, c_form):
    b_s, c_s = _coefficient(coeffs[0], b_form), _coefficient(coeffs[1], c_form)
    got = _outcome(_pair_solve, b_s, c_s)
    want = _outcome(_model_exact_quadratic, b_s, c_s)
    if want is BEYOND:
        _assert_true_roots(got, *coeffs)
        return
    if want is None or want is ZeroEigenvalue:
        assert got is want
        return
    assert [m for _, m in got] == [m for _, m in want]
    for g, w in ((g, w) for (g, _), (w, _) in zip(got, want)):
        assert type(g) is type(w)
        if type(w) is complex:
            assert _bits(g) == _bits(w)
            continue
        assert g.is_exact and w.is_exact
        assert g.r == w.r and type(g.r) is F
        if any(w.q is t for t in _TURNS):
            assert g.q is w.q
        else:
            assert g.q == w.q and type(g.q) is F
        assert _bits(g.z) == _bits(w.z)
