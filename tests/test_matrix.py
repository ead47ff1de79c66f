import cmath
import random
from fractions import Fraction

import pytest

from logsplit import (
    DimensionMismatch,
    FloatRangeError,
    Matrix,
    Scalar,
    SingularMatrix,
    char_poly,
    mat_inverse,
    mat_mul,
)
from logsplit.scalar import ZERO, is_exact
from conftest import close_to, rand_invertible, stored_form

F = Fraction


def _rand_polar(rng: random.Random) -> Scalar:
    return Scalar.polar(F(rng.randint(1, 9), rng.randint(1, 9)), F(rng.randrange(12), 12))


def _rational_plu(rng: random.Random, n: int) -> Matrix:
    """P L U with unit lower L and a nonzero diagonal in U: exactly
    invertible, with small rational entries and a row order that makes the
    elimination pivot."""
    def small() -> Fraction:
        return F(rng.randint(-3, 3), rng.randint(1, 3))

    lower = [[F(1) if i == j else small() if j < i else F(0) for j in range(n)] for i in range(n)]
    upper = [[rng.choice((F(1, 2), F(-1), F(2))) if i == j else small() if j > i else F(0)
              for j in range(n)] for i in range(n)]
    lu = [[sum(lower[i][k] * upper[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return Matrix(rng.sample(lu, n))


class TestProduct:
    def test_identity_is_neutral(self):
        i3 = Matrix.identity(3)
        assert mat_mul(i3, i3) == i3

    def test_golden_pair_product(self, golden_pair):
        # Hand multiplication of the two embedded generators.
        gen_t, gen_s = golden_pair
        expected = Matrix([[F(-1, 2), 1], [F(-3, 4), F(-1, 2)]])
        assert mat_mul(gen_t, gen_s) == expected

    def test_product_with_inverse_is_identity(self):
        rng = random.Random(11)
        for n in (2, 3, 5):
            a = rand_invertible(rng, n)
            assert close_to(mat_mul(a, a.inverse()), Matrix.identity(n), 1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            mat_mul(Matrix.identity(2), Matrix.identity(3))


class TestInverse:
    def test_diagonal(self):
        inv = mat_inverse(Matrix([[2, 0], [0, -3]]))
        assert inv == Matrix([[F(1, 2), 0], [0, F(-1, 3)]])

    def test_golden_product_inverse_is_exact(self, golden_pair):
        gen_t, gen_s = golden_pair
        product = gen_t @ gen_s
        expected = Matrix([[F(-1, 2), -1], [F(3, 4), F(-1, 2)]])
        assert mat_inverse(product) == expected

    def test_identity(self):
        assert mat_inverse(Matrix.identity(4)) == Matrix.identity(4)

    def test_singular_matrix_raises(self):
        a, b, c = (Scalar.polar(F(2, 3), F(1, 5)), Scalar.polar(3, F(2, 7)), Scalar.polar(1, F(1, 3)))
        singular = (
            Matrix([[1, 2], [2, 4]]),
            Matrix([[0]]),
            Matrix([[1, 1, 0], [2, 2, 0], [0, 1, 1]]),
            # Exact polar rows, one a multiple of another.
            Matrix([[a, b], [a * c, b * c]]),
            Matrix([[a, b, c], [c, a, b], [a * c, b * c, c * c]]),
        )
        for m in singular:
            with pytest.raises(SingularMatrix):
                mat_inverse(m)

    def test_a_pivot_without_a_finite_reciprocal_is_outside_the_range(self):
        # 1 / pivot overflows, and the inverse was all NaN, with no error.
        rows = [[1e-310 + 0j, 2e-310 + 0j], [3e-310 + 0j, 1e-310 + 0j]]
        with pytest.raises(FloatRangeError) as info:
            mat_inverse(Matrix(rows))
        assert str(info.value) == "2x2 inverse outside the floating-point range"

    def test_a_pivot_without_a_finite_reciprocal_is_singular_in_a_singular_block(self):
        # The 2x2 block's pivot has no finite reciprocal at the scale of the
        # 3x3; the determinant-only elimination divides by it, so the
        # determinant, about 5e-620, decides, not a NaN from Gauss-Jordan.
        rows = [[1e-310 + 0j, 2e-310, 0j], [3e-310 + 0j, 1e-310 + 0j, 0j], [0j, 0j, 1 + 0j]]
        with pytest.raises(SingularMatrix):
            mat_inverse(Matrix(rows))

    def test_singularity_is_decided_before_the_range(self):
        # The last pivot, 1e-320j, has no finite reciprocal, but the
        # determinant is below the threshold.
        with pytest.raises(SingularMatrix):
            mat_inverse(Matrix([[1 + 0j, 2 + 0j], [1 + 0j, 2 + 1e-320j]]))

    def test_a_determinant_below_the_float_range_is_not_singular(self):
        # The determinants, about 1e-400, underflow to 0.0, yet the entries
        # are far from singular at their own scale.
        tiny = Matrix([[1e-200 + 1e-201j, 2e-200 + 0j], [3e-200 + 0j, 1e-200 + 0j]])
        assert close_to(tiny @ tiny.inverse(), Matrix.identity(2), 1e-12)
        exact = Matrix([[F(k, 10**200) for k in row] for row in ((1, 2), (3, 1))])
        assert exact @ exact.inverse() == Matrix.identity(2)

    def test_an_exact_modulus_below_the_float_range_sets_the_scale(self):
        # Every float modulus reads 0.0, so the scale comes from the exact
        # moduli; the inverse, about 10^400, is exact.
        m = Matrix([[F(k, 10**400) for k in row] for row in ((1, 2), (3, 1))])
        inv = m.inverse()
        assert inv == Matrix([[F(-(10**400), 5), F(2 * 10**400, 5)],
                              [F(3 * 10**400, 5), F(-(10**400), 5)]])
        assert all(is_exact(e) for row in inv.rows for e in row)
        assert m @ inv == Matrix.identity(2)

    @pytest.mark.parametrize("exact", [False, True])
    def test_a_power_of_two_scale_changes_no_decision(self, exact):
        # A * 2^k is inverted at the scale of A: the decision, and the
        # inverse scaled back by 2^k, are those of A.
        rows = ((1, 2), (3, 1)) if exact else ((1 + 0.1j, 2 + 0j), (3 + 0j, 1 + 0j))
        scale = (lambda k: F(2) ** k) if exact else (lambda k: 2.0**k)
        ref = Matrix(rows).inverse()
        for k in range(-1000, 1001, 25):
            inv = Matrix([[e * scale(k) for e in row] for row in rows]).inverse()
            assert Matrix([[e * scale(k) for e in row] for row in inv.rows]) == ref, k
        singular = (
            Matrix([[1, 2], [2, 4]]),
            Matrix([[1 + 0j, 2 + 0j], [1 + 0j, 2 + 1e-13j]]),
            # Pivots without a finite reciprocal: |det| about 5e-620, and
            # det() 1e-310, lie below the threshold.
            Matrix([[1e-310 + 0j, 2e-310 + 0j, 0j], [3e-310 + 0j, 1e-310 + 0j, 0j],
                    [0j, 0j, 1 + 0j]]),
            Matrix([[1e-310 + 0j, 1 + 0j], [1e-310 + 0j, 2 + 0j]]),
        )
        for m in singular:
            for k in range(-1000, 1001, 25):
                with pytest.raises(SingularMatrix):
                    Matrix([[e * scale(k) for e in row] for row in m.rows]).inverse()

    @pytest.mark.parametrize("n", range(1, 9))
    def test_exact_rational_inverse_is_exact(self, n):
        rng = random.Random(40 + n)
        for _ in range(5):
            m = _rational_plu(rng, n)
            inv = m.inverse()
            assert all(map(is_exact, (e for row in inv.rows for e in row)))
            assert m @ inv == Matrix.identity(n)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_exact_monomial_polar_inverse_is_exact(self, n):
        rng = random.Random(60 + n)
        for _ in range(5):
            perm = rng.sample(range(n), n)
            m = Matrix([[_rand_polar(rng) if j == perm[i] else ZERO for j in range(n)] for i in range(n)])
            inv = m.inverse()
            assert all(map(is_exact, (e for row in inv.rows for e in row)))
            assert m @ inv == Matrix.identity(n)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_exact_upper_triangular_polar_inverse(self, n):
        rng = random.Random(80 + n)
        m = Matrix([[_rand_polar(rng) if j >= i else ZERO for j in range(n)] for i in range(n)])
        inv = m.inverse()
        for i in range(n):
            assert is_exact(inv[i, i]) and inv[i, i] == m[i, i].reciprocal()
            assert all(inv[i, j] is ZERO for j in range(i))

    def test_gauss_jordan_matches_adjugate_scale(self):
        rng = random.Random(23)
        for _ in range(10):
            a = rand_invertible(rng, 4)
            prod = a @ a.inverse()
            assert close_to(prod, Matrix.identity(4), 1e-8)


class TestCharPoly:
    def test_one_by_one(self):
        lam = Scalar.polar(2, F(1, 3))
        coeffs = char_poly(Matrix([[lam]]))
        assert len(coeffs) == 2
        assert coeffs[0] == Scalar.exact(1)
        assert coeffs[1] == -lam

    def test_golden_generator_trace_zero_det_minus_one(self, golden_pair):
        _, gen_s = golden_pair
        coeffs = char_poly(gen_s)
        assert coeffs[1] is ZERO
        assert coeffs[2] == Scalar.exact(-1)

    def test_jordan_block_squares_the_eigenvalue(self):
        lam = Scalar.polar(1, F(3, 10))
        coeffs = char_poly(Matrix([[lam, 1], [0, lam]]))
        assert coeffs[1] == -(lam + lam)
        assert coeffs[2] == lam * lam
        assert coeffs[2].q == F(3, 5)

    def test_constant_term_is_signed_determinant(self):
        rng = random.Random(5)
        for n in (2, 3, 4, 6):
            a = rand_invertible(rng, n)
            coeffs = char_poly(a)
            sign = 1 if n % 2 == 0 else -1
            assert abs(coeffs[-1] - sign * a.det()) < 1e-9 * (1 + abs(a.det()))


class TestSubnormalPivots:
    """A pivot below about 2^-1024 has no finite reciprocal; det and
    char_poly divide by it, where multiplying left NaN."""

    TINY = [[1e-310 + 0j, 2e-310 + 0j, 0j], [3e-310 + 0j, 1e-310 + 0j, 0j], [0j, 0j, 1e-310 + 0j]]

    def test_determinant(self):
        # About -5e-930, below the float range.
        assert Matrix(self.TINY).det() == 0j

    def test_characteristic_polynomial(self):
        coeffs = Matrix(self.TINY).char_poly()
        assert all(cmath.isfinite(c) for c in coeffs)
        assert coeffs[1] == -3e-310 + 0j  # minus the trace

    def test_hessenberg_pivot_among_larger_entries(self):
        # The subdiagonal pivot 1e-310 sits next to entries of order 1.
        rows = [[1, 1, 1], [1e-310, 2, 1], [1e-310, 1e-300, 3]]
        coeffs = Matrix([[complex(e) for e in row] for row in rows]).char_poly()
        for got, want in zip(coeffs, (1, -6, 11, -6)):
            assert abs(got - want) < 1e-14 * 11


class TestStructure:
    def test_dimension_bounds(self):
        with pytest.raises(DimensionMismatch):
            Matrix([[0] * 9 for _ in range(9)])
        with pytest.raises(DimensionMismatch):
            Matrix([[1, 2]])

    def test_triangular_probes(self):
        up = Matrix([[1, 2], [0, 3]])
        assert up.is_upper_triangular() and not up.is_lower_triangular()
        lo = Matrix([[1, 0], [2, 3]])
        assert lo.is_lower_triangular() and not lo.is_upper_triangular()
        assert Matrix.identity(3).is_upper_triangular()

    def test_scalar_value_exact(self):
        m = Matrix([[Scalar.polar(2, F(1, 3)), 0], [0, Scalar.polar(2, F(1, 3))]])
        assert m.scalar_value(0.0) == Scalar.polar(2, F(1, 3))
        assert Matrix([[1, 0], [0, 2]]).scalar_value(1e-9) is None

    def test_scalar_value_float(self):
        m = Matrix([[Scalar.inexact(2 + 0j), Scalar.inexact(1e-12 + 0j)],
                    [Scalar.inexact(0j), Scalar.inexact(2 + 1e-12j)]])
        assert m.scalar_value(1e-9) is not None
        assert m.scalar_value(1e-15) is None

    def test_scalar_value_float_is_relative(self):
        # diag(1, 2) is not scalar at any scale, however small its entries.
        for scale in (1e-12, 1.0, 1e12):
            m = Matrix([[scale + 0j, 0j], [0j, 2 * scale + 0j]])
            assert m.scalar_value(1e-9) is None
        assert Matrix([[1e-12 + 0j, 0j], [0j, 1e-12 + 0j]]).scalar_value(1e-9) == 1e-12
        assert Matrix([[0j, 0j], [0j, 0j]]).scalar_value(1e-9) == 0

    def test_trace_and_det_small(self):
        m = Matrix([[1, 2], [3, 4]])
        assert m.det() == Scalar.exact(-2)


class TestStorage:
    """Entries are stored as given, exact Scalars next to complex values,
    and the accessors return them so: never a floating Scalar."""

    def test_same_values_compare_equal_across_storage(self):
        floating = Matrix([[1.5 + 0j, 2 + 1j], [0.5j, -3 + 0j]])
        mixed = Matrix([[1.5, 2 + 1j], [Scalar.exact(0, 0.5), -3]])
        assert all(type(e) is complex for row in floating.rows for e in row)
        assert [type(e) for row in mixed.rows for e in row] == [Scalar, complex, Scalar, Scalar]
        assert floating == mixed and mixed == floating
        assert hash(floating) == hash(mixed)
        assert floating != Matrix([[1.5, 2 + 1j], [Scalar.exact(0, 0.5), -3.5]])
        for m in (floating, mixed):
            assert all(stored_form(m[i, j]) for i in range(2) for j in range(2))
            assert all(map(stored_form, (m.det(), *m.char_poly(), *m.diagonal())))
        assert type(floating.det()) is complex and type(mixed.det()) is complex
        assert is_exact(mixed[0, 0]) and not is_exact(mixed[0, 1])

    def test_floating_scalars_are_stored_as_complex(self):
        m = Matrix([[Scalar.inexact(1 + 1j), 2 - 1j], [Scalar.inexact(complex(-0.0, 3)), 4j + 1]])
        assert all(type(e) is complex for row in m.rows for e in row)
        assert m[1, 0].real.hex() == "-0x0.0p+0"

    def test_mixed_entries_stay_as_given_and_exact_products_stay_exact(self):
        a = Scalar.polar(2, F(1, 3))
        m = Matrix([[a, 1 + 2j], [3 - 1j, 0.5 + 0.5j]])
        assert [type(e) for row in m.rows for e in row] == [Scalar, complex, complex, complex]
        assert m[0, 0] is a
        scale = Matrix([[Scalar.polar(3, F(1, 4)), 0], [0, 2]])
        product = m @ scale
        assert is_exact(product[0, 0])
        assert (product[0, 0].r, product[0, 0].q) == (6, F(7, 12))
        assert type(product[0, 1]) is complex
        assert (Matrix.identity(2) @ m)[0, 0] == a
        assert is_exact((Matrix.identity(2) @ m)[0, 0])

    def test_scalar_value_is_exact_or_complex(self):
        exact = Matrix([[Scalar.polar(2, F(1, 3)), 0], [0, Scalar.polar(2, F(1, 3))]])
        floating = Matrix([[2 + 1j, 0], [0, 2 + 1j]])
        mixed = Matrix([[2 + 0j, 0], [0, 2]])
        assert is_exact(exact.scalar_value(1e-9))
        for m, value in ((floating, 2 + 1j), (mixed, 2)):
            assert m.scalar_value(1e-9) == value and type(m.scalar_value(1e-9)) is complex
