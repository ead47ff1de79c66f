"""Checks of the benchmark's own oracles and generators (no logsplit).

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

import cmath
import math
import random
import unittest
from fractions import Fraction as F

import corpus
import oracles as o

# The library example of the project README (and the golden self-test
# representation): c1 = -2, irreducible, roots (-1, -1).
GOLDEN = (((F(1), F(0)), (F(0), F(-1))), ((F(-1, 2), F(1)), (F(3, 4), F(1, 2))))


class RuleTests(unittest.TestCase):
    def test_golden_representation(self):
        exp = o.rational_pair_expected(*GOLDEN)
        self.assertEqual(exp["kind"], "ThreeDim2Irreducible")
        self.assertEqual(exp["c1"], -2)
        self.assertEqual(exp["candidates"], ((-1, -1),))
        self.assertFalse(exp["ambiguous"])

    def test_golden_local_q_sums(self):
        m0, m1 = GOLDEN
        m_inf = o.inv2(o.mul2(m0, m1))
        self.assertEqual(m_inf, ((F(-1, 2), F(-1)), (F(3, 4), F(-1, 2))))
        sums = tuple(o.rational_q_sum(m) for m in (m0, m1, m_inf))
        self.assertEqual(sums, (F(1, 2), F(1, 2), F(1)))

    def test_readme_float_example(self):
        m0 = [[1.0, 0.0], [0.0, -1.0]]
        m1 = [[-0.5, 1.0], [0.75, 0.5]]
        m_inf = [[-0.5, -1.0], [0.75, -0.5]]
        qs = sorted(o.branch_q(z) for z in o.eig2(m_inf))
        self.assertAlmostEqual(qs[0], 1 / 3, places=12)
        self.assertAlmostEqual(qs[1], 2 / 3, places=12)
        self.assertEqual(sorted(o.branch_q(z) for z in o.eig2(m0)), [0.0, 0.5])
        self.assertEqual(sorted(o.branch_q(z.real) for z in o.eig2(m1)), [0.0, 0.5])

    def test_readme_ambiguous_example(self):
        e = lambda q: (F(1), F(q))  # noqa: E731
        exp = o.polar_triangular_expected(e("3/5"), e(0), e("3/5"), e(0))
        self.assertEqual(exp["kind"], "ThreeDim2ReducibleAmbiguous")
        self.assertEqual(exp["c1"], -2)
        self.assertEqual(exp["candidates"], ((-1, -1), (0, -2)))
        self.assertTrue(exp["ambiguous"])

    def test_character_region_table(self):
        # The 4x4 table of the golden self-test, by the integer rule.
        table = {(i, j): o.sweep_root(i, j, 4) for i in range(4) for j in range(4)}
        self.assertEqual(table[0, 0], 0)
        self.assertEqual([k for k, v in table.items() if v == -2], [(2, 3), (3, 2), (3, 3)])
        for (i, j), root in table.items():
            self.assertEqual(root, o.character_root(F(i, 4), F(j, 4)))

    def test_sweep_labels_match_fraction_str(self):
        for steps in (1, 4, 12, 64):
            for i in range(steps):
                self.assertEqual(o.lattice_label(i, steps), str(F(i, steps)))
        self.assertEqual(o.sweep_csv(2), "0,0,0\n0,1/2,-1\n1/2,0,-1\n1/2,1/2,-1\n")

    def test_decomposable_triangular_pairs(self):
        diag = ((F(2), F(0)), (F(0), F(3)))
        self.assertTrue(o.triangular_decomposable(diag, ((F(5), F(0)), (F(0), F(-1)))))
        self.assertFalse(o.triangular_decomposable(diag, ((F(5), F(1)), (F(0), F(-1)))))
        scalar = ((F(2), F(0)), (F(0), F(2)))
        self.assertTrue(o.triangular_decomposable(scalar, ((F(5), F(1)), (F(0), F(-1)))))
        jordan = ((F(2), F(1)), (F(0), F(2)))
        self.assertFalse(o.triangular_decomposable(jordan, ((F(5), F(1)), (F(0), F(-1)))))

    def test_two_punctures(self):
        exp = o.two_puncture_expected(3)
        self.assertEqual((exp["kind"], exp["c1"], exp["candidates"]), ("TwoPunctureGeneral", -3, ((-1, -1, -1),)))

    def test_rational_q_sum_agrees_with_float_eigenvalues(self):
        rng = random.Random(3)
        checked = 0
        while checked < 300:
            m = tuple(tuple(F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(2)) for _ in range(2))
            if o.det2(m) == 0 or not corpus._disc_clear(m):
                continue
            floats = [[float(e) for e in row] for row in m]
            q_float = sum(o.branch_q(complex(z.real, 0.0) if abs(z.imag) < 1e-12 else z) for z in o.eig2(floats))
            self.assertAlmostEqual(q_float, float(o.rational_q_sum(m)), places=9)
            checked += 1


class CorpusTests(unittest.TestCase):
    def test_candidates_sum_to_c1(self):
        for name in ("exact-3p", "float-3p", "float-2p-dim8"):
            for item in corpus.make_round(name, 11):
                for roots in item.expected["candidates"]:
                    self.assertEqual(sum(roots), item.expected["c1"])

    def test_rounds_repeat_per_seed(self):
        for name in corpus.GENERATORS:
            self.assertEqual(corpus.make_round(name, 5), corpus.make_round(name, 5))

    def test_fault_slice_does_not_depend_on_seed(self):
        def fault_set(seed):
            return sorted(repr(it.payload) for it in corpus.make_round("exact-3p", seed) if it.fault)

        self.assertEqual(fault_set(1), fault_set(2))
        self.assertEqual(len(fault_set(1)), corpus.FAULT_PAIRS)

    def test_fault_pairs_are_reducible(self):
        for item in corpus.fault_pairs():
            m0, m1 = item.payload
            self.assertEqual(o.det2(o.sub2(o.mul2(m0, m1), o.mul2(m1, m0))), 0)

    def test_exact_slices(self):
        kinds = [it.expected["kind"] for it in corpus.make_round("exact-3p", 4) if not it.fault]
        self.assertEqual(kinds.count("ThreeDim2Irreducible"), corpus.IRREDUCIBLE_PAIRS)
        self.assertGreaterEqual(kinds.count("ThreeDim2ReducibleAmbiguous"), corpus.POLAR_PAIRS // 2)

    def test_dim8_spectrum_keeps_margins(self):
        for item in corpus.make_round("float-2p-dim8", 9):
            for z in item.spectrum:
                q = o.branch_q(z)
                self.assertTrue(corpus.Q_MARGIN <= q <= 1 - corpus.Q_MARGIN)
            self.assertEqual(item.expected["c1"], -corpus.DIM8)

    def test_eig2_closed_form(self):
        rng = random.Random(8)
        for _ in range(100):
            lam = [cmath.rect(rng.uniform(0.5, 2), rng.uniform(0, 2 * math.pi)) for _ in range(2)]
            m = [[lam[0], rng.uniform(-1, 1)], [0j, lam[1]]]
            got = sorted(o.eig2(m), key=lambda z: (z.real, z.imag))
            want = sorted(lam, key=lambda z: (z.real, z.imag))
            for g, w in zip(got, want):
                self.assertLess(abs(g - w), 1e-12)


if __name__ == "__main__":
    unittest.main()
