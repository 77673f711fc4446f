"""Tests of the benchmark's oracle, against values worked by hand from the
coats example, and of the generator's non-canonical text.

    python3 -m unittest discover -s bench -p "test_*.py"
"""

import random
import unittest
from fractions import Fraction

import gen
import oracle

HALF = Fraction(1, 2)
GD = ("g", "d")

# Atoms of (g, d): 0 is ~g & ~d, 1 is g & ~d, 2 is ~g & d, 3 is g & d.
NOT_D = 0b0011
D = 0b1100

COATS_DS_CANONICAL = """{
  "kind": "ds",
  "propositions": [
    "g",
    "d"
  ],
  "worlds": [
    "s1",
    "s2",
    "s3",
    "s4"
  ],
  "chi_basis": [
    [
      "s1",
      "s2"
    ],
    [
      "s3",
      "s4"
    ]
  ],
  "measure": {
    "0": "1/2",
    "1": "1/2"
  },
  "incidence": {
    "(~g & ~d)": [
      "s1",
      "s2"
    ],
    "(g & ~d)": [
      "s3"
    ],
    "(~g & d)": [],
    "(g & d)": [
      "s4"
    ]
  }
}
"""


class Formulas(unittest.TestCase):
    def test_evaluate(self):
        self.assertEqual(oracle.evaluate("~d", GD), NOT_D)
        self.assertEqual(oracle.evaluate("g & d | ~g & d", GD), D)
        self.assertEqual(oracle.evaluate("~(g | d)", GD), 0b0001)
        self.assertEqual(oracle.evaluate("true & ~false", GD), 0b1111)

    def test_long_negation_run_folds_by_parity(self):
        self.assertEqual(oracle.evaluate("~" * 3000 + "a", ("a",)), 0b10)
        self.assertEqual(oracle.evaluate("~" * 3001 + "a", ("a",)), 0b01)

    def test_formula_text(self):
        self.assertEqual(oracle.formula_text(GD, NOT_D), "(~g & ~d) | (g & ~d)")
        self.assertEqual(oracle.formula_text(("a",), 0b10), "a")
        self.assertEqual(oracle.formula_text(GD, 0), "false")
        self.assertEqual(oracle.formula_text(GD, 0b1111), "true")


class CoatsByHand(unittest.TestCase):
    def setUp(self):
        self.ds = oracle.read(oracle.COATS_DS)
        self.ic = oracle.read(oracle.COATS_IC)

    def test_not_d_on_ds(self):
        # incidence of ~d is {s1, s2, s3}: only the block {s1, s2} fits, so
        # bel(~d) = 1/2; incidence of d is {s4}: no block fits, so
        # plb(~d) = 1 - bel(d) = 1.
        self.assertEqual(oracle.lower(self.ds, NOT_D), HALF)
        self.assertEqual(oracle.lower(self.ds, D), 0)
        self.assertEqual(oracle.interval(self.ds, NOT_D), (HALF, 1))

    def test_not_d_on_ic(self):
        # ~d contains the block ~g & ~d (world w1) and meets g & ~d | g & d
        # (world w2): [1/2, 1/2 + 1/2].
        self.assertEqual(oracle.interval(self.ic, NOT_D), (HALF, 1))

    def test_equiv_of_coats_ds_and_its_translation(self):
        # ds_to_ic of coats-ds gives one world per chi block and the psi
        # blocks {~g & ~d}, {g & ~d, g & d} and the dead atom {~g & d}:
        # the coats-ic document.
        self.assertEqual(oracle.compare(self.ds, self.ic), (True, 16, None))

    def test_first_witness_and_count(self):
        # One proposition a, one world.  X puts it on atom a, Y on atom ~a.
        # Mask 0 (false) agrees; mask 1 (~a) is [0, 0] against [1, 1].
        x = oracle.Model("ds", ("a",), ("w1",), (0b01, 0b10), (0, 1), (1,), (Fraction(1),))
        y = oracle.Model("ds", ("a",), ("w1",), (0b01, 0b10), (1, 0), (1,), (Fraction(1),))
        self.assertEqual(oracle.compare(x, y), (False, 2, (1, (0, 0), (1, 1))))

    def test_masses(self):
        # The two chi blocks carry 1/2 each to the atom sets {~g & ~d} and
        # {g & ~d, g & d}.
        self.assertEqual(oracle.mass_problems(self.ds, {0b0001: HALF, 0b1010: HALF}), [])
        self.assertNotEqual(oracle.mass_problems(self.ds, {0b0001: Fraction(1)}), [])
        self.assertNotEqual(oracle.mass_problems(self.ds, {0b0001: 1, 0b1010: HALF, 0b1000: -HALF}), [])

    def test_canonical_text(self):
        self.assertEqual(oracle.canonical(self.ds), COATS_DS_CANONICAL)


class Generated(unittest.TestCase):
    def test_noncanonical_text_reads_back_to_the_model(self):
        rng = random.Random(3)
        for model in (gen.ds_model(rng, 3, 8, 6, 3), gen.ic_model(rng, 3, 8, 6, 3)):
            text = gen.noncanonical(model, rng)
            self.assertNotEqual(text, oracle.canonical(model))
            self.assertEqual(oracle.canonical(oracle.read(text)), oracle.canonical(model))

    def test_shapes_are_fixed(self):
        rng = random.Random(4)
        ic = gen.ic_model(rng, 3, 8, 6, 3)
        self.assertEqual(len(ic.fblocks), 3 + 2)
        self.assertEqual(sum(1 for image in ic.images if image), 3)
        ds = gen.ds_model(rng, 3, 8, 6, 3)
        self.assertEqual(len(ds.mblocks), 3)
        self.assertEqual(sum(1 for image in ds.images if image), 6)


if __name__ == "__main__":
    unittest.main()
