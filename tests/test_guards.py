"""The argument guards and display methods of the library, one row each: the
error a guard raises, or the value it documents, for the input it names."""

from fractions import Fraction

import pytest

from oddsym.combinat import Tableau, compositions_of, dominates, partitions_of, ssyt, triangular
from oddsym.form import (
    htilde_expansion,
    pair_h_at,
    pair_h_generic,
    pair_htilde,
    pair_words_generic,
    pair_words_odd,
)
from oddsym.gramdet import det_degree_formula
from oddsym.hopf import primitives
from oddsym.oddring import OddElt
from oddsym.polyq import QPoly, det_exact, divide_out, kernel_basis, unimodular_inverse
from oddsym.rsk import odd_rsk_check

Q = QPoly((0, 1))

RAISES = {
    "QPoly.divmod by zero": (lambda: Q.divmod(QPoly()), ZeroDivisionError, "division by zero"),
    "divide_out of zero": (lambda: divide_out(QPoly(), Q), ValueError, "zero polynomial"),
    "divide_out by a constant": (lambda: divide_out(Q, QPoly((2,))), ValueError,
                                 "constant divisor"),
    "det_exact non-square": (lambda: det_exact([[1, 2]]), ValueError, "not square"),
    "unimodular_inverse non-square": (lambda: unimodular_inverse([[1], [0]]), ValueError,
                                      "not square"),
    "partitions_of(-1)": (lambda: partitions_of(-1), ValueError, ">= 0"),
    "compositions_of(-1)": (lambda: compositions_of(-1), ValueError, ">= 0"),
    "triangular(-1)": (lambda: triangular(-1), ValueError, ">= 0"),
    "ssyt of a shape that is not a partition": (lambda: ssyt((1, 2), (2, 1)), ValueError,
                                                "not a partition"),
    "det_degree_formula(1)": (lambda: det_degree_formula(1), ValueError, ">= 2"),
    "primitives(0)": (lambda: primitives(0), ValueError, ">= 1"),
    "odd_rsk_check on unequal margins": (lambda: odd_rsk_check((2,), (1,)), ValueError,
                                         "different weights"),
    "odd_rsk_check on row margins (1, 2)": (lambda: odd_rsk_check((1, 2), (3,)), ValueError,
                                            r"not a partition: \(1, 2\)"),
    "odd_rsk_check on column margins (1, 2)": (lambda: odd_rsk_check((2, 1), (1, 2)),
                                               ValueError, r"not a partition: \(1, 2\)"),
    "odd_rsk_check on a zero margin": (lambda: odd_rsk_check((0, 3), (3,)), ValueError,
                                       r"not a partition: \(0, 3\)"),
    # a part 0 would be read as h_0 = e_0 = 1
    "pair_h_at(-1) on an h-word part 0": (lambda: pair_h_at((0, 2), (2,), -1), ValueError,
                                          ">= 1"),
    "pair_h_at(2) on an h-word part 0": (lambda: pair_h_at((2,), (2, 0), 2), ValueError,
                                         ">= 1"),
    "pair_h_generic on an h-word part 0": (lambda: pair_h_generic((2, 0), (2,)), ValueError,
                                           ">= 1"),
    "pair_htilde on an h-word part 0": (lambda: pair_htilde((0, 2), (2,)), ValueError, ">= 1"),
    "htilde_expansion on an h-word part 0": (lambda: htilde_expansion((2, 0)), ValueError,
                                             ">= 1"),
    # q = -1.0 equals -1 but must not take the colored rule
    "pair_h_at at q = -1.0": (lambda: pair_h_at((2, 1), (1, 2), -1.0), ValueError,
                              "q must be an integer"),
    "OddElt coefficient 0.5": (lambda: OddElt({(1,): 0.5}), ValueError,
                               "coefficient must be an integer"),
    "OddElt coefficient Fraction(1, 2)": (lambda: OddElt({(1,): Fraction(1, 2)}), ValueError,
                                          "coefficient must be an integer"),
    "OddElt coefficient True": (lambda: OddElt({(1,): True}), ValueError,
                                "coefficient must be an integer"),
    "pair_words_odd on an e-letter part 0": (
        lambda: pair_words_odd(((0, "e"), (2, "h")), ((2, "h"),)), ValueError,
        r"not a colored letter: \(0, 'e'\)"),
    "pair_words_generic on an h-letter part 0": (
        lambda: pair_words_generic(((2, "e"),), ((2, "h"), (0, "h"))), ValueError,
        r"not a colored letter: \(0, 'h'\)"),
}

RETURNS = {
    "kernel_basis of no rows": (lambda: kernel_basis([]), []),
    "dominates on unequal weights": (lambda: dominates((3,), (1, 1)), False),
    "pair_htilde on unequal degrees": (lambda: pair_htilde((2,), (1,)), QPoly()),
    "repr of OddElt.zero()": (lambda: repr(OddElt.zero()), "0"),
    "repr of QPoly": (lambda: repr(QPoly((1, 0, -2))), "QPoly([1, 0, -2])"),
    "repr of Tableau": (lambda: repr(Tableau([(1, 1), (2,)])), "Tableau([[1, 1], [2]])"),
}


@pytest.mark.parametrize("call, error, message", RAISES.values(), ids=RAISES)
def test_guard_raises(call, error, message):
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize("call, want", RETURNS.values(), ids=RETURNS)
def test_guard_returns(call, want):
    assert call() == want
