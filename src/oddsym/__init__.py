"""Exact arithmetic for odd symmetric functions.

A free graded algebra on generators h_1, h_2, ... carries a q-deformed
bilinear form counting double cosets by length; at q = -1 the quotient by
the radical is the ring of odd symmetric functions.  This package computes
the form by signed margin-matrix enumeration, normal forms in the quotient,
the five classical-analogue bases, the Hopf-superalgebra structure, the
sign-tracked RSK correspondence, and the generic-q Gram determinant
analysis, all over exact integers and integer polynomials.
"""

from .combinat import (
    Tableau,
    compositions_of,
    dominates,
    matrices_with_margins,
    partitions_of,
    ssyt,
    sw_ne_pairs,
    transpose,
    triangular,
)
from .form import (
    descent_composition,
    e_expansion,
    htilde_expansion,
    pair_h_at,
    pair_h_generic,
    pair_htilde,
    pair_words_generic,
    pair_words_odd,
)
from .oddring import (
    OddElt,
    coproduct,
    e_coordinates,
    e_elt,
    h_elt,
    normalize,
    normalize_via_gram,
    pair,
)
from .bases import (
    basis_matrix,
    forgotten,
    kostka,
    kostka_matrix,
    monomial,
    power_sum,
    schur,
)
from .hopf import antipode, omega, primitives, reverse, sign_twist
from .gramdet import (
    det_degree_formula,
    factor_multiplicity_check,
    gram_det,
    gram_matrix,
    radical_rank,
)
from .polyq import QPoly
from .rsk import knuth_normalize, odd_plactic_reduce, row_insert

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
