"""Bilinear-form tests, including the independent double-coset oracle."""

from itertools import permutations, product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oddsym.combinat import (
    compositions_of,
    matrices_with_margins,
    row_fillings,
    triangular,
)
from oddsym.form import (
    E,
    H,
    descent_composition,
    coarsenings,
    e_expansion,
    e_word,
    expand_colored_word,
    h_word,
    htilde_expansion,
    pair_h_at,
    pair_h_generic,
    pair_htilde,
    pair_words_generic,
    pair_words_odd,
)
from oddsym.polyq import QPoly

from oracles import pair_htilde_inclusion_exclusion
from test_oddring import PROPERTY

ONE = QPoly((1,))


def double_coset_pairing(beta, alpha):
    """Brute-force oracle: sum q^length over minimal double coset
    representatives of S_beta \\ S_n / S_alpha, as exponent -> count."""
    n = sum(alpha)
    blocks_a = []
    start = 0
    for a in alpha:
        blocks_a.append(tuple(range(start, start + a)))
        start += a
    blocks_b = []
    start = 0
    for b in beta:
        blocks_b.append(tuple(range(start, start + b)))
        start += b

    def subgroup(blocks):
        perms = [tuple(range(n))]
        for block in blocks:
            new = []
            for base in perms:
                for sub in permutations(block):
                    p = list(base)
                    for pos, val in zip(block, sub):
                        p[pos] = base[val]
                    new.append(tuple(p))
            perms = new
        return perms

    sa = subgroup(blocks_a)
    sb = subgroup(blocks_b)

    def inv_count(p):
        return sum(
            1 for i in range(n) for j in range(i + 1, n) if p[i] > p[j]
        )

    seen = set()
    counts = {}
    for sigma in permutations(range(n)):
        if sigma in seen:
            continue
        orbit = set()
        for u in sb:
            for v in sa:
                orbit.add(tuple(u[sigma[v[i]]] for i in range(n)))
        seen |= orbit
        length = min(inv_count(p) for p in orbit)
        counts[length] = counts.get(length, 0) + 1
    return counts


@st.composite
def row_cases(draw):
    """Column margins, per-column limits (the margin, or at most 1 as across
    colors at q = -1) and a row total that may exceed what the limits hold."""
    caps = tuple(draw(st.lists(st.integers(1, 5), max_size=6)))
    limits = tuple(draw(st.sampled_from((c, min(c, 1)))) for c in caps)
    return draw(st.integers(0, sum(caps) + 2)), caps, limits


class TestRowKernel:
    @PROPERTY
    @given(row_cases())
    def test_matches_brute_force(self, case):
        total, caps, limits = case
        want = [
            (m, sum(m[j] * sum(caps[t] - m[t] for t in range(j))
                    for j in range(len(m))))
            for m in product(*(range(limit + 1) for limit in limits))
            if sum(m) == total
        ]
        assert row_fillings(total, caps, limits) == want


class TestGenericPairing:
    def test_reference_values(self):
        assert pair_h_generic((2, 2), (1, 2, 1)) == QPoly((1, 0, 2, 1))
        assert pair_h_generic((3, 1), (2, 2)) == QPoly((1, 0, 1))
        assert pair_h_generic((4,), (4,)) == ONE

    def test_degree_mismatch_is_zero(self):
        assert pair_h_generic((2,), (1, 1, 1)).is_zero()

    def test_symmetric(self):
        for n in range(7):
            comps = compositions_of(n)
            for b in comps:
                for a in comps:
                    assert pair_h_generic(b, a) == pair_h_generic(a, b)

    def test_q1_counts_matrices(self):
        for n in range(7):
            for b in compositions_of(n):
                for a in compositions_of(n):
                    assert pair_h_at(b, a, 1) == len(matrices_with_margins(b, a))

    def test_double_coset_oracle(self):
        for n in range(1, 6):
            for b in compositions_of(n):
                for a in compositions_of(n):
                    want = QPoly.from_exponent_counts(double_coset_pairing(b, a))
                    assert pair_h_generic(b, a) == want, (b, a)

    def test_matrix_route_equals_memoized_route(self):
        from oddsym.combinat import matrix_inv

        for n in range(6):
            for b in compositions_of(n):
                for a in compositions_of(n):
                    counts = {}
                    for m in matrices_with_margins(b, a):
                        e = matrix_inv(m)
                        counts[e] = counts.get(e, 0) + 1
                    assert pair_h_generic(b, a) == QPoly.from_exponent_counts(counts)


class TestAdjointnessGeneric:
    @staticmethod
    def delta_word(word):
        """Free coproduct over ZZ[q]: dict (left, right) -> QPoly."""
        acc = {((), ()): ONE}
        for letter in word:
            new = {}
            for (left, right), c in acc.items():
                deg_right = sum(right)
                for m in range(letter + 1):
                    sign = QPoly((0,) * (deg_right * m) + (1,))
                    lw = left + ((m,) if m else ())
                    rw = right + ((letter - m,) if letter - m else ())
                    key = (lw, rw)
                    new[key] = new.get(key, QPoly()) + c * sign
            acc = new
        return acc

    def test_multiplication_comultiplication_adjoint(self):
        for n in range(7):
            for x in compositions_of(n):
                delta = self.delta_word(x)
                for d1 in range(n + 1):
                    for y1 in compositions_of(d1):
                        for y2 in compositions_of(n - d1):
                            lhs = QPoly()
                            for (w1, w2), c in delta.items():
                                lhs = lhs + c * pair_h_generic(y1, w1) * pair_h_generic(y2, w2)

                            assert lhs == pair_h_generic(y1 + y2, x), (y1, y2, x)


class TestOddPairing:
    def test_reference_mixed_values(self):
        assert pair_words_odd(((2, E), (1, H), (2, H)), ((2, H), (3, E))) == -1
        assert pair_words_odd(((2, E), (2, H)), ((2, E), (2, H))) == -2

    def test_e_norms(self):
        for n in range(1, 9):
            want = -1 if triangular(n - 1) % 2 else 1
            assert pair_words_odd(e_word((n,)), e_word((n,))) == want

    def test_pure_h_equals_specialization(self):
        for n in range(8):
            for b in compositions_of(n):
                for a in compositions_of(n):
                    assert pair_words_odd(h_word(b), h_word(a)) == pair_h_at(b, a, -1)

    def test_eh_characterization(self):
        # (h_alpha, e_n) = 1 iff alpha = (1^n)
        for n in range(1, 9):
            for alpha in compositions_of(n):
                want = 1 if alpha == (1,) * n else 0
                assert pair_words_odd(h_word(alpha), e_word((n,))) == want

    def test_symmetry_on_colored_words(self):
        words = [
            ((2, E), (1, H)),
            ((3, E),),
            ((1, H), (2, E)),
            ((2, H), (1, E)),
            ((1, E), (1, H), (1, E)),
        ]
        for y in words:
            for x in words:
                assert pair_words_odd(y, x) == pair_words_odd(x, y)

    def test_colored_rule_matches_expansion_route(self):
        # the direct colored-matrix rules agree with e-expansion at q = -1
        words = [
            ((2, E), (2, H)),
            ((3, E), (1, H)),
            ((2, E), (1, H), (2, H)),
            ((4, E),),
            ((2, E), (2, E)),
            ((1, H), (3, E)),
        ]
        for y in words:
            for x in words:
                via_generic = pair_words_generic(y, x).evaluate(-1)
                assert pair_words_odd(y, x) == via_generic, (y, x)

    def test_bilinearity_over_dicts(self):
        y = {h_word((2, 1)): 2, h_word((3,)): -1}
        x = {h_word((1, 1, 1)): 1}
        direct = 2 * pair_words_odd(h_word((2, 1)), h_word((1, 1, 1))) - pair_words_odd(
            h_word((3,)), h_word((1, 1, 1))
        )
        assert pair_words_odd(y, x) == direct


class TestEExpansion:
    def test_printed_expansions(self):
        assert e_expansion(1) == {(1,): 1}
        assert e_expansion(0) == {(): 1}
        e4 = e_expansion(4)
        assert len(e4) == 8
        assert e4[(4,)] == -1
        assert e4[(2, 2)] == 1
        assert e4[(1, 1, 1, 1)] == 1

    def test_free_recursion(self):
        # sum_k (-1)^T(k) e_k h_(n-k) = 0 holds identically in the free algebra
        for n in range(1, 9):
            total = {}
            for k in range(n + 1):
                sign = -1 if triangular(k) % 2 else 1
                suffix = (n - k,) if n - k else ()
                for word, c in e_expansion(k).items():
                    key = word + suffix
                    total[key] = total.get(key, 0) + sign * c
            assert all(v == 0 for v in total.values()), n

    def test_expand_colored_word(self):
        terms = expand_colored_word(((2, E), (1, H)))
        assert terms == {(2, 1): 1, (1, 1, 1): -1}


class TestDescentMachinery:
    def test_descent_composition(self):
        assert descent_composition((2, 1, 4, 3)) == (1, 2, 1)
        assert descent_composition((1, 2, 3, 4)) == (4,)
        assert descent_composition((3, 2, 1)) == (1, 1, 1)

    def test_refinements_and_coarsenings(self):
        assert set(coarsenings((1, 2))) == {(1, 2), (3,)}
        for alpha in compositions_of(5):
            assert len(coarsenings(alpha)) == 2 ** (len(alpha) - 1)

    def test_htilde_expansion(self):
        assert htilde_expansion((3, 1)) == {(3, 1): 1, (4,): -1}
        assert htilde_expansion((1, 1)) == {(1, 1): 1, (2,): -1}


class TestHtildePairing:
    def test_reference_value(self):
        assert pair_htilde((3, 1), (2, 2)) == QPoly((0, 0, 1))

    def test_trivial_cases(self):
        for n in range(1, 6):
            assert pair_htilde((n,), (n,)) == ONE
        assert pair_htilde((1, 1), (2,)).is_zero()

    def test_routes_agree_small(self):
        for n in range(1, 6):
            for b in compositions_of(n):
                for a in compositions_of(n):
                    perm = pair_htilde(b, a)
                    incl = pair_htilde_inclusion_exclusion(b, a)
                    assert perm == incl, (b, a)

    def test_degree_bound(self):
        with pytest.raises(ValueError):
            pair_htilde((10,), (10,))

    def test_e_is_htilde_column(self):
        # e_n = (-1)^T(n-1) htilde_(1^n)
        for n in range(1, 7):
            sign = -1 if triangular(n - 1) % 2 else 1
            ht = htilde_expansion((1,) * n)
            assert {w: sign * c for w, c in ht.items()} == e_expansion(n)
