"""Bilinear-form tests, including the independent double-coset oracle."""

import random
import sys
from itertools import permutations, product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oddsym import form
from oddsym.combinat import (
    compositions_of,
    matrices_with_margins,
    partitions_of,
    row_fillings,
    sw_ne_pairs,
    transpose,
    triangular,
)
from oddsym.form import (
    E,
    H,
    descent_composition,
    coarsenings,
    e_expansion,
    e_word,
    h_word,
    htilde_expansion,
    pair_h_at,
    pair_h_generic,
    pair_htilde,
    pair_words_generic,
    pair_words_odd,
    word_degree,
)
from oddsym.polyq import QPoly

from oracles import (
    expand_colored_word,
    pair_colored_direct,
    pair_htilde_inclusion_exclusion,
    pair_words_by_expansion,
)
from test_cli import random_composition
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

    @pytest.mark.parametrize(
        "beta, alpha", [((1,), (-1,)), ((-2,), (-2,)), ((-1, 2), (3,)), ((2,), (1, -1))]
    )
    def test_negative_parts_raise(self, beta, alpha):
        # a negative part would be read as an e-letter without its column factor
        with pytest.raises(ValueError):
            pair_h_generic(beta, alpha)
        for q in (2, -1):
            with pytest.raises(ValueError):
                pair_h_at(beta, alpha, q)

    @pytest.mark.parametrize("q", [2.5, 2.0, True, "2"])
    def test_q_that_is_not_an_int_raises(self, q):
        with pytest.raises(ValueError, match="q must be an integer"):
            pair_h_at((1, 1), (1, 1), q)

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


def colored_words(n: int):
    """Every colored word of degree n, 2 * 3^(n-1) of them for n >= 1."""
    for parts in compositions_of(n):
        for colors in product((H, E), repeat=len(parts)):
            yield tuple(zip(parts, colors))


def transposition_mismatches(n: int) -> tuple[list, int]:
    """The ordered pairs (y, x) of signed words of degree n where
    pair_words_odd(y, x), whose memo keeps one orientation of each state,
    differs from the recursion that keeps both, or where that recursion
    differs from its transpose: (y, x) != (x, y); and the number of pairs.
    A part 1 has no color (e_1 = h_1), so its h-letter stands for both."""
    words = [(w, form._signed(w)) for w in colored_words(n)
             if all(c == H or p > 1 for p, c in w)]
    bad = []
    for y, sy in words:
        for x, sx in words:
            direct = pair_colored_direct(sy, sx)
            if pair_words_odd(y, x) != direct or direct != pair_colored_direct(sx, sy):
                bad.append((y, x))
    return bad, len(words) ** 2


def e_row_mismatches(n: int) -> tuple[list, int]:
    """The pairs (y, a) of degree n, y a colored word with an e-letter and a
    a composition, where pair_words_generic in either argument order differs
    from the oracle that expands every e-letter; and the number of pairs."""
    comps = compositions_of(n)
    bad, count = [], 0
    for y in colored_words(n):
        if all(c == H for _, c in y):
            continue
        for a in comps:
            x = h_word(a)
            want = pair_words_by_expansion(y, x)
            count += 1
            if pair_words_generic(y, x) != want or pair_words_generic(x, y) != want:
                bad.append((y, a))
    return bad, count


def colored_mismatches(n: int) -> tuple[list, int]:
    """The pairs (y, x) of colored words of degree n where
    pair_words_generic differs from the oracle that expands every e-letter,
    or pair_words_odd from the oracle's value at q = -1; and the number of
    pairs."""
    words = list(colored_words(n))
    bad = []
    for y in words:
        for x in words:
            want = pair_words_by_expansion(y, x)
            if pair_words_generic(y, x) != want or pair_words_odd(y, x) != want.evaluate(-1):
                bad.append((y, x))
    return bad, len(words) ** 2


def semiorthogonality_mismatches(n: int) -> tuple[list, int, int]:
    """The pairs (y, x) of degree n where the generic form breaks
    semi-orthogonality, with the number of diagonal pairs and of the (lam,
    alpha) that vanish:
    (h_lam, e_lam^T) = (e_lam^T, h_lam) = (-1)^t q^(t + sw_ne(lam)), with
    t = sum_j T(lam^T_j - 1), and (h_lam, e_alpha) = (e_lam, h_alpha) = 0 for
    every composition alpha > lam^T.  The only 0/1 matrix with margins lam
    and lam^T is the Ferrers matrix (Gale-Ryser), so each diagonal value is
    one signed monomial; the e-letters meet no e-letter, so the pairs test
    the e-row and e-column factors and the limit of 1 across colors."""
    bad, diagonal, vanishing = [], 0, 0
    for lam in partitions_of(n):
        lt = transpose(lam)
        t = sum(triangular(m - 1) for m in lt)
        want = QPoly((0,) * (t + sw_ne_pairs(lam)) + ((-1) ** t,))
        for y, x in ((h_word(lam), e_word(lt)), (e_word(lt), h_word(lam))):
            diagonal += 1
            if pair_words_generic(y, x) != want:
                bad.append((y, x))
        for alpha in compositions_of(n):
            if alpha > lt:
                vanishing += 1
                for y, x in ((h_word(lam), e_word(alpha)), (e_word(lam), h_word(alpha))):
                    if not pair_words_generic(y, x).is_zero():
                        bad.append((y, x))
    return bad, diagonal, vanishing


class TestColoredGenericPairing:
    """pair_words_generic (e-letters as rows and as columns of one memoized
    margin recursion) against the route that expands every e-letter of both
    sides."""

    def test_e_rows_match_expansion_oracle(self):
        # every colored word with an e-letter against every h-word up to
        # degree 5; a CI step runs degree 7
        counts = []
        for n in range(1, 6):
            bad, count = e_row_mismatches(n)
            assert not bad, bad[:5]
            counts.append(count)
        assert counts == [1, 8, 56, 368, 2336]

    def test_every_colored_pair_matches_expansion_oracle(self):
        # every ordered pair of colored words up to degree 4, at generic q and
        # at q = -1; a CI step runs degree 6
        counts = []
        for n in range(5):
            bad, count = colored_mismatches(n)
            assert not bad, bad[:5]
            counts.append(count)
        assert counts == [1, 4, 36, 324, 2916]

    def test_matches_double_expansion(self):
        # long e-letters, which random compositions seldom draw
        pairs = [
            (((5, E), (2, H), (1, E)), ((1, H), (2, H), (5, E))),
            (e_word((5, 1, 1)), e_word((2, 5))),
            (e_word((6, 1)), e_word((2, 5))),
            (((2, H), (5, E), (1, H)), e_word((1, 6, 1))),
        ]
        rng = random.Random(20110728)
        for colors in [(E,)] * 15 + [(E, H)] * 25:
            n = rng.randint(1, 8)
            y, x = (
                tuple((p, rng.choice(colors)) for p in random_composition(rng, n))
                for _ in range(2)
            )
            pairs.append((y, x))
        for y, x in pairs:
            want = pair_words_by_expansion(y, x)
            # either argument order: each word's e-letters as rows and as columns
            assert pair_words_generic(y, x) == want, (y, x)
            assert pair_words_generic(x, y) == want, (x, y)

    def test_h_words_match_pair_h_generic(self):
        for n in range(6):
            for b in compositions_of(n):
                for a in compositions_of(n):
                    assert pair_words_generic(h_word(b), h_word(a)) == pair_h_generic(b, a)

    def test_empty_words_and_degree_mismatch(self):
        assert pair_words_generic((), ()) == ONE
        assert pair_words_odd((), ()) == 1
        # every ordered pair of colored words of unequal degrees up to 4
        words = [w for n in range(5) for w in colored_words(n)]
        count = 0
        for y in words:
            for x in words:
                if word_degree(y) != word_degree(x):
                    count += 1
                    assert pair_words_generic(y, x).is_zero(), (y, x)
                    assert pair_words_odd(y, x) == 0, (y, x)
                    assert pair_words_by_expansion(y, x).is_zero(), (y, x)
        assert count == 3280

    def test_semiorthogonality_at_generic_q(self):
        # every partition of degree 1..8; a CI step runs degree 10
        diagonal = vanishing = 0
        for n in range(1, 9):
            bad, d, v = semiorthogonality_mismatches(n)
            assert not bad, bad[:5]
            diagonal, vanishing = diagonal + d, vanishing + v
        assert (diagonal, vanishing) == (132, 854)

    @pytest.mark.parametrize("pair_words", [pair_words_odd, pair_words_generic])
    @pytest.mark.parametrize("letter", [(-2, H), (2, "x")])
    def test_malformed_letter_rejected(self, pair_words, letter):
        # (-2, h) has the degree of e_2, so only the letter check rejects it
        for y, x in (((letter,), ((2, E),)), (((2, E),), (letter,))):
            with pytest.raises(ValueError, match="not a colored letter"):
                pair_words(y, x)


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
                    want = pair_h_generic(b, a).evaluate(-1)
                    assert pair_words_odd(h_word(b), h_word(a)) == want

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


class TestTransposedKey:
    def test_matches_the_direct_recursion_and_is_symmetric(self):
        # every ordered pair of signed words of degree <= 6; the degree-7
        # sweep (57,121 pairs) is a CI step
        counts = []
        for n in range(7):
            bad, count = transposition_mismatches(n)
            assert not bad, bad[:5]
            counts.append(count)
        assert counts == [1, 1, 9, 49, 289, 1681, 9801]

    def test_the_transposed_pair_adds_no_memo_entry(self):
        y, x = ((2, E), (1, H), (2, H)), ((2, H), (3, E))
        form._pair_colored.cache_clear()
        first = pair_words_odd(y, x), pair_h_at((3, 2), (2, 3), -1)
        misses = form._pair_colored.cache_info().misses
        assert (pair_words_odd(x, y), pair_h_at((2, 3), (3, 2), -1)) == first == (-1, 3)
        assert form._pair_colored.cache_info().misses == misses


class TestPairHAtMinusOne:
    def test_matches_generic_route(self):
        # every composition pair of degree <= 6, unequal degrees included
        comps = [a for n in range(7) for a in compositions_of(n)]
        for b in comps:
            for a in comps:
                assert pair_h_at(b, a, -1) == pair_h_generic(b, a).evaluate(-1), (b, a)

    def test_unequal_degrees_enter_no_recursion(self):
        misses = form._pair_colored.cache_info().misses
        assert pair_h_at((3,) * 5, (2,) * 8, -1) == 0
        assert form._pair_colored.cache_info().misses == misses

    def test_library_reads_no_generic_value_at_minus_one(self):
        # from cold caches, the q = -1 Gram tables, the quotient pairing and
        # an RSK margin class all pair through the colored rule alone
        from oddsym.gramdet import gram_matrix
        from oddsym.oddring import gram_h_inverse, h_elt, pair
        from oddsym.rsk import odd_rsk_check

        for name, module in list(sys.modules.items()):
            if name.startswith("oddsym."):
                for f in vars(module).values():
                    if hasattr(f, "cache_clear"):
                        f.cache_clear()
        gram_matrix(5, q=-1)
        gram_h_inverse(5)
        assert pair(h_elt((2, 1)), h_elt((1, 1, 1))) == pair_h_at((2, 1), (1, 1, 1), -1)
        assert odd_rsk_check((3, 2), (2, 2, 1))["ok"]
        assert form._pair_colored.cache_info().currsize > 0
        assert form._pair_h.cache_info().currsize == 0


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

    @pytest.mark.parametrize("n", range(10))
    def test_coarsenings_are_the_coarser_compositions(self, n):
        # beta is coarser than alpha iff its partial sums are among alpha's
        def cuts(c):
            return {sum(c[:i]) for i in range(len(c) + 1)}

        for alpha in compositions_of(n):
            got = coarsenings(alpha)
            assert len(got) == len(set(got)), alpha
            assert set(got) == {beta for beta in compositions_of(n)
                                if cuts(beta) <= cuts(alpha)}, alpha

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
