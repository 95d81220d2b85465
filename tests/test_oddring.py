import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddsym import form, oddring
from oddsym.bases import monomial, schur
from oddsym.cli import main
from oddsym.combinat import compositions_of, partitions_of, transpose
from oddsym.form import E, H, e_word, h_word, pair_h_generic
from oddsym.hopf import antipode, sign_twist
from oddsym.oddring import (
    OddElt,
    coproduct,
    e_coordinates,
    e_elt,
    h_elt,
    linear_combination,
    normalize,
    normalize_via_gram,
    pair,
    pair_tensor,
    semiorthogonality_check,
)
from oddsym.polyq import det_exact

from oracles import e_elt_by_letters, expand_colored_word, tensor_square_product

# Seeded property runs: the same examples every run, no example database.
PROPERTY = settings(max_examples=60, derandomize=True, deadline=None, database=None)


def elements(degrees):
    """Integer combinations of at most five h_lam with lam of the given
    degrees."""
    parts = [lam for n in degrees for lam in partitions_of(n)]
    return st.dictionaries(
        st.sampled_from(parts), st.integers(-3, 3), max_size=5
    ).map(OddElt)


def pair_by_generic_route(x: OddElt, y: OddElt) -> int:
    """(x, y) from the generic h-pairing of form, evaluated at q = -1."""
    return sum(cx * cy * pair_h_generic(p, mu).evaluate(-1)
               for p, cx in x.terms.items() for mu, cy in y.terms.items())


def coproduct_in_slot(delta: dict, slot: int) -> dict:
    """(Delta (x) 1) of a tensor for slot 0, (1 (x) Delta) for slot 1."""
    out = {}
    for pair_, c in delta.items():
        for (a, b), c2 in coproduct(OddElt({pair_[slot]: 1})).items():
            key = pair_[:slot] + (a, b) + pair_[slot + 1:]
            out[key] = out.get(key, 0) + c * c2
    return {k: v for k, v in out.items() if v}



def bialgebra_mismatches(n: int):
    """The ordered pairs (lam, mu) with |lam|, |mu| >= 1 and |lam| + |mu| <= n
    where Delta(h_lam h_mu) differs from Delta(h_lam) Delta(h_mu) in the
    tensor square, and the number of pairs."""
    parts = [lam for d in range(1, n) for lam in partitions_of(d)]
    pairs = [(lam, mu) for lam in parts for mu in parts if sum(lam) + sum(mu) <= n]
    bad = [(lam, mu) for lam, mu in pairs
           if coproduct(h_elt(lam) * h_elt(mu))
           != tensor_square_product(coproduct(h_elt(lam)), coproduct(h_elt(mu)))]
    return bad, len(pairs)

class TestStraightening:
    def test_lemma_examples(self):
        assert h_elt((1, 2)) == OddElt({(3,): 2, (2, 1): -1})
        assert h_elt((1, 4)) == OddElt({(5,): 2, (4, 1): -1})
        assert h_elt((2, 1)) == OddElt({(2, 1): 1})

    def test_sorted_words_fixed(self):
        for n in range(8):
            for lam in partitions_of(n):
                assert h_elt(lam) == OddElt({lam: 1})

    def test_even_pairs_commute(self):
        for a in range(1, 6):
            for b in range(1, 6):
                if (a + b) % 2 == 0:
                    assert h_elt((a, b)) == h_elt((b, a))

    def test_e_expansions_normalize_to_printed_lists(self):
        assert e_elt((2,)) == OddElt({(2,): 1, (1, 1): -1})
        assert e_elt((3,)) == OddElt({(3,): 1, (1, 1, 1): -1})
        assert e_elt((4,)) == OddElt(
            {(4,): -1, (2, 2): 1, (2, 1, 1): -1, (1, 1, 1, 1): 1}
        )
        assert e_elt((5,)) == OddElt(
            {(5,): 1, (4, 1): -2, (3, 1, 1): -1, (2, 2, 1): 1, (1, 1, 1, 1, 1): 1}
        )

    def test_invalid_letters_rejected(self):
        with pytest.raises(ValueError):
            h_elt((0, 2))


class TestGramRoute:
    def test_small_examples(self):
        assert normalize_via_gram({h_word((1, 2)): 1}) == OddElt({(3,): 2, (2, 1): -1})
        assert normalize_via_gram({e_word((4,)): 1}) == e_elt((4,))
        assert normalize_via_gram({}) == OddElt.zero()

    def test_two_routes_words_up_to_degree_6(self):
        for n in range(7):
            for word in compositions_of(n):
                assert h_elt(word) == normalize_via_gram({h_word(word): 1}), word

    def test_two_routes_on_longer_random_words(self):
        import random

        rng = random.Random(6021)
        for _ in range(40):
            length = rng.randint(5, 8)
            word = []
            left = 8
            for _ in range(length):
                if left < 1:
                    break
                part = rng.randint(1, max(1, left - (length - len(word) - 1)))
                word.append(part)
                left -= part
            word = tuple(word)
            assert h_elt(word) == normalize_via_gram({h_word(word): 1}), word

    def test_gram_route_on_colored_words(self):
        words = [((2, E), (1, H)), ((3, E), (2, E)), ((1, H), (2, E), (1, H))]
        for w in words:
            expanded = {}
            for hw, c in expand_colored_word(w).items():
                expanded[hw] = expanded.get(hw, 0) + c
            assert normalize_via_gram({w: 1}) == normalize(expanded)


class TestConstructor:
    @pytest.mark.parametrize("key", [(1, 2), (0,), (2, 0)])
    def test_rejects_a_key_that_is_not_a_partition(self, key):
        with pytest.raises(ValueError, match="not a partition"):
            OddElt({key: 1})

    @PROPERTY
    @given(
        elements(range(4)),
        elements(range(4)),
        st.integers(-3, 3),
        st.lists(st.integers(1, 4), max_size=4).map(tuple),
        st.sampled_from([lam for n in range(1, 6) for lam in partitions_of(n)]),
    )
    def test_results_pass_the_public_check(self, x, y, k, word, lam):
        # Results skip the partition check of OddElt(...); rebuilding each one
        # through it shows that no key it would reject gets in.
        results = [
            x * y, x + y, x - y, x.scale(k),
            linear_combination(((k, x), (1, y))),
            h_elt(word), normalize({word: k, lam: 1}), e_elt(word),
            antipode(x), sign_twist(x), monomial(lam), schur(lam),
        ]
        for r in results:
            assert OddElt(r.terms) == r


class TestRingStructure:
    def test_multiplication_examples(self):
        assert h_elt((2,)) * h_elt((2,)) == h_elt((2, 2))
        assert h_elt((1,)) * h_elt((2,)) == OddElt({(3,): 2, (2, 1): -1})

    def test_associativity_on_generators(self):
        for a in range(1, 8):
            for b in range(1, 8 - a):
                for c in range(1, 10 - a - b):
                    x, y, z = h_elt((a,)), h_elt((b,)), h_elt((c,))
                    assert (x * y) * z == x * (y * z), (a, b, c)

    @PROPERTY
    @given(elements(range(4)), elements(range(4)), elements(range(4)))
    def test_associativity(self, x, y, z):
        assert (x * y) * z == x * (y * z)

    def test_defining_relations_h(self):
        # even sums commute; odd sums satisfy the four-term relation
        for a in range(1, 10):
            for b in range(1, 11 - a):
                ha, hb = h_elt((a,)), h_elt((b,))
                if (a + b) % 2 == 0:
                    assert ha * hb == hb * ha
                else:
                    sign = -1 if a % 2 else 1
                    hb1 = h_elt((b - 1,)) if b > 1 else OddElt.one()
                    lhs = ha * hb + (hb * ha).scale(sign)
                    rhs = (h_elt((a + 1,)) * hb1).scale(sign) + hb1 * h_elt((a + 1,))
                    assert lhs == rhs, (a, b)

    def test_defining_relations_e(self):
        for a in range(1, 10):
            for b in range(1, 11 - a):
                ea, eb = e_elt((a,)), e_elt((b,))
                if (a + b) % 2 == 0:
                    assert ea * eb == eb * ea
                else:
                    sign = -1 if a % 2 else 1
                    lhs = ea * eb + (eb * ea).scale(sign)
                    rhs = (e_elt((a + 1,)) * e_elt((b - 1,))).scale(sign)
                    rhs = rhs + e_elt((b - 1,)) * e_elt((a + 1,))
                    assert lhs == rhs, (a, b)

    def test_defining_relations_mixed(self):
        for a in range(1, 10):
            for b in range(1, 11 - a):
                ha, eb = h_elt((a,)), e_elt((b,))
                if (a + b) % 2 == 0:
                    assert ha * eb == eb * ha
                else:
                    sign = -1 if a % 2 else 1
                    lhs = ha * eb + (eb * ha).scale(sign)
                    rhs = (h_elt((a + 1,)) * e_elt((b - 1,))).scale(sign)
                    rhs = rhs + e_elt((b - 1,)) * h_elt((a + 1,))
                    assert lhs == rhs, (a, b)

    def test_dimension_is_partition_count(self):
        from oddsym.gramdet import radical_rank

        for n in range(9):
            assert radical_rank(n, -1) == len(partitions_of(n))

    @PROPERTY
    @given(st.lists(st.tuples(st.integers(-3, 3), elements(range(5))), max_size=6))
    def test_linear_combination_matches_repeated_addition(self, pairs):
        total = OddElt.zero()
        for k, x in pairs:
            total = total + x.scale(k)
        got = linear_combination(pairs)
        assert got == total
        for lam in {lam for _, x in pairs for lam in x.terms}:
            want = sum(k * x.coefficient(lam) for k, x in pairs)
            assert got.coefficient(lam) == want

    def test_scalar_operations(self):
        x = h_elt((2, 1))
        assert x.scale(3) - x == x.scale(2)
        assert x.scale(-1) + x == OddElt.zero()
        assert bool(OddElt.zero()) is False

    def test_operands_are_elements_only(self):
        # integers act through scale; an element never equals an integer
        x = h_elt((2, 1))
        assert OddElt.zero() != 0 and OddElt.one() != 1
        for op in (lambda: 2 * x, lambda: -x, lambda: hash(x)):
            with pytest.raises(TypeError):
                op()


class TestPairing:
    def test_table_values(self):
        assert pair(h_elt((2, 2)), h_elt((2, 2))) == 1
        assert pair(h_elt((1, 1, 1, 1)), h_elt((2, 2))) == 2
        assert pair(h_elt((2, 2, 1)), h_elt((2, 2, 1))) == -3

    def test_symmetry(self):
        for n in range(7):
            for lam in partitions_of(n):
                for mu in partitions_of(n):
                    assert pair(h_elt(lam), h_elt(mu)) == pair(h_elt(mu), h_elt(lam))

    @PROPERTY
    @given(st.data())
    def test_matches_generic_route(self, data):
        # pair reads the colored q = -1 rule; the generic h-pairing of form,
        # evaluated at q = -1, is an independent route
        n, m = data.draw(st.integers(0, 7)), data.draw(st.integers(0, 7))
        x, y = data.draw(elements((n, m))), data.draw(elements((n,)))
        assert pair(x, y) == pair_by_generic_route(x, y)

    @PROPERTY
    @given(st.data())
    def test_pair_tensor_matches_generic_route(self, data):
        n = data.draw(st.integers(0, 6))
        d1 = data.draw(st.integers(0, n))
        z = data.draw(elements((n,)))
        y1, y2 = data.draw(elements((d1,))), data.draw(elements((n - d1,)))
        want = sum(
            c * pair_by_generic_route(OddElt({p1: 1}), y1)
            * pair_by_generic_route(OddElt({p2: 1}), y2)
            for (p1, p2), c in coproduct(z).items()
        )
        assert pair_tensor(coproduct(z), y1, y2) == want

    def test_restricted_gram_unimodular(self):
        # the form restricted to span{h_mu : mu >= lam} has determinant +-1,
        # and likewise for span{e_mu : mu > lam^T}
        from oddsym.bases import basis_matrix

        for n in range(1, 7):
            parts = partitions_of(n)
            _, hh = basis_matrix("hh", n)
            _, ee = basis_matrix("ee", n)
            for lam in parts:
                hi = [i for i, mu in enumerate(parts) if mu >= lam]
                sub = [[hh[i][j] for j in hi] for i in hi]
                assert det_exact(sub) in (1, -1), ("h", lam)
                lt = transpose(lam)
                ei = [i for i, mu in enumerate(parts) if mu > lt]
                if ei:
                    sub = [[ee[i][j] for j in ei] for i in ei]
                    assert det_exact(sub) in (1, -1), ("e", lam)


class TestCoproduct:
    def test_examples(self):
        assert coproduct(h_elt((2,))) == {
            ((), (2,)): 1,
            ((1,), (1,)): 1,
            ((2,), ()): 1,
        }
        # middle terms cancel at q = -1
        assert coproduct(h_elt((1, 1))) == {((), (1, 1)): 1, ((1, 1), ()): 1}

    def test_e_coproduct(self):
        # Delta(e_n) = sum e_k (x) e_(n-k)
        for n in range(1, 7):
            want = {}
            for k in range(n + 1):
                for p1, c1 in e_elt((k,) if k else ()).terms.items():
                    for p2, c2 in e_elt((n - k,) if n - k else ()).terms.items():
                        key = (p1, p2)
                        want[key] = want.get(key, 0) + c1 * c2
            got = coproduct(e_elt((n,)))
            assert got == {k: v for k, v in want.items() if v}, n

    def test_coassociativity(self):
        for n in range(6):
            for lam in partitions_of(n):
                delta = coproduct(h_elt(lam))
                assert coproduct_in_slot(delta, 0) == coproduct_in_slot(delta, 1), lam

    def test_bialgebra_axiom(self):
        # Delta is a ring map into the braided tensor square: what makes the
        # quotient a Hopf superalgebra
        assert bialgebra_mismatches(8) == ([], 301)

    def test_bialgebra_axiom_names_a_flipped_sign_in_the_h1_relation(self, monkeypatch):
        # h_1 h_m = 2 h_(m+1) + h_m h_1 for even m, instead of - h_m h_1
        true_expansion = oddring._ascent_expansion

        def flipped(a, b):
            if a == 1 and b % 2 == 0:
                return ((2, (b + 1,)), (1, (b, 1)))
            return true_expansion(a, b)

        caches = (oddring.normalize_word, oddring._coproduct_word)
        monkeypatch.setattr(oddring, "_ascent_expansion", flipped)
        for memo in caches:
            memo.cache_clear()
        try:
            bad, count = bialgebra_mismatches(8)
        finally:
            monkeypatch.undo()
            for memo in caches:
                memo.cache_clear()
        assert (len(bad), count) == (150, 301)

    @PROPERTY
    @given(elements(range(7)))
    def test_coassociativity_on_random_elements(self, x):
        delta = coproduct(x)
        assert coproduct_in_slot(delta, 0) == coproduct_in_slot(delta, 1)

    @PROPERTY
    @given(elements(range(6)))
    def test_antipode_axiom(self, x):
        # m(S (x) 1) Delta x = counit(x) 1, the counit reading off the h_() term
        got = linear_combination(
            (c, antipode(OddElt({p1: 1})) * OddElt({p2: 1}))
            for (p1, p2), c in coproduct(x).items()
        )
        assert got == OddElt.one().scale(x.coefficient(()))

    def test_adjointness_small(self):
        for lam in partitions_of(4):
            x = h_elt(lam)
            delta = coproduct(x)
            for d1 in range(5):
                for y1p in partitions_of(d1):
                    for y2p in partitions_of(4 - d1):
                        y1, y2 = h_elt(y1p), h_elt(y2p)
                        assert pair_tensor(delta, y1, y2) == pair(y1 * y2, x)


class TestEBasis:
    def test_examples(self):
        assert e_coordinates(e_elt((4,))) == {(4,): 1}
        assert e_coordinates(h_elt((1,))) == {(1,): 1}
        # h_2 = e_2 + e_11 (inverting e_2 = h_2 - h_11)
        assert e_coordinates(h_elt((2,))) == {(2,): 1, (1, 1): 1}

    def test_round_trip(self):
        for n in range(7):
            for lam in partitions_of(n):
                x = h_elt(lam)
                coords = e_coordinates(x)
                assert linear_combination((c, e_elt(mu)) for mu, c in coords.items()) == x
                y = e_elt(lam)
                assert e_coordinates(y) == {lam: 1} if lam else {(): 1}

    def test_memo_equals_the_product_of_letters(self):
        # from a cold memo, each word and its reverse, term for term and in
        # the same order, over the 128 compositions of degree <= 7
        oddring._e_elt.cache_clear()
        for n in range(8):
            for word in compositions_of(n):
                for w in (word, word[::-1]):
                    assert list(e_elt(w).terms.items()) == \
                        list(e_elt_by_letters(w).terms.items()), w

    def test_a_list_of_parts_is_read_as_its_tuple(self):
        assert e_elt([2, 1, 2]) == e_elt((2, 1, 2)) == e_elt_by_letters([2, 1, 2])
        assert e_elt([]) == OddElt.one()

    def test_mixed_degrees(self):
        # each term reads the table of its own degree
        x = h_elt((2, 1)) + h_elt((3, 1)).scale(2) + OddElt.one() - e_elt((2, 2)).scale(3)
        assert e_coordinates(x) == {(): 1, (1, 1, 1): 1, (1, 1, 1, 1): 2, (2, 1): 1,
                                    (2, 2): -3, (3, 1): 2}


class TestSemiOrthogonality:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_check_passes(self, n):
        failures = semiorthogonality_check(n)
        assert not failures, failures[:3]

    def test_check_names_a_wrong_pairing(self, monkeypatch, capsys):
        # (h_21, e_21) negated and (h_21, e_3) made 1: one diagonal and one
        # vanishing witness in degree 3, and nothing else
        true_pair = form.pair_words_odd

        def wrong_pair(y, x):
            value = true_pair(y, x)
            if y == h_word((2, 1)) and x == e_word((2, 1)):
                return -value
            return 1 if y == h_word((2, 1)) and x == e_word((3,)) else value

        monkeypatch.setattr(form, "pair_words_odd", wrong_pair)
        want = [{"lambda": (2, 1), "kind": "diagonal", "got": 1, "want": -1},
                {"lambda": (2, 1), "alpha": (3,), "kind": "vanishing", "he": 1, "eh": 0}]
        assert semiorthogonality_check(3) == want
        assert main(["verify", "--suite", "semiorth", "--max-degree", "3",
                     "--format", "json"]) == 1
        failures = json.loads(capsys.readouterr().out)["failures"]
        assert failures == [{"check": "semiorth deg 3", "witness": json.loads(json.dumps(want))}]

    def test_diagonal_values(self):
        from oddsym.form import pair_words_odd

        assert pair_words_odd(h_word((2, 2)), e_word((2, 2))) == -1
        assert pair_words_odd(h_word((1, 1, 1)), e_word((3,))) == 1
        assert pair_words_odd(h_word((2, 1)), e_word((3,))) == 0
