import operator
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oddsym
from oddsym.bases import kostka, kostka_unsigned
from oddsym.combinat import (
    Tableau,
    matrices_with_margins,
    matrix_sign,
    partitions_of,
    shape_sign,
)
from oddsym.rsk import (
    insert_word,
    knuth_neighbors,
    knuth_normalize,
    odd_plactic_reduce,
    odd_rsk_check,
    row_insert,
    rsk,
    rsk_verify_degree,
    sign_theorem_check,
    two_line_array,
)


def test_package_attribute_is_the_module():
    # the rsk function is not re-exported over the module of the same name
    assert isinstance(oddsym.rsk, types.ModuleType)
    assert oddsym.rsk.rsk is rsk


class TestRowInsertion:
    def test_bump(self):
        t, pos = row_insert(Tableau([(1, 2)]), 1)
        assert t.rows == ((1, 1), (2,)) and pos == (1, 0)

    def test_append(self):
        t, pos = row_insert(Tableau([(1, 2)]), 3)
        assert t.rows == ((1, 2, 3),) and pos == (0, 2)

    def test_word_build(self):
        t, _ = insert_word((1, 1, 2, 3))
        assert t.rows == ((1, 1, 2, 3),)

    def test_long_example(self):
        t, _ = insert_word((5, 3, 4, 2, 2, 3, 3, 1, 1, 1, 2))
        assert t.rows == ((1, 1, 1, 2), (2, 2, 3, 3), (3, 4), (5,))

    def test_always_semistandard(self):
        import random

        rng = random.Random(42)
        for _ in range(50):
            word = [rng.randint(1, 5) for _ in range(rng.randint(1, 10))]
            t, _ = insert_word(word)
            assert t.is_semistandard()


def _longest_chain(word, related) -> int:
    """Length of the longest subsequence whose consecutive letters x, y
    satisfy related(x, y)."""
    best: list[int] = []
    for i, y in enumerate(word):
        best.append(1 + max((best[j] for j in range(i) if related(word[j], y)),
                            default=0))
    return max(best, default=0)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(st.lists(st.integers(1, 6), max_size=12))
def test_schensted_theorem(word):
    # first row = longest weakly increasing subsequence, number of rows =
    # longest strictly decreasing subsequence
    shape = insert_word(word)[0].shape
    assert (shape[0] if shape else 0) == _longest_chain(word, operator.le)
    assert len(shape) == _longest_chain(word, operator.gt)


class TestRsk:
    def test_two_line_array(self):
        u, v = two_line_array([[2, 0, 0], [0, 1, 1]])
        assert u == (1, 1, 2, 2)
        assert v == (1, 1, 2, 3)

    def test_negative_entry(self):
        with pytest.raises(ValueError):
            two_line_array([[1, -1]])

    def test_single_cell(self):
        p, q = rsk([[3]])
        assert p.rows == ((1, 1, 1),) and q.rows == ((1, 1, 1),)

    def test_column_matrix_cases(self):
        p, q = rsk([[1, 0], [1, 0], [0, 1]])
        assert (p.rows, q.rows) == (((1, 1, 2),), ((1, 2, 3),))
        p, q = rsk([[1, 0], [0, 1], [1, 0]])
        assert (p.rows, q.rows) == (((1, 1), (2,)), ((1, 2), (3,)))
        p, q = rsk([[0, 1], [1, 0], [1, 0]])
        assert p.rows == ((1, 1), (2,)) and q.rows == ((1, 3), (2,))

    def test_weight_four_cases(self):
        p, q = rsk([[2, 0, 0], [0, 1, 1]])
        assert p.rows == ((1, 1, 2, 3),) and q.rows == ((1, 1, 2, 2),)
        p, q = rsk([[1, 1, 0], [1, 0, 1]])
        assert p.rows == ((1, 1, 3), (2,)) and q.rows == ((1, 1, 2), (2,))
        p, q = rsk([[1, 0, 1], [1, 1, 0]])
        assert p.rows == ((1, 1, 2), (3,)) and q.rows == ((1, 1, 2), (2,))
        p, q = rsk([[0, 1, 1], [2, 0, 0]])
        assert p.rows == ((1, 1), (2, 3)) and q.rows == ((1, 1), (2, 2))

    def test_contents(self):
        for mu in partitions_of(5):
            for rho in partitions_of(5):
                for a in matrices_with_margins(mu, rho):
                    p, q = rsk(a)
                    assert p.shape == q.shape
                    assert p.content(len(rho)) == rho
                    assert q.content(len(mu)) == mu

    def test_bijection_and_count(self):
        # unsigned aggregate: the number of matrices equals the sum of
        # products of plain Kostka numbers
        for n in range(1, 7):
            for mu in partitions_of(n):
                for rho in partitions_of(n):
                    count = len(matrices_with_margins(mu, rho))
                    want = sum(
                        kostka_unsigned(lam, mu) * kostka_unsigned(lam, rho)
                        for lam in partitions_of(n)
                    )
                    assert count == want, (mu, rho)


class TestKnuth:
    def test_one_move(self):
        t, parity = knuth_normalize((2, 3, 1))
        assert t.rows == ((1, 3), (2,)) and parity == 1

    def test_row_word_is_fixed(self):
        t, parity = knuth_normalize((2, 1, 3))
        assert t.rows == ((1, 3), (2,)) and parity == 0

    def test_empty_word_rejected(self):
        with pytest.raises(ValueError):
            knuth_normalize(())

    def test_row_words_of_tableaux_need_no_moves(self):
        from oddsym.combinat import ssyt

        for n in range(1, 7):
            for lam in partitions_of(n):
                for mu in partitions_of(n):
                    for t in ssyt(lam, mu):
                        got, parity = knuth_normalize(t.row_word())
                        assert got == t and parity == 0

    def test_odd_plactic(self):
        assert odd_plactic_reduce((2, 3, 1)) == (-1, (2, 1, 3))
        assert odd_plactic_reduce((2, 1, 3)) == (1, (2, 1, 3))

    def test_neighbors_symmetric(self):
        words = [(2, 3, 1), (1, 2, 1, 3), (3, 1, 2, 2), (1, 1, 2)]
        for w in words:
            for u in knuth_neighbors(w):
                assert w in knuth_neighbors(u), (w, u)

    def test_parity_flips_across_every_move(self):
        # every elementary Knuth move changes the insertion parity, so the
        # parity is independent of the reduction path (any strategy)
        from itertools import product

        parity = {}

        def par(w):
            if w not in parity:
                parity[w] = knuth_normalize(w)[1]
            return parity[w]

        for length in range(2, 9):
            for w in product(range(1, 5), repeat=length):
                for u in knuth_neighbors(w):
                    assert par(u) == 1 - par(w), (w, u)

    def test_moves_preserve_tableau(self):
        from itertools import product

        for w in product(range(1, 4), repeat=5):
            t, _ = knuth_normalize(w)
            for u in knuth_neighbors(w):
                t2, _ = knuth_normalize(u)
                assert t2 == t


class TestOddRskTheorem:
    def test_reference_margin_classes(self):
        r = odd_rsk_check((1, 1, 1), (2, 1))
        assert r["ok"]
        assert sorted(e["sign_A"] for e in r["matrices"]) == [-1, 1, 1]
        r = odd_rsk_check((2, 2), (2, 1, 1))
        assert r["ok"]
        assert sorted(e["sign_A"] for e in r["matrices"]) == [-1, 1, 1, 1]

    def test_trivial_class(self):
        for n in range(1, 6):
            r = odd_rsk_check((n,), (n,))
            assert r["ok"] and len(r["matrices"]) == 1
            assert r["matrices"][0]["sign_A"] == 1

    @pytest.mark.parametrize("n", range(1, 6))
    def test_exhaustive_by_degree(self, n):
        assert rsk_verify_degree(n)["ok"]
        assert sign_theorem_check(n) == []

    def test_kostka_identity_matches_kostka(self):
        # the identity reads the memoized Kostka table; kostka() enumerates
        # the tableaux afresh
        for mu in partitions_of(4):
            for rho in partitions_of(4):
                want = sum(shape_sign(lam) * kostka(lam, mu) * kostka(lam, rho)
                           for lam in partitions_of(4))
                assert odd_rsk_check(mu, rho)["kostka_identity"] == want

    def test_colliding_images_are_not_bijective(self, monkeypatch):
        # one matrix of the class gets the image of another with the same
        # shape and sign: every record stays valid and the signed sum is
        # unchanged, so only the count of distinct images catches it
        mu = rho = (2, 1, 1)
        groups = {}
        for a in matrices_with_margins(mu, rho):
            groups.setdefault((rsk(a).insertion.shape, matrix_sign(a)), []).append(a)
        first, second = next(g for g in groups.values() if len(g) > 1)[:2]
        # this module's rsk stays the real one
        monkeypatch.setattr(oddsym.rsk, "rsk",
                            lambda a: rsk(first if a == second else a))
        r = odd_rsk_check(mu, rho)
        assert all(e["ok"] for e in r["matrices"])
        assert r["aggregate_sign_count"] == r["hh_entry"] == r["kostka_identity"]
        assert not r["bijective"] and not r["ok"]

    def test_missing_matrix_is_not_bijective(self, monkeypatch):
        monkeypatch.setattr(oddsym.rsk, "matrices_with_margins",
                            lambda mu, rho: matrices_with_margins(mu, rho)[1:])
        r = odd_rsk_check((2, 1, 1), (2, 1, 1))
        assert all(e["ok"] for e in r["matrices"])
        assert not r["bijective"] and not r["ok"]

    def test_report_schema(self):
        r = odd_rsk_check((2, 1), (2, 1))
        for entry in r["matrices"]:
            assert set(entry) == {
                "matrix", "P", "Q", "sign_A", "sign_P", "sign_Q", "shape_sign", "ok",
            }
