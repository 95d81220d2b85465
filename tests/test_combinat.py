from itertools import combinations, permutations, product

import pytest

from oddsym.combinat import (
    Tableau,
    compositions_of,
    dominates,
    inversions,
    matrices_with_margins,
    matrix_inv,
    matrix_sign,
    partitions_of,
    reverse_sort_sign,
    shape_sign,
    ssyt,
    superstandard,
    sw_ne_pairs,
    transpose,
    triangular,
    triangular_sum,
    word_sign,
)

from oracles import cable_sign, semistandard_by_definition


def partition_count(n, max_part=None):
    """Independent recursive counter used as the enumeration oracle."""
    if max_part is None:
        max_part = n
    if n == 0:
        return 1
    if max_part == 0:
        return 0
    return sum(partition_count(n - k, k) for k in range(1, min(n, max_part) + 1))


def brute_sw_ne(lam):
    """Direct enumeration over box pairs of the Young diagram."""
    boxes = [(i, j) for i, row in enumerate(lam) for j in range(row)]
    return sum(
        1
        for (i, j) in boxes
        for (k, l) in boxes
        if k > i and l < j
    )


class TestPartitions:
    def test_transpose_examples(self):
        assert transpose((4, 4, 2, 1)) == (4, 3, 2, 2)
        assert transpose(()) == ()
        for n in range(1, 7):
            assert transpose((n,)) == (1,) * n

    def test_transpose_involution(self):
        for n in range(11):
            for lam in partitions_of(n):
                assert transpose(transpose(lam)) == lam

    def test_enumeration_counts_against_recursion(self):
        for n in range(11):
            assert len(partitions_of(n)) == partition_count(n)
            assert len(compositions_of(n)) == (1 if n == 0 else 2 ** (n - 1))

    def test_enumeration_sorted_and_unique(self):
        for n in range(9):
            parts = partitions_of(n)
            assert list(parts) == sorted(set(parts))
            comps = compositions_of(n)
            assert list(comps) == sorted(set(comps))

    def test_dominance_refined_by_lex(self):
        for n in range(8):
            for lam in partitions_of(n):
                for mu in partitions_of(n):
                    if dominates(lam, mu):
                        assert lam >= mu

    def test_dominance_incomparable_pairs(self):
        assert not dominates((3, 1, 1, 1), (2, 2, 2))
        assert not dominates((2, 2, 2), (3, 1, 1, 1))
        assert dominates((4, 2), (3, 3))


class TestSigns:
    def test_triangular(self):
        assert triangular(2) == 3
        assert triangular(0) == 0
        assert triangular_sum((2, 1)) == 4

    def test_triangular_addition_rule(self):
        for k in range(10):
            for l in range(10):
                assert triangular(k + l) == triangular(k) + triangular(l) + k * l

    def test_sw_ne_values(self):
        # per-box northeast labels for (4,4,2,1) sum to 23; the value 22
        # sometimes quoted for this diagram is an addition slip
        assert sw_ne_pairs((4, 4, 2, 1)) == 23
        assert sw_ne_pairs((1,)) == 0
        assert sw_ne_pairs((2, 1)) == 1
        assert sw_ne_pairs((2, 2)) == 1
        assert sw_ne_pairs((1, 1)) == 0

    def test_sw_ne_against_brute_force(self):
        for n in range(10):
            for lam in partitions_of(n):
                assert sw_ne_pairs(lam) == brute_sw_ne(lam)

    def test_sw_ne_transpose_symmetric(self):
        for n in range(10):
            for lam in partitions_of(n):
                assert sw_ne_pairs(lam) == sw_ne_pairs(transpose(lam))

    def test_triangular_parity_identity(self):
        # T(lam) + lam^T_2 + lam^T_4 + ... = |lam| (mod 2)
        for n in range(11):
            for lam in partitions_of(n):
                lt = transpose(lam)
                evens = sum(lt[i] for i in range(1, len(lt), 2))
                assert (triangular_sum(lam) + evens) % 2 == n % 2

    def test_shape_sign_matches_triangular_form(self):
        for n in range(9):
            for lam in partitions_of(n):
                want = -1 if (triangular_sum(transpose(lam)) + n) % 2 else 1
                assert shape_sign(lam) == want

    def test_reverse_sort_sign(self):
        assert reverse_sort_sign((2, 1)) == -1
        assert reverse_sort_sign((2, 2)) == 1
        for n in range(1, 8):
            assert reverse_sort_sign((n,)) == 1


class TestTableaux:
    def test_row_word_and_sign(self):
        t = Tableau([(1, 3), (2, 4), (5,)])
        assert t.row_word() == (5, 2, 4, 1, 3)
        assert t.sign() == -1
        assert Tableau([(1, 2, 3)]).sign() == 1
        assert Tableau([(1, 1, 2), (3,), (4,)]).sign() == -1

    def test_word_sign_is_inversion_parity(self):
        assert inversions((5, 2, 4, 1, 3)) == 7
        assert word_sign((1, 2, 2, 3)) == 1

    def test_superstandard(self):
        t = superstandard((2, 2, 1))
        assert t.rows == ((1, 1), (2, 2), (3,))
        assert t.sign() == 1
        assert superstandard((3, 1, 1)).sign() == -1

    def test_semistandard_predicate(self):
        assert Tableau([(1, 1, 2), (2, 3)]).is_semistandard()
        assert not Tableau([(1, 2), (1, 3)]).is_semistandard()  # column repeat
        assert not Tableau([(2, 1),]).is_semistandard()  # row decrease
        assert not Tableau([(1,), (2, 3)]).is_semistandard()  # not a partition

    def test_ssyt_enumeration(self):
        assert len(ssyt((2, 2, 1), (1, 1, 1, 1, 1))) == 5
        for n in range(1, 7):
            for lam in partitions_of(n):
                only = ssyt(lam, lam)
                assert len(only) == 1 and only[0] == superstandard(lam)

    def test_ssyt_validates_weights(self):
        with pytest.raises(ValueError):
            ssyt((2, 1), (1, 1))

    def test_content(self):
        t = Tableau([(1, 1, 3), (2,)])
        assert t.content() == (2, 1, 1)
        assert t.content(5) == (2, 1, 1, 0, 0)

    def test_methods_match_their_definitions(self):
        # every list of up to three rows of length 0..2 over the entries
        # 0..3, valid or not
        shapes = [s for k in range(4) for s in product(range(3), repeat=k)]
        for shape in shapes:
            for cells in product(range(4), repeat=sum(shape)):
                it = iter(cells)
                rows = [tuple(next(it) for _ in range(p)) for p in shape]
                t = Tableau(rows)
                assert t.shape == shape
                assert t.is_semistandard() == semistandard_by_definition(rows), rows
                word = t.row_word()
                assert t.sign() == (-1) ** sum(
                    1 for x, y in combinations(word, 2) if x > y)
                if all(cells):
                    assert t.content(4) == tuple(cells.count(x) for x in range(1, 5))


class TestMarginMatrices:
    def test_example_counts(self):
        assert len(matrices_with_margins((2, 2), (2, 1, 1))) == 4
        assert len(matrices_with_margins((3, 2), (2, 2, 1))) == 5

    def test_margins_respected(self):
        for m in matrices_with_margins((3, 2), (2, 2, 1)):
            assert tuple(sum(r) for r in m) == (3, 2)
            assert tuple(sum(col) for col in zip(*m)) == (2, 2, 1)

    def test_mismatched_weight_raises(self):
        with pytest.raises(ValueError):
            matrices_with_margins((2, 2), (1, 1, 1))

    def test_inv_statistic(self):
        # the five margin-(3,2)x(2,2,1) matrices have inv 0, 2, 2, 3, 6
        invs = sorted(matrix_inv(m) for m in matrices_with_margins((3, 2), (2, 2, 1)))
        assert invs == [0, 2, 2, 3, 6]
        assert matrix_sign(((1, 1, 1), (1, 1, 0))) == -1

    def test_cable_sign(self):
        assert cable_sign(((2, 1, 0), (0, 1, 1))) == -1
        assert cable_sign(((1, 1, 1), (1, 1, 0))) == 1
        assert cable_sign(((3,),)) == -1  # T(2) = 3


def brute_compositions(n):
    """Compositions of n >= 1 read off their cut sets."""
    return [tuple(b - a for a, b in zip((0,) + cuts, cuts + (n,)))
            for k in range(n) for cuts in combinations(range(1, n), k)]


class TestEnumerationPins:
    """matrices_with_margins and ssyt fill through the row kernel that the
    form uses too; these pins share no code with it."""

    def test_margin_matrices_equal_brute_force_in_order(self):
        for n in range(1, 6):
            for r in brute_compositions(n):
                for c in brute_compositions(n):
                    rows = [[m for m in product(*(range(x + 1) for x in c)) if sum(m) == t]
                            for t in r]
                    want = [a for a in product(*rows)
                            if tuple(map(sum, zip(*a))) == c]
                    assert matrices_with_margins(r, c) == want, (r, c)

    def test_ssyt_equal_brute_force_as_sets(self):
        for n in range(1, 6):
            shapes = [c for c in brute_compositions(n)
                      if all(a >= b for a, b in zip(c, c[1:]))]
            for lam in shapes:
                for mu in brute_compositions(n):
                    word = [i + 1 for i, k in enumerate(mu) for _ in range(k)]
                    want = set()
                    for w in set(permutations(word)):
                        cells = iter(w)
                        t = Tableau([[next(cells) for _ in range(p)] for p in lam])
                        if t.is_semistandard():
                            want.add(t)
                    got = ssyt(lam, mu)
                    assert len(set(got)) == len(got) and set(got) == want, (lam, mu)
