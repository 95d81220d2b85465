from fractions import Fraction

import pytest

from oddsym import gramdet
from oddsym.combinat import partitions_of
from oddsym.form import pair_words_odd, h_word
from oddsym.gramdet import (
    composition_labels,
    degenerate_factors,
    det_degree_check,
    det_degree_formula,
    factor_multiplicity_check,
    gram_det,
    gram_matrix,
    radical_rank,
    reversal_blocks,
)
from oddsym.polyq import QPoly

from oracles import det_at_points


class TestGramMatrix:
    def test_degree_two_generic(self):
        labels, rows = gram_matrix(2)
        assert labels == [(1, 1), (2,)]
        assert rows == [[QPoly((1, 1)), QPoly((1,))], [QPoly((1,)), QPoly((1,))]]

    def test_degree_one(self):
        _, rows = gram_matrix(1)
        assert rows == [[QPoly((1,))]]

    def test_degree_four_entry(self):
        labels, rows = gram_matrix(4)
        i = labels.index((2, 2))
        assert rows[i][i] == QPoly((1, 1, 0, 0, 1))

    def test_symmetric(self):
        for n in range(1, 8):
            _, rows = gram_matrix(n)
            size = len(rows)
            for i in range(size):
                for j in range(size):
                    assert rows[i][j] == rows[j][i]

    def test_partition_basis_at_minus_one(self):
        labels, rows = gram_matrix(4, q=-1, basis="partitions")
        assert labels == list(partitions_of(4))
        assert rows == [
            [0, 0, 2, 0, 1],
            [0, 1, 2, 1, 1],
            [2, 2, 1, 2, 1],
            [0, 1, 2, 0, 1],
            [1, 1, 1, 1, 1],
        ]

    def test_appendix_order(self):
        assert composition_labels(4) == [
            (1, 1, 1, 1), (1, 1, 2), (1, 2, 1), (2, 1, 1),
            (2, 2), (1, 3), (3, 1), (4,),
        ]

    def test_cross_degree_orthogonality(self):
        # weight spaces of different degrees pair to zero
        from oddsym.form import pair_h_generic
        from oddsym.combinat import compositions_of

        for n in range(8):
            for m in range(n + 1, 8):
                for b in compositions_of(n)[:3]:
                    for a in compositions_of(m)[:3]:
                        assert pair_h_generic(b, a).is_zero()
        assert pair_words_odd(h_word((2,)), h_word((1, 1, 1))) == 0

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            gram_matrix(3, basis="nope")


class TestDeterminant:
    def test_degree_formula_values(self):
        assert [det_degree_formula(n) for n in range(2, 8)] == [1, 7, 31, 111, 351, 1023]

    def test_degree_two_det(self):
        assert gram_det(2) == QPoly((0, 1))

    @pytest.mark.parametrize("n", range(2, 7))
    def test_degree_check(self, n):
        report = det_degree_check(n)
        assert report["ok"], report

    def test_specialization_consistency(self):
        # evaluating the generic determinant at q = 2 matches the integer
        # determinant of the specialized matrix
        from oddsym.polyq import det_exact

        for n in range(2, 7):
            _, rows = gram_matrix(n, q=2)
            assert gram_det(n).evaluate(2) in (det_exact(rows), -det_exact(rows))

    def test_matches_bareiss_on_lex_order(self):
        # the appendix layout permutes rows and columns together, so the
        # lexicographically ordered matrix has the same determinant, up to
        # the sign that gram_det normalizes; the oracle is integer Bareiss at
        # q = 0..D+1, D the degree formula
        from oddsym.combinat import compositions_of
        from oddsym.form import pair_h_generic

        for n in range(2, 6):
            comps = compositions_of(n)
            points = range(det_degree_formula(n) + 2)
            want = det_at_points([[pair_h_generic(b, a) for a in comps] for b in comps],
                                 points)
            got = [gram_det(n).evaluate(x) for x in points]
            assert want in (got, [-v for v in got]), n
            assert gram_det(n).leading_coefficient() > 0, n
        assert gram_det(1) == QPoly((1,))  # the 1 x 1 matrix (1)

    def test_bound(self):
        with pytest.raises(ValueError):
            gram_det(8)

    def test_q_two_cross_check_rejects_a_wrong_determinant(self, monkeypatch):
        wrong = gram_det(3) + QPoly((0, 0, 1))
        monkeypatch.setattr(gramdet, "det_by_interpolation", lambda rows: wrong)
        with pytest.raises(ArithmeticError):
            gram_det.__wrapped__(3)


class TestReversalBlocks:
    """The reversal symmetry behind gram_det and its block factorization."""

    def test_pairing_is_reversal_and_transpose_invariant(self):
        from oddsym.combinat import compositions_of
        from oddsym.form import pair_h_generic

        for n in range(1, 7):
            comps = compositions_of(n)
            for b in comps:
                for a in comps:
                    value = pair_h_generic(b, a)
                    assert value == pair_h_generic(b[::-1], a[::-1]), (b, a)
                    assert value == pair_h_generic(a, b), (b, a)

    @pytest.mark.parametrize("n", range(2, 6))
    def test_blocks_multiply_to_the_full_determinant(self, n):
        # integer Bareiss at q = 0..D+1 on every matrix, D the degree
        # formula: no interpolation involved
        plus, minus = reversal_blocks(n)
        _, rows = gram_matrix(n)
        points = range(det_degree_formula(n) + 2)
        full = det_at_points(rows, points)
        product = [a * b for a, b in zip(det_at_points(plus, points),
                                         det_at_points(minus, points))]
        assert product == full
        got = [gram_det(n).evaluate(x) for x in points]
        assert full in (got, [-v for v in got])

    def test_block_sizes(self):
        # 2^(n-1) compositions, 2^floor(n/2) of them palindromes
        for n in range(1, 7):
            plus, minus = reversal_blocks(n)
            palindromes = 2 ** (n // 2)
            assert len(plus) - len(minus) == palindromes
            assert len(plus) + len(minus) == 2 ** (n - 1)
        assert [len(b) for b in reversal_blocks(6)] == [20, 12]


class TestFactors:
    def test_data_file(self):
        factors = degenerate_factors()
        assert [f["name"] for f in factors[:3]] == ["q", "q-1", "q+1"]
        for f in factors:
            if f["name"] != "q":
                c = f["poly"].coeffs
                assert c[::-1] in (c, tuple(-x for x in c)), f["name"]
                assert f["poly"].leading_coefficient() == 1
                assert abs(f["poly"].coeffs[0]) == 1
        degree18 = next(f for f in factors if f["name"] == "degree-18 palindromic")
        assert degree18["poly"].degree() == 18

    def test_listed_degree_sums_match_formula(self):
        factors = degenerate_factors()
        for n in range(2, 8):
            total = sum(
                f["multiplicities"].get(n, 0) * f["poly"].degree() for f in factors
            )
            assert total == det_degree_formula(n), n

    @pytest.mark.parametrize("n", range(2, 5))
    def test_multiplicities(self, n):
        report = factor_multiplicity_check(n)
        assert report["ok"], report

    def test_multiplicities_degree_five(self):
        report = factor_multiplicity_check(5)
        assert report["ok"], report
        got = {f["factor"]: f["multiplicity"] for f in report["items"]}
        assert got["degree-18 palindromic"] == 1

    def test_multiplicities_degree_six(self):
        report = factor_multiplicity_check(6)
        assert report["ok"], report
        assert report["residual"] == "1"

    @staticmethod
    def list_q_multiplicity(monkeypatch, n, listed):
        patched = tuple(
            dict(f, multiplicities={**f["multiplicities"], n: listed})
            if f["name"] == "q" else f
            for f in degenerate_factors()
        )
        monkeypatch.setattr(gramdet, "degenerate_factors", lambda: patched)

    @pytest.mark.parametrize("excess", [1, 3])
    def test_overstated_multiplicity_fails(self, monkeypatch, excess):
        # a listed multiplicity above the true one is a failed check, not a
        # division error
        self.list_q_multiplicity(monkeypatch, 3, 5 + excess)
        report = factor_multiplicity_check(3)
        assert not report["ok"]
        q_row = report["items"][0]
        assert (q_row["listed"], q_row["multiplicity"], q_row["ok"]) == (5 + excess, 5, False)
        assert report["residual"] == "1"

    @pytest.mark.parametrize("deficit", [1, 3])
    def test_understated_multiplicity_fails(self, monkeypatch, deficit):
        # the powers beyond the listed multiplicity stay in the residual
        self.list_q_multiplicity(monkeypatch, 3, 5 - deficit)
        report = factor_multiplicity_check(3)
        assert not report["ok"]
        q_row = report["items"][0]
        assert (q_row["listed"], q_row["multiplicity"], q_row["ok"]) == (5 - deficit, 5, False)
        assert report["residual"] == str(QPoly((0,) * deficit + (1,)))

    def test_listed_factors_pairwise_coprime(self):
        # factor_multiplicity_check divides each factor out of the running
        # residual; that gives the multiplicity in the determinant only
        # because no two listed factors share a root
        factors = degenerate_factors()
        for i, f in enumerate(factors):
            for g in factors[i + 1:]:
                assert gcd_degree(f["poly"], g["poly"]) == 0, (f["name"], g["name"])


def gcd_degree(f: QPoly, g: QPoly) -> int:
    """Degree of gcd(f, g) over the rationals, by Euclid's algorithm."""
    a = [Fraction(c) for c in f.coeffs]
    b = [Fraction(c) for c in g.coeffs]
    while b:
        while a and len(a) >= len(b):
            c, shift = a[-1] / b[-1], len(a) - len(b)
            for i, x in enumerate(b):
                a[shift + i] -= c * x
            while a and a[-1] == 0:
                a.pop()
        a, b = b, a
    return len(a) - 1


class TestRadicalRank:
    def test_rank_at_minus_one_is_partition_count(self):
        for n in range(0, 8):
            assert radical_rank(n, -1) == len(partitions_of(n))

    def test_rank_at_zero_is_one(self):
        for n in range(1, 6):
            assert radical_rank(n, 0) == 1

    def test_rank_at_one_is_partition_count(self):
        for n in range(1, 6):
            assert radical_rank(n, 1) == len(partitions_of(n))

    def test_generic_point_full_rank(self):
        for n in range(1, 6):
            assert radical_rank(n, 2) == 2 ** (n - 1)

    def test_corank_is_radical_dimension(self):
        for n in range(1, 7):
            corank = 2 ** (n - 1) - radical_rank(n, -1)
            assert corank == 2 ** (n - 1) - len(partitions_of(n))
