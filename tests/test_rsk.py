import gc
import json
import operator
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oddsym
from oddsym.combinat import (
    Tableau,
    matrices_with_margins,
    matrix_inv,
    partitions_of,
    row_fillings,
    shape_sign,
    ssyt,
)
from oddsym.rsk import (
    insert_word,
    knuth_normalize,
    odd_plactic_reduce,
    odd_rsk_check,
    row_insert,
    rsk,
    rsk_verify_degree,
    sign_theorem_check,
)
from oracles import (
    knuth_neighbors,
    kostka_by_enumeration,
    kostka_unsigned,
    odd_rsk_per_matrix,
    two_line_array,
)


def records(report) -> list:
    """The records of an odd_rsk_check report, read from their JSON text."""
    return [json.loads(e) for e in report["matrices"]]


def pass_mismatches(n):
    """The classes (mu, rho) of weight n whose report from the shared pass
    rsk_verify_degree(n) differs from a standalone odd_rsk_check(mu, rho), or
    whose records differ from the per-matrix oracle, each record's text being
    json.dumps of the oracle's dict, key order included; and the number of
    classes.  A class out of partitions_of order counts as a mismatch."""
    parts = partitions_of(n)
    order = iter([(mu, rho) for mu in parts for rho in parts])
    bad, count = [], 0
    for report in rsk_verify_degree(n):
        mu, rho = report["mu"], report["rho"]
        count += 1
        if ((mu, rho) != next(order, None) or report != odd_rsk_check(mu, rho)
                or report["matrices"] != [json.dumps(e) for e in odd_rsk_per_matrix(mu, rho)]):
            bad.append((mu, rho))
    return bad, count


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
        t = insert_word((1, 1, 2, 3))
        assert t.rows == ((1, 1, 2, 3),)

    def test_long_example(self):
        t = insert_word((5, 3, 4, 2, 2, 3, 3, 1, 1, 1, 2))
        assert t.rows == ((1, 1, 1, 2), (2, 2, 3, 3), (3, 4), (5,))

    def test_always_semistandard(self):
        import random

        rng = random.Random(42)
        for _ in range(50):
            word = [rng.randint(1, 5) for _ in range(rng.randint(1, 10))]
            t = insert_word(word)
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
    shape = insert_word(word).shape
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

    def test_rsk_inserts_the_two_line_array(self):
        # letter by letter through row_insert, recording where P grew
        for mu in partitions_of(4):
            for rho in partitions_of(4):
                for a in matrices_with_margins(mu, rho):
                    p, q_rows = Tableau([]), []
                    for uk, vk in zip(*two_line_array(a)):
                        p, (r, _) = row_insert(p, vk)
                        if r == len(q_rows):
                            q_rows.append([])
                        q_rows[r].append(uk)
                    assert rsk(a) == (p, Tableau(q_rows)), a

    def test_negative_matrix_entry(self):
        with pytest.raises(ValueError):
            rsk([[1, -1]])

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
        assert sorted(e["sign_A"] for e in records(r)) == [-1, 1, 1]
        r = odd_rsk_check((2, 2), (2, 1, 1))
        assert r["ok"]
        assert sorted(e["sign_A"] for e in records(r)) == [-1, 1, 1, 1]

    def test_trivial_class(self):
        for n in range(1, 6):
            r = odd_rsk_check((n,), (n,))
            assert r["ok"] and len(r["matrices"]) == 1
            assert records(r)[0]["sign_A"] == 1

    @pytest.mark.parametrize("n", range(1, 6))
    def test_exhaustive_by_degree(self, n):
        assert all(report["ok"] for report in rsk_verify_degree(n))
        assert sign_theorem_check(n) == []

    def test_kostka_identity_matches_kostka(self):
        # the identity reads the memoized strip-pass Kostka table; the oracle
        # enumerates the tableaux afresh
        for mu in partitions_of(4):
            for rho in partitions_of(4):
                want = sum(shape_sign(lam) * kostka_by_enumeration(lam, mu)[0]
                           * kostka_by_enumeration(lam, rho)[0]
                           for lam in partitions_of(4))
                assert odd_rsk_check(mu, rho)["kostka_identity"] == want

    def test_colliding_images_are_not_bijective(self, monkeypatch):
        # every row insertion that leaves P = taken leaves image instead, an
        # SSYT of the same shape, sign and content: every record stays valid
        # and the signed sum is unchanged, so only the count of distinct
        # images catches it.  The pass makes each (P, row) step once per
        # table, so the seam is the insertion of one row into P alone.
        mu = rho = (2, 2, 1)
        taken, image = Tableau([(1, 1, 2, 3), (2,)]), Tableau([(1, 1, 2, 2), (3,)])
        assert (taken.shape, taken.sign()) == (image.shape, image.sign())
        assert sum(rsk(a).insertion == taken for a in matrices_with_margins(mu, rho)) > 1
        real = oddsym.rsk._insert_row

        def colliding(p_rows, q_rows, i, row):
            real(p_rows, q_rows, i, row)
            if Tableau(p_rows) == taken:
                p_rows[:] = image.to_lists()

        monkeypatch.setattr(oddsym.rsk, "_insert_row", colliding)
        r = odd_rsk_check(mu, rho)
        shared = next(c for c in rsk_verify_degree(5) if (c["mu"], c["rho"]) == (mu, rho))
        for report in (r, shared):
            assert len(report["matrices"]) == len(matrices_with_margins(mu, rho))
            assert all(e["ok"] and e["P"] != taken.to_lists() for e in records(report))
            assert report["aggregate_sign_count"] == report["hh_entry"] \
                == report["kostka_identity"]
            assert not report["bijective"] and not report["ok"]

    def test_missing_matrix_is_not_bijective(self, monkeypatch):
        # the pass skips the first filling of the first row, (0, 1, 1), which
        # only the first matrix of the class starts with
        mu = rho = (2, 1, 1)

        def fewer(total, caps, limits):
            fillings = row_fillings(total, caps, limits)
            return fillings[1:] if caps == rho else fillings

        monkeypatch.setattr(oddsym.rsk, "row_fillings", fewer)
        r = odd_rsk_check(mu, rho)
        assert [e["matrix"] for e in records(r)] == [
            list(map(list, a)) for a in matrices_with_margins(mu, rho)[1:]
        ]
        assert all(e["ok"] for e in records(r))
        assert not r["bijective"] and not r["ok"]

    def test_one_flipped_tableau_fails_its_records_only(self, monkeypatch, capsys):
        # the sign of one tableau T of shape (3, 1) flips; other tableaux of
        # that shape keep theirs, so facts keyed on the shape would miss it.
        # A record with P == Q == T flips both signs and still holds.
        from oddsym.bases import kostka_matrix
        from oddsym.cli import main

        t = Tableau([(1, 1, 2), (2,)])
        kostka_matrix(4)  # the signed Kostka table reads Tableau.sign too
        sign = Tableau.sign
        monkeypatch.setattr(Tableau, "sign", lambda s: -sign(s) if s == t else sign(s))
        first_bad = None
        flipped = 0
        for report in rsk_verify_degree(4):
            hit = False
            for e in records(report):
                once = (e["P"] == t.to_lists()) != (e["Q"] == t.to_lists())
                assert e["ok"] is not once, e
                hit |= once
                flipped += once
            assert report["ok"] is not hit
            if hit and first_bad is None:
                first_bad = {**report, "matrices": records(report)}
        assert flipped and first_bad is not None
        witness = sign_theorem_check(4)
        assert witness == [first_bad]
        # the witness holds the records as objects, not as their JSON text
        assert all(isinstance(e, dict) for e in witness[0]["matrices"])
        assert main(["verify", "--suite", "rsk", "--max-degree", "4",
                     "--format", "json"]) == 1
        failures = json.loads(capsys.readouterr().out)["failures"]
        assert failures == [{"check": "rsk/sign-theorem deg 4",
                             "witness": json.loads(json.dumps([first_bad]))}]

    def test_pass_matches_per_matrix_oracle(self):
        # every class of the shared pass, in partitions_of order, equals a
        # standalone call with a table of its own and the per-matrix oracle,
        # whose records follow matrices_with_margins
        for n in range(1, 7):
            assert pass_mismatches(n) == ([], len(partitions_of(n)) ** 2), n

    def test_pass_leaves_no_reference_cycle(self):
        # the recursive closures of the pass, of row_fillings, of ssyt and of
        # matrices_with_margins are cut after their last call, so what they
        # build dies by reference counting
        list(rsk_verify_degree(5))  # the memoized tables of bases and form
        gc.collect()
        gc.disable()
        try:
            for name, call in [("rsk_verify_degree", lambda: list(rsk_verify_degree(5))),
                               ("ssyt", lambda: ssyt((3, 2), (2, 2, 1))),
                               ("matrices_with_margins",
                                lambda: matrices_with_margins((2, 2), (3, 1)))]:
                call()
                assert gc.collect() == 0, name
        finally:
            gc.enable()

    def test_row_exponents_sum_to_matrix_inv(self):
        # filling row by row under the column margins left, the row_fillings
        # exponents of a matrix's rows add up to its SW-NE count
        for n in range(1, 7):
            for mu in partitions_of(n):
                for rho in partitions_of(n):
                    for a in matrices_with_margins(mu, rho):
                        left, total = rho, 0
                        for i, row in enumerate(a):
                            total += dict(row_fillings(mu[i], left, left))[row]
                            left = tuple(c - v for c, v in zip(left, row))
                        assert total == matrix_inv(a), a

    def test_report_schema(self):
        r = odd_rsk_check((2, 1), (2, 1))
        for entry in records(r):
            assert set(entry) == {
                "matrix", "P", "Q", "sign_A", "sign_P", "sign_Q", "shape_sign", "ok",
            }
