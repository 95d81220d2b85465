import json
from itertools import product
from math import prod

import pytest

from oddsym import bases, oddring
from oddsym.bases import (
    basis_matrix,
    forgotten,
    kostka,
    kostka_matrix,
    kostka_unsigned,
    monomial,
    power_sum,
    schur,
    schur_alt_routes,
    schur_orthonormality,
)
from oddsym.cli import main
from oddsym.combinat import partitions_of, shape_sign, sw_ne_pairs, transpose, triangular_sum
from oddsym.form import e_word, h_word, pair_h_generic, pair_words_odd
from oddsym.oddring import OddElt, e_elt, e_letter, h_elt, pair
from oddsym.polyq import det_exact

from oracles import (
    basis_matrix_entry_by_enumeration,
    classical_lr,
    form_in_forgotten_basis,
    kostka_by_enumeration,
)


def inverse_tables(n):
    """The three partition-keyed inverse tables of degree n, each with the
    table it inverts as rows[mu][nu]: the (h,h) Gram matrix, the h-coordinates
    of e_mu, and the transposed Kostka matrix."""
    parts, kostka_rows = kostka_matrix(n)
    return {
        "gram_h_inverse": (oddring.gram_h_inverse(n), oddring._gram_rows(n)),
        "h_in_e": (oddring._h_in_e(n), {mu: e_elt(mu).terms for mu in parts}),
        "schur": (bases._schur_table(n),
                  {mu: {lam: row[j] for lam, row in zip(parts, kostka_rows)}
                   for j, mu in enumerate(parts)}),
    }


def inverse_table_mismatches(n):
    """The cells (table, lam, nu) of degree n where sum_mu inv[lam][mu] *
    T[mu][nu] is not delta(lam, nu), and the number of cells checked."""
    parts = partitions_of(n)
    bad = [(name, lam, nu)
           for name, (inv, forward) in inverse_tables(n).items()
           for lam in parts for nu in parts
           if sum(c * forward[mu].get(nu, 0) for mu, c in inv[lam].items()) != (lam == nu)]
    return bad, 3 * len(parts) ** 2


def kostka_mismatches(contents):
    """The (lam, mu) whose signed or plain Kostka number from the strip pass
    differs from SSYT enumeration, over every shape lam of the weight of each
    content mu, and the number of pairs checked."""
    pairs = [(lam, mu) for mu in contents for lam in partitions_of(sum(mu))]
    bad = [(lam, mu) for lam, mu in pairs
           if (kostka(lam, mu), kostka_unsigned(lam, mu)) != kostka_by_enumeration(lam, mu)]
    return bad, len(pairs)


def odd_schur_product(lam, mu) -> dict:
    """{kappa: c} with s_lam s_mu = sum_kappa c s_kappa in the quotient ring:
    the product in h-coordinates, and h_nu = sum_kappa K[kappa][nu] s_kappa."""
    parts, rows = kostka_matrix(sum(lam) + sum(mu))
    column = {nu: j for j, nu in enumerate(parts)}
    out = {kappa: sum(c * row[column[nu]] for nu, c in
                      (bases.schur(lam) * bases.schur(mu)).terms.items())
           for kappa, row in zip(parts, rows)}
    return {kappa: c for kappa, c in out.items() if c}


def littlewood_richardson_violations(total):
    """The (lam, mu, kappa, odd, classical) over the ordered pairs of
    nonempty partitions with |lam| + |mu| <= total where the odd coefficient
    of s_kappa in s_lam s_mu breaks |odd| <= classical, odd = classical
    mod 2, or, when lam or mu is a single row (Pieri), |odd| = classical;
    and the number of pairs.  The checks read absolute values, so a sign
    flip of a single s_lam passes them."""
    pairs = [(lam, mu) for n in range(2, total + 1) for a in range(1, n)
             for lam, mu in product(partitions_of(a), partitions_of(n - a))]
    bad = []
    for lam, mu in pairs:
        odd, classical = odd_schur_product(lam, mu), classical_lr(lam, mu)
        pieri = len(lam) == 1 or len(mu) == 1
        for kappa in odd.keys() | classical.keys():
            o, c = odd.get(kappa, 0), classical.get(kappa, 0)
            if abs(o) > c or (o - c) % 2 or (pieri and abs(o) != c):
                bad.append((lam, mu, kappa, o, c))
    return bad, len(pairs)


class TestInverseTables:
    @pytest.mark.parametrize("n", range(8))
    def test_rows_are_keyed_by_partition_without_zeros(self, n):
        for name, (inv, _) in inverse_tables(n).items():
            assert tuple(inv) == partitions_of(n), name
            assert all(set(row) <= set(partitions_of(n)) and 0 not in row.values()
                       for row in inv.values()), name

    @pytest.mark.parametrize("n", range(8))
    def test_each_inverts_its_forward_table(self, n):
        bad, _ = inverse_table_mismatches(n)
        assert not bad, bad[:5]


class TestKostka:
    def test_reference_values(self):
        assert kostka((2, 2, 1), (1, 1, 1, 1, 1)) == -1
        assert kostka((3, 1, 1), (2, 1, 1, 1)) == 1
        for n in range(1, 7):
            for lam in partitions_of(n):
                assert kostka(lam, lam) == 1

    def test_row_and_column_edges(self):
        for n in range(1, 7):
            for mu in partitions_of(n):
                assert kostka((n,), mu) == 1
                want = 1 if mu == (1,) * n else 0
                assert kostka((1,) * n, mu) == want

    def test_weight_mismatch(self):
        with pytest.raises(ValueError, match="shape and content have different weights"):
            kostka((2,), (1, 1, 1))

    @pytest.mark.parametrize("n", range(9))
    def test_strip_pass_equals_enumeration(self, n):
        bad, _ = kostka_mismatches(partitions_of(n))
        assert not bad, bad[:5]

    def test_strip_pass_equals_enumeration_on_compositions(self):
        # every content of weight <= 5 with at most weight + 1 entries, zeros
        # anywhere and parts in any order
        contents = [c for n in range(6) for length in range(n + 2)
                    for c in product(range(n + 1), repeat=length) if sum(c) == n]
        bad, count = kostka_mismatches(contents)
        assert count > 2000 and not bad, bad[:5]

    def test_edge_contract(self):
        # the content need not be a partition: zeros and any order are read
        # entry by entry, and the arguments may be lists
        assert kostka((2, 1), (1, 2)) == -1
        assert kostka((2, 1), (2, 1, 0)) == 1
        assert kostka((), ()) == 1
        assert kostka([2, 1], [1, 1, 1]) == 0
        with pytest.raises(ValueError, match=r"^not a partition: \(1, 2\)$"):
            kostka((1, 2), (2, 1))
        with pytest.raises(ValueError, match=r"^not a partition: \(2, 1, 0\)$"):
            kostka((2, 1, 0), (1, 1, 1))

    def test_lex_unitriangular(self):
        for n in range(1, 8):
            parts, rows = kostka_matrix(n)
            for i, lam in enumerate(parts):
                assert rows[i][i] == 1
                for j, mu in enumerate(parts):
                    if mu > lam:
                        assert rows[i][j] == 0, (lam, mu)


class TestBasisMatrices:
    def test_reference_entries(self):
        for kind, want in (("eh", -1), ("hh", 3), ("ee", -1)):
            parts, rows = basis_matrix(kind, 5)
            assert rows[parts.index((3, 2))][parts.index((2, 2, 1))] == want
            assert basis_matrix_entry_by_enumeration(kind, (3, 2), (2, 2, 1)) == want

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            basis_matrix("xy", 1)

    def test_matches_pairing_route(self):
        # signed margin-matrix enumeration against the memoized colored form
        for n in range(1, 7):
            parts = partitions_of(n)
            for kind in ("eh", "hh", "ee"):
                _, rows = basis_matrix(kind, n)
                for i, lam in enumerate(parts):
                    for j, mu in enumerate(parts):
                        want = basis_matrix_entry_by_enumeration(kind, lam, mu)
                        assert rows[i][j] == want, (kind, lam, mu)
            _, hh = basis_matrix("hh", n)
            for i, lam in enumerate(parts):
                for j, mu in enumerate(parts):
                    assert hh[i][j] == pair_h_generic(lam, mu).evaluate(-1)

    def test_symmetry_of_hh_and_ee(self):
        for n in range(1, 7):
            for kind in ("hh", "ee"):
                _, rows = basis_matrix(kind, n)
                size = len(rows)
                for i in range(size):
                    for j in range(size):
                        assert rows[i][j] == rows[j][i]

    def test_eh_anti_triangular(self):
        for n in range(1, 7):
            parts, eh = basis_matrix("eh", n)
            for i, lam in enumerate(parts):
                lt = transpose(lam)
                for j, mu in enumerate(parts):
                    if mu > lt:
                        assert eh[i][j] == 0, (lam, mu)
                    elif mu == lt:
                        want = -1 if sw_ne_pairs(lam) % 2 else 1
                        assert eh[i][j] == want, lam

    def test_kostka_identity_for_hh(self):
        # the (h,h) table equals the shape-signed square of the Kostka table
        for n in range(1, 7):
            parts, hh = basis_matrix("hh", n)
            for i, mu in enumerate(parts):
                for j, rho in enumerate(parts):
                    total = sum(
                        shape_sign(lam) * kostka(lam, mu) * kostka(lam, rho)
                        for lam in parts
                    )
                    assert hh[i][j] == total, (mu, rho)

    def test_kostka_identity_for_ee(self):
        # (-1)^(T(mu)+T(rho)) (e,e) entry = shape-signed transposed-Kostka square
        for n in range(1, 7):
            parts, ee = basis_matrix("ee", n)
            for i, mu in enumerate(parts):
                for j, rho in enumerate(parts):
                    sign = -1 if (triangular_sum(mu) + triangular_sum(rho)) % 2 else 1
                    total = sum(
                        shape_sign(lam)
                        * kostka(transpose(lam), mu)
                        * kostka(transpose(lam), rho)
                        for lam in parts
                    )
                    assert sign * ee[i][j] == total, (mu, rho)

    def test_determinant_product_formula(self):
        # Known discrepancy 3: the product over self-transpose diagrams of
        # (-1)^(sw-ne pairs) is the determinant with columns indexed by the
        # transposed partitions; in lex order on both sides it gains the sign
        # of the involution lam -> lam^T of the partitions
        for n in range(1, 8):
            parts, eh = basis_matrix("eh", n)
            self_transpose = prod(
                -1 for lam in parts if transpose(lam) == lam and sw_ne_pairs(lam) % 2
            )
            involution = (-1) ** sum(transpose(lam) > lam for lam in parts)
            assert det_exact([list(r) for r in eh]) == self_transpose * involution


class TestDualBases:
    def test_printed_lists(self):
        assert monomial((1,)) == h_elt((1,))
        assert monomial((4,)) == OddElt({(1, 1, 1, 1): -1, (2, 2): -2, (4,): 4})
        assert monomial((2,)) == h_elt((1, 1))
        assert monomial((2, 1)) == OddElt({(2, 1): -1, (3,): 1})
        assert forgotten((2, 1)) == OddElt({(2, 1): -1, (3,): 1})
        assert forgotten((4,)) == OddElt({(1, 1, 1, 1): 1, (2, 2): 2, (4,): -4})
        assert forgotten((2, 2)) == OddElt({(2, 2): -1, (4,): 2})

    def test_biorthogonality(self):
        for n in range(1, 8):
            parts = partitions_of(n)
            ms = {mu: monomial(mu) for mu in parts}
            fs = {mu: forgotten(mu) for mu in parts}
            for lam in parts:
                hl, el = h_elt(lam), e_elt(lam)
                for mu in parts:
                    assert pair(hl, ms[mu]) == (1 if lam == mu else 0)
                    assert pair(el, fs[mu]) == (1 if lam == mu else 0)

    def test_single_row_duals_degree_nine(self):
        # (h_lam, m_9) = (e_lam, f_9) = delta under the colored pairing
        m9 = {h_word(p): c for p, c in monomial((9,)).terms.items()}
        f9 = {h_word(p): c for p, c in forgotten((9,)).terms.items()}
        for lam in partitions_of(9):
            want = 1 if lam == (9,) else 0
            assert pair_words_odd(h_word(lam), m9) == want, lam
            assert pair_words_odd(e_word(lam), f9) == want, lam

    def test_forgotten_dual_to_e_words(self):
        # (e_lam, f_mu) = delta under the colored pairing of e-words, which
        # uses neither the inverse e-change of basis nor the inverse Gram
        for n in range(1, 8):
            parts = partitions_of(n)
            for mu in parts:
                f = {h_word(p): c for p, c in forgotten(mu).terms.items()}
                for lam in parts:
                    assert pair_words_odd(e_word(lam), f) == (lam == mu), (lam, mu)

    @pytest.mark.parametrize("maker", [monomial, forgotten, schur])
    @pytest.mark.parametrize("index", [(1, 2), (2, 1, 0), (-1, 3)])
    def test_non_partition_index_raises(self, maker, index):
        with pytest.raises(ValueError):
            maker(index)

    def test_power_sum_is_single_row_monomial(self):
        for n in range(1, 9):
            assert power_sum(n) == monomial((n,))

    @pytest.mark.parametrize("n", [0, -1])
    def test_power_sum_of_a_non_positive_degree_raises(self, n):
        with pytest.raises(ValueError):
            power_sum(n)

    def test_forgotten_single_row_sign(self):
        # f_n = +- m_n with sign = coefficient of h_n in e_n; true for n <= 6
        # and n = 8 but false at n = 7, where that coefficient is 5 and the
        # two dual vectors are not proportional (both facts double-checked
        # through the straightening and Gram routes).
        for n in [1, 2, 3, 4, 5, 6, 8]:
            sign = e_letter(n).coefficient((n,))
            assert sign in (1, -1)
            assert forgotten((n,)) == monomial((n,)).scale(sign)
        assert e_letter(7).coefficient((7,)) == 5
        f7, m7 = forgotten((7,)), monomial((7,))
        assert f7 != m7 and f7 != m7.scale(-1)

    def test_form_in_forgotten_basis(self):
        for n in range(1, 7):
            _, direct, composed = form_in_forgotten_basis(n)
            assert direct == composed


class TestSchur:
    def test_printed_lists(self):
        assert schur((2, 2)) == OddElt({(2, 2): 1, (3, 1): 1, (4,): -2})
        assert schur((2, 1)) == OddElt({(2, 1): 1, (3,): -1})
        assert schur((3,)) == h_elt((3,))
        assert schur((2, 1, 1)) == OddElt(
            {(2, 1, 1): 1, (2, 2): -1, (3, 1): -1, (4,): 1}
        )

    def test_single_row(self):
        for n in range(1, 8):
            assert schur((n,)) == h_elt((n,))

    def test_h_expansion_in_schur_basis(self):
        # h_mu = sum_lam K[lam][mu] s_lam
        for n in range(1, 7):
            parts, K = kostka_matrix(n)
            svecs = {lam: schur(lam) for lam in parts}
            for j, mu in enumerate(parts):
                total = OddElt.zero()
                for i, lam in enumerate(parts):
                    if K[i][j]:
                        total = total + svecs[lam].scale(K[i][j])
                assert total == h_elt(mu), mu

    def test_orthonormality_values(self):
        assert pair(schur((2, 1)), schur((2, 1))) == -1
        assert pair(schur((2, 2)), schur((3, 1))) == 0
        assert pair(schur((1,)), schur((1,))) == 1

    @pytest.mark.parametrize("n", range(1, 7))
    def test_orthonormality_report(self, n):
        assert not schur_orthonormality(n)

    def test_orthonormality_report_names_a_wrong_vector(self, monkeypatch, capsys):
        # s_(2,1) replaced by s_(2,1) + s_(3): its norm and both pairings
        # with s_(3) fail, and nothing else does
        true_schur = bases.schur

        def wrong_schur(lam):
            s = true_schur(lam)
            return s + true_schur((3,)) if tuple(lam) == (2, 1) else s

        monkeypatch.setattr(bases, "schur", wrong_schur)
        want = [{"lambda": (2, 1), "mu": (2, 1), "got": 0, "want": -1},
                {"lambda": (2, 1), "mu": (3,), "got": 1, "want": 0},
                {"lambda": (3,), "mu": (2, 1), "got": 1, "want": 0}]
        assert schur_orthonormality(3) == want
        assert main(["verify", "--suite", "schur", "--max-degree", "3",
                     "--format", "json"]) == 1
        failures = json.loads(capsys.readouterr().out)["failures"]
        assert {"check": "schur/orthonormality deg 3",
                "witness": json.loads(json.dumps(want))} in failures

    def test_alt_routes(self):
        for n in range(1, 6):
            for lam in partitions_of(n):
                failures = schur_alt_routes(lam)
                assert not failures, failures

    def test_unsigned_kostka_positive(self):
        for n in range(1, 6):
            for lam in partitions_of(n):
                for mu in partitions_of(n):
                    assert kostka_unsigned(lam, mu) >= abs(kostka(lam, mu))


class TestLittlewoodRichardsonBounds:
    """The odd Schur products against the classical Littlewood-Richardson
    numbers, which read no sign.  A sign flip of a single s_lam passes these
    checks (they read absolute values), and orthonormality too."""

    def test_bounds_to_total_degree_8(self):
        assert littlewood_richardson_violations(8) == ([], 301)

    def test_first_cancellation(self):
        assert classical_lr((2, 1), (2, 1))[(3, 2, 1)] == 2
        assert (3, 2, 1) not in odd_schur_product((2, 1), (2, 1))

    def test_names_a_wrong_schur_vector(self, monkeypatch):
        true_schur = bases.schur
        monkeypatch.setattr(bases, "schur", lambda lam: true_schur(lam) + true_schur((3,))
                            if tuple(lam) == (2, 1) else true_schur(lam))
        bad, _ = littlewood_richardson_violations(7)
        assert len({(lam, mu) for lam, mu, *_ in bad}) == 21

    def test_names_a_flipped_sign_in_the_h1_relation(self, monkeypatch):
        # h_1 h_m = 2 h_(m+1) + h_m h_1 for even m, instead of - h_m h_1
        true_expansion = oddring._ascent_expansion

        def flipped(a, b):
            if a == 1 and b % 2 == 0:
                return ((2, (b + 1,)), (1, (b, 1)))
            return true_expansion(a, b)

        monkeypatch.setattr(oddring, "_ascent_expansion", flipped)
        oddring.normalize_word.cache_clear()
        try:
            bad, _ = littlewood_richardson_violations(7)
        finally:
            monkeypatch.undo()
            oddring.normalize_word.cache_clear()
        assert len({(lam, mu) for lam, mu, *_ in bad}) == 106
