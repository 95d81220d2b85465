"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line with its runtime (run with -s to see them inline).

Golden tables are hand-transcribed reference data; no value here was
computed by the code under test.
"""

import time

import pytest

from oddsym import bases, cli, form, gramdet, hopf, oddring
from oddsym.rsk import rsk_verify_degree
from oddsym.combinat import compositions_of, partitions_of
from oddsym.oddring import OddElt, h_elt
from oddsym.polyq import QPoly

from test_form import htilde_mismatches


def report(number, elapsed, limit, detail=""):
    print(f"ACCEPTANCE {number} PASS ({elapsed:.2f}s, limit {limit}s) {detail}")
    assert elapsed < limit


ONE = QPoly((1,))
Q = QPoly((0, 1))


def M(exp, coeff=1):
    """The monomial coeff * q^exp."""
    return QPoly((0,) * exp + (coeff,))


def qint(n):
    """The q-integer [n] = 1 + q + ... + q^(n-1)."""
    return QPoly((1,) * n)


# --------------------------------------------------------------------------
# criterion 1: generic-q Gram tables, degrees 1..4, exact

GENERIC_TABLES = {
    1: {((1,), (1,)): ONE},
    2: {
        ((1, 1), (1, 1)): qint(2),
        ((1, 1), (2,)): ONE,
        ((2,), (2,)): ONE,
    },
    3: {
        ((1, 1, 1), (1, 1, 1)): qint(2) * qint(3),
        ((1, 1, 1), (1, 2)): qint(3),
        ((1, 1, 1), (2, 1)): qint(3),
        ((1, 1, 1), (3,)): ONE,
        ((1, 2), (1, 2)): qint(2),
        ((1, 2), (2, 1)): ONE + M(2),
        ((1, 2), (3,)): ONE,
        ((2, 1), (2, 1)): qint(2),
        ((2, 1), (3,)): ONE,
        ((3,), (3,)): ONE,
    },
    4: {
        ((1, 1, 1, 1), (1, 1, 1, 1)): qint(2) * qint(3) * qint(4),
        ((1, 1, 1, 1), (1, 1, 2)): qint(4) * qint(3),
        ((1, 1, 1, 1), (1, 2, 1)): qint(4) * qint(3),
        ((1, 1, 1, 1), (2, 1, 1)): qint(4) * qint(3),
        ((1, 1, 1, 1), (2, 2)): qint(5) + M(2),
        ((1, 1, 1, 1), (1, 3)): qint(4),
        ((1, 1, 1, 1), (3, 1)): qint(4),
        ((1, 1, 1, 1), (4,)): ONE,
        ((1, 1, 2), (1, 1, 2)): qint(5) + Q * qint(2),
        ((1, 1, 2), (1, 2, 1)): qint(5) + M(2) * qint(2),
        ((1, 1, 2), (2, 1, 1)): qint(6) + M(2),
        ((1, 1, 2), (2, 2)): qint(3) + M(4),
        ((1, 1, 2), (1, 3)): qint(3),
        ((1, 1, 2), (3, 1)): qint(1) + M(2) * qint(2),
        ((1, 1, 2), (4,)): ONE,
        ((1, 2, 1), (1, 2, 1)): qint(4) + Q + M(3) + M(5),
        ((1, 2, 1), (2, 1, 1)): qint(5) + M(2) * qint(2),
        ((1, 2, 1), (2, 2)): ONE + M(2, 2) + M(3),
        ((1, 2, 1), (1, 3)): qint(2) + M(3),
        ((1, 2, 1), (3, 1)): qint(2) + M(3),
        ((1, 2, 1), (4,)): ONE,
        ((2, 1, 1), (2, 1, 1)): qint(5) + Q * qint(2),
        ((2, 1, 1), (2, 2)): qint(3) + M(4),
        ((2, 1, 1), (1, 3)): ONE + M(2) * qint(2),
        ((2, 1, 1), (3, 1)): qint(3),
        ((2, 1, 1), (4,)): ONE,
        ((2, 2), (2, 2)): qint(2) + M(4),
        ((2, 2), (1, 3)): ONE + M(2),
        ((2, 2), (3, 1)): ONE + M(2),
        ((2, 2), (4,)): ONE,
        ((1, 3), (1, 3)): qint(2),
        ((1, 3), (3, 1)): ONE + M(3),
        ((1, 3), (4,)): ONE,
        ((3, 1), (3, 1)): qint(2),
        ((3, 1), (4,)): ONE,
        ((4,), (4,)): ONE,
    },
}


def test_criterion_1_generic_gram_tables():
    t0 = time.perf_counter()
    checked = 0
    for n, table in GENERIC_TABLES.items():
        comps = compositions_of(n)
        assert len(table) == len(comps) * (len(comps) + 1) // 2
        for (b, a), want in table.items():
            assert form.pair_h_generic(b, a) == want, (b, a)
            assert form.pair_h_generic(a, b) == want, (a, b)
            checked += 2
    report(1, time.perf_counter() - t0, 1.0,
           f"generic Gram tables degrees 1..4, {checked} entries")


# --------------------------------------------------------------------------
# criterion 2: q = -1 partition-basis Gram tables, degrees 1..6

QM1_TABLES = {
    1: [[1]],
    2: [[0, 1],
        [1, 1]],
    3: [[0, 1, 1],
        [1, 0, 1],
        [1, 1, 1]],
    4: [[0, 0, 2, 0, 1],
        [0, 1, 2, 1, 1],
        [2, 2, 1, 2, 1],
        [0, 1, 2, 0, 1],
        [1, 1, 1, 1, 1]],
    5: [[0, 0, 2, 0, 2, 1, 1],
        [0, 1, 0, 1, 3, 0, 1],
        [2, 0, -3, 2, 3, -1, 1],
        [0, 1, 2, 1, 2, 1, 1],
        [2, 3, 3, 2, 1, 2, 1],
        [1, 0, -1, 1, 2, 0, 1],
        [1, 1, 1, 1, 1, 1, 1]],
    6: [[0, 0, 0, 6, 0, 0, 0, 0, 3, 0, 1],
        [0, 0, 2, 6, 0, 2, 2, 1, 3, 1, 1],
        [0, 2, 4, 3, 2, 4, 4, 2, 2, 2, 1],
        [6, 6, 3, -3, 6, 5, 5, 3, 0, 3, 1],
        [0, 0, 2, 6, 0, -1, 0, 1, 3, 0, 1],
        [0, 2, 4, 5, -1, -4, -2, 2, 3, -1, 1],
        [0, 2, 4, 5, 0, -2, 0, 2, 3, 0, 1],
        [0, 1, 2, 3, 1, 2, 2, 1, 2, 1, 1],
        [3, 3, 2, 0, 3, 3, 3, 2, 1, 2, 1],
        [0, 1, 2, 3, 0, -1, 0, 1, 2, 0, 1],
        [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1]],
}


def test_criterion_2_qminus1_gram_tables():
    t0 = time.perf_counter()
    for n, want in QM1_TABLES.items():
        labels, rows = gramdet.gram_matrix(n, q=-1, basis="partitions")
        assert labels == list(partitions_of(n))
        assert [list(r) for r in rows] == want, n
    i = list(partitions_of(5)).index((2, 2, 1))
    assert QM1_TABLES[5][i][i] == -3
    report(2, time.perf_counter() - t0, 1.0,
           "q=-1 partition Gram tables degrees 1..6")


# --------------------------------------------------------------------------
# criterion 3: signed Kostka tables, degrees 1..5

KOSTKA_TABLES = {
    1: [[1]],
    2: [[1, 0],
        [1, 1]],
    3: [[1, 0, 0],
        [0, 1, 0],
        [1, 1, 1]],
    4: [[1, 0, 0, 0, 0],
        [1, 1, 0, 0, 0],
        [0, 1, 1, 0, 0],
        [1, 0, -1, 1, 0],
        [1, 1, 1, 1, 1]],
    5: [[1, 0, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0, 0],
        [-1, 0, 1, 0, 0, 0, 0],
        [2, 1, -1, 1, 0, 0, 0],
        [1, 1, 0, 1, 1, 0, 0],
        [0, 1, 2, 0, -1, 1, 0],
        [1, 1, 1, 1, 1, 1, 1]],
}


def test_criterion_3_kostka_tables():
    t0 = time.perf_counter()
    for n, want in KOSTKA_TABLES.items():
        parts, rows = bases.kostka_matrix(n)
        assert parts == partitions_of(n)
        assert [list(r) for r in rows] == want, n
    parts = list(partitions_of(5))
    assert KOSTKA_TABLES[5][parts.index((3, 1, 1))][parts.index((1, 1, 1, 1, 1))] == 2
    assert KOSTKA_TABLES[5][parts.index((4, 1))][parts.index((2, 2, 1))] == 2
    report(3, time.perf_counter() - t0, 1.0, "Kostka tables degrees 1..5")


# --------------------------------------------------------------------------
# criterion 4: monomial / forgotten / Schur expansion lists

MONOMIAL_LIST = {
    (1,): {(1,): 1},
    (1, 1): {(1, 1): -1, (2,): 1},
    (2,): {(1, 1): 1},
    (1, 1, 1): {(1, 1, 1): -1, (3,): 1},
    (2, 1): {(2, 1): -1, (3,): 1},
    (3,): {(1, 1, 1): 1, (2, 1): 1, (3,): -1},
    (1, 1, 1, 1): {(1, 1, 1, 1): 1, (2, 1, 1): -1, (2, 2): 1, (4,): -1},
    (2, 1, 1): {(1, 1, 1, 1): -1, (3, 1): 1},
    (2, 2): {(1, 1, 1, 1): 1, (2, 2): 1, (4,): -2},
    (3, 1): {(2, 1, 1): 1, (3, 1): -1},
    (4,): {(1, 1, 1, 1): -1, (2, 2): -2, (4,): 4},
}

FORGOTTEN_LIST = {
    (1,): {(1,): 1},
    (1, 1): {(2,): 1},
    (2,): {(1, 1): 1},
    (1, 1, 1): {(3,): 1},
    (2, 1): {(2, 1): -1, (3,): 1},
    (3,): {(1, 1, 1): 1, (2, 1): 1, (3,): -1},
    (1, 1, 1, 1): {(4,): 1},
    (2, 1, 1): {(3, 1): 1},
    (2, 2): {(2, 2): -1, (4,): 2},
    (3, 1): {(2, 1, 1): 1, (3, 1): -1},
    # resolved by the dual-basis computation; the printed line has a stray
    # e_22 where h_22 is meant (checked against f_n = -m_n in this degree)
    (4,): {(1, 1, 1, 1): 1, (2, 2): 2, (4,): -4},
}

SCHUR_LIST = {
    (1,): {(1,): 1},
    (1, 1): {(1, 1): 1, (2,): -1},
    (2,): {(2,): 1},
    (1, 1, 1): {(1, 1, 1): 1, (3,): -1},
    (2, 1): {(2, 1): 1, (3,): -1},
    (3,): {(3,): 1},
    (1, 1, 1, 1): {(1, 1, 1, 1): 1, (2, 1, 1): -1, (2, 2): 1, (4,): -1},
    # printed with a duplicated label s_2111; this is the degree-4 line
    (2, 1, 1): {(2, 1, 1): 1, (2, 2): -1, (3, 1): -1, (4,): 1},
    (2, 2): {(2, 2): 1, (3, 1): 1, (4,): -2},
    (3, 1): {(3, 1): 1, (4,): -1},
    (4,): {(4,): 1},
    (1, 1, 1, 1, 1): {(1, 1, 1, 1, 1): 1, (2, 2, 1): 1, (3, 1, 1): -1,
                      (4, 1): -2, (5,): 1},
    (2, 1, 1, 1): {(2, 1, 1, 1): 1, (3, 1, 1): -1, (4, 1): -1, (5,): 1},
    (2, 2, 1): {(2, 2, 1): 1, (3, 1, 1): 1, (3, 2): -1, (4, 1): -3, (5,): 2},
    (3, 1, 1): {(3, 1, 1): 1, (3, 2): -1, (4, 1): -1, (5,): 1},
    (3, 2): {(3, 2): 1, (4, 1): 1, (5,): -2},
    (4, 1): {(4, 1): 1, (5,): -1},
    (5,): {(5,): 1},
}


def test_criterion_4_basis_expansion_lists():
    t0 = time.perf_counter()
    for mu, want in MONOMIAL_LIST.items():
        assert bases.monomial(mu) == OddElt(want), ("m", mu)
    for mu, want in FORGOTTEN_LIST.items():
        assert bases.forgotten(mu) == OddElt(want), ("f", mu)
    for lam, want in SCHUR_LIST.items():
        assert bases.schur(lam) == OddElt(want), ("s", lam)
    # f_4 discrepancy report: the dual-basis vector uses h_22, and reading
    # the printed "e_22" literally would contradict bi-orthogonality
    printed_literally = h_elt((1, 1, 1, 1)) + oddring.e_elt((2, 2)).scale(2) \
        - h_elt((4,)).scale(4)
    assert bases.forgotten((4,)) != printed_literally
    assert bases.forgotten((4,)) == bases.monomial((4,)).scale(-1)
    print("ACCEPTANCE 4 note: printed f_4 line (with e_22) differs from the "
          "computed dual basis vector; resolved to h_1111 + 2 h_22 - 4 h_4")
    report(4, time.perf_counter() - t0, 1.0,
           "monomial/forgotten (deg <= 4) and Schur (deg <= 5) lists")


# --------------------------------------------------------------------------
# criterion 5: odd RSK sign theorem, exhaustive to weight 6


def test_criterion_5_odd_rsk_sign_theorem():
    t0 = time.perf_counter()
    total_matrices = 0
    for n in range(1, 7):
        for cls in rsk_verify_degree(n):
            assert cls["ok"], (n, cls["mu"], cls["rho"])
            total_matrices += len(cls["matrices"])
            assert cls["aggregate_sign_count"] == cls["hh_entry"]
            assert cls["aggregate_sign_count"] == cls["kostka_identity"]
    assert total_matrices > 1000
    report(5, time.perf_counter() - t0, 30.0,
           f"sign theorem over {total_matrices} matrices, weights 1..6")


# --------------------------------------------------------------------------
# criterion 6: Schur orthonormality and semi-orthogonality to degree 7


def test_criterion_6_schur_orthonormality_and_semiorthogonality():
    t0 = time.perf_counter()
    for n in range(1, 8):
        assert not bases.schur_orthonormality(n), n
        assert not oddring.semiorthogonality_check(n), n
    report(6, time.perf_counter() - t0, 30.0,
           "signed orthonormality and semi-orthogonality, degrees 1..7")


# --------------------------------------------------------------------------
# criterion 7: Hopf suite to total degree 6


def test_criterion_7_hopf_suite():
    t0 = time.perf_counter()
    results = dict(cli.run_suite("hopf", 6))
    assert list(results) == (
        ["hopf/adjointness"]
        + [f"hopf/{check} deg {n}" for n in range(7)
           for check in ("antipode-axiom", "composite-involutive")]
        + ["hopf/group-relations", "hopf/images", "hopf/generating-function",
           "hopf/schur-action"]
    )
    assert not any(results.values()), {k: v for k, v in results.items() if v}
    report(7, time.perf_counter() - t0, 30.0,
           "adjointness, antipode axiom, relations, closed forms, "
           "generating function, Schur actions (degree <= 6)")


@pytest.mark.xfail(
    strict=True,
    reason="known discrepancy: the unique convolution-inverse antipode is not "
    "involutive (S^2 moves h_2 already in degree 2), while the involutive "
    "composite fails the antipode axiom on h_11, whose q = -1 coproduct has "
    "no middle terms.  The two properties demanded of a single map by this "
    "criterion are mutually exclusive; see README, known discrepancies.",
)
def test_criterion_7_antipode_square_is_identity():
    for n in range(7):
        for lam in partitions_of(n):
            assert hopf.antipode(hopf.antipode(h_elt(lam))) == h_elt(lam), lam


# --------------------------------------------------------------------------
# criterion 8: two-route multiplication, words of <= 4 letters, degree <= 8


def test_criterion_8_two_route_normal_forms():
    t0 = time.perf_counter()
    words = 0
    for n in range(1, 9):
        for word in compositions_of(n):
            if len(word) > 4:
                continue
            assert h_elt(word) == oddring.normalize_via_gram({form.h_word(word): 1}), word
            words += 1
    report(8, time.perf_counter() - t0, 60.0,
           f"straightening = Gram projection on {words} words")


# --------------------------------------------------------------------------
# criterion 9: determinant degrees and factor multiplicities


def test_criterion_9_determinant_analysis():
    t0 = time.perf_counter()
    for n in range(2, 7):
        check = gramdet.det_degree_check(n)
        assert check["ok"], check
    for n in range(2, 7):
        fac = gramdet.factor_multiplicity_check(n)
        assert fac["ok"], fac
    n4 = {f["factor"]: f["multiplicity"]
          for f in gramdet.factor_multiplicity_check(4)["items"]}
    assert n4["q"] == 17 and n4["q-1"] == 4 and n4["q+1"] == 4
    assert n4["q^6+2q^4-q^3+2q^2+1"] == 1
    assert 17 + 4 + 4 + 6 == gramdet.det_degree_formula(4)
    n5 = {f["factor"]: f["multiplicity"]
          for f in gramdet.factor_multiplicity_check(5)["items"]}
    assert n5["degree-18 palindromic"] == 1
    report(9, time.perf_counter() - t0, 300.0,
           "determinant degrees 2..6 and multiplicities 2..6")


# --------------------------------------------------------------------------
# criterion 10: primitives and centrality


def test_criterion_10_primitives():
    t0 = time.perf_counter()
    for n in range(1, 9):
        want = 1 if (n == 1 or n % 2 == 0) else 0
        ps = hopf.primitives(n)
        assert len(ps) == want, n
        for p in ps:
            assert hopf.is_primitive(p)
        if want:
            pn = bases.power_sum(n)
            assert ps[0] in (pn, pn.scale(-1))
    expected_power_sums = {
        1: {(1,): 1},
        2: {(1, 1): 1},
        3: {(1, 1, 1): 1, (2, 1): 1, (3,): -1},
        4: {(1, 1, 1, 1): -1, (2, 2): -2, (4,): 4},
        5: {(1, 1, 1, 1, 1): 1, (2, 1, 1, 1): 1, (2, 2, 1): 3, (3, 1, 1): -1,
            (3, 2): -3, (4, 1): -9, (5,): 9},
        6: {(1, 1, 1, 1, 1, 1): 1, (2, 2, 1, 1): 3, (3, 3): -3, (4, 1, 1): -6,
            (5, 1): 6},
    }
    for n, terms in expected_power_sums.items():
        assert bases.power_sum(n) == OddElt(terms), n
    for k in range(1, 8):
        assert not hopf.centrality_check(k, 8), k
        p = bases.power_sum(k)
        central = all(p * h_elt((m,)) == h_elt((m,)) * p for m in range(1, 9 - k))
        assert central == (k % 2 == 0), k
    report(10, time.perf_counter() - t0, 30.0,
           "primitive dimensions (deg <= 8), power sums 1..6, centrality")


# --------------------------------------------------------------------------
# criterion 11: descent form routes agree to degree 7


def test_criterion_11_htilde_routes():
    t0 = time.perf_counter()
    assert form.pair_htilde((3, 1), (2, 2)) == M(2)
    pairs = 0
    for n in range(1, 8):
        bad, count = htilde_mismatches(n)
        assert not bad, (n, bad[:5])
        pairs += count
    report(11, time.perf_counter() - t0, 60.0,
           f"the row recursion, the S_n sweep and inclusion-exclusion agree on "
           f"{pairs} composition pairs")
