"""Row insertion, the RSK correspondence, Knuth equivalence, and the
sign-tracked correspondence behind the Kostka identity for the (h,h) table.

Elementary Knuth moves (bumping forms):
    (K')  y z x  <->  y x z   when x < y <= z
    (K'') x z y  <->  z x y   when x <= y < z
Both transpose two letters, so each move flips the word sign; the odd
plactic ring imposes the same relations with a coefficient of -1.
"""

import json
from bisect import bisect_right
from collections import namedtuple
from operator import sub

from . import form
from .bases import _kostka_column, _partition
from .combinat import Tableau, inversions, partitions_of, row_fillings, shape_sign

RskPair = namedtuple("RskPair", ["insertion", "recording"])


def _bump(rows: list[list[int]], x: int) -> tuple[int, int]:
    """Schensted row insertion in place: bump the leftmost entry greater
    than x.  Returns the (row, col) of the added box, 0-indexed."""
    for i, row in enumerate(rows):
        j = bisect_right(row, x)
        if j == len(row):
            row.append(x)
            return i, j
        row[j], x = x, row[j]
    rows.append([x])
    return len(rows) - 1, 0


def row_insert(tab: Tableau, x: int) -> tuple[Tableau, tuple[int, int]]:
    """Row insertion into a copy of the tableau; returns the new tableau and
    the position of the added box."""
    rows = [list(r) for r in tab.rows]
    pos = _bump(rows, x)
    return Tableau(rows), pos


def insert_word(word) -> Tableau:
    """Insert the letters of a word successively into the empty tableau."""
    rows: list[list[int]] = []
    for x in word:
        _bump(rows, x)
    return Tableau(rows)


def knuth_normalize(word) -> tuple[Tableau, int]:
    """The unique tableau whose row word is Knuth equivalent to the word,
    with the parity (0/1) of the number of elementary moves between them.

    Each move transposes two distinct letters, so that parity is the
    difference of the inversion parities of the word and the row word.
    """
    word = tuple(word)
    if not word:
        raise ValueError("empty word")
    tab = insert_word(word)
    return tab, (inversions(word) + inversions(tab.row_word())) % 2


def odd_plactic_reduce(word) -> tuple[int, tuple[int, ...]]:
    """Canonical signed form in the odd plactic ring: (sign, row word)."""
    tab, parity = knuth_normalize(word)
    return (-1 if parity else 1), tab.row_word()


# ---------------------------------------------------------------------------
# RSK


def _insert_row(p_rows: list[list[int]], q_rows: list[list[int]], i: int, row) -> None:
    """RSK of matrix row i (1-indexed) in place: each entry a in column j
    inserts j into P a times and records i in Q where P grew."""
    for j, a in enumerate(row, 1):
        for _ in range(a):
            r, _ = _bump(p_rows, j)
            if r == len(q_rows):
                q_rows.append([])
            q_rows[r].append(i)


def rsk(matrix) -> RskPair:
    """RSK bijection.  The insertion tableau has the column sums as content,
    the recording tableau the row sums."""
    p_rows: list[list[int]] = []
    q_rows: list[list[int]] = []
    for i, row in enumerate(matrix, 1):
        if any(a < 0 for a in row):
            raise ValueError("matrix entries must be nonnegative")
        _insert_row(p_rows, q_rows, i, row)
    return RskPair(Tableau(p_rows), Tableau(q_rows))


def tableau_facts(t: Tableau) -> tuple:
    """What a sign record reads of a tableau: its lists, sign and shape."""
    return t.to_lists(), t.sign(), t.shape


def sign_record(matrix, p: tuple, q: tuple, sign_a: int) -> dict:
    """The signs of one N-matrix, sign(A) = (-1)^matrix_inv(A), and of its
    RSK image, given as the tableau_facts of P and Q: the record that
    `rsk --matrix` prints and, with its check, odd_rsk_check keeps as JSON."""
    return {
        "matrix": [list(r) for r in matrix],
        "P": p[0],
        "Q": q[0],
        "sign_A": sign_a,
        "sign_P": p[1],
        "sign_Q": q[1],
        "shape_sign": shape_sign(p[2]),
    }


def odd_rsk_check(mu, rho, table=None) -> dict:
    """Sign-tracked RSK over one margin class.

    For each N-matrix with row margins mu and column margins rho (partitions
    of the same weight) checks sign(A) = shape_sign(shape) * sign(P) * sign(Q)
    and that (P, Q) is a same-shape SSYT pair with contents (rho, mu).  The
    map is then a bijection onto those pairs by counting: distinct images,
    as many as sum_lam K0[lam][rho] K0[lam][mu] with K0 the plain SSYT
    counts.  The signed count must equal the (h,h) entry and the Kostka sum.

    One depth-first pass fills the rows top to bottom with row_fillings under
    the column margins left, in the order of matrices_with_margins; the row
    exponents sum to matrix_inv, whose parity is sign(A).  P and Q are ids of
    tableaux in a table, made afresh unless given, that rsk_verify_degree
    shares among a degree's classes.  Each step (P, row) -> (P', rows where P
    grew) is made once per table, Q' being Q plus label i in those rows, and
    so are each tableau's JSON, sign, shape and content if an SSYT, which each
    record compares with its own class's margins.  A record is the JSON text
    of its sign_record and "ok", joined from those and the JSON of each row.
    """
    mu, rho = _partition(mu), _partition(rho)
    if sum(mu) != sum(rho):
        raise ValueError("row and column margins have different weights")
    ids, tabs, steps, facts = table or ({(): 0}, {0: ()}, {}, {})
    entries, images, row_memo, total, all_ok = [], set(), {}, 0, True

    def state(rows):  # each distinct tableau gets the next id
        tabs[ids.setdefault(rows, len(ids))] = rows
        return ids[rows]

    def fact(s):
        if s not in facts:
            t = Tableau(tabs[s])
            lists, sign, shape = tableau_facts(t)
            content = t.is_semistandard() and t.content(max(map(max, t.rows), default=0))
            facts[s] = json.dumps(lists), sign, shape, shape_sign(shape), content
        return facts[s]

    def fill(i, prefix, left, sign_a, p, q):
        nonlocal total, all_ok
        if i == len(mu):
            pf, qf = fact(p), fact(q)
            ok = sign_a == pf[3] * pf[1] * qf[1] and pf[2] == qf[2] and (pf[4], qf[4]) == (rho, mu)
            entries.append(f'{{"matrix": [{prefix[2:]}], "P": {pf[0]}, "Q": {qf[0]}, '
                           f'"sign_A": {sign_a}, "sign_P": {pf[1]}, "sign_Q": {qf[1]}, '
                           f'"shape_sign": {pf[3]}, "ok": {"true" if ok else "false"}}}')
            images.add((p, q))
            total, all_ok = total + sign_a, all_ok and ok
            return
        if (i, left) not in row_memo:
            # the last row is what the column margins leave, with no rows below
            row_memo[i, left] = [(m, (-1) ** exp, ", " + json.dumps(m), tuple(map(sub, left, m)))
                                 for m, exp in ([(left, 0)] if i == len(mu) - 1
                                                else row_fillings(mu[i], left, left))]
        for m, sign, text, rest in row_memo[i, left]:
            if (p, m) not in steps:
                rows, grown = [list(r) for r in tabs[p]], [[] for _ in tabs[p]]
                _insert_row(rows, grown, i + 1, m)
                steps[p, m] = state(tuple(map(tuple, rows))), tuple(map(len, grown))
            p2, grown = steps[p, m]
            if (q, i, grown) not in steps:
                rows = zip(tabs[q] + ((),), grown)  # P grows by at most one row
                steps[q, i, grown] = state(tuple(r + (i + 1,) * k for r, k in rows))
            fill(i + 1, prefix + text, rest, sign_a * sign, p2, steps[q, i, grown])

    fill(0, "", rho, 1, 0, 0)
    fill = None  # the closure refers to itself: break the cycle for refcounting
    pairs = kostka_sum = 0
    by_rho = _kostka_column(rho)
    for lam, (signed, plain) in _kostka_column(mu).items():
        if lam in by_rho:
            pairs += plain * by_rho[lam][1]
            kostka_sum += shape_sign(lam) * signed * by_rho[lam][0]
    bijective = all_ok and len(images) == len(entries) == pairs
    aggregate = form.pair_h_at(mu, rho, -1)
    return {
        "mu": mu,
        "rho": rho,
        "matrices": entries,
        "bijective": bijective,
        "aggregate_sign_count": total,
        "hh_entry": aggregate,
        "kostka_identity": kostka_sum,
        "ok": bijective and total == aggregate == kostka_sum,
    }


def decoded(report: dict) -> dict:
    """An odd_rsk_check report with its records as objects, for a witness."""
    return {**report, "matrices": [json.loads(e) for e in report["matrices"]]}


def rsk_verify_degree(n: int):
    """The odd_rsk_check reports of every partition-margin class of weight
    n, one class at a time so no record outlives its class; the classes of
    the degree share one state table."""
    table = {(): 0}, {0: ()}, {}, {}
    for mu in partitions_of(n):
        for rho in partitions_of(n):
            yield odd_rsk_check(mu, rho, table)


def sign_theorem_check(n: int) -> list:
    """The first margin class of weight n that fails odd_rsk_check, as a
    one-item list; empty when every class passes."""
    for report in rsk_verify_degree(n):
        if not report["ok"]:
            return [decoded(report)]
    return []
