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
from .bases import _partition, kostka_matrix, kostka_unsigned
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


def odd_rsk_check(mu, rho) -> dict:
    """Sign-tracked RSK over one margin class.

    For each N-matrix with row margins mu and column margins rho (partitions
    of the same weight) checks sign(A) = shape_sign(shape) * sign(P) * sign(Q)
    and that (P, Q) is a same-shape SSYT pair with contents (rho, mu).  The
    map is then a bijection onto those pairs by counting: distinct images,
    as many as sum_lam K0[lam][rho] K0[lam][mu] with K0 the plain SSYT
    counts.  The signed count must equal the (h,h) entry and the Kostka sum.

    One depth-first pass fills the rows top to bottom with row_fillings under
    the column margins left, in the order of matrices_with_margins.  Each
    row is inserted into copies of its parent's P and Q, so matrices sharing
    their first rows share that work, and the row exponents sum to
    matrix_inv, whose parity is sign(A).  Within the class the row fillings
    of each (row, column margins left) with their JSON, and the facts of each
    distinct P and Q (JSON lists, sign, shape, SSYT of the right content),
    are found once.  A record is kept as the JSON text of its sign_record and
    "ok", joined at the leaf from those pieces and the ", "-led row texts.
    """
    mu, rho = _partition(mu), _partition(rho)
    if sum(mu) != sum(rho):
        raise ValueError("row and column margins have different weights")
    entries = []
    images = set()
    p_facts, q_facts, row_memo = {}, {}, {}
    total, all_ok = 0, True

    def facts(memo, key, content):
        # an entry outside 1..len(content) fails the check rather than raise
        if key not in memo:
            t = Tableau(key)
            lists, sign, shape = tableau_facts(t)
            ssyt = t.is_semistandard() and max(map(max, key), default=0) <= len(content)
            memo[key] = (key, json.dumps(lists), sign, shape,
                         ssyt and t.content(len(content)) == content)
        return memo[key]

    def fill(i, prefix, left, inv, p_rows, q_rows):
        nonlocal total, all_ok
        if i == len(mu):
            p = facts(p_facts, tuple(map(tuple, p_rows)), rho)
            q = facts(q_facts, tuple(map(tuple, q_rows)), mu)
            sign_a, sign_s = -1 if inv % 2 else 1, shape_sign(p[3])
            ok = sign_a == sign_s * p[2] * q[2] and p[3] == q[3] and p[4] and q[4]
            entries.append(f'{{"matrix": [{prefix[2:]}], "P": {p[1]}, "Q": {q[1]}, '
                           f'"sign_A": {sign_a}, "sign_P": {p[2]}, "sign_Q": {q[2]}, '
                           f'"shape_sign": {sign_s}, "ok": {"true" if ok else "false"}}}')
            images.add((p[0], q[0]))  # the memo's keys, not this leaf's tuples
            total, all_ok = total + sign_a, all_ok and ok
            return
        if (i, left) not in row_memo:
            # the last row is what the column margins leave, with no rows below
            row_memo[i, left] = [(m, exp, ", " + json.dumps(m)) for m, exp in (
                [(left, 0)] if i == len(mu) - 1 else row_fillings(mu[i], left, left))]
        for m, exp, text in row_memo[i, left]:
            p, q = [list(r) for r in p_rows], [list(r) for r in q_rows]
            _insert_row(p, q, i + 1, m)
            fill(i + 1, prefix + text, tuple(map(sub, left, m)), inv + exp, p, q)

    fill(0, "", rho, 0, [], [])
    parts, table = kostka_matrix(sum(mu))
    pairs = sum(kostka_unsigned(lam, rho) * kostka_unsigned(lam, mu) for lam in parts)
    bijective = all_ok and len(images) == len(entries) == pairs
    aggregate = form.pair_h_at(mu, rho, -1)
    m, r = parts.index(mu), parts.index(rho)
    kostka_sum = sum(shape_sign(lam) * row[m] * row[r] for lam, row in zip(parts, table))
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
    n, yielded one class at a time so no record outlives its class."""
    for mu in partitions_of(n):
        for rho in partitions_of(n):
            yield odd_rsk_check(mu, rho)


def sign_theorem_check(n: int) -> list:
    """The first margin class of weight n that fails odd_rsk_check, as a
    one-item list; empty when every class passes."""
    for report in rsk_verify_degree(n):
        if not report["ok"]:
            return [decoded(report)]
    return []
