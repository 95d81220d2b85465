"""Row insertion, the RSK correspondence, Knuth equivalence, and the
sign-tracked correspondence behind the Kostka identity for the (h,h) table.

Elementary Knuth moves (bumping forms):
    (K')  y z x  <->  y x z   when x < y <= z
    (K'') x z y  <->  z x y   when x <= y < z
Both transpose two letters, so each move flips the word sign; the odd
plactic ring imposes the same relations with a coefficient of -1.
"""

from bisect import bisect_right
from collections import namedtuple
from operator import sub

from . import form
from .bases import kostka_matrix, kostka_unsigned
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


def sign_record(matrix, pair: RskPair, sign_a: int) -> dict:
    """The signs of one N-matrix, sign(A) = (-1)^matrix_inv(A), and its RSK
    image: the record that `rsk --matrix` prints and odd_rsk_check keeps per
    matrix."""
    p, q = pair
    return {
        "matrix": [list(r) for r in matrix],
        "P": p.to_lists(),
        "Q": q.to_lists(),
        "sign_A": sign_a,
        "sign_P": p.sign(),
        "sign_Q": q.sign(),
        "shape_sign": shape_sign(p.shape),
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
    matrix_inv, whose parity is sign(A).
    """
    mu, rho = tuple(mu), tuple(rho)
    if sum(mu) != sum(rho):
        raise ValueError("row and column margins have different weights")
    entries = []
    images = set()

    def fill(i, rows, left, inv, p_rows, q_rows):
        if i == len(mu):
            p, q = pair = RskPair(Tableau(p_rows), Tableau(q_rows))
            e = sign_record(rows, pair, -1 if inv % 2 else 1)
            e["ok"] = (
                e["sign_A"] == e["shape_sign"] * e["sign_P"] * e["sign_Q"]
                and p.shape == q.shape
                and p.is_semistandard()
                and q.is_semistandard()
                and p.content(len(rho)) == rho
                and q.content(len(mu)) == mu
            )
            images.add((p.rows, q.rows))
            entries.append(e)
            return
        # the last row is what the column margins leave, with no rows below
        fillings = [(left, 0)] if i == len(mu) - 1 else row_fillings(mu[i], left, left)
        for m, exp in fillings:
            p, q = [list(r) for r in p_rows], [list(r) for r in q_rows]
            _insert_row(p, q, i + 1, m)
            fill(i + 1, rows + (m,), tuple(map(sub, left, m)), inv + exp, p, q)

    fill(0, (), rho, 0, [], [])
    parts, table = kostka_matrix(sum(mu))
    pairs = sum(kostka_unsigned(lam, rho) * kostka_unsigned(lam, mu) for lam in parts)
    bijective = all(e["ok"] for e in entries) and len(images) == len(entries) == pairs
    total = sum(e["sign_A"] for e in entries)
    aggregate = form.pair_h_at(mu, rho, -1)
    m, r = parts.index(mu), parts.index(rho)
    kostka_sum = sum(
        shape_sign(lam) * row[m] * row[r] for lam, row in zip(parts, table)
    )
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
            return [report]
    return []
