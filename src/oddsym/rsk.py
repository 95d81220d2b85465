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

from . import form
from .bases import kostka_matrix, kostka_unsigned
from .combinat import (
    Tableau,
    matrices_with_margins,
    matrix_sign,
    partitions_of,
    shape_sign,
)

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


def insert_word(word) -> tuple[Tableau, int]:
    """Insert the letters of a word successively into the empty tableau.

    Returns the insertion tableau and the number of elementary Knuth moves
    performed: a bump through row j of length L contributes L - 1 (a bump
    leaves the lengths of the rows it passes through unchanged).
    """
    rows: list[list[int]] = []
    moves = 0
    for x in word:
        r, _ = _bump(rows, x)
        moves += sum(len(rows[j]) - 1 for j in range(r))
    return Tableau(rows), moves


def knuth_normalize(word) -> tuple[Tableau, int]:
    """The unique tableau whose row word is Knuth equivalent to the word,
    with the parity (0/1) of the number of elementary moves used."""
    word = tuple(word)
    if not word:
        raise ValueError("empty word")
    tab, moves = insert_word(word)
    return tab, moves % 2


def odd_plactic_reduce(word) -> tuple[int, tuple[int, ...]]:
    """Canonical signed form in the odd plactic ring: (sign, row word)."""
    tab, parity = knuth_normalize(word)
    return (-1 if parity else 1), tab.row_word()


def knuth_neighbors(word):
    """Words one elementary Knuth move away (either direction)."""
    word = tuple(word)
    out = set()
    for i in range(len(word) - 2):
        a, b, c = word[i : i + 3]
        # (K'): y z x <-> y x z
        y, z, x = a, b, c
        if x < y <= z:
            out.add(word[:i] + (y, x, z) + word[i + 3 :])
        y, x, z = a, b, c
        if x < y <= z:
            out.add(word[:i] + (y, z, x) + word[i + 3 :])
        # (K''): x z y <-> z x y
        x, z, y = a, b, c
        if x <= y < z:
            out.add(word[:i] + (z, x, y) + word[i + 3 :])
        z, x, y = a, b, c
        if x <= y < z:
            out.add(word[:i] + (x, z, y) + word[i + 3 :])
    out.discard(word)
    return sorted(out)


# ---------------------------------------------------------------------------
# RSK


def two_line_array(matrix) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Book-reading two-line array of an N-matrix; an entry k stands for k
    coincident unit entries."""
    u, v = [], []
    for i, row in enumerate(matrix):
        for j, a in enumerate(row):
            if a < 0:
                raise ValueError("matrix entries must be nonnegative")
            u.extend([i + 1] * a)
            v.extend([j + 1] * a)
    return tuple(u), tuple(v)


def rsk(matrix) -> RskPair:
    """RSK bijection.  The insertion tableau has the column sums as content,
    the recording tableau the row sums."""
    u, v = two_line_array(matrix)
    p_rows: list[list[int]] = []
    q_rows: list[list[int]] = []
    for uk, vk in zip(u, v):
        r, _ = _bump(p_rows, vk)
        if r == len(q_rows):
            q_rows.append([])
        q_rows[r].append(uk)
    return RskPair(Tableau(p_rows), Tableau(q_rows))


def sign_record(matrix, pair: RskPair) -> dict:
    """The signs of one N-matrix and its RSK image: the record that
    `rsk --matrix` prints and odd_rsk_check keeps per matrix."""
    p, q = pair
    return {
        "matrix": [list(r) for r in matrix],
        "P": p.to_lists(),
        "Q": q.to_lists(),
        "sign_A": matrix_sign(matrix),
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
    """
    mu, rho = tuple(mu), tuple(rho)
    entries = []
    images = set()
    for a in matrices_with_margins(mu, rho):
        p, q = pair = rsk(a)
        e = sign_record(a, pair)
        e["ok"] = (
            e["sign_A"] == e["shape_sign"] * e["sign_P"] * e["sign_Q"]
            and p.shape == q.shape
            and p.is_semistandard()
            and q.is_semistandard()
            and p.content(len(rho)) == rho
            and q.content(len(mu)) == mu
        )
        images.add(pair)
        entries.append(e)
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


def rsk_verify_degree(n: int) -> dict:
    """Exhaustive sign report over all partition-margin classes of weight n."""
    reports = []
    for mu in partitions_of(n):
        for rho in partitions_of(n):
            reports.append(odd_rsk_check(mu, rho))
    return {"degree": n, "ok": all(r["ok"] for r in reports), "classes": reports}


def sign_theorem_check(n: int) -> list:
    """The first margin class of weight n that fails odd_rsk_check, as a
    one-item list; empty when every class passes."""
    return [c for c in rsk_verify_degree(n)["classes"] if not c["ok"]][:1]
