"""Partitions, compositions, tableaux and the sign statistics built on them.

Partitions and compositions are plain tuples of positive ints (partitions
weakly decreasing).  Everything here is immutable and pure.  One row kernel,
row_fillings, fills a row under a limit per column: margin matrices are filled
with it row by row, SSYT strip by strip, and the form reads it too.
"""

from functools import lru_cache
from itertools import accumulate


# ---------------------------------------------------------------------------
# partitions / compositions


def is_partition(seq) -> bool:
    parts = tuple(seq)
    return all(p >= 1 for p in parts) and all(
        parts[i] >= parts[i + 1] for i in range(len(parts) - 1)
    )


@lru_cache(maxsize=None)
def partitions_of(n: int, max_part: int | None = None) -> tuple[tuple[int, ...], ...]:
    """All partitions of n in ascending lexicographic order.

    The optional bound restricts the largest part.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if max_part is None or max_part > n:
        max_part = n
    if n == 0:
        return ((),)
    out = []
    for first in range(1, max_part + 1):
        for rest in partitions_of(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def compositions_of(n: int) -> tuple[tuple[int, ...], ...]:
    """All 2^(n-1) compositions of n in ascending lexicographic order."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return ((),)
    out = []
    for first in range(1, n + 1):
        for rest in compositions_of(n - first):
            out.append((first,) + rest)
    return tuple(out)


def sort_to_partition(seq) -> tuple[int, ...]:
    return tuple(sorted(seq, reverse=True))


def transpose(lam) -> tuple[int, ...]:
    """Conjugate partition (column heights of the Young diagram)."""
    lam = tuple(lam)
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p >= i) for i in range(1, lam[0] + 1))


def triangular(k: int) -> int:
    """k(k+1)/2, the sign-governing statistic of the odd calculus."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return k * (k + 1) // 2


def triangular_sum(seq) -> int:
    return sum(triangular(a) for a in seq)


def dominates(lam, mu) -> bool:
    """Dominance partial order: prefix sums of lam >= those of mu."""
    lam, mu = tuple(lam), tuple(mu)
    if sum(lam) != sum(mu):
        return False
    acc_l = acc_m = 0
    for i in range(max(len(lam), len(mu))):
        acc_l += lam[i] if i < len(lam) else 0
        acc_m += mu[i] if i < len(mu) else 0
        if acc_l < acc_m:
            return False
    return True


def sw_ne_pairs(lam) -> int:
    """Number of box pairs of the Young diagram with one box strictly
    below and strictly left of the other.

    For rows i < k the pairs between them number lam_i*lam_k - T(lam_k),
    T the triangular number.
    """
    lam = tuple(lam)
    total = 0
    for i in range(len(lam)):
        for k in range(i + 1, len(lam)):
            total += lam[i] * lam[k] - triangular(lam[k])
    return total


def shape_sign(lam) -> int:
    """(-1)^(lam_2 + lam_4 + ...), equal to (-1)^(T(lam^T) + |lam|)."""
    return -1 if sum(lam[1::2]) % 2 else 1


def reverse_sort_sign(lam) -> int:
    """Sign accrued sorting the reversed parts back into weakly decreasing
    order, counting -1 whenever an odd part passes an even part on its right.
    """
    rev = tuple(reversed(tuple(lam)))
    count = 0
    for i in range(len(rev)):
        for j in range(i + 1, len(rev)):
            if rev[i] < rev[j] and rev[i] % 2 == 1 and rev[j] % 2 == 0:
                count += 1
    return -1 if count % 2 else 1


def inversions(word) -> int:
    """Strict inversions of a finite sequence."""
    word = tuple(word)
    count = 0
    for i, x in enumerate(word):
        for y in word[i + 1 :]:
            if x > y:
                count += 1
    return count


def word_sign(word) -> int:
    """Sign of the minimal-length permutation sorting word ascending."""
    return -1 if inversions(word) % 2 else 1


# ---------------------------------------------------------------------------
# tableaux


class Tableau:
    """Semistandard Young tableau with rows stored as tuples of ints.

    Row entries weakly increase, column entries strictly increase; row 1 is
    the top (longest) row.
    """

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = tuple(map(tuple, rows))

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(map(len, self.rows))

    def content(self, width: int) -> tuple[int, ...]:
        """Multiplicity vector of the entries 1..width; raises ValueError on
        any other entry."""
        counts = [0] * width
        for r in self.rows:
            for x in r:
                if not 1 <= x <= width:
                    raise ValueError(f"entry {x} outside 1..{width}")
                counts[x - 1] += 1
        return tuple(counts)

    def row_word(self) -> tuple[int, ...]:
        """Entries read left to right, bottom row to top row."""
        out = []
        for r in reversed(self.rows):
            out.extend(r)
        return tuple(out)

    def sign(self) -> int:
        return word_sign(self.row_word())

    def is_semistandard(self) -> bool:
        """Nonempty rows no longer than the row above, entries at least 1,
        weakly increasing along rows and strictly down columns."""
        upper = None
        for r in self.rows:
            if not r or upper is not None and len(r) > len(upper):
                return False
            prev = 1
            for x in r:
                if x < prev:
                    return False
                prev = x
            if upper is not None:
                for a, b in zip(upper, r):
                    if a >= b:
                        return False
            upper = r
        return True

    def to_lists(self) -> list[list[int]]:
        return [list(r) for r in self.rows]

    def __eq__(self, other):
        return isinstance(other, Tableau) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"Tableau({[list(r) for r in self.rows]})"


def superstandard(lam) -> Tableau:
    """The unique SSYT with shape and content both lam (row i filled with i)."""
    return Tableau([(i + 1,) * p for i, p in enumerate(lam)])


# ---------------------------------------------------------------------------
# one row under a limit per column, and the tableaux (strip by strip) and
# margin matrices (row by row) filled from it


def row_fillings(total: int, caps: tuple[int, ...], limits: tuple[int, ...]):
    """Every row 0 <= m_j <= limits[j] summing to total, in lexicographic
    order, as (m, exponent) pairs.  caps are the column margins left for this
    row and the rows below it (limits[j] <= caps[j]); the exponent counts the
    SW-NE pairs the row makes with the rows below, so an entry v in column j
    adds v times the entries left of j below it.  Each entry is at least
    what the limits of the later columns cannot hold, so every branch ends in
    a row, and once the total is placed the rest of the row is zero.
    """
    ncols = len(caps)
    room = list(accumulate(reversed(limits), initial=0))[::-1]
    out = []

    def rec(j: int, left: int, below: int, exp: int, row: tuple[int, ...]):
        if not left:
            out.append((row + (0,) * (ncols - j), exp))
            return
        for v in range(max(0, left - room[j + 1]), min(left, limits[j]) + 1):
            rec(j + 1, left - v, below + caps[j] - v, exp + v * below, row + (v,))

    if total <= room[0]:
        rec(0, total, 0, 0, ())
    return out


def ssyt(shape, content) -> list[Tableau]:
    """All semistandard Young tableaux of the given shape and content.

    Each entry i is placed as one horizontal strip, which widens row r by at
    most min(shape_r, nu_(r-1)) - nu_r, nu the shape filled so far.  Output
    order is strip order: lexicographic in the row widths of each strip.
    """
    shape, content = tuple(shape), tuple(content)
    if sum(shape) != sum(content):
        raise ValueError("shape and content have different weights")
    if not is_partition(shape):
        raise ValueError(f"not a partition: {shape}")
    found: list[Tableau] = []

    def add(i: int, rows: tuple[tuple[int, ...], ...]) -> None:
        if i == len(content):
            found.append(Tableau(rows))
            return
        nu = tuple(map(len, rows))
        limits = tuple(min(lam, top) - n for lam, top, n in zip(shape, shape[:1] + nu, nu))
        for m, _ in row_fillings(content[i], limits, limits):
            add(i + 1, tuple(r + (i + 1,) * k for r, k in zip(rows, m)))

    add(0, ((),) * len(shape))
    return found


def matrices_with_margins(row_sums, col_sums):
    """All N-matrices with the given row and column sums.

    Rows are filled top to bottom by row_fillings under the column margins
    left, each row in lexicographic order.  Raises on mismatched weights.
    """
    row_sums, col_sums = tuple(row_sums), tuple(col_sums)
    if sum(row_sums) != sum(col_sums):
        raise ValueError("row and column margins have different weights")
    out = []

    def fill(i: int, rows: tuple[tuple[int, ...], ...], left: tuple[int, ...]):
        if i == len(row_sums):
            out.append(rows)
            return
        for m, _ in row_fillings(row_sums[i], left, left):
            fill(i + 1, rows + (m,), tuple(c - v for c, v in zip(left, m)))

    fill(0, (), col_sums)
    return out


def matrix_inv(matrix) -> int:
    """Sum over SW-NE entry pairs of the product of the two entries.

    One pass from the bottom row up: each entry is multiplied by the entries
    strictly below it and strictly to its left, read off the column sums of
    the rows below.
    """
    total = 0
    below = [0] * max(map(len, matrix), default=0)
    for row in reversed(matrix):
        left = 0
        for j, a in enumerate(row):
            total += a * left
            left += below[j]
            below[j] += a
    return total


def matrix_sign(matrix) -> int:
    return -1 if matrix_inv(matrix) % 2 else 1
