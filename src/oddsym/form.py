"""Bilinear form on free h/e-words, computed by margin-matrix enumeration.

A word is read as signed parts, h_n as n and e_n as -n.  The pairing of two
words sums, over N-matrices A whose row margins are the left word and whose
column margins the right word, the weight q^inv(A) (inv counting SW-NE entry
pairs) times q^-T(v-1) for every entry v joining two e-letters, times
(-q)^T(n-1) for every e-letter n of either word; an entry joining an e- and
an h-letter is at most 1.  At q = -1 the (-q) factors are 1 and q^-T(v-1) is
the cable sign of the colored rule (e-letters = black platforms).

One row step, _row_steps, fills a row with combinat.row_fillings under these
limits; the generic pairing _pair_h and the q = -1 pairing _pair_colored both
read it, memoized on the remaining margins.  No word is expanded into
h-words.  Every q = -1 value comes from _pair_colored, keyed once per pair
and its transpose (A^T keeps the q = -1 weight); _pair_h serves the other q.
"""

from functools import lru_cache
from itertools import accumulate, pairwise, permutations

from .combinat import compositions_of, inversions, row_fillings, triangular
from .polyq import QPoly

H = "h"
E = "e"

Word = tuple[tuple[int, str], ...]


def h_word(parts) -> Word:
    return tuple((p, H) for p in parts)


def e_word(parts) -> Word:
    return tuple((p, E) for p in parts)


def word_degree(word: Word) -> int:
    return sum(n for n, _ in word)


# ---------------------------------------------------------------------------
# the form on colored words, as signed parts (-n for e_n)


def _signed(word: Word) -> tuple[int, ...]:
    """The signed parts, checked in one pass: n >= 1 and a color h or e."""
    out = []
    for n, c in word:
        if n < 1 or c not in (H, E):
            raise ValueError(f"not a colored letter: {(n, c)!r}")
        out.append(-n if c == E and n > 1 else n)
    return tuple(out)


def _row_steps(b: int, alpha: tuple[int, ...]) -> list[tuple[int, tuple[int, ...]]]:
    """Each filling of the signed row b against the signed columns alpha, as
    (exponent, columns left): an entry where the colors differ is at most 1,
    the exponent counts the SW-NE pairs with the rows below, and each entry v
    joining two e-letters takes off T(v-1), at most the T(-b-1) of its row.
    A part 1 has no color here (e_1 = h_1), so a column left at 1 is 1."""
    if b >= 0 and min(alpha, default=0) >= 0:
        return [(exp, tuple(a - v for a, v in zip(alpha, m) if a > v))
                for m, exp in row_fillings(b, alpha, alpha)]
    caps = tuple(map(abs, alpha))
    limits = tuple(c if (a < 0) == (b < 0) else min(c, 1) for a, c in zip(alpha, caps))
    return [(exp - sum(triangular(v - 1) for v, a in zip(m, alpha) if v > 1 and a < 0),
             tuple(a + v if a + v < -1 else c - v
                   for a, c, v in zip(alpha, caps, m) if v < c))
            for m, exp in row_fillings(abs(b), caps, limits)]


@lru_cache(maxsize=None)
def _pair_h(beta: tuple[int, ...], alpha: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """Exponent/count pairs of the generic pairing of the signed words beta
    (rows) and alpha (columns), each e-row -r times its factor (-q)^T(r-1);
    the e-columns' factors are the caller's.  Empty when the degrees differ."""
    if not beta:
        return ((0, 1),) if not alpha else ()
    b, rest = beta[0], beta[1:]
    counts: dict[int, int] = {}
    for exp, left in _row_steps(b, alpha):
        for sub_exp, sub_count in _pair_h(rest, left):
            e = exp + sub_exp
            counts[e] = counts.get(e, 0) + sub_count
    if b >= 0:
        return tuple(sorted(counts.items()))
    shift = triangular(-b - 1)
    return tuple((e + shift, -c if shift % 2 else c) for e, c in sorted(counts.items()))


def _h_words(beta, alpha) -> tuple[tuple[int, ...], tuple[int, ...]]:
    beta, alpha = tuple(beta), tuple(alpha)
    if min(beta + alpha, default=1) < 1:
        raise ValueError(f"h-word parts must be >= 1: {beta}, {alpha}")
    return beta, alpha


def pair_h_generic(beta, alpha) -> QPoly:
    """(h_beta, h_alpha) at generic q; zero when the degrees differ."""
    return QPoly.from_exponent_counts(dict(_pair_h(*_h_words(beta, alpha))))


def pair_h_at(beta, alpha, q: int) -> int:
    """(h_beta, h_alpha) at an integer q; at q = -1 the colored rule.
    ValueError for any other q whose type is not int (bool included)."""
    beta, alpha = _h_words(beta, alpha)
    if q == -1:
        b, a = (beta, alpha) if beta <= alpha else (alpha, beta)
        return _pair_colored(b, a) if sum(b) == sum(a) else 0
    if type(q) is not int:
        raise ValueError(f"q must be an integer, not {q!r}")
    return sum(c * q**e for e, c in _pair_h(beta, alpha))


def pair_words_generic(y: Word, x: Word) -> QPoly:
    """Generic-q pairing of colored words: y gives the rows and x the
    columns of one _pair_h call, and each e-column e_n adds its factor
    (-q)^T(n-1) here."""
    cols = _signed(x)
    shift = sum(triangular(-a - 1) for a in cols if a < 0)
    sign = -1 if shift % 2 else 1
    return QPoly.from_exponent_counts(
        {e + shift: sign * c for e, c in _pair_h(_signed(y), cols)}
    )


@lru_cache(maxsize=None)
def _pair_colored(beta: tuple[int, ...], alpha: tuple[int, ...]) -> int:
    """The q = -1 pairing of the signed words beta and alpha: the same rows,
    where q^exp becomes (-1)^exp and every (-q) factor is 1.  Every call passes
    the words as (min, max): transposing A swaps the margins and keeps inv, and
    an entry's limit and T(v-1) depend only on the unordered pair of colors."""
    if not beta:
        return 1 if not alpha else 0
    rest, total = beta[1:], 0
    for exp, left in _row_steps(beta[0], alpha):
        v = _pair_colored(rest, left) if rest <= left else _pair_colored(left, rest)
        total += -v if exp % 2 else v
    return total


def pair_words_odd(y, x) -> int:
    """q = -1 pairing, bilinear over formal combinations of colored words
    (single words or dicts word -> integer coefficient); terms of unequal
    degrees pair to 0 without entering the recursion."""
    ys, xs = ([(c, _signed(w)) for w, c in
               (t.items() if isinstance(t, dict) else [(t, 1)])] for t in (y, x))
    total = 0
    for cy, sy in ys:
        degree = sum(map(abs, sy))
        for cx, sx in xs:
            if cy and cx and degree == sum(map(abs, sx)):
                total += cy * cx * (_pair_colored(sy, sx) if sy <= sx else _pair_colored(sx, sy))
    return total


def e_expansion(n: int) -> dict:
    """The canonical lift of e_n to signed h-words:
    (-1)^T(n) * sum over compositions a of n of (-1)^len(a) h_a.
    """
    return {alpha: -1 if (triangular(n) + len(alpha)) % 2 else 1
            for alpha in compositions_of(n)}


# ---------------------------------------------------------------------------
# descent compositions and the platform-restricted form


def descent_composition(sigma) -> tuple[int, ...]:
    """Composition of n whose partial sums are the descent set of sigma
    (one-line notation on 1..n)."""
    sigma = tuple(sigma)
    n = len(sigma)
    descents = [k for k in range(1, n) if sigma[k - 1] > sigma[k]]
    parts = []
    prev = 0
    for d in descents + [n]:
        parts.append(d - prev)
        prev = d
    return tuple(p for p in parts if p)


def coarsenings(alpha) -> list[tuple[int, ...]]:
    """All compositions obtained by merging adjacent parts of alpha, one for
    each composition of len(alpha), read as the sizes of the merged blocks."""
    alpha = tuple(alpha)
    return [tuple(sum(alpha[i:j]) for i, j in pairwise(accumulate(c, initial=0)))
            for c in compositions_of(len(alpha))]


def htilde_expansion(alpha) -> dict:
    """h-tilde basis element as a signed sum of coarser h-words."""
    alpha = tuple(alpha)
    la = len(alpha)
    return {beta: (-1) ** (la - len(beta)) for beta in coarsenings(alpha)}


@lru_cache(maxsize=None)
def _htilde_table(n: int) -> dict:
    """dict (beta, alpha) -> QPoly from one sweep of S_n: the pairing
    sums q^length(sigma) over sigma with descent composition alpha and
    inverse descent composition beta."""
    table: dict = {}
    for sigma in permutations(range(1, n + 1)):
        alpha = descent_composition(sigma)
        inv_sigma = [0] * n
        for i, v in enumerate(sigma):
            inv_sigma[v - 1] = i + 1
        beta = descent_composition(inv_sigma)
        length = inversions(sigma)
        counts = table.setdefault((beta, alpha), {})
        counts[length] = counts.get(length, 0) + 1
    return {key: QPoly.from_exponent_counts(c) for key, c in table.items()}


HTILDE_DEGREE_BOUND = 9


def pair_htilde(beta, alpha) -> QPoly:
    """Pairing of h-tilde elements, read off the memoized permutation table
    of the degree (one sweep of S_n per degree, n <= HTILDE_DEGREE_BOUND)."""
    beta, alpha = tuple(beta), tuple(alpha)
    if sum(alpha) > HTILDE_DEGREE_BOUND or sum(beta) > HTILDE_DEGREE_BOUND:
        raise ValueError(f"degree bound {HTILDE_DEGREE_BOUND} exceeded")
    if sum(beta) != sum(alpha):
        return QPoly()
    return _htilde_table(sum(alpha)).get((beta, alpha), QPoly())
