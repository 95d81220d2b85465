"""Bilinear form on free h/e-words, computed by margin-matrix enumeration.

The generic-q pairing of two h-words sums q^inv(A) over N-matrices A whose
row margins are the left word and whose column margins the right word, inv
counting SW-NE entry pairs.  At q = -1 colored words (e-letters = black
platforms) follow the same scheme with two extra rules: an entry joining a
black and a white platform is at most 1, and an entry a joining two black
platforms carries the cable sign (-1)^T(a-1).

Both pairings fill one row at a time with combinat.row_fillings, under an
explicit limit per column, memoized on the remaining margins.  At generic q
the side with the larger e-expansion becomes rows, each e_n one row with
entries at most 1 times (-q)^T(n-1); that factor is 1 at q = -1, where the
row is the colored rule.  Only the other side is expanded into h-words.
"""

from functools import lru_cache
from itertools import permutations

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
# generic-q pairing of h-words


@lru_cache(maxsize=None)
def _pair_h(beta: tuple[int, ...], alpha: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """Exponent/count pairs of the generic pairing (h_beta, h_alpha); empty
    when the degrees differ.  A row -r of beta is e_r: its lift
    (-1)^T(r) sum_k (-1)^len(k) h_k over the compositions k of r is one row
    with entries at most 1 times (-q)^T(r-1) (Solomon's alternating sum of
    parabolic inductions; checked on every signed row word to degree 8)."""
    if not beta:
        return ((0, 1),) if not alpha else ()
    b, rest = beta[0], beta[1:]
    limits = alpha if b >= 0 else tuple(min(a, 1) for a in alpha)
    counts: dict[int, int] = {}
    for m, exp in row_fillings(abs(b), alpha, limits):
        reduced = tuple(a - x for a, x in zip(alpha, m) if a - x > 0)
        for sub_exp, sub_count in _pair_h(rest, reduced):
            e = exp + sub_exp
            counts[e] = counts.get(e, 0) + sub_count
    if b >= 0:
        return tuple(sorted(counts.items()))
    shift = triangular(-b - 1)
    return tuple((e + shift, -c if shift % 2 else c) for e, c in sorted(counts.items()))


def pair_h_generic(beta, alpha) -> QPoly:
    """(h_beta, h_alpha) at generic q; zero when the degrees differ."""
    return QPoly.from_exponent_counts(dict(_pair_h(tuple(beta), tuple(alpha))))


def pair_h_at(beta, alpha, q: int) -> int:
    """(h_beta, h_alpha) specialized at an integer q."""
    return sum(c * q**e for e, c in _pair_h(tuple(beta), tuple(alpha)))


# ---------------------------------------------------------------------------
# colored pairing at q = -1


@lru_cache(maxsize=None)
def _pair_colored(beta: Word, alpha: Word) -> int:
    if not beta:
        return 1 if not alpha else 0
    if word_degree(beta) != word_degree(alpha):
        return 0
    (b, bcol), rest = beta[0], beta[1:]
    caps = tuple(n for n, _ in alpha)
    limits = tuple(n if c == bcol else min(n, 1) for n, c in alpha)
    total = 0
    for m, exp in row_fillings(b, caps, limits):
        if bcol == E:
            exp += sum(triangular(v - 1) for v, (_, c) in zip(m, alpha) if v and c == E)
        sign = -1 if exp % 2 else 1
        reduced = tuple((n - v, c) for v, (n, c) in zip(m, alpha) if n > v)
        total += sign * _pair_colored(rest, reduced)
    return total


def pair_words_odd(y, x) -> int:
    """q = -1 pairing, bilinear over formal combinations of colored words.

    Accepts single words or dicts word -> integer coefficient.
    """
    y_terms = y if isinstance(y, dict) else {tuple(y): 1}
    x_terms = x if isinstance(x, dict) else {tuple(x): 1}
    total = 0
    for wy, cy in y_terms.items():
        for wx, cx in x_terms.items():
            if cy and cx:
                total += cy * cx * _pair_colored(tuple(wy), tuple(wx))
    return total


# ---------------------------------------------------------------------------
# e-letters as h-word combinations


@lru_cache(maxsize=None)
def e_expansion(n: int) -> dict:
    """The canonical lift of e_n to signed h-words:
    (-1)^T(n) * sum over compositions a of n of (-1)^len(a) h_a.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return {(): 1}
    outer = -1 if triangular(n) % 2 else 1
    return {
        alpha: outer * (-1 if len(alpha) % 2 else 1) for alpha in compositions_of(n)
    }


def expand_colored_word(word: Word) -> dict:
    """Rewrite every e-letter of a colored word through its h-expansion."""
    terms = {(): 1}
    for n, color in word:
        factor = e_expansion(n) if color == E else {(n,): 1}
        new: dict = {}
        for w, c in terms.items():
            for fw, fc in factor.items():
                key = w + fw
                new[key] = new.get(key, 0) + c * fc
        terms = new
    return terms


def _expansion_log2(word: Word) -> int:
    return sum(n - 1 for n, c in word if c == E)


def pair_words_generic(y: Word, x: Word) -> QPoly:
    """Generic-q pairing of colored words.  The form is symmetric, so the
    side with the larger e-expansion becomes rows, e_n as the row -n; only
    the other side is expanded into h-words."""
    y, x = tuple(y), tuple(x)
    if word_degree(y) != word_degree(x):
        return QPoly()
    if _expansion_log2(y) < _expansion_log2(x):
        y, x = x, y
    rows = tuple(-n if c == E else n for n, c in y)
    counts: dict[int, int] = {}
    for wx, cx in expand_colored_word(x).items():
        for e, c in _pair_h(rows, wx):
            counts[e] = counts.get(e, 0) + cx * c
    return QPoly.from_exponent_counts(counts)


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
    """All compositions obtained by merging adjacent parts of alpha."""
    alpha = tuple(alpha)
    out = []

    def rec(i: int, acc: list[int]):
        if i == len(alpha):
            out.append(tuple(acc))
            return
        acc.append(alpha[i])
        rec(i + 1, acc)
        acc.pop()
        if acc:
            acc[-1] += alpha[i]
            rec(i + 1, acc)
            acc[-1] -= alpha[i]

    rec(0, [])
    return out


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
