"""The quotient ring at q = -1: normal forms on the partition-indexed
h-basis, product, coproduct, pairing and h/e conversions.

Normal form = weakly decreasing subscripts.  Straightening rewrites the
leftmost ascent h_a h_b (a < b): an even-degree pair commutes, an odd-degree
pair is replaced through the relation

    h_a h_b = (-1)^a h_b h_a + h_{b+1} h_{a-1} - (-1)^a h_{a-1} h_{b+1}

recursing on the last term until the left subscript reaches 1, where
h_1 h_m = 2 h_{m+1} - h_m h_1 (m even).  Every replacement word is strictly
lexicographically larger, so the rewriting terminates.

Straightening is cross-validated against an independent route: w = sum_mu
(h_mu, w) m_mu.  Each change-of-basis inverse (m_mu is row mu of the Gram one)
is kept as sparse rows keyed by partition, built by _inverse_rows.

The form on the quotient sums the coefficients of y against
form.pair_h_at(p, mu, -1), the colored rule that form memoizes, to give
(h_p, y); pair and pair_tensor both sum these values.  Linear combinations
of elements are summed in one dict (linear_combination).

OddElt(terms) checks that every key is a partition and every coefficient an
int (bool excluded), since that is where outside input enters.  Results built
from normal forms, memo tables or the keys of other elements come through
OddElt._trusted, which skips the checks.
"""

from functools import lru_cache

from . import form
from .combinat import compositions_of, is_partition, partitions_of, sw_ne_pairs, transpose
from .polyq import unimodular_inverse


def _ascent_expansion(a: int, b: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """h_a h_b (a < b) as a combination of lex-larger words."""
    if (a + b) % 2 == 0:
        return ((1, (b, a)),)
    if a == 1:
        return ((2, (b + 1,)), (-1, (b, 1)))
    sign = -1 if a % 2 else 1
    terms = [(sign, (b, a)), (1, (b + 1, a - 1))]
    for coeff, word in _ascent_expansion(a - 1, b + 1):
        terms.append((-sign * coeff, word))
    merged: dict[tuple[int, ...], int] = {}
    for coeff, word in terms:
        merged[word] = merged.get(word, 0) + coeff
    return tuple((c, w) for w, c in merged.items() if c)


@lru_cache(maxsize=None)
def normalize_word(word: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Image of a free h-word in the partition basis, as (partition, coeff)
    pairs."""
    if any(n < 1 for n in word):
        raise ValueError("letters must be positive")
    i = next((i for i in range(len(word) - 1) if word[i] < word[i + 1]), None)
    if i is None:
        return ((word, 1),)
    out: dict[tuple[int, ...], int] = {}
    for coeff, repl in _ascent_expansion(word[i], word[i + 1]):
        for part, c in normalize_word(word[:i] + repl + word[i + 2 :]):
            out[part] = out.get(part, 0) + coeff * c
    return tuple(sorted((p, c) for p, c in out.items() if c))


class OddElt:
    """Element of the quotient ring in normal form: a finite integer
    combination of partition-indexed h-basis vectors."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        terms = {tuple(part): coeff for part, coeff in (terms or {}).items()}
        for part, coeff in terms.items():
            if not is_partition(part):
                raise ValueError(f"not a partition: {part}")
            if type(coeff) is not int:
                raise ValueError(f"coefficient must be an integer, not {coeff!r}")
        self.terms = {p: c for p, c in terms.items() if c}

    @classmethod
    def _trusted(cls, terms: dict) -> "OddElt":
        """An element whose keys are known to be partitions: no check."""
        x = cls.__new__(cls)
        x.terms = {p: c for p, c in terms.items() if c}
        return x

    @classmethod
    def zero(cls) -> "OddElt":
        return cls._trusted({})

    @classmethod
    def one(cls) -> "OddElt":
        return cls._trusted({(): 1})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, OddElt) and self.terms == other.terms

    def __add__(self, other):
        return linear_combination(((1, self), (1, other)))

    def __sub__(self, other):
        return linear_combination(((1, self), (-1, other)))

    def scale(self, k: int) -> "OddElt":
        return OddElt._trusted({p: k * c for p, c in self.terms.items()})

    def __mul__(self, other):
        out: dict[tuple[int, ...], int] = {}
        for p1, c1 in self.terms.items():
            for p2, c2 in other.terms.items():
                for part, c in normalize_word(p1 + p2):
                    out[part] = out.get(part, 0) + c1 * c2 * c
        return OddElt._trusted(out)

    def coefficient(self, part) -> int:
        return self.terms.get(tuple(part), 0)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for p, c in sorted(self.terms.items()):
            label = "h(" + ",".join(map(str, p)) + ")" if p else "1"
            if c == 1:
                bits.append(f"+{label}")
            elif c == -1:
                bits.append(f"-{label}")
            else:
                bits.append(f"{c:+d}*{label}")
        s = " ".join(bits)
        return s[1:] if s.startswith("+") else s


def linear_combination(pairs) -> OddElt:
    """The sum of k * x over (k, x) pairs, accumulated in one dict."""
    out: dict[tuple[int, ...], int] = {}
    for k, x in pairs:
        for p, c in x.terms.items():
            out[p] = out.get(p, 0) + k * c
    return OddElt._trusted(out)


def h_elt(parts) -> OddElt:
    """Image of the h-word with the given subscripts (any order)."""
    return OddElt._trusted(dict(normalize_word(tuple(parts))))


def normalize(terms) -> OddElt:
    """Image in the quotient of a formal combination of free h-words, given
    as a dict word -> coefficient; a single h-word is h_elt."""
    return linear_combination((c, h_elt(w)) for w, c in terms.items())


def e_elt(parts) -> OddElt:
    """e_parts, memoized per tuple of parts: e_n through its canonical word
    expansion, and e_w = e_(w[:-1]) * e_(w[-1]) for a longer word."""
    return _e_elt(tuple(parts))


@lru_cache(maxsize=None)
def _e_elt(w: tuple[int, ...]) -> OddElt:
    if len(w) > 1:
        return _e_elt(w[:-1]) * _e_elt(w[-1:])
    return normalize(form.e_expansion(w[0])) if w else OddElt.one()


# ---------------------------------------------------------------------------
# pairing and the Gram route


def _gram_rows(n: int) -> dict:
    """The partition-basis Gram matrix at q = -1 keyed by partitions:
    rows[lam][mu] = (h_lam, h_mu), both in ascending lex order."""
    parts = partitions_of(n)
    return {lam: {mu: form.pair_h_at(lam, mu, -1) for mu in parts} for lam in parts}


def _inverse_rows(rows: dict) -> dict:
    """The inverse of a unimodular table rows[lam][mu], whose columns come in
    the order of its keys, as sparse rows {lam: {mu: c}} with no zero entry."""
    keys = list(rows)
    inv = unimodular_inverse([list(r.values()) for r in rows.values()])
    return {lam: {mu: c for mu, c in zip(keys, r) if c} for lam, r in zip(keys, inv)}


@lru_cache(maxsize=None)
def gram_h_inverse(n: int) -> dict:
    """The inverse Gram matrix of degree n as partition-keyed rows: row lam
    is m_lam, the dual vector to h_lam, in h-coordinates."""
    return _inverse_rows(_gram_rows(n))


def _pair_h_with(part: tuple[int, ...], y: OddElt) -> int:
    """(h_part, y), each (h_part, h_mu) from form.pair_h_at at q = -1."""
    return sum(c * form.pair_h_at(part, mu, -1) for mu, c in y.terms.items())


def pair(x: OddElt, y: OddElt) -> int:
    """Bilinear form on the quotient."""
    return sum(c * _pair_h_with(p, y) for p, c in x.terms.items())


def normalize_via_gram(terms) -> OddElt:
    """Independent normal-form route for a combination w of colored words,
    given as a dict word -> coefficient: w = sum_mu (h_mu, w) m_mu, with m_mu
    row mu of gram_h_inverse."""
    return linear_combination(
        (form.pair_words_odd(form.h_word(mu), terms), OddElt._trusted(m))
        for n in {form.word_degree(w) for w in terms}
        for mu, m in gram_h_inverse(n).items()
    )


# ---------------------------------------------------------------------------
# coproduct


@lru_cache(maxsize=None)
def _coproduct_word(word: tuple[int, ...]) -> tuple:
    """Coproduct of a single h-word as ((left, right), coeff) pairs."""
    acc: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {((), ()): 1}
    for letter in word:
        new: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
        for (left, right), c in acc.items():
            deg_right = sum(right)
            for m in range(letter + 1):
                sign = -1 if (deg_right * m) % 2 else 1
                lefts = normalize_word(left + (m,)) if m else ((left, 1),)
                rights = (
                    normalize_word(right + (letter - m,))
                    if letter - m
                    else ((right, 1),)
                )
                for lp, lc in lefts:
                    for rp, rc in rights:
                        key = (lp, rp)
                        new[key] = new.get(key, 0) + c * sign * lc * rc
        acc = {k: v for k, v in new.items() if v}
    return tuple(acc.items())


def coproduct(x: OddElt) -> dict:
    """Coproduct into the tensor square, components in normal form.

    Returns a dict (partition, partition) -> integer.  The braiding at
    q = -1 contributes (-1)^(deg(x2) * m) when a letter h_m multiplies into
    the left slot past x2.
    """
    out: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
    for word, coeff in x.terms.items():
        for key, c in _coproduct_word(word):
            out[key] = out.get(key, 0) + coeff * c
    return {k: v for k, v in out.items() if v}


def pair_tensor(left: dict, y1: OddElt, y2: OddElt) -> int:
    """Pair a tensor-square element against y1 (x) y2, component-wise.

    Each (h_p, y_i) that the components need is evaluated once.
    """
    with_y1 = {p: _pair_h_with(p, y1) for p in {p1 for p1, _ in left}}
    with_y2 = {p: _pair_h_with(p, y2) for p in {p2 for _, p2 in left}}
    return sum(c * with_y1[p1] * with_y2[p2] for (p1, p2), c in left.items())


# ---------------------------------------------------------------------------
# e-basis coordinates


@lru_cache(maxsize=None)
def _h_in_e(n: int) -> dict:
    """Partition-keyed rows: row p is h_p in e-coordinates, the inverse of
    the table whose row lam is e_lam in h-coordinates."""
    parts = partitions_of(n)
    return _inverse_rows({lam: {p: e.coefficient(p) for p in parts}
                          for lam, e in zip(parts, map(e_elt, parts))})


def e_coordinates(x: OddElt) -> dict:
    """Coordinates of x in the e-basis, keyed by partition: the rows p of
    _h_in_e weighted by the coefficients of x."""
    return linear_combination((c, OddElt._trusted(_h_in_e(sum(p))[p]))
                              for p, c in x.terms.items()).terms


# ---------------------------------------------------------------------------
# semi-orthogonality report


def semiorthogonality_check(n: int) -> list:
    """Check (h_lam, e_lam^T) = (-1)^(sw-ne pairs) and the vanishing
    (h_lam, e_alpha) = (e_lam, h_alpha) = 0 for alpha > lam^T lexicographic;
    returns the failures.
    """
    failures = []
    for lam in partitions_of(n):
        lt = transpose(lam)
        want = -1 if sw_ne_pairs(lam) % 2 else 1
        got = form.pair_words_odd(form.h_word(lam), form.e_word(lt))
        if got != want:
            failures.append({"lambda": lam, "kind": "diagonal", "got": got, "want": want})
        for alpha in compositions_of(n):
            if alpha > lt:
                he = form.pair_words_odd(form.h_word(lam), form.e_word(alpha))
                eh = form.pair_words_odd(form.e_word(lam), form.h_word(alpha))
                if he != 0 or eh != 0:
                    failures.append(
                        {"lambda": lam, "alpha": alpha, "kind": "vanishing",
                         "he": he, "eh": eh}
                    )
    return failures
