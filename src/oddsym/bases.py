"""Monomial, forgotten and Schur bases, signed Kostka numbers, and the
change-of-basis matrices between the h/e families and their duals.

The (e,h), (h,h) and (e,e) tables are values of the q = -1 form, read off
the memoized colored pairing in form.py.  Their signed margin-matrix counts
are a combinatorial interpretation of the same numbers and live in the
tests as an oracle.
"""

from functools import lru_cache

from . import form, oddring
from .combinat import (
    partitions_of,
    shape_sign,
    ssyt,
    superstandard,
    sw_ne_pairs,
    transpose,
    triangular_sum,
)
from .oddring import OddElt, linear_combination
from .polyq import unimodular_inverse


def kostka(lam, mu) -> int:
    """Signed Kostka number: sign(T_lam) times the signed count of SSYT of
    shape lam and content mu."""
    lam, mu = tuple(lam), tuple(mu)
    if sum(lam) != sum(mu):
        raise ValueError("shape and content have different weights")
    total = sum(t.sign() for t in ssyt(lam, mu))
    return superstandard(lam).sign() * total


@lru_cache(maxsize=None)
def kostka_unsigned(lam: tuple, mu: tuple) -> int:
    """Plain SSYT count (the q = 1 Kostka number), memoized on tuples."""
    return len(ssyt(lam, mu))


@lru_cache(maxsize=None)
def kostka_matrix(n: int):
    """(partitions, rows): rows indexed by shape, columns by content,
    both ascending lexicographic."""
    parts = partitions_of(n)
    rows = tuple(tuple(kostka(lam, mu) for mu in parts) for lam in parts)
    return parts, rows


_WORDS = {"e": form.e_word, "h": form.h_word}


def basis_matrix(kind: str, n: int):
    """(partitions, rows) for the (e,h), (h,h) or (e,e) pairing table: row
    lam, column mu holds (x_lam, y_mu) at q = -1 for kind "xy"."""
    if kind not in ("eh", "hh", "ee"):
        raise ValueError(f"unknown kind {kind!r}")
    x, y = _WORDS[kind[0]], _WORDS[kind[1]]
    parts = partitions_of(n)
    rows = tuple(
        tuple(form.pair_words_odd(x(lam), y(mu)) for mu in parts) for lam in parts
    )
    return parts, rows


# ---------------------------------------------------------------------------
# dual bases


def _row(table, mu):
    """Row mu of a table over the partitions of |mu|, as (partition, entry)
    pairs."""
    parts = partitions_of(sum(mu))
    return zip(parts, table[parts.index(tuple(mu))])


def monomial(mu) -> OddElt:
    """Dual basis vector to h_mu: (h_lam, m_mu) = delta, a row of the
    inverse (h,h) Gram matrix."""
    return OddElt._trusted(dict(_row(oddring.gram_h_inverse(sum(mu)), mu)))


def forgotten(mu) -> OddElt:
    """Dual basis vector to e_mu: (e_lam, f_mu) = delta.

    With row kappa of E the h-coordinates of e_kappa, (e_kappa, m_lam) =
    E[kappa][lam], so f_mu = sum_lam (E^-1)[lam][mu] m_lam.
    """
    parts, inv = oddring._e_change_of_basis(sum(mu))
    j = parts.index(tuple(mu))
    return linear_combination(
        (row[j], monomial(lam)) for lam, row in zip(parts, inv) if row[j]
    )


@lru_cache(maxsize=None)
def _schur_table(n: int):
    """Schur vectors in h-coordinates: invert the unitriangular transpose of
    the Kostka matrix (h_mu = sum_lam K[lam][mu] s_lam)."""
    return tuple(map(tuple, unimodular_inverse(list(zip(*kostka_matrix(n)[1])))))


def schur(lam) -> OddElt:
    return OddElt._trusted(dict(_row(_schur_table(sum(lam)), lam)))


def power_sum(n: int) -> OddElt:
    """The n-th odd power sum, the dual vector to h_n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return monomial((n,))


# ---------------------------------------------------------------------------
# reports


def schur_orthonormality(n: int) -> list:
    """(s_lam, s_mu) = (-1)^(T(lam^T)+|lam|) delta, exhaustively in degree n;
    returns the failing pairs."""
    failures = []
    parts = partitions_of(n)
    vecs = {lam: schur(lam) for lam in parts}
    for lam in parts:
        for mu in parts:
            got = oddring.pair(vecs[lam], vecs[mu])
            want = shape_sign(lam) if lam == mu else 0
            if got != want:
                failures.append({"lambda": lam, "mu": mu, "got": got, "want": want})
    return failures


def schur_alt_routes(lam) -> list:
    """Cross-check the Schur vector against its alternative constructions
    (monomial route, e-leading route, twisted expansions); returns the
    routes that disagree."""
    lam = tuple(lam)
    n = sum(lam)
    parts, rows = kostka_matrix(n)
    K = dict(zip(parts, rows))
    s = schur(lam)
    checks = {}

    # route 1: shape_sign(lam) * s_lam = sum_mu K[lam][mu] m_mu
    via_m = linear_combination(
        (c, monomial(mu)) for mu, c in zip(parts, K[lam]) if c
    )
    checks["monomial_route"] = via_m == s.scale(shape_sign(lam))

    # route 2: s'_lam = (-1)^(l(w)+T(lam^T)+|lam|) s_lam has e-leading term
    # e_(lam^T) and e-support >= lam^T lexicographically, and pairs to zero
    # against e_mu for mu > lam^T
    lt = transpose(lam)
    sw = sw_ne_pairs(lam)
    sp_sign = (-1) ** (sw % 2) * shape_sign(lam)
    s_prime = s.scale(sp_sign)
    coords = oddring.e_coordinates(s_prime)
    lead_ok = coords.get(lt, 0) == 1 and all(p >= lt for p in coords)
    perp_ok = all(
        oddring.pair(s_prime, oddring.e_elt(mu)) == 0 for mu in parts if mu > lt
    )
    checks["e_leading_route"] = lead_ok and perp_ok

    # route 3: (-1)^T(mu) e_mu = sum_lam (-1)^(l(w_lam)+|lam|) K[lam^T][mu] s_lam
    mu, col = lam, parts.index(lam)
    lhs = oddring.e_elt(mu).scale((-1) ** (triangular_sum(mu) % 2))
    rhs = linear_combination(
        ((-1) ** ((sw_ne_pairs(rho) + n) % 2) * c, schur(rho))
        for rho in parts if (c := K[transpose(rho)][col])
    )
    checks["twisted_e_route"] = lhs == rhs

    # route 4: (-1)^(l(w)+T(lam^T)) s_lam = sum_mu (-1)^T(mu) K[lam^T][mu] f_mu
    lhs4 = s.scale((-1) ** ((sw + triangular_sum(lt)) % 2))
    rhs4 = linear_combination(
        ((-1) ** (triangular_sum(mu) % 2) * c, forgotten(mu))
        for mu, c in zip(parts, K[lt]) if c
    )
    checks["twisted_f_route"] = lhs4 == rhs4

    return [{"lambda": lam, "route": name} for name, ok in checks.items() if not ok]
