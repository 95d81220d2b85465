"""Monomial, forgotten and Schur bases, strip-pass signed Kostka numbers, and
the change-of-basis matrices between the h/e families and their duals.

The (e,h), (h,h) and (e,e) tables are values of the q = -1 form, read off
the memoized colored pairing in form.py.  Their signed margin-matrix counts
are a combinatorial interpretation of the same numbers and live in the
tests as an oracle.
"""

from functools import lru_cache

from . import form, oddring
from .combinat import (
    is_partition,
    partitions_of,
    row_fillings,
    shape_sign,
    superstandard,
    sw_ne_pairs,
    transpose,
    triangular_sum,
)
from .oddring import OddElt, linear_combination


@lru_cache(maxsize=None)
def _kostka_column(mu: tuple) -> dict:
    """shape -> (K[shape][mu], plain SSYT count) by one strip pass, listing no
    tableau: entry i widens row 1 by <= mu_i and row r by <= nu_(r-1) - nu_r,
    opens a row of <= the last part of nu, and adds nu_1 + ... + nu_(r-1)
    inversions to the row word per box in row r (the rows above read later)."""
    states = {(): (1, 1)}
    for part in mu:
        grown = {}
        for nu, (signed, plain) in states.items():
            limits = (part, *(a - b for a, b in zip(nu, nu[1:])), *nu[-1:])
            for m, _ in row_fillings(part, limits, limits):
                lam = tuple(a + b for a, b in zip(nu + (0,), m) if a + b)
                s, p = grown.get(lam, (0, 0))
                odd = sum(b * sum(nu[:r]) for r, b in enumerate(m)) % 2
                grown[lam] = (s - signed if odd else s + signed, p + plain)
        states = grown
    return {lam: (superstandard(lam).sign() * s, p) for lam, (s, p) in states.items()}


def kostka(lam, mu) -> int:
    """Signed Kostka number: sign(T_lam) times the signed count of SSYT of
    shape lam and content mu, any composition, read off the strip pass."""
    if sum(lam) != sum(mu):
        raise ValueError("shape and content have different weights")
    return _kostka_column(tuple(mu)).get(_partition(lam), (0, 0))[0]


def kostka_matrix(n: int):
    """(partitions, rows): rows indexed by shape, columns by content,
    both ascending lexicographic; the positional view of the columns."""
    parts = partitions_of(n)
    cols = [_kostka_column(mu) for mu in parts]
    rows = tuple(tuple(col.get(lam, (0, 0))[0] for col in cols) for lam in parts)
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


def _partition(mu) -> tuple:
    """mu as a tuple; ValueError unless it is a partition."""
    if not is_partition(mu):
        raise ValueError(f"not a partition: {tuple(mu)}")
    return tuple(mu)


def monomial(mu) -> OddElt:
    """Dual basis vector to h_mu: (h_lam, m_mu) = delta, row mu of the
    inverse (h,h) Gram matrix."""
    mu = _partition(mu)
    return OddElt._trusted(oddring.gram_h_inverse(sum(mu))[mu])


def forgotten(mu) -> OddElt:
    """Dual basis vector to e_mu: (e_lam, f_mu) = delta.

    With E the table whose row kappa is e_kappa in h-coordinates,
    (e_kappa, m_lam) = E[kappa][lam], so f_mu = sum_lam (E^-1)[lam][mu] m_lam.
    """
    mu = _partition(mu)
    return linear_combination(
        (row[mu], monomial(lam)) for lam, row in oddring._h_in_e(sum(mu)).items()
        if mu in row
    )


@lru_cache(maxsize=None)
def _schur_table(n: int) -> dict:
    """Partition-keyed rows: row lam is s_lam in h-coordinates, the inverse
    of the transposed Kostka matrix (h_mu = sum_lam K[lam][mu] s_lam)."""
    parts = partitions_of(n)
    cols = {mu: _kostka_column(mu) for mu in parts}
    return oddring._inverse_rows({mu: {lam: col.get(lam, (0, 0))[0] for lam in parts}
                                  for mu, col in cols.items()})


def schur(lam) -> OddElt:
    lam = _partition(lam)
    return OddElt._trusted(_schur_table(sum(lam))[lam])


def power_sum(n: int) -> OddElt:
    """The n-th odd power sum, the dual vector to h_n."""
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
    parts = partitions_of(n)
    s = schur(lam)
    checks = {}

    # route 1: shape_sign(lam) * s_lam = sum_mu K[lam][mu] m_mu
    via_m = linear_combination(
        (c, monomial(mu)) for mu in parts if (c := kostka(lam, mu))
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
    lhs = oddring.e_elt(lam).scale((-1) ** (triangular_sum(lam) % 2))
    rhs = linear_combination(
        ((-1) ** ((sw_ne_pairs(rho) + n) % 2) * c, schur(rho))
        for rho in parts if (c := kostka(transpose(rho), lam))
    )
    checks["twisted_e_route"] = lhs == rhs

    # route 4: (-1)^(l(w)+T(lam^T)) s_lam = sum_mu (-1)^T(mu) K[lam^T][mu] f_mu
    lhs4 = s.scale((-1) ** ((sw + triangular_sum(lt)) % 2))
    rhs4 = linear_combination(
        ((-1) ** (triangular_sum(mu) % 2) * c, forgotten(mu))
        for mu in parts if (c := kostka(lt, mu))
    )
    checks["twisted_f_route"] = lhs4 == rhs4

    return [{"lambda": lam, "route": name} for name, ok in checks.items() if not ok]
