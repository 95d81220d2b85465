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
from .oddring import OddElt
from .polyq import det_exact, unimodular_inverse


def kostka(lam, mu) -> int:
    """Signed Kostka number: sign(T_lam) times the signed count of SSYT of
    shape lam and content mu."""
    lam, mu = tuple(lam), tuple(mu)
    if sum(lam) != sum(mu):
        raise ValueError("shape and content have different weights")
    total = sum(t.sign() for t in ssyt(lam, mu))
    return superstandard(lam).sign() * total


def kostka_unsigned(lam, mu) -> int:
    """Plain SSYT count (the q = 1 Kostka number)."""
    return len(ssyt(tuple(lam), tuple(mu)))


@lru_cache(maxsize=None)
def kostka_matrix(n: int):
    """(partitions, rows): rows indexed by shape, columns by content,
    both ascending lexicographic."""
    parts = partitions_of(n)
    rows = tuple(tuple(kostka(lam, mu) for mu in parts) for lam in parts)
    return parts, rows


_WORDS = {"e": form.e_word, "h": form.h_word}


def basis_matrix_entry(kind: str, lam, mu) -> int:
    """(x_lam, y_mu) at q = -1 for kind "xy", one of "eh", "hh", "ee"."""
    if kind not in ("eh", "hh", "ee"):
        raise ValueError(f"unknown kind {kind!r}")
    return form.pair_words_odd(_WORDS[kind[0]](lam), _WORDS[kind[1]](mu))


@lru_cache(maxsize=None)
def basis_matrix(kind: str, n: int):
    """(partitions, rows) for the (e,h), (h,h) or (e,e) pairing table."""
    parts = partitions_of(n)
    rows = tuple(
        tuple(basis_matrix_entry(kind, lam, mu) for mu in parts) for lam in parts
    )
    return parts, rows


# ---------------------------------------------------------------------------
# dual bases


def monomial(mu) -> OddElt:
    """Dual basis vector to h_mu: (h_lam, m_mu) = delta, a row of the
    inverse (h,h) Gram matrix."""
    mu = tuple(mu)
    parts, inv = partitions_of(sum(mu)), oddring.gram_h_inverse(sum(mu))
    i = parts.index(mu)
    return OddElt({parts[j]: inv[i][j] for j in range(len(parts))})


@lru_cache(maxsize=None)
def _forgotten_table(n: int):
    parts = partitions_of(n)
    inv = unimodular_inverse([list(r) for r in basis_matrix("ee", n)[1]])
    return parts, tuple(map(tuple, inv))


def forgotten(mu) -> OddElt:
    """Dual basis vector to e_mu: (e_lam, f_mu) = delta."""
    mu = tuple(mu)
    parts, inv = _forgotten_table(sum(mu))
    i = parts.index(mu)
    out = OddElt.zero()
    for j, lam in enumerate(parts):
        if inv[i][j]:
            out = out + oddring.e_elt(lam).scale(inv[i][j])
    return out


@lru_cache(maxsize=None)
def _schur_table(n: int):
    """Schur vectors in h-coordinates: invert the unitriangular transpose of
    the Kostka matrix (h_mu = sum_lam K[lam][mu] s_lam)."""
    parts, K = kostka_matrix(n)
    KT = [[K[lam][mu] for lam in range(len(parts))] for mu in range(len(parts))]
    inv = unimodular_inverse(KT)
    return parts, tuple(map(tuple, inv))


def schur(lam) -> OddElt:
    lam = tuple(lam)
    parts, inv = _schur_table(sum(lam))
    i = parts.index(lam)
    return OddElt({parts[j]: inv[i][j] for j in range(len(parts))})


def power_sum(n: int) -> OddElt:
    """The n-th odd power sum, the dual vector to h_n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return monomial((n,))


# ---------------------------------------------------------------------------
# reports


def schur_orthonormality(n: int) -> dict:
    """(s_lam, s_mu) = (-1)^(T(lam^T)+|lam|) delta, exhaustively in degree n."""
    failures = []
    parts = partitions_of(n)
    vecs = {lam: schur(lam) for lam in parts}
    for lam in parts:
        for mu in parts:
            got = oddring.pair(vecs[lam], vecs[mu])
            want = shape_sign(lam) if lam == mu else 0
            if got != want:
                failures.append({"lambda": lam, "mu": mu, "got": got, "want": want})
    return {"degree": n, "ok": not failures, "failures": failures}


def schur_alt_routes(lam) -> dict:
    """Cross-check the Schur vector against its three alternative
    constructions (monomial route, e-leading route, twisted expansions)."""
    lam = tuple(lam)
    n = sum(lam)
    parts = partitions_of(n)
    s = schur(lam)
    checks = {}

    # route 1: shape_sign(lam) * s_lam = sum_mu K[lam][mu] m_mu
    via_m = OddElt.zero()
    for mu in parts:
        c = kostka(lam, mu)
        if c:
            via_m = via_m + monomial(mu).scale(c)
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
    mu = lam
    lhs = oddring.e_elt(mu).scale((-1) ** (triangular_sum(mu) % 2))
    rhs = OddElt.zero()
    for rho in parts:
        c = kostka(transpose(rho), mu)
        if c:
            sign = (-1) ** ((sw_ne_pairs(rho) + n) % 2)
            rhs = rhs + schur(rho).scale(sign * c)
    checks["twisted_e_route"] = lhs == rhs

    # route 4: (-1)^(l(w)+T(lam^T)) s_lam = sum_mu (-1)^T(mu) K[lam^T][mu] f_mu
    lhs4 = s.scale((-1) ** ((sw + triangular_sum(lt)) % 2))
    rhs4 = OddElt.zero()
    for mu in parts:
        c = kostka(lt, mu)
        if c:
            rhs4 = rhs4 + forgotten(mu).scale((-1) ** (triangular_sum(mu) % 2) * c)
    checks["twisted_f_route"] = lhs4 == rhs4

    return {"lambda": lam, "ok": all(checks.values()), "checks": checks}


def eh_matrix_det(n: int) -> int:
    """Determinant of the (e,h) change-of-basis matrix with rows and columns
    both in ascending lexicographic order."""
    return det_exact([list(r) for r in basis_matrix("eh", n)[1]])


def eh_det_self_transpose(n: int) -> int:
    """Product over self-transpose diagrams of (-1)^(sw-ne pairs).

    This is the determinant of the (e,h) matrix whose columns are indexed by
    transposed partitions (the anti-diagonal entries become the diagonal);
    relative to the plain lex-ordered determinant it differs by the sign of
    the transpose involution, see transpose_involution_sign.
    """
    sign = 1
    for lam in partitions_of(n):
        if transpose(lam) == lam and sw_ne_pairs(lam) % 2:
            sign = -sign
    return sign


def transpose_involution_sign(n: int) -> int:
    """Sign of the permutation lam -> lam^T of the partitions of n."""
    swaps = sum(1 for lam in partitions_of(n) if transpose(lam) > lam)
    return -1 if swaps % 2 else 1


def form_in_forgotten_basis(n: int):
    """Matrix of the bilinear form in the f-basis, two ways: directly and as
    M^-1 M' M^-1."""
    parts = partitions_of(n)
    fs = {mu: forgotten(mu) for mu in parts}
    direct = [
        [oddring.pair(fs[lam], fs[mu]) for mu in parts] for lam in parts
    ]
    M = [list(r) for r in basis_matrix("eh", n)[1]]
    Mp = [list(r) for r in basis_matrix("hh", n)[1]]
    Minv = unimodular_inverse(M)
    prod1 = _matmul_int(Minv, Mp)
    composed = _matmul_int(prod1, Minv)
    return parts, direct, composed


def _matmul_int(a, b):
    n, k, m = len(a), len(b), len(b[0])
    return [
        [sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)] for i in range(n)
    ]
