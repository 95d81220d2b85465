"""Gram matrices of the word pairing per degree, exact determinants, the
determinant-degree formula, degenerate-locus factor multiplicities, and
radical ranks at specialized q.

Compositions label rows and columns in the appendix layout, grouped by their
underlying partition.  Rows and columns move together, so the determinant
and the ranks do not depend on the order; the determinant is normalized to
a positive leading coefficient.  The generic determinant is the product of
the determinants of two symmetric reversal blocks over a power of 2, each
taken by evaluation at pairs of points x, 1/x and interpolation modulo the
first prime of polyq.DET_PRIMES that its proven coefficient bound allows.
"""

import json
from functools import lru_cache
from importlib import resources
from math import comb

from .combinat import compositions_of, partitions_of, sort_to_partition
from .form import pair_h_at, pair_h_generic
from .polyq import QPoly, det_by_interpolation, det_exact, divide_out, rank_exact

GENERIC_DET_BOUND = 7


def composition_labels(n: int) -> list[tuple[int, ...]]:
    """Row labels in the appendix layout: compositions grouped by their
    underlying partition, lexicographic within a group."""
    return sorted(compositions_of(n), key=lambda a: (sort_to_partition(a), a))


def gram_matrix(n: int, q="generic", basis: str = "compositions"):
    """(labels, rows) for the degree-n Gram matrix of the pairing.

    q is "generic" (QPoly entries) or an integer; the basis indexes rows and
    columns by compositions or by partitions.
    """
    if basis == "compositions":
        labels = composition_labels(n)
    elif basis == "partitions":
        labels = list(partitions_of(n))
    else:
        raise ValueError(f"unknown basis {basis!r}")
    if q == "generic":
        rows = [[pair_h_generic(b, a) for a in labels] for b in labels]
    else:
        rows = [[pair_h_at(b, a, q) for a in labels] for b in labels]
    return labels, rows


def reversal_blocks(n: int):
    """(G+, G-), the blocks of the degree-n composition Gram matrix G on the
    reversal-symmetric and reversal-antisymmetric vectors.

    The rows and columns are the representatives a <= rev a of the reversal
    orbits, in the appendix layout; G- keeps the non-palindromic ones:
        G+[b][a] = G[b][a] + G[b][rev a]   (2 G[b][a] when a = rev a)
        G-[b][a] = G[b][a] - G[b][rev a].
    Both are symmetric.  Only the representative rows of G are evaluated.
    """
    labels = composition_labels(n)
    reps = [a for a in labels if a <= a[::-1]]
    odd = [a for a in reps if a != a[::-1]]
    rows = {b: {a: pair_h_generic(b, a) for a in labels} for b in reps}
    plus = [[rows[b][a] + rows[b][a[::-1]] for a in reps] for b in reps]
    minus = [[rows[b][a] - rows[b][a[::-1]] for a in odd] for b in odd]
    return plus, minus


@lru_cache(maxsize=None)
def gram_det(n: int) -> QPoly:
    """Generic-q determinant of the composition Gram matrix, normalized to a
    positive leading coefficient.

    Turning an N-matrix by 180 degrees reverses both of its margins and keeps
    every SW-NE pair, so (h_b, h_a) = (h_rev b, h_rev a): G commutes with the
    reversal permutation R of the compositions.  G therefore maps the
    R-symmetric vectors (spanned by e_a + e_rev a, which is 2 e_a for a
    palindrome) and the R-antisymmetric vectors (spanned by e_a - e_rev a)
    into themselves.  A symmetric or antisymmetric vector is fixed by its
    entries on the orbit representatives, so in these two bases G acts by the
    blocks G+, with its palindromic rows halved, and G- of reversal_blocks,
    and det G = det G+ * det G- / 2^(number of palindromes) (Fassler-Stiefel,
    block diagonalization by symmetry).

    Each block determinant is +-q^M times its value at 1/q, with
    M = dim(block) * C(n, 2), which lets polyq.det_by_interpolation take
    each elimination at x for x and 1/x both.  Proof: in the h-tilde basis,
    h~_a = sum over the coarsenings b of a of (-1)^(l(a) - l(b)) h_b,
    (h~_b, h~_a) sums q^inv(s) over the s in S_n with Des s = S(a) and
    Des s^-1 = S(b), S the set of partial sums.  s -> w0 s takes inv to
    C(n, 2) - inv, Des s to its complement and Des s^-1 to its complement
    mirrored by i -> n - i, so q^C(n,2) G~[b][a](1/q) = G~[rho b][c a](q),
    c complementing the descent set and rho complementing and mirroring it.
    c and rho commute with reversal, and so does the unitriangular change
    from h to h~; on each block that change is unitriangular too, so
    det G+- = det G~+-, and q^C(n,2) G~+-(1/q) = P G~+-(q) Q with P and Q
    signed permutation matrices.  Taking determinants gives
    det G+-(q) = +-q^M det G+-(1/q).

    A det G+ not divisible by 2^(number of palindromes), or a product whose
    value at q = 2 is not the Bareiss det G(2), raises ArithmeticError, as
    does a block whose values at 3 and 1/3 break the symmetry.
    """
    if n > GENERIC_DET_BOUND:
        raise ValueError(f"degree bound {GENERIC_DET_BOUND} exceeded")
    plus, minus = reversal_blocks(n)
    doubled = det_by_interpolation(plus, len(plus) * comb(n, 2)).coeffs
    scale = 2 ** (len(plus) - len(minus))
    if any(c % scale for c in doubled):
        raise ArithmeticError(f"degree-{n} G+ determinant is not divisible by {scale}")
    det = QPoly([c // scale for c in doubled]) * det_by_interpolation(
        minus, len(minus) * comb(n, 2))
    _, at_two = gram_matrix(n, q=2)
    if det.evaluate(2) != det_exact(at_two):
        raise ArithmeticError(f"degree-{n} determinant fails the q = 2 check")
    if det.leading_coefficient() < 0:
        det = -det
    return det


def det_degree_formula(n: int) -> int:
    """Predicted degree of the composition Gram determinant."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return 2 ** (n - 2) * (n * n - 3 * n + 4) - 1


def det_degree_check(n: int) -> dict:
    det = gram_det(n)
    want = det_degree_formula(n)
    return {
        "degree": n,
        "det_degree": det.degree(),
        "formula": want,
        "leading_coefficient": det.leading_coefficient(),
        "monic": abs(det.leading_coefficient()) == 1,
        "ok": det.degree() == want and abs(det.leading_coefficient()) == 1,
    }


def degenerate_factors() -> tuple:
    """Minimal polynomials of the degenerate q-values with their listed
    multiplicities per degree, shipped as package data."""
    text = resources.files("oddsym.data").joinpath("degenerate_factors.json").read_text()
    out = []
    for item in json.loads(text):
        out.append(
            {
                "name": item["name"],
                "degree_introduced": item["degree_introduced"],
                "poly": QPoly(item["coeffs"]),
                "multiplicities": {int(n): int(m) for n, m in item["multiplicities"]},
            }
        )
    return tuple(out)


def factor_multiplicity_check(n: int) -> dict:
    """Divide each listed factor out of the running residual, starting from
    the degree-n determinant, and compare its multiplicity with the listed
    one; the residual after all listed factors must be the constant 1.

    The listed factors are pairwise coprime, so a factor's multiplicity in
    the residual is its multiplicity in the determinant.  Powers beyond the
    listed multiplicity stay in the residual, so a listed multiplicity above
    or below the true one is reported as a failure.  Items skip the factors
    that neither divide the determinant nor are listed for degree n.
    """
    items = []
    residual = gram_det(n)
    for item in degenerate_factors():
        listed = item["multiplicities"].get(n, 0)
        got, residual = divide_out(residual, item["poly"])
        if got or listed:
            items.append({"factor": item["name"], "multiplicity": got,
                          "listed": listed, "ok": got == listed})
        if got > listed:
            residual = residual * item["poly"] ** (got - listed)
    return {
        "items": items,
        "residual": str(residual),
        "ok": all(r["ok"] for r in items) and residual.degree() == 0
        and abs(residual.leading_coefficient()) == 1,
    }


def radical_rank(n: int, q_value: int) -> int:
    """Rank over the rationals of the degree-n composition Gram matrix at an
    integer q; the corank is the dimension of the radical."""
    _, rows = gram_matrix(n, q=q_value)
    return rank_exact(rows)
