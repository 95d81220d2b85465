"""Brute-force second routes to the library's numbers, kept as test oracles.

The library computes each pairing, determinant and table one way; the routes
here compute the same numbers independently so the tests can compare them
entry by entry.
"""

from fractions import Fraction
from functools import cache

from oddsym import oddring
from oddsym.bases import basis_matrix, forgotten, kostka_unsigned
from oddsym.combinat import (
    is_partition,
    matrices_with_margins,
    matrix_sign,
    partitions_of,
    ssyt,
    superstandard,
    triangular,
)
from oddsym.form import E, _pair_h, _row_steps, e_expansion, htilde_expansion
from oddsym.polyq import QPoly, det_exact, unimodular_inverse
from oddsym.rsk import rsk, sign_record, tableau_facts


def det_at_points(matrix, points) -> list[int]:
    """The determinant of a QPoly matrix at each integer point: the integer
    Bareiss determinant of the evaluated matrix, with no interpolation."""
    return [det_exact([[e.evaluate(x) for e in row] for row in matrix]) for x in points]


def _det_mod(m, p: int) -> int:
    """Determinant mod p of an integer matrix, destroying it.

    Reduction is lazy: the pivot row and the multipliers are reduced mod p,
    so each update a - f*b adds less than p^2 to an entry, and the trailing
    block is left unreduced.
    """
    n = len(m)
    det = 1
    for k in range(n):
        col = [m[i][k] % p for i in range(k, n)]
        piv = next((i for i, v in enumerate(col) if v), None)
        if piv is None:
            return 0
        if piv:
            m[k], m[k + piv] = m[k + piv], m[k]
            col[0], col[piv] = col[piv], col[0]
            det = -det
        det = det * col[0] % p
        inv = pow(col[0], -1, p)
        pivot_tail = [x * inv % p for x in m[k][k + 1:]]
        for i in range(k + 1, n):
            f = col[i - k]
            if f:
                row = m[i]
                row[k + 1:] = [a - f * b for a, b in zip(row[k + 1:], pivot_tail)]
    return det % p


@cache
def _classical_schur_rows(n: int) -> dict:
    """Row lam is the classical s_lam in h-coordinates: the inverse of the
    transposed unsigned Kostka matrix (h_nu = sum_lam K0[lam][nu] s_lam)."""
    parts = partitions_of(n)
    inverse = unimodular_inverse([[kostka_unsigned(lam, nu) for lam in parts]
                                  for nu in parts])
    return {lam: {nu: c for nu, c in zip(parts, row) if c}
            for lam, row in zip(parts, inverse)}


def classical_lr(lam, mu) -> dict:
    """{kappa: c^kappa_(lam mu)}, the classical Littlewood-Richardson
    coefficients of s_lam s_mu, with no sign code: both factors in
    h-coordinates, h_a h_b = h_(a and b sorted), and h_nu back to
    sum_kappa K0[kappa][nu] s_kappa by the unsigned Kostka numbers."""
    product: dict = {}
    for a, ca in _classical_schur_rows(sum(lam))[tuple(lam)].items():
        for b, cb in _classical_schur_rows(sum(mu))[tuple(mu)].items():
            nu = tuple(sorted(a + b, reverse=True))
            product[nu] = product.get(nu, 0) + ca * cb
    out = {kappa: sum(c * kostka_unsigned(kappa, nu) for nu, c in product.items())
           for kappa in partitions_of(sum(lam) + sum(mu))}
    return {kappa: c for kappa, c in out.items() if c}


def cable_sign(matrix) -> int:
    """Product over entries a of (-1)^T(a-1)."""
    total = sum(triangular(a - 1) for row in matrix for a in row if a >= 1)
    return -1 if total % 2 else 1


def basis_matrix_entry_by_enumeration(kind: str, lam, mu) -> int:
    """(x_lam, y_mu) at q = -1 as a signed count of margin matrices:
    {0,1}-matrices for (e,h), N-matrices for (h,h), and N-matrices with the
    cable sign for (e,e)."""
    mats = matrices_with_margins(lam, mu)
    if kind == "eh":
        mats = [m for m in mats if all(x <= 1 for row in m for x in row)]
    if kind == "ee":
        return sum(matrix_sign(m) * cable_sign(m) for m in mats)
    return sum(matrix_sign(m) for m in mats)


def kostka_by_enumeration(lam, mu) -> tuple[int, int]:
    """The signed and plain Kostka numbers of shape lam and content mu from
    the list of every SSYT: sign(T_lam) times the sum of the tableau signs,
    and the number of tableaux."""
    tableaux = ssyt(lam, mu)
    return superstandard(lam).sign() * sum(t.sign() for t in tableaux), len(tableaux)


def pair_htilde_inclusion_exclusion(beta, alpha) -> QPoly:
    """h-tilde pairing through the signed coarsening expansions of both
    sides and the generic h-word pairing."""
    counts: dict[int, int] = {}
    for b, cb in htilde_expansion(beta).items():
        for a, ca in htilde_expansion(alpha).items():
            for e, c in _pair_h(b, a):
                counts[e] = counts.get(e, 0) + cb * ca * c
    return QPoly.from_exponent_counts(counts)


def expand_colored_word(word) -> dict:
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


@cache
def pair_colored_direct(beta, alpha) -> int:
    """The q = -1 pairing of the signed words beta (rows) and alpha
    (columns), recursing row by row and memoized on (rows left, columns
    left) as given, without turning a state to its transposed orientation."""
    if not beta:
        return 1 if not alpha else 0
    rest = beta[1:]
    return sum(-pair_colored_direct(rest, left) if exp % 2 else pair_colored_direct(rest, left)
               for exp, left in _row_steps(beta[0], alpha))


def e_elt_by_letters(parts) -> oddring.OddElt:
    """e_parts as the product of its letters, multiplied left to right."""
    out = oddring.OddElt.one()
    for p in parts:
        out = out * oddring.e_letter(p)
    return out


def pair_words_by_expansion(y, x) -> QPoly:
    """Generic-q pairing of colored words with every e-letter of both sides
    expanded into signed h-words, pairing each h-word pair."""
    right = expand_colored_word(tuple(x))
    counts: dict[int, int] = {}
    for wy, cy in expand_colored_word(tuple(y)).items():
        for wx, cx in right.items():
            for e, c in _pair_h(wy, wx):
                counts[e] = counts.get(e, 0) + cy * cx * c
    return QPoly.from_exponent_counts(counts)


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


def rref_over_q(matrix):
    """Reduced row echelon form over Q of a rational matrix, by Gauss-Jordan
    elimination on Fractions, together with its pivot columns: the reference
    for the fraction-free elimination of oddsym.polyq."""
    m = [[Fraction(x) for x in row] for row in matrix]
    nrows, ncols = len(m), len(m[0]) if m else 0
    pivots: list[int] = []
    for col in range(ncols):
        row = len(pivots)
        if row == nrows:
            break
        piv = next((i for i in range(row, nrows) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        pv = m[row][col]
        tail = [x / pv for x in m[row][col:]]
        m[row][col:] = tail
        for i in range(nrows):
            f = m[i][col]
            if i != row and f != 0:
                m[i][col:] = [a - f * b for a, b in zip(m[i][col:], tail)]
        pivots.append(col)
    return m, pivots


def adjointness_per_triple(n: int) -> list:
    """(y1 (x) y2, Delta x) = (y1 y2, x) triple by triple: the tensor pairing
    of the coproduct against pair of the product, for every h-basis triple of
    total degree at most n, witnesses in the order (d1, y1, d2, y2, x)."""
    h = oddring.h_elt
    coproducts = {
        x: oddring.coproduct(h(x)) for total in range(n + 1) for x in partitions_of(total)
    }
    failures = []
    for d1 in range(n + 1):
        for y1p in partitions_of(d1):
            for d2 in range(n + 1 - d1):
                for y2p in partitions_of(d2):
                    y1, y2 = h(y1p), h(y2p)
                    prod = y1 * y2
                    for xp in partitions_of(d1 + d2):
                        lhs = oddring.pair_tensor(coproducts[xp], y1, y2)
                        rhs = oddring.pair(prod, h(xp))
                        if lhs != rhs:
                            failures.append(
                                {"y1": y1p, "y2": y2p, "x": xp, "lhs": lhs, "rhs": rhs}
                            )
    return failures



def tensor_square_product(x: dict, y: dict) -> dict:
    """The product of two tensor-square elements, dicts (left, right) ->
    coefficient over h-basis partitions, as oddring.coproduct returns them:
    (a (x) b)(c (x) d) = (-1)^(|b| |c|) ac (x) bd, the braiding that
    oddring._coproduct_word uses, with ac and bd in normal form."""
    out: dict = {}
    for (a, b), c1 in x.items():
        for (c, d), c2 in y.items():
            sign = -1 if sum(b) * sum(c) % 2 else 1
            for ac, c3 in oddring.normalize_word(a + c):
                for bd, c4 in oddring.normalize_word(b + d):
                    out[ac, bd] = out.get((ac, bd), 0) + sign * c1 * c2 * c3 * c4
    return {k: v for k, v in out.items() if v}

def odd_rsk_per_matrix(mu, rho) -> list:
    """The records of odd_rsk_check(mu, rho)["matrices"], one matrix at a
    time: each matrix of matrices_with_margins gets a fresh rsk, its sign
    from matrix_sign, and the sign, shape, semistandard and content checks."""
    mu, rho = tuple(mu), tuple(rho)
    records = []
    for a in matrices_with_margins(mu, rho):
        p, q = rsk(a)
        e = sign_record(a, tableau_facts(p), tableau_facts(q), matrix_sign(a))
        e["ok"] = (
            e["sign_A"] == e["shape_sign"] * e["sign_P"] * e["sign_Q"]
            and p.shape == q.shape
            and p.is_semistandard()
            and q.is_semistandard()
            and p.content(len(rho)) == rho
            and q.content(len(mu)) == mu
        )
        records.append(e)
    return records


def semistandard_by_definition(rows) -> bool:
    """Rows of partition shape, entries at least 1, weakly increasing along
    rows and strictly increasing down columns, checked condition by
    condition."""
    rows = [tuple(r) for r in rows]
    return (
        is_partition(len(r) for r in rows)
        and all(x >= 1 for r in rows for x in r)
        and all(r[i] <= r[i + 1] for r in rows for i in range(len(r) - 1))
        and all(
            upper[j] < lower[j]
            for upper, lower in zip(rows, rows[1:])
            for j in range(len(lower))
        )
    )


def knuth_neighbors(word):
    """Words one elementary Knuth move away (either direction), written out
    from the two moves (K') and (K'') of oddsym.rsk."""
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


def two_line_array(matrix) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Book-reading two-line array of an N-matrix; an entry k stands for k
    coincident unit entries.  RSK inserts the bottom line and records the
    top one."""
    u, v = [], []
    for i, row in enumerate(matrix):
        for j, a in enumerate(row):
            if a < 0:
                raise ValueError("matrix entries must be nonnegative")
            u.extend([i + 1] * a)
            v.extend([j + 1] * a)
    return tuple(u), tuple(v)
