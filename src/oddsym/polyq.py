"""Exact integer polynomials in q and exact linear algebra.

QPoly is a dense, canonical (no trailing zeros) coefficient list over
arbitrary-precision ints; its arithmetic takes QPoly operands only.  One
fraction-free (Bareiss) elimination over integer matrices gives det_exact and
rank_exact forward only, and unimodular_inverse and kernel_basis (primitive
integer vectors) from its reduced form.  The one elimination mod p, LDL^T
on the upper triangle, serves det_by_interpolation: the determinant of a
QPoly matrix with no polynomial products whose determinant is known to
satisfy det(q) = +-q^M det(1/q).  Each elimination at a node x gives the
value at x and, through that symmetry, the value at 1/x mod p; Newton
interpolation on the nodes x, 1/x for x = 3, 4, ... recovers det mod the
first prime of DET_PRIMES above twice a proven coefficient bound, lifted to
the balanced residues.  A point LDL^T cannot take (not symmetric, or a
vanishing pivot) takes det_exact of the residues.
"""

from math import gcd, isqrt


class QPoly:
    """Polynomial in q with integer coefficients, constant term first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        self.coeffs = tuple(c)

    # -- constructors

    @classmethod
    def from_exponent_counts(cls, counts: dict) -> "QPoly":
        if not counts:
            return cls()
        out = [0] * (max(counts) + 1)
        for e, c in counts.items():
            out[e] = c
        return cls(out)

    # -- structure

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def leading_coefficient(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def evaluate(self, q: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * q + c
        return acc

    # -- arithmetic

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return QPoly(
            [
                (self.coeffs[i] if i < len(self.coeffs) else 0)
                + (other.coeffs[i] if i < len(other.coeffs) else 0)
                for i in range(n)
            ]
        )

    def __neg__(self):
        return QPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if self.is_zero() or other.is_zero():
            return QPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return QPoly(out)

    def __pow__(self, n: int):
        acc = QPoly((1,))
        for _ in range(n):
            acc = acc * self
        return acc

    def divmod(self, other):
        """Long division; requires the leading coefficient of the divisor to
        divide exactly at each step (always true for monic divisors)."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        d = other.degree()
        lead = other.leading_coefficient()
        quot = [0] * max(len(rem) - d, 0)
        for shift in range(len(quot) - 1, -1, -1):
            top = rem[shift + d]
            if top == 0:
                continue
            c, r = divmod(top, lead)
            if r != 0:
                raise ValueError("non-exact leading-coefficient division")
            quot[shift] = c
            for i, b in enumerate(other.coeffs):
                rem[shift + i] -= c * b
        return QPoly(quot), QPoly(rem)

    # -- comparison / hashing / display

    def __eq__(self, other):
        return isinstance(other, QPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for exp, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if exp == 0:
                term = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else str(abs(c))
                term = f"{mag}q" if exp == 1 else f"{mag}q^{exp}"
            if not parts:
                parts.append(term if c > 0 else "-" + term)
            else:
                parts.append(("+" if c > 0 else "-") + term)
        return "".join(parts)

    def __repr__(self):
        return f"QPoly({list(self.coeffs)})"


def divide_out(p: QPoly, f: QPoly) -> tuple[int, QPoly]:
    """Largest k with f^k | p, together with p / f^k.

    f must be nonzero; p = 0 is rejected (every power divides it).
    """
    if f.is_zero():
        raise ValueError("divisor is zero")
    if p.is_zero():
        raise ValueError("cannot extract multiplicities from the zero polynomial")
    if f.degree() == 0:
        raise ValueError("constant divisor has no well-defined multiplicity")
    if f.coeffs == (0, 1):
        k = next(i for i, c in enumerate(p.coeffs) if c)
        return k, QPoly(p.coeffs[k:])
    k = 0
    while True:
        q, r = p.divmod(f)
        if not r.is_zero():
            return k, p
        p = q
        k += 1


# ---------------------------------------------------------------------------
# exact integer matrix helpers


def det_exact(matrix) -> int:
    """Exact determinant of an integer matrix: +-d from the forward
    fraction-free elimination, or 0 when a column has no pivot."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix is not square")
    _, pivots, sign, d = _fraction_free(matrix)
    if len(pivots) < n:
        return 0
    return d if sign == 1 else -d


def _fraction_free(matrix, reduced=False):
    """Fraction-free (Bareiss) elimination of an integer matrix:
    (m, pivots, sign, d).

    At pivot p each row to clear becomes (p * row - f * pivot row) // prev,
    f its entry in the pivot column and prev the previous pivot (1 at
    first); the division is exact, every entry being a minor of the input.
    A column with no pivot is skipped.  sign is the parity of the row swaps
    and d the last pivot: a square matrix with n pivots has det = sign * d.
    Forward only the rows below each pivot are cleared; with reduced=True
    also those above, and m is d times the reduced row echelon form over Q.
    """
    m = [list(row) for row in matrix]
    nrows, ncols = len(m), len(m[0]) if m else 0
    pivots: list[int] = []
    sign, prev = 1, 1
    for col in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if m[i][col]), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            sign = -sign
        prow = m[r]
        p = prow[col]
        for i in range(0 if reduced else r + 1, nrows):
            if i == r:
                continue
            # Left of col a lower row is zero; a row above scales by p / prev.
            lo = 0 if i < r else col + 1
            row = m[i]
            f = row[col]
            row[lo:] = [(p * a - f * b) // prev for a, b in zip(row[lo:], prow[lo:])]
            row[col] = 0
        prev = p
        pivots.append(col)
    return m, pivots, sign, prev


# The primes of det_by_interpolation, smallest (cheapest per point) first.  Of
# the symmetric blocks G+ and G- of gramdet.reversal_blocks, 2^61 - 1 serves
# all below degree 5 and G- at degree 6, 2^127 - 1 G+ at degree 5, the
# NIST P-192 prime G+ at degree 6 (B < 2^162) and G- at degree 7 (B < 2^183),
# and 2^521 - 1 G+ at degree 7 (B < 2^368); no block needs a prime between.
# The nodes of a block stay below 300, so each prime keeps them distinct.
DET_PRIMES = (2**61 - 1, 2**127 - 1, 2**192 - 2**64 - 1, 2**521 - 1)


def det_bounds(matrix) -> tuple[int, int]:
    """(D, B) for a square QPoly matrix A: det A has degree at most D and no
    coefficient above B in absolute value; (-1, 0) when a row is zero.

    D = sum_i max_j deg a_ij, since each Leibniz term takes one entry per row.
    On |q| = 1 every entry has |a(q)| <= ||a||_1, the sum of its absolute
    coefficients, so Hadamard's inequality gives
    |det A(q)| <= prod_i sqrt(sum_j ||a_ij||_1^2) <= B with
    B = prod_i ceil(sqrt(sum_j ||a_ij||_1^2)).  The coefficients of det A are
    its Fourier coefficients on the unit circle, so Cauchy's estimate bounds
    each of them by B.
    """
    degree, bound = 0, 1
    for row in matrix:
        norms = [sum(abs(c) for c in e.coeffs) for e in row]
        square = sum(x * x for x in norms)
        if square == 0:
            return -1, 0
        degree += max(e.degree() for e in row)
        bound *= isqrt(square - 1) + 1
    return degree, bound


def det_prime(degree: int, bound: int) -> int:
    """The first prime of DET_PRIMES that is sound for det_bounds (D, B):
    the balanced lift needs p > 2B + 1, and the nodes x and 1/x for
    x = 3, ..., X, X = D // 2 + 3 at most, must stay distinct mod p:
    x * y != 1 and x != y mod p for any two of them, which X^2 < p ensures.
    Raises ValueError past the last prime."""
    for p in DET_PRIMES:
        if p > 2 * bound + 1 and (degree // 2 + 3) ** 2 < p:
            return p
    raise ValueError(f"coefficient bound 2^{bound.bit_length()} is too "
                     "large for every prime of DET_PRIMES")


def det_by_interpolation(matrix, m: int) -> QPoly:
    """Exact determinant of a square matrix A of QPoly entries, with no
    polynomial products, given det A(q) = +-q^m det A(1/q).

    With (D, B) from det_bounds and p = det_prime(D, B), that symmetry
    makes the coefficients below v = m - D vanish, so det A = q^v h with h
    of degree at most K = 2D - m and h(1/x) = s x^-K h(x), s = +-1.  One
    elimination mod p at a node x gives h(x) = det A(x) / x^v, and with s
    also h(1/x); the nodes are x = 3, 4, ... and their inverses mod p, K + 1
    in all.  s is read from direct eliminations at x and at 1/x, x = 3 and
    on past any x with h(x) = 0.  A ratio other than +-1 there, or m outside
    [D, 2D], raises ArithmeticError: det A then lacks the symmetry.  Each
    determinant is taken mod p on the upper triangle if A is symmetric, and
    is det_exact of the residues if not or if a diagonal pivot vanishes.
    Newton interpolation gives h mod p; since every coefficient lies in
    [-B, B], the balanced residues are the coefficients themselves.  No
    node is 2 or 1/2, so a check of the result at q = 2 stays independent.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix is not square")
    degree, bound = det_bounds(matrix)
    if bound == 0:
        return QPoly()
    v, width = m - degree, 2 * degree - m
    if v < 0 or width < 0:
        raise ArithmeticError(f"no determinant of degree at most {degree} "
                              f"is +-q^{m} times its value at 1/q")
    p = det_prime(degree, bound)
    # Each distinct entry is evaluated once per point.
    index = {}
    layout = [[index.setdefault(e, len(index)) for e in row] for row in matrix]
    entries = list(index)
    upper = [row[k:] for k, row in enumerate(layout)]
    symmetric = upper == [list(col[k:]) for k, col in enumerate(zip(*layout))]

    def h(x):
        at = [e.evaluate(x) % p for e in entries]
        det = symmetric and _det_sym_mod([[at[i] for i in row] for row in upper], p)
        det = det or det_exact([[at[i] for i in row] for row in layout]) % p
        return det * pow(x, -v, p) % p

    nodes, values, sign = [], [], None
    for x in range(3, width // 2 + 4):
        inverse, hx = pow(x, -1, p), h(x)
        if sign is None:
            hinv = h(inverse)
            mirrored = hinv * pow(x, width, p) % p
            if mirrored not in (hx, -hx % p):
                raise ArithmeticError(f"det(1/{x}) is not +-{x}^-{m} det({x}) mod p")
            if hx:
                sign = 1 if mirrored == hx else -1
        else:
            hinv = sign * hx * pow(inverse, width, p) % p
        nodes += (x, inverse)
        values += (hx, hinv)
    half = p // 2
    coeffs = _interpolate(nodes[:width + 1], values[:width + 1], p)
    return QPoly([0] * v + [c - p if c > half else c for c in coeffs])


def _det_sym_mod(upper, p: int) -> int | None:
    """Determinant mod p of a symmetric integer matrix from its upper rows
    upper[k] = [a_kk, ..., a_k(n-1)], destroying them, by elimination without
    pivoting (LDL^T) on and right of the diagonal only; None when a diagonal
    pivot vanishes mod p.  Reduction is lazy: a row is reduced when it is the
    pivot row, so each update a - f*b adds less than p^2 to an entry."""
    det = 1
    for k, row in enumerate(upper):
        d, *tail = [x % p for x in row]
        if not d:
            return None
        det = det * d % p
        inv = pow(d, -1, p)
        pivot_tail = [x * inv % p for x in tail]
        for i, f in enumerate(tail, k + 1):
            upper[i] = [a - f * b for a, b in zip(upper[i], pivot_tail[i - k - 1:])]
    return det


def _interpolate(nodes, values, p: int) -> list[int]:
    """Coefficients mod p, constant term first, of the polynomial of degree
    below len(values) that takes values[i] at nodes[i], the nodes distinct
    mod p.

    Newton divided differences divide by nodes[j] - nodes[j - k] at level k;
    Horner's rule in the Newton basis then expands the product form.
    """
    c = list(values)
    d = len(c)
    for k in range(1, d):
        for j in range(d - 1, k - 1, -1):
            c[j] = (c[j] - c[j - 1]) * pow(nodes[j] - nodes[j - k], -1, p) % p
    poly = []
    for k in range(d - 1, -1, -1):
        # poly <- poly * (x - nodes[k]) + c[k]
        poly = [(lo - nodes[k] * hi) % p for lo, hi in zip([0] + poly, poly + [0])]
        poly[0] = (poly[0] + c[k]) % p
    return poly


def rank_exact(matrix) -> int:
    """Rank of an integer matrix: the number of pivots."""
    return len(_fraction_free(matrix)[1])


def unimodular_inverse(matrix) -> list[list[int]]:
    """Exact inverse of an integer matrix with determinant +-1: the right
    block of the reduced form d (I | A^-1) of [A | I], times d = +-1.

    Raises ValueError unless A is invertible with an integral inverse, which
    for an integer matrix is the same as det A = +-1.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix is not square")
    m, pivots, _, d = _fraction_free(
        [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(matrix)],
        reduced=True,
    )
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    if d not in (1, -1):
        raise ValueError("matrix is not unimodular: the inverse is not integral")
    return [[x * d for x in row[n:]] for row in m]


def kernel_basis(matrix) -> list[list[int]]:
    """Basis of the right kernel of an integer matrix, one vector per free
    column of the reduced row echelon form: that column's vector over Q,
    scaled to a primitive integer vector with a positive free entry."""
    if not matrix:
        return []
    m, pivots, _, d = _fraction_free(matrix, reduced=True)
    basis = []
    for fc in range(len(m[0])):
        if fc in pivots:
            continue
        vec = [0] * len(m[0])
        vec[fc] = d
        for r, pc in enumerate(pivots):
            vec[pc] = -m[r][fc]
        g = gcd(*vec) if d > 0 else -gcd(*vec)
        basis.append([v // g for v in vec])
    return basis
