import random
from fractions import Fraction
from math import comb, gcd, isqrt, lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oddsym.gramdet import reversal_blocks
from oddsym.polyq import (
    DET_PRIMES,
    QPoly,
    _det_sym_mod,
    det_bounds,
    det_by_interpolation,
    det_exact,
    det_prime,
    divide_out,
    kernel_basis,
    rank_exact,
    unimodular_inverse,
)

from oracles import _det_mod, det_at_points, det_by_consecutive_nodes, rref_over_q
from test_oddring import PROPERTY

ONE = QPoly((1,))
Q = QPoly((0, 1))


def rand_poly(rng, max_deg=4, span=5):
    return QPoly([rng.randint(-span, span) for _ in range(rng.randint(0, max_deg + 1))])


def det_cofactor(matrix):
    """Naive cofactor expansion, the independent oracle for det_exact."""
    n = len(matrix)
    if n == 0:
        return 1
    if n == 1:
        return matrix[0][0]
    total = None
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in matrix[1:]]
        term = matrix[0][j] * det_cofactor(minor)
        if j % 2:
            term = -term
        total = term if total is None else total + term
    return total


def elimination_points(degree: int, m: int, p: int) -> list[int]:
    """The points det_by_interpolation eliminates at for a nonzero
    determinant with h(3) != 0 mod p: x = 3 and 1/3 mod p, then
    x = 4, 5, ..., enough for the 2D - m + 1 nodes x, 1/x."""
    return [3, pow(3, -1, p), *range(4, (2 * degree - m) // 2 + 4)]


def elimination_mismatches(n):
    """(bad, points, fallbacks) over both symmetric blocks of degree n, each
    at every point det_by_interpolation eliminates at, modulo the prime it
    takes for the block: the (block, x) where symmetric elimination and
    _det_mod differ, the number of points, and {(block, x): determinant of
    the block at x mod p} where a diagonal pivot vanished (the symmetric
    route answers None, and det_by_interpolation falls back to
    det_exact)."""
    bad, points, fallbacks = [], 0, {}
    for name, block in zip(("G+", "G-"), reversal_blocks(n)):
        assert block == [list(col) for col in zip(*block)], (n, name)
        degree, bound = det_bounds(block)
        p = det_prime(degree, bound)
        for x in elimination_points(degree, len(block) * comb(n, 2), p):
            at = [[e.evaluate(x) % p for e in row] for row in block]
            got = _det_sym_mod([row[k:] for k, row in enumerate(at)], p)
            points += 1
            if got is None:
                fallbacks[name, x] = det_exact(at) % p
            elif got != _det_mod(at, p):
                bad.append((name, x))
    return bad, points, fallbacks


def mirrored_matrix(rng, n, width, sign):
    """An n x n matrix of random entries a with q^width a(1/q) = sign a: its
    determinant is sign^n q^(n width) det(1/q)."""
    def entry():
        c = [0] * (width + 1)
        for i in range(width // 2 + 1):
            c[i] = rng.randint(-3, 3) if 2 * i != width or sign == 1 else 0
            c[width - i] = sign * c[i]
        return QPoly(c)
    return [[entry() for _ in range(n)] for _ in range(n)]


def is_probable_prime(n, bases=(2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)):
    """Miller-Rabin to the given bases."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class TestQPoly:
    def test_canonical_form(self):
        assert QPoly((1, 0, 0)).coeffs == (1,)
        assert QPoly((0, 0)).is_zero()
        assert QPoly().degree() == -1

    def test_ring_axioms_random(self):
        rng = random.Random(20510)
        for _ in range(120):
            a, b, c = (rand_poly(rng) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a

    def test_big_coefficients(self):
        big = QPoly((10**30, -(10**25)))
        assert (big * big).coeffs[0] == 10**60

    def test_exact_division(self):
        two = QPoly((2,))
        p = (Q + ONE) ** 3 * (Q - two)
        assert p.divmod(Q + ONE) == ((Q + ONE) ** 2 * (Q - two), QPoly())
        assert (Q + ONE).divmod(Q) == (ONE, ONE)
        with pytest.raises(ValueError):
            Q.divmod(two * Q)

    def test_str(self):
        assert str(QPoly((1, 0, 2, 1))) == "1+2q^2+q^3"
        assert str(QPoly((0, -1))) == "-q"
        assert str(QPoly((1, -2))) == "1-2q"
        assert str(QPoly()) == "0"

    def test_evaluate(self):
        p = QPoly((1, 2, 1))
        assert p.evaluate(-1) == 0
        assert p.evaluate(2) == 9

    def test_operands_are_polynomials_only(self):
        # an integer operand is written as a constant QPoly
        assert ONE != 1 and QPoly() != 0
        for op in (lambda: 1 + ONE, lambda: 1 - ONE, lambda: 2 * ONE):
            with pytest.raises(TypeError):
                op()


class TestDeterminants:
    def test_two_by_two_polynomial(self):
        m = [[ONE + Q, ONE], [ONE, ONE]]
        assert det_by_interpolation(m, 2) == det_cofactor(m) == Q

    def test_identity(self):
        for n in range(1, 6):
            eye = [[int(i == j) for j in range(n)] for i in range(n)]
            assert det_exact(eye) == 1
            assert det_by_interpolation([[QPoly((x,)) for x in row] for row in eye], 0) == ONE

    def test_against_cofactor_random_int(self):
        rng = random.Random(7)
        for _ in range(60):
            n = rng.randint(1, 4)
            m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            assert det_exact([row[:] for row in m]) == det_cofactor(m)

    def test_against_cofactor_random_poly(self):
        # integer Bareiss at q = -3..3 against the cofactor expansion in Z[q]
        rng = random.Random(11)
        points = range(-3, 4)
        for _ in range(25):
            n = rng.randint(1, 3)
            m = [[rand_poly(rng, 2, 3) for _ in range(n)] for _ in range(n)]
            det = det_cofactor(m)
            assert det_at_points(m, points) == [det.evaluate(x) for x in points]

    def test_composition_gram_degree_3(self):
        # degree-3 composition Gram determinant has q-degree 2^(3-2)*4 - 1 = 7
        # and is q^12 times its value at 1/q (4 rows, C(3, 2) = 3)
        from oddsym.form import pair_h_generic
        from oddsym.combinat import compositions_of

        comps = compositions_of(3)
        m = [[pair_h_generic(b, a) for a in comps] for b in comps]
        det = det_cofactor(m)
        assert det.degree() == 7
        assert det_by_interpolation(m, 12) == det_by_consecutive_nodes(m) == det

    def test_singular(self):
        assert det_exact([[1, 2], [2, 4]]) == 0


class TestInterpolation:
    """det_by_interpolation, and the consecutive-node route of the oracles,
    against the Bareiss and cofactor oracles."""

    @pytest.mark.parametrize("n", range(2, 6))
    def test_gram_matrices_match_bareiss(self, n):
        # integer Bareiss at q = 0..D+1, D the degree formula; the whole
        # matrix is q^M times its value at 1/q, M = 2^(n-1) C(n, 2)
        from oddsym.gramdet import det_degree_formula, gram_matrix

        _, rows = gram_matrix(n)
        points = range(det_degree_formula(n) + 2)
        det = det_by_interpolation(rows, len(rows) * comb(n, 2))
        assert det_at_points(rows, points) == [det.evaluate(x) for x in points]

    def test_random_matrices_match_oracles(self):
        rng = random.Random(31)
        for _ in range(80):
            n = rng.randint(1, 4)
            m = [[rand_poly(rng, 3, 6) for _ in range(n)] for _ in range(n)]
            assert det_by_consecutive_nodes(m) == det_cofactor(m)

    def test_random_mirrored_matrices_match_cofactors(self):
        # not symmetric, so every point takes det_exact; with sign -1 and n
        # odd the determinant is anti-palindromic
        rng = random.Random(37)
        for _ in range(60):
            n, width, sign = rng.randint(1, 4), rng.randint(0, 4), rng.choice((1, -1))
            m = mirrored_matrix(rng, n, width, sign)
            assert det_by_interpolation(m, n * width) == det_cofactor(m), (m, width)

    def test_singular_and_rank_deficient(self):
        # the zero determinant is q^m times its value at 1/q for every m
        p = QPoly((1, -2, 3))
        assert det_by_interpolation([[p, p * Q], [Q, Q * Q]], 6) == QPoly()
        assert det_by_interpolation([[p, ONE], [QPoly(), QPoly()]], 0) == QPoly()

    def test_edge_shapes(self):
        assert det_by_interpolation([], 0) == ONE
        assert det_by_interpolation([[QPoly((3,))]], 0) == QPoly((3,))
        with pytest.raises(ValueError):
            det_by_interpolation([[ONE, ONE]], 0)

    def test_negative_coefficients_at_the_bound(self):
        # det = -(B) exactly at the coefficient bound: the balanced lift
        # must return the negative value, not p - B
        big = 10**12
        m = [[QPoly(), QPoly((big,))], [QPoly((big,)), QPoly()]]
        assert det_bounds(m) == (0, big * big)
        assert det_by_interpolation(m, 0) == QPoly((-(big * big),))

    def test_bound_beyond_the_prime(self):
        assert det_by_interpolation([[QPoly((-(2**253),))]], 0) == QPoly((-(2**253),))
        with pytest.raises(ValueError):
            det_by_interpolation([[QPoly((2**521,))]], 0)

    def test_negative_coefficients_at_the_smallest_prime(self):
        # B = 2^60 - 2 is the largest bound with 2^61 - 1 > 2B + 1; the
        # antidiagonal matrix reaches it through the fallback (zero pivot)
        for m in ([[QPoly((-(2**60 - 2),))]],
                  [[QPoly(), QPoly((2**30 - 1,))], [QPoly((2**30 - 1,)), QPoly()]]):
            degree, bound = det_bounds(m)
            assert det_prime(degree, bound) == 2**61 - 1
            assert det_by_interpolation(m, 0) == QPoly((-bound,))
        m = [[QPoly((-(2**60 - 1),))]]
        assert det_prime(*det_bounds(m)) == 2**127 - 1
        assert det_by_interpolation(m, 0) == QPoly((-(2**60 - 1),))

    def test_prime_chosen_by_bound(self):
        assert DET_PRIMES == (2**61 - 1, 2**127 - 1, 2**192 - 2**64 - 1, 2**521 - 1)
        assert det_prime(*det_bounds([[QPoly((2**191 - 2**63 - 2,))]])) == 2**192 - 2**64 - 1
        # B >= 2^191 - 2^63 - 1 breaks p > 2B + 1 for the P-192 prime
        m = [[QPoly((-(2**191 - 2**63 - 1),))]]
        assert det_prime(*det_bounds(m)) == 2**521 - 1
        assert det_by_interpolation(m, 0) == QPoly((-(2**191 - 2**63 - 1),))
        # the nodes x, 1/x for x = 3..D // 2 + 3 must stay distinct mod p:
        # (D // 2 + 3)^2 < p
        p61 = DET_PRIMES[0]
        top = 2 * (isqrt(p61 - 1) - 3) + 1
        assert det_prime(top, 1) == p61
        assert det_prime(top + 1, 1) == 2**127 - 1
        assert det_prime(2**192 - 2**64 - 1, 1) == 2**521 - 1
        with pytest.raises(ValueError):
            det_prime(2**521, 1)

    def test_prime_of_each_gram_block(self):
        # (G+, G-) per degree
        p61, p127, p192, p521 = DET_PRIMES
        want = {2: (p61, p61), 3: (p61, p61), 4: (p61, p61), 5: (p127, p61),
                6: (p192, p61), 7: (p521, p192)}
        for n, primes in want.items():
            assert tuple(det_prime(*det_bounds(b)) for b in reversal_blocks(n)) == primes, n

    def test_prime_is_prime(self):
        for p in DET_PRIMES:
            assert is_probable_prime(p)
        assert not is_probable_prime(561)
        assert not is_probable_prime((2**61 - 1) * (2**127 - 1))

    @pytest.mark.parametrize("n", range(2, 7))
    def test_bounds_on_gram_matrices(self, n):
        from oddsym.gramdet import det_degree_formula, gram_det, gram_matrix

        _, rows = gram_matrix(n)
        degree, bound = det_bounds(rows)
        det = gram_det(n)
        assert degree == det_degree_formula(n) == det.degree()
        assert bound > max(abs(c) for c in det.coeffs)


class TestSymmetricElimination:
    """The upper-triangle elimination of det_by_interpolation against the
    general elimination mod p of the oracles (_det_mod), the det_exact
    fallback at a vanishing diagonal pivot or a matrix that is not
    symmetric, and the check of the symmetry that the route relies on.  No
    point of the Gram blocks falls back, so the hand-made matrices below are
    what show the fallback's value."""

    @pytest.mark.parametrize("n", range(2, 6))
    def test_equals_general_elimination_on_the_gram_blocks(self, n):
        bad, points, fallbacks = elimination_mismatches(n)
        assert bad == []
        assert points > 0
        assert fallbacks == {}

    def test_vanishing_pivot_falls_back(self):
        p = DET_PRIMES[0]
        assert _det_sym_mod([[0, 1], [0]], p) is None
        assert _det_sym_mod([[p, 1], [5]], p) is None
        assert _det_sym_mod([[1, 1], [1]], p) is None  # the second pivot
        assert det_by_interpolation([[QPoly(), ONE], [ONE, QPoly()]], 0) == QPoly((-1,))
        assert det_by_interpolation([[ONE, ONE], [ONE, ONE]], 0) == QPoly()
        # the first pivot vanishes at both direct points, q = 3 and 1/3
        a = QPoly((3, -10, 3))
        assert det_by_interpolation([[a, Q], [Q, a]], 4) == a * a - Q * Q

    def test_route_follows_symmetry(self, monkeypatch):
        from oddsym import polyq

        calls = []

        def recording(name, f):
            def call(m, *args):
                calls.append((name, len(m)))
                return f(m, *args)
            monkeypatch.setattr(polyq, name, call)

        recording("_det_sym_mod", _det_sym_mod)
        recording("det_exact", det_exact)
        two = QPoly((2,))
        # q - 1 = -q (1/q - 1): one pair of points, q = 3 and 1/3
        assert det_by_interpolation([[ONE + Q, ONE], [two, ONE]], 1) == Q - ONE
        assert calls == [("det_exact", 2)] * 2
        calls.clear()
        # 1 + q^2 + q^4: five nodes, 3 and 1/3 direct, then 4 and 5
        a = ONE + Q * Q
        assert det_by_interpolation([[a, Q], [Q, a]], 4) == a * a - Q * Q
        assert calls == [("_det_sym_mod", 2)] * 4
        calls.clear()
        a = QPoly((3, -10, 3))
        assert det_by_interpolation([[a, Q], [Q, a]], 4) == a * a - Q * Q
        assert calls == [("_det_sym_mod", 2), ("det_exact", 2)] * 2 + [("_det_sym_mod", 2)] * 2
        calls.clear()
        # the points of elimination_mismatches are the ones eliminated at
        plus, minus = reversal_blocks(5)
        for block in (plus, minus):
            det_by_interpolation(block, len(block) * comb(5, 2))
        assert len(calls) == elimination_mismatches(5)[1] == 35

    @pytest.mark.parametrize("shift", [-1, 1])
    def test_a_wrong_m_is_rejected(self, shift):
        plus, _ = reversal_blocks(4)
        m = len(plus) * comb(4, 2)
        with pytest.raises(ArithmeticError, match=r"det\(1/3\) is not"):
            det_by_interpolation(plus, m + shift)

    def test_a_matrix_without_the_symmetry_is_rejected(self):
        plus, _ = reversal_blocks(4)
        m = len(plus) * comb(4, 2)
        changed = [row[:] for row in plus]
        changed[0][0] = changed[0][0] + ONE
        with pytest.raises(ArithmeticError, match=r"det\(1/3\) is not"):
            det_by_interpolation(changed, m)
        with pytest.raises(ArithmeticError, match=r"det\(1/3\) is not"):
            det_by_interpolation([[ONE + QPoly((0, 2))]], 1)
        # m outside [D, 2D]: no determinant of degree D has the symmetry
        for m in (-1, 3):
            with pytest.raises(ArithmeticError, match="no determinant"):
                det_by_interpolation([[ONE + Q]], m)


class TestUnimodular:
    def test_two_by_two(self):
        assert unimodular_inverse([[0, 1], [1, 1]]) == [[-1, 1], [1, 0]]

    def test_identity(self):
        eye = [[int(i == j) for j in range(4)] for i in range(4)]
        assert unimodular_inverse(eye) == eye

    def test_rejects_non_unimodular(self):
        with pytest.raises(ValueError, match="not unimodular"):
            unimodular_inverse([[2, 0], [0, 1]])
        with pytest.raises(ValueError, match="singular"):
            unimodular_inverse([[1, 2], [2, 4]])

    @pytest.mark.parametrize("kind", ["hh", "ee"])
    def test_round_trip_on_pairing_tables(self, kind):
        from oddsym.bases import basis_matrix

        for n in range(1, 8):
            parts, rows = basis_matrix(kind, n)
            m = [list(r) for r in rows]
            inv = unimodular_inverse(m)
            size = len(parts)
            prod = [
                [sum(m[i][k] * inv[k][j] for k in range(size)) for j in range(size)]
                for i in range(size)
            ]
            assert prod == [[int(i == j) for j in range(size)] for i in range(size)]


def divide_out_by_division(p: QPoly, f: QPoly) -> tuple[int, QPoly]:
    """divide_out by repeated QPoly.divmod, for every divisor."""
    k = 0
    while True:
        quotient, remainder = p.divmod(f)
        if not remainder.is_zero():
            return k, p
        p, k = quotient, k + 1


class TestDivideOut:
    def test_pure_power(self):
        assert divide_out(Q**5, Q) == (5, ONE)

    def test_power_of_q_equals_repeated_division(self):
        from oddsym.gramdet import gram_det

        rng = random.Random(5)
        polys = [gram_det(n) for n in range(1, 6)] + [ONE, -Q, Q**3 * (ONE - Q)]
        polys += [p for p in (rand_poly(rng, 6) for _ in range(40)) if not p.is_zero()]
        for p in polys:
            assert divide_out(p, Q) == divide_out_by_division(p, Q), p

    def test_degree_three_gram_factors(self):
        from oddsym.gramdet import gram_det

        det = gram_det(3)
        assert divide_out(det, Q)[0] == 5
        assert divide_out(det, Q - ONE)[0] == 1
        assert divide_out(det, Q + ONE)[0] == 1

    def test_zero_divisor_rejected(self):
        with pytest.raises(ValueError):
            divide_out(Q, QPoly())


class TestRankAndKernel:
    def test_rank(self):
        assert rank_exact([[1, 2], [2, 4]]) == 1
        assert rank_exact([[1, 0], [0, 1]]) == 2
        assert rank_exact([[0, 0], [0, 0]]) == 0

    def test_kernel(self):
        basis = kernel_basis([[1, 2, 3]])
        assert len(basis) == 2
        for vec in basis:
            assert sum(c * v for c, v in zip((1, 2, 3), vec)) == 0


@st.composite
def integer_matrices(draw):
    """Integer matrices up to 6 x 7 with entries -3..3, square about half the
    time.  Up to two columns are replaced by combinations of the columns
    before them, so that free columns fall between pivot columns, and up to
    two rows and two columns are zeroed."""
    nrows = draw(st.integers(1, 6))
    ncols = nrows if draw(st.booleans()) else draw(st.integers(1, 7))
    entries = st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols)
    m = draw(st.lists(entries, min_size=nrows, max_size=nrows))
    combined = (draw(st.sets(st.integers(1, ncols - 1), max_size=2))
                if ncols > 1 else set())
    for j in sorted(combined):
        w = draw(st.lists(st.integers(-2, 2), min_size=j, max_size=j))
        for row in m:
            row[j] = sum(c * x for c, x in zip(w, row))
    rows = draw(st.sets(st.integers(0, nrows - 1), max_size=2))
    cols = draw(st.sets(st.integers(0, ncols - 1), max_size=2))
    return [[0 if i in rows or j in cols else x for j, x in enumerate(row)]
            for i, row in enumerate(m)]


def unitriangular_product(m):
    """L U with L and U unitriangular, L from the strict lower part of the
    square matrix m and U from its strict upper part: det = 1."""
    n = len(m)
    lower = [[m[i][j] if j < i else int(i == j) for j in range(n)] for i in range(n)]
    upper = [[m[i][j] if j > i else int(i == j) for j in range(n)] for i in range(n)]
    return [[sum(lower[i][k] * upper[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def inverse_or_error(matrix):
    try:
        return unimodular_inverse(matrix)
    except ValueError as exc:
        return str(exc)


def primitive(vec):
    """A rational vector cleared to a primitive integer vector, same sign."""
    denom = lcm(*(x.denominator for x in vec))
    ints = [int(x * denom) for x in vec]
    g = gcd(*ints)
    return [v // g for v in ints]


class TestAgainstRationalOracle:
    """The fraction-free elimination against Gauss-Jordan over Fractions."""

    @PROPERTY
    @given(integer_matrices())
    def test_rank_det_inverse_and_kernel(self, m):
        ncols = len(m[0])
        reduced, pivots = rref_over_q(m)
        assert rank_exact(m) == len(pivots)
        free = [c for c in range(ncols) if c not in pivots]
        want = []
        for fc in free:
            vec = [Fraction(0)] * ncols
            vec[fc] = Fraction(1)
            for r, pc in enumerate(pivots):
                vec[pc] = -reduced[r][fc]
            want.append(primitive(vec))
        assert kernel_basis(m) == want
        if len(m) != ncols:
            return
        assert det_exact(m) == det_cofactor(m)
        for a in (m, unitriangular_product(m)):
            n = len(a)
            aug, aug_pivots = rref_over_q(
                [row + [int(i == j) for j in range(n)] for i, row in enumerate(a)])
            if aug_pivots[:n] != list(range(n)):
                want = "matrix is singular"
            elif any(x.denominator != 1 for row in aug for x in row[n:]):
                want = "matrix is not unimodular: the inverse is not integral"
            else:
                want = [[int(x) for x in row[n:]] for row in aug]
            assert inverse_or_error(a) == want
