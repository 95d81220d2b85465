"""Ring (anti-)automorphisms, the antipode, primitives and odd power sums.

Three generator maps:
    omega       h_n -> e_n            (algebra automorphism, infinite order)
    sign_twist  h_n -> (-1)^T(n) h_n  (algebra involution)
    reverse     h_n -> h_n            (algebra anti-involution, reverses words)
All three share the generator images of the antipode, but the convolution
axiom singles out the braided (Koszul-signed) reversal: see antipode and
omega_sign_twist_reverse for the two inequivalent composites.
"""

from . import bases, oddring
from .combinat import (
    partitions_of,
    reverse_sort_sign,
    sw_ne_pairs,
    transpose,
    triangular_sum,
)
from .oddring import OddElt, coproduct, e_elt, h_elt, linear_combination, normalize_word
from .polyq import kernel_basis


def omega(x: OddElt) -> OddElt:
    return linear_combination((c, e_elt(lam)) for lam, c in x.terms.items())


def sign_twist(x: OddElt) -> OddElt:
    return OddElt._trusted(
        {lam: -c if triangular_sum(lam) % 2 else c for lam, c in x.terms.items()}
    )


def reverse(x: OddElt) -> OddElt:
    return linear_combination((c, h_elt(lam[::-1])) for lam, c in x.terms.items())


def antipode(x: OddElt) -> OddElt:
    """The Hopf antipode: h_lam -> (-1)^T(|lam|) e applied to the reversed
    index word.

    The super setting makes the antipode a braided anti-homomorphism,
    S(xy) = (-1)^(deg x deg y) S(y) S(x); composing the generator images
    S(h_n) = (-1)^T(n) e_n accordingly turns the per-part triangular sign
    into the total-degree one (the Koszul factor is exactly
    T(|lam|) - sum T(lam_i)).  The plain composite omega.sign_twist.reverse
    squares to the identity as well but fails the antipode axiom already on
    h_11, whose coproduct has no middle terms at q = -1.
    """
    return linear_combination(
        (-c if triangular_sum((sum(lam),)) % 2 else c, e_elt(tuple(reversed(lam))))
        for lam, c in x.terms.items()
    )


def omega_sign_twist(x: OddElt) -> OddElt:
    """The involution h_lam -> (-1)^T(lam) e_lam."""
    return omega(sign_twist(x))


def omega_sign_twist_reverse(x: OddElt) -> OddElt:
    """The plain composite of the three generator maps:
    h_lam -> (-1)^T(lam) e applied to the reversed word.

    An involution, but not the Hopf antipode: already on h_11 the convolution
    m(. (x) 1)Delta evaluates to 2 h_11 instead of 0, because the q = -1
    coproduct of h_11 has no middle terms while this map fixes h_11.
    """
    return omega(sign_twist(reverse(x)))


# ---------------------------------------------------------------------------
# checks: each returns its failure witnesses, and passes when the list is
# empty


def _convolve(f, g, x: OddElt) -> OddElt:
    return linear_combination(
        (c, f(OddElt._trusted({p1: 1})) * g(OddElt._trusted({p2: 1})))
        for (p1, p2), c in coproduct(x).items()
    )


def antipode_axiom_check(n: int) -> list:
    """m(S (x) 1)Delta = unit.counit = m(1 (x) S)Delta on all h_lam of
    degree n.

    The antipode is the unique such map, and it is not an involution (S^2
    first moves h_2, in degree 2); see composite_involutive_check for the
    involutive composite, which fails this axiom.
    """
    failures = []
    ident = lambda x: x  # noqa: E731
    for lam in partitions_of(n):
        x = h_elt(lam)
        want = OddElt.one() if not lam else OddElt.zero()
        left = _convolve(antipode, ident, x)
        right = _convolve(ident, antipode, x)
        if left != want or right != want:
            failures.append({"lambda": lam, "left": repr(left), "right": repr(right)})
    return failures


def composite_involutive_check(n: int) -> list:
    """omega.sign_twist.reverse squares to the identity on all h_lam of
    degree n."""
    comp = omega_sign_twist_reverse
    return [{"lambda": lam} for lam in partitions_of(n)
            if comp(comp(h_elt(lam))) != h_elt(lam)]


def group_relations_check(n: int) -> list:
    """Relations among the generator maps on all h_lam of degree n:
    sign_twist^2 = 1, (omega.sign_twist)^2 = 1 (equivalently
    sign_twist.omega.sign_twist = omega^-1), omega.sign_twist.omega =
    sign_twist, reverse^2 = 1, and reverse commutes with the other two."""
    failures = []
    for lam in partitions_of(n):
        x = h_elt(lam)
        checks = {
            "sign_twist_squared": sign_twist(sign_twist(x)) == x,
            "omega_sign_twist_squared": omega_sign_twist(omega_sign_twist(x)) == x,
            "braid": omega(sign_twist(omega(x))) == sign_twist(x),
            "reverse_squared": reverse(reverse(x)) == x,
            "reverse_omega": reverse(omega(x)) == omega(reverse(x)),
            "reverse_sign_twist": reverse(sign_twist(x)) == sign_twist(reverse(x)),
        }
        bad = [k for k, v in checks.items() if not v]
        if bad:
            failures.append({"lambda": lam, "failed": bad})
    return failures


def antipode_images_check(n: int) -> list:
    """Closed forms on both families.

    omega.sign_twist sends h_lam to (-1)^T(lam) e_lam and back, and the
    word-reversing involutive composite carries the same per-part sign onto
    the reversed word on both families.  The genuine antipode agrees with the
    composite on h_lam up to replacing the per-part sign by the total-degree
    one; on the e-family it has no single-term formula (S(e_2) = 2h_11 - h_2),
    so only the h-side form is asserted for it.
    """
    failures = []
    for lam in partitions_of(n):
        sign = -1 if triangular_sum(lam) % 2 else 1
        total_sign = -1 if triangular_sum((n,)) % 2 else 1
        rev = tuple(reversed(lam))
        pairs = [
            ("ost_h", omega_sign_twist(h_elt(lam)), e_elt(lam).scale(sign)),
            ("ost_e", omega_sign_twist(e_elt(lam)), h_elt(lam).scale(sign)),
            ("composite_h", omega_sign_twist_reverse(h_elt(lam)),
             e_elt(rev).scale(sign)),
            ("composite_e", omega_sign_twist_reverse(e_elt(lam)),
             h_elt(rev).scale(sign)),
            ("antipode_h", antipode(h_elt(lam)), e_elt(rev).scale(total_sign)),
        ]
        for name, got, want in pairs:
            if got != want:
                failures.append({"lambda": lam, "relation": name})
    return failures


def generating_function_check(n: int) -> list:
    """sum_k (-1)^(k(n-k)) sign_twist(e_(n-k)) h_k = 0; a nonzero sum is the
    witness."""
    total = linear_combination(
        (-1 if (k * (n - k)) % 2 else 1,
         sign_twist(oddring.e_letter(n - k)) * h_elt((k,) if k else ()))
        for k in range(n + 1)
    )
    return [{"degree": n, "residual": repr(total)}] if total else []


def schur_action_check(n: int) -> list:
    """reverse(s_lam) = eta_lam s_lam and
    omega_sign_twist(s_lam) = (-1)^(l(w_lam)+|lam|) s_lam^T."""
    failures = []
    for lam in partitions_of(n):
        s = bases.schur(lam)
        if reverse(s) != s.scale(reverse_sort_sign(lam)):
            failures.append({"lambda": lam, "relation": "reverse"})
        sign = -1 if (sw_ne_pairs(lam) + n) % 2 else 1
        if omega_sign_twist(s) != bases.schur(transpose(lam)).scale(sign):
            failures.append({"lambda": lam, "relation": "omega_sign_twist"})
    return failures


def adjointness_check(n: int) -> list:
    """(y1 (x) y2, Delta x) = (y1 y2, x) over all h-basis triples of total
    degree at most n, witnesses in the order (d1, y1, d2, y2, x).

    Each split checks Delta_{d1,d2} (G_d1 (x) G_d2) = M_{d1,d2} G_{d1+d2}, G the
    Gram matrices: the left side contracts D_x, the (d1, d2) block of Delta h_x,
    with G_d2 over p2 and then G_d1 over p1; row (y1, y2) of M is h_y1 h_y2.
    """
    gram = [oddring._gram_rows(d) for d in range(n + 1)]
    blocks: dict = {}  # d1 -> x -> p1 -> [(p2, coeff)]
    for x in (x for d in range(n + 1) for x in partitions_of(d)):
        for (p1, p2), c in coproduct(h_elt(x)).items():
            block = blocks.setdefault(sum(p1), {}).setdefault(x, {})
            block.setdefault(p1, []).append((p2, c))
    failures = []
    for d1 in range(n + 1):
        half = {  # x -> [(row p1 of G_d1, row p1 of D_x G_d2)]
            x: [(gram[d1][p1], [sum(c * gram[sum(x) - d1][p2][y2] for p2, c in row)
                                for y2 in partitions_of(sum(x) - d1)])
                for p1, row in block.items()]
            for x, block in blocks.get(d1, {}).items()
        }
        for y1 in partitions_of(d1):
            for d2 in range(n + 1 - d1):
                for j, y2 in enumerate(partitions_of(d2)):
                    row = normalize_word(y1 + y2)
                    for x in partitions_of(d1 + d2):
                        lhs = sum(g[y1] * t[j] for g, t in half.get(x, ()))
                        rhs = sum(c * gram[d1 + d2][p][x] for p, c in row)
                        if lhs != rhs:
                            failures.append(
                                {"y1": y1, "y2": y2, "x": x, "lhs": lhs, "rhs": rhs}
                            )
    return failures


# ---------------------------------------------------------------------------
# primitives and power sums


def primitives(n: int) -> tuple[OddElt, ...]:
    """Integer basis of the primitive subspace in degree n, computed as the
    perpendicular of the span of all products of positive-degree elements:
    row y of the constraints holds (y, h_mu) for each partition mu of n.

    That span is spanned by the h_k h_mu with 1 <= k < n and mu a partition
    of n - k, since h_lam h_mu = h_lam1 (h_(lam2, ...) h_mu) and the h_nu
    span each degree.  kernel_basis returns primitive integer vectors;
    dimension is 1 for n = 1 and n even, else 0.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    parts = partitions_of(n)
    products = (h_elt((k,) + nu) for k in range(1, n) for nu in partitions_of(n - k))
    hs = [h_elt(mu) for mu in parts]
    # With no products (n = 1) every vector is primitive: a zero row keeps
    # the kernel the whole space.
    constraint = [[oddring.pair(y, h) for h in hs] for y in products] or [[0] * len(parts)]
    return tuple(OddElt._trusted(dict(zip(parts, vec))) for vec in kernel_basis(constraint))


def is_primitive(x: OddElt) -> bool:
    delta = coproduct(x)
    expected: dict = {}
    for p, c in x.terms.items():
        expected[(p, ())] = expected.get((p, ()), 0) + c
        expected[((), p)] = expected.get(((), p), 0) + c
    return delta == {k: v for k, v in expected.items() if v}


def primitives_check(n: int) -> list:
    """The primitive subspace of degree n has dimension 1 for n = 1 and n
    even, else 0; its basis vectors are primitive, and a nonzero one is
    +-p_n."""
    ps = primitives(n)
    want = 1 if (n == 1 or n % 2 == 0) else 0
    failures = []
    if len(ps) != want:
        failures.append({"degree": n, "dimension": len(ps), "expected": want})
    failures += [{"degree": n, "not_primitive": repr(p)}
                 for p in ps if not is_primitive(p)]
    if want and ps:
        pn = bases.power_sum(n)
        if ps[0] != pn and ps[0] != pn.scale(-1):
            failures.append({"degree": n, "primitive": repr(ps[0]),
                             "power_sum": repr(pn)})
    return failures


def centrality_check(k: int, bound: int) -> list:
    """Commutators [p_k, h_m] in normal form for all m with k + m <= bound.

    All vanish iff k is even.  For even k each nonzero commutator is a
    failure witness; for odd k the check fails when none is nonzero.
    """
    p = bases.power_sum(k)
    nonzero = []
    for m in range(1, bound - k + 1):
        h = h_elt((m,))
        comm = p * h - h * p
        if comm:
            nonzero.append({"m": m, "commutator": repr(comm)})
    if k % 2 == 0:
        return nonzero
    return [] if nonzero else [{"k": k, "bound": bound, "commutators": "all zero"}]
