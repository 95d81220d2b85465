import json

import pytest

from oddsym import bases, hopf, oddring
from oddsym.cli import main
from oddsym.combinat import partitions_of, reverse_sort_sign
from oddsym.hopf import (
    adjointness_check,
    antipode,
    antipode_axiom_check,
    antipode_images_check,
    centrality_check,
    composite_involutive_check,
    generating_function_check,
    group_relations_check,
    is_primitive,
    omega,
    omega_sign_twist,
    omega_sign_twist_reverse,
    primitives,
    primitives_check,
    reverse,
    schur_action_check,
    sign_twist,
)
from oddsym.oddring import OddElt, coproduct, e_elt, h_elt, linear_combination, pair
from oracles import adjointness_per_triple


def left_convolution(f, x: OddElt) -> OddElt:
    """m(f (x) 1)Delta(x)."""
    return linear_combination(
        (c, f(OddElt({p1: 1})) * OddElt({p2: 1})) for (p1, p2), c in coproduct(x).items()
    )


class TestGeneratorMaps:
    def test_reverse_example(self):
        # word reversal straightens h_2 h_1 -> h_1 h_2 = 2h_3 - h_21
        assert reverse(h_elt((2, 1))) == OddElt({(3,): 2, (2, 1): -1})

    def test_omega_iterates(self):
        x = h_elt((2,))
        for m in range(1, 5):
            x = omega(x)
            assert x == OddElt({(2,): 1, (1, 1): -m}), m

    def test_sign_twist(self):
        assert sign_twist(h_elt((2,))) == h_elt((2,)).scale(-1)
        assert sign_twist(h_elt((3,))) == h_elt((3,))
        assert sign_twist(h_elt((2, 1))) == h_elt((2, 1))

    def test_reverse_is_norm_preserving(self):
        for n in range(1, 7):
            for lam in partitions_of(n):
                for mu in partitions_of(n):
                    x, y = h_elt(lam), h_elt(mu)
                    assert pair(reverse(x), reverse(y)) == pair(x, y)

    def test_reverse_fixes_e_generators(self):
        for n in range(1, 8):
            assert reverse(e_elt((n,))) == e_elt((n,))


class TestAntipode:
    def test_generator_images(self):
        assert antipode(h_elt((1,))) == h_elt((1,)).scale(-1)
        assert antipode(h_elt((2,))) == e_elt((2,)).scale(-1)
        assert antipode(h_elt((3,))) == e_elt((3,))

    def test_word_example(self):
        assert antipode(h_elt((2, 1))) == e_elt((1,)) * e_elt((2,))

    def test_koszul_sign_on_words(self):
        assert antipode(h_elt((1, 1))) == h_elt((1, 1)).scale(-1)

    @pytest.mark.parametrize("n", range(0, 8))
    def test_axiom(self, n):
        failures = antipode_axiom_check(n)
        assert not failures, failures[:2]

    def test_antipode_is_not_involutive(self):
        # the unique convolution inverse moves h_2 under squaring; the
        # involutive claim of the source holds only for the plain composite
        assert antipode(antipode(h_elt((2,)))) == OddElt({(2,): 1, (1, 1): -2})
        assert [lam for lam in partitions_of(2)
                if antipode(antipode(h_elt(lam))) != h_elt(lam)]

    def test_composite_is_involutive_but_not_antipode(self):
        for n in range(0, 7):
            assert not composite_involutive_check(n), n
        comp = omega_sign_twist_reverse
        assert [lam for lam in partitions_of(2)
                if left_convolution(comp, h_elt(lam))] == [(1, 1)]
        assert left_convolution(comp, h_elt((1, 1))) == h_elt((1, 1)).scale(2)
        assert not left_convolution(antipode, h_elt((1, 1)))

    def test_super_anti_multiplicativity(self):
        for a in range(1, 5):
            for b in range(1, 5):
                x, y = h_elt((a,)), h_elt((b,))
                sign = -1 if (a * b) % 2 else 1
                assert antipode(x * y) == (antipode(y) * antipode(x)).scale(sign)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_images(self, n):
        failures = antipode_images_check(n)
        assert not failures, failures[:3]

    def test_checks_name_a_wrong_antipode(self, monkeypatch, capsys):
        # S(h_2) - 2 h_(1,1): both convolutions of h_2 leave -2 h_(1,1), and
        # the closed form of S(h_2) fails; h_(1,1) keeps its image
        true_antipode = hopf.antipode
        monkeypatch.setattr(hopf, "antipode", lambda x: true_antipode(x)
                            + h_elt((1, 1)).scale(-2 * x.terms.get((2,), 0)))
        axiom = [{"lambda": (2,), "left": "-2*h(1,1)", "right": "-2*h(1,1)"}]
        images = [{"lambda": (2,), "relation": "antipode_h"}]
        assert antipode_axiom_check(2) == axiom
        assert antipode_images_check(2) == images
        assert main(["verify", "--suite", "hopf", "--max-degree", "2",
                     "--format", "json"]) == 1
        failures = json.loads(capsys.readouterr().out)["failures"]
        for check, witness in (("hopf/antipode-axiom deg 2", axiom), ("hopf/images", images)):
            assert {"check": check, "witness": json.loads(json.dumps(witness))} in failures


class TestRelations:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_group_relations(self, n):
        assert not group_relations_check(n)

    def test_group_relations_check_names_an_unsigned_h2(self, monkeypatch, capsys):
        # a sign twist that keeps h_2 is still an involution, but then
        # omega.sign_twist is omega in degree 2, which has infinite order: its
        # square and the braid fail
        true_sign_twist = hopf.sign_twist
        monkeypatch.setattr(hopf, "sign_twist", lambda x: true_sign_twist(x)
                            + h_elt((2,)).scale(2 * x.terms.get((2,), 0)))
        want = [{"lambda": (2,), "failed": ["omega_sign_twist_squared", "braid"]}]
        assert group_relations_check(2) == want
        assert main(["verify", "--suite", "hopf", "--max-degree", "2",
                     "--format", "json"]) == 1
        failures = json.loads(capsys.readouterr().out)["failures"]
        assert {"check": "hopf/group-relations",
                "witness": json.loads(json.dumps(want))} in failures

    def test_specific_relations(self):
        h3 = h_elt((3,))
        assert omega_sign_twist(omega_sign_twist(h3)) == h3
        h2 = h_elt((2,))
        assert sign_twist(omega(sign_twist(omega(h2)))) == h2

    def test_involutive_composite_closed_form(self):
        x = h_elt((2, 1))
        assert omega_sign_twist_reverse(x) == e_elt((1,)) * e_elt((2,))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_generating_function_identity(self, n):
        assert not generating_function_check(n)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_schur_actions(self, n):
        assert not schur_action_check(n)

    def test_schur_action_check_names_a_wrong_vector(self, monkeypatch, capsys):
        # s_(2,1) replaced by s_(2,1) + s_(3): both relations fail at (2,1),
        # and nothing else in degree 3 does
        true_schur = bases.schur

        def wrong_schur(lam):
            s = true_schur(lam)
            return s + true_schur((3,)) if tuple(lam) == (2, 1) else s

        monkeypatch.setattr(bases, "schur", wrong_schur)
        want = [{"lambda": (2, 1), "relation": "reverse"},
                {"lambda": (2, 1), "relation": "omega_sign_twist"}]
        assert schur_action_check(3) == want
        assert main(["verify", "--suite", "hopf", "--max-degree", "3",
                     "--format", "json"]) == 1
        failures = json.loads(capsys.readouterr().out)["failures"]
        assert failures == [{"check": "hopf/schur-action",
                             "witness": json.loads(json.dumps(want))}]

    def test_eta_sign_matches_reverse_action(self):
        from oddsym.bases import schur

        for n in range(1, 6):
            for lam in partitions_of(n):
                assert reverse(schur(lam)) == schur(lam).scale(reverse_sort_sign(lam))

    @pytest.mark.parametrize("n", range(0, 6))
    def test_adjointness(self, n):
        assert not adjointness_check(n)

    @pytest.mark.parametrize("faulty", [False, True], ids=["exact", "faulty_coproduct"])
    def test_adjointness_matches_per_triple_oracle(self, monkeypatch, faulty):
        # The split identity must report exactly the witnesses of the
        # triple-by-triple route, in the same order; a coproduct with one
        # component sign-flipped on words containing a 3 makes both fail.
        if faulty:
            exact = oddring._coproduct_word

            def flipped(word):
                terms = exact(word)
                if 3 not in word:
                    return terms
                (key, c), *rest = terms
                return ((key, -c), *rest)

            monkeypatch.setattr(oddring, "_coproduct_word", flipped)
        for n in range(7):
            got, want = adjointness_check(n), adjointness_per_triple(n)
            assert got == want, n
        assert bool(got) == faulty


class TestPrimitives:
    def test_dimensions(self):
        for n in range(1, 9):
            want = 1 if n == 1 or n % 2 == 0 else 0
            assert len(primitives(n)) == want, n

    def test_values_match_power_sums(self):
        from oddsym.bases import power_sum

        assert primitives(1)[0] in (h_elt((1,)), h_elt((1,)).scale(-1))
        for n in (2, 4, 6, 8):
            p = primitives(n)[0]
            assert p in (power_sum(n), power_sum(n).scale(-1))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_primitives_check(self, n):
        assert not primitives_check(n)

    def test_primitives_check_reports_a_missing_dimension(self, monkeypatch, capsys):
        # an empty kernel leaves degree 4 without its primitive p_4
        monkeypatch.setattr(hopf, "kernel_basis", lambda rows: [])
        assert primitives_check(4) == [{"degree": 4, "dimension": 0, "expected": 1}]
        assert main(["verify", "--suite", "primitives", "--max-degree", "4"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert "FAIL  primitives deg 4" in lines
        failures = json.loads(lines[-1])["failures"]
        assert {"check": "primitives deg 4",
                "witness": [{"degree": 4, "dimension": 0, "expected": 1}]} in failures

    def test_primitives_check_reports_a_wrong_power_sum(self, monkeypatch, capsys):
        # p_n + h_n is not +-p_n: the primitive of degree 2 names it
        true_power_sum = bases.power_sum
        monkeypatch.setattr(bases, "power_sum", lambda n: true_power_sum(n) + h_elt((n,)))
        want = [{"degree": 2, "primitive": "h(1,1)", "power_sum": "h(1,1) +h(2)"}]
        assert primitives_check(2) == want
        assert main(["verify", "--suite", "primitives", "--max-degree", "2",
                     "--format", "json"]) == 1
        failures = json.loads(capsys.readouterr().out)["failures"]
        assert {"check": "primitives deg 2", "witness": want} in failures

    def test_primitive_coproduct(self):
        for n in range(1, 9):
            for p in primitives(n):
                assert is_primitive(p)

    def test_power_sum_list(self):
        from oddsym.bases import power_sum

        assert power_sum(1) == h_elt((1,))
        assert power_sum(2) == h_elt((1, 1))
        assert power_sum(3) == OddElt({(1, 1, 1): 1, (2, 1): 1, (3,): -1})
        assert power_sum(4) == OddElt({(1, 1, 1, 1): -1, (2, 2): -2, (4,): 4})
        assert power_sum(5) == OddElt(
            {(1, 1, 1, 1, 1): 1, (2, 1, 1, 1): 1, (2, 2, 1): 3, (3, 1, 1): -1,
             (3, 2): -3, (4, 1): -9, (5,): 9}
        )
        assert power_sum(6) == OddElt(
            {(1, 1, 1, 1, 1, 1): 1, (2, 2, 1, 1): 3, (3, 3): -3, (4, 1, 1): -6,
             (5, 1): 6}
        )

    def test_nonprimitive_odd_power_sums(self):
        assert not is_primitive(__import__("oddsym.bases", fromlist=["power_sum"]).power_sum(3))


def commutators(k: int, bound: int) -> list:
    from oddsym.bases import power_sum

    p = power_sum(k)
    return [p * h_elt((m,)) - h_elt((m,)) * p for m in range(1, bound - k + 1)]


class TestCentrality:
    def test_even_power_sums_commute(self):
        for k in (2, 4, 6):
            assert not centrality_check(k, 8)
            assert not any(commutators(k, 8)), k

    def test_odd_power_sums_do_not(self):
        for k in (1, 3, 5):
            assert not centrality_check(k, 8)
            assert any(commutators(k, 8)), k

    def test_witnesses(self):
        # odd k with no h_m in range cannot show non-centrality: that fails
        assert centrality_check(3, 3) == [
            {"k": 3, "bound": 3, "commutators": "all zero"}
        ]
        assert centrality_check(2, 2) == []

    @pytest.mark.parametrize("suite", ["primitives", "all"])
    def test_verify_passes_at_degree_2(self, suite, capsys):
        # p_1 = h_1 commutes with h_1, the only h_m in range, so degree 2
        # checks no centrality of p_1
        assert main(["verify", "--suite", suite, "--max-degree", "2"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out and "primitives/centrality p_1" not in out

    def test_explicit_witness(self):
        from oddsym.bases import power_sum

        p3, h1 = power_sum(3), h_elt((1,))
        assert p3 * h1 - h1 * p3 == OddElt({(2, 1, 1): 2, (3, 1): -2})
