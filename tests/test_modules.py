import json
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import naive_sq, series_binom_mod2
from sqhit.modules import (
    Bidegree,
    Element,
    ModuleKind,
    basis,
    binom_mod2,
    concat_product,
    element_from_json,
    element_to_json,
    gen_binom_mod2,
    project_to_orbit,
    sq,
    sq_single,
    windowed_basis,
)

G = ModuleKind.GAMMA


def gamma(*tuples):
    return Element.from_monomials(G, len(tuples[0]), sum(tuples[0]), tuples)


def sym(*entries):
    """The support of the gamma-sym projection of one gamma monomial."""
    return project_to_orbit(gamma(entries), ModuleKind.GAMMA_SYM).sorted_support()


def cyc(*entries):
    """The support of the gamma-cyc projection of one gamma monomial."""
    return project_to_orbit(gamma(entries), ModuleKind.GAMMA_CYC).sorted_support()


class TestBinomialParity:
    def test_hand_values(self):
        assert binom_mod2(5, 1) == 1
        assert binom_mod2(4, 2) == 0

    def test_choose_zero(self):
        for n in range(20):
            assert binom_mod2(n, 0) == 1

    def test_out_of_range_is_zero(self):
        assert binom_mod2(-1, 2) == 0
        assert binom_mod2(3, -1) == 0

    def test_power_of_two_residue_rule(self):
        # C(a, 2^n) is 0 exactly when a mod 2^(n+1) < 2^n.
        for n in range(4):
            for a in range(0, 64):
                expected = 0 if a % (1 << (n + 1)) < (1 << n) else 1
                assert binom_mod2(a, 1 << n) == expected

    def test_generalized_negative_one(self):
        for k in range(0, 20):
            assert gen_binom_mod2(-1, k) == 1

    def test_generalized_negative_two(self):
        assert gen_binom_mod2(-2, 1) == 0

    def test_generalized_power_of_two_rule(self):
        for n in range(4):
            for a in range(-40, 40):
                expected = 1 if a % (1 << (n + 1)) >= (1 << n) else 0
                assert gen_binom_mod2(a, 1 << n) == expected

    def test_agrees_with_plain_binomial_on_nonnegative(self):
        for a in range(0, 65):
            for i in range(0, 65):
                assert gen_binom_mod2(a, i) == binom_mod2(a, i)

    @given(st.integers(-64, 64), st.integers(0, 32))
    def test_matches_series_oracle(self, a, i):
        assert gen_binom_mod2(a, i) == series_binom_mod2(a, i)


class TestSingleFactorAction:
    def test_two_down_to_one(self):
        assert sq_single(2, 1, G).sorted_support()[0] == (1,)

    def test_three_killed(self):
        assert sq_single(3, 1, G).is_zero()

    def test_sq0_is_identity(self):
        for a in (1, 2, 7):
            assert sq_single(a, 0, G).sorted_support()[0] == (a,)

    def test_nabla_crosses_zero(self):
        out = sq_single(1, 2, ModuleKind.NABLA)
        assert out.sorted_support()[0] == (-1,)

    def test_invalid_gamma_entry(self):
        with pytest.raises(ValueError):
            sq_single(0, 1, G)


class TestAction:
    def test_cartan_hand_case(self):
        assert sq(gamma((1, 2)), 1).same(gamma((1, 1)))

    def test_cartan_symmetric_case(self):
        out = sq(gamma((2, 2)), 1)
        assert out.same(gamma((1, 2), (2, 1)))

    def test_sq0_identity(self):
        x = gamma((1, 2), (2, 1))
        assert sq(x, 0) is x

    def test_too_high_degree_vanishes(self):
        assert sq(gamma((1, 2)), 5).is_zero()

    @given(st.data())
    def test_matches_naive_oracle(self, data):
        s = data.draw(st.integers(1, 3))
        d = data.draw(st.integers(s, s + 6))
        monos = basis(Bidegree(s, d), G)
        support = data.draw(st.sets(st.sampled_from(monos), max_size=5))
        x = Element.from_monomials(G, s, d, support)
        l = data.draw(st.integers(0, 5))
        assert sq(x, l).same(naive_sq(x, l))

    @given(st.lists(st.integers(-20, 20), min_size=1, max_size=3), st.integers(0, 5))
    def test_nabla_matches_naive_oracle(self, entries, l):
        x = Element.single(ModuleKind.NABLA, tuple(entries))
        assert sq(x, l).same(naive_sq(x, l))


class TestBases:
    def test_compositions_of_three(self):
        assert list(basis(Bidegree(2, 3), G)) == [(1, 2), (2, 1)]

    def test_count_5_9(self):
        assert len(basis(Bidegree(5, 9), G)) == 70

    def test_partitions(self):
        assert list(basis(Bidegree(2, 4), ModuleKind.GAMMA_SYM)) == [(2, 2), (3, 1)]

    def test_below_arity_empty(self):
        assert basis(Bidegree(3, 2), G) == ()

    def test_nabla_rejected(self):
        with pytest.raises(ValueError):
            basis(Bidegree(1, 1), ModuleKind.NABLA)

    def test_windowed_singleton(self):
        assert list(windowed_basis(1, 0, -1, 1)) == [(0,)]

    def test_windowed_enumeration(self):
        got = list(windowed_basis(2, 0, -1, 1))
        assert got == [(-1, 1), (0, 0), (1, -1)]

    def test_windowed_out_of_reach(self):
        assert windowed_basis(1, 5, -1, 1) == ()

    def test_necklace_basis_has_canonical_reps(self):
        for m in basis(Bidegree(3, 6), ModuleKind.GAMMA_CYC):
            assert cyc(*m) == [m]


class TestCanonicalForms:
    def test_sym_sorts(self):
        assert sym(1, 2, 1) == [(2, 1, 1)]
        assert sym(1, 4, 2) == [(4, 2, 1)]

    def test_sym_fixed_point(self):
        assert sym(3, 3) == [(3, 3)]

    def test_cyc_rotations(self):
        assert cyc(1, 2, 1) == [(2, 1, 1)]
        assert cyc(1, 3, 2) == [(3, 2, 1)]
        assert cyc(2, 2, 2) == [(2, 2, 2)]

    def test_projection_cancellation(self):
        assert project_to_orbit(gamma((1, 2), (2, 1)), ModuleKind.GAMMA_SYM).is_zero()

    def test_projection_single(self):
        out = project_to_orbit(gamma((1, 2)), ModuleKind.GAMMA_SYM)
        assert out.sorted_support()[0] == (2, 1)

    def test_cyclic_projection_cancellation(self):
        x = gamma((1, 2, 3), (2, 3, 1))
        assert project_to_orbit(x, ModuleKind.GAMMA_CYC).is_zero()


class TestConcatProduct:
    def test_monomial_concat(self):
        out = concat_product(gamma((1,)), gamma((2,)))
        assert out.sorted_support()[0] == (1, 2)

    def test_zero_absorbs(self):
        z = Element.zero(G, 1, 3)
        assert concat_product(z, gamma((1,))).is_zero()

    def test_bilinearity(self):
        left = concat_product(gamma((1, 2), (2, 1)), gamma((1,)))
        right = concat_product(gamma((1, 2)), gamma((1,))) + concat_product(gamma((2, 1)), gamma((1,)))
        assert left.same(right)
        assert left.same(gamma((1, 2, 1), (2, 1, 1)))

    def test_rejects_orbit_kinds(self):
        with pytest.raises(ValueError):
            concat_product(project_to_orbit(gamma((1, 2)), ModuleKind.GAMMA_SYM), gamma((1,)))


class TestJsonRoundTrip:
    def test_round_trip_bit_exact(self):
        x = gamma((1, 2), (2, 1))
        blob = json.dumps(element_to_json(x))
        assert element_from_json(json.loads(blob)).same(x)

    def test_monomials_sorted(self):
        x = gamma((2, 1), (1, 2))
        assert element_to_json(x)["monomials"] == [[1, 2], [2, 1]]

    def test_rejects_bad_kind(self):
        with pytest.raises(ValueError):
            element_from_json({"kind": "bogus", "s": 1, "d": 1, "monomials": []})

    def test_rejects_missing_keys(self):
        with pytest.raises(ValueError):
            element_from_json({"kind": "gamma", "s": 1, "d": 1})

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            element_from_json({"kind": "gamma", "s": 1, "d": 1, "monomials": [[1], [1]]})


class TestDegreeBookkeeping:
    @given(st.integers(1, 3), st.integers(0, 4), st.integers(0, 4))
    def test_sq_output_bidegree(self, s, dd, l):
        d = s + dd
        x = Element.from_monomials(G, s, d, basis(Bidegree(s, d), G)[:3])
        out = sq(x, l)
        assert out.s == s and out.d == d - l
        for m in out.support:
            assert sum(m) == d - l
