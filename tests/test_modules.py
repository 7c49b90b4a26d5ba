import itertools
import json
import math
import random
import time
import tracemalloc
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    cyc_canonical,
    gamma_basis,
    json_element,
    naive_sq,
    orbit_basis,
    partitions_at_most,
    series_binom_mod2,
    sym_sq_support,
)
from sqhit import modules
from sqhit.modules import (
    Bidegree,
    ORBIT_KINDS,
    POSITIVE_KINDS,
    Element,
    ModuleKind,
    basis,
    basis_size,
    binom_mod2,
    concat_product,
    element_from_json,
    element_to_json,
    gen_binom_mod2,
    project_to_orbit,
    ExpansionTooLarge,
    sq,
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


def sq1(kind, a, i):
    """[a]Sq^i for the arity-1 monomial [a] of the given kind."""
    return sq(Element.single(kind, (a,)), i)


class TestSingleFactorAction:
    def test_two_down_to_one(self):
        assert sq1(G, 2, 1).sorted_support()[0] == (1,)

    def test_three_killed(self):
        assert sq1(G, 3, 1).is_zero()

    def test_sq0_is_identity(self):
        for a in (1, 2, 7):
            assert sq1(G, a, 0).sorted_support()[0] == (a,)

    def test_nabla_crosses_zero(self):
        out = sq1(ModuleKind.NABLA, 1, 2)
        assert out.sorted_support()[0] == (-1,)
        assert sq1(ModuleKind.NABLA, 0, 1).sorted_support() == [(-1,)]

    def test_last_entry_takes_the_rest_of_the_square(self):
        # One entry has one Cartan split, whatever l is: the expansion
        # memoizes the monomial and at most its empty tail, not one tail per
        # i <= l.
        before = memo_size()
        # [3]Sq^l = C(3 - l, l)[3 - l], and C(3 - 2^20, 2^20) is odd.
        out = sq1(ModuleKind.NABLA, 3, 1 << 20)
        assert out.sorted_support() == [(3 - (1 << 20),)]
        assert memo_size() - before <= 2

    def test_invalid_gamma_entry(self):
        with pytest.raises(ValueError):
            sq1(G, 0, 1)


class TestAction:
    def test_cartan_hand_case(self):
        assert sq(gamma((1, 2)), 1) == gamma((1, 1))

    def test_cartan_symmetric_case(self):
        out = sq(gamma((2, 2)), 1)
        assert out == gamma((1, 2), (2, 1))

    def test_sq0_identity(self):
        x = gamma((1, 2), (2, 1))
        assert sq(x, 0) is x

    def test_too_high_degree_vanishes(self):
        assert sq(gamma((1, 2)), 5).is_zero()

    def test_huge_square_is_zero_at_once(self):
        # l > d - s: no term keeps every entry >= 1, whatever the kind.
        for x in (gamma((2, 3, 3)), project_to_orbit(gamma((2, 3, 3)), ModuleKind.GAMMA_CYC)):
            out = sq(x, 10**8)
            assert out.is_zero() and (out.kind, out.s, out.d) == (x.kind, 3, 8 - 10**8)

    @given(st.data())
    def test_matches_naive_oracle(self, data):
        kind = data.draw(st.sampled_from(POSITIVE_KINDS))
        s = data.draw(st.integers(1, 3))
        d = data.draw(st.integers(s, s + 6))
        monos = basis(Bidegree(s, d), kind)
        support = data.draw(st.sets(st.sampled_from(monos), max_size=5))
        x = Element.from_monomials(kind, s, d, support)
        l = data.draw(st.integers(0, 5))
        assert sq(x, l) == naive_sq(x, l)

    def test_cyc_is_the_projected_plain_square_of_the_representatives(self):
        # Projection is linear, so sq sums the representatives' plain
        # squares before it projects: [3, 1, 2] is in the plain Sq^1 of both
        # [3, 2, 2] and [4, 1, 2], and cancels.
        C = ModuleKind.GAMMA_CYC
        x = Element.from_monomials(C, 3, 7, [(3, 2, 2), (4, 1, 2)])
        assert sq(x, 1).sorted_support() == [(3, 2, 1), (4, 1, 1)]
        rng = random.Random(26)
        cases = 0
        for s in range(1, 5):
            for d in range(s, 13):
                monos = basis(Bidegree(s, d), C)
                for size in sorted({min(2, len(monos)), min(5, len(monos))}):
                    x = Element.from_monomials(C, s, d, rng.sample(monos, size))
                    for l in range(d + 1):
                        want: set = set()
                        for t in naive_sq(Element(G, s, d, x.support), l).support:
                            want ^= {cyc_canonical(t)}
                        assert sq(x, l) == Element(C, s, d - l, frozenset(want)), (x, l)
                        cases += size > 1
        assert cases == 437

    def test_sym_support_matches_sorted_plain_expansion(self):
        expand = partial(modules.EXPANSIONS.support, ModuleKind.GAMMA_SYM)
        cases = 0
        for s in range(1, 8):
            for d in range(s, 27):
                for m in basis(Bidegree(s, d), ModuleKind.GAMMA_SYM):
                    for l in range(9):
                        assert expand(m, l) == sym_sq_support(m, l), (m, l)
                        cases += 1
        assert cases == 54162

    def test_sym_high_arity_needs_no_deeper_recursion(self):
        # The largest-part split recurses once per entry, as the plain
        # expansion does.
        threes = Element.single(ModuleKind.GAMMA_SYM, (3,) * 256)
        assert sq(threes, 2).is_zero()
        # Sq^1 lowers one of the 255 twos to 1; all 255 terms sort alike.
        twos = Element.single(ModuleKind.GAMMA_SYM, (3,) + (2,) * 255)
        assert sq(twos, 1).sorted_support() == [(3,) + (2,) * 254 + (1,)]

    @given(st.lists(st.integers(-20, 20), min_size=1, max_size=3), st.integers(0, 5))
    def test_nabla_matches_naive_oracle(self, entries, l):
        x = Element.single(ModuleKind.NABLA, tuple(entries))
        assert sq(x, l) == naive_sq(x, l)


def clear_expansion_caches():
    """Empty the default context's tables."""
    for by_l in modules.EXPANSIONS.tables.values():
        by_l.clear()


def memo_size(kind=None):
    """How many supports the default context holds, of one kind or of all."""
    tables = modules.EXPANSIONS.tables
    return sum(len(table) for k in (tables if kind is None else (kind,)) for table in tables[k].values())


def owned(ctx, owner):
    """The memo that owner, a private function of its module, keeps in a
    context's pieces: each key with owner taken off, mapped to its value."""
    return {key[1:]: value for key, value in ctx.pieces.items() if key[0] is owner}


def limited_sq(x, l, steps):
    """x Sq^l in a fresh context of its own, with an allowance of steps."""
    with modules.Expansions(steps):
        return sq(x, l)


class TestCartanSteps:
    def test_hand_values(self):
        # The count is exact: an allowance of steps is enough and one less
        # is not.
        for kind, entries, l, steps in (
            # [2, 2]Sq^1: the first entry loops twice (2 steps); each of its
            # splits expands [2] (one step, and one one-entry term built: 2)
            # and builds one two-entry term (2), so 2 + 2 * (2 + 2) = 10.
            (G, (2, 2), 1, 10),
            # gamma-sym [2, 2, 2]Sq^1: the first entry loops twice (2).  Its
            # split i = 0 expands [2, 2]Sq^1 for 10 steps as above, where
            # the two terms meet in [2, 1] and cancel, so it builds nothing;
            # its split i = 1 expands [2, 2]Sq^0 (one step, and one
            # two-entry term from the cached [2]Sq^0: 3) and builds one
            # three-entry term (3).
            (ModuleKind.GAMMA_SYM, (2, 2, 2), 1, 18),
            # gamma-cyc [2, 2]Sq^1 expands the plain terms of gamma [2, 2]Sq^1
            # for the same 10 steps; canonicalising them charges nothing.
            # Both terms rotate to [2, 1] and cancel.
            (ModuleKind.GAMMA_CYC, (2, 2), 1, 10),
        ):
            x = Element.single(kind, entries)
            clear_expansion_caches()
            out = limited_sq(x, l, steps)
            assert out == naive_sq(x, l)
            clear_expansion_caches()
            with pytest.raises(ExpansionTooLarge):
                limited_sq(x, l, steps - 1)
            # A refused expansion leaves no plain suffix in the default
            # context.
            assert memo_size() == 0
            # The default context's allowance is untouched by a refusal, also
            # for callers that expand without sq, as hit.sq_matrix does.
            assert modules.EXPANSIONS.allowance == math.inf
            clear_expansion_caches()
            assert modules.EXPANSIONS.support(kind, entries, l) == out.support

    def test_allowance_covers_the_whole_element(self):
        # [2, 2]Sq^1 takes 10 steps and [3, 1]Sq^1 takes 3 (2 loop steps,
        # and one for [1]Sq^1, which is 0); the two terms share one limit,
        # across the one support call per term of a gamma-cyc element too.
        # They share no suffix, so the count does not hang on term order.
        for kind in (G, ModuleKind.GAMMA_CYC):
            x = Element(kind, 2, 4, frozenset([(2, 2), (3, 1)]))
            clear_expansion_caches()
            assert limited_sq(x, 1, 13) == naive_sq(x, 1)
            clear_expansion_caches()
            with pytest.raises(ExpansionTooLarge):
                limited_sq(x, 1, 12)

    def test_bounds_the_terms_built(self):
        # On forty 2s every loop takes at most two steps, at most 40 * 21
        # suffix squares, so loop steps alone stay below 1680; but gamma
        # Sq^20 builds C(40, 20) plain terms, and the entries built pass the
        # allowance.  In gamma-sym those terms meet and cancel (C(40, 20) is
        # even), and the same square takes 7026 steps.
        for kind, refused in ((G, True), (ModuleKind.GAMMA_CYC, True), (ModuleKind.GAMMA_SYM, False)):
            x = Element.single(kind, (2,) * 40)
            clear_expansion_caches()
            start = time.perf_counter()
            if refused:
                with pytest.raises(ExpansionTooLarge):
                    limited_sq(x, 20, 200000)
            else:
                assert limited_sq(x, 20, 10000).is_zero()
            assert time.perf_counter() - start < 1.0

    def test_limited_outcome_does_not_depend_on_earlier_calls(self):
        # [2, 2]Sq^1 takes 10 steps however warm the default context is: a
        # limited sq expands in a fresh context of its own.
        x = gamma((2, 2))
        clear_expansion_caches()
        with pytest.raises(ExpansionTooLarge):
            limited_sq(x, 1, 9)
        assert sq(x, 1) == naive_sq(x, 1)
        with pytest.raises(ExpansionTooLarge):
            limited_sq(x, 1, 9)
        assert limited_sq(x, 1, 10) == naive_sq(x, 1)

    def test_refusal_leaves_the_default_context_unchanged(self):
        # Refused part way, [2]*6 Sq^3 has finished several suffixes; none
        # of them reaches the default context.
        x = gamma((2,) * 6)
        sq(gamma((3, 1)), 1)
        before = memo_size()
        assert before > 0
        with pytest.raises(ExpansionTooLarge):
            limited_sq(x, 3, 40)
        assert memo_size() == before

    def test_repeated_square_in_one_block_is_free(self):
        # sq keeps the support of every term it expands, so the same square
        # again in the same block reads them back and charges nothing.
        # [2, 2]Sq^1 and [3, 1]Sq^1 take 10 + 3 steps, as above.
        x = Element(G, 2, 4, frozenset([(2, 2), (3, 1)]))
        with modules.Expansions(13) as ctx:
            first = sq(x, 1)
            assert ctx.allowance == 0
            assert sq(x, 1) == first == naive_sq(x, 1)
            assert ctx.allowance == 0
            # Both terms, and the tails [2]Sq^1, [2]Sq^0 and [1]Sq^1.
            assert x.support <= ctx.tables[G][1].keys()
            assert memo_size() == 5

    def test_raising_block_restores_the_outer_context(self):
        # [2, 2]Sq^1 takes 10 steps, one more than the block's allowance.
        outer = modules.EXPANSIONS
        with pytest.raises(ExpansionTooLarge):
            with modules.Expansions(9) as ctx:
                assert modules.EXPANSIONS is ctx
                sq(gamma((2, 2)), 1)
        assert modules.EXPANSIONS is outer

    def test_nested_blocks_restore_in_order(self):
        # The inner block takes the charge and the memos; the outer one
        # gets both back untouched.
        outer = modules.EXPANSIONS
        with modules.Expansions(100) as a:
            with modules.Expansions(10) as b:
                assert modules.EXPANSIONS is b
                assert sq(gamma((2, 2)), 1) == naive_sq(gamma((2, 2)), 1)
            assert modules.EXPANSIONS is a
            assert (a.allowance, b.allowance) == (100, 0)
            assert memo_size() == 0
        assert modules.EXPANSIONS is outer

    def test_context_entered_inside_its_own_block(self):
        # Entering c again must not forget the context c replaced first.
        outer, c = modules.EXPANSIONS, modules.Expansions()
        with c:
            with c:
                assert modules.EXPANSIONS is c
            assert modules.EXPANSIONS is c
        assert modules.EXPANSIONS is outer

    def test_context_entered_again_inside_another(self):
        outer, c, d = modules.EXPANSIONS, modules.Expansions(), modules.Expansions()
        with c:
            with d:
                with c:
                    assert modules.EXPANSIONS is c
                assert modules.EXPANSIONS is d
            assert modules.EXPANSIONS is c
        assert modules.EXPANSIONS is outer
        with d:  # and each may be entered once more afterwards
            assert modules.EXPANSIONS is d
        assert modules.EXPANSIONS is outer

    def test_sq_at_max_arity(self):
        # [2, ..., 2]Sq^1 lowers one entry to 1 with C(1, 1) = 1.
        top = modules.MAX_ARITY
        with modules.Expansions():
            out = sq(gamma((2,) * top), 1)
        assert out.support == {(2,) * i + (1,) + (2,) * (top - 1 - i) for i in range(top)}

    @pytest.mark.parametrize("s", [257, 1500])
    def test_sq_refused_above_max_arity(self, s):
        # An expansion recurses one level per entry, so a miss above
        # MAX_ARITY is refused before it expands or charges anything.
        message = f"^arity s={s} exceeds the largest supported arity {modules.MAX_ARITY}$"
        for kind in (G, ModuleKind.GAMMA_SYM, ModuleKind.GAMMA_CYC):
            with modules.Expansions(100) as ctx:
                with pytest.raises(ValueError, match=message):
                    sq(Element.single(kind, (2,) * s), 1)
            assert ctx.allowance == 100
            assert not any(by_l for table in ctx.tables.values() for by_l in table.values())

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_call_sequence_in_one_context_matches_naive_oracle(self, data):
        # Each call reads and fills what the calls before it left in the
        # context; limited calls in between leave it as they found it.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(modules, "EXPANSIONS", modules.Expansions())
            for _ in range(data.draw(st.integers(1, 8))):
                kind = data.draw(st.sampled_from(list(ModuleKind)))
                s = data.draw(st.integers(1, 4))
                if kind is ModuleKind.NABLA:
                    x = Element.single(kind, tuple(data.draw(st.lists(st.integers(-6, 8), min_size=s, max_size=s))))
                else:
                    d = data.draw(st.integers(s, s + 8))
                    monos = data.draw(st.sets(st.sampled_from(basis(Bidegree(s, d), kind)), max_size=4))
                    x = Element.from_monomials(kind, s, d, monos)
                l = data.draw(st.integers(0, 8))
                limit = data.draw(st.none() | st.integers(0, 60))
                size = memo_size()
                try:
                    out = sq(x, l) if limit is None else limited_sq(x, l, limit)
                except ExpansionTooLarge:
                    assert limit is not None
                else:
                    assert out == naive_sq(x, l), (x, l, limit)
                if limit is not None:
                    assert memo_size() == size


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

    def test_str_kind_refused_whatever_the_cache_holds(self):
        # "gamma" equals ModuleKind.GAMMA and hashes alike, so one memo key
        # for both would hand either the basis kept for the other.
        with modules.Expansions():
            for _ in range(2):  # cold, then with the gamma piece memoized
                for piece in (basis, basis_size):
                    with pytest.raises(ValueError) as err:
                        piece(Bidegree(2, 3), "gamma")
                    assert str(err.value) == "kind 'gamma' is not a ModuleKind"
                assert basis(Bidegree(2, 3), G) == ((1, 2), (2, 1))

    def test_basis_memo_lives_in_the_context(self, monkeypatch):
        outer = modules.Expansions()
        monkeypatch.setattr(modules, "EXPANSIONS", outer)
        b = Bidegree(4, 9)
        first = basis(b, G)
        assert basis(b, G) is first
        held = dict(outer.pieces)
        with modules.Expansions() as inner:
            again = basis(b, G)
            assert again == first and again is not first
            assert list(inner.pieces.values()) == [again]
        assert outer.pieces == held and basis(b, G) is first

    def test_gamma_basis_matches_oracle(self):
        # Tuple for tuple and in the same order, as for the orbit kinds.
        for s in range(1, 7):
            for d in range(0, 19):
                assert basis(Bidegree(s, d), G) == gamma_basis(s, d), (s, d)

    def test_high_arity_needs_no_recursion(self):
        # Each generator steps one list in place; 2000 parts are past
        # Python's recursion limit.
        ones = (1,) * 2000
        assert basis(Bidegree(2000, 2000), G) == (ones,)
        assert basis(Bidegree(2000, 2001), ModuleKind.GAMMA_SYM) == ((2,) + ones[1:],)
        assert basis(Bidegree(2000, 2001), ModuleKind.GAMMA_CYC) == ((2,) + ones[1:],)
        assert len(basis(Bidegree(2000, 2001), G)) == 2000

    def test_necklace_basis_has_canonical_reps(self):
        for m in basis(Bidegree(3, 6), ModuleKind.GAMMA_CYC):
            assert cyc(*m) == [m]

    @pytest.mark.parametrize("kind", ORBIT_KINDS)
    def test_orbit_basis_matches_oracle(self, kind):
        # Tuple for tuple and in the same order: the basis order fixes the
        # matrix coordinates.
        for s in range(1, 7):
            for d in range(0, 19):
                assert basis(Bidegree(s, d), kind) == orbit_basis(kind, s, d), (kind, s, d)

    @pytest.mark.parametrize("kind", POSITIVE_KINDS)
    def test_basis_size_matches_enumeration(self, kind):
        for s in range(0, 7):
            for d in range(0, 19):
                assert basis_size(Bidegree(s, d), kind) == len(basis(Bidegree(s, d), kind)), (kind, s, d)

    def test_basis_size_beyond_enumeration(self):
        assert basis_size(Bidegree(8, 30), ModuleKind.GAMMA_SYM) == 638
        assert basis_size(Bidegree(12, 60), ModuleKind.GAMMA) == 279871768995
        with pytest.raises(ValueError):
            basis_size(Bidegree(1, 1), ModuleKind.NABLA)

    @pytest.mark.parametrize("kind", POSITIVE_KINDS)
    def test_basis_size_limit_clips(self, kind):
        # With a limit the count is min(len, limit + 1), over the same box.
        for s in range(0, 7):
            for d in range(0, 19):
                n = len(basis(Bidegree(s, d), kind))
                for limit in (1, 5, 40):
                    assert basis_size(Bidegree(s, d), kind, limit) == min(n, limit + 1), (kind, s, d, limit)

    def test_sym_size_matches_partition_oracle(self):
        # The partitions of n = d - s into at most s parts, clipped at
        # limit + 1, on a grid that crosses both lower bounds basis_size
        # refuses with: at limit 200000, n = 1546 | 1547 for three parts and
        # C(n+3, 3) <= 24 * 200000 up to n = 304 for four or more.
        grid = [(s, n, 200000) for s, ns in ((3, range(1601)), (4, range(321)), (5, range(321)),
                                             (300, range(280, 321)), (1000, range(280, 321))) for n in ns]
        grid += [(s, n, limit) for limit in (1, 5, 40, 1000) for s in (1, 2, 3, 4, 5, 8, 300, 1000) for n in range(121)]
        for s, n, limit in grid:
            want = min(partitions_at_most(n, s, limit), limit + 1)
            assert basis_size(Bidegree(s, s + n), ModuleKind.GAMMA_SYM, limit) == want, (s, n, limit)

    @pytest.mark.parametrize("kind", POSITIVE_KINDS)
    def test_basis_size_limit_bounds_the_work(self, kind):
        start = time.perf_counter()
        for s, d in ((2, 10**9), (1000, 10**9), (5 * 10**8, 10**9), (3, 10**6), (1000, 1304), (300, 604)):
            assert basis_size(Bidegree(s, d), kind, 200000) == 200001, (kind, s, d)
        # The largest gamma-sym count of three parts under the limit.
        assert basis_size(Bidegree(3, 1549), kind, 200000) == (199950 if kind is ModuleKind.GAMMA_SYM else 200001)
        # s = d: one element, with no divisor sum over gcd(s, d) = 10^9.
        assert basis_size(Bidegree(10**9, 10**9), kind, 200000) == 1
        assert time.perf_counter() - start < 1.0


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

    def test_cyc_matches_oracle_on_every_small_tuple(self):
        # Only rotations that start at an occurrence of the largest entry
        # are compared; ties between such occurrences need the later entries.
        tuples = [t for s in range(1, 8) for t in itertools.product(range(1, 6), repeat=s)]
        assert len(tuples) == 97655
        for t in tuples:
            assert modules._cyc_canonical(t) == cyc_canonical(t), t

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
        assert left == right
        assert left == gamma((1, 2, 1), (2, 1, 1))

    def test_rejects_orbit_kinds(self):
        with pytest.raises(ValueError):
            concat_product(project_to_orbit(gamma((1, 2)), ModuleKind.GAMMA_SYM), gamma((1,)))


class TestJsonRoundTrip:
    def test_round_trip_bit_exact(self):
        x = gamma((1, 2), (2, 1))
        blob = json.dumps(element_to_json(x))
        assert element_from_json(json.loads(blob)) == x

    def test_monomials_sorted(self):
        x = gamma((2, 1), (1, 2))
        assert json.loads(json.dumps(element_to_json(x)))["monomials"] == [[1, 2], [2, 1]]

    def test_rejects_bad_kind(self):
        with pytest.raises(ValueError):
            element_from_json({"kind": "bogus", "s": 1, "d": 1, "monomials": []})

    @pytest.mark.parametrize("tag", [["gamma"], {"kind": "gamma"}])
    def test_rejects_a_kind_that_is_not_a_string(self, tag):
        with pytest.raises(ValueError) as err:
            element_from_json({"kind": tag, "s": 1, "d": 1, "monomials": [[1]]})
        assert str(err.value) == f"unknown kind tag {tag!r}"

    def test_rejects_missing_keys(self):
        with pytest.raises(ValueError):
            element_from_json({"kind": "gamma", "s": 1, "d": 1})

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            element_from_json({"kind": "gamma", "s": 1, "d": 1, "monomials": [[1], [1]]})

    def test_monomials_are_the_supports_own_tuples(self):
        # No list is copied per monomial: json.dumps writes a tuple as one.
        x = gamma((3, 1), (1, 3), (2, 2))
        assert [id(t) for t in element_to_json(x)["monomials"]] == [id(t) for t in sorted(x.support)]

    @pytest.mark.parametrize("kind,terms,text", [
        ("gamma", [(2, 1), (1, 2)], '{"d": 3, "kind": "gamma", "monomials": [[1, 2], [2, 1]], "s": 2}'),
        ("nabla", [(-1, 4), (3, 0)], '{"d": 3, "kind": "nabla", "monomials": [[-1, 4], [3, 0]], "s": 2}'),
        ("gamma-sym", [(3, 2, 2), (4, 2, 1)],
         '{"d": 7, "kind": "gamma-sym", "monomials": [[3, 2, 2], [4, 2, 1]], "s": 3}'),
        ("gamma-cyc", [(3, 2, 2), (4, 1, 2)],
         '{"d": 7, "kind": "gamma-cyc", "monomials": [[3, 2, 2], [4, 1, 2]], "s": 3}'),
    ])
    def test_dumps_text_is_pinned(self, kind, terms, text):
        x = Element.from_monomials(ModuleKind(kind), len(terms[0]), sum(terms[0]), terms)
        assert json.dumps(element_to_json(x), sort_keys=True) == text

    def test_peak_memory_per_monomial(self):
        # The 10626 monomials of gamma (5,25): a list of the support's own
        # tuples is about 12 bytes a monomial; a list copied per monomial
        # took 120.
        x = Element.from_monomials(G, 5, 25, basis(Bidegree(5, 25), G))
        assert len(x.support) == 10626
        tracemalloc.start()
        try:
            obj = element_to_json(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(obj["monomials"]) == 10626
        assert peak < 32 * 10626

    def test_decodes_of_one_piece_share_their_terms(self, monkeypatch):
        monkeypatch.setattr(modules, "EXPANSIONS", modules.Expansions())
        text = '{"kind": "gamma", "s": 3, "d": 6, "monomials": [[1, 2, 3], [2, 2, 2]]}'
        x = element_from_json(json.loads(text))
        y = element_from_json(json.loads(text.replace("[1, 2, 3]", "[3, 2, 1]")))
        z = element_from_json(json.loads(text))
        first = {t: t for t in x.support}
        assert [(t, t is first[t]) for t in y.support if t in first] == [((2, 2, 2), True)]
        assert all(t is first[t] for t in z.support)
        assert modules.EXPANSIONS.terms == {(G, 3, 6): {t: t for t in x.support | y.support}}

    @pytest.mark.parametrize("monos,message", [
        ([[1.0, 2]], "bad monomial [1.0, 2]"),
        ([[True, 2]], "bad monomial [True, 2]"),
        ([[2, 1], [1.0, 2]], "bad monomial [1.0, 2]"),
        ([[1, 2], [True, 2]], "bad monomial [True, 2]"),
    ])
    def test_int_like_entries_refused_after_the_int_term_is_checked(self, monkeypatch, monos, message):
        # (1.0, 2) and (True, 2) hash and compare equal to (1, 2), which the
        # first decode puts in the piece's table of checked terms.
        obj = {"kind": "gamma", "s": 2, "d": 3, "monomials": monos}
        monkeypatch.setattr(modules, "EXPANSIONS", modules.Expansions())
        cold = parse_outcome(element_from_json, obj)
        element_from_json({"kind": "gamma", "s": 2, "d": 3, "monomials": [[1, 2]]})
        assert modules.EXPANSIONS.terms[G, 2, 3] == {(1, 2): (1, 2)}
        assert parse_outcome(element_from_json, obj) == cold == (ValueError, message)

    @pytest.mark.parametrize("kind,s,d,monos", [
        ("gamma", 2, 3, [[2, 1], [5]]),
        ("gamma", 2, 3, [[2, 1], [2, 1]]),
        ("gamma", 2, 3, [[2, 1], [3, 0]]),
        ("gamma", 2, 3, [[2, 1], [1.5, 1.5]]),
        ("gamma", 2, 4, [[1, 3], [9]]),
        ("gamma-sym", 3, 7, [[3, 2, 2], [2, 2, 3]]),
    ])
    def test_a_refused_decode_leaves_the_table_unchanged(self, monkeypatch, kind, s, d, monos):
        monkeypatch.setattr(modules, "EXPANSIONS", modules.Expansions())
        element_from_json({"kind": "gamma", "s": 2, "d": 3, "monomials": [[1, 2]]})
        terms = modules.EXPANSIONS.terms
        before = {key: dict(table) for key, table in terms.items()}
        with pytest.raises(ValueError):
            element_from_json({"kind": kind, "s": s, "d": d, "monomials": monos})
        assert terms == before == {(G, 2, 3): {(1, 2): (1, 2)}}

    def test_memory_kept_per_repeated_monomial(self, monkeypatch):
        # 200 decodes of one 100-term element: each repeat keeps its support
        # (about 44 bytes a monomial) and shares the first decode's tuples; a
        # tuple of its own per monomial would keep 116.
        monkeypatch.setattr(modules, "EXPANSIONS", modules.Expansions())
        obj = {"kind": "gamma", "s": 4, "d": 14, "monomials": [list(t) for t in basis(Bidegree(4, 14), G)[:100]]}
        tracemalloc.start()
        try:
            xs = [element_from_json(obj) for _ in range(200)]
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(xs) == 200 and len(xs[-1].support) == 100
        assert kept < 64 * 100 * 199

    def test_arity_zero_round_trip(self):
        obj = {"kind": "gamma", "s": 0, "d": 0, "monomials": [[]]}
        x = element_from_json(obj)
        assert x.support == frozenset({()})
        assert json.loads(json.dumps(element_to_json(x))) == obj


@st.composite
def element_objs(draw):
    """A valid element's JSON, its monomials in a drawn order."""
    kind = draw(st.sampled_from(list(ModuleKind)))
    s = draw(st.integers(0, 4))
    if kind is ModuleKind.NABLA:
        d = draw(st.integers(-3, 8)) if s else 0
        heads = st.lists(st.integers(-4, 6), min_size=s - 1, max_size=s - 1) if s else st.just([])
        terms = draw(st.lists(heads.map(lambda h: tuple(h) + ((d - sum(h),) if s else ())),
                              unique=True, max_size=6))
    else:
        d = s + draw(st.integers(0, 6))
        b = basis(Bidegree(s, d), kind)
        terms = draw(st.lists(st.sampled_from(b), unique=True, max_size=8)) if b else []
    return {"kind": kind.value, "s": s, "d": d, "monomials": [list(t) for t in terms]}


def _bad_terms(s, d):
    """Terms that fail Element's checks at (s, d): wrong length, wrong sum,
    an entry 0, and one not in canonical orbit form (for s >= 2, d > s)."""
    return {
        "length": [1] * (s + 1),
        "sum": [1] * (s - 1) + [d - s + 2] if s else [1],
        "zero": [d] + [0] * (s - 1) if s else [0],
        "noncanonical": [1] * (s - 1) + [d - s + 1] if s >= 2 else [2, 1],
    }


MUTATIONS = ("bool", "float", "str", "list", "not-list", "empty", "repeat-2", "repeat-3",
             "repeat-beside-inconsistent", "two-failing", "length", "sum", "zero", "noncanonical",
             "kind-list", "kind-dict", "kind-unknown", "s-bool", "s-negative", "d-negative",
             "s-and-d-negative")


def mutate(data, name, obj):
    """obj with one mutation applied; each new or repeated term goes to a
    drawn position.  The header mutations change kind, s or d only; a
    negative d goes on a positive kind, where it is refused."""
    monos = [list(t) for t in obj["monomials"]]
    s, d = obj["s"], obj["d"]
    positive = obj["kind"] if obj["kind"] != "nabla" else "gamma"
    header = {
        "kind-list": lambda: {"kind": [obj["kind"]]},
        "kind-dict": lambda: {"kind": {"kind": obj["kind"]}},
        "kind-unknown": lambda: {"kind": data.draw(st.sampled_from(["Gamma", "gamma_sym", "cyc", ""]))},
        "s-bool": lambda: {"s": data.draw(st.booleans())},
        "s-negative": lambda: {"s": -data.draw(st.integers(1, 3))},
        "d-negative": lambda: {"kind": positive, "d": -data.draw(st.integers(1, 3))},
        "s-and-d-negative": lambda: {"kind": positive, "s": -data.draw(st.integers(1, 3)),
                                     "d": -data.draw(st.integers(1, 3))},
    }
    if name in header:
        return dict(obj, **header[name]())
    bad = _bad_terms(s, d)

    def insert(t):
        monos.insert(data.draw(st.integers(0, len(monos))), t)

    if name in ("bool", "float", "str", "list"):
        if not any(monos):
            monos.append([1])
        t = data.draw(st.sampled_from([t for t in monos if t]))
        j = data.draw(st.integers(0, len(t) - 1))
        t[j] = {"bool": data.draw(st.booleans()), "float": data.draw(st.sampled_from([float(t[j]), t[j] + 0.5])),
                "str": str(t[j]), "list": [t[j]]}[name]
    elif name == "not-list":
        insert(data.draw(st.sampled_from([7, "ab", None, {"a": 1}, (1, 2), True])))
    elif name == "empty":
        insert([])
    elif name.startswith("repeat"):
        if not monos:
            monos.append([1] * s)
        t = data.draw(st.sampled_from(monos))
        for _ in range(2 if name == "repeat-3" else 1):
            insert(list(t))
        if name == "repeat-beside-inconsistent":
            insert(data.draw(st.sampled_from(list(bad.values()))))
    elif name == "two-failing":
        for key in data.draw(st.lists(st.sampled_from(sorted(bad)), min_size=2, max_size=2, unique=True)):
            insert(bad[key])
    else:
        insert(bad[name])
    return dict(obj, monomials=monos)


def parse_outcome(parse, obj):
    try:
        return parse(obj)
    except Exception as exc:
        return type(exc), str(exc)


class TestJsonAgainstOracle:
    """element_from_json against the old per-monomial parse in oracles: an
    equal element, or the same exception type and message."""

    @settings(max_examples=150, deadline=None)
    @given(element_objs())
    def test_valid_elements(self, obj):
        # Twice in one fresh context: a cold decode, then one whose every
        # term is in the piece's table of checked terms.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(modules, "EXPANSIONS", modules.Expansions())
            x, y = element_from_json(obj), element_from_json(obj)
        assert x == y == json_element(obj)
        assert json.loads(json.dumps(element_to_json(x))) == dict(obj, monomials=sorted(obj["monomials"]))

    @pytest.mark.parametrize("name", MUTATIONS)
    @settings(max_examples=40, deadline=None)
    @given(obj=element_objs(), data=st.data())
    def test_mutations(self, name, obj, data):
        # Twice in one context that already holds the valid terms of obj,
        # so a term equal to one of them is still checked.
        bad = mutate(data, name, obj)
        want = parse_outcome(json_element, bad)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(modules, "EXPANSIONS", modules.Expansions())
            element_from_json(obj)
            assert parse_outcome(element_from_json, bad) == want
            assert parse_outcome(element_from_json, bad) == want

    @pytest.mark.parametrize("monos,message", [
        # The repeated pair cancels in the toggle, so the lone term is named.
        ([[1, 2], [1, 2], [5]], "monomial gamma[5] inconsistent with element (gamma,2,3)"),
        ([[5], [5], [1, 2]], "duplicate monomials in element JSON"),
        ([[5], [5], [5]], "monomial gamma[5] inconsistent with element (gamma,2,3)"),
        ([[1, 2], [True, 2]], "bad monomial [True, 2]"),
    ])
    def test_messages_name_the_term_they_named(self, monos, message):
        obj = {"kind": "gamma", "s": 2, "d": 3, "monomials": monos}
        with pytest.raises(ValueError) as err:
            element_from_json(obj)
        assert str(err.value) == message

    def test_several_failing_terms_name_the_least(self):
        # Four bad terms; the two parses build their sets differently, and
        # each names gamma[1, 1, 1, 1, 1], whatever the set's order.
        obj = {"kind": "gamma", "s": 4, "d": 7,
               "monomials": [[1, 1, 1, 1, 1], [7, 0, 0, 0], [1, 1, 1, 4], [1, 1, 2, 3], [1, 1, 3, 2]]}
        want = (ValueError, "monomial gamma[1, 1, 1, 1, 1] inconsistent with element (gamma,4,7)")
        assert parse_outcome(element_from_json, obj) == parse_outcome(json_element, obj) == want


class TestDegreeBookkeeping:
    @pytest.mark.parametrize("kind", list(ModuleKind))
    def test_arity_zero_element(self, kind):
        # The empty monomial has no entries to take a minimum of.
        x = Element(kind, 0, 0, frozenset({()}))
        assert x.sorted_support() == [()]

    @pytest.mark.parametrize("entries", [(0.5, 2.5), (0.0, 3.0), (0, 3)])
    def test_refuses_entries_below_one(self, entries):
        # (1).__le__(0.5) is NotImplemented, which is truthy: the check must compare.
        with pytest.raises(ValueError, match="entries must be >= 1"):
            Element(G, 2, 3, frozenset({entries}))

    @given(st.integers(1, 3), st.integers(0, 4), st.integers(0, 4))
    def test_sq_output_bidegree(self, s, dd, l):
        d = s + dd
        x = Element.from_monomials(G, s, d, basis(Bidegree(s, d), G)[:3])
        out = sq(x, l)
        assert out.s == s and out.d == d - l
        for m in out.support:
            assert sum(m) == d - l
