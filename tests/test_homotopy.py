import random
import re

import pytest

from oracles import first_unkilled, naive_sq, nested_chain, null_monomial, toggled_shift
from test_modules import owned
from sqhit import f2linalg, hit, homotopy, modules
from sqhit.homotopy import (
    AnnihilationError,
    ChainCertificateError,
    HomotopySystem,
    NullMembershipError,
    PreconditionError,
    in_null,
    null_span,
    preimage_chain,
    shift,
    verify_commutation,
    verify_homotopy,
)
from sqhit.modules import Bidegree, Element, ModuleKind, basis, project_to_orbit, sq

G = ModuleKind.GAMMA


def mono(*entries, kind=G):
    return Element.single(kind, entries)


def null_delta_classes(kind, s, d, k, p, rng, count, killed=None):
    """Seeded nonzero sums of null classes of the order-k system at
    position p that every Sq^(2^i), i <= killed (default k), kills.
    Positive kinds sum a random half of a basis, as the benchmark draws
    them.  On nabla every monomial is null, and each class sums such
    killed monomials of (s, d), with all entries but the last in -40..40."""
    killed = k if killed is None else killed
    if kind is ModuleKind.NABLA:
        pool = set()
        while len(pool) < 2 * count:
            head = [rng.randint(-40, 40) for _ in range(s - 1)]
            x = mono(*head, d - sum(head), kind=kind)
            if all(sq(x, 1 << i).is_zero() for i in range(killed + 1)):
                pool |= x.support
        pool = sorted(pool)
        return [Element(kind, s, d, frozenset(rng.sample(pool, count))) for _ in range(count)]
    b = Bidegree(s, d)
    h = HomotopySystem(kind, k, p)
    vectors = f2linalg.intersect(hit.delta_basis(b, killed, kind), null_span(b, h)).basis
    assert vectors
    out = []
    for _ in range(count):
        acc = 0
        for v in rng.sample(vectors, (len(vectors) + 1) // 2):
            acc ^= v
        out.append(hit.vector_to_element(acc, b, kind))
    return out


def null_elements(kind, s, d, k, p, rng, count):
    """Seeded sums of one to six null monomials of the order-k system at
    position p, killed or not by the Sq^(2^i), i <= k.  Nabla draws each
    monomial with all entries but the last in -40..40."""
    if kind is ModuleKind.NABLA:
        def draw():
            head = [rng.randint(-40, 40) for _ in range(s - 1)]
            return (*head, d - sum(head))
        return [Element.from_monomials(kind, s, d, [draw() for _ in range(rng.randint(1, 6))])
                for _ in range(count)]
    pool = [m for m in basis(Bidegree(s, d), kind) if null_monomial(kind, k, p, m)]
    return [Element(kind, s, d, frozenset(rng.sample(pool, rng.randint(1, min(6, len(pool))))))
            for _ in range(count)]


@pytest.fixture
def sq_calls(monkeypatch):
    """The squares l that ``homotopy`` asks of ``sq``, in call order."""
    calls = []

    def counted(x, l, *args, **kwargs):
        calls.append(l)
        return sq(x, l, *args, **kwargs)
    monkeypatch.setattr(homotopy, "sq", counted)
    return calls


CHAIN_SYSTEMS = [
    (G, 4, 14, (0,), range(1, 5)),
    (G, 4, 16, (1,), range(1, 5)),
    (G, 4, 18, (2,), range(1, 5)),
    (ModuleKind.GAMMA_SYM, 5, 24, range(3), (1,)),
    (ModuleKind.GAMMA_CYC, 4, 22, range(3), (1,)),
    (ModuleKind.NABLA, 3, 5, (2,), (2,)),
]
CHAIN_PIECES = pytest.mark.parametrize("kind,s,d,orders,positions", CHAIN_SYSTEMS, ids=[
    "gamma-4-14-k0", "gamma-4-16-k1", "gamma-4-18-k2", "gamma-sym-5-24", "gamma-cyc-4-22", "nabla-3-5-k2"])


class TestShift:
    def test_second_place(self):
        out = shift(mono(1, 2), 2, 4)
        assert out.sorted_support()[0] == (1, 6)
        assert out.d == 7

    def test_first_place(self):
        assert shift(mono(1, 2), 1, 2).sorted_support()[0] == (3, 2)

    def test_sym_leading_entry(self):
        x = project_to_orbit(mono(1, 4), ModuleKind.GAMMA_SYM)
        out = shift(x, 1, 2)
        assert out.sorted_support()[0] == (6, 1)

    def test_position_out_of_range(self):
        with pytest.raises(ValueError):
            shift(mono(1, 2), 3, 1)

    def test_sym_rejects_other_positions(self):
        x = project_to_orbit(mono(1, 4), ModuleKind.GAMMA_SYM)
        with pytest.raises(ValueError):
            shift(x, 2, 1)

    def test_matches_toggled_shift_exhaustive(self):
        # Every orbit monomial with s <= 5, d <= 14 (and every gamma one
        # with s <= 4, d <= 10, at each position) under every r <= 8.
        pieces = [(kind, s, d) for kind in (ModuleKind.GAMMA_SYM, ModuleKind.GAMMA_CYC)
                  for s in range(1, 6) for d in range(s, 15)]
        pieces += [(G, s, d) for s in range(1, 5) for d in range(s, 11)]
        for kind, s, d in pieces:
            for m in basis(Bidegree(s, d), kind):
                x = Element.single(kind, m)
                for i in range(1, s + 1) if kind is G else (1,):
                    for r in range(9):
                        assert shift(x, i, r) == toggled_shift(x, i, r), (kind, m, i, r)

    @pytest.mark.parametrize("kind,s,d,i", [
        (G, 4, 14, 2), (ModuleKind.GAMMA_SYM, 5, 24, 1), (ModuleKind.GAMMA_CYC, 4, 22, 1),
    ])
    def test_many_terms_keep_their_count(self, kind, s, d, i):
        x = Element.from_monomials(kind, s, d, basis(Bidegree(s, d), kind))
        for r in (0, 1, 5):
            y = shift(x, i, r)
            assert len(y.support) == len(x.support) and y == toggled_shift(x, i, r)


class TestNullPredicate:
    def test_threshold_inclusive(self):
        h = HomotopySystem(G, 2, 1)
        assert in_null(mono(4, 1), h)
        assert not in_null(mono(3, 1), h)

    def test_nabla_everything(self):
        h = HomotopySystem(ModuleKind.NABLA, 3, 1)
        assert in_null(mono(-7, 0, kind=ModuleKind.NABLA), h)

    def test_sym_difference_condition(self):
        h = HomotopySystem(ModuleKind.GAMMA_SYM, 1, 1)
        assert in_null(project_to_orbit(mono(4, 2), ModuleKind.GAMMA_SYM), h)
        assert not in_null(project_to_orbit(mono(3, 2), ModuleKind.GAMMA_SYM), h)

    def test_cyc_strict_condition(self):
        h = HomotopySystem(ModuleKind.GAMMA_CYC, 1, 1)
        assert in_null(project_to_orbit(mono(5, 2, 1), ModuleKind.GAMMA_CYC), h)
        assert not in_null(project_to_orbit(mono(4, 2, 2), ModuleKind.GAMMA_CYC), h)

    def test_kind_mismatch(self):
        with pytest.raises(ValueError):
            in_null(mono(1), HomotopySystem(ModuleKind.NABLA, 0, 1))

    def test_bound_edge_of_the_orbit_kinds(self):
        # [4, 2, 2] at order 1: 4 - 2 >= 2 on gamma-sym, but not 4 - 2 > 2 on gamma-cyc.
        for kind, null in ((ModuleKind.GAMMA_SYM, True), (ModuleKind.GAMMA_CYC, False)):
            x = Element.single(kind, (4, 2, 2))
            assert in_null(x, HomotopySystem(kind, 1, 1)) is null
            assert null_monomial(kind, 1, 1, (4, 2, 2)) is null

    def test_whole_support_matches_termwise_oracle(self):
        # Multi-term elements of every kind, against the term-by-term
        # condition; a refusal names the least term the oracle rejects.
        rng = random.Random(23)
        cases = []
        for kind in (G, ModuleKind.GAMMA_SYM, ModuleKind.GAMMA_CYC):
            for s in range(1, 5):
                for d in range(s, 15):
                    monos = basis(Bidegree(s, d), kind)
                    for _ in range(4):
                        cases.append(Element(kind, s, d, frozenset(rng.sample(monos, rng.randint(1, min(6, len(monos)))))))
        # gamma-cyc terms whose largest entry is tied, never null, next to
        # terms that are null at every order here.
        cases += [Element(ModuleKind.GAMMA_CYC, 3, 11, frozenset([(5, 5, 1), (9, 1, 1)])),
                  Element(ModuleKind.GAMMA_CYC, 4, 10, frozenset([(4, 1, 4, 1), (7, 1, 1, 1)])),
                  Element(ModuleKind.GAMMA_CYC, 4, 22, frozenset([(7, 7, 7, 1), (19, 1, 1, 1), (13, 6, 1, 2)]))]
        cases += null_elements(ModuleKind.NABLA, 3, 5, 0, 1, rng, 8)
        seen = set()
        for x in cases:
            for k in range(3):
                for p in range(1, x.s + 1) if x.kind in (G, ModuleKind.NABLA) else (1,):
                    h = HomotopySystem(x.kind, k, p)
                    outside = [m for m in x.support if not null_monomial(x.kind, k, p, m)]
                    assert in_null(x, h) == (not outside), (h, x)
                    seen.add((x.kind, x.s == 1, bool(outside), len(x.support) > 1))
                    if outside:
                        with pytest.raises(NullMembershipError) as exc:
                            preimage_chain(x, h)
                        assert exc.value.entries == min(outside), (h, x)
        assert {(kind, True, False, False) for kind in (G, ModuleKind.GAMMA_SYM, ModuleKind.GAMMA_CYC)} <= seen
        assert {(kind, False, bad, True) for kind in (G, ModuleKind.GAMMA_SYM, ModuleKind.GAMMA_CYC)
                for bad in (False, True)} <= seen
        assert (ModuleKind.NABLA, False, False, True) in seen

    def test_matches_termwise_condition(self):
        for kind in (G, ModuleKind.GAMMA_SYM, ModuleKind.GAMMA_CYC):
            for s in range(1, 5):
                for d in range(s, 15):
                    for m in basis(Bidegree(s, d), kind):
                        for k in range(3):
                            for p in range(1, s + 1) if kind is G else (1,):
                                h = HomotopySystem(kind, k, p)
                                assert in_null(Element.single(kind, m), h) == null_monomial(kind, k, p, m)


class TestIdentities:
    def test_hand_commutation(self):
        h = HomotopySystem(G, 1, 1)
        assert verify_commutation(mono(2), h, 1, 1)

    def test_hand_homotopy_at_threshold(self):
        h = HomotopySystem(G, 2, 1)
        assert verify_homotopy(mono(4), h, 2)

    def test_nabla_zero_entry(self):
        h = HomotopySystem(ModuleKind.NABLA, 0, 1)
        assert verify_homotopy(mono(0, kind=ModuleKind.NABLA), h, 0)

    def test_precondition_rejected(self):
        h = HomotopySystem(G, 1, 1)
        with pytest.raises(PreconditionError):
            verify_commutation(mono(1), h, 1, 2)
        with pytest.raises(PreconditionError):
            verify_homotopy(mono(1), HomotopySystem(G, 2, 1), 2)

    def test_exhaustive_small_scale(self):
        for k in range(3):
            threshold = 1 << k
            for s in (1, 2):
                for i in range(1, s + 1):
                    h = HomotopySystem(G, k, i)
                    for d in range(s, 10):
                        for m in basis(Bidegree(s, d), G):
                            if m[i - 1] < threshold:
                                continue
                            x = Element.single(G, m)
                            for mm in range(k + 1):
                                assert verify_homotopy(x, h, mm)
                                for l in range(1, 1 << mm):
                                    assert verify_commutation(x, h, mm, l)

    def test_nabla_unrestricted(self):
        rng = random.Random(5)
        h = HomotopySystem(ModuleKind.NABLA, 3, 1)
        for _ in range(150):
            s = rng.randint(1, 3)
            x = mono(*(rng.randint(-32, 32) for _ in range(s)), kind=ModuleKind.NABLA)
            for m in range(4):
                assert verify_homotopy(x, h, m)
                if m >= 1:
                    assert verify_commutation(x, h, m, rng.randrange(1, 1 << m))


class TestPreimageChain:
    def test_order_zero_hand_case(self):
        chain = preimage_chain(mono(3), HomotopySystem(G, 0, 1))
        assert chain[0].sorted_support()[0] == (4,)
        assert sq(chain[0], 1) == mono(3)

    def test_zero_element(self):
        z = Element.zero(G, 1, 3)
        chain = preimage_chain(z, HomotopySystem(G, 0, 1))
        assert all(y.is_zero() for y in chain)

    def test_rejects_outside_null(self):
        with pytest.raises(NullMembershipError):
            preimage_chain(mono(1, 1), HomotopySystem(G, 1, 1))

    def test_position_beyond_arity(self):
        with pytest.raises(ValueError, match="position 3 out of range for arity 1"):
            preimage_chain(mono(8), HomotopySystem(G, 1, 3))

    def test_rejects_unannihilated(self):
        # [2] has [2]Sq^1 = [1] != 0.
        with pytest.raises(AnnihilationError) as exc:
            preimage_chain(mono(2), HomotopySystem(G, 0, 1))
        assert exc.value.failing_i == 0

    @pytest.mark.parametrize("entry,k", [(5, 1), (11, 2)])
    def test_rejects_unannihilated_higher_square(self, sq_calls, entry, k):
        # Sq^(2^i) kills [5] for i = 0 only and [11] for i <= 1; both lie in
        # the order-k null subspace, so the refusal comes from a failed
        # certificate, whose square passes stop at the first that does not
        # kill x and name it.
        x = mono(entry)
        assert first_unkilled(x, k) == k
        with pytest.raises(AnnihilationError, match=rf"^element is not killed by Sq\^{1 << k}$") as exc:
            preimage_chain(x, HomotopySystem(G, k, 1))
        assert exc.value.failing_i == k
        assert sq_calls == [1 << i for i in range(k + 1)]

    def test_passing_chain_computes_no_square(self, sq_calls):
        # y_i Sq^R = x with R = 2^(i+1) - 1 proves x Sq^(2^i) = 0 by the Adem
        # relation, so a chain that passes runs no square pass.
        x = null_delta_classes(G, 4, 18, 2, 1, random.Random(5), 1)[0]
        assert preimage_chain(x, HomotopySystem(G, 2, 1)) == nested_chain(x, 2, 1)
        assert sq_calls == []

    def test_kind_mismatch_cyc_system(self):
        # Without the kind check the gamma element was tested as a necklace
        # and refused as outside the null subspace.
        with pytest.raises(ValueError, match=r"^kind mismatch: element gamma, system gamma-cyc$"):
            preimage_chain(mono(1, 3), HomotopySystem(ModuleKind.GAMMA_CYC, 1, 1))

    def test_kind_mismatch_sym_system(self):
        # Without the kind check [4, 2] passed the gamma-sym null test and
        # was refused as not killed by Sq^1.
        with pytest.raises(ValueError, match=r"^kind mismatch: element gamma, system gamma-sym$"):
            preimage_chain(mono(4, 2), HomotopySystem(ModuleKind.GAMMA_SYM, 1, 1))

    def test_nabla_position_beyond_arity(self, monkeypatch):
        monkeypatch.setattr(modules, "EXPANSIONS", modules.Expansions())
        x, h = mono(3, kind=ModuleKind.NABLA), HomotopySystem(ModuleKind.NABLA, 0, 3)
        with pytest.raises(ValueError, match=r"^position 3 out of range for arity 1$"):
            preimage_chain(x, h)
        with pytest.raises(ValueError, match=r"^position 3 out of range for arity 1$"):
            in_null(x, h)
        assert not owned(modules.EXPANSIONS, homotopy._shifted)

    def test_chain_at_max_arity(self):
        # [1, ..., 1] is killed by Sq^1, and [2, 1, ..., 1]Sq^1 = [1, ..., 1].
        top = modules.MAX_ARITY
        with modules.Expansions():
            assert preimage_chain(mono(*(1,) * top), HomotopySystem(G, 0)) == [mono(2, *(1,) * (top - 1))]

    @pytest.mark.parametrize("s", [257, 1500])
    def test_chain_miss_refused_above_max_arity(self, s):
        # A memo miss expands y_0 Sq^1, which is refused before it charges.
        with modules.Expansions(100) as ctx:
            with pytest.raises(ValueError, match=f"^arity s={s} exceeds the largest supported arity 256$"):
                preimage_chain(mono(*(1,) * s), HomotopySystem(G, 0))
        assert ctx.allowance == 100 and not any(ctx.tables[G].values())
        assert not any(ctx.pieces.values())

    @CHAIN_PIECES
    def test_matches_nested_chain(self, monkeypatch, kind, s, d, orders, positions):
        rng = random.Random(17)
        cases = [(x, HomotopySystem(kind, k, p)) for k in orders for p in positions
                 for x in null_delta_classes(kind, s, d, k, p, rng, 8)]
        # Through the shifted memo of a fresh context, again warm, and in a
        # context put in its place.
        for run in ("fresh", "warm", "swapped"):
            if run != "warm":
                monkeypatch.setattr(modules, "EXPANSIONS", modules.Expansions())
            for x, h in cases:
                assert preimage_chain(x, h) == nested_chain(x, h.order, h.position), (run, h, x)
            assert {key for key, memo in owned(modules.EXPANSIONS, homotopy._shifted).items() if memo} == {
                (kind, p, (2 << i) - 1) for k in orders for p in positions for i in range(k + 1)}

    @pytest.mark.parametrize("kind,s,d,k,positions", [
        (G, 4, 16, 1, range(1, 5)), (ModuleKind.GAMMA_CYC, 4, 22, 2, (1,)),
    ], ids=["gamma-4-16-k1", "gamma-cyc-4-22-k2"])
    def test_chain_keeps_no_support_of_its_arity(self, kind, s, d, k, positions):
        # The shifted memo keeps each (u, err), so the support of u Sq^R is
        # not kept: only the tails it was expanded from, of lower arity.
        rng = random.Random(23)
        cases = [(x, HomotopySystem(kind, k, p))
                 for p in positions for x in null_delta_classes(kind, s, d, k, p, rng, 4)]
        with modules.Expansions() as ctx:
            for x, h in cases:
                assert preimage_chain(x, h) == nested_chain(x, h.order, h.position), (h, x)
        assert any(ctx.tables[G].values())
        assert not [t for table in ctx.tables.values() for by_l in table.values() for t in by_l if len(t) == s]

    def test_pieces_stay_isolated_in_one_context(self, monkeypatch):
        # The chains of every system in one shuffled order through one fresh
        # context: the gamma pieces share the memo at (_shifted, G, 1, 1), and
        # each mask there comes from the interning table of its own term's piece.
        ctx = modules.Expansions()
        monkeypatch.setattr(modules, "EXPANSIONS", ctx)
        rng = random.Random(31)
        cases = [(x, HomotopySystem(kind, k, p)) for kind, s, d, orders, positions in CHAIN_SYSTEMS
                 for k in orders for p in positions for x in null_delta_classes(kind, s, d, k, p, rng, 3)]
        rng.shuffle(cases)
        for x, h in cases:
            assert preimage_chain(x, h) == nested_chain(x, h.order, h.position), (h, x)
        interned = owned(ctx, homotopy._mask)
        assert set(interned) == {(kind, s, d) for kind, s, d, _, _ in CHAIN_SYSTEMS}
        memo = ctx.pieces[homotopy._shifted, G, 1, 1]
        assert {(len(t), sum(t)) for t in memo} == {(4, 14), (4, 16), (4, 18)}
        for t, (u, err) in memo.items():
            bits = interned[G, len(t), sum(t)]
            assert err < 1 << len(bits)
            assert {v for v, b in bits.items() if err & b} == {t} ^ naive_sq(mono(*u), 1).support, t

    @CHAIN_PIECES
    def test_error_order_matches_oracle(self, kind, s, d, orders, positions):
        # Killed or not, every null input gets the answer that square
        # passes run before the chain would give: the nested chain, or
        # AnnihilationError at the least square that the naive expansion
        # finds does not kill it.  Classes killed by the
        # squares up to Sq^(2^j), j <= k, are mostly refused at j + 1.
        rng = random.Random(29)
        seen = set()
        for k in orders:
            for p in positions:
                h = HomotopySystem(kind, k, p)
                cases = null_elements(kind, s, d, k, p, rng, 4)
                for j in range(k + 1):
                    cases += null_delta_classes(kind, s, d, k, p, rng, 2, killed=j)
                for x in cases:
                    i = first_unkilled(x, k)
                    seen.add(i)
                    if i is None:
                        assert preimage_chain(x, h) == nested_chain(x, k, p), (h, x)
                        continue
                    with pytest.raises(AnnihilationError) as exc:
                        preimage_chain(x, h)
                    assert exc.value.failing_i == i, (h, x)
        assert seen == {None, *range(max(orders) + 1)}

    @pytest.mark.parametrize("corrupt,failure", [
        ("support", r"y_1 Sq\^3 != x"),
        ("shifted onto another", r"y_1 Sq\^3 != x"),
        ("shifted out of null", r"y_1 left the null subspace"),
        ("mask zeroed", r"y_1 Sq\^3 != x"),
    ], ids=["support", "shifted-onto-another", "shifted-out-of-null", "mask-zeroed"])
    def test_corrupt_memo_entry_is_caught(self, monkeypatch, sq_calls, corrupt, failure):
        # The chain is checked on every call, so a wrong memo entry cannot
        # vouch for a wrong chain.  Only the failed call runs the square
        # passes, and since x is killed by both it blames the chain.
        monkeypatch.setattr(modules, "EXPANSIONS", modules.Expansions())
        x = null_delta_classes(G, 4, 16, 1, 1, random.Random(5), 1)[0]
        h = HomotopySystem(G, 1, 1)
        assert preimage_chain(x, h) == nested_chain(x, 1, 1)
        assert sq_calls == []
        memo = modules.EXPANSIONS.pieces[homotopy._shifted, G, 1, 3]
        t, other = sorted(x.support)[:2]
        u, err = memo[t]
        if corrupt == "support":
            # The bit of t flipped: the mask of t's image support with t
            # added or taken out.
            memo[t] = (u, err ^ modules.EXPANSIONS.pieces[homotopy._mask, G, 4, 16][t])
        elif corrupt == "shifted onto another":
            memo[t] = (memo[other][0], err)
        elif corrupt == "shifted out of null":
            memo[t] = ((1,) + u[1:], err)
        else:
            z = min(z for z in x.support if memo[z][1])
            memo[z] = (memo[z][0], 0)
        with pytest.raises(ChainCertificateError) as exc:
            preimage_chain(x, h)
        assert sq_calls == [1, 2]
        assert re.fullmatch(rf"gamma bidegree \(s,d\)=\(4,16\), order 1, position 1: {failure}", str(exc.value))

    def test_order_one_exhaustive_bidegree(self):
        # Every kernel class at (5,12) supported on first-entry >= 2 monomials
        # gets a verified cube-square preimage.
        b = Bidegree(5, 12)
        h = HomotopySystem(G, 1, 1)
        delta = hit.delta_basis(b, 1, G)
        monos = basis(b, G)
        null_rows = [1 << j for j, m in enumerate(monos) if m[0] >= 2]
        null = f2linalg.subspace_from_rows(len(monos), null_rows)
        inter = f2linalg.intersect(delta, null)
        assert inter.dim > 0
        for r in inter.basis:
            x = hit.vector_to_element(r, b, G)
            chain = preimage_chain(x, h)
            assert sq(chain[1], 3) == x
            assert in_null(chain[1], h)
