import random
import re
import sys
from functools import partial

import pytest

import oracles
from oracles import naive_sq
from test_modules import memo_size, owned
from sqhit import f2linalg, hit, homotopy, modules, structure, suites
from sqhit.f2linalg import BitMatrix, subspace_from_rows
from sqhit.modules import Bidegree, Element, ModuleKind, basis, sq

G = ModuleKind.GAMMA


def gamma(*tuples):
    return Element.from_monomials(G, len(tuples[0]), sum(tuples[0]), tuples)


def checked(m):
    """m, once the public BitMatrix constructor has checked its fields."""
    assert type(m) is BitMatrix and BitMatrix(*m) == m
    return m


def from_depth(frames, fn, *args):
    """fn(*args), called from frames more stack frames than this call."""
    return fn(*args) if frames == 0 else from_depth(frames - 1, fn, *args)


def rows_of(ctx, kind):
    """The action rows of kind that ``hit._block`` keeps in ctx, keyed (s, d, l)."""
    return {key[1:]: rows for key, rows in owned(ctx, hit._block).items() if key[0] is kind}


def memo_counts(ctx):
    """The entries of each memo of a context: per kind its expansion tables
    and its action rows, then the gamma-sym column tables."""
    return ([sum(map(len, by_l.values())) for by_l in ctx.tables.values()],
            [len(rows_of(ctx, kind)) for kind in modules.POSITIVE_KINDS], len(owned(ctx, hit._high_block)))


class TestSqMatrix:
    def test_single_column_action(self):
        m = hit.sq_matrix(Bidegree(1, 2), 1, G)
        assert (m.rows, m.cols) == (1, 1)
        assert m.data == (1,)

    def test_killed_generator(self):
        m = hit.sq_matrix(Bidegree(1, 3), 1, G)
        assert m.data == (0,)

    def test_l_zero_is_identity(self):
        b = Bidegree(2, 5)
        m = hit.sq_matrix(b, 0, G)
        n = len(basis(b, G))
        assert m == BitMatrix(n, n, tuple(1 << j for j in range(n)))

    def test_rows_match_action(self):
        b = Bidegree(3, 7)
        m = hit.sq_matrix(b, 2, G)
        for j, mono in enumerate(basis(b, G)):
            img = sq(Element.single(G, mono), 2)
            v = hit.element_to_vector(img, Bidegree(3, 5), G)
            assert m.data[j] == v

    def test_dimensions_used_by_counterexample(self):
        m2 = hit.sq_matrix(Bidegree(4, 10), 2, G)
        m3 = hit.sq_matrix(Bidegree(5, 12), 3, G)
        assert (m2.rows, m2.cols) == (84, 35)
        assert (m3.rows, m3.cols) == (330, 70)

    # The six matrices of unhit at gamma (4,18), k=2: Sq^1, Sq^2, Sq^4 out of
    # (4,18) and the spike squares Sq^1, Sq^3, Sq^7 into it.
    UNHIT_4_18_2 = [((4, 18), 1), ((4, 18), 2), ((4, 18), 4), ((4, 19), 1), ((4, 21), 3), ((4, 25), 7)]

    @pytest.mark.parametrize("s", range(0, 6))
    def test_first_entry_blocks_match_oracle(self, s):
        # d < s (no domain) and d - l < s (no codomain) lie inside the box.
        for d in range(0, 17):
            for l in range(0, 8):
                m = checked(hit.sq_matrix(Bidegree(s, d), l, G))
                assert (m.rows, m.cols, m.data) == oracles.gamma_action_rows(s, d, l), (s, d, l)

    @pytest.mark.parametrize("b,l", UNHIT_4_18_2)
    def test_unhit_matrices_match_oracle(self, b, l):
        m = checked(hit.sq_matrix(Bidegree(*b), l, G))
        assert (m.rows, m.cols, m.data) == oracles.gamma_action_rows(*b, l)

    @pytest.mark.parametrize("order", [UNHIT_4_18_2, UNHIT_4_18_2[::-1]])
    def test_blocks_filled_on_demand_match_oracle(self, monkeypatch, order):
        # Each call builds the blocks it lacks, whatever an earlier call
        # left in the cache.
        monkeypatch.setattr(modules, "EXPANSIONS", modules.Expansions())
        for b, l in order:
            m = hit.sq_matrix(Bidegree(*b), l, G)
            assert (m.rows, m.cols, m.data) == oracles.gamma_action_rows(*b, l), (b, l)

    def test_unhit_builds_only_the_blocks_it_reads(self, monkeypatch):
        # Every arity-t block with t <= e <= d-s+t and j <= min(l, e-t)
        # would be 450 blocks of 24090 rows; first entries reach 347, and
        # the 45 of them under Sq^0 (815 rows) are identity columns, not built.
        monkeypatch.setattr(modules, "EXPANSIONS", modules.Expansions())
        hit.unhit_report(Bidegree(4, 18), 2, G)
        rows = rows_of(modules.EXPANSIONS, G)
        assert len(rows) == 302
        assert sum(map(len, rows.values())) == 14573

    def test_first_entry_blocks_match_naive_sq(self):
        def support(entries, l):
            return naive_sq(Element.single(G, entries), l).support

        for s in range(1, 4):
            for d in range(s, 13):
                for l in range(0, 6):
                    m = hit.sq_matrix(Bidegree(s, d), l, G)
                    assert (m.rows, m.cols, m.data) == oracles.gamma_action_rows(s, d, l, support), (s, d, l)

    def test_sym_rows_match_naive_sq(self):
        K = ModuleKind.GAMMA_SYM

        def support(entries, l):
            return naive_sq(Element.single(K, entries), l).support

        for s in range(1, 6):
            for d in range(s, 17):
                for l in range(0, 8):
                    m = hit.sq_matrix(Bidegree(s, d), l, K)
                    assert (m.rows, m.cols, m.data) == oracles.gamma_action_rows(s, d, l, support, K), (s, d, l)

    C = ModuleKind.GAMMA_CYC

    @pytest.mark.parametrize("s", range(0, 6))
    def test_cyc_rows_match_oracle(self, s):
        for d in range(s, 17):
            for l in range(0, 8):
                m = checked(hit.sq_matrix(Bidegree(s, d), l, self.C))
                want = oracles.gamma_action_rows(s, d, l, oracles.cyc_sq_support, self.C)
                assert (m.rows, m.cols, m.data) == want, (s, d, l)

    def test_cyc_build_leaves_the_necklace_memo_empty(self, monkeypatch):
        # The rows project plain gamma supports; no necklace support is kept,
        # and of the plain ones only the tails below arity 5.
        monkeypatch.setattr(modules, "EXPANSIONS", modules.Expansions())
        rep = hit.unhit_report(Bidegree(5, 16), 1, self.C)
        assert (rep.dim_delta, rep.dim_image, rep.dim_unhit) == (70, 70, 0)
        assert self.C not in modules.EXPANSIONS.tables
        assert memo_size(ModuleKind.GAMMA) > 0
        assert max(len(t) for by_l in modules.EXPANSIONS.tables[G].values() for t in by_l) == 4

    def test_cyc_rows_keep_only_the_tails(self, monkeypatch):
        # A row is packed into the context's rows, so the plain support of its
        # necklace is not kept; the arity-5 tails it was built from are.
        b = Bidegree(6, 25)
        with modules.Expansions() as ctx:
            m = hit.sq_matrix(b, 3, self.C)
        assert {len(t) for by_l in ctx.tables[G].values() for t in by_l} == {1, 2, 3, 4, 5}
        # A build that keeps every support it expands, as sq does, gives the
        # same rows and the same tails, and the arity-6 supports besides.
        keep_all = modules.Expansions.support
        monkeypatch.setattr(modules.Expansions, "support",
                            lambda self, kind, entries, l, keep=True: keep_all(self, kind, entries, l))
        with modules.Expansions() as kept:
            assert hit.sq_matrix(b, 3, self.C) == m
        tails = {l: {t: v for t, v in by_l.items() if len(t) < 6} for l, by_l in kept.tables[G].items()}
        assert {l: by_l for l, by_l in tails.items() if by_l} == {l: by_l for l, by_l in ctx.tables[G].items() if by_l}
        assert any(len(t) == 6 for by_l in kept.tables[G].values() for t in by_l)

    def test_cyc_squares_keep_no_expansion_of_their_own(self, monkeypatch):
        # Element-level sq, a preimage chain and a matrix build each read
        # the gamma tables, and the context gets no gamma-cyc table; only
        # the chain's shifted memo keeps projected supports.
        ctx = modules.Expansions()
        monkeypatch.setattr(modules, "EXPANSIONS", ctx)
        x = Element.from_monomials(self.C, 3, 9, [(5, 2, 2), (5, 3, 1)])
        assert sq(x, 2) == naive_sq(x, 2)
        y = Element.single(self.C, (7, 1, 1))
        chain = homotopy.preimage_chain(y, homotopy.HomotopySystem(self.C, 1))
        assert [sq(z, (2 << i) - 1) for i, z in enumerate(chain)] == [y, y]
        hit.sq_matrix(Bidegree(4, 13), 1, self.C)
        assert self.C not in ctx.tables and ctx.tables[G]
        assert {key[0] for key in owned(ctx, homotopy._shifted)} == {self.C}

    def test_cyc_build_fills_the_current_context(self, monkeypatch):
        # hit reads modules.EXPANSIONS when it is called, so a context put in
        # its place is the one filled, and the one it replaced is left alone.
        old = modules.EXPANSIONS
        before = memo_counts(old)
        monkeypatch.setattr(modules, "EXPANSIONS", modules.Expansions())
        m = hit.sq_matrix(Bidegree(4, 13), 1, self.C)
        assert rows_of(modules.EXPANSIONS, self.C) == {(4, 13, 1): m.data}
        assert memo_size(G) > 0
        assert memo_counts(old) == before

    def test_repeated_cyc_call_builds_nothing(self, monkeypatch):
        def no_basis(b, kind):
            raise AssertionError(f"{kind.value} basis enumerated at {b}")

        monkeypatch.setattr(modules, "EXPANSIONS", modules.Expansions())
        first = hit.sq_matrix(Bidegree(4, 13), 1, self.C)
        monkeypatch.setattr(hit, "basis", no_basis)
        assert hit.sq_matrix(Bidegree(4, 13), 1, self.C) == first

    S = ModuleKind.GAMMA_SYM
    # The four matrices of unhit at gamma-sym (6,24), k=1: Sq^1, Sq^2 out
    # of (6,24) and the spike squares Sq^1, Sq^3 into it.
    UNHIT_SYM_6_24_1 = [((6, 24), 1), ((6, 24), 2), ((6, 25), 1), ((6, 27), 3)]

    @pytest.mark.parametrize("s", range(0, 7))
    def test_sym_blocks_match_oracle(self, s):
        for d in range(0, 21):
            for l in range(0, 8):
                m = checked(hit.sq_matrix(Bidegree(s, d), l, self.S))
                want = oracles.gamma_action_rows(s, d, l, oracles.sym_sq_support, self.S)
                assert (m.rows, m.cols, m.data) == want, (s, d, l)

    def test_sym_counts_match_brute_force(self):
        # Block sizes and column offsets count the partitions with no part
        # above c.
        for s in range(0, 7):
            for d in range(0, 16):
                parts = oracles.orbit_basis(self.S, s, d) if s else ((),) * (d == 0)
                for c in range(0, d + 2):
                    assert modules._sym_count(s, d, c) == sum(max(p, default=0) <= c for p in parts), (s, d, c)

    def test_sym_offsets_match_brute_force(self):
        # Entry c of the offsets of (s, d) counts the partitions whose first
        # (largest) part is below c.
        for s in range(2, 8):
            for d in range(s, 21):
                firsts = [p[0] for p in oracles.orbit_basis(self.S, s, d)]
                offsets = hit._offsets({}, self.S, s, d)
                assert len(offsets) == d - s + 3, (s, d)
                for c, got in enumerate(offsets):
                    assert got == sum(a < c for a in firsts), (s, d, c)

    def test_sym_fit_matches_the_partition_counter(self):
        # The counts that hit reads off the offsets are modules._sym_count's,
        # from one memo shared by the whole grid.
        pieces = {}
        for s in range(0, 9):
            for d in range(0, 31):
                for c in range(0, 32):
                    assert hit._sym_fit(pieces, s, d, c) == modules._sym_count(s, d, c), (s, d, c)

    def test_sym_blocks_match_expansion_over_report_box(self):
        # Every square of order 1 (l <= 3) out of the pieces a gamma-sym
        # report with s <= 6, d <= 24 reads, against rows expanded monomial
        # by monomial.
        expand = partial(modules.EXPANSIONS.support, self.S)
        for s in range(1, 7):
            for d in range(s, 28):
                for l in range(0, 4):
                    target = basis(Bidegree(s, d - l), self.S) if d >= l else ()
                    index = {t: j for j, t in enumerate(target)}
                    rows = tuple(sum(1 << index[t] for t in expand(u, l)) for u in basis(Bidegree(s, d), self.S))
                    m = hit.sq_matrix(Bidegree(s, d), l, self.S)
                    assert (m.rows, m.cols, m.data) == (len(rows), len(target), rows), (s, d, l)

    @pytest.mark.parametrize("order", [UNHIT_SYM_6_24_1, UNHIT_SYM_6_24_1[::-1]])
    def test_sym_blocks_filled_on_demand_match_oracle(self, monkeypatch, order):
        monkeypatch.setattr(modules, "EXPANSIONS", modules.Expansions())
        for b, l in order:
            m = hit.sq_matrix(Bidegree(*b), l, self.S)
            assert (m.rows, m.cols, m.data) == oracles.gamma_action_rows(*b, l, oracles.sym_sq_support, self.S), (b, l)

    def test_sym_rows_at_max_arity_and_refusal_above(self, monkeypatch):
        ctx = modules.Expansions()
        monkeypatch.setattr(modules, "EXPANSIONS", ctx)
        top = modules.MAX_ARITY
        # [2, 1, ..., 1]Sq^1 = [1, ..., 1].
        m = from_depth(300, hit.sq_matrix, Bidegree(top, top + 1), 1, self.S)
        assert (m.rows, m.cols, m.data) == (1, 1, (1,))
        # Out of (2,2,2,1..), (3,2,1..), (4,1..) into (2,2,1..), (3,1..):
        # Sq^1 lowers an even entry by one, three ways from (2,2,2,1..).
        m = from_depth(300, hit.sq_matrix, Bidegree(top, top + 3), 1, self.S)
        assert (m.rows, m.cols, m.data) == (3, 2, (0b01, 0b10, 0b10))
        # A part 1 is fixed by every positive square, so past arity 10 the
        # rows out of excess 10 are those of (10, 20), ones appended.  The
        # column tables recurse too, from arity top - 1 down to top - 9.
        m = from_depth(300, hit.sq_matrix, Bidegree(top, top + 10), 7, self.S)
        assert (m.rows, m.cols, m.data) == oracles.gamma_action_rows(10, 20, 7, oracles.sym_sq_support, self.S)
        assert {s for s, _, _ in owned(ctx, hit._high_block)} == set(range(top - 9, top))
        built = memo_counts(ctx)
        for s in (top + 1, 1500):
            with pytest.raises(ValueError, match=f"^arity s={s} exceeds the largest supported arity {top}$"):
                hit.sq_matrix(Bidegree(s, s + 1), 1, self.S)
        assert memo_counts(ctx) == built

    def test_max_arity_builds_take_one_frame_per_arity(self):
        # 300 frames above the caller's leave room for one frame per arity
        # at MAX_ARITY, not for two.
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        top, limit = modules.MAX_ARITY, sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 300)
        try:
            with modules.Expansions():
                plain = hit.sq_matrix(Bidegree(top, top + 1), 1, G)
                sym = hit.sq_matrix(Bidegree(top, top + 11), 3, self.S)
                cyc = hit.sq_matrix(Bidegree(top, top + 2), 1, self.C)
        finally:
            sys.setrecursionlimit(limit)
        assert (plain.rows, plain.cols, plain.data) == (top, 1, (1,) * top)
        # Parts 1 are fixed by every positive square: the rows of (11, 22).
        assert (sym.rows, sym.cols, sym.data) == oracles.gamma_action_rows(11, 22, 3, oracles.sym_sq_support, self.S)
        # A necklace with one 3 is killed; one with two 2s has two terms, and
        # both project to the one necklace of (top, top + 1), so they cancel.
        assert (cyc.rows, cyc.cols, cyc.data) == (1 + top // 2, 1, (0,) * (1 + top // 2))

    def test_sym_unhit_expands_no_monomial(self, monkeypatch):
        def no_basis(b, kind):
            raise AssertionError(f"{kind.value} basis enumerated at {b}")

        monkeypatch.setattr(modules, "EXPANSIONS", modules.Expansions())
        monkeypatch.setattr(hit, "basis", no_basis)
        rep = hit.unhit_report(Bidegree(6, 24), 1, self.S)
        assert (rep.dim_delta, rep.dim_image, rep.dim_unhit) == (50, 47, 3)
        assert memo_size(self.S) == 0

    def test_sym_unhit_expands_no_plain_terms(self, monkeypatch):
        def no_plain_expansion(ctx, kind, entries, l):
            raise AssertionError(f"gamma-sym rows expanded {kind.value} {entries} Sq^{l}")

        monkeypatch.setattr(modules, "EXPANSIONS", modules.Expansions())
        monkeypatch.setattr(modules.Expansions, "support", no_plain_expansion)
        rep = hit.unhit_report(Bidegree(6, 24), 1, ModuleKind.GAMMA_SYM)
        assert (rep.dim_delta, rep.dim_image, rep.dim_unhit) == (50, 47, 3)
        assert memo_size() == 0

    def test_rows_at_max_arity_and_refusal_above(self, monkeypatch):
        # A build recurses one level per arity, so it is refused above
        # MAX_ARITY before anything is built.
        ctx = modules.Expansions()
        monkeypatch.setattr(modules, "EXPANSIONS", ctx)
        top = modules.MAX_ARITY
        m = from_depth(300, hit.sq_matrix, Bidegree(top, top + 1), 1, G)
        assert (m.rows, m.cols) == (top, 1)
        # Sq^1 takes (.., 2, ..) to (.., 1, ..) with C(1, 1) = 1.
        assert m.data == (1,) * top
        built = memo_counts(ctx)
        for s in (top + 1, 1500):
            with pytest.raises(ValueError, match=f"^arity s={s} exceeds the largest supported arity {top}$"):
                hit.sq_matrix(Bidegree(s, s + 1), 1, G)
        assert memo_counts(ctx) == built

    @pytest.mark.parametrize("kind", [G, ModuleKind.GAMMA_SYM, ModuleKind.GAMMA_CYC])
    def test_bad_arguments_rejected(self, kind):
        for b, l in [(Bidegree(-1, 3), 1), (Bidegree(2, -1), 0), (Bidegree(2, 5), -1)]:
            with pytest.raises(ValueError):
                hit.sq_matrix(b, l, kind)

    def test_nabla_rejected(self):
        with pytest.raises(ValueError, match="infinite"):
            hit.sq_matrix(Bidegree(1, 1), 1, ModuleKind.NABLA)

    @pytest.mark.parametrize("call,tag", [
        (lambda: hit.sq_matrix(Bidegree(3, 6), 1, "gamma"), "gamma"),
        (lambda: hit.unhit_report(Bidegree(2, 3), 1, "gamma-cyc"), "gamma-cyc"),
        (lambda: next(hit.sweep("gamma", [(2, 3)], 1)), "gamma"),
        # Before, the mismatch message read "gamma".value: AttributeError.
        (lambda: hit.element_to_vector(Element.zero(G, 2, 4), Bidegree(2, 4), "gamma"), "gamma"),
    ], ids=["sq_matrix", "unhit_report", "sweep", "element_to_vector"])
    def test_str_kind_refused(self, call, tag):
        # A tag equals its ModuleKind but fails every "kind is" test, so it
        # would read another kind's piece.
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == f"kind {tag!r} is not a ModuleKind"

    def test_gamma_unhit_enumerates_no_basis(self, monkeypatch):
        def no_gamma_basis(b, kind):
            if kind is G:
                raise AssertionError(f"gamma basis enumerated at {b}")
            return basis(b, kind)

        # hit holds its own reference to modules.basis.
        monkeypatch.setattr(modules, "basis", no_gamma_basis)
        monkeypatch.setattr(hit, "basis", no_gamma_basis)
        monkeypatch.setattr(modules, "EXPANSIONS", modules.Expansions())
        rep = hit.unhit_report(Bidegree(4, 18), 2, G)
        assert (rep.dim_delta, rep.dim_image, rep.dim_unhit) == (60, 59, 1)


class TestSqStack:
    @pytest.mark.parametrize("kind,b,squares,support", [
        (G, (4, 18), (1, 2, 4), None),
        (ModuleKind.GAMMA_SYM, (6, 24), (1, 2), oracles.sym_sq_support)])
    def test_rows_are_oracle_blocks_side_by_side(self, kind, b, squares, support):
        rows, offset = None, 0
        for l in squares:
            n, cols, data = oracles.gamma_action_rows(*b, l, support, kind)
            rows = [r | (x << offset) for r, x in zip(rows or [0] * n, data)]
            offset += cols
        m = checked(hit.sq_stack(Bidegree(*b), squares, kind))
        assert (m.rows, m.cols, m.data) == (len(rows), offset, tuple(rows))

    def test_delta_is_kernel_of_the_stack(self):
        b = Bidegree(4, 18)
        stack = hit.sq_stack(b, (1, 2, 4), G)
        assert hit.delta_basis(b, 2, G) == f2linalg.kernel_basis(stack)


class TestVectorConversion:
    def test_round_trip(self):
        b = Bidegree(2, 4)
        x = gamma((1, 3), (3, 1))
        v = hit.element_to_vector(x, b, G)
        assert hit.vector_to_element(v, b, G) == x

    def test_element_of_another_piece_rejected(self):
        for x, b, kind in [(gamma((1, 2)), Bidegree(2, 4), G),
                           (gamma((1, 2)), Bidegree(1, 3), G),
                           (gamma((1, 2)), Bidegree(2, 3), ModuleKind.GAMMA_SYM)]:
            with pytest.raises(ValueError, match=re.escape(f"{kind.value} ({b.s},{b.d})")):
                hit.element_to_vector(x, b, kind)

    def test_bits_beyond_the_basis_rejected(self):
        # (2,4) has the three basis monomials [1,3], [2,2], [3,1].
        b = Bidegree(2, 4)
        for bits in (1 << 3, 1 << 10, -1):
            with pytest.raises(ValueError, match=re.escape("gamma (2,4)")):
                hit.vector_to_element(bits, b, G)
        assert hit.vector_to_element(0b111, b, G) == gamma((1, 3), (2, 2), (3, 1))

    def test_zero(self):
        b = Bidegree(2, 4)
        v = hit.element_to_vector(Element.zero(G, 2, 4), b, G)
        assert v == 0


class TestDeltaAndImage:
    def test_delta0_odd_generator(self):
        d = hit.delta_basis(Bidegree(1, 3), 0, G)
        assert d.dim == 1 and d.basis == (1,)

    def test_delta0_even_generator_empty(self):
        assert hit.delta_basis(Bidegree(1, 4), 0, G).dim == 0

    @pytest.mark.parametrize("kind", [G, ModuleKind.GAMMA_SYM, ModuleKind.GAMMA_CYC])
    @pytest.mark.parametrize("s,d", [(3, 2), (0, 1), (0, 3)])
    @pytest.mark.parametrize("k", range(3))
    def test_empty_piece_gives_zero_space(self, kind, s, d, k):
        assert hit.delta_basis(Bidegree(s, d), k, kind) == subspace_from_rows(0, ())
        assert hit.spike_image_basis(Bidegree(s, d), k, kind) == subspace_from_rows(0, ())

    def test_image0_hand_cases(self):
        assert hit.spike_image_basis(Bidegree(1, 3), 0, G).dim == 1
        assert hit.spike_image_basis(Bidegree(1, 4), 0, G).dim == 0

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            hit.delta_basis(Bidegree(1, 3), -1, G)

    def test_delta_is_joint_kernel(self):
        b = Bidegree(3, 8)
        d = hit.delta_basis(b, 1, G)
        for r in d.basis:
            x = hit.vector_to_element(r, b, G)
            assert sq(x, 1).is_zero() and sq(x, 2).is_zero()

    def test_unhit_report_everything_hit_at_order_zero(self):
        for d in range(1, 13):
            for s in range(1, 4):
                rep = hit.unhit_report(Bidegree(s, d), 0, G)
                assert rep.dim_unhit == 0

    def test_unhit_report_degenerate_flag(self):
        assert hit.unhit_report(Bidegree(1, 3), 1, G).degenerate
        assert not hit.unhit_report(Bidegree(1, 4), 1, G).degenerate

    def test_unhit_report_witnesses(self):
        rep = hit.unhit_report(Bidegree(5, 9), 1, G)
        assert rep.dim_unhit == 1
        unhit = hit.subspace_elements(rep.unhit, Bidegree(5, 9), G)
        assert len(unhit) == 1
        for x in unhit:
            assert sq(x, 1).is_zero() and sq(x, 2).is_zero()

    @pytest.mark.parametrize("kind,s,d,k,classes", [
        (G, 5, 9, 1, 1), (G, 4, 16, 2, 4), (G, 4, 18, 2, 1), (G, 5, 16, 2, 20),
        (ModuleKind.GAMMA_SYM, 6, 24, 1, 3), (ModuleKind.GAMMA_CYC, 4, 14, 2, 2),
        (ModuleKind.GAMMA_CYC, 6, 22, 1, 7)])
    def test_unhit_witnesses_are_a_basis_of_the_quotient(self, kind, s, d, k, classes):
        b = Bidegree(s, d)
        rep = hit.unhit_report(b, k, kind)
        unhit = hit.subspace_elements(rep.unhit, b, kind)
        assert len(unhit) == rep.dim_unhit == classes
        for x in unhit:
            assert all(sq(x, 1 << i).is_zero() for i in range(k + 1)), x
        # Independent modulo I(k), and no term at a pivot of I(k).
        image = hit.spike_image_basis(b, k, kind)
        rows = [hit.element_to_vector(x, b, kind) for x in unhit]
        assert subspace_from_rows(image.ambient_dim, [*image.basis, *rows]).dim == image.dim + classes
        assert not any(r >> p & 1 for r in rows for p in image.pivots)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("kind,s,d,k", [(G, 4, 16, 2), (ModuleKind.GAMMA_CYC, 6, 22, 1)])
    def test_unhit_basis_ignores_row_order(self, kind, s, d, k, seed):
        # Delta(k) and I(k) rebuilt from their matrices with the rows
        # shuffled give other semi-echelon rows and the same basis of U(k).
        rng = random.Random(seed)
        b = Bidegree(s, d)

        def shuffled(m):
            perm = list(range(m.rows))
            rng.shuffle(perm)
            return perm, BitMatrix(m.rows, m.cols, tuple(m.data[p] for p in perm))

        perm, stack = shuffled(hit.sq_stack(b, [1 << i for i in range(k + 1)], kind))
        kernel = f2linalg.kernel_basis(stack).basis
        delta = subspace_from_rows(stack.rows, [sum(1 << perm[j] for j in range(stack.rows) if v >> j & 1)
                                                for v in kernel])
        image = None
        for i in range(k + 1):
            l = (2 << i) - 1
            im = f2linalg.image_basis(shuffled(hit.sq_matrix(Bidegree(s, d + l), l, kind))[1])
            image = im if image is None else f2linalg.intersect(image, im)
        assert delta == hit.delta_basis(b, k, kind) and image == hit.spike_image_basis(b, k, kind)
        unhit = hit.subspace_elements(hit.unhit_report(b, k, kind).unhit, b, kind)
        assert [hit.vector_to_element(r, b, kind) for r in f2linalg.complement(delta, image).basis] == unhit

    @pytest.mark.parametrize("kind,s,d,k,unhit", [
        (G, 5, 9, 1, 1), (G, 4, 18, 2, 1), (ModuleKind.GAMMA_SYM, 6, 24, 1, 3),
        (ModuleKind.GAMMA_CYC, 4, 10, 1, 2), (ModuleKind.GAMMA_CYC, 4, 14, 2, 2)])
    def test_bases_match_oracle_path(self, kind, s, d, k, unhit):
        # Rows through element-level sq, elimination through the reference loops.
        def rows(src, l):
            target = Bidegree(src.s, src.d - l)
            return [hit.element_to_vector(sq(Element.single(kind, m), l), target, kind)
                    for m in basis(src, kind)]

        b = Bidegree(s, d)
        n = len(basis(b, kind))
        blocks = [rows(b, 1 << i) for i in range(k + 1)]
        stacked, offset = [0] * n, 0
        for i, blk in enumerate(blocks):
            stacked = [r | (x << offset) for r, x in zip(stacked, blk)]
            offset += len(basis(Bidegree(s, d - (1 << i)), kind))
        delta = oracles.kernel_rows(stacked)
        assert hit.delta_basis(b, k, kind).basis == delta

        image = None
        for i in range(k + 1):
            l = (1 << (i + 1)) - 1
            im = oracles.rref_rows(rows(Bidegree(s, d + l), l))
            image = im if image is None else oracles.intersect_rows(image, im, n)
        assert hit.spike_image_basis(b, k, kind).basis == image
        assert len(delta) - len(image) == unhit

        # U(k): the Delta(k) rows with every pivot bit of I(k) cleared, in RREF.
        classes = hit.subspace_elements(hit.unhit_report(b, k, kind).unhit, b, kind)
        expected = oracles.rref_rows([oracles.reduce_rows(image, r) for r in delta])
        assert tuple(hit.element_to_vector(x, b, kind) for x in classes) == expected
        assert len(expected) == unhit

    @pytest.mark.parametrize("kind,s,d,k,dims", [
        (G, 4, 18, 2, (60, 59, 1)), (ModuleKind.GAMMA_SYM, 6, 24, 1, (50, 47, 3)),
        (ModuleKind.GAMMA_CYC, 4, 14, 2, (8, 6, 2))])
    def test_dimensions_build_no_rref(self, monkeypatch, kind, s, d, k, dims):
        # Dimensions and containment need only the semi-echelon rows.
        def no_rref(pivots):
            raise AssertionError("RREF built for a dimension-only report")

        monkeypatch.setattr(f2linalg, "_rref", no_rref)
        rep = hit.unhit_report(Bidegree(s, d), k, kind)
        assert (rep.dim_delta, rep.dim_image, rep.dim_unhit) == dims

    @pytest.mark.parametrize("kind,s,d,k", [
        (G, 5, 9, 1), (G, 1, 3, 1), (G, 4, 18, 2), (ModuleKind.GAMMA_SYM, 6, 24, 1),
        (ModuleKind.GAMMA_CYC, 4, 14, 2)])
    def test_report_holds_its_subspaces(self, kind, s, d, k):
        # The report keeps Delta(k) and I(k); the rest is read off them.
        b = Bidegree(s, d)
        rep = hit.unhit_report(b, k, kind)
        delta, image = hit.delta_basis(b, k, kind), hit.spike_image_basis(b, k, kind)
        assert rep.delta == delta and rep.image == image
        assert (rep.dim_delta, rep.dim_image, rep.dim_unhit) == (delta.dim, image.dim, delta.dim - image.dim)
        assert rep.degenerate == (d < 2 << k)
        assert rep.unhit == f2linalg.complement(delta, image)
        assert rep.unhit.dim == rep.dim_unhit


class TestSweep:
    CELLS = [(s, d) for s in range(1, 5) for d in range(1, 13)]

    @pytest.mark.parametrize("kind", [G, ModuleKind.GAMMA_SYM, ModuleKind.GAMMA_CYC])
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_reports_equal_the_per_cell_reports(self, kind, k):
        reps = list(hit.sweep(kind, self.CELLS, k))
        assert [(rep.kind, rep.bidegree, rep.k) for rep in reps] == [(kind, Bidegree(*c), k) for c in self.CELLS]
        for rep in reps:
            one = hit.unhit_report(rep.bidegree, k, kind)
            assert (rep.dim_delta, rep.dim_image, rep.dim_unhit) == (one.dim_delta, one.dim_image, one.dim_unhit)
            for key in ("delta", "image", "unhit"):
                assert getattr(rep, key).basis == getattr(one, key).basis, (rep.bidegree, key)

    def test_loop_body_runs_in_the_callers_context(self, monkeypatch):
        outer = modules.Expansions()
        monkeypatch.setattr(modules, "EXPANSIONS", outer)
        for rep in hit.sweep(ModuleKind.GAMMA_SYM, [(3, 9), (4, 12)], 1):
            assert modules.EXPANSIONS is outer
            with modules.Expansions() as inner:
                m = hit.sq_matrix(rep.bidegree, 1, rep.kind)
                assert modules.EXPANSIONS is inner
                assert rows_of(inner, rep.kind)[(*rep.bidegree, 1)] == m.data
            assert modules.EXPANSIONS is outer
        # The sweep's cells filled its own context, not the caller's.
        assert memo_counts(outer) == memo_counts(modules.Expansions())

    @pytest.mark.parametrize("kind,builds", [
        (ModuleKind.GAMMA_CYC, {modules._enumerate, hit._basis_index, hit._block}),
        (G, {hit._offsets, hit._block})])
    def test_piece_memos_go_with_the_sweep(self, monkeypatch, kind, builds):
        # gamma-cyc rows read bases and column indices, gamma rows offsets;
        # the sweep's cells keep them, and the rows, in its own context.
        outer = modules.Expansions()
        monkeypatch.setattr(modules, "EXPANSIONS", outer)
        assert len(list(hit.sweep(kind, self.CELLS, 1))) == len(self.CELLS)
        assert outer.pieces == {}
        hit.unhit_report(Bidegree(4, 12), 1, kind)  # one of the cells, in the caller's context
        assert {key[0] for key in outer.pieces} == builds

    def test_report_sym_box_builds_only_the_blocks_it_reads(self, monkeypatch):
        # The benchmark's report-sym box: Sq^0 tails are never built, so its
        # sweep keeps 375 blocks of 12363 rows, where building them kept 455
        # blocks of 13562 rows.
        ctx = modules.Expansions()
        monkeypatch.setattr(modules, "Expansions", lambda: ctx)
        cells = [(s, d) for s in range(1, 7) for d in range(1, 25)]
        assert len(list(hit.sweep(ModuleKind.GAMMA_SYM, cells, 1))) == len(cells)
        rows = rows_of(ctx, ModuleKind.GAMMA_SYM)
        assert len(rows) == 375
        assert sum(map(len, rows.values())) == 12363
        assert not any(l == 0 for _, _, l in rows)

    def test_outer_context_current_after_an_early_stop(self, monkeypatch):
        outer = modules.Expansions()
        monkeypatch.setattr(modules, "EXPANSIONS", outer)
        reps = hit.sweep(G, [(2, 5), (3, 7), (4, 9)], 1)
        for rep in reps:
            break
        assert modules.EXPANSIONS is outer  # the sweep is suspended at its yield
        reps.close()
        assert modules.EXPANSIONS is outer

    def test_outer_context_current_after_a_failed_cell(self, monkeypatch):
        outer = modules.Expansions()
        monkeypatch.setattr(modules, "EXPANSIONS", outer)
        reps = hit.sweep(G, [(2, 5), (1, -1), (3, 7)], 1)
        assert next(reps).bidegree == Bidegree(2, 5)
        with pytest.raises(ValueError, match=r"^gamma bidegree \(s,d\)=\(1,-1\) out of range"):
            next(reps)
        assert modules.EXPANSIONS is outer


class TestFirstFactorStructure:
    def test_decompose_round_trip(self):
        x = gamma((1, 2, 1), (2, 1, 1), (1, 1, 2))
        parts = structure.decompose_first_factor(x)
        assert sorted(parts) == [1, 2]
        assert sum((modules.concat_product(gamma((i,)), part) for i, part in parts.items()),
                   Element.zero(G, 3, 4)) == x

    def test_compose_inverts_decompose(self):
        rng = random.Random(0)
        for _ in range(200):
            s = rng.randint(2, 5)
            b = Bidegree(s, rng.randint(s, s + 7))
            x = hit.vector_to_element(rng.getrandbits(len(basis(b, G))), b, G)
            assert structure.compose_first_factor(structure.decompose_first_factor(x), x.s, x.d) == x

    def test_decompose_rejects_arity_one(self):
        with pytest.raises(ValueError):
            structure.decompose_first_factor(gamma((3,)))

    def test_sq1_checker_accepts_kernel_element(self):
        assert structure.check_sq1_relations(gamma((1, 1))) == []

    def test_sq1_checker_flags_bad_even_part(self):
        violations = structure.check_sq1_relations(gamma((2, 1)))
        assert ("x_{2n} = x_{2n-1}Sq^1", 1) in violations

    def test_checkers_match_kernels_exhaustively(self):
        for s in (2, 3):
            for d in range(s, s + 7):
                b = Bidegree(s, d)
                monos = basis(b, G)
                for r in range(1, 1 << min(len(monos), 7)):
                    x = hit.vector_to_element(r, b, G)
                    assert (structure.check_sq1_relations(x) == []) == sq(x, 1).is_zero()
                    assert (structure.check_sq2_relations(x) == []) == sq(x, 2).is_zero()
                    joint = sq(x, 1).is_zero() and sq(x, 2).is_zero()
                    assert (structure.check_delta1_structure(x) == []) == joint

    def test_builder_minimal_case(self):
        out = structure.build_delta1_element(gamma((3,)), 4)
        assert out == gamma((1, 3))
        assert sq(out, 1).is_zero() and sq(out, 2).is_zero()

    def test_builder_rejects_bad_seed(self):
        with pytest.raises(ValueError):
            structure.build_delta1_element(gamma((4,)), 5)

    def test_builder_failed_solve_names_bidegree_and_stage(self, monkeypatch):
        # [3]Sq^3 = 0 still asks for a Sq^1 preimage at (1, 1).
        monkeypatch.setattr(f2linalg, "solve", lambda m, bits: None)
        message = "gamma (1,1), k=1, build_delta1_element Sq^1 preimage: no preimage"
        with pytest.raises(structure.InternalInconsistencyError, match=re.escape(message)):
            structure.build_delta1_element(gamma((3,)), 4)

    def test_builder_failed_check_raises(self, monkeypatch):
        # x_3 should solve x_3 Sq^1 = [6]Sq^3 = [3]; zero in its place
        # leaves the assembled element outside Delta(1).
        monkeypatch.setattr(f2linalg, "solve", lambda m, bits: 0)
        message = "gamma (2,7), k=1, build_delta1_element check: assembled element is not killed by Sq^1 and Sq^2"
        with pytest.raises(structure.InternalInconsistencyError, match=f"^{re.escape(message)}$"):
            structure.build_delta1_element(gamma((6,)), 7)


class TestImageMembership:
    def test_hit_element_has_verified_witness(self):
        # [1,3]+[3,1] lies in Delta(1) at (2,4); decide its Sq^3 status.
        x = gamma((1, 3), (3, 1))
        ok, witness = structure.i1_membership(x)
        if ok:
            assert sq(witness, 3) == x

    def test_agrees_with_direct_image_check(self):
        for d in range(2, 11):
            b = Bidegree(2, d)
            delta = hit.delta_basis(b, 1, G)
            im3 = f2linalg.image_basis(hit.sq_matrix(Bidegree(2, d + 3), 3, G))
            for r in delta.basis:
                x = hit.vector_to_element(r, b, G)
                ok, witness = structure.i1_membership(x)
                assert ok == f2linalg.contains(im3, r)
                if ok:
                    assert sq(witness, 3) == x

    def test_rejects_element_outside_delta(self):
        with pytest.raises(ValueError):
            structure.i1_membership(gamma((2, 1)))

    def test_failed_verification_raises(self, monkeypatch):
        # [1, 3] = ([2, 5] + [4, 3])Sq^3, with w = [5] solving w Sq^2 = x_1
        # = [3]; zero in place of w makes a witness that fails its check.
        monkeypatch.setattr(f2linalg, "solve", lambda m, bits: 0)
        message = "gamma (2,4), k=1, i1_membership check: constructed Sq^3 preimage failed verification"
        with pytest.raises(structure.InternalInconsistencyError, match=f"^{re.escape(message)}$"):
            structure.i1_membership(gamma((1, 3)))

    def test_zero_is_trivially_hit(self):
        ok, witness = structure.i1_membership(Element.zero(G, 2, 5))
        assert ok and witness.is_zero()


class TestCounterexample:
    def test_suite_passes(self):
        assert suites.run("counterexample") == suites.SuiteResult("counterexample", 5, 0)
        rep = hit.unhit_report(Bidegree(5, 9), 1, G)
        assert (rep.dim_delta, rep.dim_image, rep.dim_unhit) == (32, 31, 1)

    def test_w_properties(self):
        w = structure.sq2_kernel_witness()
        assert (w.s, w.d) == (4, 8) and len(w.support) == 7
        assert sq(w, 2).is_zero()
        im2 = f2linalg.image_basis(hit.sq_matrix(Bidegree(4, 10), 2, G))
        assert not f2linalg.contains(im2, hit.element_to_vector(w, Bidegree(4, 8), G))

    def test_z_properties(self):
        z = structure.unhit_witness_5_9()
        assert (z.s, z.d) == (5, 9) and len(z.support) == 25
        assert sq(z, 1).is_zero() and sq(z, 2).is_zero()
        ok, witness = structure.i1_membership(z)
        assert not ok and witness is None

    def test_mutated_witness_leaves_delta(self):
        z = structure.unhit_witness_5_9() + gamma((1, 1, 1, 1, 5))
        assert not (sq(z, 1).is_zero() and sq(z, 2).is_zero())

    def test_built_class_is_the_unhit_class(self):
        # Built from x_1 = w, the element lies in Delta(1) but not in I(1).
        # It differs from z in four terms of x_3, and that difference lies
        # in I(1): both stand for the one class of U(1) at (5,9).
        x = structure.build_delta1_element(structure.sq2_kernel_witness(), 9)
        assert sq(x, 1).is_zero() and sq(x, 2).is_zero()
        assert structure.i1_membership(x) == (False, None)
        diff = x + structure.unhit_witness_5_9()
        assert {t[0] for t in diff.support} == {3} and len(diff.support) == 4
        rep = hit.unhit_report(Bidegree(5, 9), 1, G)
        assert f2linalg.contains(rep.image, hit.element_to_vector(diff, Bidegree(5, 9), G))

    def test_z_relates_to_w_by_first_factor(self):
        # The degree-1 first-factor part of z is exactly w.
        parts = structure.decompose_first_factor(structure.unhit_witness_5_9())
        assert parts[1] == structure.sq2_kernel_witness()
