import random

import pytest

from sqhit import f2linalg, hit
from sqhit.f2linalg import BitVector
from sqhit.homotopy import (
    AnnihilationError,
    HomotopySystem,
    NullMembershipError,
    PreconditionError,
    in_null,
    preimage_chain,
    shift,
    verify_commutation,
    verify_homotopy,
)
from sqhit.modules import Bidegree, Element, ModuleKind, basis, project_to_orbit, sq

G = ModuleKind.GAMMA


def mono(*entries, kind=G):
    return Element.single(kind, entries)


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
        assert sq(chain[0], 1).same(mono(3))

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
            x = hit.vector_to_element(BitVector(len(monos), r), b, G)
            chain = preimage_chain(x, h)
            assert sq(chain[1], 3).same(x)
            assert in_null(chain[1], h)
