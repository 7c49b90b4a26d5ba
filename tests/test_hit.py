import pytest

import oracles
from oracles import naive_sq
from sqhit import f2linalg, hit
from sqhit.f2linalg import BitMatrix, BitVector
from sqhit.modules import Bidegree, Element, ModuleKind, basis, sq

G = ModuleKind.GAMMA


def gamma(*tuples):
    return Element.from_monomials(G, len(tuples[0]), sum(tuples[0]), tuples)


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
        assert m == BitMatrix.identity(len(basis(b, G)))

    def test_rows_match_action(self):
        b = Bidegree(3, 7)
        m = hit.sq_matrix(b, 2, G)
        for j, mono in enumerate(basis(b, G)):
            img = sq(Element.single(G, mono), 2)
            v = hit.element_to_vector(img, Bidegree(3, 5), G)
            assert m.data[j] == v.bits

    def test_dimensions_used_by_counterexample(self):
        m2 = hit.sq_matrix(Bidegree(4, 10), 2, G)
        m3 = hit.sq_matrix(Bidegree(5, 12), 3, G)
        assert (m2.rows, m2.cols) == (84, 35)
        assert (m3.rows, m3.cols) == (330, 70)

    def test_windowed_hand_case(self):
        m = hit.windowed_sq_matrix(1, 0, 1, -1, 1)
        # degree -1 with one slot leaves the single codomain monomial (-1,).
        assert (m.rows, m.cols) == (1, 1)
        assert m.data == (1,)
        x = Element.single(ModuleKind.NABLA, (0,))
        assert sq(x, 1).sorted_support()[0] == (-1,)

    def test_windowed_matches_naive(self):
        sm = hit.windowed_sq_matrix(2, 1, 2, -2, 3)
        from sqhit.modules import windowed_basis
        dom = windowed_basis(2, 1, -2, 3)
        cod = windowed_basis(2, -1, -4, 3)
        index = {m: j for j, m in enumerate(cod)}
        for j, mono in enumerate(dom):
            img = naive_sq(Element.single(ModuleKind.NABLA, mono), 2)
            bits = 0
            for n in img.support:
                bits |= 1 << index[n]
            assert sm.data[j] == bits


class TestVectorConversion:
    def test_round_trip(self):
        b = Bidegree(2, 4)
        x = gamma((1, 3), (3, 1))
        v = hit.element_to_vector(x, b, G)
        assert hit.vector_to_element(v, b, G).same(x)

    def test_zero(self):
        b = Bidegree(2, 4)
        v = hit.element_to_vector(Element.zero(G, 2, 4), b, G)
        assert v.is_zero()


class TestDeltaAndImage:
    def test_delta0_odd_generator(self):
        d = hit.delta_basis(Bidegree(1, 3), 0, G)
        assert d.dim == 1 and d.basis == (1,)

    def test_delta0_even_generator_empty(self):
        assert hit.delta_basis(Bidegree(1, 4), 0, G).dim == 0

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
            x = hit.vector_to_element(BitVector(d.ambient_dim, r), b, G)
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
        rep = hit.unhit_report(Bidegree(5, 9), 1, G, witnesses=True)
        assert rep.dim_unhit == 1
        assert len(rep.witnesses["unhit_coset"]) >= 1
        for x in rep.witnesses["unhit_coset"]:
            assert sq(x, 1).is_zero() and sq(x, 2).is_zero()

    @pytest.mark.parametrize("s,d,k", [(5, 9, 1), (4, 18, 2)])
    def test_bases_match_oracle_path(self, s, d, k):
        # Rows through element-level sq, elimination through the reference loops.
        def rows(src, l):
            target = Bidegree(src.s, src.d - l)
            return [hit.element_to_vector(sq(Element.single(G, m), l), target, G).bits
                    for m in basis(src, G)]

        b = Bidegree(s, d)
        blocks = [rows(b, 1 << i) for i in range(k + 1)]
        stacked, offset = [0] * len(basis(b, G)), 0
        for i, blk in enumerate(blocks):
            stacked = [r | (x << offset) for r, x in zip(stacked, blk)]
            offset += len(basis(Bidegree(s, d - (1 << i)), G))
        assert hit.delta_basis(b, k, G).basis == oracles.kernel_rows(stacked)

        image = None
        for i in range(k + 1):
            l = (1 << (i + 1)) - 1
            im = oracles.rref_rows(rows(Bidegree(s, d + l), l))
            image = im if image is None else oracles.intersect_rows(image, im, len(basis(b, G)))
        assert hit.spike_image_basis(b, k, G).basis == image

    def test_explorer_single_generator_column(self):
        rows = hit.ker_vs_im_explorer(1, [1], range(1, 17), G)
        for row in rows:
            assert row["dim_ker"] == row["dim_im"] == row["dim_intersection"]
            assert row["ker_not_im"] == []


class TestFirstFactorStructure:
    def test_decompose_round_trip(self):
        x = gamma((1, 2, 1), (2, 1, 1), (1, 1, 2))
        dec = hit.decompose_first_factor(x)
        assert sorted(dec.terms) == [1, 2]
        assert hit.recompose_first_factor(dec).same(x)

    def test_decompose_rejects_arity_one(self):
        with pytest.raises(ValueError):
            hit.decompose_first_factor(gamma((3,)))

    def test_sq1_checker_accepts_kernel_element(self):
        assert hit.check_sq1_relations(gamma((1, 1))) == []

    def test_sq1_checker_flags_bad_even_part(self):
        violations = hit.check_sq1_relations(gamma((2, 1)))
        assert ("x_{2n} = x_{2n-1}Sq^1", 1) in violations

    def test_checkers_match_kernels_exhaustively(self):
        for s in (2, 3):
            for d in range(s, s + 7):
                b = Bidegree(s, d)
                monos = basis(b, G)
                mat1 = hit.sq_matrix(b, 1, G)
                mat2 = hit.sq_matrix(b, 2, G)
                for r in range(1, 1 << min(len(monos), 7)):
                    x = hit.vector_to_element(BitVector(len(monos), r), b, G)
                    assert (hit.check_sq1_relations(x) == []) == sq(x, 1).is_zero()
                    assert (hit.check_sq2_relations(x) == []) == sq(x, 2).is_zero()
                    joint = sq(x, 1).is_zero() and sq(x, 2).is_zero()
                    assert (hit.check_delta1_structure(x) == []) == joint

    def test_builder_minimal_case(self):
        out = hit.build_delta1_element(gamma((3,)), 4)
        assert out.same(gamma((1, 3)))
        assert sq(out, 1).is_zero() and sq(out, 2).is_zero()

    def test_builder_rejects_bad_seed(self):
        with pytest.raises(ValueError):
            hit.build_delta1_element(gamma((4,)), 5)

    def test_builder_choice_index_validated(self):
        with pytest.raises(ValueError):
            hit.build_delta1_element(gamma((3,)), 4, choices={2: gamma((1,))})

    def test_builder_choices_preserve_membership(self):
        # Degree-1 choice at index 3 must be killed by Sq^1; [1] qualifies.
        out = hit.build_delta1_element(gamma((3,)), 4, choices={3: gamma((1,))})
        assert sq(out, 1).is_zero() and sq(out, 2).is_zero()
        assert out.same(gamma((1, 3)) + gamma((3, 1)))


class TestImageMembership:
    def test_hit_element_has_verified_witness(self):
        # [1,3]+[3,1] lies in Delta(1) at (2,4); decide its Sq^3 status.
        x = gamma((1, 3), (3, 1))
        ok, witness = hit.i1_membership(x)
        if ok:
            assert sq(witness, 3).same(x)

    def test_agrees_with_direct_image_check(self):
        for d in range(2, 11):
            b = Bidegree(2, d)
            delta = hit.delta_basis(b, 1, G)
            im3 = f2linalg.image_basis(hit.sq_matrix(Bidegree(2, d + 3), 3, G))
            for r in delta.basis:
                x = hit.vector_to_element(BitVector(delta.ambient_dim, r), b, G)
                ok, witness = hit.i1_membership(x)
                assert ok == f2linalg.contains(im3, BitVector(delta.ambient_dim, r))
                if ok:
                    assert sq(witness, 3).same(x)

    def test_rejects_element_outside_delta(self):
        with pytest.raises(ValueError):
            hit.i1_membership(gamma((2, 1)))

    def test_zero_is_trivially_hit(self):
        ok, witness = hit.i1_membership(Element.zero(G, 2, 5))
        assert ok and witness.is_zero()


class TestCounterexample:
    def test_suite_passes(self):
        result = hit.counterexample_suite()
        assert result["dim_delta_5_9"] == 32
        assert result["dim_image_5_9"] == 31
        assert result["dim_unhit_5_9"] == 1

    def test_w_properties(self):
        w = hit.sq2_kernel_witness()
        assert (w.s, w.d) == (4, 8) and len(w.support) == 7
        assert sq(w, 2).is_zero()
        im2 = f2linalg.image_basis(hit.sq_matrix(Bidegree(4, 10), 2, G))
        assert not f2linalg.contains(im2, hit.element_to_vector(w, Bidegree(4, 8), G))

    def test_z_properties(self):
        z = hit.unhit_witness_5_9()
        assert (z.s, z.d) == (5, 9) and len(z.support) == 25
        assert sq(z, 1).is_zero() and sq(z, 2).is_zero()
        ok, witness = hit.i1_membership(z)
        assert not ok and witness is None

    def test_mutated_witness_leaves_delta(self):
        z = hit.unhit_witness_5_9() + gamma((1, 1, 1, 1, 5))
        assert not (sq(z, 1).is_zero() and sq(z, 2).is_zero())

    def test_z_relates_to_w_by_first_factor(self):
        # The degree-1 first-factor part of z is exactly w.
        dec = hit.decompose_first_factor(hit.unhit_witness_5_9())
        assert dec.terms[1].same(hit.sq2_kernel_witness())
