import copy
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from sqhit import f2linalg, hit
from sqhit.f2linalg import BitMatrix
from sqhit.modules import Bidegree, ModuleKind


def identity(n):
    return BitMatrix(n, n, tuple(1 << i for i in range(n)))


def full_space(n):
    return f2linalg.subspace_from_rows(n, [1 << i for i in range(n)])


def span(sub):
    """Every member of sub, as packed ints (small subspaces only)."""
    members = {0}
    for r in sub.basis:
        members |= {v ^ r for v in members}
    return members


def test_public_names():
    public = {name for name, obj in vars(f2linalg).items()
              if not name.startswith("_") and getattr(obj, "__module__", None) == f2linalg.__name__}
    assert public == {"BitMatrix", "Subspace", "subspace_from_rows", "image_basis", "kernel_basis",
                      "intersect", "contains", "contains_subspace", "complement", "solve"}


def test_subspace_repr_and_foreign_equality():
    sub = f2linalg.subspace_from_rows(3, [0b110, 0b011])
    assert repr(sub) == "Subspace(ambient_dim=3, pivots={1: 6, 0: 3})"
    assert (sub == 3) is False and sub != 3


@pytest.mark.parametrize("build", [
    lambda: f2linalg.subspace_from_rows(5, [0b10110, 0b00011]),
    lambda: hit.unhit_report(Bidegree(5, 9), 1, ModuleKind.GAMMA),
], ids=["subspace", "unhit_report"])
def test_subspace_copies_and_pickles(build):
    # Before, each copy raised AttributeError: cannot assign to field 'ambient_dim'.
    value = build()
    for copied in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(copied) is type(value) and copied == value


def test_complement_hand_case():
    # Outer: all of F_2^3; inner: the span of 0b011.  Clearing bit 0 leaves
    # 0b010 and 0b100.
    inner = f2linalg.subspace_from_rows(3, [0b011])
    assert f2linalg.complement(full_space(3), inner).basis == (0b010, 0b100)
    assert f2linalg.complement(inner, inner).dim == 0
    with pytest.raises(ValueError, match="ambient dimension mismatch"):
        f2linalg.complement(full_space(2), inner)


def test_rref_identity_fixed():
    assert f2linalg.image_basis(identity(3)).basis == identity(3).data


def test_rref_prunes_zero_rows():
    assert f2linalg.image_basis(BitMatrix(2, 2, (0b11, 0))).basis == (0b11,)


def test_rref_hand_elimination():
    assert f2linalg.image_basis(BitMatrix(2, 2, (0b11, 0b01))).basis == (0b01, 0b10)


def test_kernel_zero_map_is_full():
    k = f2linalg.kernel_basis(BitMatrix(2, 2, (0, 0)))
    assert k.dim == 2


def test_kernel_hand_case():
    # Two domain vectors both mapping to (1): kernel is their sum.
    k = f2linalg.kernel_basis(BitMatrix(2, 1, (1, 1)))
    assert k.basis == (0b11,)


def test_kernel_of_identity_is_zero():
    assert f2linalg.kernel_basis(identity(4)).dim == 0


def test_image_identity_full():
    assert f2linalg.image_basis(identity(2)).dim == 2


def test_image_zero_matrix():
    assert f2linalg.image_basis(BitMatrix(3, 2, (0, 0, 0))).dim == 0


def test_image_repeated_rows():
    im = f2linalg.image_basis(BitMatrix(2, 2, (0b11, 0b11)))
    assert im.basis == (0b11,)


def test_intersect_with_full_space():
    other = f2linalg.subspace_from_rows(2, [0b11])
    assert f2linalg.intersect(full_space(2), other).basis == other.basis


def test_intersect_transverse_lines():
    a = f2linalg.subspace_from_rows(2, [0b01])
    b = f2linalg.subspace_from_rows(2, [0b10])
    assert f2linalg.intersect(a, b).dim == 0


def test_intersect_plane_with_line():
    a = f2linalg.subspace_from_rows(2, [0b01, 0b10])
    b = f2linalg.subspace_from_rows(2, [0b11])
    assert f2linalg.intersect(a, b).basis == (0b11,)


def test_intersect_dimension_mismatch():
    with pytest.raises(ValueError):
        f2linalg.intersect(full_space(2), full_space(3))


def test_contains_zero_and_members():
    s = f2linalg.subspace_from_rows(2, [0b11])
    assert f2linalg.contains(s, 0)
    assert f2linalg.contains(s, 0b11)
    assert not f2linalg.contains(s, 0b01)


def test_contains_length_mismatch():
    # Bits at or beyond the ambient dimension, or a negative int, raise.
    for bits in (0b100, -1):
        with pytest.raises(ValueError):
            f2linalg.contains(full_space(2), bits)


def test_subspace_from_rows_refuses_rows_outside_the_space():
    # A row with a bit at or beyond the ambient dimension, or a negative
    # int, is not a vector of F_2^3; one such row among good ones is enough.
    for rows in ([8, 1], [1, 0b1000], [-1], [0b111, -2]):
        with pytest.raises(ValueError):
            f2linalg.subspace_from_rows(3, rows)
    assert f2linalg.subspace_from_rows(3, iter([0b111, 0b100])).basis == (0b011, 0b100)


def test_contains_subspace_dimension_mismatch():
    # The same pair intersect refuses: a line of F_2^3 is not in F_2^2.
    for outer, inner in [(2, 3), (3, 2)]:
        with pytest.raises(ValueError, match="ambient dimension mismatch"):
            f2linalg.contains_subspace(f2linalg.subspace_from_rows(outer, [1]),
                                       f2linalg.subspace_from_rows(inner, [1]))


def test_solve_bits_outside_columns_raise():
    for bits in (0b1000, -1):
        with pytest.raises(ValueError):
            f2linalg.solve(identity(3), bits)


def test_solve_identity():
    assert f2linalg.solve(identity(3), 0b101) == 0b101


def test_solve_zero_matrix_no_solution():
    assert f2linalg.solve(BitMatrix(2, 2, (0, 0)), 0b1) is None


def test_solve_single_row():
    m = BitMatrix(1, 2, (0b11,))
    v = f2linalg.solve(m, 0b11)
    assert v == 0b1
    assert oracles.apply(m, v) == 0b11


matrices = st.integers(1, 6).flatmap(
    lambda r: st.integers(1, 6).flatmap(
        lambda c: st.lists(st.integers(0, (1 << c) - 1), min_size=r, max_size=r).map(
            lambda rows: BitMatrix(r, c, tuple(rows)))))


@given(matrices)
def test_rank_nullity(m):
    assert f2linalg.image_basis(m).dim + f2linalg.kernel_basis(m).dim == m.rows


@given(matrices)
def test_kernel_rows_annihilate(m):
    for r in f2linalg.kernel_basis(m).basis:
        assert oracles.apply(m, r) == 0


@given(matrices)
def test_rref_idempotent(m):
    once = f2linalg.image_basis(m)
    assert f2linalg.subspace_from_rows(m.cols, once.basis) == once


@given(matrices, matrices)
def test_intersect_contained_and_commutative(a, b):
    sa = f2linalg.image_basis(a)
    n = a.cols
    sb = f2linalg.subspace_from_rows(n, [r & ((1 << n) - 1) for r in b.data])
    inter = f2linalg.intersect(sa, sb)
    assert f2linalg.contains_subspace(sa, inter)
    assert f2linalg.contains_subspace(sb, inter)
    swapped = f2linalg.intersect(sb, sa)
    assert inter.basis == swapped.basis
    assert f2linalg.intersect(sa, sa).basis == sa.basis


@given(matrices, st.integers(0, 63))
def test_solve_is_exact_when_present(m, vbits):
    v = vbits & ((1 << m.rows) - 1)
    b = oracles.apply(m, v)
    got = f2linalg.solve(m, b)
    assert got is not None
    assert oracles.apply(m, got) == b


@given(matrices)
def test_intersect_exhaustive_small(m):
    # Brute-force oracle: membership in both subspaces, vector by vector.
    sa = f2linalg.image_basis(m)
    sb = f2linalg.subspace_from_rows(m.cols, list(m.data)[: max(1, m.rows // 2)])
    inter = f2linalg.intersect(sa, sb)
    assert span(inter) == span(sa) & span(sb)


# --- Differential tests against the reference elimination in oracles.py -------

sparse_matrices = st.integers(1, 48).flatmap(
    lambda r: st.integers(1, 48).flatmap(
        lambda c: st.lists(
            st.sets(st.integers(0, c - 1), min_size=1, max_size=min(4, c)).map(
                lambda cols: sum(1 << j for j in cols)),
            min_size=r, max_size=r).map(
            lambda rows: BitMatrix(r, c, tuple(rows)))))

any_matrices = st.one_of(matrices, sparse_matrices)


@given(any_matrices)
def test_rref_and_image_match_oracle(m):
    expected = oracles.rref_rows(m.data)
    image = f2linalg.image_basis(m)
    assert image.basis == expected
    assert image.dim == len(expected)


@given(any_matrices)
def test_kernel_matches_oracle(m):
    assert f2linalg.kernel_basis(m).basis == oracles.kernel_rows(m.data)


@given(any_matrices, any_matrices)
def test_intersect_matches_oracle(a, b):
    n = a.cols
    sa = f2linalg.image_basis(a)
    sb = f2linalg.subspace_from_rows(n, [r & ((1 << n) - 1) for r in b.data])
    expected = oracles.intersect_rows(sa.basis, sb.basis, n)
    assert f2linalg.intersect(sa, sb).basis == expected


@given(any_matrices, any_matrices)
def test_complement_matches_oracle(a, b):
    # inner is the part of b's row space inside a's: the outer space.
    n = a.cols
    outer = f2linalg.image_basis(a)
    inner = f2linalg.intersect(outer, f2linalg.subspace_from_rows(n, [r & ((1 << n) - 1) for r in b.data]))
    outer_rows = oracles.rref_rows(a.data)
    inner_rows = oracles.intersect_rows(outer_rows, oracles.rref_rows([r & ((1 << n) - 1) for r in b.data]), n)
    comp = f2linalg.complement(outer, inner)
    assert comp.basis == oracles.rref_rows([oracles.reduce_rows(inner_rows, r) for r in outer_rows])
    assert comp.dim == outer.dim - inner.dim
    assert f2linalg.contains_subspace(outer, comp) and f2linalg.intersect(comp, inner).dim == 0
    assert not any(r >> p & 1 for r in comp.basis for p in inner.pivots)


@given(any_matrices, st.integers(0, (1 << 48) - 1), st.booleans())
def test_solve_matches_oracle(m, bits, reachable):
    if reachable:
        target = oracles.apply(m, bits & ((1 << m.rows) - 1))
    else:
        target = bits & ((1 << m.cols) - 1)
    got = f2linalg.solve(m, target)
    expected = oracles.solve_rows(m.data, target)
    assert (got is None) == (expected is None)
    if got is not None:
        assert got == expected
        assert oracles.apply(m, got) == target


@given(any_matrices, st.integers(0, (1 << 48) - 1), st.booleans())
def test_subspace_reduce_matches_oracle(m, bits, in_span):
    # Only whether the remainder is zero is canonical, not its value.
    sub = f2linalg.image_basis(m)
    if in_span:
        bits = oracles.apply(m, bits & ((1 << m.rows) - 1))
    else:
        bits &= (1 << m.cols) - 1
    contained = sub.reduce(bits) == 0
    assert contained == (oracles.reduce_rows(sub.basis, bits) == 0)
    assert contained or not in_span
