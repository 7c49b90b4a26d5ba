"""Per-bidegree kernel/image computations: the query path of every command.

The central objects are, for a module kind M and order k:

* delta(k)  -- the intersection of the kernels of Sq^1, Sq^2, ..., Sq^(2^k),
* image(k)  -- the intersection of the images of Sq^1, Sq^3, ..., Sq^(2^(k+1)-1),
* unhit(k)  -- their quotient, reported per bidegree with a degeneracy flag.

The first-factor structure theory built on these lives in ``structure``.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

from . import f2linalg
from .f2linalg import BitMatrix, Subspace
from .modules import (
    Bidegree,
    Element,
    InternalInconsistencyError,
    ModuleKind,
    _SQ_EXPANSION,
    basis,
    basis_size,
    binom_mod2,
)


class DeltaReport(NamedTuple):
    kind: ModuleKind
    bidegree: Bidegree
    k: int
    dim_delta: int
    dim_image: int
    dim_unhit: int
    degenerate: bool
    witnesses: Optional[dict] = None


# --- matrices ---------------------------------------------------------------

def element_to_vector(x: Element, b: Bidegree, kind: ModuleKind) -> int:
    """x as a packed vector over the basis of (s,d): bit j is basis monomial j."""
    index = _basis_index(b, kind)
    bits = 0
    for t in x.support:
        bits |= 1 << index[t]
    return bits


def vector_to_element(bits: int, b: Bidegree, kind: ModuleKind) -> Element:
    """The element whose support is the basis monomials j with bit j set."""
    monos = basis(b, kind)
    support = frozenset(monos[j] for j in range(bits.bit_length()) if bits >> j & 1)
    return Element._make((kind, b.s, b.d, support))


def subspace_elements(sub: Subspace, b: Bidegree, kind: ModuleKind,
                      outside: Optional[Subspace] = None) -> List[Element]:
    """The RREF basis rows of sub as elements of (s,d); with outside given,
    only the rows that do not lie in it."""
    return [vector_to_element(r, b, kind)
            for r in sub.basis if outside is None or outside.reduce(r) != 0]


@lru_cache(maxsize=None)
def _basis_index(b: Bidegree, kind: ModuleKind) -> Dict[Tuple[int, ...], int]:
    return {t: j for j, t in enumerate(basis(b, kind))}


# Gamma action rows keyed (s, d, l): row u is (basis monomial u of (s, d))Sq^l
# packed over the basis of (s, d - l).  Filled on demand, lowest arity
# first, and shared by every matrix whose first-entry blocks need them.
_GAMMA_ROWS: Dict[Tuple[int, int, int], Tuple[int, ...]] = {}


def _splits(s: int, d: int, l: int):
    """The (a, i) whose tail rows the block of first entry a in Sq^l on gamma
    (s, d) reads: C(a-i, i) odd, and a - i <= top keeps the tail's codomain
    (s-1, d-a-(l-i)) nonempty."""
    top = d - l - s + 1  # the largest first entry in the codomain
    for a in range(1, d - s + 2):
        for i in range(max(0, a - top), min(l, a - 1) + 1):
            if (a - i) & i == i:
                yield a, i


def _gamma_block(s: int, d: int, l: int) -> Tuple[int, ...]:
    """Rows of Sq^l on gamma (s, d), s >= 1, d - l >= s, from the cached
    arity-(s-1) rows.

    The basis is in ascending lex order, so the monomials (a | m) with first
    entry a form one block laid out like the basis of (s-1, d-a).  By the
    Cartan formula the row of (a | m) is the OR, over the i with C(a-i, i)
    odd, of the row of m under Sq^(l-i) shifted to the columns of first
    entry a-i; distinct i give disjoint columns, so nothing cancels.
    """
    if s == 1:
        return (binom_mod2(d - l, l),)
    offset = [0, 0]  # offset[a]: the codomain columns before first entry a
    for a in range(1, d - l - s + 1):
        offset.append(offset[a] + math.comb(d - l - a - 1, s - 2))
    blocks: Dict[int, List[int]] = {}
    for a, i in _splits(s, d, l):
        tail, shift = _GAMMA_ROWS[s - 1, d - a, l - i], offset[a - i]
        acc = blocks.get(a)
        if acc is None:
            blocks[a] = [r << shift for r in tail]
        else:
            blocks[a] = [x | (r << shift) for x, r in zip(acc, tail)]
    rows: List[int] = []
    for a in range(1, d - s + 2):
        rows.extend(blocks[a] if a in blocks else [0] * math.comb(d - a - 1, s - 2))
    return tuple(rows)


def _gamma_rows(s: int, d: int, l: int) -> Tuple[int, ...]:
    """Rows of Sq^l on gamma (s, d), s >= 1, d - l >= s.  The keys it needs
    and lacks are walked down arity by arity, then built lowest arity
    first, in loops, so no call goes deeper than one arity and no block is
    built that no first entry reads."""
    levels = [{(s, d, l)} - _GAMMA_ROWS.keys()]
    for t in range(s, 1, -1):
        levels.append({(t - 1, e - a, j - i) for _, e, j in levels[-1]
                       for a, i in _splits(t, e, j)} - _GAMMA_ROWS.keys())
    for level in reversed(levels):
        for key in level:
            _GAMMA_ROWS[key] = _gamma_block(*key)
    return _GAMMA_ROWS[s, d, l]


@lru_cache(maxsize=None)
def sq_matrix(b: Bidegree, l: int, kind: ModuleKind) -> BitMatrix:
    """Matrix of the right action of Sq^l from (s,d) to (s,d-l).

    Row u is the coordinate vector of (basis monomial u)Sq^l in the
    lexicographic basis of the target piece.  Gamma rows come from
    first-entry blocks (``_gamma_rows``) and need no basis; orbit rows come
    from the kind's expansion (``modules._SQ_EXPANSION``) of each basis
    monomial, which for gamma-sym splits off the largest part of the
    partition.
    """
    n = basis_size(b, kind)
    if l < 0:
        raise ValueError("negative square index")
    target = Bidegree(b.s, b.d - l)
    cols = basis_size(target, kind) if target.d >= 0 else 0
    if kind is ModuleKind.GAMMA:
        if cols == 0 or b.s == 0:
            # No codomain gives zero rows.  At arity 0 a nonempty codomain
            # means (0, 0) Sq^0, the identity on the one monomial ().
            return BitMatrix(n, cols, (int(cols > 0),) * n)
        return BitMatrix(n, cols, _gamma_rows(b.s, b.d, l))
    index = _basis_index(target, kind) if cols else {}
    expand = _SQ_EXPANSION[kind]
    rows = []
    for m in basis(b, kind):
        bits = 0
        for t in expand(m, l):
            bits |= 1 << index[t]
        rows.append(bits)
    return BitMatrix(n, cols, tuple(rows))


# --- kernel / image / quotient ---------------------------------------------

def sq_stack(b: Bidegree, squares: Iterable[int], kind: ModuleKind) -> BitMatrix:
    """The matrices of the given squares out of (s,d), side by side in that
    order: row u is (basis monomial u)[Sq^l1 | Sq^l2 | ...]."""
    n = basis_size(b, kind)
    blocks = [sq_matrix(b, l, kind) for l in squares]
    rows = []
    for u in range(n):
        combined, offset = 0, 0
        for blk in blocks:
            combined |= blk.data[u] << offset
            offset += blk.cols
        rows.append(combined)
    return BitMatrix(n, sum(blk.cols for blk in blocks), tuple(rows))


def delta_basis(b: Bidegree, k: int, kind: ModuleKind) -> Subspace:
    """Intersection of the kernels of Sq^(2^i), i <= k, as a subspace of the
    coordinates over the basis of (s,d)."""
    if k < 0:
        raise ValueError("order must be >= 0")
    return f2linalg.kernel_basis(sq_stack(b, [1 << i for i in range(k + 1)], kind))


def spike_image_basis(b: Bidegree, k: int, kind: ModuleKind) -> Subspace:
    """Intersection of the images of Sq^(2^(i+1)-1), i <= k, landing in (s,d)."""
    if k < 0:
        raise ValueError("order must be >= 0")
    n = basis_size(b, kind)
    result = None
    for i in range(k + 1):
        l = (1 << (i + 1)) - 1
        src = Bidegree(b.s, b.d + l)
        im = f2linalg.image_basis(sq_matrix(src, l, kind))
        result = im if result is None else f2linalg.intersect(result, im)
    assert result is not None and result.ambient_dim == n
    return result


def unhit_report(b: Bidegree, k: int, kind: ModuleKind, witnesses: bool = False) -> DeltaReport:
    delta = delta_basis(b, k, kind)
    image = spike_image_basis(b, k, kind)
    if not f2linalg.contains_subspace(delta, image):
        raise InternalInconsistencyError(f"{kind.value} ({b.s},{b.d}), k={k}, unhit containment check:"
                                         " image not contained in kernel")
    report_witnesses = None
    if witnesses:
        report_witnesses = {
            "delta": subspace_elements(delta, b, kind),
            "image": subspace_elements(image, b, kind),
            "unhit_coset": subspace_elements(delta, b, kind, outside=image),
        }
    return DeltaReport(
        kind=kind,
        bidegree=b,
        k=k,
        dim_delta=delta.dim,
        dim_image=image.dim,
        dim_unhit=delta.dim - image.dim,
        degenerate=b.d < (1 << (k + 1)),
        witnesses=report_witnesses,
    )
