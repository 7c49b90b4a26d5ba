"""Per-bidegree kernel/image computations: the query path of every command.

The central objects are, for a module kind M and order k:

* delta(k)  -- the intersection of the kernels of Sq^1, Sq^2, ..., Sq^(2^k),
* image(k)  -- the intersection of the images of Sq^1, Sq^3, ..., Sq^(2^(k+1)-1),
* unhit(k)  -- their quotient, reported per bidegree with a degeneracy flag.

The first-factor structure theory built on these lives in ``structure``.
"""

from __future__ import annotations

import math
from functools import reduce
from itertools import accumulate, chain, compress
from typing import Dict, Iterable, Iterator, List, NamedTuple, Tuple

from . import f2linalg, modules
from .f2linalg import BitMatrix, Subspace
from .modules import (
    Bidegree,
    Element,
    InternalInconsistencyError,
    ModuleKind,
    _check_kind,
    _check_max_arity,
    _frozen,
    _sym_count,
    basis,
    basis_size,
    binom_mod2,
)


class DeltaReport(NamedTuple):
    """delta(k) and image(k) at a bidegree, as ``unhit_report`` computed
    them; the dimensions, the flag and the quotient are read off the two."""

    kind: ModuleKind
    bidegree: Bidegree
    k: int
    delta: Subspace
    image: Subspace

    @property
    def dim_delta(self) -> int:
        return self.delta.dim

    @property
    def dim_image(self) -> int:
        return self.image.dim

    @property
    def dim_unhit(self) -> int:
        return self.delta.dim - self.image.dim

    @property
    def degenerate(self) -> bool:
        return self.bidegree.d < (1 << (self.k + 1))

    @property
    def unhit(self) -> Subspace:
        """The canonical basis of unhit(k): ``f2linalg.complement(delta,
        image)``, built anew on each read."""
        return f2linalg.complement(self.delta, self.image)


# --- matrices ---------------------------------------------------------------

def element_to_vector(x: Element, b: Bidegree, kind: ModuleKind) -> int:
    """x as a packed vector over the basis of (s,d): bit j is basis monomial j.
    ValueError if kind is not a ``ModuleKind`` or x is not of that kind and
    bidegree."""
    _check_kind(kind)
    if x.kind is not kind or (x.s, x.d) != b:
        raise ValueError(f"element of {x.kind.value} ({x.s},{x.d}) is not in {kind.value} ({b.s},{b.d})")
    index = modules.EXPANSIONS.piece(_basis_index, kind, b.s, b.d)
    bits = 0
    for t in x.support:
        bits |= 1 << index[t]
    return bits


def vector_to_element(bits: int, b: Bidegree, kind: ModuleKind) -> Element:
    """The element whose support is the basis monomials j with bit j set.
    ValueError for a bit at or beyond the size of that basis."""
    monos = basis(b, kind)
    if bits < 0 or bits >> len(monos):
        raise ValueError(f"bits set outside the {len(monos)} basis monomials of {kind.value} ({b.s},{b.d})")
    # One pass over the binary digits, lowest bit first, as bytes with 0 for
    # a clear bit, so compress tests them in C; a shift per bit would cost
    # O(n) each.
    support = _frozen(compress(monos, bin(bits)[:1:-1].replace("0", "\0").encode()))
    return Element._make((kind, b.s, b.d, support))


def subspace_elements(sub: Subspace, b: Bidegree, kind: ModuleKind) -> List[Element]:
    """The RREF basis rows of sub as elements of (s,d)."""
    return [vector_to_element(r, b, kind) for r in sub.basis]


def _basis_index(kind: ModuleKind, s: int, d: int) -> Dict[Tuple[int, ...], int]:
    return {t: j for j, t in enumerate(basis(Bidegree(s, d), kind))}


_SYM, _CYC = ModuleKind.GAMMA_SYM, ModuleKind.GAMMA_CYC


def _first_entries(kind: ModuleKind, s: int, d: int) -> range:
    """The first entries of the basis of (s, d), s >= 1, ascending: any a
    for gamma; the largest part of a gamma-sym partition, from ceil(d/s)."""
    return range(-(-d // s) if kind is _SYM else 1, d - s + 2)


def _offsets(kind: ModuleKind, s: int, d: int) -> Tuple[int, ...]:
    """Entry c: the basis monomials of (s, d), s >= 2, with first entry
    below c, for c up to one past the last first entry.  The block of first
    entry a holds the (a | m) with m in the basis of (s-1, d-a): all
    C(d-a-1, s-2) of them for gamma, and for gamma-sym those with no part
    above a."""
    firsts = _first_entries(kind, s, d)
    if kind is _SYM:
        sizes = (_sym_count(s - 1, d - a, a) for a in firsts)
    else:
        sizes = (math.comb(d - a - 1, s - 2) for a in firsts)
    return (0,) * firsts.start + tuple(accumulate(sizes, initial=0))


def _splits(kind: ModuleKind, s: int, d: int, l: int):
    """The (a, i) whose tail rows the block of first entry a in Sq^l on
    (s, d) reads: C(a-i, i) odd, and a - i <= top keeps the tail's codomain
    (s-1, d-a-(l-i)) nonempty."""
    top = d - l - s + 1  # the largest first entry in the codomain
    for a in _first_entries(kind, s, d):
        for i in range(max(0, a - top), min(l, a - 1) + 1):
            if (a - i) & i == i:
                yield a, i


def _block(ctx: modules.Expansions, kind: ModuleKind, s: int, d: int, l: int) -> Tuple[int, ...]:
    """Rows of Sq^l on (s, d), s >= 1, d - l >= s, kept in ``ctx.pieces`` at
    (_block, kind, s, d, l): built on a miss from the arity-(s-1) rows that
    this same call reads or builds, so a build recurses one level per arity.

    The basis is in ascending lex order, so the monomials (a | m) with
    first entry a form one block.  By the Cartan formula the row of (a | m)
    is the sum, over the i with C(a-i, i) odd, of the row of m under
    Sq^(l-i) with b = a - i put in front.  For gamma the block is laid out
    like the basis of (s-1, d-a), and b in front shifts a whole tail row to
    the columns of first entry b.  For gamma-sym m has no part above a, so
    the block is a prefix of the basis of (s-1, d-a).  b goes in front of
    the tail columns that start at most at b, a low prefix that shifts as
    a whole, and is sorted into the others through the column tables that
    ``_high_block`` keeps in ``ctx.pieces``, where terms of different i may
    meet and cancel.

    A necklace is not closed under the split, so a gamma-cyc row is the
    support ``ctx.support`` gives its basis monomial, not kept: the plain
    gamma support, built on ctx's gamma tails, projected to necklaces.
    """
    key = _block, kind, s, d, l
    out = ctx.pieces.get(key)
    if out is not None:
        return out
    if s == 1:
        out = (binom_mod2(d - l, l),)
    elif kind is _CYC:
        index = ctx.piece(_basis_index, kind, s, d - l)
        out = tuple(sum(1 << index[t] for t in ctx.support(kind, m, l, keep=False)) for m in basis(Bidegree(s, d), kind))
    else:
        dom, cod = ctx.piece(_offsets, kind, s, d), ctx.piece(_offsets, kind, s, d - l)
        blocks: Dict[int, List[int]] = {}
        for a, i in _splits(kind, s, d, l):
            b = a - i
            tail, shift, acc = _block(ctx, kind, s - 1, d - a, l - i), cod[b], blocks.get(a)
            if kind is _SYM:
                tail = tail[:dom[a + 1] - dom[a]]  # the m with no part above a
                if b < d - l - b - s + 2:  # some tail columns start above b
                    low = cod[b + 1] - shift
                    high, mask = _high_block(ctx.pieces, s - 1, d - l - b, b), (1 << low) - 1
                    rows = [(r & mask) << shift | _scatter(r >> low, high) if r >> low else r << shift
                            for r in tail]
                    blocks[a] = rows if acc is None else [x ^ y for x, y in zip(acc, rows)]
                    continue
            blocks[a] = [r << shift for r in tail] if acc is None else [x ^ r << shift for x, r in zip(acc, tail)]
        out = tuple(chain.from_iterable(blocks[a] if a in blocks else [0] * (dom[a + 1] - dom[a])
                                        for a in _first_entries(kind, s, d)))
    ctx.pieces[key] = out
    return out


def _scatter(bits: int, columns: Tuple[int, ...]) -> int:
    """The bits columns[j] for the bits j set in bits."""
    out = 0
    while bits:
        low = bits & -bits
        out |= 1 << columns[low.bit_length() - 1]
        bits ^= low
    return out


def _high_block(pieces: dict, s: int, e: int, b: int) -> Tuple[int, ...]:
    """For the partitions t of (s, e) with first entry above b, in basis
    order, the index of sorted(b | t) in (s+1, e+b), kept in ``pieces`` at
    (_high_block, s, e, b) and built on a miss from the arity-(s-1) tables
    that this same call reads or builds.  t = (c | t') sorts with b to
    (c | sorted(b | t')): in block c of (s+1, e+b), at the index of
    sorted(b | t') in (s, e+b-c).  For the t' with no part above b, the low
    prefix of (s-1, e-c), that is b in front of t'; for the others, the
    table of (s-1, e-c, b)."""
    key = _high_block, s, e, b
    out = pieces.get(key)
    if out is not None:
        return out
    columns: List[int] = []
    for c in range(max(b + 1, -(-e // s)), e - s + 2):
        base = _sym_count(s + 1, e + b, c - 1)
        low = _sym_count(s - 1, e - c, b)
        front = base + _sym_count(s, e + b - c, b - 1)
        columns.extend(range(front, front + low))
        if e - c - s + 2 > b:  # some t' starts above b
            columns.extend(base + j for j in _high_block(pieces, s - 1, e - c, b)[:_sym_count(s - 1, e - c, c) - low])
    out = pieces[key] = tuple(columns)
    return out


def sq_matrix(b: Bidegree, l: int, kind: ModuleKind) -> BitMatrix:
    """Matrix of the right action of Sq^l from (s,d) to (s,d-l).

    Row u is the coordinate vector of (basis monomial u)Sq^l in the
    lexicographic basis of the target piece, kept in the current context
    by ``_block``, read once a call and built by it on a miss: a
    ``sweep``'s own for ``report`` and the chain certificates, else
    the default ``modules.EXPANSIONS``.  Gamma and gamma-sym rows come from
    first-entry blocks, built from the rows one arity down with no basis
    enumerated and no monomial expanded; gamma-cyc rows project plain gamma
    supports.  Every build recurses one level per arity, so an arity above
    ``MAX_ARITY`` is refused with ValueError before any is built.
    """
    _check_max_arity(b.s)
    n = basis_size(b, kind)
    target = Bidegree(b.s, b.d - modules._square_index(l))
    cols = basis_size(target, kind) if target.d >= 0 else 0
    if cols == 0 or b.s == 0:
        # No codomain gives zero rows.  At arity 0 a nonempty codomain
        # means (0, 0) Sq^0, the identity on the one monomial ().
        return BitMatrix._make((n, cols, (int(cols > 0),) * n))
    return BitMatrix._make((n, cols, _block(modules.EXPANSIONS, kind, b.s, b.d, l)))


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
    return BitMatrix._make((n, sum(blk.cols for blk in blocks), tuple(rows)))


def _check_order(k: int) -> None:
    if type(k) is not int:
        raise ValueError(f"order k={k!r} must be a plain int")
    if k < 0:
        raise ValueError("order must be >= 0")


def delta_basis(b: Bidegree, k: int, kind: ModuleKind) -> Subspace:
    """Intersection of the kernels of Sq^(2^i), i <= k, as a subspace of the
    coordinates over the basis of (s,d)."""
    _check_order(k)
    return f2linalg.kernel_basis(sq_stack(b, [1 << i for i in range(k + 1)], kind))


def spike_image_basis(b: Bidegree, k: int, kind: ModuleKind) -> Subspace:
    """Intersection of the images of Sq^(2^(i+1)-1), i <= k, landing in (s,d)."""
    _check_order(k)
    spikes = [(2 << i) - 1 for i in range(k + 1)]
    return reduce(f2linalg.intersect, (f2linalg.image_basis(sq_matrix(Bidegree(b.s, b.d + l), l, kind))
                                       for l in spikes))


def unhit_report(b: Bidegree, k: int, kind: ModuleKind) -> DeltaReport:
    """delta(k) and image(k) at (s,d), once image(k) is checked to lie in
    delta(k)."""
    delta = delta_basis(b, k, kind)
    image = spike_image_basis(b, k, kind)
    if not f2linalg.contains_subspace(delta, image):
        raise InternalInconsistencyError(f"{kind.value} ({b.s},{b.d}), k={k}, unhit containment check:"
                                         " image not contained in kernel")
    return DeltaReport(kind, b, k, delta, image)


def sweep(kind: ModuleKind, cells: Iterable[Tuple[int, int]], k: int) -> Iterator[DeltaReport]:
    """The ``unhit_report`` of each (s, d) cell, in order, computed inside
    ``with ctx:`` for one ``modules.Expansions`` that the sweep owns and
    frees.  Each report is yielded after that block, so the caller's code
    between reports runs in the caller's context, however it stops."""
    ctx = modules.Expansions()
    for s, d in cells:
        with ctx:
            rep = unhit_report(Bidegree(s, d), k, kind)
        yield rep
