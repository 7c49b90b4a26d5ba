"""Per-bidegree kernel/image computations and the structure theory around them.

The central objects are, for a module kind M and order k:

* delta(k)  -- the intersection of the kernels of Sq^1, Sq^2, ..., Sq^(2^k),
* image(k)  -- the intersection of the images of Sq^1, Sq^3, ..., Sq^(2^(k+1)-1),
* unhit(k)  -- their quotient, reported per bidegree with a degeneracy flag.

On top of the linear algebra sit the first-factor structure checkers for
arity >= 2, the k=1 element builder, the image-membership criterion with an
explicit cube-square preimage, and the exact reproduction of the known
non-trivial quotient class in bidegree (5,9).
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Dict, List, NamedTuple, Optional, Tuple

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
    concat_product,
    sq,
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

def delta_basis(b: Bidegree, k: int, kind: ModuleKind) -> Subspace:
    """Intersection of the kernels of Sq^(2^i), i <= k, as a subspace of the
    coordinates over the basis of (s,d)."""
    if k < 0:
        raise ValueError("order must be >= 0")
    n = basis_size(b, kind)
    blocks = [sq_matrix(b, 1 << i, kind) for i in range(k + 1)]
    rows = []
    for u in range(n):
        combined, offset = 0, 0
        for blk in blocks:
            combined |= blk.data[u] << offset
            offset += blk.cols
        rows.append(combined)
    stacked = BitMatrix(n, sum(blk.cols for blk in blocks), tuple(rows))
    return f2linalg.kernel_basis(stacked)


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


# --- first-factor structure theory (arity >= 2, gamma) ----------------------

class FirstFactorDecomposition(NamedTuple):
    """x written as sum over i of [i].(part at i), parts of arity s-1."""

    s: int
    d: int
    terms: Dict[int, Element]


def decompose_first_factor(x: Element) -> FirstFactorDecomposition:
    if x.kind is not ModuleKind.GAMMA:
        raise ValueError("first-factor decomposition is defined on gamma elements")
    if x.s < 2:
        raise ValueError("arity must be >= 2")
    grouped: Dict[int, List[Tuple[int, ...]]] = {}
    for t in x.support:
        grouped.setdefault(t[0], []).append(t[1:])
    terms = {
        i: Element.from_monomials(ModuleKind.GAMMA, x.s - 1, x.d - i, tails)
        for i, tails in grouped.items()
    }
    return FirstFactorDecomposition(x.s, x.d, terms)


def recompose_first_factor(dec: FirstFactorDecomposition) -> Element:
    out = Element.zero(ModuleKind.GAMMA, dec.s, dec.d)
    for i, part in dec.terms.items():
        head = Element.single(ModuleKind.GAMMA, (i,))
        out = out + concat_product(head, part)
    return out


def _part(dec_terms: Dict[int, Element], i: int, s: int, d: int) -> Element:
    return dec_terms.get(i, Element.zero(ModuleKind.GAMMA, s - 1, d - i))


def check_sq1_relations(x: Element) -> List[Tuple[str, int]]:
    """Violations of the first-factor conditions equivalent to x Sq^1 = 0."""
    dec = decompose_first_factor(x)
    s, d = dec.s, dec.d
    imax = d - (s - 1)
    part = lambda i: _part(dec.terms, i, s, d)
    violations = []
    for n in range(1, (imax + 1) // 2 + 2):
        if not (part(2 * n) + sq(part(2 * n - 1), 1)).is_zero():
            violations.append(("x_{2n} = x_{2n-1}Sq^1", n))
        if not sq(part(2 * n), 1).is_zero():
            violations.append(("x_{2n}Sq^1 = 0", n))
    return violations


def check_sq2_relations(x: Element) -> List[Tuple[str, int]]:
    """Violations of the first-factor conditions equivalent to x Sq^2 = 0."""
    dec = decompose_first_factor(x)
    s, d = dec.s, dec.d
    imax = d - (s - 1)
    part = lambda i: _part(dec.terms, i, s, d)
    violations = []
    for m in range(1, (imax + 3) // 4 + 2):
        if not (sq(part(4 * m - 2), 1) + sq(part(4 * m - 3), 2)).is_zero():
            violations.append(("x_{4m-2}Sq^1 = x_{4m-3}Sq^2", m))
        if not (part(4 * m) + sq(part(4 * m - 2), 2)).is_zero():
            violations.append(("x_{4m} = x_{4m-2}Sq^2", m))
        if not (part(4 * m + 1) + sq(part(4 * m - 1), 2) + sq(part(4 * m), 1)).is_zero():
            violations.append(("x_{4m+1} = x_{4m-1}Sq^2 + x_{4m}Sq^1", m))
        if not sq(part(4 * m), 2).is_zero():
            violations.append(("x_{4m}Sq^2 = 0", m))
    return violations


def check_delta1_structure(x: Element) -> List[Tuple[str, int]]:
    """Violations of the seven first-factor conditions characterizing
    simultaneous membership in ker Sq^1 and ker Sq^2."""
    dec = decompose_first_factor(x)
    s, d = dec.s, dec.d
    imax = d - (s - 1)
    part = lambda i: _part(dec.terms, i, s, d)
    violations = []
    if not sq(part(1), 2).is_zero():
        violations.append(("x_1 in ker Sq^2", 0))
    if not (part(2) + sq(part(1), 1)).is_zero():
        violations.append(("x_2 = x_1Sq^1", 0))
    if not (sq(part(3), 1) + sq(part(1), 3)).is_zero():
        violations.append(("x_3Sq^1 = x_1Sq^3", 0))
    for m in range(1, (imax + 3) // 4 + 2):
        if not (part(4 * m) + sq(part(4 * m - 1), 1)).is_zero():
            violations.append(("x_{4m} = x_{4m-1}Sq^1", m))
        if not (part(4 * m + 1) + sq(part(4 * m - 1), 2)).is_zero():
            violations.append(("x_{4m+1} = x_{4m-1}Sq^2", m))
        if not (part(4 * m + 2) + sq(sq(part(4 * m - 1), 2), 1)).is_zero():
            violations.append(("x_{4m+2} = x_{4m-1}Sq^2Sq^1", m))
        if not (sq(part(4 * m + 3), 1) + sq(sq(part(4 * m - 1), 2), 3)).is_zero():
            violations.append(("x_{4m+3}Sq^1 = x_{4m-1}Sq^2Sq^3", m))
    return violations


def _solve_sq1_preimage(target: Element, s: int, d: int) -> Element:
    """Deterministic y of bidegree (s,d) with y Sq^1 = target (gamma)."""
    if target.is_zero() and d < s:
        return Element.zero(ModuleKind.GAMMA, s, d)
    b = Bidegree(s, d)
    mat = sq_matrix(b, 1, ModuleKind.GAMMA)
    tvec = element_to_vector(target, Bidegree(s, d - 1), ModuleKind.GAMMA)
    v = f2linalg.solve(mat, tvec)
    if v is None:
        raise InternalInconsistencyError(f"gamma ({s},{d}), k=1, build_delta1_element Sq^1 preimage:"
                                         " no preimage; construction should not fail")
    return vector_to_element(v, b, ModuleKind.GAMMA)


def build_delta1_element(x1: Element, d: int, choices: Optional[Dict[int, Element]] = None) -> Element:
    """Assemble x = sum [i].x_i killed by Sq^1 and Sq^2 from a choice of x_1.

    x_1 must be killed by Sq^2 and have degree d-1.  The even and 4m+1/4m+2
    parts are forced; x_3 and x_{4m+3} are chosen deterministically via a
    linear solve, with caller overrides added from ker Sq^1.
    """
    if x1.kind is not ModuleKind.GAMMA:
        raise ValueError("x_1 must be a gamma element")
    if not sq(x1, 2).is_zero():
        raise ValueError("x_1 is not killed by Sq^2")
    if x1.d != d - 1:
        raise ValueError(f"x_1 must have degree {d - 1}")
    choices = choices or {}
    for i, c in choices.items():
        if i % 4 != 3:
            raise ValueError(f"choice index {i} is not of the form 4m+3")
        if not sq(c, 1).is_zero():
            raise ValueError(f"choice at index {i} is not killed by Sq^1")
    s1 = x1.s
    s = s1 + 1
    imax = d - s1
    parts: Dict[int, Element] = {}

    def put(i: int, e: Element) -> None:
        if not e.is_zero():
            parts[i] = e

    put(1, x1)
    put(2, sq(x1, 1))
    if 3 <= imax or not sq(x1, 3).is_zero():
        x3 = _solve_sq1_preimage(sq(x1, 3), s1, d - 3)
        if 3 in choices:
            x3 = x3 + choices[3]
        put(3, x3)
    m = 1
    while 4 * m - 1 <= imax:
        prev = parts.get(4 * m - 1, Element.zero(ModuleKind.GAMMA, s1, d - (4 * m - 1)))
        put(4 * m, sq(prev, 1))
        put(4 * m + 1, sq(prev, 2))
        put(4 * m + 2, sq(sq(prev, 2), 1))
        target = sq(sq(prev, 2), 3)
        if 4 * m + 3 <= imax or not target.is_zero():
            y = _solve_sq1_preimage(target, s1, d - (4 * m + 3))
            if 4 * m + 3 in choices:
                y = y + choices[4 * m + 3]
            put(4 * m + 3, y)
        m += 1
    x = recompose_first_factor(FirstFactorDecomposition(s, d, parts))
    if not sq(x, 1).is_zero() or not sq(x, 2).is_zero():
        raise InternalInconsistencyError(f"gamma ({s},{d}), k=1, build_delta1_element check:"
                                         " assembled element is not killed by Sq^1 and Sq^2")
    return x


def i1_membership(x: Element) -> Tuple[bool, Optional[Element]]:
    """Decide whether x (killed by Sq^1 and Sq^2, arity >= 2) is a Sq^3 image.

    The criterion: the first-factor part x_1 must equal w Sq^2 for some w
    killed by Sq^3.  On success returns the explicit preimage
    [2].w + sum_{j>=2} [2j].x_{2j-3}, verified before return.
    """
    if x.s < 2:
        raise ValueError("arity must be >= 2")
    if not sq(x, 1).is_zero() or not sq(x, 2).is_zero():
        raise ValueError("element is not killed by Sq^1 and Sq^2")
    if x.is_zero():
        return True, Element.zero(ModuleKind.GAMMA, x.s, x.d + 3)
    dec = decompose_first_factor(x)
    s1, d = x.s - 1, x.d
    x1 = dec.terms.get(1, Element.zero(ModuleKind.GAMMA, s1, d - 1))

    # Candidates w live in bidegree (s-1, d+1), inside ker Sq^3.
    src = Bidegree(s1, d + 1)
    ker3 = f2linalg.kernel_basis(sq_matrix(src, 3, ModuleKind.GAMMA))
    mat2 = sq_matrix(src, 2, ModuleKind.GAMMA)
    restricted = BitMatrix(ker3.dim, mat2.cols, tuple(mat2.apply(r) for r in ker3.basis))
    x1vec = element_to_vector(x1, Bidegree(s1, d - 1), ModuleKind.GAMMA)
    combo = f2linalg.solve(restricted, x1vec)
    if combo is None:
        return False, None
    wbits = 0
    for j in range(ker3.dim):
        if combo >> j & 1:
            wbits ^= ker3.basis[j]
    w = vector_to_element(wbits, src, ModuleKind.GAMMA)

    # The tail preimage shifts every odd first factor [i] up to [i+3].
    witness = concat_product(Element.single(ModuleKind.GAMMA, (2,)), w)
    for i in sorted(dec.terms):
        if i % 2 == 1:
            head = Element.single(ModuleKind.GAMMA, (i + 3,))
            witness = witness + concat_product(head, dec.terms[i])
    if sq(witness, 3) != x:
        raise InternalInconsistencyError(f"gamma ({x.s},{x.d}), k=1, i1_membership check:"
                                         " constructed Sq^3 preimage failed verification")
    return True, witness


# --- the bidegree (5,9) counterexample --------------------------------------

def sq2_kernel_witness() -> Element:
    """A class in bidegree (4,8) killed by Sq^2 but not a Sq^2 image."""
    terms = [(1, 1, 2, 4), (1, 2, 1, 4), (1, 2, 4, 1), (2, 1, 4, 1),
             (2, 2, 2, 2), (4, 1, 1, 2), (4, 2, 1, 1)]
    return Element.from_monomials(ModuleKind.GAMMA, 4, 8, terms)


def unhit_witness_5_9() -> Element:
    """A class in bidegree (5,9), killed by Sq^1 and Sq^2, outside im Sq^3."""
    terms = [
        (1, 1, 1, 2, 4), (1, 1, 2, 1, 4), (1, 1, 2, 4, 1), (1, 2, 1, 4, 1),
        (1, 2, 2, 2, 2), (1, 4, 1, 1, 2), (1, 4, 2, 1, 1), (2, 1, 1, 2, 3),
        (2, 1, 2, 1, 3), (2, 1, 2, 2, 2), (2, 1, 2, 3, 1), (2, 2, 1, 2, 2),
        (2, 2, 1, 3, 1), (2, 2, 2, 1, 2), (2, 2, 2, 2, 1), (2, 3, 1, 1, 2),
        (2, 3, 2, 1, 1), (3, 1, 2, 1, 2), (3, 1, 2, 2, 1), (3, 2, 2, 1, 1),
        (4, 1, 1, 1, 2), (4, 1, 1, 2, 1), (4, 1, 2, 1, 1), (4, 2, 1, 1, 1),
        (5, 1, 1, 1, 1),
    ]
    return Element.from_monomials(ModuleKind.GAMMA, 5, 9, terms)


def counterexample_suite() -> dict:
    """Exact-arithmetic verification of the non-trivial quotient class at (5,9).

    Any failed assertion raises; success returns the computed dimensions.
    """
    w = sq2_kernel_witness()
    z = unhit_witness_5_9()

    if not sq(w, 2).is_zero():
        raise AssertionError("witness w is not killed by Sq^2")
    im2 = f2linalg.image_basis(sq_matrix(Bidegree(4, 10), 2, ModuleKind.GAMMA))
    wvec = element_to_vector(w, Bidegree(4, 8), ModuleKind.GAMMA)
    if f2linalg.contains(im2, wvec):
        raise AssertionError("witness w unexpectedly lies in im Sq^2")

    delta = delta_basis(Bidegree(5, 9), 1, ModuleKind.GAMMA)
    zvec = element_to_vector(z, Bidegree(5, 9), ModuleKind.GAMMA)
    if not f2linalg.contains(delta, zvec):
        raise AssertionError("witness z is not killed by Sq^1 and Sq^2")
    im3 = f2linalg.image_basis(sq_matrix(Bidegree(5, 12), 3, ModuleKind.GAMMA))
    if f2linalg.contains(im3, zvec):
        raise AssertionError("witness z unexpectedly lies in im Sq^3")

    report = unhit_report(Bidegree(5, 9), 1, ModuleKind.GAMMA)
    if report.dim_unhit < 1:
        raise AssertionError("unhit dimension at (5,9) is zero")
    return {
        "w_killed_by_sq2": True,
        "w_not_in_im_sq2": True,
        "z_in_delta1": True,
        "z_not_in_im_sq3": True,
        "dim_delta_5_9": report.dim_delta,
        "dim_image_5_9": report.dim_image,
        "dim_unhit_5_9": report.dim_unhit,
    }
