"""Exact linear algebra over GF(2) with int-packed bit rows.

Vectors are rows and maps act on the right: a matrix M sends v to v*M,
so composition reads left to right.  A vector is a plain int whose bit j
is coordinate j; its length is that of the matrix side or subspace it
meets, and a bit at or beyond that length raises ValueError;
``subspace_from_rows`` checks each row it is given.  All operations are
pure; inputs are never mutated.

One elimination core, ``_echelon``, keeps one row per lowest-bit pivot.
Kernels, solutions and intersections tag each row in its high bits (row
index or row copy); rows whose low bits cancel carry the answer there.
A ``Subspace`` is the semi-echelon form that elimination leaves, which is
enough for its dimension and for membership.  RREF is built by
back-substitution only where a basis is read; ``complement`` clears
another subspace's pivot bits with the same walk, ``_clear``.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, Iterable, NamedTuple, Optional


def _check_bits(bits: int, length: int) -> None:
    """A packed vector of F_2^length has no bit at or above length."""
    if bits < 0 or bits >> length:
        raise ValueError(f"bits set outside length {length}")


def _check_size(field: str, value) -> None:
    """A matrix side or an ambient dimension is a plain int >= 0."""
    if type(value) is not int or value < 0:
        raise ValueError(f"{field} must be a plain int >= 0, not {value!r}")


class _BitMatrixFields(NamedTuple):
    rows: int
    cols: int
    data: tuple


class BitMatrix(_BitMatrixFields):
    """Row-major GF(2) matrix; data[i] is the packed i-th row."""

    __slots__ = ()

    def __new__(cls, rows: int, cols: int, data: tuple):
        _check_size("rows", rows)
        _check_size("cols", cols)
        if type(data) is not tuple:
            raise ValueError(f"data must be a tuple, not {type(data).__name__}")
        if len(data) != rows:
            raise ValueError("row count mismatch")
        for r in data:
            if type(r) is not int or r < 0 or r >> cols:
                raise ValueError(f"row {r!r} is not a plain int inside the column range")
        return tuple.__new__(cls, (rows, cols, data))


class _SubspaceFields(NamedTuple):
    ambient_dim: int
    pivots: Dict[int, int]


class Subspace(_SubspaceFields):
    """A subspace of F_2^ambient_dim in semi-echelon form: pivots maps each
    pivot to the one row whose lowest set bit it is.  The constructor checks
    that, that ambient_dim is a plain int >= 0, and that each row lies in
    F_2^ambient_dim; the eliminations here build with ``_make`` and skip the
    checks.  Its fields are read only; with no __slots__ of its own, its
    __dict__ holds the cached basis."""

    def __new__(cls, ambient_dim: int, pivots: Dict[int, int]):
        _check_size("ambient_dim", ambient_dim)
        for p, r in pivots.items():
            if type(r) is not int or r <= 0 or (r & -r).bit_length() - 1 != p:
                raise ValueError(f"row {r!r} does not have its lowest set bit at its pivot {p!r}")
            _check_bits(r, ambient_dim)
        return tuple.__new__(cls, (ambient_dim, pivots))

    @property
    def dim(self) -> int:
        return len(self.pivots)

    @cached_property
    def basis(self) -> tuple:
        """The reduced row-echelon basis, sorted by pivot."""
        return _rref(self.pivots)

    def reduce(self, bits: int) -> int:
        """Reduce a packed vector against the rows; zero iff contained."""
        return _reduce(self.pivots, bits)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.basis == other.basis

    # tuple.__ne__ would compare the semi-echelon rows; negate __eq__ instead.
    __ne__ = object.__ne__


def _reduce(pivots: Dict[int, int], r: int) -> int:
    """Reduce r until it is zero or its lowest bit is not a pivot."""
    while r:
        e = pivots.get((r & -r).bit_length() - 1)
        if e is None:
            break
        r ^= e
    return r


def _echelon(rows: Iterable[int]) -> Dict[int, int]:
    """Semi-echelon form of the row space: pivot -> the one kept row whose
    lowest set bit is that pivot."""
    pivots: Dict[int, int] = {}
    for r in rows:
        r = _reduce(pivots, r)
        if r:
            pivots[(r & -r).bit_length() - 1] = r
    return pivots


def _clear(r: int, rows: Dict[int, int], mask: int) -> int:
    """r with every bit of mask cleared, lowest first, by adding rows[q]
    for each bit q met; rows[q] has bit q and no other bit of mask."""
    hits = r & mask
    while hits:
        low = hits & -hits
        r ^= rows[low.bit_length() - 1]
        hits = r & mask & -(low << 1)
    return r


def _rref(pivots: Dict[int, int]) -> tuple:
    """RREF rows sorted by pivot, by back-substitution in descending pivot
    order: one xor per higher pivot bit present."""
    done: Dict[int, int] = {}
    mask = 0
    for p in sorted(pivots, reverse=True):
        done[p] = _clear(pivots[p], done, mask)
        mask |= 1 << p
    return tuple(done[p] for p in sorted(done))


def _carried(pivots: Dict[int, int], n: int) -> Dict[int, int]:
    """High parts of the rows whose low n bits cancelled, keyed by pivot."""
    return {p - n: r >> n for p, r in pivots.items() if p >= n}


def _tagged(m: BitMatrix) -> Iterable[int]:
    """Rows of m with the row index tagged above the columns: (v*m | v)."""
    return (r | 1 << (m.cols + i) for i, r in enumerate(m.data))


def subspace_from_rows(ambient_dim: int, rows: Iterable[int]) -> Subspace:
    """The span of rows, each checked to lie in F_2^ambient_dim."""
    rows = list(rows)
    for r in rows:
        _check_bits(r, ambient_dim)
    return Subspace._make((ambient_dim, _echelon(rows)))


def image_basis(m: BitMatrix) -> Subspace:
    """Row space of m: the image of the right-action map v -> v*m.  The
    rows of a BitMatrix are in range already, so none is checked again."""
    return Subspace._make((m.cols, _echelon(m.data)))


def kernel_basis(m: BitMatrix) -> Subspace:
    """Left kernel: all v with v*m = 0.  dim = rows - rank."""
    return Subspace._make((m.rows, _carried(_echelon(_tagged(m)), m.cols)))


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """Intersection via the Zassenhaus trick on stacked (y|0) and (x|x) rows."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    n = a.ambient_dim
    # Low bits hold the actual coordinates (eliminated first by the
    # lowest-bit pivoting); high bits carry a copy tracking a-combinations.
    # b's rows go first: their pivots are distinct, so they are kept as they
    # are and only a's rows are reduced.
    stacked = list(b.pivots.values()) + [r | (r << n) for r in a.pivots.values()]
    return Subspace._make((n, _carried(_echelon(stacked), n)))


def contains(s: Subspace, bits: int) -> bool:
    _check_bits(bits, s.ambient_dim)
    return s.reduce(bits) == 0


def contains_subspace(outer: Subspace, inner: Subspace) -> bool:
    if outer.ambient_dim != inner.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    return all(outer.reduce(r) == 0 for r in inner.pivots.values())


def complement(outer: Subspace, inner: Subspace) -> Subspace:
    """The span of outer's rows with every pivot bit of inner cleared by
    inner's RREF rows: for inner inside outer, the one complement of inner
    in outer with no bit at a pivot of inner, of dim outer.dim - inner.dim."""
    if outer.ambient_dim != inner.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    rref = dict(zip(sorted(inner.pivots), inner.basis))
    mask = sum(1 << p for p in inner.pivots)
    return Subspace._make((outer.ambient_dim, _echelon(_clear(r, rref, mask) for r in outer.pivots.values())))


def solve(m: BitMatrix, bits: int) -> Optional[int]:
    """Some v with v*m = bits, or None.  Free coordinates are fixed to 0: v
    is the one solution supported on rows independent of the rows before
    them."""
    _check_bits(bits, m.cols)
    n = m.cols
    pivots = {p: r for p, r in _echelon(_tagged(m)).items() if p < n}
    r = _reduce(pivots, bits)
    if r & ((1 << n) - 1):
        return None
    return r >> n
