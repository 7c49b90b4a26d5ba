"""Shift-map homotopy systems: null subspaces, identity checks, preimage chains.

A system of order k supplies the shift maps psi^(2^m), m <= k, acting at one
position, together with a monomial-wise null predicate.  On the null subspace
the shifts commute with low squares and satisfy psi*Sq + Sq*psi = id, which
turns kernel membership into constructive spike-square preimages.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from operator import itemgetter, sub, xor
from typing import Callable, Collection, List, NamedTuple, Tuple

from . import modules
from .modules import (
    Bidegree,
    Element,
    InternalInconsistencyError,
    ModuleKind,
    ORBIT_KINDS,
    _check_kind,
    _frozen,
    basis,
    monomial_str,
    sq,
)


_first, _second = itemgetter(0), itemgetter(1)


class PreconditionError(ValueError):
    """An identity check was invoked outside its guaranteed hypotheses."""


class NullMembershipError(ValueError):
    """Input element has a monomial outside the null subspace."""

    def __init__(self, kind: ModuleKind, entries: Tuple[int, ...]):
        self.kind = kind
        self.entries = entries
        super().__init__(f"monomial {monomial_str(kind, entries)} lies outside the null subspace")


class AnnihilationError(ValueError):
    """Input is not killed by some required square Sq^(2^i)."""

    def __init__(self, i: int):
        self.failing_i = i
        super().__init__(f"element is not killed by Sq^{2 ** i}")


class ChainCertificateError(InternalInconsistencyError):
    """A preimage chain failed its own verification; indicates a bug."""


class _HomotopySystemFields(NamedTuple):
    kind: ModuleKind
    order: int
    position: int


class HomotopySystem(_HomotopySystemFields):
    __slots__ = ()

    def __new__(cls, kind: ModuleKind, order: int, position: int = 1):
        _check_kind(kind)
        # type() and not isinstance(): a bool is an int subclass.
        if type(order) is not int or type(position) is not int:
            raise ValueError("order and position must be integers")
        if order < 0:
            raise ValueError("order must be >= 0")
        if position < 1:
            raise ValueError("position must be >= 1")
        if kind in ORBIT_KINDS and position != 1:
            raise ValueError("orbit kinds act at position 1 only")
        return tuple.__new__(cls, (kind, order, position))


def shift(x: Element, i: int, r: int) -> Element:
    """Add r to entry i, 1 <= i <= x.s, of every monomial; a zero element
    gives the zero of degree d + r.

    The support is built directly: adding r to one entry is one-to-one, so
    no two terms meet and none cancels.  Orbit kinds shift their leading
    entry (i = 1), which is a maximum of its monomial (the largest part of
    a partition, the first entry of a lex-greatest rotation); with r > 0 it
    becomes the strict maximum, so the shifted tuple is still canonical and
    needs no re-canonicalisation.
    """
    if type(r) is not int:
        raise ValueError(f"shift amount r={r!r} must be a plain int")
    if r < 0:
        raise ValueError("shift amount must be >= 0")
    _check_position(x, i)
    if x.kind in ORBIT_KINDS and i != 1:
        raise ValueError("orbit kinds act at position 1 only")
    j = i - 1
    support = _frozen(t[:j] + (t[j] + r,) + t[i:] for t in x.support)
    return Element._make((x.kind, x.s, x.d + r, support))


def _check_position(x: Element, i: int) -> None:
    """The position rule of every element, zeros included: arity is exact."""
    if type(i) is not int:
        raise ValueError(f"position i={i!r} must be a plain int")
    if not 1 <= i <= x.s:
        raise ValueError(f"position {i} out of range for arity {x.s}")


def _null_test(x: Element, h: HomotopySystem) -> Callable[[Collection[Tuple[int, ...]]], bool]:
    """Check that h acts on x (same kind, position within x's arity), then
    return h's null-subspace condition on a whole support of x's arity:
    true iff every term meets it, so an empty support passes.  The checks
    run on every call; the condition is built once per kind, order,
    position and arity 1 or not, by ``_null_condition``.  Callers that must
    name a failing term apply it to one term at a time."""
    if x.kind is not h.kind:
        raise ValueError(f"kind mismatch: element {x.kind.value}, system {h.kind.value}")
    _check_position(x, h.position)
    return _null_condition(h.kind, h.order, h.position, x.s == 1)


@lru_cache(maxsize=None)
def _null_condition(kind: ModuleKind, order: int, position: int,
                    unary: bool) -> Callable[[Collection[Tuple[int, ...]]], bool]:
    """The null-subspace condition of ``_null_test``, run as C-level passes
    over the support (``map``, ``min``), hashing no term."""
    bound = 1 << order
    if kind is ModuleKind.NABLA:
        return lambda support: True
    lead = itemgetter(position - 1)
    # Arity-1 orbit pieces coincide with the plain module; the difference
    # conditions below are vacuous there but the entry bound is still needed.
    if kind is ModuleKind.GAMMA or unary:
        return lambda support: min(map(lead, support), default=bound) >= bound
    if kind is ModuleKind.GAMMA_SYM:
        second = itemgetter(1)
        return lambda support: min(map(sub, map(lead, support), map(second, support)), default=bound) >= bound
    rest = itemgetter(slice(1, None))
    return lambda support: min(map(sub, map(lead, support), map(max, map(rest, support))), default=bound + 1) > bound


def in_null(x: Element, h: HomotopySystem) -> bool:
    """True iff every support monomial satisfies the null-subspace
    condition; a wrong kind or position raises as in ``preimage_chain``."""
    return _null_test(x, h)(x.support)


def null_span(b: Bidegree, h: HomotopySystem):
    """The ``f2linalg.Subspace`` spanned by the basis monomials of h's kind
    at b that lie in h's null subspace; a position past b's arity raises as
    in ``in_null``."""
    from . import f2linalg  # here, not at the top: the chain path never needs it
    monos = basis(b, h.kind)
    null = _null_test(Element.zero(h.kind, b.s, b.d), h)
    return f2linalg.subspace_from_rows(len(monos), [1 << j for j, m in enumerate(monos) if null((m,))])


def _psi(x: Element, h: HomotopySystem, m: int) -> Element:
    return shift(x, h.position, 1 << m)


def verify_commutation(x: Element, h: HomotopySystem, m: int, l: int) -> bool:
    """Whether x psi^(2^m) Sq^l equals x Sq^l psi^(2^m)."""
    if not 1 <= m <= h.order:
        raise PreconditionError(f"need 1 <= m <= order, got m={m}")
    if not 0 <= l < (1 << m):
        raise PreconditionError(f"need 0 <= l < 2^m, got l={l}")
    if not in_null(x, h):
        raise PreconditionError("element is not in the null subspace")
    left = sq(_psi(x, h, m), l)
    right = _psi(sq(x, l), h, m)
    return left == right


def verify_homotopy(x: Element, h: HomotopySystem, m: int) -> bool:
    """Whether x psi^(2^m) Sq^(2^m) + x Sq^(2^m) psi^(2^m) equals x."""
    if not 0 <= m <= h.order:
        raise PreconditionError(f"need 0 <= m <= order, got m={m}")
    if not in_null(x, h):
        raise PreconditionError("element is not in the null subspace")
    total = sq(_psi(x, h, m), 1 << m) + _psi(sq(x, 1 << m), h, m)
    return total == x


def _failed_certificate(x: Element, h: HomotopySystem, i: int, what: str) -> Exception:
    """The error for a chain whose step i failed: AnnihilationError for the
    first Sq^(2^m), m <= order, that does not kill x, else a bug."""
    for m in range(h.order + 1):
        if not sq(x, 1 << m).is_zero():
            return AnnihilationError(m)
    return ChainCertificateError(f"{h.kind.value} bidegree (s,d)=({x.s},{x.d}), order {h.order}, "
                                 f"position {h.position}: y_{i} {what}")


def preimage_chain(x: Element, h: HomotopySystem) -> List[Element]:
    """The elements y_i = x psi^(2^i) ... psi^2 psi^1, each with
    y_i Sq^R = x for R = 2^(i+1) - 1, for i = 0..order.

    Every psi adds to the same entry, so y_i = x psi^R, built straight from
    x as ``shift`` builds it (an orbit term stays canonical).  One lookup
    per term of x builds y_i and checks it: both read
    ``shifted[kind, position, R]`` of the current context
    ``modules.EXPANSIONS``, which maps a term t to (u, err), u being t
    shifted by R and err the mask of t plus the terms of u Sq^R in the
    bits that ``Expansions.bits`` gives x's piece.  The u's become y_i's
    support by ``modules._frozen``, a set copied into a frozenset, sized
    for its length like every support the library returns; a term that
    missed the memo stops that build (its lookup gave None), and the
    misses are filled before it runs again.  Shifting is
    one-to-one, so y_i must have as many terms as x.  Within one piece
    every term has its own bit, so the XOR of the errs over x is the
    indicator of x + y_i Sq^R, which must be 0: the test
    y_i Sq^R = x with one integer XOR per term.

    Rejects a system of another kind, a position outside 1..x.s (zero
    elements too) and inputs outside the null subspace, in that order; the
    null refusal names the least term outside.  Each y_i is checked
    against x and, with the one whole-support null predicate of
    ``_null_test``, for null membership before return.
    A passed y_i Sq^R = x proves that Sq^(2^i) kills x, by the Adem
    relation Sq^R Sq^(2^i) = 0, so a chain that passes computes no square
    of x.  Only a failed check runs every Sq^(2^m), m <= order, on x, to
    classify it: AnnihilationError for the first that does not kill x,
    else ChainCertificateError, which indicates an implementation bug, not
    bad input.  The memo holds monomials only, never whole elements or
    chains, so every call runs every check.
    """
    null = _null_test(x, h)
    if not null(x.support):
        raise NullMembershipError(h.kind, min(t for t in x.support if not null((t,))))
    ctx = modules.EXPANSIONS
    kind, p = h.kind, h.position
    j = p - 1
    chain: List[Element] = []
    for i in range(h.order + 1):
        r = (2 << i) - 1
        memo = ctx.shifted[kind, p, r]
        pairs = [*map(memo.get, x.support)]
        try:
            support = _frozen(map(_first, pairs))
        except TypeError:  # _first(None): some term missed the memo
            for n, t in enumerate(x.support):
                if pairs[n] is None:
                    u = t[:j] + (t[j] + r,) + t[p:]
                    pairs[n] = memo[t] = (u, ctx.mask(kind, x.s, x.d, (t, *ctx.support(kind, u, r, keep=False))))
            support = _frozen(map(_first, pairs))
        y = Element._make((kind, x.s, x.d + r, support))
        if len(support) != len(pairs) or reduce(xor, map(_second, pairs), 0):
            raise _failed_certificate(x, h, i, f"Sq^{r} != x")
        if not null(y.support):
            raise _failed_certificate(x, h, i, "left the null subspace")
        chain.append(y)
    return chain
