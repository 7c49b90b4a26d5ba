"""Shift-map homotopy systems: null subspaces, identity checks, preimage chains.

A system of order k supplies the shift maps psi^(2^m), m <= k, acting at one
position, together with a monomial-wise null predicate.  On the null subspace
the shifts commute with low squares and satisfy psi*Sq + Sq*psi = id, which
turns kernel membership into constructive spike-square preimages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from .modules import (
    Element,
    ModuleKind,
    Monomial,
    ORBIT_KINDS,
    _ORBIT_CANONICAL,
    sq,
)


class PreconditionError(ValueError):
    """An identity check was invoked outside its guaranteed hypotheses."""


class NullMembershipError(ValueError):
    """Input element has a monomial outside the null subspace."""

    def __init__(self, monomial: Monomial):
        self.monomial = monomial
        super().__init__(f"monomial {monomial} lies outside the null subspace")


class AnnihilationError(ValueError):
    """Input is not killed by some required square Sq^(2^i)."""

    def __init__(self, i: int):
        self.failing_i = i
        super().__init__(f"element is not killed by Sq^{2 ** i}")


class ChainCertificateError(RuntimeError):
    """A preimage chain failed its own verification; indicates a bug."""


@dataclass(frozen=True)
class HomotopySystem:
    kind: ModuleKind
    order: int
    position: int = 1

    def __post_init__(self):
        if self.order < 0:
            raise ValueError("order must be >= 0")
        if self.position < 1:
            raise ValueError("position must be >= 1")
        if self.kind in ORBIT_KINDS and self.position != 1:
            raise ValueError("orbit kinds shift the leading canonical entry only")


def shift(x: Element, i: int, r: int) -> Element:
    """Add r to entry i of every monomial; orbit kinds re-canonicalize."""
    if r < 0:
        raise ValueError("shift amount must be >= 0")
    if x.is_zero():
        return Element.zero(x.kind, x.s, x.d + r)
    if not 1 <= i <= x.s:
        raise ValueError(f"position {i} out of range for arity {x.s}")
    if x.kind in ORBIT_KINDS and i != 1:
        raise ValueError("orbit kinds support position 1 only")
    canon = _ORBIT_CANONICAL.get(x.kind)
    out = []
    for m in x.support:
        e = list(m.entries)
        e[i - 1] += r
        t = tuple(e)
        if canon is not None:
            t = canon(t)
        out.append(Monomial(x.kind, t))
    return Element.from_monomials(x.kind, x.s, x.d + r, out)


def _mono_in_null(m: Monomial, h: HomotopySystem) -> bool:
    k = h.order
    e = m.entries
    if h.kind is ModuleKind.NABLA:
        return True
    if h.kind is ModuleKind.GAMMA:
        return e[h.position - 1] >= (1 << k)
    # Arity-1 orbit pieces coincide with the plain module; the difference
    # conditions below are vacuous there but the entry bound is still needed.
    if len(e) < 2:
        return e[0] >= (1 << k)
    if h.kind is ModuleKind.GAMMA_SYM:
        return e[0] - e[1] >= (1 << k)
    return all(e[0] - e[j] > (1 << k) for j in range(1, len(e)))


def _check_position(x: Element, h: HomotopySystem) -> None:
    if not x.is_zero() and h.kind is not ModuleKind.NABLA and h.position > x.s:
        raise ValueError(f"position {h.position} out of range for arity {x.s}")


def in_null(x: Element, h: HomotopySystem) -> bool:
    """True iff every support monomial satisfies the null-subspace condition."""
    if x.kind is not h.kind:
        raise ValueError(f"kind mismatch: element {x.kind.value}, system {h.kind.value}")
    _check_position(x, h)
    return all(_mono_in_null(m, h) for m in x.support)


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
    return left.same(right)


def verify_homotopy(x: Element, h: HomotopySystem, m: int) -> bool:
    """Whether x psi^(2^m) Sq^(2^m) + x Sq^(2^m) psi^(2^m) equals x."""
    if not 0 <= m <= h.order:
        raise PreconditionError(f"need 0 <= m <= order, got m={m}")
    if not in_null(x, h):
        raise PreconditionError("element is not in the null subspace")
    total = sq(_psi(x, h, m), 1 << m) + _psi(sq(x, 1 << m), h, m)
    return total.same(x)


def preimage_chain(x: Element, h: HomotopySystem) -> List[Element]:
    """The elements y_i = x psi^(2^i) ... psi^2 psi^1, each with
    y_i Sq^(2^(i+1)-1) = x, for i = 0..order.

    Rejects inputs outside the null subspace or not killed by every
    Sq^(2^i), i <= order.  Each certificate is re-verified before return;
    a failure there indicates an implementation bug, not bad input.
    """
    _check_position(x, h)
    for m in x.support:
        if not _mono_in_null(m, h):
            raise NullMembershipError(m)
    for i in range(h.order + 1):
        if not sq(x, 1 << i).is_zero():
            raise AnnihilationError(i)
    chain: List[Element] = []
    for i in range(h.order + 1):
        y = x
        for m in range(i, -1, -1):
            y = _psi(y, h, m)
        spike = (1 << (i + 1)) - 1
        if not sq(y, spike).same(x):
            raise ChainCertificateError(f"y_{i} Sq^{spike} != x")
        if not in_null(y, h):
            raise ChainCertificateError(f"y_{i} left the null subspace")
        chain.append(y)
    return chain
