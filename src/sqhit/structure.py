"""First-factor structure theory on gamma, arity >= 2, and the known
non-trivial quotient class in bidegree (5,9).

An element x of (s,d) is the sum over i of [i].x_i, with x_i of arity s-1
and degree d-i.  On top of that decomposition sit the checkers of the
first-factor conditions for ker Sq^1, ker Sq^2 and Delta(1), the k=1
element builder, and the image-membership criterion with an explicit
cube-square preimage.  The query path of the commands does not need any
of it: only ``suites`` and the tests import this module.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from . import f2linalg
from .hit import element_to_vector, sq_matrix, sq_stack, vector_to_element
from .modules import (
    Bidegree,
    Element,
    InternalInconsistencyError,
    ModuleKind,
    _frozen,
    sq,
)

G = ModuleKind.GAMMA


def decompose_first_factor(x: Element) -> Dict[int, Element]:
    """The parts x_i of x = sum [i].x_i, keyed by i; a zero part is absent."""
    if x.kind is not G:
        raise ValueError("first-factor decomposition is defined on gamma elements")
    if x.s < 2:
        raise ValueError("arity must be >= 2")
    grouped: Dict[int, List[Tuple[int, ...]]] = {}
    for t in x.support:
        grouped.setdefault(t[0], []).append(t[1:])
    # The tails that share a first entry are distinct, so nothing cancels.
    return {i: Element._make((G, x.s - 1, x.d - i, _frozen(tails))) for i, tails in grouped.items()}


def compose_first_factor(parts: Dict[int, Element], s: int, d: int) -> Element:
    """The element x = sum [i].x_i of (s, d) from its parts {i: x_i}, each
    of arity s-1 and degree d-i: the inverse of ``decompose_first_factor``."""
    return Element(G, s, d, _frozen((i,) + t for i, part in parts.items() for t in part.support))


def _parts(x: Element) -> Tuple[Callable[[int], Element], int]:
    """The checkers' prologue: i -> x_i (zero where x has no part) and the
    largest first entry of x's bidegree."""
    parts = decompose_first_factor(x)
    s1, d = x.s - 1, x.d
    return (lambda i: parts[i] if i in parts else Element._make((G, s1, d - i, frozenset()))), d - s1


def check_sq1_relations(x: Element) -> List[Tuple[str, int]]:
    """Violations of the first-factor conditions equivalent to x Sq^1 = 0."""
    part, imax = _parts(x)
    violations = []
    for n in range(1, (imax + 1) // 2 + 2):
        if not (part(2 * n) + sq(part(2 * n - 1), 1)).is_zero():
            violations.append(("x_{2n} = x_{2n-1}Sq^1", n))
        if not sq(part(2 * n), 1).is_zero():
            violations.append(("x_{2n}Sq^1 = 0", n))
    return violations


def check_sq2_relations(x: Element) -> List[Tuple[str, int]]:
    """Violations of the first-factor conditions equivalent to x Sq^2 = 0."""
    part, imax = _parts(x)
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
    part, imax = _parts(x)
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


def build_delta1_element(x1: Element, d: int) -> Element:
    """Assemble x = sum [i].x_i killed by Sq^1 and Sq^2 from a choice of x_1.

    x_1 must be killed by Sq^2 and have degree d-1.  The even and 4m+1/4m+2
    parts are forced; x_3 and each x_{4m+3} is the Sq^1 preimage that
    ``f2linalg.solve`` picks.
    """
    if x1.kind is not G:
        raise ValueError("x_1 must be a gamma element")
    if not sq(x1, 2).is_zero():
        raise ValueError("x_1 is not killed by Sq^2")
    if x1.d != d - 1:
        raise ValueError(f"x_1 must have degree {d - 1}")
    s1 = x1.s
    parts = {1: x1, 2: sq(x1, 1)}
    # x_i for i = 4m-1 solves x_i Sq^1 = x_1 Sq^3 (m = 1) or x_{i-4}Sq^2Sq^3;
    # a part x_i is nonzero only for i <= d - s1.
    target = sq(x1, 3)
    for i in range(3, d - s1 + 1, 4):
        b = Bidegree(s1, d - i)
        v = f2linalg.solve(sq_matrix(b, 1, G), element_to_vector(target, Bidegree(s1, d - i - 1), G))
        if v is None:
            raise InternalInconsistencyError(f"gamma ({b.s},{b.d}), k=1, build_delta1_element Sq^1 preimage:"
                                             " no preimage; construction should not fail")
        y = vector_to_element(v, b, G)
        parts.update({i: y, i + 1: sq(y, 1), i + 2: sq(y, 2), i + 3: sq(sq(y, 2), 1)})
        target = sq(sq(y, 2), 3)
    x = compose_first_factor(parts, s1 + 1, d)
    if not sq(x, 1).is_zero() or not sq(x, 2).is_zero():
        raise InternalInconsistencyError(f"gamma ({s1 + 1},{d}), k=1, build_delta1_element check:"
                                         " assembled element is not killed by Sq^1 and Sq^2")
    return x


def i1_membership(x: Element) -> Tuple[bool, Optional[Element]]:
    """Decide whether x (killed by Sq^1 and Sq^2, arity >= 2) is a Sq^3 image.

    The criterion: the first-factor part x_1 must equal w Sq^2 for some w
    killed by Sq^3.  On success returns the explicit preimage
    [2].w + sum over odd i of [i+3].x_i, verified before return.
    """
    if x.s < 2:
        raise ValueError("arity must be >= 2")
    if not sq(x, 1).is_zero() or not sq(x, 2).is_zero():
        raise ValueError("element is not killed by Sq^1 and Sq^2")
    if x.is_zero():
        return True, Element.zero(G, x.s, x.d + 3)
    parts = decompose_first_factor(x)
    s1, d = x.s - 1, x.d
    x1 = parts.get(1, Element.zero(G, s1, d - 1))

    # One solve of w [Sq^2 | Sq^3] = [x_1 | 0] for w in (s-1, d+1).
    src = Bidegree(s1, d + 1)
    wbits = f2linalg.solve(sq_stack(src, (2, 3), G), element_to_vector(x1, Bidegree(s1, d - 1), G))
    if wbits is None:
        return False, None

    # The tail preimage shifts every odd first factor [i] up to [i+3].
    witness = compose_first_factor({2: vector_to_element(wbits, src, G),
                                    **{i + 3: part for i, part in parts.items() if i % 2}}, x.s, x.d + 3)
    if sq(witness, 3) != x:
        raise InternalInconsistencyError(f"gamma ({x.s},{x.d}), k=1, i1_membership check:"
                                         " constructed Sq^3 preimage failed verification")
    return True, witness


# --- the bidegree (5,9) counterexample --------------------------------------

def sq2_kernel_witness() -> Element:
    """A class in bidegree (4,8) killed by Sq^2 but not a Sq^2 image."""
    terms = [(1, 1, 2, 4), (1, 2, 1, 4), (1, 2, 4, 1), (2, 1, 4, 1),
             (2, 2, 2, 2), (4, 1, 1, 2), (4, 2, 1, 1)]
    return Element.from_monomials(G, 4, 8, terms)


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
    return Element.from_monomials(G, 5, 9, terms)
