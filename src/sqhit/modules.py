"""Modules of monomials over F_2 with a right action of the Steenrod squares.

Four module kinds share one monomial calculus:

* ``gamma``     -- length-s monomials [a_1,...,a_s] with every a_i >= 1,
* ``nabla``     -- the same with entries ranging over all integers,
* ``gamma-sym`` -- symmetric-group orbits, stored non-increasing,
* ``gamma-cyc`` -- cyclic orbits, stored as the lex-maximal rotation.

Elements are finite F_2-sums of monomials (entry tuples) of one kind and
one bidegree; addition is symmetric difference of supports.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterable, List, NamedTuple, Tuple


class ModuleKind(str, Enum):
    GAMMA = "gamma"
    NABLA = "nabla"
    GAMMA_SYM = "gamma-sym"
    GAMMA_CYC = "gamma-cyc"


ORBIT_KINDS = (ModuleKind.GAMMA_SYM, ModuleKind.GAMMA_CYC)
POSITIVE_KINDS = (ModuleKind.GAMMA,) + ORBIT_KINDS


class Bidegree(NamedTuple):
    s: int
    d: int


def binom_mod2(a: int, b: int) -> int:
    """C(a,b) mod 2 by bit containment; 0 when out of range."""
    if a < 0 or b < 0:
        return 0
    return 1 if (a & b) == b else 0


def gen_binom_mod2(a: int, i: int) -> int:
    """Coefficient of x^i in the power series (1+x)^a over F_2, any a in Z.

    Since (1+x)^(2^N) = 1 + x^(2^N), the coefficient only depends on
    a mod 2^N once 2^N > i; reduce to a nonnegative representative.
    """
    if i < 0:
        raise ValueError("negative power-series index")
    if a >= 0:
        return binom_mod2(a, i)
    return binom_mod2(a % (1 << i.bit_length()), i)


def _sym_canonical(entries: Tuple[int, ...]) -> Tuple[int, ...]:
    return tuple(sorted(entries, reverse=True))


def _cyc_canonical(entries: Tuple[int, ...]) -> Tuple[int, ...]:
    if len(entries) <= 1:
        return entries
    return max(entries[i:] + entries[:i] for i in range(len(entries)))


# The one place that picks the canonical entry tuple of an orbit kind.
_ORBIT_CANONICAL = {ModuleKind.GAMMA_SYM: _sym_canonical, ModuleKind.GAMMA_CYC: _cyc_canonical}


def monomial_str(kind: ModuleKind, entries: Tuple[int, ...]) -> str:
    """A monomial as it is printed, e.g. ``gamma[1, 2]``."""
    return f"{kind.value}{list(entries)}"


def _toggle(acc: set, item) -> None:
    if item in acc:
        acc.discard(item)
    else:
        acc.add(item)


@dataclass(frozen=True)
class Element:
    """Finite F_2-sum of monomials of one kind, arity and internal degree.

    The support is a frozenset of entry tuples; this constructor is the one
    place that checks them against the kind, arity and degree.

    A zero element carries a nominal degree; addition lets a zero absorb
    the other side's degree so bookkeeping never blocks on empty sums.
    """

    kind: ModuleKind
    s: int
    d: int
    support: frozenset

    def __post_init__(self):
        kind, s, d = self.kind, self.s, self.d
        positive = kind in POSITIVE_KINDS
        canon = _ORBIT_CANONICAL.get(kind)
        for t in self.support:
            if len(t) != s or sum(t) != d:
                raise ValueError(f"monomial {monomial_str(kind, t)} inconsistent with element ({kind.value},{s},{d})")
            if positive and min(t, default=1) < 1:
                raise ValueError(f"{kind.value} entries must be >= 1: {monomial_str(kind, t)}")
            if canon is not None and canon(t) != t:
                raise ValueError(f"monomial {monomial_str(kind, t)} is not canonical; expected {list(canon(t))}")

    @classmethod
    def zero(cls, kind: ModuleKind, s: int, d: int) -> "Element":
        return cls(kind, s, d, frozenset())

    @classmethod
    def from_monomials(cls, kind: ModuleKind, s: int, d: int, terms: Iterable[Tuple[int, ...]]) -> "Element":
        acc: set = set()
        for t in terms:
            _toggle(acc, t)
        return cls(kind, s, d, frozenset(acc))

    @classmethod
    def single(cls, kind: ModuleKind, entries: Tuple[int, ...]) -> "Element":
        return cls(kind, len(entries), sum(entries), frozenset([entries]))

    def is_zero(self) -> bool:
        return not self.support

    def __add__(self, other: "Element") -> "Element":
        if self.kind is not other.kind or self.s != other.s:
            raise ValueError("cannot add elements of different kind or arity")
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.d != other.d:
            raise ValueError("cannot add elements of different degree")
        return Element(self.kind, self.s, self.d, self.support ^ other.support)

    def same(self, other: "Element") -> bool:
        """Equality that treats all zeros of one kind/arity as equal."""
        if self.kind is not other.kind or self.s != other.s:
            return False
        if self.is_zero() or other.is_zero():
            return self.support == other.support
        return self.d == other.d and self.support == other.support

    def sorted_support(self) -> List[Tuple[int, ...]]:
        return sorted(self.support)

    def __repr__(self):
        if self.is_zero():
            return f"0({self.kind.value},{self.s},{self.d})"
        return " + ".join(monomial_str(self.kind, t) for t in self.sorted_support())


def sq_single(a: int, i: int, kind: ModuleKind) -> Element:
    """Right action of Sq^i on the arity-1 monomial [a]."""
    if i < 0:
        raise ValueError("negative square index")
    return sq(Element.single(kind, (a,)), i)


@lru_cache(maxsize=None)
def _sq_mono(nabla: bool, entries: Tuple[int, ...], l: int) -> frozenset:
    """Support (entry tuples) of [entries]Sq^l, expanded by the Cartan formula.

    Memoized on suffixes so shared tails across monomials are reused.
    Distinct splits l = i + (l - i) give distinct first entries a - i, so
    no two terms coincide and nothing cancels.
    """
    if not entries:
        return frozenset([()]) if l == 0 else frozenset()
    a = entries[0]
    rest = entries[1:]
    out: list = []
    for i in range(l + 1):
        b = a - i
        if nabla:
            if not gen_binom_mod2(b, i):
                continue
        else:
            if b < 1 or not binom_mod2(b, i):
                continue
        out.extend((b,) + t for t in _sq_mono(nabla, rest, l - i))
    return frozenset(out)


def sq_support(kind: ModuleKind, entries: Tuple[int, ...], l: int) -> frozenset:
    """Support (canonical entry tuples) of [entries]Sq^l for a monomial of
    the given kind.  Orbit kinds act through the plain representative; terms
    that land in one orbit cancel mod 2."""
    terms = _sq_mono(kind is ModuleKind.NABLA, entries, l)
    canon = _ORBIT_CANONICAL.get(kind)
    if canon is None:
        return terms
    out: set = set()
    for t in terms:
        _toggle(out, canon(t))
    return frozenset(out)


def sq(x: Element, l: int) -> Element:
    """Total right action of Sq^l on an element."""
    if l < 0:
        raise ValueError("negative square index")
    if l == 0:
        return x
    acc: set = set()
    for t in x.support:
        acc ^= sq_support(x.kind, t, l)
    return Element(x.kind, x.s, x.d - l, frozenset(acc))


def _compositions(d: int, s: int):
    """Compositions of d into s positive parts, ascending lexicographic."""
    if s == 0:
        if d == 0:
            yield ()
        return
    for first in range(1, d - s + 2):
        for rest in _compositions(d - first, s - 1):
            yield (first,) + rest


@lru_cache(maxsize=None)
def basis(b: Bidegree, kind: ModuleKind) -> Tuple[Tuple[int, ...], ...]:
    """The fixed lexicographic coordinate basis of one graded piece."""
    if kind is ModuleKind.NABLA:
        raise ValueError("nabla graded pieces are infinite; use windowed_basis")
    s, d = b
    if s < 0 or d < 0:
        raise ValueError("bidegree out of range")
    if s == 0:
        return ((),) if d == 0 else ()
    if kind is ModuleKind.GAMMA:
        return tuple(_compositions(d, s))
    canon = _ORBIT_CANONICAL[kind]
    return tuple(sorted({canon(t) for t in _compositions(d, s)}))


def windowed_basis(s: int, d: int, lo: int, hi: int) -> Tuple[Tuple[int, ...], ...]:
    """All nabla monomials of degree d with every entry in [lo,hi], lex order."""
    if lo > hi:
        raise ValueError("empty window")

    def gen(n: int, rem: int):
        if n == 0:
            if rem == 0:
                yield ()
            return
        first_lo = max(lo, rem - (n - 1) * hi)
        first_hi = min(hi, rem - (n - 1) * lo)
        for first in range(first_lo, first_hi + 1):
            for rest in gen(n - 1, rem - first):
                yield (first,) + rest

    return tuple(gen(s, d))


def concat_product(x: Element, y: Element) -> Element:
    """Bilinear extension of monomial concatenation; arities and degrees add."""
    if x.kind is not ModuleKind.GAMMA or y.kind is not ModuleKind.GAMMA:
        raise ValueError("concatenation product is defined on gamma elements only")
    s, d = x.s + y.s, x.d + y.d
    acc: set = set()
    for m in x.support:
        for n in y.support:
            _toggle(acc, m + n)
    return Element(ModuleKind.GAMMA, s, d, frozenset(acc))


def project_to_orbit(x: Element, kind: ModuleKind) -> Element:
    """Push a gamma element to an orbit quotient; coincident orbits cancel mod 2."""
    if x.kind is not ModuleKind.GAMMA:
        raise ValueError("projection starts from a gamma element")
    if kind not in ORBIT_KINDS:
        raise ValueError("target must be an orbit kind")
    canon = _ORBIT_CANONICAL[kind]
    acc: set = set()
    for t in x.support:
        _toggle(acc, canon(t))
    return Element(kind, x.s, x.d, frozenset(acc))


# --- JSON interchange -------------------------------------------------------

_KIND_BY_TAG = {k.value: k for k in ModuleKind}


def element_to_json(x: Element) -> dict:
    return {
        "kind": x.kind.value,
        "s": x.s,
        "d": x.d,
        "monomials": [list(t) for t in x.sorted_support()],
    }


def element_from_json(obj: dict) -> Element:
    if not isinstance(obj, dict):
        raise ValueError("element JSON must be an object")
    missing = {"kind", "s", "d", "monomials"} - set(obj)
    if missing:
        raise ValueError(f"element JSON missing keys: {sorted(missing)}")
    kind = _KIND_BY_TAG.get(obj["kind"])
    if kind is None:
        raise ValueError(f"unknown kind tag {obj['kind']!r}")
    s, d = obj["s"], obj["d"]
    # type() and not isinstance(): JSON true/false load as bool, an int subclass.
    if type(s) is not int or type(d) is not int:
        raise ValueError("s and d must be integers")
    monos = obj["monomials"]
    if not isinstance(monos, list):
        raise ValueError("monomials must be a list")
    out = []
    for t in monos:
        if not isinstance(t, list) or not all(type(a) is int for a in t):
            raise ValueError(f"bad monomial {t!r}")
        out.append(tuple(t))
    x = Element.from_monomials(kind, s, d, out)
    if len(x.support) != len(monos):
        raise ValueError("duplicate monomials in element JSON")
    return x
