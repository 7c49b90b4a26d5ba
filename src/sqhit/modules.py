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

import math
from bisect import bisect_left
from collections import Counter, defaultdict
from enum import Enum
from functools import lru_cache
from itertools import chain
from operator import eq, neg
from typing import Collection, Iterable, List, NamedTuple, Optional, Tuple


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
    # The lex-greatest rotation starts with the largest entry; when that
    # entry is unique it is the one rotation to build.
    top = max(entries)
    if entries.count(top) == 1:
        i = entries.index(top)
        return entries[i:] + entries[:i]
    return max(entries[i:] + entries[:i] for i, a in enumerate(entries) if a == top)


# The one place that picks the canonical entry tuple of an orbit kind.
_ORBIT_CANONICAL = {ModuleKind.GAMMA_SYM: _sym_canonical, ModuleKind.GAMMA_CYC: _cyc_canonical}


def _check_kind(kind) -> None:
    """Refuse a kind that is not a ``ModuleKind``.  A member equals its
    string tag, so only the type tells "gamma" from ``ModuleKind.GAMMA``."""
    if type(kind) is not ModuleKind:
        raise ValueError(f"kind {kind!r} is not a ModuleKind")


def monomial_str(kind: ModuleKind, entries: Tuple[int, ...]) -> str:
    """A monomial as it is printed, e.g. ``gamma[1, 2]``."""
    return f"{kind.value}{list(entries)}"


def _frozen(terms: Iterable) -> frozenset:
    """The frozenset of terms, a repeat kept once, sized as every support
    the library returns is: copied from a set, its table is sized for its
    length.  By sys.getsizeof on Python 3.11, one grown from an iterator is
    at most about 2x as large, and at 16-18, 64-76 and 256-306 terms the
    copy is about 2x the grown one instead."""
    return frozenset({*terms})


def _odd(terms: Iterable) -> frozenset:
    """The terms that occur an odd number of times: their sum mod 2."""
    return _frozen(t for t, n in Counter(terms).items() if n & 1)


def _project(terms: Collection[Tuple[int, ...]], canon) -> frozenset:
    """The sum mod 2 of the orbits of distinct terms under canon, which is
    their projection to the orbit quotient.  Most supports meet no orbit
    twice, so the orbits are counted only when some do."""
    out = frozenset(map(canon, terms))
    return out if len(out) == len(terms) else _odd(map(canon, terms))


# Entry types that sort and sum with ints.  Element holds plain ints only
# (a bool is an int subclass, and JSON writes it as true or false).
_NUMBERS = {int, bool, float}


def _check_arity(s) -> None:
    if type(s) is not int:
        raise ValueError(f"arity s={s!r} must be a plain int")
    if s < 0:
        raise ValueError(f"arity s={s} must be >= 0")


def _square_index(l) -> int:
    if type(l) is not int or l < 0:
        raise ValueError("negative square index" if type(l) is int else f"square index l={l!r} must be a plain int")
    return l


def _check_degree(d) -> None:
    if type(d) is not int:
        raise ValueError(f"degree d={d!r} must be a plain int")


def _check_tuples(terms: Collection) -> None:
    """The tuple rule, run before any term is hashed: a list would not hash.
    Terms of different types need not sort, so the least repr names one."""
    if not {*map(type, terms)} <= {tuple}:
        raise ValueError(f"terms must be tuples: {min(repr(t) for t in terms if type(t) is not tuple)}")


class _ElementFields(NamedTuple):
    kind: ModuleKind
    s: int
    d: int
    support: frozenset


class Element(_ElementFields):
    """Finite F_2-sum of monomials of one kind, arity and internal degree.

    The support is a frozenset of entry tuples.  This constructor checks
    the kind, that the support is a frozenset (a list or set would keep
    duplicates or not hash), that every term is a tuple, that s, d and
    every entry are plain ints (no bool or float), s >= 0 and each term
    against the kind, arity and degree; the library's operations, whose
    terms are well-formed by construction, build with ``_make`` and skip
    the checks.  Degrees are
    exact, zeros included: ``+`` needs equal kind, arity and degree, and
    ``==`` compares all four fields.
    """

    __slots__ = ()

    def __new__(cls, kind: ModuleKind, s: int, d: int, support: frozenset):
        _check_kind(kind)
        if type(support) is not frozenset:
            raise ValueError(f"support must be a frozenset, not {type(support).__name__}")
        _check_arity(s)
        _check_tuples(support)
        positive = kind in POSITIVE_KINDS
        canon = _ORBIT_CANONICAL.get(kind)
        # Each check is one pass over the whole support, the entry types
        # first so that sum and min meet ints only.  The loops below run
        # only when a pass fails, to name the least failing term, so the
        # message does not hang on the order the set was built in.
        if not ({*map(type, chain.from_iterable(support))} <= {int}
                and type(d) is int
                and {*map(len, support)} <= {s}
                and {*map(sum, support)} <= {d}
                and (not positive or min(chain.from_iterable(support), default=1) >= 1)
                and (canon is None or all(map(eq, map(canon, support), support)))):
            # Terms of numbers sort and sum together, bools and floats too.
            for t in sorted(t for t in support if {*map(type, t)} <= _NUMBERS):
                if len(t) != s or sum(t) != d:
                    raise ValueError(f"monomial {monomial_str(kind, t)} inconsistent with element ({kind.value},{s},{d})")
                if positive and min(t, default=1) < 1:
                    raise ValueError(f"{kind.value} entries must be >= 1: {monomial_str(kind, t)}")
                if canon is not None and canon(t) != t:
                    raise ValueError(f"monomial {monomial_str(kind, t)} is not canonical; expected {list(canon(t))}")
            # Mixed entry types need not compare, so the least printed form
            # names the term.
            bad = [monomial_str(kind, t) for t in support if not {*map(type, t)} <= {int}]
            if bad:
                raise ValueError(f"entries must be plain ints: {min(bad)}")
            _check_degree(d)
        return tuple.__new__(cls, (kind, s, d, support))

    @classmethod
    def zero(cls, kind: ModuleKind, s: int, d: int) -> "Element":
        return cls(kind, s, d, frozenset())

    @classmethod
    def from_monomials(cls, kind: ModuleKind, s: int, d: int, terms: Iterable[Tuple[int, ...]]) -> "Element":
        terms = list(terms)
        _check_tuples(terms)
        return cls(kind, s, d, _odd(terms))

    @classmethod
    def single(cls, kind: ModuleKind, entries: Tuple[int, ...]) -> "Element":
        # An entry that is no number has no degree to sum; the constructor
        # refuses its term by name whatever d is.
        _check_tuples((entries,))
        d = sum(entries) if {*map(type, entries)} <= _NUMBERS else 0
        return cls(kind, len(entries), d, frozenset([entries]))

    def is_zero(self) -> bool:
        return not self.support

    def __add__(self, other: "Element") -> "Element":
        if self.kind is not other.kind or self.s != other.s:
            raise ValueError("cannot add elements of different kind or arity")
        if self.d != other.d:
            raise ValueError("cannot add elements of different degree")
        return Element._make((self.kind, self.s, self.d, self.support ^ other.support))

    def sorted_support(self) -> List[Tuple[int, ...]]:
        return sorted(self.support)

    def __repr__(self):
        if self.is_zero():
            return f"0({self.kind.value},{self.s},{self.d})"
        return " + ".join(monomial_str(self.kind, t) for t in self.sorted_support())


class InternalInconsistencyError(RuntimeError):
    """A construction that is guaranteed to succeed failed; indicates a bug."""


class ExpansionTooLarge(Exception):
    """An expansion spent its context's allowance of Cartan steps."""


# Expansions.support (the gamma-sym split on the largest part included)
# recurses one level per entry and hit.sq_matrix one level per arity, so
# larger arities are refused well before Python's recursion limit of 1000:
# by both, through _check_max_arity, and by every command that takes --s or an
# element.
MAX_ARITY = 256


def _check_max_arity(s: int) -> None:
    if s > MAX_ARITY:
        raise ValueError(f"arity s={s} exceeds the largest supported arity {MAX_ARITY}")


class Expansions:
    """A context of monomial expansions: their memos, and the allowance of
    Cartan steps they may still take; every memo read and every charge is
    the current context's, ``EXPANSIONS``.  ``with Expansions(n):`` makes a
    fresh one current for one block at a time and restores the one it
    replaced however the block ends, so the n steps are the block's own
    budget.  ``outer`` stacks the contexts it replaced, so it may be entered
    again, inside its own block too.

    ``tables[kind][l]`` is a plain dict from entry tuples to the support of
    [entries]Sq^l in that kind, for gamma, nabla and gamma-sym.  gamma-cyc has
    no table: a necklace's square is its representative's plain gamma square
    projected to necklaces, which reads the gamma table.  Every square of a
    monomial goes through ``support``, the one code that reads ``tables``.  It
    keeps every tail it recurses into, but the support it was asked for only if
    the caller asks: ``sq`` does, as its terms repeat, while the memo misses
    of ``homotopy.preimage_chain`` pack theirs at once, and so do the
    gamma-cyc rows of ``hit.sq_matrix``, which ask for the plain gamma
    support and set or clear the bit of each term's necklace themselves.
    A support it builds is a set copied into a frozenset, sized as
    ``_frozen`` sizes every support the library returns; a gamma-cyc
    projection is not resized, as its caller packs it into a mask, or sums
    it, at once.  Each expansion that misses its
    table charges the allowance: the loop steps, counted before the loop runs,
    and the entries of the terms they build, so the work done before a refusal
    does not grow with the arity.

    ``terms[kind, s, d]`` serves ``element_from_json``: it maps each term
    that has passed ``Element``'s checks for that piece to the one tuple
    that stands for it, so that decoded elements of one piece share their
    equal terms and each distinct term is checked once.  It holds only
    valid terms of the piece, so for a positive kind it is at most as
    large as the piece's basis.  It lives as long as the context, and a
    refused decode adds nothing to it.

    ``pieces`` holds every other memo that grows with a piece.  ``piece``
    keeps build(kind, s, d) there under (build, kind, s, d): each ``basis``,
    and ``hit``'s basis indices.  A module that fills a memo of
    its own there keys it by one of its private functions, which documents
    it.  So a fresh context is as empty as a fresh process: only
    ``_sym_count`` and ``homotopy._null_condition`` cache across contexts,
    as their values (one int, one predicate a key) do not grow with a piece.
    """

    __slots__ = ("allowance", "tables", "terms", "pieces", "outer")

    def __init__(self, allowance=math.inf):
        self.allowance = allowance
        self.tables = {kind: defaultdict(dict) for kind in ModuleKind if kind is not ModuleKind.GAMMA_CYC}
        self.terms = {}
        self.pieces = {}
        self.outer = []

    def __enter__(self) -> "Expansions":
        global EXPANSIONS
        self.outer.append(EXPANSIONS)
        EXPANSIONS = self
        return self

    def __exit__(self, *exc) -> None:
        global EXPANSIONS
        EXPANSIONS = self.outer.pop()

    def charge(self, steps: int) -> None:
        self.allowance -= steps
        if self.allowance < 0:
            raise ExpansionTooLarge

    def piece(self, build, kind: ModuleKind, s: int, d: int):
        """build(kind, s, d), kept in ``pieces`` from its first call."""
        key = build, kind, s, d
        if key not in self.pieces:
            self.pieces[key] = build(kind, s, d)
        return self.pieces[key]

    def support(self, kind: ModuleKind, entries: Tuple[int, ...], l: int, keep: bool = True) -> frozenset:
        """The support of [entries]Sq^l in kind, from its table or expanded,
        its tails kept there and itself only with keep; in gamma-cyc, the
        gamma support projected to necklaces.  A miss above ``MAX_ARITY``
        is refused with ValueError before it expands anything.

        An expansion is the Cartan formula on the first entry a, whose
        shared tails are reused from the tables: entry tuples for gamma and
        nabla, partitions for gamma-sym.  The terms are C(a - i, i)(a - i | t)
        over the terms t of [rest]Sq^(l - i).  In gamma and nabla distinct
        splits give distinct first entries, so nothing cancels.

        A gamma-sym partition splits on its largest part, and rest is a
        partition too.  Sorting (a - i | t) inserts a - i into sorted(t), so
        the parity of the plain terms that sort to each partition is that of
        the gamma-sym support of [rest]Sq^(l - i) with a - i inserted.  For
        one i the insertion is one-to-one; across i terms may meet and
        cancel mod 2.  It serves element-level ``sq`` only (the ``sq``
        command, preimage chains); ``hit.sq_matrix`` builds gamma-sym
        matrices from blocks.
        """
        if kind is ModuleKind.GAMMA_CYC:
            return _project(self.support(ModuleKind.GAMMA, entries, l, keep), _cyc_canonical)
        tables = self.tables[kind]
        out = tables[l].get(entries)
        if out is not None:
            return out
        _check_max_arity(len(entries))  # before the recursion and any charge
        if not entries:
            return frozenset([()]) if l == 0 else frozenset()
        a, rest = entries[0], entries[1:]
        nabla, sym = kind is ModuleKind.NABLA, kind is ModuleKind.GAMMA_SYM
        out = set()
        # The last entry takes what is left of l, in one step; a positive
        # entry a tries only the i <= a - 1 that keep it >= 1.
        top = l if nabla else min(l, a - 1)
        self.charge(top + 1 if rest else 1)
        for i in range(top + 1) if rest else (l,):
            b = a - i
            if not (gen_binom_mod2(b, i) if nabla else b >= 1 and binom_mod2(b, i)):
                continue
            tails = tables[l - i].get(rest)
            if tails is None:
                tails = self.support(kind, rest, l - i)
            self.charge(len(tails) * len(entries))
            if sym:  # rest is non-increasing, so b goes before the first entry below it
                out ^= {t[:j] + (b,) + t[j:] for t in tails for j in (bisect_left(t, -b, key=neg),)}
            else:
                out.update((b,) + t for t in tails)
        out = frozenset(out)
        if keep:
            tables[l][entries] = out
        return out


EXPANSIONS = Expansions()


def sq(x: Element, l: int) -> Element:
    """Total right action of Sq^l on an element: the sum mod 2 of
    ``Expansions.support`` over its terms in the current context, whose
    allowance they charge (see ``Expansions``).  For gamma-cyc each term's
    square is projected to necklaces on its own, which gives the same sum
    since projection is linear mod 2."""
    if _square_index(l) == 0:
        return x
    if x.kind in POSITIVE_KINDS and l > x.d - x.s:
        # Every entry stays >= 1, so no term reaches degree d - l < s.
        return Element._make((x.kind, x.s, x.d - l, frozenset()))
    acc: set = set()
    for t in x.support:
        acc ^= EXPANSIONS.support(x.kind, t, l)
    return Element._make((x.kind, x.s, x.d - l, frozenset(acc)))


def _compositions(d: int, s: int, cap: int, nonincreasing: bool = False):
    """Tuples of s entries in 1..cap summing to d, ascending lexicographic;
    with nonincreasing, only the partitions (entries never increase), whose
    entry at each position is at least the ceiling of what is left over the
    positions left.  Every entry tried at a position extends to a whole
    tuple.  One list is stepped in place, so no depth grows with s."""
    if s == 0:
        if d == 0:
            yield ()
        return
    if not s <= d <= s * cap:
        return
    t, high = [0] * s, [0] * s
    i, rem = 0, d
    while True:
        while i < s:  # fill positions i.. with their least entries
            parts = s - i
            c = t[i - 1] if nonincreasing and i else cap
            t[i] = max(1, -(-rem // parts)) if nonincreasing else max(1, rem - (parts - 1) * c)
            high[i] = min(c, rem - parts + 1)
            rem -= t[i]
            i += 1
        yield tuple(t)
        # Step the rightmost entry still below its high end; refill after it.
        i -= 1
        while t[i] == high[i]:
            rem += t[i]
            i -= 1
            if i < 0:
                return
        t[i] += 1
        rem -= 1
        i += 1


def _necklaces(d: int, s: int):
    """Lex-greatest rotations of the compositions of d into s parts, ascending
    lexicographic.  Such a rotation starts with its maximum a, so only the
    compositions (a, rest) with rest in 1..a are tried."""
    for a in range(max(1, -(-d // s)), d - s + 2):
        for rest in _compositions(d - a, s - 1, a):
            t = (a,) + rest
            if _cyc_canonical(t) == t:
                yield t


def _finite_piece(b: Bidegree, kind: ModuleKind) -> Bidegree:
    """The bidegree of a graded piece that has a finite basis, or ValueError."""
    _check_kind(kind)
    if kind is ModuleKind.NABLA:
        raise ValueError(f"nabla bidegree (s,d)=({b.s},{b.d}): its graded piece is infinite")
    if b.s < 0 or b.d < 0:
        raise ValueError(f"{kind.value} bidegree (s,d)=({b.s},{b.d}) out of range: s and d must be >= 0")
    return b


def basis(b: Bidegree, kind: ModuleKind) -> Tuple[Tuple[int, ...], ...]:
    """The fixed coordinate basis of one graded piece, in ascending
    lexicographic order of entry tuples: compositions for gamma; for
    gamma-sym the partitions, entries non-increasing; for gamma-cyc the
    necklaces, each its own lex-greatest rotation.  Checked before the
    memo is read, "gamma" is refused whatever the memo holds."""
    s, d = _finite_piece(b, kind)
    return EXPANSIONS.piece(_enumerate, kind, s, d)


def _enumerate(kind: ModuleKind, s: int, d: int) -> Tuple[Tuple[int, ...], ...]:
    if s == 0:
        return ((),) if d == 0 else ()
    if kind is ModuleKind.GAMMA:
        return tuple(_compositions(d, s, d))
    if kind is ModuleKind.GAMMA_SYM:
        return tuple(_compositions(d, s, d, nonincreasing=True))
    return tuple(_necklaces(d, s))


@lru_cache(maxsize=None)
def _sym_count(n: int, k: int) -> int:
    """Partitions of n >= 0 into at most k parts, for ``basis_size``;
    ``hit`` reads its counts off offsets of its own.  They are the
    coefficient of x^n in the product over i = 1..k of 1 / (1 - x^i),
    built one factor at a time."""
    coef = [1] + [0] * n
    for i in range(1, k + 1):
        for j in range(i, n + 1):  # over 1 - x^i
            coef[j] += coef[j - i]
    return coef[n]


def _binomial(n: int, k: int, cap) -> int:
    """C(n, k), or cap + 1 once it passes cap.  C(n, j) grows with j up to
    n/2 and at least doubles, so at most log2(cap) + 1 steps run."""
    k = min(k, n - k)
    c = 1
    for j in range(k):
        c = c * (n - j) // (j + 1)
        if c > cap:
            return cap + 1
    return c


def basis_size(b: Bidegree, kind: ModuleKind, limit: Optional[int] = None) -> int:
    """len(basis(b, kind)), counted without enumerating; with a limit,
    min(len, limit + 1), and the work stays small however large b is.

    gamma: C(d-1, s-1) compositions.  gamma-sym: the partitions of
    n = d - s into at most s parts (take 1 from each part), k = min(s, n)
    of them nonzero: 1 for k = 1, n // 2 + 1 for k = 2, else
    ``_sym_count(n, k)``, after two lower bounds refuse a count past the
    limit: at least (n+3)^2 // 12 partitions into at most three parts, and
    for k >= 4 at least C(n+3, 3) / 24 into at most four, as each gives at
    most 4! compositions of n into four parts >= 0.  gamma-cyc: by Burnside,
    (1/s) * sum over j | gcd(s, d) of phi(j) * C(d/j - 1, s/j - 1) necklaces.
    """
    s, d = _finite_piece(b, kind)
    cap = math.inf if limit is None else limit
    if s == 0 or d <= s:
        return int(d == s)
    if kind is ModuleKind.GAMMA:
        return _binomial(d - 1, s - 1, cap)
    if kind is ModuleKind.GAMMA_SYM:
        n = d - s
        k = min(s, n)
        if k <= 2:
            return 1 if k == 1 else min(n // 2 + 1, cap + 1)
        if (n + 3) ** 2 // 12 > cap or k > 3 and math.comb(n + 3, 3) > 24 * cap:
            return cap + 1
        return min(_sym_count(n, k), cap + 1)
    # The j = 1 term alone is at most s times the count.
    if _binomial(d - 1, s - 1, s * cap) > s * cap:
        return cap + 1
    # phi over the divisors of g = gcd(s, d), ascending: phi(j) = j minus
    # the phi of the smaller divisors of j, since they sum to j (Gauss).
    g, phi = math.gcd(s, d), {}
    for j in sorted({k for i in range(1, math.isqrt(g) + 1) if g % i == 0 for k in (i, g // i)}):
        phi[j] = j - sum(f for k, f in phi.items() if j % k == 0)
    fixed = sum(f * math.comb(d // j - 1, s // j - 1) for j, f in phi.items())
    return min(fixed // s, cap + 1)


def concat_product(x: Element, y: Element) -> Element:
    """Bilinear extension of monomial concatenation; arities and degrees add.
    A product term splits back into its factors at x.s, so none cancels."""
    if x.kind is not ModuleKind.GAMMA or y.kind is not ModuleKind.GAMMA:
        raise ValueError("concatenation product is defined on gamma elements only")
    support = _frozen(m + n for m in x.support for n in y.support)
    return Element._make((ModuleKind.GAMMA, x.s + y.s, x.d + y.d, support))


def project_to_orbit(x: Element, kind: ModuleKind) -> Element:
    """Push a gamma element to an orbit quotient; coincident orbits cancel mod 2."""
    if x.kind is not ModuleKind.GAMMA:
        raise ValueError("projection starts from a gamma element")
    if kind not in ORBIT_KINDS:
        raise ValueError("target must be an orbit kind")
    return Element._make((kind, x.s, x.d, _odd(map(_ORBIT_CANONICAL[kind], x.support))))


# --- JSON interchange -------------------------------------------------------

_KIND_BY_TAG = {k.value: k for k in ModuleKind}


def element_to_json(x: Element) -> dict:
    """The element as a dict for ``json.dumps``.  Its monomials are the
    support's own entry tuples in sorted order, which ``json.dumps`` writes
    as arrays: no list is copied per monomial.  Parsed JSON holds lists,
    and only lists go back through ``element_from_json``."""
    return {"kind": x.kind.value, "s": x.s, "d": x.d, "monomials": x.sorted_support()}


def element_from_json(obj: dict) -> Element:
    """The element that parsed element JSON stands for; decoded elements of
    one piece share their equal terms through ``EXPANSIONS.terms``.

    Refusals, each a ValueError, in order: no object, a missing key, an
    unknown kind, s or d not a plain int, s < 0, d < 0 for a positive kind,
    monomials not a list, the first monomial in input order that is not a
    list of plain ints, a term left once repeats cancel mod 2 that fails
    ``Element``'s checks, a repeat, then the least term that fails them, by
    ``Element``'s rule.  A refused decode leaves the table unchanged.
    """
    if not isinstance(obj, dict):
        raise ValueError("element JSON must be an object")
    missing = {"kind", "s", "d", "monomials"} - set(obj)
    if missing:
        raise ValueError(f"element JSON missing keys: {sorted(missing)}")
    kind = _KIND_BY_TAG.get(obj["kind"]) if isinstance(obj["kind"], str) else None
    if kind is None:
        raise ValueError(f"unknown kind tag {obj['kind']!r}")
    s, d = obj["s"], obj["d"]
    # type() and not isinstance(): JSON true/false load as bool, an int subclass.
    if type(s) is not int or type(d) is not int:
        raise ValueError("s and d must be integers")
    if s < 0:
        raise ValueError(f"arity s={s} must be >= 0")
    if d < 0 and kind in POSITIVE_KINDS:
        raise ValueError(f"degree d={d} must be >= 0 for {kind.value}")
    monos = obj["monomials"]
    if not isinstance(monos, list):
        raise ValueError("monomials must be a list")
    # Whole-list passes before any lookup: (1.0, 2) and (True, 2) hash and
    # compare equal to (1, 2).
    if not ({*map(type, monos)} <= {list} and {*map(type, chain.from_iterable(monos))} <= {int}):
        bad = next(t for t in monos if type(t) is not list or not {*map(type, t)} <= {int})
        raise ValueError(f"bad monomial {bad!r}")
    terms = [*map(tuple, monos)]
    # A set copied into a frozenset sizes the support tightly.
    ctx, key = EXPANSIONS, (kind, s, d)
    seen = ctx.terms.get(key, {})
    support = frozenset({*map(seen.get, terms, terms)})
    if len(support) != len(monos):
        Element.from_monomials(kind, s, d, terms)
        raise ValueError("duplicate monomials in element JSON")
    fresh = Element(kind, s, d, support.difference(seen)).support
    ctx.terms.setdefault(key, seen).update(zip(fresh, fresh))
    return Element._make((kind, s, d, support))
