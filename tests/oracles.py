"""Independent brute-force oracles used to freeze and cross-check expectations.

These deliberately avoid the library's bit tricks: binomial parity comes from
math.comb and explicit power-series arithmetic, the square action is an
itertools enumeration over compositions, bases are itertools compositions
(canonicalised for the orbit kinds), and action matrices are built
monomial by monomial.  The gamma-sym action keeps its old path, on its
own plain Cartan recursion: expand, then sort and cancel.  Partition counts
keep the old part-by-part recurrence.  Homotopy chains keep their old nested
shifts, each one canonicalised and toggled, and the first square that does
not kill a chain's input comes from naive passes, one square at a time.
Element JSON keeps its old per-monomial parse.  The reference elimination
at the end is the slow dense-scan algorithm that the library's single
sparse core must match basis for basis.
"""

import functools
import itertools
import math

from sqhit.modules import Element, ModuleKind


def series_binom_mod2(a: int, i: int) -> int:
    """Coefficient of x^i in (1+x)^a over F_2 by direct series arithmetic."""
    if i < 0:
        return 0
    if a >= 0:
        return math.comb(a, i) % 2 if i <= a else 0
    # Invert (1+x)^(-a) as a power series mod 2, term by term.
    m = -a
    p = [math.comb(m, j) % 2 if j <= m else 0 for j in range(i + 1)]
    inv = [1] + [0] * i
    for n in range(1, i + 1):
        acc = 0
        for j in range(1, n + 1):
            acc ^= p[j] & inv[n - j]
        inv[n] = acc
    return inv[i]


def sym_canonical(t: tuple) -> tuple:
    """Symmetric-orbit representative: the entries sorted non-increasing."""
    return tuple(sorted(t, reverse=True))


def cyc_canonical(t: tuple) -> tuple:
    """Cyclic-orbit representative: the lexicographically greatest rotation."""
    return max((t[i:] + t[:i] for i in range(len(t))), default=t)


def gamma_basis(s: int, d: int) -> tuple:
    """Compositions of d into s >= 1 positive parts by brute force (cut
    points from itertools), sorted."""
    if d < s:
        return ()
    comps = []
    for cuts in itertools.combinations(range(1, d), s - 1):
        bounds = (0,) + cuts + (d,)
        comps.append(tuple(b - a for a, b in zip(bounds, bounds[1:])))
    return tuple(sorted(comps))


def orbit_basis(kind: ModuleKind, s: int, d: int) -> tuple:
    """Orbit representatives by brute force: canonicalise every composition
    of d into s >= 1 positive parts, then sort."""
    canon = {ModuleKind.GAMMA_SYM: sym_canonical, ModuleKind.GAMMA_CYC: cyc_canonical}[kind]
    return tuple(sorted({canon(t) for t in gamma_basis(s, d)}))


def partitions_at_most(n: int, k: int, cap) -> int:
    """Partitions of n >= 0 into at most k parts, or cap + 1 once they pass
    cap, counted part size by part size; the count only grows."""
    ways = [1] + [0] * n
    for part in range(1, min(k, n) + 1):
        for i in range(part, n + 1):
            ways[i] += ways[i - part]
        if ways[n] > cap:
            return cap + 1
    return ways[n]


@functools.lru_cache(maxsize=None)
def plain_sq_terms(entries: tuple, l: int) -> tuple:
    """The gamma terms of [entries]Sq^l by the Cartan formula, one entry at
    a time: the first entry a takes i, with coefficient gamma_coeff(a, i),
    and the rest takes l - i.  Distinct i give distinct first entries, so
    no term repeats."""
    if not entries:
        return ((),) if l == 0 else ()
    a, rest = entries[0], entries[1:]
    return tuple((a - i,) + t for i in range(l + 1) if gamma_coeff(a, i)
                 for t in plain_sq_terms(rest, l - i))


def sym_sq_support(entries: tuple, l: int) -> frozenset:
    """gamma-sym support of [entries]Sq^l the way sqhit.modules built it
    before it split off the largest part: the plain gamma Cartan expansion,
    each term sorted, and terms that sort alike cancelled mod 2."""
    out = set()
    for t in plain_sq_terms(entries, l):
        out ^= {sym_canonical(t)}
    return frozenset(out)


def cyc_sq_support(entries: tuple, l: int) -> frozenset:
    """gamma-cyc support of [entries]Sq^l: the plain gamma Cartan expansion,
    each term rotated to its lex-greatest rotation by brute force, and terms
    that land in one necklace cancelled mod 2."""
    out = set()
    for t in plain_sq_terms(entries, l):
        out ^= {cyc_canonical(t)}
    return frozenset(out)


def gamma_action_rows(s: int, d: int, l: int, support=None, kind=ModuleKind.GAMMA) -> tuple:
    """(rows, cols, packed rows) of Sq^l from (s, d) to (s, d - l) of a
    positive kind (gamma by default), monomial by monomial: row u has bit j
    set when codomain monomial j is in the support of (domain monomial
    u)Sq^l.  support(entries, l) gives that support; by default this
    module's own gamma Cartan expansion, plain_sq_terms, so an orbit kind
    needs its support given."""
    if support is None:
        support = plain_sq_terms

    def piece(s, d):
        if s == 0:
            return ((),) if d == 0 else ()
        return gamma_basis(s, d) if kind is ModuleKind.GAMMA else orbit_basis(kind, s, d)

    dom = piece(s, d)
    cod = piece(s, d - l) if d - l >= 0 else ()
    index = {t: j for j, t in enumerate(cod)}
    rows = []
    for m in dom:
        bits = 0
        for t in support(m, l):
            bits |= 1 << index[t]
        rows.append(bits)
    return len(dom), len(cod), tuple(rows)


def gamma_coeff(a: int, i: int) -> int:
    b = a - i
    if i == 0:
        return 1
    if b < 1 or b < i:
        return 0
    return math.comb(b, i) % 2


def naive_sq(x: Element, l: int) -> Element:
    """Per-composition Cartan expansion, no memoization or sharing."""
    if l == 0:
        return x
    plain_kind = ModuleKind.NABLA if x.kind is ModuleKind.NABLA else ModuleKind.GAMMA
    acc = set()
    for entries in x.support:
        s = len(entries)
        for comp in itertools.product(range(l + 1), repeat=s):
            if sum(comp) != l:
                continue
            coeff = 1
            out = []
            for a, i in zip(entries, comp):
                c = series_binom_mod2(a - i, i) if plain_kind is ModuleKind.NABLA else gamma_coeff(a, i)
                if not c:
                    coeff = 0
                    break
                out.append(a - i)
            if not coeff:
                continue
            t = tuple(out)
            if x.kind is ModuleKind.GAMMA_SYM:
                t = sym_canonical(t)
            elif x.kind is ModuleKind.GAMMA_CYC:
                t = cyc_canonical(t)
            if t in acc:
                acc.discard(t)
            else:
                acc.add(t)
    return Element.from_monomials(x.kind, x.s, x.d - l, acc)


# --- Element JSON ---------------------------------------------------------------
# sqhit.modules.element_from_json as it was before its whole-list passes:
# each monomial is checked and toggled in, then Element checks the terms,
# and a repeat shows as a support smaller than the list.


def json_element(obj: dict) -> Element:
    """Parse element JSON one monomial at a time."""
    if not isinstance(obj, dict):
        raise ValueError("element JSON must be an object")
    missing = {"kind", "s", "d", "monomials"} - set(obj)
    if missing:
        raise ValueError(f"element JSON missing keys: {sorted(missing)}")
    kind = {k.value: k for k in ModuleKind}.get(obj["kind"]) if isinstance(obj["kind"], str) else None
    if kind is None:
        raise ValueError(f"unknown kind tag {obj['kind']!r}")
    s, d = obj["s"], obj["d"]
    if type(s) is not int or type(d) is not int:
        raise ValueError("s and d must be integers")
    if s < 0:
        raise ValueError(f"arity s={s} must be >= 0")
    if d < 0 and kind is not ModuleKind.NABLA:
        raise ValueError(f"degree d={d} must be >= 0 for {kind.value}")
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


# --- Homotopy chains ------------------------------------------------------------
# sqhit.homotopy as it was before its chains took one shift per step: each
# shift canonicalises every term and toggles it into a new element, and
# y_i is rebuilt from x by i + 1 nested shifts.


def toggled_shift(x: Element, i: int, r: int) -> Element:
    """Add r to entry i of every term, canonicalise orbit kinds with this
    module's own forms, and toggle the terms into an element."""
    canon = {ModuleKind.GAMMA_SYM: sym_canonical, ModuleKind.GAMMA_CYC: cyc_canonical}.get(x.kind)
    out = []
    for m in x.support:
        e = list(m)
        e[i - 1] += r
        t = tuple(e)
        if canon is not None:
            t = canon(t)
        out.append(t)
    return Element.from_monomials(x.kind, x.s, x.d + r, out)


def nested_chain(x: Element, order: int, position: int) -> list:
    """y_i = x psi^(2^i) ... psi^2 psi^1 for i = 0..order, each from x."""
    chain = []
    for i in range(order + 1):
        y = x
        for m in range(i, -1, -1):
            y = toggled_shift(y, position, 1 << m)
        chain.append(y)
    return chain


def first_unkilled(x: Element, order: int):
    """The least i <= order with x Sq^(2^i) != 0 by the naive expansion,
    or None when every such square kills x."""
    for i in range(order + 1):
        if not naive_sq(x, 1 << i).is_zero():
            return i
    return None


def null_monomial(kind: ModuleKind, order: int, position: int, e: tuple) -> bool:
    """The null-subspace condition on one monomial, kind by kind, read term
    by term."""
    bound = 1 << order
    if kind is ModuleKind.NABLA:
        return True
    if kind is ModuleKind.GAMMA:
        return e[position - 1] >= bound
    if len(e) < 2:
        return e[0] >= bound
    if kind is ModuleKind.GAMMA_SYM:
        return e[0] - e[1] >= bound
    return all(e[0] - e[j] > bound for j in range(1, len(e)))


# --- Reference elimination ----------------------------------------------------
# The loops sqhit.f2linalg used before its single semi-echelon core, kept
# as they were: every incoming row is reduced against every echelon row.
# They work on packed int rows and return packed ints.


def _lowest_bit(x: int) -> int:
    return (x & -x).bit_length() - 1


def apply(m, bits):
    """The right action v*M of a BitMatrix: bit i of v picks row i of M."""
    out = 0
    for i, row in enumerate(m.data):
        if bits >> i & 1:
            out ^= row
    return out


def rref_rows(rows):
    """In-place style Gauss-Jordan on packed rows; returns sorted RREF rows."""
    work = list(rows)
    echelon = []
    for r in work:
        for e in echelon:
            p = _lowest_bit(e)
            if (r >> p) & 1:
                r ^= e
        if r == 0:
            continue
        p = _lowest_bit(r)
        for i, e in enumerate(echelon):
            if (e >> p) & 1:
                echelon[i] = e ^ r
        echelon.append(r)
    echelon.sort(key=_lowest_bit)
    return tuple(echelon)


def kernel_rows(data):
    """RREF basis of the left kernel of the matrix with rows data."""
    n = len(data)
    # Track row combinations through elimination: pairs (value, combo).
    echelon = []
    kernel = []
    for i in range(n):
        val, combo = data[i], 1 << i
        for ev, ec in echelon:
            p = _lowest_bit(ev)
            if (val >> p) & 1:
                val ^= ev
                combo ^= ec
        if val == 0:
            kernel.append(combo)
        else:
            echelon.append((val, combo))
    return rref_rows(kernel)


def intersect_rows(a_basis, b_basis, n):
    """RREF basis of the intersection via the Zassenhaus trick on stacked
    (x|x) and (y|0) rows."""
    stacked = [r | (r << n) for r in a_basis] + [r for r in b_basis]
    mask = (1 << n) - 1
    result = [row >> n for row in rref_rows(stacked) if row & mask == 0]
    return rref_rows(result)


def solve_rows(data, target):
    """Packed v with v*M = target for the matrix with rows data, or None."""
    echelon = []
    for i in range(len(data)):
        val, combo = data[i], 1 << i
        for ev, ec in echelon:
            p = _lowest_bit(ev)
            if (val >> p) & 1:
                val ^= ev
                combo ^= ec
        if val:
            echelon.append((val, combo))
    residue, combo = target, 0
    for ev, ec in echelon:
        p = _lowest_bit(ev)
        if (residue >> p) & 1:
            residue ^= ev
            combo ^= ec
    if residue:
        return None
    return combo


def reduce_rows(basis, bits):
    """Reduce a packed vector against an echelon basis; zero iff contained."""
    for row in basis:
        p = _lowest_bit(row)
        if (bits >> p) & 1:
            bits ^= row
    return bits
