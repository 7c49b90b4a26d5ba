"""Independent brute-force oracles used to freeze and cross-check expectations.

These deliberately avoid the library's bit tricks: binomial parity comes from
math.comb and explicit power-series arithmetic, and the square action is an
itertools enumeration over compositions.  The reference elimination at the
end is the slow dense-scan algorithm that the library's single sparse core
must match basis for basis.
"""

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


# --- Reference elimination ----------------------------------------------------
# The loops sqhit.f2linalg used before its single semi-echelon core, kept
# as they were: every incoming row is reduced against every echelon row.
# They work on packed int rows and return packed ints.


def _lowest_bit(x: int) -> int:
    return (x & -x).bit_length() - 1


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
