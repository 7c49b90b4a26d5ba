"""Independent GF(2) reference for the benchmark.

Nothing here imports the program.  The reference has its own binomial
parity (Kummer's carry count), expands the Cartan formula term by term,
eliminates over GF(2) with its own highest-bit pivoting, and computes
dim I(k) by duality: n - rank of the stacked annihilators of the spike
images, never by a subspace intersection.

    python3 perfbench/reference.py          # rewrite perfbench/reference.json
    python3 perfbench/reference.py --check  # recompute and compare, write nothing

It also owns the benchmark's host-speed calibration: a fresh interpreter
that runs one fixed reference computation (``--calibration-work``).
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import subprocess
import sys
import time
from functools import lru_cache
from pathlib import Path

REFERENCE_FILE = Path(__file__).with_name("reference.json")

# Workload inputs.  The benchmark and the reference file share them.
UNHIT_QUERY = {"kind": "gamma", "s": 4, "d": 18, "k": 2}
REPORT_BOX = {"kind": "gamma-sym", "k": 1, "s_max": 6, "d_max": 24}
# (kind, s, d, k, position) systems whose Delta(k) meets the null subspace.
CHAIN_SYSTEMS = tuple(
    [("gamma", 4, 14, 0, p) for p in range(1, 5)]
    + [("gamma", 4, 16, 1, p) for p in range(1, 5)]
    + [("gamma", 4, 18, 2, p) for p in range(1, 5)]
    + [(kind, s, d, k, 1) for kind, s, d in (("gamma-sym", 5, 24), ("gamma-cyc", 4, 22))
       for k in range(3)]
)
CHAINS_PER_SYSTEM = 40
# The fixed computation whose wall time in a fresh interpreter measures how
# fast the host runs at the moment, and its median on the reference host.
CALIBRATION = ("gamma", 4, 16, 1)
CALIBRATION_NOMINAL_S = 0.19


# --- arithmetic ---------------------------------------------------------------

def _ones(n: int) -> int:
    return bin(n).count("1")


def binom_odd(a: int, b: int) -> bool:
    """C(a, b) is odd iff adding b and a-b in base 2 has no carry (Kummer)."""
    if b < 0 or b > a:
        return False
    return _ones(b) + _ones(a - b) == _ones(a)


def canonical(kind: str, t: tuple) -> tuple:
    if kind == "gamma-sym":
        return tuple(sorted(t, reverse=True))
    if kind == "gamma-cyc":
        doubled = t + t
        return max(doubled[i:i + len(t)] for i in range(len(t))) if t else t
    return t


@lru_cache(maxsize=None)
def sq_mono(kind: str, entries: tuple, l: int) -> frozenset:
    """Support of [entries]Sq^l: the Cartan sum over every split of l into
    one square per entry, [a]Sq^i = C(a-i, i)[a-i], then canonicalized."""
    out: set = set()
    s = len(entries)

    def expand(j: int, rest: int, head: tuple) -> None:
        if j == s:
            if rest == 0:
                out.symmetric_difference_update({canonical(kind, head)})
            return
        a = entries[j]
        for i in range(min(rest, a - 1) + 1):
            if binom_odd(a - i, i):
                expand(j + 1, rest - i, head + (a - i,))

    expand(0, l, ())
    return frozenset(out)


def sq_support(kind: str, support, l: int) -> frozenset:
    """Support of x Sq^l for x given by its support of entry tuples."""
    acc: set = set()
    for t in support:
        acc.symmetric_difference_update(sq_mono(kind, tuple(t), l))
    return frozenset(acc)


# --- bases and their sizes ----------------------------------------------------

def _compositions(d: int, s: int):
    for cuts in itertools.combinations(range(1, d), s - 1):
        edges = (0,) + cuts + (d,)
        yield tuple(edges[j + 1] - edges[j] for j in range(s))


def _partitions(d: int, s: int, top: int):
    """Non-increasing s-tuples of positive ints summing to d, parts <= top."""
    if s == 0:
        if d == 0:
            yield ()
        return
    for first in range(min(top, d - s + 1), 0, -1):
        if first * s < d:
            break
        for rest in _partitions(d - first, s - 1, first):
            yield (first,) + rest


@lru_cache(maxsize=None)
def basis(kind: str, s: int, d: int) -> tuple:
    """Sorted entry tuples of the coordinate basis of one graded piece."""
    if s < 1 or d < s:
        return ()
    if kind == "gamma":
        return tuple(sorted(_compositions(d, s)))
    if kind == "gamma-sym":
        return tuple(sorted(_partitions(d, s, d)))
    return tuple(sorted({canonical(kind, t) for t in _compositions(d, s)}))


@lru_cache(maxsize=None)
def partition_count(d: int, s: int) -> int:
    """Partitions of d into exactly s parts: p(d,s) = p(d-1,s-1) + p(d-s,s)."""
    if s == 0:
        return 1 if d == 0 else 0
    if d < s:
        return 0
    return partition_count(d - 1, s - 1) + partition_count(d - s, s)


def necklace_count(d: int, s: int) -> int:
    """Compositions of d into s parts up to rotation, by Burnside's lemma."""
    if s < 1 or d < s:
        return 0
    g = math.gcd(s, d)
    total = 0
    for t in range(1, g + 1):
        if g % t == 0:
            phi = sum(1 for u in range(1, t + 1) if math.gcd(u, t) == 1)
            total += phi * math.comb(d // t - 1, s // t - 1)
    return total // s


def basis_size(kind: str, s: int, d: int) -> int:
    if s < 1 or d < s:
        return 0
    if kind == "gamma":
        return math.comb(d - 1, s - 1)
    if kind == "gamma-sym":
        return partition_count(d, s)
    return necklace_count(d, s)


# --- matrices and elimination -------------------------------------------------

def sq_matrix(kind: str, s: int, d: int, l: int) -> list:
    """Rows of Sq^l from (s,d) to (s,d-l): row u holds bit j when target
    basis monomial j occurs in (source monomial u)Sq^l."""
    index = {t: j for j, t in enumerate(basis(kind, s, d - l))}
    rows = []
    for t in basis(kind, s, d):
        bits = 0
        for u in sq_mono(kind, t, l):
            bits |= 1 << index[u]
        rows.append(bits)
    return rows


def rank(rows) -> int:
    pivots: dict = {}
    for v in rows:
        while v:
            top = v.bit_length() - 1
            if top not in pivots:
                pivots[top] = v
                break
            v ^= pivots[top]
    return len(pivots)


def left_kernel(rows) -> list:
    """A basis of {c : XOR of rows[i] over bits i of c is 0}."""
    pivots: dict = {}
    kernel = []
    for i, v in enumerate(rows):
        combo = 1 << i
        while v:
            top = v.bit_length() - 1
            if top not in pivots:
                pivots[top] = (v, combo)
                break
            pv, pc = pivots[top]
            v ^= pv
            combo ^= pc
        else:
            kernel.append(combo)
    return kernel


def transpose(rows, ncols: int) -> list:
    cols = [0] * ncols
    for i, v in enumerate(rows):
        while v:
            low = v & -v
            cols[low.bit_length() - 1] |= 1 << i
            v ^= low
    return cols


def _stacked_kernel_rows(kind: str, s: int, d: int, k: int) -> list:
    """Row u: the images of monomial u under Sq^1, Sq^2, ..., Sq^(2^k), side by side."""
    rows = [0] * len(basis(kind, s, d))
    offset = 0
    for i in range(k + 1):
        l = 1 << i
        for u, v in enumerate(sq_matrix(kind, s, d, l)):
            rows[u] |= v << offset
        offset += len(basis(kind, s, d - l))
    return rows


def dims(kind: str, s: int, d: int, k: int) -> tuple:
    """(dim Delta(k), dim I(k), dim U(k)) at bidegree (s, d)."""
    n = len(basis(kind, s, d))
    delta = n - rank(_stacked_kernel_rows(kind, s, d, k))
    annihilators = []
    for i in range(k + 1):
        l = (1 << (i + 1)) - 1
        annihilators += left_kernel(transpose(sq_matrix(kind, s, d + l, l), n))
    image = n - rank(annihilators)
    return delta, image, delta - image


# --- preimage-chain inputs ----------------------------------------------------

def in_null(kind: str, t: tuple, k: int, position: int) -> bool:
    """The null-subspace condition of an order-k homotopy system."""
    if kind == "gamma":
        return t[position - 1] >= 2 ** k
    if len(t) == 1:
        return t[0] >= 2 ** k
    if kind == "gamma-sym":
        return t[0] - t[1] >= 2 ** k
    return min(t[0] - u for u in t[1:]) > 2 ** k


@lru_cache(maxsize=None)
def null_delta_basis(kind: str, s: int, d: int, k: int, position: int) -> tuple:
    """A basis of Delta(k) intersected with the null subspace, as supports."""
    monos = [t for t in basis(kind, s, d) if in_null(kind, t, k, position)]
    index = {t: u for u, t in enumerate(basis(kind, s, d))}
    full = _stacked_kernel_rows(kind, s, d, k)
    out = []
    for combo in left_kernel([full[index[t]] for t in monos]):
        out.append(tuple(t for j, t in enumerate(monos) if combo >> j & 1))
    return tuple(out)


def chain_inputs(rng, per_system: int = CHAINS_PER_SYSTEM) -> list:
    """Seeded random non-zero combinations of each system's null kernel basis.

    Each class sums a random half of the basis vectors, rounded up: a fixed
    number of terms keeps the work per class, and so the timings, from
    depending on the seed more than they must."""
    out = []
    for kind, s, d, k, position in CHAIN_SYSTEMS:
        vectors = null_delta_basis(kind, s, d, k, position)
        for _ in range(per_system):
            acc: set = set()
            while not acc:
                for v in rng.sample(vectors, (len(vectors) + 1) // 2):
                    acc.symmetric_difference_update(v)
            out.append({"system": [kind, s, d, k, position],
                        "element": {"kind": kind, "s": s, "d": d,
                                    "monomials": [list(t) for t in sorted(acc)]}})
    return out


def chain_errors(x: dict, k: int, chain) -> list:
    """Why a returned chain is not a certificate for x; empty when it is."""
    if len(chain) != k + 1:
        return [f"chain has {len(chain)} elements, expected {k + 1}"]
    target = frozenset(tuple(t) for t in x["monomials"])
    errors = []
    for i, y in enumerate(chain):
        spike = 2 ** (i + 1) - 1
        if (y.get("kind"), y.get("s"), y.get("d")) != (x["kind"], x["s"], x["d"] + spike):
            errors.append(f"y_{i} has bidegree ({y.get('s')},{y.get('d')}), expected ({x['s']},{x['d'] + spike})")
        elif sq_support(x["kind"], y["monomials"], spike) != target:
            errors.append(f"y_{i} Sq^{spike} != x")
    return errors


# --- the reference file -------------------------------------------------------

def _figures(kind: str, s: int, d: int, k: int) -> dict:
    delta, image, unhit = dims(kind, s, d, k)
    return {"n": len(basis(kind, s, d)), "delta": delta, "image": image, "unhit": unhit}


def build() -> dict:
    q, box = UNHIT_QUERY, REPORT_BOX
    return {
        "unhit_query": {**q, **_figures(q["kind"], q["s"], q["d"], q["k"])},
        "report_box": {**box, "rows": [{"s": s, "d": d, **_figures(box["kind"], s, d, box["k"])}
                                       for s in range(1, box["s_max"] + 1)
                                       for d in range(1, box["d_max"] + 1)]},
    }


def calibration() -> float:
    """Wall seconds of one calibration process."""
    start = time.perf_counter()
    subprocess.run([sys.executable, __file__, "--calibration-work"], check=True)
    return time.perf_counter() - start


def load() -> dict:
    with open(REFERENCE_FILE) as f:
        return json.load(f)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="recompute and compare with the committed file")
    parser.add_argument("--calibration-work", action="store_true",
                        help="run the calibration computation and exit")
    args = parser.parse_args(argv)
    if args.calibration_work:
        dims(*CALIBRATION)
        return 0
    fresh = build()
    if args.check:
        same = fresh == load()
        print("reference.json matches" if same else "reference.json differs from a fresh computation")
        return 0 if same else 1
    with open(REFERENCE_FILE, "w") as f:
        json.dump(fresh, f, indent=1)
        f.write("\n")
    print(f"wrote {REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
