"""Property and identity suites shared by the CLI `verify` command and tests.

Each suite is a generator that yields one ``(ok, case, element)`` record per
check: whether it passed, its case text, and the element it checked, or None.
``tally`` counts a suite's checks into a SuiteResult, and ``run`` tallies the
suite that SUITES names. ``tally`` writes the first failure only, as JSON of
its case and its element, so a CLI failure is directly reproducible.
"""

from __future__ import annotations

import json
import random
from operator import itemgetter
from typing import Callable, Dict, Iterable, Iterator, NamedTuple, Optional, Tuple

from . import f2linalg, hit, structure
from .homotopy import (
    AnnihilationError,
    ChainCertificateError,
    HomotopySystem,
    NullMembershipError,
    in_null,
    null_span,
    preimage_chain,
    shift,
    verify_commutation,
    verify_homotopy,
)
from .modules import (
    Bidegree,
    Element,
    ModuleKind,
    ORBIT_KINDS,
    basis,
    concat_product,
    element_to_json,
    project_to_orbit,
    sq,
)


class SuiteResult(NamedTuple):
    name: str
    passed: int
    failed: int
    first_failure: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.failed == 0


Check = Tuple[bool, str, Optional[Element]]


def tally(name: str, checks: Iterable[Check]) -> SuiteResult:
    """Count the checks, and write the first failure as JSON: its case, and
    its element when it has one."""
    passed = failed = 0
    first_failure = None
    for ok, case, x in checks:
        if ok:
            passed += 1
        else:
            failed += 1
            if first_failure is None:
                fields = {"case": case} if x is None else {"case": case, "element": element_to_json(x)}
                first_failure = json.dumps(fields)
    return SuiteResult(name, passed, failed, first_failure)


def run(name: str, seed: int = 0) -> SuiteResult:
    """The result of the suite that SUITES names, run with the given seed."""
    return tally(name, SUITES[name](seed))


def random_element(rng: random.Random, kind: ModuleKind, s: int, d: int) -> Element:
    monos = basis(Bidegree(s, d), kind)
    picked = [m for m in monos if rng.random() < 0.5]
    return Element.from_monomials(kind, s, d, picked)


def suite_adem(seed: int = 0) -> Iterator[Check]:
    """(x Sq^(2n-1)) Sq^n = 0 on every basis monomial of the positive
    kinds, 1 <= n <= d: the relation that lets a preimage chain's
    certificate stand for the annihilation checks."""
    for kind in (ModuleKind.GAMMA, ModuleKind.GAMMA_SYM, ModuleKind.GAMMA_CYC):
        for s in range(1, 5):
            for d in range(s, 17):
                for m in basis(Bidegree(s, d), kind):
                    x = Element.single(kind, m)
                    for n in range(1, d + 1):
                        y = sq(sq(x, 2 * n - 1), n)
                        yield y.is_zero(), f"Sq^{2*n-1}Sq^{n} != 0", x
    # Same shape on windowed random nabla monomials.
    rng = random.Random(seed)
    for _ in range(200):
        s = rng.randint(1, 4)
        entries = tuple(rng.randint(-16, 16) for _ in range(s))
        x = Element.single(ModuleKind.NABLA, entries)
        n = rng.randint(1, 8)
        y = sq(sq(x, 2 * n - 1), n)
        yield y.is_zero(), f"nabla Sq^{2*n-1}Sq^{n} != 0", x


def suite_cartan(seed: int = 0) -> Iterator[Check]:
    """sq(x.y, l) = sum_p sq(x,p).sq(y,l-p) for random gamma pairs."""
    rng = random.Random(seed)
    for _ in range(200):
        s1, s2 = rng.randint(1, 2), rng.randint(1, 2)
        d1 = rng.randint(s1, s1 + 5)
        d2 = rng.randint(s2, s2 + 5)
        x = random_element(rng, ModuleKind.GAMMA, s1, d1)
        y = random_element(rng, ModuleKind.GAMMA, s2, d2)
        l = rng.randint(0, 6)
        lhs = sq(concat_product(x, y), l)
        rhs = Element.zero(ModuleKind.GAMMA, s1 + s2, d1 + d2 - l)
        for p in range(l + 1):
            rhs = rhs + concat_product(sq(x, p), sq(y, l - p))
        yield lhs == rhs, f"cartan l={l} vs {json.dumps(element_to_json(y))}", x


def suite_instability(seed: int = 0) -> Iterator[Check]:
    """x Sq^l = 0 whenever 2l > d, on random elements of every positive kind."""
    rng = random.Random(seed)
    kinds = [ModuleKind.GAMMA, ModuleKind.GAMMA_SYM, ModuleKind.GAMMA_CYC]
    for _ in range(300):
        kind = rng.choice(kinds)
        s = rng.randint(1, 4)
        d = rng.randint(s, s + 8)
        x = random_element(rng, kind, s, d)
        l = rng.randint(d // 2 + 1, d + 4)
        yield sq(x, l).is_zero(), f"instability 2*{l} > {x.d}", x


def suite_composition(seed: int = 0) -> Iterator[Check]:
    """Sq^1 Sq^2 = Sq^3 on full bases; composition is associative with sq."""
    for s in range(1, 4):
        for d in range(s, 11):
            for m in basis(Bidegree(s, d), ModuleKind.GAMMA):
                x = Element.single(ModuleKind.GAMMA, m)
                yield sq(sq(x, 1), 2) == sq(x, 3), "Sq^1Sq^2 != Sq^3", x


def suite_homotopy(seed: int = 0) -> Iterator[Check]:
    """Commutation and homotopy identities on null monomials, plus the
    unrestricted nabla case and the shift/permutation relation."""
    for k in range(4):
        for s in range(1, 5):
            for i in range(1, s + 1):
                h = HomotopySystem(ModuleKind.GAMMA, k, i)
                for d in range(s, 17):
                    for mono in basis(Bidegree(s, d), ModuleKind.GAMMA):
                        x = Element.single(ModuleKind.GAMMA, mono)
                        if not in_null(x, h):
                            continue
                        for m in range(k + 1):
                            yield verify_homotopy(x, h, m), f"homotopy m={m} pos={i}", x
                            if m >= 1:
                                for l in range(1, 1 << m):
                                    yield (verify_commutation(x, h, m, l),
                                           f"commutation m={m} l={l} pos={i}", x)
    # Nabla: identities with no entry restriction, random seeded monomials.
    rng = random.Random(seed)
    for _ in range(1000):
        s = rng.randint(1, 4)
        entries = tuple(rng.randint(-64, 64) for _ in range(s))
        x = Element.single(ModuleKind.NABLA, entries)
        h = HomotopySystem(ModuleKind.NABLA, 4, rng.randint(1, s))
        for m in range(5):
            yield verify_homotopy(x, h, m), f"nabla homotopy m={m}", x
            if m >= 1:
                ls = {1, 1 << m >> 1, (1 << m) - 1, rng.randrange(1, 1 << m)}
                for l in ls:
                    yield verify_commutation(x, h, m, l), f"nabla commutation m={m} l={l}", x
    # Shift/permutation compatibility on random monomials and transpositions.
    for _ in range(300):
        s = rng.randint(2, 4)
        d = rng.randint(s, s + 8)
        monos = basis(Bidegree(s, d), ModuleKind.GAMMA)
        mono = rng.choice(monos)
        i = rng.randint(1, s)
        a, b = rng.sample(range(s), 2)
        r = rng.randint(1, 8)
        perm = [*range(s)]
        perm[a], perm[b] = b, a
        permute = itemgetter(*perm)  # s >= 2 items, so it gives a tuple
        x = Element.single(ModuleKind.GAMMA, mono)
        shifted_then_permuted = Element.from_monomials(ModuleKind.GAMMA, s, d + r, map(permute, shift(x, i, r).support))
        # The transposition is its own inverse: entry i - 1 moves to perm[i - 1].
        permuted_then_shifted = shift(Element.single(ModuleKind.GAMMA, permute(mono)), perm[i - 1] + 1, r)
        yield shifted_then_permuted == permuted_then_shifted, f"shift/permutation i={i} r={r}", x


def certify_null_delta(kind: ModuleKind, s_max: int, d_max: int, k_max: int) -> Iterator[Check]:
    """Certify that kernel classes supported on null monomials are spike
    images, constructively, via verified preimage chains.  The cells' matrix
    memos live in one ``hit.sweep`` per k, the chains in the caller's context."""
    cells = [(s, d) for s in range(1, s_max + 1) for d in range(s, d_max + 1)]
    for k in range(k_max + 1):
        for rep in hit.sweep(kind, cells, k):
            b = rep.bidegree
            if rep.dim_delta == 0:
                continue
            for i in range(1, b.s + 1) if kind is ModuleKind.GAMMA else (1,):
                h = HomotopySystem(kind, k, i)
                for r in f2linalg.intersect(rep.delta, null_span(b, h)).basis:
                    x = hit.vector_to_element(r, b, kind)
                    case = f"certificate k={k} pos={i}"
                    try:
                        preimage_chain(x, h)
                        ok = f2linalg.contains(rep.image, r)
                    except (NullMembershipError, AnnihilationError, ChainCertificateError) as exc:
                        ok, case = False, f"{case}: {exc}"
                    yield ok, case, x


def suite_certificates(seed: int = 0) -> Iterator[Check]:
    return certify_null_delta(ModuleKind.GAMMA, 4, 16, 2)


def suite_orbit(seed: int = 0) -> Iterator[Check]:
    """Orbit actions are representative-independent; orbit-kind certificates."""
    rng = random.Random(seed)
    for _ in range(400):
        s = rng.randint(1, 4)
        d = rng.randint(s, s + 8)
        mono = rng.choice(basis(Bidegree(s, d), ModuleKind.GAMMA))
        l = rng.randint(0, d)
        kind = rng.choice(list(ORBIT_KINDS))
        # Act on a group translate of the representative; projections must agree.
        perm = list(range(s))
        if kind is ModuleKind.GAMMA_SYM:
            rng.shuffle(perm)
        else:
            rot = rng.randrange(s)
            perm = perm[rot:] + perm[:rot]
        translated = Element.single(ModuleKind.GAMMA, tuple(mono[p] for p in perm))
        x = Element.single(ModuleKind.GAMMA, mono)
        lhs = sq(project_to_orbit(x, kind), l)
        rhs = project_to_orbit(sq(translated, l), kind)
        yield lhs == rhs, f"orbit action {kind.value} l={l}", x
    for kind in ORBIT_KINDS:
        yield from certify_null_delta(kind, 4, 14, 1)


def suite_ideal(seed: int = 0) -> Iterator[Check]:
    """Products of spike images with kernel classes stay spike images."""
    rng = random.Random(seed)
    cases = 0
    while cases < 60:
        k = rng.randint(0, 1)
        s1, s2 = rng.randint(1, 2), rng.randint(1, 2)
        d1 = rng.randint(s1 + 1, s1 + 6)
        d2 = rng.randint(s2, s2 + 6)
        b1, b2 = Bidegree(s1, d1), Bidegree(s2, d2)
        image1 = hit.spike_image_basis(b1, k, ModuleKind.GAMMA)
        delta2 = hit.delta_basis(b2, k, ModuleKind.GAMMA)
        if image1.dim == 0 or delta2.dim == 0:
            continue
        cases += 1
        x = hit.vector_to_element(rng.choice(image1.basis), b1, ModuleKind.GAMMA)
        y = hit.vector_to_element(rng.choice(delta2.basis), b2, ModuleKind.GAMMA)
        prod_b = Bidegree(s1 + s2, d1 + d2)
        target = hit.spike_image_basis(prod_b, k, ModuleKind.GAMMA)
        for p in (concat_product(x, y), concat_product(y, x)):
            v = hit.element_to_vector(p, prod_b, ModuleKind.GAMMA)
            yield f2linalg.contains(target, v), f"ideal k={k}", p


def suite_containment(seed: int = 0) -> Iterator[Check]:
    """Spike images are contained in the kernel intersection, every kind."""
    for kind in (ModuleKind.GAMMA, ModuleKind.GAMMA_SYM, ModuleKind.GAMMA_CYC):
        for k in range(3):
            for s in range(1, 5):
                for d in range(s, 13):
                    b = Bidegree(s, d)
                    delta = hit.delta_basis(b, k, kind)
                    image = hit.spike_image_basis(b, k, kind)
                    ok = f2linalg.contains_subspace(delta, image)
                    yield ok, f"containment {kind.value} {b} k={k}", None


def suite_structure(seed: int = 0) -> Iterator[Check]:
    """First-factor checkers match kernel membership exactly, both directions."""
    rng = random.Random(seed)
    for s in range(2, 5):
        for d in range(s, 13):
            b = Bidegree(s, d)
            ker1 = f2linalg.kernel_basis(hit.sq_matrix(b, 1, ModuleKind.GAMMA))
            for x in hit.subspace_elements(ker1, b, ModuleKind.GAMMA):
                yield not structure.check_sq1_relations(x), "sq1 checker on kernel vector", x
            ker2 = f2linalg.kernel_basis(hit.sq_matrix(b, 2, ModuleKind.GAMMA))
            for x in hit.subspace_elements(ker2, b, ModuleKind.GAMMA):
                yield not structure.check_sq2_relations(x), "sq2 checker on kernel vector", x
            for x in hit.subspace_elements(hit.delta_basis(b, 1, ModuleKind.GAMMA), b, ModuleKind.GAMMA):
                yield not structure.check_delta1_structure(x), "delta1 checker on kernel vector", x
            # Coincidence on random elements covers the converse direction.
            for _ in range(6):
                x = random_element(rng, ModuleKind.GAMMA, s, d)
                yield ((not structure.check_sq1_relations(x)) == sq(x, 1).is_zero(),
                       "sq1 checker equivalence", x)
                yield ((not structure.check_sq2_relations(x)) == sq(x, 2).is_zero(),
                       "sq2 checker equivalence", x)
                in_delta1 = sq(x, 1).is_zero() and sq(x, 2).is_zero()
                yield (not structure.check_delta1_structure(x)) == in_delta1, "delta1 checker equivalence", x


def suite_i1_membership(seed: int = 0) -> Iterator[Check]:
    """The first-factor image criterion agrees with direct Sq^3 linear algebra
    on full kernel bases, and every positive witness is exact."""
    for s in range(2, 5):
        for d in range(s, 13):
            b = Bidegree(s, d)
            delta1 = hit.delta_basis(b, 1, ModuleKind.GAMMA)
            if delta1.dim == 0:
                continue
            im3 = f2linalg.image_basis(hit.sq_matrix(Bidegree(s, d + 3), 3, ModuleKind.GAMMA))
            for r in delta1.basis:
                x = hit.vector_to_element(r, b, ModuleKind.GAMMA)
                member, witness = structure.i1_membership(x)
                direct = f2linalg.contains(im3, r)
                yield member == direct, "criterion vs direct image membership", x
                if member:
                    yield sq(witness, 3) == x, "witness Sq^3 mismatch", x


def suite_builder(seed: int = 0) -> Iterator[Check]:
    """Elements assembled from a Sq^2-kernel first factor land in the kernels."""
    rng = random.Random(seed)
    cases = 0
    while cases < 40:
        s1 = rng.randint(1, 3)
        d1 = rng.randint(s1, s1 + 6)
        ker2 = f2linalg.kernel_basis(hit.sq_matrix(Bidegree(s1, d1), 2, ModuleKind.GAMMA))
        if ker2.dim == 0:
            continue
        cases += 1
        x1 = hit.vector_to_element(rng.choice(ker2.basis),
                                   Bidegree(s1, d1), ModuleKind.GAMMA)
        x = structure.build_delta1_element(x1, d1 + 1)
        ok = sq(x, 1).is_zero() and sq(x, 2).is_zero()
        if ok and not x.is_zero():
            ok = structure.decompose_first_factor(x).get(1, Element.zero(ModuleKind.GAMMA, s1, d1)) == x1
        yield ok, "builder output membership", x1


def suite_counterexample(seed: int = 0) -> Iterator[Check]:
    """The (5,9) class: w in (4,8) is in ker Sq^2 outside im Sq^2, z in (5,9)
    is in Delta(1) outside im Sq^3, and U(1) at (5,9) is nonzero."""
    G = ModuleKind.GAMMA
    w, z = structure.sq2_kernel_witness(), structure.unhit_witness_5_9()
    wvec = hit.element_to_vector(w, Bidegree(4, 8), G)
    zvec = hit.element_to_vector(z, Bidegree(5, 9), G)
    im2 = f2linalg.image_basis(hit.sq_matrix(Bidegree(4, 10), 2, G))
    im3 = f2linalg.image_basis(hit.sq_matrix(Bidegree(5, 12), 3, G))
    rep = hit.unhit_report(Bidegree(5, 9), 1, G)
    facts = (
        ("witness w is not killed by Sq^2", sq(w, 2).is_zero()),
        ("witness w unexpectedly lies in im Sq^2", not f2linalg.contains(im2, wvec)),
        ("witness z is not killed by Sq^1 and Sq^2",
         f2linalg.contains(rep.delta, zvec)),
        ("witness z unexpectedly lies in im Sq^3", not f2linalg.contains(im3, zvec)),
        ("unhit dimension at (5,9) is zero", rep.dim_unhit >= 1),
    )
    for case, ok in facts:
        yield ok, case, None


SUITES: Dict[str, Callable[[int], Iterator[Check]]] = {
    "adem": suite_adem,
    "cartan": suite_cartan,
    "instability": suite_instability,
    "composition": suite_composition,
    "homotopy": suite_homotopy,
    "certificates": suite_certificates,
    "orbit": suite_orbit,
    "ideal": suite_ideal,
    "containment": suite_containment,
    "structure": suite_structure,
    "i1-membership": suite_i1_membership,
    "builder": suite_builder,
    "counterexample": suite_counterexample,
}
