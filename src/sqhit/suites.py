"""Property and identity suites shared by the CLI `verify` command and tests.

Each suite returns a SuiteResult with pass/fail counts and the first failing
case rendered as element JSON, so a CLI failure is directly reproducible.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from . import f2linalg, hit
from .f2linalg import BitVector
from .homotopy import (
    AnnihilationError,
    ChainCertificateError,
    HomotopySystem,
    NullMembershipError,
    in_null,
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


@dataclass
class SuiteResult:
    name: str
    passed: int
    failed: int
    first_failure: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.failed == 0


class _Recorder:
    def __init__(self, name: str):
        self.result = SuiteResult(name, 0, 0)

    def check(self, ok: bool, describe: Callable[[], str]) -> None:
        if ok:
            self.result.passed += 1
        else:
            self.result.failed += 1
            if self.result.first_failure is None:
                self.result.first_failure = describe()


def _fail_json(x: Element, note: str) -> str:
    return json.dumps({"case": note, "element": element_to_json(x)})


def random_element(rng: random.Random, kind: ModuleKind, s: int, d: int) -> Element:
    monos = basis(Bidegree(s, d), kind)
    picked = [m for m in monos if rng.random() < 0.5]
    return Element.from_monomials(kind, s, d, picked)


def suite_adem(seed: int = 0, s_max: int = 4, d_max: int = 16) -> SuiteResult:
    """(x Sq^(2n-1)) Sq^n = 0 on every basis monomial, 1 <= n <= d."""
    rec = _Recorder("adem")
    for s in range(1, s_max + 1):
        for d in range(s, d_max + 1):
            for m in basis(Bidegree(s, d), ModuleKind.GAMMA):
                x = Element.single(ModuleKind.GAMMA, m)
                for n in range(1, d + 1):
                    y = sq(sq(x, 2 * n - 1), n)
                    rec.check(y.is_zero(), lambda x=x, n=n: _fail_json(x, f"Sq^{2*n-1}Sq^{n} != 0"))
    # Same shape on windowed random nabla monomials.
    rng = random.Random(seed)
    for _ in range(200):
        s = rng.randint(1, 4)
        entries = tuple(rng.randint(-16, 16) for _ in range(s))
        x = Element.single(ModuleKind.NABLA, entries)
        n = rng.randint(1, 8)
        y = sq(sq(x, 2 * n - 1), n)
        rec.check(y.is_zero(), lambda x=x, n=n: _fail_json(x, f"nabla Sq^{2*n-1}Sq^{n} != 0"))
    return rec.result


def suite_cartan(seed: int = 0, trials: int = 200) -> SuiteResult:
    """sq(x.y, l) = sum_p sq(x,p).sq(y,l-p) for random gamma pairs."""
    rec = _Recorder("cartan")
    rng = random.Random(seed)
    for _ in range(trials):
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
        rec.check(lhs.same(rhs), lambda x=x, y=y, l=l: _fail_json(x, f"cartan l={l} vs {element_to_json(y)}"))
    return rec.result


def suite_instability(seed: int = 0, trials: int = 300) -> SuiteResult:
    """x Sq^l = 0 whenever 2l > d, on random elements of every positive kind."""
    rec = _Recorder("instability")
    rng = random.Random(seed)
    kinds = [ModuleKind.GAMMA, ModuleKind.GAMMA_SYM, ModuleKind.GAMMA_CYC]
    for _ in range(trials):
        kind = rng.choice(kinds)
        s = rng.randint(1, 4)
        d = rng.randint(s, s + 8)
        x = random_element(rng, kind, s, d)
        l = rng.randint(d // 2 + 1, d + 4)
        rec.check(sq(x, l).is_zero(), lambda x=x, l=l: _fail_json(x, f"instability 2*{l} > {x.d}"))
    return rec.result


def suite_composition(seed: int = 0, s_max: int = 3, d_max: int = 10) -> SuiteResult:
    """Sq^1 Sq^2 = Sq^3 on full bases; composition is associative with sq."""
    rec = _Recorder("composition")
    for s in range(1, s_max + 1):
        for d in range(s, d_max + 1):
            for m in basis(Bidegree(s, d), ModuleKind.GAMMA):
                x = Element.single(ModuleKind.GAMMA, m)
                rec.check(sq(sq(x, 1), 2).same(sq(x, 3)),
                          lambda x=x: _fail_json(x, "Sq^1Sq^2 != Sq^3"))
    return rec.result


def suite_homotopy(seed: int = 0, s_max: int = 4, d_max: int = 16, k_max: int = 3,
                   nabla_trials: int = 1000) -> SuiteResult:
    """Commutation and homotopy identities on null monomials, plus the
    unrestricted nabla case and the shift/permutation relation."""
    rec = _Recorder("homotopy")
    for k in range(k_max + 1):
        threshold = 1 << k
        for s in range(1, s_max + 1):
            for i in range(1, s + 1):
                h = HomotopySystem(ModuleKind.GAMMA, k, i)
                for d in range(s, d_max + 1):
                    for mono in basis(Bidegree(s, d), ModuleKind.GAMMA):
                        if mono[i - 1] < threshold:
                            continue
                        x = Element.single(ModuleKind.GAMMA, mono)
                        for m in range(k + 1):
                            rec.check(verify_homotopy(x, h, m),
                                      lambda x=x, m=m, i=i: _fail_json(x, f"homotopy m={m} pos={i}"))
                            if m >= 1:
                                for l in range(1, 1 << m):
                                    rec.check(verify_commutation(x, h, m, l),
                                              lambda x=x, m=m, l=l, i=i: _fail_json(x, f"commutation m={m} l={l} pos={i}"))
    # Nabla: identities with no entry restriction, random seeded monomials.
    rng = random.Random(seed)
    for _ in range(nabla_trials):
        s = rng.randint(1, 4)
        entries = tuple(rng.randint(-64, 64) for _ in range(s))
        x = Element.single(ModuleKind.NABLA, entries)
        h = HomotopySystem(ModuleKind.NABLA, 4, rng.randint(1, s))
        for m in range(5):
            rec.check(verify_homotopy(x, h, m),
                      lambda x=x, m=m: _fail_json(x, f"nabla homotopy m={m}"))
            if m >= 1:
                ls = {1, 1 << m >> 1, (1 << m) - 1, rng.randrange(1, 1 << m)}
                for l in ls:
                    if 1 <= l < (1 << m):
                        rec.check(verify_commutation(x, h, m, l),
                                  lambda x=x, m=m, l=l: _fail_json(x, f"nabla commutation m={m} l={l}"))
    # Shift/permutation compatibility on random monomials and transpositions.
    for _ in range(300):
        s = rng.randint(2, 4)
        d = rng.randint(s, s + 8)
        monos = basis(Bidegree(s, d), ModuleKind.GAMMA)
        mono = rng.choice(monos)
        i = rng.randint(1, s)
        a, b = rng.sample(range(s), 2)
        r = rng.randint(1, 8)

        def transpose(t):
            t = list(t)
            t[a], t[b] = t[b], t[a]
            return tuple(t)

        sigma_i = i
        if i - 1 == a:
            sigma_i = b + 1
        elif i - 1 == b:
            sigma_i = a + 1
        x = Element.single(ModuleKind.GAMMA, mono)
        shifted_then_permuted = Element.from_monomials(
            ModuleKind.GAMMA, s, d + r, (transpose(t) for t in shift(x, i, r).support))
        permuted = Element.single(ModuleKind.GAMMA, transpose(mono))
        permuted_then_shifted = shift(permuted, sigma_i, r)
        rec.check(shifted_then_permuted.same(permuted_then_shifted),
                  lambda x=x: _fail_json(x, f"shift/permutation i={i} r={r}"))
    return rec.result


def _null_span(b: Bidegree, kind: ModuleKind, h: HomotopySystem) -> f2linalg.Subspace:
    monos = basis(b, kind)
    rows = []
    for j, m in enumerate(monos):
        if in_null(Element.single(kind, m), h):
            rows.append(1 << j)
    return f2linalg.subspace_from_rows(len(monos), rows)


def certify_null_delta(kind: ModuleKind, s_max: int, d_max: int, k_max: int,
                       positions: Optional[List[int]] = None) -> SuiteResult:
    """Certify that kernel classes supported on null monomials are spike
    images, constructively, via verified preimage chains."""
    rec = _Recorder(f"certify-{kind.value}")
    for k in range(k_max + 1):
        for s in range(1, s_max + 1):
            pos_list = positions or (list(range(1, s + 1)) if kind is ModuleKind.GAMMA else [1])
            for i in pos_list:
                if i > s:
                    continue
                h = HomotopySystem(kind, k, i)
                for d in range(s, d_max + 1):
                    b = Bidegree(s, d)
                    delta = hit.delta_basis(b, k, kind)
                    if delta.dim == 0:
                        continue
                    null = _null_span(b, kind, h)
                    inter = f2linalg.intersect(delta, null)
                    image = hit.spike_image_basis(b, k, kind)
                    for r in inter.basis:
                        x = hit.vector_to_element(BitVector(inter.ambient_dim, r), b, kind)
                        note = f"certificate k={k} pos={i}"
                        try:
                            preimage_chain(x, h)
                            ok = f2linalg.contains(image, BitVector(inter.ambient_dim, r))
                        except (NullMembershipError, AnnihilationError, ChainCertificateError) as exc:
                            ok, note = False, f"{note}: {exc}"
                        rec.check(ok, lambda x=x, note=note: _fail_json(x, note))
    return rec.result


def suite_certificates(seed: int = 0, s_max: int = 4, d_max: int = 16, k_max: int = 2) -> SuiteResult:
    res = certify_null_delta(ModuleKind.GAMMA, s_max, d_max, k_max)
    res.name = "certificates"
    return res


def suite_orbit(seed: int = 0) -> SuiteResult:
    """Orbit actions are representative-independent; orbit-kind certificates."""
    rec = _Recorder("orbit")
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
        rec.check(lhs.same(rhs), lambda x=x, l=l, kind=kind: _fail_json(x, f"orbit action {kind.value} l={l}"))
    for kind, (s_max, d_max, k_max) in ((ModuleKind.GAMMA_SYM, (4, 14, 1)),
                                        (ModuleKind.GAMMA_CYC, (4, 14, 1))):
        sub = certify_null_delta(kind, s_max, d_max, k_max)
        rec.result.passed += sub.passed
        rec.result.failed += sub.failed
        if rec.result.first_failure is None:
            rec.result.first_failure = sub.first_failure
    return rec.result


def suite_ideal(seed: int = 0, trials: int = 60) -> SuiteResult:
    """Products of spike images with kernel classes stay spike images."""
    rec = _Recorder("ideal")
    rng = random.Random(seed)
    cases = 0
    while cases < trials:
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
        x = hit.vector_to_element(BitVector(image1.ambient_dim, rng.choice(image1.basis)), b1, ModuleKind.GAMMA)
        y = hit.vector_to_element(BitVector(delta2.ambient_dim, rng.choice(delta2.basis)), b2, ModuleKind.GAMMA)
        prod_b = Bidegree(s1 + s2, d1 + d2)
        target = hit.spike_image_basis(prod_b, k, ModuleKind.GAMMA)
        for p in (concat_product(x, y), concat_product(y, x)):
            v = hit.element_to_vector(p, prod_b, ModuleKind.GAMMA)
            rec.check(f2linalg.contains(target, v), lambda p=p, k=k: _fail_json(p, f"ideal k={k}"))
    return rec.result


def suite_containment(seed: int = 0, s_max: int = 4, d_max: int = 12, k_max: int = 2) -> SuiteResult:
    """Spike images are contained in the kernel intersection, every kind."""
    rec = _Recorder("containment")
    for kind in (ModuleKind.GAMMA, ModuleKind.GAMMA_SYM, ModuleKind.GAMMA_CYC):
        for k in range(k_max + 1):
            for s in range(1, s_max + 1):
                for d in range(s, d_max + 1):
                    b = Bidegree(s, d)
                    delta = hit.delta_basis(b, k, kind)
                    image = hit.spike_image_basis(b, k, kind)
                    ok = f2linalg.contains_subspace(delta, image)
                    rec.check(ok, lambda b=b, k=k, kind=kind: json.dumps(
                        {"case": f"containment {kind.value} {b} k={k}"}))
    return rec.result


def suite_structure(seed: int = 0, s_max: int = 4, d_max: int = 12) -> SuiteResult:
    """First-factor checkers match kernel membership exactly, both directions."""
    rec = _Recorder("structure")
    rng = random.Random(seed)
    for s in range(2, s_max + 1):
        for d in range(s, d_max + 1):
            b = Bidegree(s, d)
            ker1 = f2linalg.kernel_basis(hit.sq_matrix(b, 1, ModuleKind.GAMMA))
            for x in hit.subspace_elements(ker1, b, ModuleKind.GAMMA):
                rec.check(not hit.check_sq1_relations(x), lambda x=x: _fail_json(x, "sq1 checker on kernel vector"))
            ker2 = f2linalg.kernel_basis(hit.sq_matrix(b, 2, ModuleKind.GAMMA))
            for x in hit.subspace_elements(ker2, b, ModuleKind.GAMMA):
                rec.check(not hit.check_sq2_relations(x), lambda x=x: _fail_json(x, "sq2 checker on kernel vector"))
            for x in hit.subspace_elements(hit.delta_basis(b, 1, ModuleKind.GAMMA), b, ModuleKind.GAMMA):
                rec.check(not hit.check_delta1_structure(x), lambda x=x: _fail_json(x, "delta1 checker on kernel vector"))
            # Coincidence on random elements covers the converse direction.
            for _ in range(6):
                x = random_element(rng, ModuleKind.GAMMA, s, d)
                rec.check((not hit.check_sq1_relations(x)) == sq(x, 1).is_zero(),
                          lambda x=x: _fail_json(x, "sq1 checker equivalence"))
                rec.check((not hit.check_sq2_relations(x)) == sq(x, 2).is_zero(),
                          lambda x=x: _fail_json(x, "sq2 checker equivalence"))
                in_delta1 = sq(x, 1).is_zero() and sq(x, 2).is_zero()
                rec.check((not hit.check_delta1_structure(x)) == in_delta1,
                          lambda x=x: _fail_json(x, "delta1 checker equivalence"))
    return rec.result


def suite_i1_membership(seed: int = 0, s_max: int = 4, d_max: int = 12) -> SuiteResult:
    """The first-factor image criterion agrees with direct Sq^3 linear algebra
    on full kernel bases, and every positive witness is exact."""
    rec = _Recorder("i1-membership")
    for s in range(2, s_max + 1):
        for d in range(s, d_max + 1):
            b = Bidegree(s, d)
            delta1 = hit.delta_basis(b, 1, ModuleKind.GAMMA)
            if delta1.dim == 0:
                continue
            im3 = f2linalg.image_basis(hit.sq_matrix(Bidegree(s, d + 3), 3, ModuleKind.GAMMA))
            for r in delta1.basis:
                x = hit.vector_to_element(BitVector(delta1.ambient_dim, r), b, ModuleKind.GAMMA)
                member, witness = hit.i1_membership(x)
                direct = f2linalg.contains(im3, BitVector(delta1.ambient_dim, r))
                rec.check(member == direct, lambda x=x: _fail_json(x, "criterion vs direct image membership"))
                if member:
                    rec.check(sq(witness, 3).same(x), lambda x=x: _fail_json(x, "witness Sq^3 mismatch"))
    return rec.result


def suite_builder(seed: int = 0, trials: int = 40) -> SuiteResult:
    """Elements assembled from a Sq^2-kernel first factor land in the kernels."""
    rec = _Recorder("builder")
    rng = random.Random(seed)
    cases = 0
    while cases < trials:
        s1 = rng.randint(1, 3)
        d1 = rng.randint(s1, s1 + 6)
        ker2 = f2linalg.kernel_basis(hit.sq_matrix(Bidegree(s1, d1), 2, ModuleKind.GAMMA))
        if ker2.dim == 0:
            continue
        cases += 1
        x1 = hit.vector_to_element(BitVector(ker2.ambient_dim, rng.choice(ker2.basis)),
                                   Bidegree(s1, d1), ModuleKind.GAMMA)
        x = hit.build_delta1_element(x1, d1 + 1)
        ok = sq(x, 1).is_zero() and sq(x, 2).is_zero()
        dec = hit.decompose_first_factor(x) if not x.is_zero() else None
        if ok and dec is not None:
            ok = dec.terms.get(1, Element.zero(ModuleKind.GAMMA, s1, d1)).same(x1)
        rec.check(ok, lambda x1=x1: _fail_json(x1, "builder output membership"))
    return rec.result


def suite_counterexample(seed: int = 0) -> SuiteResult:
    rec = _Recorder("counterexample")
    try:
        report = hit.counterexample_suite()
    except AssertionError as exc:
        rec.check(False, lambda exc=exc: json.dumps({"case": str(exc)}))
        return rec.result
    for key, value in report.items():
        if isinstance(value, bool):
            rec.check(value, lambda key=key: json.dumps({"case": key}))
    rec.check(report["dim_unhit_5_9"] >= 1, lambda: json.dumps({"case": "unhit dimension"}))
    return rec.result


SUITES: Dict[str, Callable[[int], SuiteResult]] = {
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
