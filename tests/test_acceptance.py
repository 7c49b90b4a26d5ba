"""End-to-end acceptance gate.

Nine criteria, each a separate test that prints an explicit PASS/FAIL line.
All arithmetic is exact over F_2; there are no tolerances anywhere.
"""

import random

from oracles import naive_sq, series_binom_mod2
from sqhit import hit, suites
from sqhit.modules import Bidegree, Element, ModuleKind, basis, gen_binom_mod2, sq

G = ModuleKind.GAMMA


def report(name, ok):
    print(f"{'PASS' if ok else 'FAIL'} {name}")
    assert ok, name


def test_criterion_1_counterexample_reproduction():
    result = hit.counterexample_suite()
    m2 = hit.sq_matrix(Bidegree(4, 10), 2, G)
    m3 = hit.sq_matrix(Bidegree(5, 12), 3, G)
    ok = (
        result["w_killed_by_sq2"]
        and result["w_not_in_im_sq2"]
        and result["z_in_delta1"]
        and result["z_not_in_im_sq3"]
        and result["dim_unhit_5_9"] >= 1
        and (m2.rows, m2.cols) == (84, 35)
        and (m3.rows, m3.cols) == (330, 70)
    )
    report("criterion 1: bidegree (5,9) counterexample reproduced exactly", ok)


def test_criterion_2_order_zero_quotient_trivial():
    ok = all(
        hit.unhit_report(Bidegree(s, d), 0, G).dim_unhit == 0
        for s in range(1, 5)
        for d in range(1, 17)
    )
    report("criterion 2: quotient trivial at order 0 for s<=4, d<=16", ok)


def test_criterion_3_single_generator_order_one():
    ok = all(
        hit.unhit_report(Bidegree(1, d), 1, G).dim_unhit == 0
        for d in range(4, 65)
    )
    report("criterion 3: quotient trivial at order 1, arity 1, 4<=d<=64", ok)


def test_criterion_4_preimage_certificates():
    rec = suites.certify_null_delta(G, 4, 16, 2)
    report("criterion 4: null-subspace kernel classes certified by preimage chains", rec.failed == 0)


def test_criterion_5_homotopy_identities():
    result = suites.suite_homotopy(seed=0)
    report("criterion 5: commutation and homotopy identities, zero failures", result.failed == 0)


def test_criterion_6_structure_equivalences():
    result = suites.suite_structure(seed=0, s_max=4, d_max=12)
    report("criterion 6: first-factor checkers match kernels both ways", result.failed == 0)


def test_criterion_7_image_membership_equivalence():
    result = suites.suite_i1_membership(seed=0, s_max=4, d_max=12)
    report("criterion 7: constructive image test matches direct linear algebra", result.failed == 0)


def test_criterion_8_oracle_cross_checks():
    ok = all(
        gen_binom_mod2(a, i) == series_binom_mod2(a, i)
        for a in range(-64, 65)
        for i in range(0, 33)
    )
    rng = random.Random(0)
    for _ in range(500):
        kind = rng.choice([G, ModuleKind.NABLA])
        s = rng.randint(1, 4)
        if kind is G:
            d = rng.randint(s, 12)
            monos = basis(Bidegree(s, d), G)
            support = rng.sample(monos, k=min(len(monos), rng.randint(1, 4)))
            x = Element.from_monomials(G, s, d, support)
        else:
            d = rng.randint(-12, 12)
            entries_list = set()
            while len(entries_list) < rng.randint(1, 4):
                cuts = [rng.randint(-12, 12) for _ in range(s - 1)]
                entries_list.add(tuple(cuts) + (d - sum(cuts),))
            x = Element.from_monomials(kind, s, d, entries_list)
        l = rng.randint(0, 6)
        if not sq(x, l).same(naive_sq(x, l)):
            ok = False
            break
    report("criterion 8: binomial-parity and action oracles agree", ok)


def test_criterion_9_property_suites():
    names = ("containment", "ideal", "instability", "adem", "orbit")
    failed = {name: suites.SUITES[name](0).failed for name in names}
    report("criterion 9: containment/ideal/instability/adem/orbit suites green",
           all(v == 0 for v in failed.values()))
