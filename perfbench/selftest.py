"""Fast self-tests of the benchmark's reference and checker.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference as R  # noqa: E402
import run  # noqa: E402


def shifted_chain(x: dict, k: int, position: int) -> list:
    """y_i = x psi^(2^i) ... psi^1 for a gamma element: entry `position`
    grows by 2^(i+1) - 1."""
    chain = []
    for i in range(k + 1):
        r = 2 ** (i + 1) - 1
        monos = [t[:position - 1] + [t[position - 1] + r] + t[position:] for t in x["monomials"]]
        chain.append({"kind": x["kind"], "s": x["s"], "d": x["d"] + r, "monomials": monos})
    return chain


class ReferenceTest(unittest.TestCase):
    def test_known_dimensions(self):
        for (kind, s, d, k), want in {
            ("gamma", 5, 9, 1): (70, 32, 31),
            ("gamma", 4, 16, 2): (455, 35, 31),
            ("gamma", 4, 18, 2): (680, 60, 59),
            ("gamma-sym", 6, 24, 1): (199, 50, 47),
        }.items():
            delta, image, unhit = R.dims(kind, s, d, k)
            self.assertEqual((len(R.basis(kind, s, d)), delta, image), want, (kind, s, d, k))
            self.assertEqual(unhit, delta - image)

    def test_criterion_one_matrix_shapes(self):
        for (s, d, l), shape in {(4, 10, 2): (84, 35), (5, 12, 3): (330, 70)}.items():
            rows = R.sq_matrix("gamma", s, d, l)
            self.assertEqual((len(rows), len(R.basis("gamma", s, d - l))), shape)

    def test_orbit_bases_match_counts(self):
        for kind in ("gamma-sym", "gamma-cyc"):
            for s in range(1, 7):
                for d in range(1, 19):
                    self.assertEqual(len(R.basis(kind, s, d)), R.basis_size(kind, s, d), (kind, s, d))

    def test_reference_file_is_current(self):
        self.assertEqual(R.build(), R.load())

    def test_chain_inputs_lie_in_null_delta(self):
        inputs = R.chain_inputs(random.Random(7), per_system=2)
        self.assertEqual(len(inputs), 2 * len(R.CHAIN_SYSTEMS))
        for item in inputs:
            kind, s, d, k, position = item["system"]
            support = [tuple(t) for t in item["element"]["monomials"]]
            self.assertTrue(support)
            self.assertTrue(all(R.in_null(kind, t, k, position) for t in support))
            for i in range(k + 1):
                self.assertFalse(R.sq_support(kind, support, 2 ** i), item["system"])


class CheckerTest(unittest.TestCase):
    def setUp(self):
        self.ref = R.load()

    def test_accepts_and_rejects_unhit_dimensions(self):
        q = self.ref["unhit_query"]
        row = {"dim_delta": q["delta"], "dim_image": q["image"], "dim_unhit": q["unhit"]}
        self.assertEqual(run.check_unhit(json.dumps(row), self.ref), [])
        row["dim_image"] += 1
        self.assertEqual(len(run.check_unhit(json.dumps(row), self.ref)), 1)
        self.assertTrue(run.check_unhit("Traceback", self.ref))

    def test_rejects_one_wrong_report_row(self):
        rows = [{"s": r["s"], "d": r["d"], "dim_delta": r["delta"], "dim_image": r["image"],
                 "dim_unhit": r["unhit"]} for r in self.ref["report_box"]["rows"]]
        self.assertEqual(run.check_report(json.dumps(rows), self.ref), [])
        rows[-1]["dim_unhit"] += 1
        self.assertEqual(len(run.check_report(json.dumps(rows), self.ref)), 1)
        self.assertTrue(run.check_report(json.dumps(rows[:-1]), self.ref))

    def test_rejects_a_chain_element_that_does_not_map_to_x(self):
        item = next(i for i in R.chain_inputs(random.Random(3), per_system=1)
                    if i["system"][0] == "gamma" and i["system"][3] == 2 and i["system"][4] == 3)
        x, k, position = item["element"], item["system"][3], item["system"][4]
        chain = shifted_chain(x, k, position)
        self.assertEqual(R.chain_errors(x, k, chain), [])
        chain[1]["monomials"] = chain[1]["monomials"][1:]
        self.assertEqual(R.chain_errors(x, k, chain), ["y_1 Sq^3 != x"])
        self.assertTrue(R.chain_errors(x, k, chain[:k]))

    def test_counts_a_failed_operation_as_failed(self):
        run.OUT.mkdir(exist_ok=True)
        t = run.Tally()
        proc = run.spawn(["-c", "import sys; sys.exit(1)"])
        self.assertFalse(run._completed(t, "probe", proc))
        item = R.chain_inputs(random.Random(3), per_system=1)[0]
        run.check_chains(t, [item], ["IndexError: tuple index out of range"])
        self.assertEqual(t.failed, 2)
        self.assertTrue(t.correct)
        t.wrong("unhit", ["dim_delta = 1, reference 2"])
        self.assertFalse(t.correct)

    def test_refuses_to_run_without_the_program(self):
        bare = run.OUT / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "unhit-cold",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
        shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
