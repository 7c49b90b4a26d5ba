import argparse
import importlib
import itertools
import json
import os
import pkgutil
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import sqhit
from test_hit import rows_of
from test_modules import owned
from sqhit import cli, f2linalg, hit, homotopy, modules, structure, suites
from sqhit.cli import main
from sqhit.homotopy import ChainCertificateError
from sqhit.modules import (
    Bidegree,
    Element,
    ModuleKind,
    basis,
    element_from_json,
    element_to_json,
    monomial_str,
    sq,
)


def write_element(tmp_path, x, name="x.json"):
    path = tmp_path / name
    path.write_text(json.dumps(element_to_json(x)))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBasis:
    def test_count(self, capsys):
        code, out, _ = run(capsys, "basis", "--kind", "gamma", "--s", "5", "--d", "9", "--count")
        assert code == 0 and out.strip() == "70"

    def test_guardrail_max_dim(self, capsys):
        # C(59, 11) ~ 1.3e11 compositions: refused before any enumeration.
        code, out, err = run(capsys, "basis", "--kind", "gamma", "--s", "12", "--d", "60", "--count")
        assert code == 3 and out == "" and "max_dim" in err

    def test_orbit_guardrail_counts_partitions(self, capsys):
        # 638 partitions, not the 1.56 M compositions of 30 into 8 parts.
        code, out, _ = run(capsys, "basis", "--kind", "gamma-sym", "--s", "8", "--d", "30", "--count")
        assert code == 0 and out.strip() == "638"

    def test_orbit_guardrail_counts_necklaces(self, capsys):
        # 23322657491 necklaces.
        code, out, err = run(capsys, "basis", "--kind", "gamma-cyc", "--s", "12", "--d", "60")
        assert code == 3 and out == "" and "basis size exceeds max_dim=200000" in err

    @pytest.mark.parametrize("kind,s,d", [
        ("gamma", "500000000", "1000000000"),
        ("gamma-sym", "2", "1000000000"),
        ("gamma-sym", "1000", "1000000000"),
        ("gamma-cyc", "2", "1000000000"),
        ("gamma-cyc", "500000000", "1000000000"),
    ])
    def test_guardrail_refuses_huge_bidegree_at_once(self, capsys, kind, s, d):
        # The count stops once it passes max_dim: no list of d entries, no
        # d-digit binomial.
        start = time.perf_counter()
        code, out, err = run(capsys, "basis", "--kind", kind, "--s", s, "--d", d, "--count")
        assert code == 3 and out == "" and "max_dim" in err
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("kind,s,d", [
        ("gamma", "2000", "2000"),
        ("gamma-cyc", "1000000000", "1000000000"),
    ])
    def test_guardrail_refuses_huge_arity(self, capsys, kind, s, d):
        # One basis element, but of an arity past MAX_ARITY.
        code, out, err = run(capsys, "basis", "--kind", kind, "--s", s, "--d", d, "--count")
        assert code == 3 and out == ""
        assert err.strip() == f"arity s={s} exceeds the largest supported arity {modules.MAX_ARITY}"

    def test_largest_supported_arity(self, capsys):
        code, out, _ = run(capsys, "basis", "--kind", "gamma", "--s", str(modules.MAX_ARITY),
                           "--d", str(modules.MAX_ARITY + 1), "--count")
        assert code == 0 and out.strip() == str(modules.MAX_ARITY)

    @pytest.mark.parametrize("kind,s,d,count", [
        ("gamma", "5", "9", 70),
        ("gamma-sym", "8", "30", 638),
        ("gamma-cyc", "4", "12", 43),
    ])
    def test_count_enumerates_no_basis(self, capsys, monkeypatch, kind, s, d, count):
        def no_basis(b, kind):
            raise AssertionError(f"basis enumerated at {b}")

        monkeypatch.setattr(modules, "basis", no_basis)  # cmd_basis imports it from here
        code, out, _ = run(capsys, "basis", "--kind", kind, "--s", s, "--d", d, "--count")
        assert code == 0 and out.strip() == str(count)

    def test_listing_guard_counts_entries(self, capsys):
        # 32896 monomials under max_dim, but 256 entries each: 8.4 M entries.
        code, out, err = run(capsys, "basis", "--kind", "gamma", "--s", "256", "--d", "258")
        assert code == 3 and out == ""
        assert err.strip() == "listing 32896 monomials of arity 256 exceeds max_dim=200000 entries"

    def test_orbit_listing(self, capsys):
        code, out, _ = run(capsys, "basis", "--kind", "gamma-sym", "--s", "3", "--d", "7")
        assert (code, out) == (0, "[3, 2, 2]\n[3, 3, 1]\n[4, 2, 1]\n[5, 1, 1]\n")

    def test_json_listing(self, capsys):
        code, out, _ = run(capsys, "basis", "--kind", "gamma", "--s", "2", "--d", "3", "--json")
        assert code == 0
        assert json.loads(out) == [[1, 2], [2, 1]]

    def test_unknown_kind(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "basis", "--kind", "bogus", "--s", "1", "--d", "1")
        assert exc.value.code == 2
        assert "argument --kind: unknown kind 'bogus'" in capsys.readouterr().err

    def test_closed_stdout_exits_141_quietly(self):
        # 135047 bytes, more than the one read buffer the reader fills plus a
        # 64 KiB pipe, so the writer always meets the closed pipe: that is no
        # bad input, and prints nothing.
        src = str(Path(cli.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.Popen([sys.executable, "-m", "sqhit.cli", "basis", "--kind", "gamma", "--s", "4", "--d", "40"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert proc.stdout.readline() == b"[1, 1, 1, 37]\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=60), err) == (141, b"")


class TestSq:
    def test_round_trip_bit_exact(self, capsys, tmp_path):
        x = structure.unhit_witness_5_9()
        path = write_element(tmp_path, x)
        code, out, _ = run(capsys, "sq", "--in", path, "--l", "0")
        assert code == 0
        assert element_from_json(json.loads(out)) == x

    def test_action_through_file_output(self, capsys, tmp_path):
        x = structure.sq2_kernel_witness()
        path = write_element(tmp_path, x)
        out_path = tmp_path / "y.json"
        code, _, _ = run(capsys, "sq", "--in", path, "--l", "1", "--out", str(out_path))
        assert code == 0
        y = element_from_json(json.loads(out_path.read_text()))
        assert y == sq(x, 1)

    # An element of (2, 3) of each positive kind.
    POSITIVE_2_3 = [("gamma", [[1, 2], [2, 1]]), ("gamma-sym", [[2, 1]]), ("gamma-cyc", [[2, 1]])]

    @pytest.mark.parametrize("kind,entries", POSITIVE_2_3)
    def test_square_past_the_degree_exit_2(self, capsys, tmp_path, kind, entries):
        # Its output would have degree 3 - 10 < 0, which sq could not read back.
        path = write_element(tmp_path, element_from_json({"kind": kind, "s": 2, "d": 3, "monomials": entries}))
        code, out, err = run(capsys, "sq", "--in", path, "--l", "10")
        assert (code, out) == (2, "")
        assert err.strip() == f"Sq^10 exceeds the degree d=3 of a {kind} element"

    @pytest.mark.parametrize("kind,entries", POSITIVE_2_3)
    def test_square_of_the_degree_round_trips(self, capsys, tmp_path, kind, entries):
        path = write_element(tmp_path, element_from_json({"kind": kind, "s": 2, "d": 3, "monomials": entries}))
        code, out, _ = run(capsys, "sq", "--in", path, "--l", "3")
        assert code == 0
        zero = element_from_json(json.loads(out))
        assert zero == Element.zero(ModuleKind(kind), 2, 0)
        code, out, _ = run(capsys, "sq", "--in", write_element(tmp_path, zero, "z.json"), "--l", "0")
        assert code == 0 and element_from_json(json.loads(out)) == zero

    def test_nabla_square_past_the_degree_runs(self, capsys, tmp_path):
        x = element_from_json({"kind": "nabla", "s": 2, "d": 3, "monomials": [[1, 2]]})
        code, out, _ = run(capsys, "sq", "--in", write_element(tmp_path, x), "--l", "10")
        assert code == 0 and element_from_json(json.loads(out)) == sq(x, 10)

    def test_bad_json_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "sq", "--in", str(path), "--l", "1")
        assert code == 2 and err

    @pytest.mark.parametrize("obj", [
        {"kind": "gamma", "s": True, "d": 3, "monomials": [[3]]},
        {"kind": "gamma", "s": 1, "d": True, "monomials": [[1]]},
        {"kind": "gamma", "s": 1, "d": 1, "monomials": [[True]]},
    ])
    def test_boolean_fields_exit_2(self, capsys, tmp_path, obj):
        path = tmp_path / "b.json"
        path.write_text(json.dumps(obj))
        code, out, err = run(capsys, "sq", "--in", str(path), "--l", "0")
        assert code == 2 and out == "" and "bad element input" in err

    @pytest.mark.parametrize("kind,s,d,term", [
        ("gamma-sym", 2, 3, (1, 2)),   # not sorted non-increasing
        ("gamma-cyc", 3, 4, (1, 2, 1)),  # not the lex-greatest rotation
        ("gamma", 2, 2, (0, 2)),       # entry below 1
        ("gamma", 1, 5, (3,)),         # wrong degree
        ("gamma", 2, 3, (3,)),         # wrong arity
        # The same faults in pieces with at least 50 good terms.
        ("gamma-sym", 6, 24, (3, 5, 4, 4, 4, 4)),
        ("gamma-cyc", 5, 14, (1, 5, 3, 2, 3)),
        ("gamma", 4, 12, (0, 5, 4, 3)),
        ("gamma", 4, 12, (3, 3, 3, 4)),
        ("gamma", 4, 12, (6, 6)),
    ])
    def test_malformed_term_rejected(self, capsys, tmp_path, kind, s, d, term):
        obj = {"kind": kind, "s": s, "d": d, "monomials": [list(term)]}
        with pytest.raises(ValueError):
            element_from_json(obj)
        with pytest.raises(ValueError):
            Element(ModuleKind(kind), s, d, frozenset([term]))
        # Among good terms (up to 50), the message still names the bad one.
        good = basis(Bidegree(s, d), ModuleKind(kind))[:50]
        with pytest.raises(ValueError) as exc:
            Element(ModuleKind(kind), s, d, frozenset(good + (term,)))
        assert monomial_str(ModuleKind(kind), term) in str(exc.value)
        path = tmp_path / "m.json"
        path.write_text(json.dumps(obj))
        code, out, err = run(capsys, "sq", "--in", str(path), "--l", "1")
        assert code == 2 and out == "" and "bad element input" in err
        assert ", ".join(map(str, term)) in err

    def test_missing_file_exit_2(self, capsys, tmp_path):
        code, _, _ = run(capsys, "sq", "--in", str(tmp_path / "nope.json"), "--l", "1")
        assert code == 2

    def test_unwritable_output_exit_2(self, capsys, tmp_path):
        x = element_from_json({"kind": "gamma", "s": 1, "d": 3, "monomials": [[3]]})
        out_path = str(tmp_path / "missing-dir" / "y.json")
        code, out, err = run(capsys, "sq", "--in", write_element(tmp_path, x), "--l", "1",
                             "--out", out_path)
        assert code == 2 and out == "" and out_path in err

    @pytest.mark.parametrize("text", [
        # The JSON decoder recurses once per level and gives up with a
        # RecursionError, which is bad input like any other parse failure.
        '{"kind": "gamma", "s": 1, "d": 1, "monomials": ' + "[" * 100000 + "]" * 100000 + "}",
        '{"kind": [1], "s": 1, "d": 1, "monomials": [[1]]}',
    ], ids=["nested-too-deep", "unhashable-kind"])
    def test_unparsable_input_exit_2(self, capsys, tmp_path, text):
        path = tmp_path / "u.json"
        path.write_text(text)
        code, out, err = run(capsys, "sq", "--in", str(path), "--l", "1")
        assert code == 2 and out == "" and err.startswith("bad element input: ")

    @pytest.mark.parametrize("tag", [["gamma"], {"kind": "gamma"}])
    def test_kind_that_is_not_a_string_exit_2(self, capsys, tmp_path, tag):
        path = tmp_path / "k.json"
        path.write_text(json.dumps({"kind": tag, "s": 1, "d": 1, "monomials": [[1]]}))
        code, out, err = run(capsys, "sq", "--in", str(path), "--l", "1")
        assert code == 2 and out == ""
        assert err.strip() == f"bad element input: unknown kind tag {tag!r}"

    def test_refusal_does_not_hang_on_the_monomial_order(self, capsys, tmp_path):
        # Two bad terms, gamma[5, 0] and gamma[1, 1, 1]: every order of the
        # file names the least of them.
        path = tmp_path / "two-bad.json"
        errors = set()
        for monos in itertools.permutations([[4, 1], [5, 0], [3, 2], [1, 1, 1]]):
            path.write_text(json.dumps({"kind": "gamma", "s": 2, "d": 5, "monomials": list(monos)}))
            code, out, err = run(capsys, "sq", "--in", str(path), "--l", "1")
            assert code == 2 and out == ""
            errors.add(err.strip())
        assert errors == {"bad element input: monomial gamma[1, 1, 1] inconsistent with element (gamma,2,5)"}

    def test_huge_square_returns_zero_at_once(self, capsys, tmp_path):
        # modules.sq returns the zero at once; the command refuses it, as its
        # degree 8 - 10**8 is one no element file may have.
        x = element_from_json({"kind": "gamma", "s": 3, "d": 8, "monomials": [[2, 3, 3]]})
        assert sq(x, 10**8) == Element.zero(ModuleKind.GAMMA, 3, 8 - 10**8)
        path = write_element(tmp_path, x)
        code, out, err = run(capsys, "sq", "--in", path, "--l", "100000000")
        assert (code, out) == (2, "")
        assert err.strip() == "Sq^100000000 exceeds the degree d=8 of a gamma element"

    def test_huge_arity_refused(self, capsys, tmp_path):
        x = Element.single(ModuleKind.GAMMA, (2,) + (1,) * 1499)
        code, out, err = run(capsys, "sq", "--in", write_element(tmp_path, x), "--l", "1")
        assert code == 3 and out == ""
        assert err.strip() == f"arity s=1500 exceeds the largest supported arity {modules.MAX_ARITY}"

    def test_largest_supported_arity(self, capsys, tmp_path):
        x = Element.single(ModuleKind.GAMMA, (2,) + (1,) * (modules.MAX_ARITY - 1))
        code, out, _ = run(capsys, "sq", "--in", write_element(tmp_path, x), "--l", "1")
        assert code == 0
        assert element_from_json(json.loads(out)).sorted_support() == [(1,) * modules.MAX_ARITY]

    @pytest.mark.parametrize("kind", ["gamma", "gamma-sym", "gamma-cyc"])
    def test_positive_square_past_max_dim_refused_at_once(self, capsys, tmp_path, kind):
        # The first entry loops over all 5000 splits of Sq^5000, so a huge
        # l with l <= d - s is refused; l > d - s still gives zero at once.
        cfg = tmp_path / "cfg"
        cfg.write_text("max_dim = 1000\n")
        path = write_element(tmp_path, Element.single(ModuleKind(kind), (5000, 5000)))
        start = time.perf_counter()
        code, out, err = run(capsys, "--config", str(cfg), "sq", "--in", path, "--l", "5000")
        assert time.perf_counter() - start < 1.0
        assert code == 3 and out == ""
        assert err.strip() == "Sq^5000 takes too many Cartan steps on an arity-2 term, more than max_dim=1000"
        code, out, _ = run(capsys, "--config", str(cfg), "sq", "--in", path, "--l", "10000")
        assert code == 0 and json.loads(out)["monomials"] == []
        one = write_element(tmp_path, Element.single(ModuleKind(kind), (10000,)), "one.json")
        code, out, _ = run(capsys, "--config", str(cfg), "sq", "--in", one, "--l", "5000")
        assert code == 0 and json.loads(out)["monomials"] == [[5000]]

    @pytest.mark.parametrize("kind,entries,l,steps", [
        ("gamma", (60000,) * 3, 150000, 3636848449),
        ("gamma", (60000,) * 4, 150000, 33203427936),
        ("gamma", (2,) * 40, 20, 2199022208152),
        ("gamma-cyc", (2,) * 40, 20, 2199022208152),
    ])
    def test_positive_expansion_past_max_dim_refused_at_once(self, capsys, tmp_path, kind, entries, l, steps):
        # l <= max_dim, but the memoised suffixes loop again over what is
        # left of l: on 60000s, 60000 splits at the first entry, then 60000
        # for each of the 60000 squares left to the second, and so on.  On
        # forty 2s every loop is short, but Sq^20 has C(40, 20) plain terms.
        # steps is an upper bound on the loop steps and terms built, far
        # above max_dim; the expansion stops once it has counted max_dim
        # steps, and the message names no count.
        x = Element.single(ModuleKind(kind), entries)
        start = time.perf_counter()
        code, out, err = run(capsys, "sq", "--in", write_element(tmp_path, x), "--l", str(l))
        assert time.perf_counter() - start < 1.0
        assert code == 3 and out == ""
        assert err.strip() == (f"Sq^{l} takes too many Cartan steps on an arity-{len(entries)} term,"
                               " more than max_dim=200000")
        assert str(steps) not in err

    def test_orbit_terms_that_cancel_are_not_refused(self, capsys, tmp_path):
        # gamma-sym [2]*40 under Sq^20: C(40, 20) plain terms, but all sort
        # to [2]*20 + [1]*20 and cancel (C(40, 20) is even), and the split
        # on the largest part builds at most one partition per split.
        x = Element.single(ModuleKind.GAMMA_SYM, (2,) * 40)
        start = time.perf_counter()
        code, out, _ = run(capsys, "sq", "--in", write_element(tmp_path, x), "--l", "20")
        assert time.perf_counter() - start < 1.0
        assert code == 0 and json.loads(out)["monomials"] == []

    def test_many_short_splits_refused_at_once(self, capsys, tmp_path):
        # Each 2 splits as i = 0 or 1 and loops twice only, but the terms
        # multiply: C(2^19 + 2^18, 2^18) is odd, so Sq^262272 gives at
        # least C(255, 128) terms.
        x = Element.single(ModuleKind.GAMMA, (2,) * 255 + (1 << 20,))
        start = time.perf_counter()
        code, out, err = run(capsys, "sq", "--in", write_element(tmp_path, x), "--l", "262272")
        assert time.perf_counter() - start < 1.0
        assert code == 3 and out == ""
        assert err.startswith("Sq^262272 ") and err.strip().endswith("an arity-256 term, more than max_dim=200000")

    def test_allowance_covers_every_term(self, capsys, tmp_path):
        # Each term [200001 + j, 199999 - j] loops over 190001 splits of its
        # first entry under Sq^190000, within max_dim alone but not five
        # times over.
        def terms(n):
            return element_from_json({"kind": "gamma", "s": 2, "d": 400000,
                                      "monomials": [[200001 + j, 199999 - j] for j in range(n)]})

        code, out, err = run(capsys, "sq", "--in", write_element(tmp_path, terms(5)), "--l", "190000")
        assert code == 3 and out == ""
        assert err.strip() == ("Sq^190000 takes too many Cartan steps on 5 arity-2 terms,"
                               " more than max_dim=200000")
        code, out, _ = run(capsys, "sq", "--in", write_element(tmp_path, terms(1)), "--l", "190000")
        assert code == 0 and json.loads(out)["d"] == 210000

    def test_negative_arity_exit_2(self, capsys, tmp_path):
        path = tmp_path / "neg.json"
        path.write_text(json.dumps({"kind": "gamma", "s": -1, "d": 3, "monomials": []}))
        code, out, err = run(capsys, "sq", "--in", str(path), "--l", "1")
        assert code == 2 and out == ""
        assert err.strip() == "bad element input: arity s=-1 must be >= 0"

    @pytest.mark.parametrize("kind", ["gamma", "gamma-sym", "gamma-cyc"])
    def test_negative_degree_exit_2(self, capsys, tmp_path, kind):
        # basis refuses the same bidegree; an empty support does not get past.
        path = tmp_path / "neg.json"
        path.write_text(json.dumps({"kind": kind, "s": 2, "d": -5, "monomials": []}))
        code, out, err = run(capsys, "sq", "--in", str(path), "--l", "1")
        assert code == 2 and out == ""
        assert err.strip() == f"bad element input: degree d=-5 must be >= 0 for {kind}"

    def test_nabla_negative_degree_runs(self, capsys, tmp_path):
        x = Element.single(ModuleKind.NABLA, (-3, -2))
        code, out, _ = run(capsys, "sq", "--in", write_element(tmp_path, x), "--l", "1")
        assert code == 0 and json.loads(out)["d"] == -6

    def test_entries_with_one_odd_split_run(self, capsys, tmp_path):
        # 3 has one odd split (C(3, 0)), so nineteen 3s build few terms
        # however many entries there are; Sq^10 lowers the last entry.
        x = Element.single(ModuleKind.GAMMA, (3,) * 19 + (20,))
        code, out, _ = run(capsys, "sq", "--in", write_element(tmp_path, x), "--l", "10")
        assert code == 0
        assert json.loads(out)["monomials"] == [[3] * 19 + [10]]

    def test_square_past_max_dim_with_few_steps_runs(self, capsys, tmp_path):
        # l > max_dim, but the first entry 2 has two splits and the last
        # entry one.  (An orbit representative starts with its largest part.)
        cfg = tmp_path / "cfg"
        cfg.write_text("max_dim = 1000\n")
        x = Element.single(ModuleKind.GAMMA, (2, 9998))
        code, out, _ = run(capsys, "--config", str(cfg), "sq", "--in", write_element(tmp_path, x), "--l", "5000")
        assert code == 0
        # Sq^1 on 2 gives 1, and Sq^4999 on 9998 gives 4999: C(4999, 4999) = 1.
        assert json.loads(out)["monomials"] == [[1, 4999]]

    @pytest.mark.parametrize("entries", [(3, -3), (3,)])
    def test_nabla_square_past_max_dim_refused_at_once(self, capsys, tmp_path, entries):
        # A nabla entry has no lower bound, so the first of two entries
        # loops over all 3000001 splits of l > max_dim.  One entry has one
        # split, so (3,) runs: the last entry's split is not looped over.
        x = Element.single(ModuleKind.NABLA, entries)
        start = time.perf_counter()
        code, out, err = run(capsys, "sq", "--in", write_element(tmp_path, x), "--l", "3000000")
        assert time.perf_counter() - start < 1.0
        if len(entries) == 2:
            assert code == 3 and out == ""
            assert err.strip() == ("Sq^3000000 takes too many Cartan steps on an arity-2 term,"
                                   " more than max_dim=200000")
        else:
            assert code == 0 and json.loads(out)["monomials"] == []


class TestDeltaImageUnhit:
    def test_delta_json(self, capsys):
        code, out, _ = run(capsys, "delta", "--kind", "gamma", "--s", "1", "--d", "3",
                           "--k", "0", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["dim"] == 1
        assert payload["basis"][0]["monomials"] == [[3]]

    def test_delta_text(self, capsys):
        code, out, _ = run(capsys, "delta", "--kind", "gamma", "--s", "3", "--d", "5", "--k", "1")
        assert (code, out) == (0, "dim = 3\ngamma[1, 1, 3]\ngamma[1, 3, 1]\ngamma[3, 1, 1]\n")

    def test_unhit_witnesses(self, capsys):
        code, out, _ = run(capsys, "unhit", "--kind", "gamma", "--s", "5", "--d", "9", "--k", "1", "--witnesses")
        assert code == 0
        payload = json.loads(out)
        assert payload["dim_unhit"] == 1
        # unhit lists a basis of the quotient U(1): one class, as many as
        # dim_unhit.
        witnesses = {key: [element_from_json(e) for e in val] for key, val in payload["witnesses"].items()}
        assert {key: len(val) for key, val in witnesses.items()} == {"delta": 32, "image": 31, "unhit": 1}
        assert all(sq(x, 1).is_zero() and sq(x, 2).is_zero() for x in witnesses["unhit"])

    def test_unhit_counterexample_bidegree(self, capsys):
        code, out, _ = run(capsys, "unhit", "--kind", "gamma", "--s", "5", "--d", "9", "--k", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["dim_delta"] == 32
        assert payload["dim_image"] == 31
        assert payload["dim_unhit"] == 1

    def test_orbit_bidegree_past_gamma_count(self, capsys):
        # The guardrail sizes (8, 34): its gamma count C(33, 7) = 4272048
        # exceeds max_dim, its 1297 partitions do not.
        code, out, _ = run(capsys, "unhit", "--kind", "gamma-sym", "--s", "8", "--d", "30", "--k", "1")
        assert code == 0
        payload = json.loads(out)
        assert (payload["dim_delta"], payload["dim_image"], payload["dim_unhit"]) == (147, 147, 0)

    def test_guardrail_max_k(self, capsys):
        code, _, err = run(capsys, "delta", "--kind", "gamma", "--s", "1", "--d", "3", "--k", "9")
        assert code == 3 and "max_k" in err

    @pytest.mark.parametrize("command", ["unhit", "report", "delta", "image"])
    @pytest.mark.parametrize("k", ["-1", "-2", "-9"])
    def test_negative_order_exit_2(self, capsys, command, k):
        box = ("--s-max", "2", "--d-max", "3") if command == "report" else ("--s", "2", "--d", "3")
        code, out, err = run(capsys, command, "--kind", "gamma", *box, "--k", k)
        assert code == 2 and out == ""
        assert err.strip() == f"order k={k} must be >= 0"

    @pytest.mark.parametrize("argv,where", [
        (("unhit", "--kind", "gamma", "--s", "-1", "--d", "3", "--k", "1"), "gamma bidegree (s,d)=(-1,3) out of range"),
        (("delta", "--kind", "gamma-cyc", "--s", "2", "--d", "-9", "--k", "1"),
         "gamma-cyc bidegree (s,d)=(2,-9) out of range"),
        (("image", "--kind", "gamma-sym", "--s", "-2", "--d", "5", "--k", "2"),
         "gamma-sym bidegree (s,d)=(-2,5) out of range"),
        # The sweep stops at its first bidegree, (1,-3) or (1,-9); the pieces
        # it would read above them, (1,1) and (1,-5), are not the ones named.
        (("report", "--kind", "gamma", "--k", "1", "--s-max", "2", "--d-min", "-3", "--d-max", "1"),
         "gamma bidegree (s,d)=(1,-3) out of range"),
        (("report", "--kind", "gamma", "--k", "1", "--s-max", "2", "--d-min", "-9", "--d-max", "1"),
         "gamma bidegree (s,d)=(1,-9) out of range"),
        (("unhit", "--kind", "nabla", "--s", "2", "--d", "3", "--k", "1"), "nabla bidegree (s,d)=(2,3)"),
    ], ids=["unhit", "delta", "image", "report", "report-far", "nabla"])
    def test_bidegree_named(self, capsys, argv, where):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.strip().startswith(f"{where}:")

    def test_guardrail_max_dim(self, capsys, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("max_dim = 5\n")
        code, _, err = run(capsys, "--config", str(cfg), "delta", "--kind", "gamma",
                           "--s", "4", "--d", "12", "--k", "1")
        assert code == 3 and "max_dim" in err

    def test_guardrail_checks_the_largest_piece_read(self, capsys, tmp_path):
        # unhit at gamma (2,8), k=1 reads (2,11), the source of Sq^3, with 10
        # compositions; (2,12) has 11 and is never read.
        cfg = tmp_path / "cfg"
        cfg.write_text("max_dim = 10\n")
        code, out, _ = run(capsys, "--config", str(cfg), "unhit", "--kind", "gamma",
                           "--s", "2", "--d", "8", "--k", "1")
        assert code == 0 and json.loads(out)["dim_delta"] == 3
        code, _, err = run(capsys, "--config", str(cfg), "unhit", "--kind", "gamma",
                           "--s", "2", "--d", "9", "--k", "1")
        assert code == 3 and "max_dim=10" in err

    def test_delta_guard_checks_only_the_pieces_it_reads(self, capsys, tmp_path):
        # delta at gamma (4,16), k=2 reads (4,16) and the smaller targets of
        # its squares; only image and unhit read (4,23), the source of Sq^7,
        # with 1540 compositions.
        cfg = tmp_path / "cfg"
        cfg.write_text("max_dim = 500\n")
        argv = ("--kind", "gamma", "--s", "4", "--d", "16", "--k", "2")
        code, out, err = run(capsys, "--config", str(cfg), "delta", *argv)
        assert (code, out.splitlines()[0], err) == (0, "dim = 35", "")
        for command in ("image", "unhit"):
            code, out, err = run(capsys, "--config", str(cfg), command, *argv)
            assert (code, out, err) == (3, "", "gamma bidegree (s,d)=(4,23): basis size exceeds max_dim=500\n")

    @pytest.mark.parametrize("max_dim,argv,message", [
        ("200000", ("basis", "--kind", "gamma-cyc", "--s", "12", "--d", "60"),
         "gamma-cyc bidegree (s,d)=(12,60): basis size exceeds max_dim=200000"),
        # unhit at (2,9), k=1 reads (2,12), the source of Sq^3.
        ("10", ("unhit", "--kind", "gamma", "--s", "2", "--d", "9", "--k", "1"),
         "gamma bidegree (s,d)=(2,12): basis size exceeds max_dim=10"),
    ], ids=["basis", "largest-piece"])
    def test_guardrail_names_the_piece(self, capsys, tmp_path, max_dim, argv, message):
        cfg = tmp_path / "cfg"
        cfg.write_text(f"max_dim = {max_dim}\n")
        code, out, err = run(capsys, "--config", str(cfg), *argv)
        assert (code, out, err) == (3, "", message + "\n")

    def test_config_comments_and_blank_lines(self, capsys, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("# guardrails\n\nmax_k = 2\n")
        code, out, err = run(capsys, "--config", str(cfg), "delta", "--kind", "gamma",
                             "--s", "1", "--d", "3", "--k", "3")
        assert (code, out, err) == (3, "", "order k=3 exceeds max_k=2\n")

    def test_config_line_without_equals_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("max_dim 5\n")
        code, out, err = run(capsys, "--config", str(cfg), "basis", "--kind", "gamma",
                             "--s", "1", "--d", "1")
        assert (code, out, err) == (2, "", "bad config: bad config line: 'max_dim 5'\n")

    def test_bad_config_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("max_k = -1\n")
        code, _, _ = run(capsys, "--config", str(cfg), "basis", "--kind", "gamma",
                         "--s", "1", "--d", "1")
        assert code == 2


class TestReport:
    def test_csv_columns_and_order(self, capsys):
        code, out, _ = run(capsys, "report", "--k", "0", "--s-max", "2", "--d-max", "4")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "kind,s,d,k,dim_delta,dim_image,dim_unhit,degenerate"
        assert len(lines) == 1 + 2 * 4

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "report", "--k", "0", "--s-max", "1", "--d-max", "3",
                           "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert all(row["dim_unhit"] == 0 for row in rows)

    def test_kind_defaults_to_gamma(self, capsys):
        # The default is the string "gamma", which argparse passes through
        # _parse_kind as it would the same option given.
        box = ("--k", "1", "--s-max", "3", "--d-max", "6", "--format", "json")
        default = run(capsys, "report", *box)
        assert default == run(capsys, "report", "--kind", "gamma", *box)
        assert default[0] == 0 and {row["kind"] for row in json.loads(default[1])} == {"gamma"}

    def test_box_refused_before_any_cell_is_computed(self, capsys, monkeypatch):
        # Only the last cell, (7,24), is refused: it reads (7,27), which has
        # C(26,6) = 230230 compositions.
        def computed(*args, **kwargs):
            raise AssertionError("a cell was computed")

        monkeypatch.setattr(hit, "unhit_report", computed)
        code, out, err = run(capsys, "report", "--kind", "gamma", "--k", "1", "--s-max", "7", "--d-max", "24")
        assert (code, out, err) == (3, "", "gamma bidegree (s,d)=(7,27): basis size exceeds max_dim=200000\n")

    def test_box_past_max_dim_cells_refused(self, capsys, tmp_path):
        # Every cell of a 1 x 501 box passes its own checks, as a piece at
        # s = 1 has one monomial; the box is refused before any is listed.
        cfg = tmp_path / "cfg"
        cfg.write_text("max_dim = 500\n")
        code, out, err = run(capsys, "--config", str(cfg), "report", "--k", "1", "--s-max", "1", "--d-max", "501")
        assert (code, out, err) == (3, "", "report box of 501 cells exceeds max_dim=500\n")

    def test_csv_rows_stream_before_a_failed_cell(self, capsys, monkeypatch):
        # The third of six cells fails; CSV has already written the two
        # rows before it.
        calls = []
        real = hit.unhit_report

        def third_fails(*args):
            calls.append(args)
            if len(calls) == 3:
                raise hit.InternalInconsistencyError("third cell")
            return real(*args)

        monkeypatch.setattr(hit, "unhit_report", third_fails)
        code, out, err = run(capsys, "report", "--kind", "gamma", "--k", "1", "--s-max", "2", "--d-max", "3")
        assert (code, err) == (5, "internal error: third cell\n")
        assert out.splitlines() == ["kind,s,d,k,dim_delta,dim_image,dim_unhit,degenerate",
                                    "gamma,1,1,1,1,0,1,True", "gamma,1,2,1,0,0,0,True"]

    @pytest.mark.parametrize("kind", ["gamma", "gamma-sym", "gamma-cyc"])
    def test_report_leaves_the_default_context_as_it_was(self, capsys, monkeypatch, kind):
        # The report's cells fill its sweep's context, which goes with it.
        ctx = modules.Expansions()
        monkeypatch.setattr(modules, "EXPANSIONS", ctx)
        hit.unhit_report(Bidegree(3, 9), 1, ModuleKind(kind))

        def sizes():
            return ([len(rows_of(ctx, kind)) for kind in modules.POSITIVE_KINDS], len(owned(ctx, hit._high_block)),
                    [sum(map(len, by_l.values())) for by_l in ctx.tables.values()])

        before = sizes()
        code, out, _ = run(capsys, "report", "--kind", kind, "--k", "1", "--s-max", "5", "--d-max", "14")
        assert (code, len(out.splitlines())) == (0, 1 + 5 * 14)
        assert modules.EXPANSIONS is ctx and sizes() == before

    @pytest.mark.parametrize("k,code,message", [
        ("-2", 2, "order k=-2 must be >= 0"), ("9", 3, "order k=9 exceeds max_k=4"),
    ], ids=["negative", "past-max-k"])
    def test_order_checked_on_an_empty_box(self, capsys, k, code, message):
        got, out, err = run(capsys, "report", "--k", k, "--s-min", "3", "--s-max", "2", "--d-max", "3")
        assert (got, out, err.strip()) == (code, "", message)


class TestVerify:
    def test_counterexample_suite_green(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "counterexample")
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"]
        assert payload["suites"] == [{"name": "counterexample", "passed": 5, "failed": 0}]

    def test_all_runs_every_suite_in_order(self, capsys, monkeypatch):
        monkeypatch.setattr(suites, "SUITES", {name: lambda seed: iter(()) for name in suites.SUITES})
        code, out, _ = run(capsys, "verify", "--suite", "all")
        assert code == 0
        assert [r["name"] for r in json.loads(out)["suites"]] == [
            "adem", "cartan", "instability", "composition", "homotopy", "certificates", "orbit",
            "ideal", "containment", "structure", "i1-membership", "builder", "counterexample"]

    def test_failed_suite_exit_1(self, capsys, monkeypatch):
        monkeypatch.setattr(structure, "unhit_witness_5_9", lambda: Element.zero(ModuleKind.GAMMA, 5, 9))
        code, out, err = run(capsys, "verify", "--suite", "counterexample")
        assert code == 1
        assert json.loads(out) == {"seed": 0, "suites": [{"name": "counterexample", "passed": 4, "failed": 1}],
                                   "ok": False}
        assert err == 'FAIL counterexample: {"case": "witness z unexpectedly lies in im Sq^3"}\n'

    def test_certificate_cell_outside_its_kernel_exit_5(self, capsys, monkeypatch):
        # The certificate reads each cell through unhit_report, whose
        # containment check raises rather than failing a check.
        monkeypatch.setattr(f2linalg, "contains_subspace", lambda outer, inner: False)
        code, out, err = run(capsys, "verify", "--suite", "certificates")
        assert (code, out) == (5, "")
        assert err == "internal error: gamma (1,1), k=0, unhit containment check: image not contained in kernel\n"

    def test_unknown_suite_exit_2(self, capsys):
        code, _, err = run(capsys, "verify", "--suite", "no-such-suite")
        assert code == 2 and "unknown suite" in err

    def test_deterministic_given_seed(self, capsys):
        code1, out1, _ = run(capsys, "verify", "--suite", "composition", "--seed", "7")
        code2, out2, _ = run(capsys, "verify", "--suite", "composition", "--seed", "7")
        assert code1 == code2 == 0 and out1 == out2


class TestPreimage:
    def test_chain_written_and_correct(self, capsys, tmp_path):
        x = element_from_json({"kind": "gamma", "s": 1, "d": 3, "monomials": [[3]]})
        path = write_element(tmp_path, x)
        prefix = str(tmp_path / "y")
        code, _, _ = run(capsys, "preimage", "--in", path, "--k", "0",
                         "--out-prefix", prefix)
        assert code == 0
        y0 = element_from_json(json.loads((tmp_path / "y0.json").read_text()))
        assert sq(y0, 1) == x

    def test_chain_printed_one_element_a_line(self, capsys, tmp_path):
        # The console-script check in CI runs the same command.
        x = element_from_json({"kind": "gamma", "s": 1, "d": 7, "monomials": [[7]]})
        code, out, err = run(capsys, "preimage", "--in", write_element(tmp_path, x), "--k", "2")
        assert (code, err) == (0, "")
        assert out.splitlines() == [
            f'{{"d": {d}, "kind": "gamma", "monomials": [[{d}]], "s": 1}}' for d in (8, 10, 14)]

    def test_unwritable_output_prefix_exit_2(self, capsys, tmp_path):
        x = element_from_json({"kind": "gamma", "s": 1, "d": 1, "monomials": [[1]]})
        prefix = str(tmp_path / "missing-dir" / "y")
        code, out, err = run(capsys, "preimage", "--in", write_element(tmp_path, x), "--k", "0",
                             "--out-prefix", prefix)
        assert code == 2 and out == "" and f"{prefix}0.json" in err

    def test_null_rejection_exit_4(self, capsys, tmp_path):
        # The (5,9) class has monomials with first entry 1, outside the
        # first-entry >= 2 null subspace at k=1.
        path = write_element(tmp_path, structure.unhit_witness_5_9())
        code, _, err = run(capsys, "preimage", "--in", path, "--k", "1")
        assert code == 4 and "null" in err
        # The lexicographically least offending term, whatever the hash seed.
        assert err.strip().endswith("offending monomial gamma[1, 1, 1, 2, 4]")

    def test_annihilation_rejection_exit_4(self, capsys, tmp_path):
        x = element_from_json({"kind": "gamma", "s": 1, "d": 2, "monomials": [[2]]})
        path = write_element(tmp_path, x)
        code, _, err = run(capsys, "preimage", "--in", path, "--k", "0")
        assert code == 4 and "not annihilated" in err

    def test_position_beyond_arity_exit_2(self, capsys, tmp_path):
        x = element_from_json({"kind": "gamma", "s": 1, "d": 8, "monomials": [[8]]})
        path = write_element(tmp_path, x)
        code, out, err = run(capsys, "preimage", "--in", path, "--k", "1", "--position", "3")
        assert code == 2 and out == ""
        assert "position 3" in err and "arity 1" in err

    @pytest.mark.parametrize("kind,monomials,system,accepted", [
        ("gamma", [[7, 7]], "gamma", {1, 2}),
        ("gamma", [], "gamma", {1, 2}),
        ("nabla", [[-1, 15]], "nabla", {1, 2}),
        ("nabla", [], "nabla", {1, 2}),
        ("gamma-sym", [[11, 3]], "gamma-sym", {1}),
        ("gamma-sym", [], "gamma-sym", {1}),
        ("gamma", [[7, 7]], "gamma-sym", set()),
    ], ids=["gamma", "gamma-zero", "nabla", "nabla-zero", "gamma-sym", "gamma-sym-zero", "kind-mismatch"])
    def test_library_and_cli_agree_on_position_and_kind(self, capsys, tmp_path, kind, monomials, system,
                                                        accepted):
        # Arity 2, order 1: each accepted position gives a chain, so exit 2
        # and a ValueError come from the position and kind rules alone.
        # Zero elements follow the same rules as the others.
        x = element_from_json({"kind": kind, "s": 2, "d": 14, "monomials": monomials})
        path = write_element(tmp_path, x)

        def raises(call):
            try:
                call()
            except ValueError:
                return True
            return False

        def at(p):  # building the system is part of each library call
            return homotopy.HomotopySystem(ModuleKind(system), 1, p)

        ran = set()
        for p in (0, 1, 2, 3):
            refused = raises(lambda: homotopy.preimage_chain(x, at(p)))
            assert raises(lambda: homotopy.in_null(x, at(p))) == refused, p
            if system == kind:  # the CLI takes the system's kind from the element
                code, _, _ = run(capsys, "preimage", "--in", path, "--k", "1", "--position", str(p))
                assert code == (2 if refused else 0), p
                assert raises(lambda: homotopy.shift(x, p, 1)) == refused, p
            if not refused:
                ran.add(p)
        assert ran == accepted

    def test_guardrail_exit_3(self, capsys, tmp_path):
        x = element_from_json({"kind": "gamma", "s": 1, "d": 3, "monomials": [[3]]})
        path = write_element(tmp_path, x)
        code, _, _ = run(capsys, "preimage", "--in", path, "--k", "9")
        assert code == 3

    def test_chain_past_its_budget_exit_3(self, capsys, tmp_path):
        # Forty arity-40 terms in ker Sq^1, null at position 1: y_1 Sq^3
        # expands each, and the chain spends its (k+1)*max_dim steps at once.
        terms = [[7] + [2] * 39] + [[8] + [2] * (p - 1) + [1] + [2] * (39 - p) for p in range(1, 40)]
        path = tmp_path / "wide-40.json"
        path.write_text(json.dumps({"kind": "gamma", "s": 40, "d": 85, "monomials": terms}))
        outer = modules.EXPANSIONS
        start = time.perf_counter()
        code, out, err = run(capsys, "preimage", "--in", str(path), "--k", "1")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (3, "")
        assert err.strip() == ("preimage chain of order k=1 takes too many Cartan steps on 40 arity-40 terms,"
                               " more than (k+1)*max_dim=400000")
        assert modules.EXPANSIONS is outer

    def test_negative_order_exit_2(self, capsys, tmp_path):
        x = element_from_json({"kind": "gamma", "s": 1, "d": 3, "monomials": [[3]]})
        code, out, err = run(capsys, "preimage", "--in", write_element(tmp_path, x), "--k", "-1")
        assert (code, out, err.strip()) == (2, "", "order k=-1 must be >= 0")

    def test_negative_degree_exit_2(self, capsys, tmp_path):
        path = tmp_path / "neg.json"
        path.write_text(json.dumps({"kind": "gamma", "s": 2, "d": -5, "monomials": []}))
        code, out, err = run(capsys, "preimage", "--in", str(path), "--k", "1")
        assert code == 2 and out == ""
        assert err.strip() == "bad element input: degree d=-5 must be >= 0 for gamma"


README = Path(__file__).resolve().parent.parent / "README.md"


class TestReadme:
    def test_usage_block_names_every_command(self):
        # Each `sqhit CMD` line of README's usage block names a subcommand
        # of the parser, and each subcommand has a line.
        readme = README.read_text()
        usage = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        documented = {line.split()[1] for line in usage.splitlines() if line.startswith("sqhit ")}
        sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        assert documented == set(sub.choices)

    def test_cited_names_resolve(self):
        # Every `module.name` or `sqhit.module.name` that README cites
        # exists.
        text = re.sub(r"```.*?```", "", README.read_text(), flags=re.S)
        modules = {m.name for m in pkgutil.iter_modules(sqhit.__path__)}
        cited = [m.groups() for m in (re.match(r"(?:sqhit\.)?(\w+)\.(\w+)", span)
                                      for span in re.findall(r"`([^`]+)`", text))
                 if m and m.group(1) in modules]
        assert len(cited) >= 20
        missing = [f"{mod}.{name}" for mod, name in cited
                   if not hasattr(importlib.import_module(f"sqhit.{mod}"), name)]
        assert missing == []


class TestInternalError:
    @pytest.mark.parametrize("argv,target,exc", [
        (("unhit", "--kind", "gamma", "--s", "5", "--d", "9", "--k", "1"),
         (hit, "unhit_report"), hit.InternalInconsistencyError(
             "gamma (5,9), k=1, unhit containment check: image not contained in kernel")),
        (("preimage", "--k", "0"),
         (homotopy, "preimage_chain"), ChainCertificateError("y_0 Sq^1 != x")),
    ])
    def test_exit_5_without_traceback(self, capsys, tmp_path, monkeypatch, argv, target, exc):
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(*target, fail)
        if argv[0] == "preimage":
            x = element_from_json({"kind": "gamma", "s": 1, "d": 3, "monomials": [[3]]})
            argv = argv + ("--in", write_element(tmp_path, x))
        code, out, err = run(capsys, *argv)
        assert code == 5 and out == ""
        assert err.strip() == f"internal error: {exc}"
        assert "Traceback" not in err

    def test_unhit_containment_check_fires(self, capsys, monkeypatch):
        # The real check in unhit_report runs: the whole space as I(1) at
        # gamma (5,9) does not lie in Delta(1).
        def whole_space(b, k, kind):
            n = len(basis(b, kind))
            return f2linalg.subspace_from_rows(n, [1 << j for j in range(n)])

        monkeypatch.setattr(hit, "spike_image_basis", whole_space)
        message = "gamma (5,9), k=1, unhit containment check: image not contained in kernel"
        with pytest.raises(hit.InternalInconsistencyError, match=re.escape(message)):
            hit.unhit_report(Bidegree(5, 9), 1, ModuleKind.GAMMA)
        code, out, err = run(capsys, "unhit", "--kind", "gamma", "--s", "5", "--d", "9", "--k", "1")
        assert code == 5 and out == ""
        assert err.strip() == f"internal error: {message}"


class TestRemovedCache:
    def test_cache_dir_config_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("cache_dir = x\n")
        code, out, err = run(capsys, "--config", str(cfg), "basis", "--kind", "gamma",
                             "--s", "1", "--d", "1")
        assert code == 2 and out == "" and "unknown config key" in err

    def test_cache_subcommand_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "cache", "stat")
        assert exc.value.code == 2
