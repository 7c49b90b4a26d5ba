import json

import pytest

from sqhit import hit
from sqhit.cli import main
from sqhit.modules import Element, ModuleKind, element_from_json, element_to_json, sq


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

    def test_json_listing(self, capsys):
        code, out, _ = run(capsys, "basis", "--kind", "gamma", "--s", "2", "--d", "3", "--json")
        assert code == 0
        assert json.loads(out) == [[1, 2], [2, 1]]

    def test_unknown_kind(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "basis", "--kind", "bogus", "--s", "1", "--d", "1")
        assert exc.value.code == 2


class TestSq:
    def test_round_trip_bit_exact(self, capsys, tmp_path):
        x = hit.unhit_witness_5_9()
        path = write_element(tmp_path, x)
        code, out, _ = run(capsys, "sq", "--in", path, "--l", "0")
        assert code == 0
        assert element_from_json(json.loads(out)).same(x)

    def test_action_through_file_output(self, capsys, tmp_path):
        x = hit.sq2_kernel_witness()
        path = write_element(tmp_path, x)
        out_path = tmp_path / "y.json"
        code, _, _ = run(capsys, "sq", "--in", path, "--l", "1", "--out", str(out_path))
        assert code == 0
        y = element_from_json(json.loads(out_path.read_text()))
        assert y.same(sq(x, 1))

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
    ])
    def test_malformed_term_rejected(self, capsys, tmp_path, kind, s, d, term):
        obj = {"kind": kind, "s": s, "d": d, "monomials": [list(term)]}
        with pytest.raises(ValueError):
            element_from_json(obj)
        with pytest.raises(ValueError):
            Element(ModuleKind(kind), s, d, frozenset([term]))
        path = tmp_path / "m.json"
        path.write_text(json.dumps(obj))
        code, out, err = run(capsys, "sq", "--in", str(path), "--l", "1")
        assert code == 2 and out == "" and "bad element input" in err
        assert ", ".join(map(str, term)) in err

    def test_missing_file_exit_2(self, capsys, tmp_path):
        code, _, _ = run(capsys, "sq", "--in", str(tmp_path / "nope.json"), "--l", "1")
        assert code == 2


class TestDeltaImageUnhit:
    def test_delta_json(self, capsys):
        code, out, _ = run(capsys, "delta", "--kind", "gamma", "--s", "1", "--d", "3",
                           "--k", "0", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["dim"] == 1
        assert payload["basis"][0]["monomials"] == [[3]]

    def test_unhit_counterexample_bidegree(self, capsys):
        code, out, _ = run(capsys, "unhit", "--kind", "gamma", "--s", "5", "--d", "9", "--k", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["dim_delta"] == 32
        assert payload["dim_image"] == 31
        assert payload["dim_unhit"] == 1

    def test_guardrail_max_k(self, capsys):
        code, _, err = run(capsys, "delta", "--kind", "gamma", "--s", "1", "--d", "3", "--k", "9")
        assert code == 3 and "max_k" in err

    def test_guardrail_max_dim(self, capsys, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("max_dim = 5\n")
        code, _, err = run(capsys, "--config", str(cfg), "delta", "--kind", "gamma",
                           "--s", "4", "--d", "12", "--k", "1")
        assert code == 3 and "max_dim" in err

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


class TestVerify:
    def test_counterexample_suite_green(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "counterexample")
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"]
        assert payload["suites"] == [{"name": "counterexample", "passed": 5, "failed": 0}]

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
        assert sq(y0, 1).same(x)

    def test_null_rejection_exit_4(self, capsys, tmp_path):
        # The (5,9) class has monomials with first entry 1, outside the
        # first-entry >= 2 null subspace at k=1.
        path = write_element(tmp_path, hit.unhit_witness_5_9())
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

    def test_guardrail_exit_3(self, capsys, tmp_path):
        x = element_from_json({"kind": "gamma", "s": 1, "d": 3, "monomials": [[3]]})
        path = write_element(tmp_path, x)
        code, _, _ = run(capsys, "preimage", "--in", path, "--k", "9")
        assert code == 3


class TestExplore:
    def test_single_generator_column_json(self, capsys):
        code, out, _ = run(capsys, "explore-ker-im", "--l", "1", "--s-max", "1", "--d-max", "8")
        assert code == 0
        for row in json.loads(out):
            assert row["dim_ker"] == row["dim_im"]
            assert row["ker_not_im"] == []

    def test_guardrail_max_dim(self, capsys):
        # Checked on every (s, d + l) before any basis is enumerated.
        code, out, err = run(capsys, "explore-ker-im", "--l", "2", "--s-max", "12", "--d-max", "60")
        assert code == 3 and out == "" and "max_dim" in err



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
