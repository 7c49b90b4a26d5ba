import json

import pytest

from sqhit import structure, suites
from sqhit.homotopy import ChainCertificateError
from sqhit.modules import Element, ModuleKind

G = ModuleKind.GAMMA


class TestTally:
    def test_first_failure_described_before_the_suite_resumes(self):
        # The describes read the loop variable late, as the suites' do.
        def checks():
            for n in range(4):
                yield n % 2 == 0, lambda: f"case {n}"

        assert suites.tally("t", checks()) == suites.SuiteResult("t", 2, 2, "case 1")


class TestCartanSuite:
    def test_failure_note_writes_the_second_factor_as_json(self, monkeypatch):
        monkeypatch.setattr(Element, "__eq__", lambda a, b: False)  # every check fails
        res = suites.run("cartan")
        assert res.failed == 200
        case = json.loads(res.first_failure)["case"]
        y = json.loads(case.split(" vs ", 1)[1])
        assert set(y) == {"kind", "s", "d", "monomials"} and y["kind"] == "gamma"


class TestCertifyNullDelta:
    def test_certificate_error_counted_with_message(self, monkeypatch):
        def broken(x, h):
            raise ChainCertificateError("y_0 Sq^1 != x")

        monkeypatch.setattr(suites, "preimage_chain", broken)
        res = suites.tally("certify", suites.certify_null_delta(ModuleKind.GAMMA, 1, 3, 0))
        assert res.passed == 0 and res.failed == 2
        assert json.loads(res.first_failure)["case"] == "certificate k=0 pos=1: y_0 Sq^1 != x"

    def test_unexpected_error_propagates(self, monkeypatch):
        def broken(x, h):
            raise TypeError("not a certificate failure")

        monkeypatch.setattr(suites, "preimage_chain", broken)
        with pytest.raises(TypeError):
            suites.tally("certify", suites.certify_null_delta(ModuleKind.GAMMA, 1, 3, 0))


class TestCertificatesSuite:
    def test_reports_under_its_own_name(self, monkeypatch):
        checks = [(True, None), (False, lambda: "x"), (True, None), (True, None)]
        monkeypatch.setattr(suites, "certify_null_delta", lambda *args: iter(checks))
        assert suites.run("certificates") == suites.SuiteResult("certificates", 3, 1, "x")


class TestCounterexampleSuite:
    # A patched witness fails exactly the facts it breaks, each counted
    # once, and the first broken fact is the one named.
    BROKEN = [
        ("sq2_kernel_witness", Element.zero(G, 4, 8), 1, "witness w unexpectedly lies in im Sq^2"),
        ("sq2_kernel_witness", Element.single(G, (1, 1, 1, 5)), 2, "witness w is not killed by Sq^2"),
        ("unhit_witness_5_9", Element.zero(G, 5, 9), 1, "witness z unexpectedly lies in im Sq^3"),
        ("unhit_witness_5_9", Element.single(G, (1, 1, 1, 1, 5)), 1,
         "witness z is not killed by Sq^1 and Sq^2"),
    ]

    def test_one_check_per_reported_assertion(self, monkeypatch):
        assert suites.run("counterexample") == suites.SuiteResult("counterexample", 5, 0)
        for name, broken, failed, first in self.BROKEN:
            with monkeypatch.context() as m:
                m.setattr(structure, name, lambda broken=broken: broken)
                res = suites.run("counterexample")
            assert (res.passed, res.failed) == (5 - failed, failed), (name, broken)
            assert json.loads(res.first_failure) == {"case": first}
