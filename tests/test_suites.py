import json

import pytest

from sqhit import hit, suites
from sqhit.homotopy import ChainCertificateError
from sqhit.modules import ModuleKind


class TestCertifyNullDelta:
    def test_certificate_error_counted_with_message(self, monkeypatch):
        def broken(x, h):
            raise ChainCertificateError("y_0 Sq^1 != x")

        monkeypatch.setattr(suites, "preimage_chain", broken)
        res = suites.certify_null_delta(ModuleKind.GAMMA, 1, 3, 0)
        assert res.passed == 0 and res.failed == 2
        assert json.loads(res.first_failure)["case"] == "certificate k=0 pos=1: y_0 Sq^1 != x"

    def test_unexpected_error_propagates(self, monkeypatch):
        def broken(x, h):
            raise TypeError("not a certificate failure")

        monkeypatch.setattr(suites, "preimage_chain", broken)
        with pytest.raises(TypeError):
            suites.certify_null_delta(ModuleKind.GAMMA, 1, 3, 0)


class TestCertificatesSuite:
    def test_reports_under_its_own_name(self, monkeypatch):
        monkeypatch.setattr(suites, "certify_null_delta", lambda *args: suites.SuiteResult("gamma", 3, 1, "x"))
        assert suites.suite_certificates() == suites.SuiteResult("certificates", 3, 1, "x")


class TestCounterexampleSuite:
    def test_one_check_per_reported_assertion(self, monkeypatch):
        report = {**hit.counterexample_suite(), "z_not_in_im_sq3": False}
        monkeypatch.setattr(hit, "counterexample_suite", lambda: report)
        res = suites.suite_counterexample()
        assert (res.passed, res.failed) == (4, 1)
        assert json.loads(res.first_failure) == {"case": "z_not_in_im_sq3"}
