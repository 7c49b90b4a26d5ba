import json

import pytest

from test_modules import owned
from sqhit import f2linalg, hit, modules, structure, suites
from sqhit.homotopy import ChainCertificateError, preimage_chain
from sqhit.modules import Element, ModuleKind

G = ModuleKind.GAMMA


class TestTally:
    def test_first_failure_written_as_json(self):
        checks = [(True, "a", None), (False, "b", Element.single(G, (2, 1))), (False, "c", None)]
        assert suites.tally("t", checks) == suites.SuiteResult(
            "t", 1, 2, '{"case": "b", "element": {"kind": "gamma", "s": 2, "d": 3, "monomials": [[2, 1]]}}')
        assert suites.tally("t", checks[2:]) == suites.SuiteResult("t", 0, 1, '{"case": "c"}')

    @pytest.mark.parametrize("module,name,broken,suite,first", [
        (structure, "unhit_witness_5_9", lambda: Element.zero(G, 5, 9), "counterexample",
         {"case": "witness z unexpectedly lies in im Sq^3"}),
        (f2linalg, "contains_subspace", lambda a, b: False, "containment",
         {"case": "containment gamma Bidegree(s=1, d=1) k=0"}),
    ], ids=["counterexample", "containment"])
    def test_collected_checks_name_the_streamed_first_failure(self, monkeypatch, module, name, broken,
                                                              suite, first):
        # A record carries its own case, so a suite's checks collected into
        # a list name the same first failure as the stream does.
        monkeypatch.setattr(module, name, broken)
        streamed = suites.run(suite)
        assert json.loads(streamed.first_failure) == first
        assert suites.tally(suite, list(suites.SUITES[suite](0))) == streamed


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

    def test_cells_in_the_sweeps_context_and_chains_in_the_callers(self, monkeypatch):
        ctx = modules.Expansions()
        monkeypatch.setattr(modules, "EXPANSIONS", ctx)
        contexts = []

        def chain(x, h):
            contexts.append(modules.EXPANSIONS)
            return preimage_chain(x, h)

        monkeypatch.setattr(suites, "preimage_chain", chain)
        res = suites.tally("certify", suites.certify_null_delta(G, 4, 10, 1))
        assert res.ok and res.passed == len(contexts) > 0
        assert {*map(id, contexts)} == {id(ctx)}
        # The chains filled the caller's expansion tables; no matrix row is left there.
        assert ctx.tables[G] and not owned(ctx, hit._block) and not owned(ctx, hit._high_block)

    def test_unexpected_error_propagates(self, monkeypatch):
        def broken(x, h):
            raise TypeError("not a certificate failure")

        monkeypatch.setattr(suites, "preimage_chain", broken)
        with pytest.raises(TypeError):
            suites.tally("certify", suites.certify_null_delta(ModuleKind.GAMMA, 1, 3, 0))


class TestCertificatesSuite:
    def test_reports_under_its_own_name(self, monkeypatch):
        checks = [(True, "w", None), (False, "x", None), (True, "y", None), (True, "z", None)]
        monkeypatch.setattr(suites, "certify_null_delta", lambda *args: iter(checks))
        assert suites.run("certificates") == suites.SuiteResult("certificates", 3, 1, '{"case": "x"}')


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
