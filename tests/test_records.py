"""The package's records: read-only fields, equality and hashing by value,
validation in the constructors and the library functions, and what
importing the CLI loads."""

import ast
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

from sqhit import cli, f2linalg, hit, structure, suites
from sqhit.homotopy import HomotopySystem, shift, verify_commutation, verify_homotopy
from sqhit.modules import (
    Bidegree,
    Element,
    ModuleKind,
    element_from_json,
    gen_binom_mod2,
    project_to_orbit,
    sq,
)

G = ModuleKind.GAMMA
SRC = Path(__file__).resolve().parent.parent / "src"


def test_cli_import_loads_no_dataclasses_inspect_or_csv():
    # Nor sqhit.homotopy, sqhit.suites or sqhit.structure: only the preimage
    # and verify commands import them.
    code = ("import sys; before = set(sys.modules); import sqhit.cli; "
            "print(' '.join(sorted({'dataclasses', 'inspect', 'csv', 'sqhit.homotopy',"
            " 'sqhit.suites', 'sqhit.structure'} & (set(sys.modules) - before))))")
    env = dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == ""


# A fresh process imports sqhit.cli, runs main on argv (when argv is not
# None) and prints its exit code and every sqhit module it loaded.
LOADED = ("import sys, sqhit.cli\n"
          "try:\n"
          "    code = sqhit.cli.main(sys.argv[2:]) if sys.argv[1] == 'main' else None\n"
          "except SystemExit as exc:\n"
          "    code = exc.code\n"
          "print(code, *sorted(m for m in sys.modules if m.partition('.')[0] == 'sqhit'))")
CLI = ["sqhit", "sqhit.cli"]


@pytest.mark.parametrize("argv,code,loaded", [
    pytest.param(None, None, CLI, id="import"),
    pytest.param(["--help"], 0, CLI, id="help"),
    pytest.param(["report", "--help"], 0, CLI, id="report-help"),
    pytest.param(["basis", "--s", "x"], 2, CLI, id="usage-error"),
    pytest.param(["basis", "--kind", "gamma", "--s", "5", "--d", "9", "--count"], 0, CLI + ["sqhit.modules"],
                 id="basis-count"),
    pytest.param(["sq", "--in", "{x}", "--l", "1"], 0, CLI + ["sqhit.modules"], id="sq"),
    pytest.param(["preimage", "--in", "{x}", "--k", "1"], 0, CLI + ["sqhit.homotopy", "sqhit.modules"],
                 id="preimage"),
    pytest.param(["unhit", "--kind", "gamma", "--s", "1", "--d", "3", "--k", "1"], 0,
                 CLI + ["sqhit.f2linalg", "sqhit.hit", "sqhit.modules"], id="unhit"),
])
def test_each_command_imports_only_what_it_runs(tmp_path, argv, code, loaded):
    # --help and usage errors end inside parse_args, before any command runs.
    x = tmp_path / "x.json"
    x.write_text('{"kind": "gamma", "s": 1, "d": 3, "monomials": [[3]]}')
    args = ["import"] if argv is None else ["main", *(a.format(x=x) for a in argv)]
    env = dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", LOADED, *args], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines()[-1].split() == [str(code), *loaded]


def test_only_two_caches_outlive_a_context():
    # Every memo that grows with a piece lives in a modules.Expansions; the
    # two process-wide caches hold one int or one predicate a key.  Every
    # use of a cache name is counted, so one applied by a call fails too.
    def cache(node):
        return getattr(node, "id", getattr(node, "attr", None)) in ("lru_cache", "cache")

    decorated, uses = [], []
    for path in sorted((SRC / "sqhit").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=path.name)):
            for dec in getattr(node, "decorator_list", []):
                if cache(dec.func if isinstance(dec, ast.Call) else dec):
                    decorated.append(f"{path.stem}.{node.name}")
            if isinstance(node, (ast.Name, ast.Attribute)) and cache(node):
                uses.append(f"{path.stem}:{node.lineno}")
    assert sorted(decorated) == ["homotopy._null_condition", "modules._sym_count"]
    assert len(uses) == len(decorated), uses


def test_hit_counts_partitions_from_its_offsets():
    # hit reads every gamma-sym block size and column offset off its own
    # memo; modules._sym_count serves basis_size alone.  Every name and
    # attribute is counted, so an import under another name fails too.
    tree = ast.parse((SRC / "sqhit" / "hit.py").read_text(), filename="hit.py")
    names = [getattr(node, "id", getattr(node, "attr", getattr(node, "name", None))) for node in ast.walk(tree)]
    assert "_sym_count" not in names


# Each factory builds a fresh record, equal to the one built before; the
# test id names the record, the second entry one of its fields.
HASHABLE = [
    pytest.param(lambda: Element(G, 2, 3, frozenset([(1, 2), (2, 1)])), "support", id="Element"),
    pytest.param(lambda: f2linalg.BitMatrix(2, 3, (0b011, 0b110)), "data", id="BitMatrix"),
    pytest.param(lambda: HomotopySystem(G, 2, 1), "order", id="HomotopySystem"),
    pytest.param(lambda: cli.Config(max_k=3), "max_dim", id="Config"),
    pytest.param(lambda: suites.SuiteResult("adem", 3, 0), "passed", id="SuiteResult"),
]
UNHASHABLE = [
    pytest.param(lambda: f2linalg.subspace_from_rows(3, [0b011, 0b110]), "pivots", id="Subspace"),
    # A report holds two subspaces, so it is no more hashable than they are.
    pytest.param(lambda: hit.unhit_report(Bidegree(5, 9), 1, G), "delta", id="DeltaReport"),
]


@pytest.mark.parametrize("make,field", HASHABLE + UNHASHABLE)
def test_fields_are_read_only(make, field):
    record = make()
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))


@pytest.mark.parametrize("make,field", HASHABLE)
def test_equal_records_hash_alike(make, field):
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


def test_subspaces_equal_by_rref_basis():
    a = f2linalg.subspace_from_rows(3, [0b011, 0b110])
    b = f2linalg.subspace_from_rows(3, [0b101, 0b110])
    assert a.pivots != b.pivots
    assert a == b and not a != b
    assert a != f2linalg.subspace_from_rows(3, [0b011])
    assert a.basis is a.basis  # built once, on first read


@pytest.mark.parametrize("build", [
    pytest.param(lambda: Element(G, 2, 3, frozenset([(1, 1)])), id="Element-degree"),
    pytest.param(lambda: Element(G, 2, 2, frozenset([(0, 2)])), id="Element-entry"),
    pytest.param(lambda: Element(ModuleKind.GAMMA_SYM, 2, 3, frozenset([(1, 2)])), id="Element-canonical"),
    pytest.param(lambda: Element(G, 1, 3, [(3,), (3,)]), id="Element-support-list"),
    pytest.param(lambda: Element(G, 1, 3, {(3,)}), id="Element-support-set"),
    pytest.param(lambda: f2linalg.BitMatrix(2, 2, (1,)), id="BitMatrix-rows"),
    pytest.param(lambda: f2linalg.BitMatrix(1, 2, (0b100,)), id="BitMatrix-cols"),
    pytest.param(lambda: f2linalg.BitMatrix(2, 2, [1, 2]), id="BitMatrix-data-list"),
    pytest.param(lambda: f2linalg.BitMatrix(1, 2, (1.5,)), id="BitMatrix-float-row"),
    pytest.param(lambda: f2linalg.BitMatrix(1.0, 2, (1,)), id="BitMatrix-rows-float"),
    pytest.param(lambda: f2linalg.BitMatrix(True, 2, (1,)), id="BitMatrix-rows-bool"),
    pytest.param(lambda: f2linalg.BitMatrix(1, 2.0, (1,)), id="BitMatrix-cols-float"),
    pytest.param(lambda: f2linalg.BitMatrix(0, -1, ()), id="BitMatrix-cols-negative"),
    # Row 1 has its lowest bit at 0, not at its pivot 1, so reduce(1) would
    # not reach 0 and contains would put the row outside its own span.
    pytest.param(lambda: f2linalg.Subspace(4, {1: 0b0001}), id="Subspace-pivot"),
    pytest.param(lambda: f2linalg.Subspace(2, {5: 1 << 5}), id="Subspace-ambient"),
    pytest.param(lambda: f2linalg.Subspace(-1, {}), id="Subspace-ambient-negative"),
    pytest.param(lambda: f2linalg.Subspace(2.0, {1: 2}), id="Subspace-ambient-float"),
    pytest.param(lambda: f2linalg.Subspace(True, {0: 1}), id="Subspace-ambient-bool"),
    pytest.param(lambda: pickle.loads(pickle.dumps(f2linalg.Subspace._make(2, {5: 1 << 5}))),
                 id="Subspace-unpickled"),
    pytest.param(lambda: HomotopySystem(G, -1), id="HomotopySystem-order"),
    pytest.param(lambda: HomotopySystem(G, 1, 0), id="HomotopySystem-position"),
    pytest.param(lambda: HomotopySystem(G, 1.0), id="HomotopySystem-order-float"),
    pytest.param(lambda: HomotopySystem(G, True), id="HomotopySystem-order-bool"),
    pytest.param(lambda: HomotopySystem(G, 1, 1.0), id="HomotopySystem-position-float"),
    pytest.param(lambda: HomotopySystem(G, 1, True), id="HomotopySystem-position-bool"),
    pytest.param(lambda: HomotopySystem(ModuleKind.GAMMA_CYC, 1, 2), id="HomotopySystem-orbit"),
])
def test_constructors_validate(build):
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize("build,field", [
    pytest.param(lambda: f2linalg.BitMatrix(1.0, 2, (1,)), "rows", id="BitMatrix-rows"),
    pytest.param(lambda: f2linalg.BitMatrix(0, -1, ()), "cols", id="BitMatrix-cols"),
    pytest.param(lambda: f2linalg.Subspace(-1, {}), "ambient_dim", id="Subspace-ambient_dim"),
])
def test_shape_refusals_name_the_field(build, field):
    with pytest.raises(ValueError, match=f"^{field} must be a plain int >= 0"):
        build()


SYM = ModuleKind.GAMMA_SYM
X3, X12, SYM21 = Element.single(G, (3,)), Element.single(G, (1, 2)), Element.single(SYM, (2, 1))
H1 = HomotopySystem(G, 1)


@pytest.mark.parametrize("call,message", [
    pytest.param(lambda: gen_binom_mod2(1, -1), "negative power-series index", id="gen_binom_mod2-index"),
    pytest.param(lambda: X12 + SYM21, "cannot add elements of different kind or arity", id="add-kinds"),
    pytest.param(lambda: sq(X3, -1), "negative square index", id="sq-index"),
    pytest.param(lambda: sq(X3, 2.0), "square index l=2.0 must be a plain int", id="sq-float-index"),
    pytest.param(lambda: sq(X3, True), "square index l=True must be a plain int", id="sq-bool-index"),
    pytest.param(lambda: project_to_orbit(SYM21, ModuleKind.GAMMA_CYC), "projection starts from a gamma element",
                 id="project_to_orbit-source"),
    pytest.param(lambda: project_to_orbit(X12, G), "target must be an orbit kind", id="project_to_orbit-target"),
    pytest.param(lambda: element_from_json([]), "element JSON must be an object", id="element_from_json-list"),
    pytest.param(lambda: element_from_json({"kind": "gamma", "s": 1, "d": 3, "monomials": "x"}),
                 "monomials must be a list", id="element_from_json-monomials"),
    pytest.param(lambda: shift(X3, 1, -1), "shift amount must be >= 0", id="shift-amount"),
    # Built with _make, gamma[4.5] would be an element the constructor refuses.
    pytest.param(lambda: shift(X3, 1, 1.5), "shift amount r=1.5 must be a plain int", id="shift-float-amount"),
    pytest.param(lambda: shift(X3, 1, True), "shift amount r=True must be a plain int", id="shift-bool-amount"),
    pytest.param(lambda: shift(X3, 1.0, 1), "position i=1.0 must be a plain int", id="shift-float-position"),
    pytest.param(lambda: shift(X3, True, 1), "position i=True must be a plain int", id="shift-bool-position"),
    pytest.param(lambda: verify_commutation(X3, H1, 2, 1), "need 1 <= m <= order, got m=2",
                 id="verify_commutation-m"),
    # (1) lies outside the null subspace of order 1 at position 1.
    pytest.param(lambda: verify_commutation(Element.single(G, (1,)), H1, 1, 1),
                 "element is not in the null subspace", id="verify_commutation-null"),
    pytest.param(lambda: verify_homotopy(X3, H1, 2), "need 0 <= m <= order, got m=2", id="verify_homotopy-m"),
    pytest.param(lambda: hit.spike_image_basis(Bidegree(1, 3), -1, G), "order must be >= 0",
                 id="spike_image_basis-order"),
    pytest.param(lambda: hit.sq_matrix(Bidegree(3, 10), 2.0, G), "square index l=2.0 must be a plain int",
                 id="sq_matrix-float-index"),
    pytest.param(lambda: hit.sq_matrix(Bidegree(3, 10), True, G), "square index l=True must be a plain int",
                 id="sq_matrix-bool-index"),
    pytest.param(lambda: hit.unhit_report(Bidegree(5, 9), 1.0, G), "order k=1.0 must be a plain int",
                 id="unhit_report-float-order"),
    pytest.param(lambda: hit.unhit_report(Bidegree(5, 9), True, G), "order k=True must be a plain int",
                 id="unhit_report-bool-order"),
    pytest.param(lambda: structure.decompose_first_factor(SYM21),
                 "first-factor decomposition is defined on gamma elements", id="decompose_first_factor-kind"),
    pytest.param(lambda: structure.build_delta1_element(SYM21, 4), "x_1 must be a gamma element",
                 id="build_delta1_element-kind"),
    pytest.param(lambda: structure.build_delta1_element(Element.zero(G, 1, 3), 3), "x_1 must have degree 2",
                 id="build_delta1_element-degree"),
    pytest.param(lambda: structure.i1_membership(X3), "arity must be >= 2", id="i1_membership-arity"),
])
def test_library_refuses(call, message):
    # PreconditionError, the homotopy refusals' type, is a ValueError.
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
