"""The package's records: read-only fields, equality and hashing by value,
validation in the constructors, and what importing the CLI loads."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from sqhit import cli, f2linalg, hit, suites
from sqhit.homotopy import HomotopySystem
from sqhit.modules import Bidegree, Element, ModuleKind

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


# Each factory builds a fresh record, equal to the one built before; the
# test id names the record, the second entry one of its fields.
HASHABLE = [
    pytest.param(lambda: Element(G, 2, 3, frozenset([(1, 2), (2, 1)])), "support", id="Element"),
    pytest.param(lambda: f2linalg.BitMatrix(2, 3, (0b011, 0b110)), "data", id="BitMatrix"),
    pytest.param(lambda: HomotopySystem(G, 2, 1), "order", id="HomotopySystem"),
    pytest.param(lambda: hit.DeltaReport(G, Bidegree(5, 9), 1, 32, 31, 1, False), "dim_unhit", id="DeltaReport"),
    pytest.param(lambda: cli.Config(max_k=3), "max_dim", id="Config"),
    pytest.param(lambda: suites.SuiteResult("adem", 3, 0), "passed", id="SuiteResult"),
]
UNHASHABLE = [
    pytest.param(lambda: f2linalg.subspace_from_rows(3, [0b011, 0b110]), "pivots", id="Subspace"),
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
