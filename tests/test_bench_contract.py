"""The benchmark under perfbench/ names program functions by string; these
tests read its sources (parsed, never imported or executed) and check that
every name it resolves still exists, so a deleted or renamed function cannot
silently drop a per-layer span."""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tree(name):
    return ast.parse((PERFBENCH / name).read_text(), filename=name)


def test_traced_functions_exist():
    traced = None
    for node in _tree("spans.py").body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TRACED" for t in node.targets):
            traced = ast.literal_eval(node.value)
    assert traced
    missing = [f"{m}.{f}" for m, f in traced
               if not callable(getattr(importlib.import_module(f"sqhit.{m}"), f, None))]
    assert missing == []


def test_worker_imports_exist():
    tree = _tree("worker.py")
    names = []  # (module, attribute) pairs the worker resolves
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("sqhit"):
            names += [(node.module, a.name) for a in node.names]
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.startswith("sqhit.") and a.asname:
                    aliases[a.asname] = a.name
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in aliases:
            names.append((aliases[node.value.id], node.attr))
    modules = {m for m, _ in names}
    assert {"sqhit.modules", "sqhit.homotopy"} <= modules
    missing = [f"{m}.{a}" for m, a in names if not hasattr(importlib.import_module(m), a)]
    assert missing == []
