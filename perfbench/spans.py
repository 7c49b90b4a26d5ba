"""Spans around the public functions of the program's modules.

Each traced function is replaced by a wrapper at every attribute of every
loaded ``sqhit`` module that holds it, because ``hit``, ``homotopy``,
``suites`` and ``cli`` import ``basis``, ``sq``, ``shift`` and
``preimage_chain`` by name: a call resolved through an attribute left
unwrapped would bypass its span.  Spans stay in memory with their parent
span and are written out by ``Tracer.write`` when the run ends.  Counts
that need a result (basis sizes, matrix nonzeros) are taken after the run
from the distinct results kept, so that no counting time falls inside a
span.
"""

from __future__ import annotations

import functools
import json
import sys
import time

LAYERS = ("cli", "hit", "f2linalg", "modules", "homotopy")

# (module, function) pairs wrapped by the tracer.
TRACED = (
    ("cli", "main"),
    ("hit", "unhit_report"), ("hit", "delta_basis"), ("hit", "spike_image_basis"),
    ("hit", "sq_matrix"),
    ("f2linalg", "kernel_basis"), ("f2linalg", "image_basis"), ("f2linalg", "intersect"),
    ("f2linalg", "contains_subspace"),
    ("modules", "basis"), ("modules", "sq"),
    ("homotopy", "preimage_chain"), ("homotopy", "shift"), ("homotopy", "in_null"),
)

# Every per-layer metric, in the order they are printed, with its unit.
PER_LAYER = (
    [(f"{m}.{f}.self_s", "s") for m, f in TRACED]
    + [(f"layer.{m}.self_s", "s") for m in LAYERS]
    + [("f2linalg.rows_in", "count"),
       ("modules.basis.calls", "count"), ("modules.basis.monomials", "count"),
       ("modules.sq.calls", "count"), ("modules.sq.terms_out", "count"),
       ("hit.sq_matrix.calls", "count"), ("hit.sq_matrix.distinct", "count"),
       ("hit.sq_matrix.nnz", "count"),
       ("homotopy.preimage_chain.calls", "count"), ("homotopy.shift.calls", "count"),
       ("trace.overhead_s", "s")]
)


def _rows_in(name: str, args) -> int:
    """Rows handed to one elimination call."""
    if name in ("kernel_basis", "image_basis"):
        return getattr(args[0], "rows", 0)
    if name == "intersect":
        return getattr(args[0], "dim", 0) + getattr(args[1], "dim", 0)
    return getattr(args[1], "dim", 0)  # contains_subspace(outer, inner)


def _nnz(action) -> int:
    """Nonzero entries of an action matrix whose rows are packed ints."""
    rows = getattr(getattr(action, "matrix", action), "data", ())
    return sum(bin(r).count("1") for r in rows)


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, parent index or -1, start, end]
        self._stack: list = []
        self.calls: dict = {}
        self.rows_in = 0
        self.terms_out = 0
        self.distinct: dict = {"modules.basis": {}, "hit.sq_matrix": {}}

    def _wrap(self, name: str, fn):
        module, func = name.split(".")
        spans, stack, calls = self.spans, self._stack, self.calls
        distinct = self.distinct.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            record = [name, stack[-1] if stack else -1, 0.0, 0.0]
            spans.append(record)
            stack.append(index)
            record[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()
            calls[name] = calls.get(name, 0) + 1
            if distinct is not None:
                distinct.setdefault((args, tuple(sorted(kwargs.items()))), result)
            elif module == "f2linalg":
                self.rows_in += _rows_in(func, args)
            elif name == "modules.sq":
                self.terms_out += len(result.support)
            return result

        return traced

    def install(self) -> list:
        """Wrap every traced function wherever a sqhit module holds it.
        Returns the traced names that a loaded module does not define."""
        missing = []
        loaded = [m for n, m in list(sys.modules.items()) if n == "sqhit" or n.startswith("sqhit.")]
        for module, func in TRACED:
            home = sys.modules.get(f"sqhit.{module}")
            if home is None:
                continue  # a module this run does not import has nothing to trace
            original = getattr(home, func, None)
            if original is None:
                missing.append(f"{module}.{func}")
                continue
            wrapper = self._wrap(f"{module}.{func}", original)
            for mod in loaded:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
        return missing

    def self_times(self) -> dict:
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict = {}
        for (name, _, start, end), inner in zip(self.spans, child):
            totals[name] = totals.get(name, 0.0) + (end - start - inner)
        return totals

    def metrics(self) -> dict:
        totals = self.self_times()
        out = {f"{m}.{f}.self_s": totals.get(f"{m}.{f}", 0.0) for m, f in TRACED}
        for layer in LAYERS:
            out[f"layer.{layer}.self_s"] = sum(v for k, v in totals.items() if k.split(".")[0] == layer)
        bases = self.distinct["modules.basis"].values()
        matrices = self.distinct["hit.sq_matrix"].values()
        out.update({
            "f2linalg.rows_in": self.rows_in,
            "modules.basis.calls": self.calls.get("modules.basis", 0),
            "modules.basis.monomials": sum(len(b) for b in bases),
            "modules.sq.calls": self.calls.get("modules.sq", 0),
            "modules.sq.terms_out": self.terms_out,
            "hit.sq_matrix.calls": self.calls.get("hit.sq_matrix", 0),
            "hit.sq_matrix.distinct": len(self.distinct["hit.sq_matrix"]),
            "hit.sq_matrix.nnz": sum(_nnz(m) for m in matrices),
            "homotopy.preimage_chain.calls": self.calls.get("homotopy.preimage_chain", 0),
            "homotopy.shift.calls": self.calls.get("homotopy.shift", 0),
        })
        return out

    def write(self, path: str) -> None:
        """One JSON line per span: name, parent index, start and end seconds."""
        with open(path, "w") as f:
            for name, parent, start, end in self.spans:
                f.write(json.dumps([name, parent, start, end]) + "\n")
