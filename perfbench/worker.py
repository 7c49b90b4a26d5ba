"""Runs inside a program process: the program is imported from ``src``.

    PYTHONPATH=src python3 perfbench/worker.py chains --inputs FILE --passes N [--calibrate | --trace SPANS]
    PYTHONPATH=src python3 perfbench/worker.py chains --inputs FILE --setup-only
    PYTHONPATH=src python3 perfbench/worker.py cli [--trace SPANS] -- unhit --kind gamma --s 6 --d 16 --k 1
    PYTHONPATH=src python3 perfbench/worker.py basis-sizes --cells '[["gamma-sym", 6, 24]]'

Each mode prints one JSON object on its last line of standard output.
With ``--trace`` the spans are written to SPANS and the object carries
every per-layer metric.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time

import reference
from spans import Tracer

import sqhit.homotopy as homotopy
from sqhit.modules import Bidegree, ModuleKind, basis, element_from_json, element_to_json


def _chain_pass(work, durations=None):
    """One preimage_chain call per input; a raised error is a failed operation."""
    out = []
    clock = time.perf_counter
    for x, h in work:
        start = clock()
        try:
            chain = homotopy.preimage_chain(x, h)  # looked up here so a wrapper sees the call
        except Exception as exc:  # the benchmark counts it as failed and goes on
            chain = f"{type(exc).__name__}: {exc}"
        if durations is not None:
            durations.append(clock() - start)
        out.append(chain)
    return out


def _to_json(chains):
    return [c if isinstance(c, str) else [element_to_json(y) for y in c] for c in chains]


def run_chains(args) -> dict:
    with open(args.inputs) as f:
        inputs = json.load(f)
    work = [(element_from_json(item["element"]),
             homotopy.HomotopySystem(ModuleKind(item["system"][0]), item["system"][3], item["system"][4]))
            for item in inputs]
    if args.setup_only:
        return {"ready": len(work)}
    first = _to_json(_chain_pass(work))
    blocks = []  # per half pass: seconds, the calibration after it, call durations
    halves = (work[:len(work) // 2], work[len(work) // 2:])
    for _ in range(args.passes):
        chains = []
        for half in halves:
            durations = []
            start = time.perf_counter()
            chains += _chain_pass(half, durations)
            seconds = time.perf_counter() - start
            blocks.append([seconds, reference.calibration() if args.calibrate else None, durations])
    differing = sum(a != b for a, b in zip(_to_json(chains), first))
    result = {"chains": first, "blocks": blocks, "differing": differing}
    if args.trace:
        tracer = Tracer()
        result["untraced"] = tracer.install()
        start = time.perf_counter()
        traced = _chain_pass(work)
        traced_seconds = time.perf_counter() - start
        differing = sum(a != b for a, b in zip(_to_json(traced), first))
        tracer.write(args.trace)
        metrics = tracer.metrics()
        metrics["trace.overhead_s"] = traced_seconds - sum(b[0] for b in blocks) / args.passes
        result.update(differing=result["differing"] + differing, per_layer=metrics)
    return result


def run_cli(args) -> dict:
    import sqhit.cli  # imports every other module, so the tracer finds their names

    tracer = Tracer() if args.trace else None
    missing = tracer.install() if tracer else []
    stdout = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(stdout):
        code = sqhit.cli.main(args.argv)
    wall = time.perf_counter() - start
    result = {"code": code, "stdout": stdout.getvalue(), "wall_s": wall}
    if tracer:
        tracer.write(args.trace)
        result.update(untraced=missing, per_layer=tracer.metrics())
    return result


def run_basis_sizes(args) -> dict:
    cells = json.loads(args.cells)
    return {"sizes": [len(basis(Bidegree(s, d), ModuleKind(kind))) for kind, s, d in cells]}


def main() -> int:
    parser = argparse.ArgumentParser(description="benchmark worker")
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("chains")
    p.add_argument("--inputs", required=True)
    p.add_argument("--passes", type=int, default=1)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--calibrate", action="store_true", help="time a calibration process after each half pass")
    p.add_argument("--trace")
    p.set_defaults(func=run_chains)
    p = sub.add_parser("cli")
    p.add_argument("--trace")
    p.add_argument("argv", nargs=argparse.REMAINDER)
    p.set_defaults(func=run_cli)
    p = sub.add_parser("basis-sizes")
    p.add_argument("--cells", required=True)
    p.set_defaults(func=run_basis_sizes)
    args = parser.parse_args()
    if getattr(args, "argv", None) and args.argv[0] == "--":
        args.argv = args.argv[1:]
    print(json.dumps(args.func(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
