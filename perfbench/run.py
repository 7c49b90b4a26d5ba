"""The sqhit benchmark: three workloads against the program in ``src/``.

    python3 perfbench/run.py --workload unhit-cold --seed 1 --seconds 18 --trace 0

Workloads (a closed loop with one client: one program process or call at
a time):

* ``unhit-cold``      -- cold ``python -m sqhit.cli unhit`` processes at one
                         pinned bidegree; elimination dominates.
* ``report-sym``      -- ``report --kind gamma-sym`` processes over a fixed
                         box; basis enumeration dominates.
* ``preimage-chains`` -- one worker process calls ``preimage_chain`` on
                         seeded classes of Delta(k) meet null; element
                         arithmetic only.

Every output is checked against ``reference.py``, which shares no code
with the program.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
in-process run with ``--trace 1``.  A run does a fixed amount of work,
sized from ``--seconds`` by the nominal operation costs below.  Times are
scaled to the reference host by interleaved calibration processes (see
``host_scaled``).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

import reference
from spans import PER_LAYER

WORKLOADS = ("unhit-cold", "report-sym", "preimage-chains")
END_TO_END = (("setup_s", "s"), ("op_p50_s", "s"), ("ops_per_s", "1/s"), ("peak_rss_mb", "MB"))

# Nominal seconds per operation on a 2-core x86 host with Python 3.11; they
# only turn --seconds into a fixed operation count.
UNHIT_S, REPORT_S, CHAIN_PASS_S = 1.1, 2.3, 1.8
CHAIN_SETUP_PROBES = 7


@dataclass
class Proc:
    """One finished program process."""

    wall_s: float
    code: int
    stdout: str
    stderr: str
    maxrss_kb: int

    def last_json(self):
        return json.loads(self.stdout.strip().splitlines()[-1])


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def failure(self, what: str, message: str) -> None:
        """An operation that did not complete."""
        self.failed += 1
        self.errors.append(f"failed {what}: {message}")

    def wrong(self, what: str, problems) -> None:
        """An operation that completed with a wrong output."""
        self.errors.extend(f"wrong {what}: {p}" for p in problems)

    @property
    def correct(self) -> bool:
        return not any(e.startswith("wrong") for e in self.errors)


def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(args) -> Proc:
    """Run one program process to its end; time it and read its own peak RSS."""
    errpath = OUT / "stderr.txt"
    with open(errpath, "w+") as err:
        start = time.perf_counter()
        p = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=program_env(),
                             stdout=subprocess.PIPE, stderr=err, text=True)
        out = p.stdout.read()
        p.stdout.close()
        _, status, usage = os.wait4(p.pid, 0)
        wall = time.perf_counter() - start
        p.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return Proc(wall, p.returncode, out, err.read()[-2000:], usage.ru_maxrss)


def cli(*argv) -> list:
    return ["-m", "sqhit.cli", *argv]


def worker(*argv) -> list:
    return [str(HERE / "worker.py"), *argv]


def _per_layer(result: dict) -> dict:
    """The per-layer metrics of a traced worker; names the traced functions
    the program no longer defines, whose metrics then read 0."""
    for name in result["untraced"]:
        print(f"not traced: the program has no {name}", file=sys.stderr)
    return result["per_layer"]


def _completed(t: Tally, what: str, proc: Proc) -> bool:
    if proc.code != 0:
        t.failure(what, f"exit {proc.code}: {proc.stderr.strip()[-300:]}")
        return False
    return True


# --- checks ---------------------------------------------------------------------

def unhit_args() -> list:
    q = reference.UNHIT_QUERY
    return ["unhit", "--kind", q["kind"], "--s", str(q["s"]), "--d", str(q["d"]), "--k", str(q["k"])]


def report_args() -> list:
    box = reference.REPORT_BOX
    return ["report", "--kind", box["kind"], "--k", str(box["k"]), "--s-max", str(box["s_max"]),
            "--d-max", str(box["d_max"]), "--format", "json"]


def _dims_errors(row: dict, ref: dict) -> list:
    return [f"({ref['s']},{ref['d']}) dim_{key} = {row.get('dim_' + key)}, reference {ref[key]}"
            for key in ("delta", "image", "unhit") if row.get("dim_" + key) != ref[key]]


def check_unhit(stdout: str, ref: dict) -> list:
    """Problems with one ``unhit`` output against the reference figures."""
    try:
        row = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"unreadable output: {exc}"]
    return _dims_errors(row, ref["unhit_query"])


def check_report(stdout: str, ref: dict) -> list:
    """Problems with one ``report --format json`` output against the reference rows."""
    try:
        rows = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"unreadable output: {exc}"]
    want = ref["report_box"]["rows"]
    if len(rows) != len(want):
        return [f"{len(rows)} rows, reference {len(want)}"]
    problems = []
    for row, r in zip(rows, want):
        if (row.get("s"), row.get("d")) != (r["s"], r["d"]):
            problems.append(f"row ({row.get('s')},{row.get('d')}) where the reference has ({r['s']},{r['d']})")
        else:
            problems += _dims_errors(row, r)
    return problems


def check_basis_sizes(t: Tally, cells: list) -> None:
    """Program basis sizes against partition and necklace counts."""
    t.attempted += 1
    proc = spawn(worker("basis-sizes", "--cells", json.dumps(cells)))
    if _completed(t, "basis-sizes", proc):
        sizes = proc.last_json()["sizes"]
        t.wrong("basis size", [f"{kind} ({s},{d}) has {n}, count {reference.basis_size(kind, s, d)}"
                               for (kind, s, d), n in zip(cells, sizes)
                               if n != reference.basis_size(kind, s, d)])


def check_chains(t: Tally, inputs: list, chains: list) -> None:
    """Count each chain that raised as failed; check the others with reference Sq."""
    for item, chain in zip(inputs, chains):
        what = f"preimage_chain {item['system']}"
        if isinstance(chain, str):
            t.failure(what, chain)
        else:
            t.wrong(what, reference.chain_errors(item["element"], item["system"][3], chain))


# --- workloads --------------------------------------------------------------------

def local_speeds(calibrations: list) -> list:
    """Host speed during each sample, from the calibrations on either side.

    calibrations[i] lists those taken right after sample i.  The host's
    speed drifts by a third within minutes and flips between fast and slow
    spells of a few seconds; a fresh process running the reference's fixed
    calibration computation follows it (an in-process loop does not), so
    the calibrations next to a sample tell how fast the host ran it."""
    out = []
    for i, after in enumerate(calibrations):
        near = (calibrations[i - 1] if i else []) + after
        out.append(reference.CALIBRATION_NOMINAL_S / statistics.fmean(near))
    return out


def host_scaled(setup: list, setup_speeds: list, ops: list, op_speeds: list, rss_kb: int) -> dict:
    """End-to-end metrics in seconds of the reference host: each sample is
    multiplied by the host speed while it ran.  ``ops`` holds, per stretch
    of operations, the list of their wall times."""
    scaled_setup = [v * f for v, f in zip(setup, setup_speeds)]
    scaled_ops = [v * f for stretch, f in zip(ops, op_speeds) for v in stretch]
    raw_ops = [v for stretch in ops for v in stretch]
    return {"setup_s": statistics.median(scaled_setup), "op_p50_s": statistics.median(scaled_ops),
            "ops_per_s": len(scaled_ops) / sum(scaled_ops), "peak_rss_mb": rss_kb / 1024,
            "raw": f"unscaled: setup {statistics.median(setup):.4f} s, operation "
                   f"{statistics.median(raw_ops):.6f} s, {len(raw_ops) / sum(raw_ops):.4f}/s; "
                   f"mean host speed {statistics.fmean(op_speeds):.3f}"}


def _cli_workload(op_args: list, seconds: float, op_cost: float, check, t: Tally) -> dict:
    ref = reference.load()
    spawn(cli("--help"))  # writes the bytecode cache before anything is timed
    n_ops = max(3, round(seconds / op_cost))
    setup, walls, rss, calibrations = [], [], [], []
    for _ in range(n_ops):
        setup.append(spawn(cli("--help")).wall_s)
        proc = spawn(cli(*op_args))
        t.attempted += 1
        walls.append([proc.wall_s])
        rss.append(proc.maxrss_kb)
        if _completed(t, op_args[0], proc):
            t.wrong(op_args[0], check(proc.stdout, ref))
        calibrations.append([reference.calibration() for _ in range(max(1, round(op_cost)))])
    speeds = local_speeds(calibrations)
    out = host_scaled(setup, speeds, walls, speeds, max(rss))
    out["samples"] = f"{n_ops} operations, {len(setup)} setup probes"
    return out


def _cli_traced(op_args: list, check, t: Tally, samples: int = 3) -> dict:
    """Alternate untraced and traced in-process runs, each in a fresh process;
    per-layer figures are means over the traced runs."""
    ref = reference.load()
    spawn(cli("--help"))
    walls: dict = {False: [], True: []}
    layers: list = []
    for traced in (False, True) * samples:
        args = ["cli"] + (["--trace", str(OUT / "spans.jsonl")] if traced else []) + ["--", *op_args]
        proc = spawn(worker(*args))
        t.attempted += 1
        if not _completed(t, op_args[0], proc):
            continue
        result = proc.last_json()
        if result["code"] != 0:
            t.failure(op_args[0], f"main returned {result['code']}")
            continue
        t.wrong(op_args[0], check(result["stdout"], ref))
        walls[traced].append(result["wall_s"])
        if traced:
            layers.append(_per_layer(result))
    if not layers or not walls[False]:
        return {}
    metrics = {name: statistics.fmean(m[name] for m in layers) if name.endswith("_s") else value
               for name, value in layers[0].items()}
    metrics["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])
    return metrics


def chain_inputs_file(seed: int) -> tuple:
    inputs = reference.chain_inputs(random.Random(seed))
    path = OUT / "chain-inputs.json"
    with open(path, "w") as f:
        json.dump(inputs, f)
    return inputs, str(path)


def _chain_cells() -> list:
    return sorted({(kind, s, d) for kind, s, d, _, _ in reference.CHAIN_SYSTEMS})


def preimage_chains(seed: int, seconds: float, traced: bool, t: Tally) -> dict:
    inputs, path = chain_inputs_file(seed)
    check_basis_sizes(t, _chain_cells())
    spawn(worker("chains", "--inputs", path, "--setup-only"))
    setup, calibrations = [], []
    for _ in range(0 if traced else CHAIN_SETUP_PROBES):
        setup.append(spawn(worker("chains", "--inputs", path, "--setup-only")).wall_s)
        calibrations.append([reference.calibration()])
    passes = 1 if traced else max(2, round(seconds / CHAIN_PASS_S))
    args = ["chains", "--inputs", path, "--passes", str(passes)]
    args += ["--trace", str(OUT / "spans.jsonl")] if traced else ["--calibrate"]
    proc = spawn(worker(*args))
    calls = len(inputs) * (passes + 1 + traced)
    t.attempted += calls
    if not _completed(t, "chains worker", proc):
        t.failed += calls - 1  # every call in the worker is lost with it
        return {}
    result = proc.last_json()
    check_chains(t, inputs, result["chains"])
    failed_first = sum(isinstance(c, str) for c in result["chains"])
    t.failed += failed_first * (passes + traced)
    if result["differing"]:
        t.wrong("preimage_chain", [f"{result['differing']} chains of a later pass differ from the first"])
    if traced:
        return _per_layer(result)
    blocks = result["blocks"]
    durations = [d for b in blocks for d in b[2]]
    out = host_scaled(setup, local_speeds(calibrations), [b[2] for b in blocks],
                      local_speeds([[b[1]] for b in blocks]), proc.maxrss_kb)
    out["samples"] = (f"{len(durations)} chain calls in {passes} passes, "
                      f"unscaled p90 {statistics.quantiles(durations, n=10)[-1]:.6f} s, "
                      f"{len(setup)} setup probes")
    return out


def run(workload: str, seed: int, seconds: float, traced: bool, t: Tally) -> dict:
    if workload == "preimage-chains":
        return preimage_chains(seed, seconds, traced, t)
    if workload == "unhit-cold":
        op_args, cost, check = unhit_args(), UNHIT_S, check_unhit
    else:
        op_args, cost, check = report_args(), REPORT_S, check_report
        box = reference.REPORT_BOX
        check_basis_sizes(t, [(box["kind"], s, d) for s in range(1, box["s_max"] + 1)
                              for d in range(1, box["d_max"] + 1)])
    if traced:
        return _cli_traced(op_args, check, t)
    return _cli_workload(op_args, seconds, cost, check, t)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="sqhit benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=18)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sqhit" / "cli.py").is_file():
        print(f"no program to measure: {SRC / 'sqhit'} is missing", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    t = Tally()
    values = run(args.workload, args.seed, args.seconds, bool(args.trace), t)
    for e in t.errors[:20]:
        print(e, file=sys.stderr)
    names = PER_LAYER if args.trace else END_TO_END
    if args.trace:
        print(f"{args.workload}: per-layer metrics of traced in-process runs")
    else:
        print(f"{args.workload}: {values.get('samples', 'no samples')}; {values.get('raw', '')}")
    metrics = {name: {"value": values.get(name, 0), "unit": unit} for name, unit in names}
    print(json.dumps({"correct": t.correct, "attempted": t.attempted, "failed": t.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
