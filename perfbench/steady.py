"""Steadiness check: run every workload repeatedly and compare sets of runs.

    python3 perfbench/steady.py                      # 2 sets of 10 runs per workload
    python3 perfbench/steady.py --workloads report-sym --runs 5 --sets 1

Each run gets its own seed.  For every end-to-end metric the command prints
the median, the quartiles (``statistics.quantiles(n=4)``) and the spread,
the distance between the quartiles as a share of the median.  It then says
whether each spread except that of ``setup_s`` stays within the metric's
bound from BENCHMARK.json, whether the median of each later set is no worse
than the first by more than the bound, and whether the share of failed
operations is the same in every set.  Raw results go to
``.perfbench-out/steady.json``.  Exit 0 when everything agrees.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def quartiles(values) -> tuple:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_once(spec: dict, workload: str, seed: int) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    if cmd[0] == "python3":
        cmd[0] = sys.executable
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return {"note": lines[-2] if len(lines) > 1 else "", **json.loads(lines[-1])}


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description="run every workload repeatedly and compare sets of runs")
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("quartiles need --runs of at least 2")
    workloads = args.workloads.split(",")
    seed = 1
    results = {w: [[] for _ in range(args.sets)] for w in workloads}
    for k in range(args.sets):
        for _ in range(args.runs):
            for w in workloads:  # interleaved, so that slow spells of the host hit every workload
                r = run_once(spec, w, seed)
                results[w][k].append({"seed": seed, **r})
                print(f"set {k + 1} {w} seed {seed}: " + ", ".join(
                    f"{n}={m['value']:.6g}" for n, m in r["metrics"].items()), flush=True)
            seed += 1
    out = ROOT / ".perfbench-out"
    out.mkdir(exist_ok=True)
    with open(out / "steady.json", "w") as f:
        json.dump(results, f, indent=1)

    ok = True
    for w in workloads:
        print(f"\n{w}")
        sets = results[w]
        shares = {sum(r["failed"] for r in s) / sum(r["attempted"] for r in s) for s in sets}
        if len(shares) > 1 or not all(r["correct"] for s in sets for r in s):
            ok = False
            print(f"  failed shares {sorted(shares)}; all correct: {all(r['correct'] for s in sets for r in s)}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for k, s in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in s]
                q1, med, q3 = quartiles(values)
                spread = (q3 - q1) / med
                medians.append(med)
                verdict = "" if name == "setup_s" else ("ok" if spread <= bound else "TOO WIDE")
                ok &= verdict != "TOO WIDE"
                print(f"  set {k + 1} {name:12s} median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                      f"spread {spread:.3f} (bound {bound}, third {bound / 3:.3f}) {verdict}")
            for k, med in enumerate(medians[1:], start=2):
                change = (med - medians[0]) / medians[0]
                worse = change if metric["better"] == "lower" else -change
                agree = worse <= bound
                ok &= agree
                print(f"  set {k} vs set 1 {name:12s} {change:+.3f} {'ok' if agree else 'WORSE THAN BOUND'}")
    print("\nsteady" if ok else "\nnot steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
