"""Run the benchmark over seeds 1..N and report each metric's spread.

    python3 perfbench/spread.py [--seeds 10] [--baseline FILE] WORKLOAD ...

Runs are made one after another, with ``run_seconds`` from BENCHMARK.json.
For each end-to-end metric the median and the quartile spread (Q3 - Q1
over the median, with ``statistics.quantiles(values, n=4)``) are printed
next to the metric's bound.  With ``--baseline`` one traced run (seed 1) per
workload is added, and the figures and the environment (Python, CPU count,
git commit) are written to FILE.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarize(results):
    rows = {}
    for name, first in results[0]["metrics"].items():
        vals = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        rows[name] = {"median": statistics.median(vals), "unit": first["unit"],
                      "spread": (q3 - q1) / statistics.median(vals),
                      "values": vals}
    return rows


def git_commit():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workloads", nargs="+")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--baseline")
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {}
    for workload in args.workloads:
        results = [one_run(workload, s, seconds, 0)
                   for s in range(1, args.seeds + 1)]
        bad = sum(not r["correct"] or r["failed"] > 0 for r in results)
        rows = summarize(results)
        report[workload] = {"runs_incorrect": bad,
                            "attempted": [r["attempted"] for r in results],
                            "end_to_end": rows}
        print(f"{workload}: {len(results)} runs, {bad} incorrect, "
              f"ops per run {[r['attempted'] for r in results]}")
        for name, row in rows.items():
            bound = bounds[name]
            flag = "ok" if row["spread"] < bound / 3 else \
                ("within bound" if row["spread"] <= bound else "TOO WIDE")
            print(f"  {name:12s} median {row['median']:10.5g} "
                  f"{row['unit']:4s} spread {row['spread']:.4f} "
                  f"bound {bound} {flag}")
        if args.baseline:
            traced = one_run(workload, 1, seconds, 1)
            report[workload]["traced_seed_1"] = traced
            print(f"  traced run: correct {traced['correct']}")
    if args.baseline:
        env = {"python": platform.python_version(), "nproc": os.cpu_count(),
               "git_commit": git_commit(), "run_seconds": seconds,
               "seeds": args.seeds}
        Path(args.baseline).write_text(
            json.dumps({"environment": env, "workloads": report},
                       indent=1) + "\n")


if __name__ == "__main__":
    main()
