"""Repeat the benchmark over seeds and summarise every metric.

    python3 perfbench/baseline.py --runs 10 --out perfbench/baseline.json

For each workload of BENCHMARK.json it makes ``--runs`` untraced runs of
``run.py`` with seeds 1 to ``--runs``, then one traced run with seed 1.
For every end-to-end metric it reports the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread
``(q3 - q1) / median`` over the runs, next to the bound that
BENCHMARK.json fixes; for the traced run, every per-layer metric.  The
run length is ``run_seconds`` from BENCHMARK.json.  Runs are serial.
"""

from __future__ import annotations

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


def run_once(spec, workload, seed, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    if done.returncode != 0:
        raise SystemExit("%s failed (exit %d):\n%s"
                         % (" ".join(cmd), done.returncode, done.stderr))
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "runs": len(values),
            "values": values}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"nproc": os.cpu_count(),
              "python": platform.python_version(),
              "run_seconds": spec["run_seconds"],
              "workloads": {}}
    for workload in [w["name"] for w in spec["workloads"]]:
        runs = [run_once(spec, workload, seed, 0)
                for seed in range(1, args.runs + 1)]
        entry = {"attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs),
                 "end_to_end": {}}
        for metric in bounds:
            values = [r["metrics"][metric]["value"] for r in runs]
            entry["end_to_end"][metric] = summarise(values)
            s = entry["end_to_end"][metric]
            print("%-16s %-12s median %.4f  q1 %.4f  q3 %.4f  spread %.3f"
                  "  (bound %.2f)" % (workload, metric, s["median"], s["q1"],
                                      s["q3"], s["spread"], bounds[metric]),
                  flush=True)
        traced = run_once(spec, workload, 1, 1)
        entry["per_layer"] = {name: m["value"] for name, m
                              in traced["metrics"].items()}
        entry["trace_failed"] = traced["failed"]
        print("%-16s trace.overhead_s %.4f"
              % (workload, entry["per_layer"]["trace.overhead_s"]),
              flush=True)
        report["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True)
                            + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
