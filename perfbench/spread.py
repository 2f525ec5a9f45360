"""Run-to-run spread of the benchmark's metrics.

Runs every named workload once per seed, through the command in
BENCHMARK.json, and prints for each metric the median, the quartiles and
the interquartile distance as a share of the median, next to the
metric's bound.  From the repository root:

    python3 perfbench/spread.py --seeds 1-10 [--trace 0|1] [WORKLOAD ...]

With no workload named, all of BENCHMARK.json's workloads run.  Each
run's result line is appended to --log (default: none) as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workloads", nargs="*")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--log")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    for name in names:
        runs = []
        for seed in seeds_of(args.seeds):
            cmd = bench["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", args.trace,
            ]
            out = subprocess.run(cmd, stdout=subprocess.PIPE, check=True, text=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if args.log:
                with open(args.log, "a") as f:
                    f.write(json.dumps({"workload": name, "seed": seed, **result}) + "\n")
            if result["failed"] or not result["correct"]:
                print(f"{name} seed {seed}: {result['failed']} failed", file=sys.stderr)
            runs.append(result)
        print(f"\n{name}: {len(runs)} runs, attempted {[r['attempted'] for r in runs]}")
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(metric)
            flag = ""
            if bound is not None and spread > bound / 3:
                flag = "  <-- above bound/3" if spread <= bound else "  <-- ABOVE BOUND"
            print(f"  {metric:32s} median {med:14.6g}  q1 {q1:14.6g}  q3 {q3:14.6g}"
                  f"  spread {spread:7.4f}  bound {bound}{flag}")


if __name__ == "__main__":
    main()
