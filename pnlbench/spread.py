"""Run a workload under several seeds and report the spread of each metric.

    python3 pnlbench/spread.py --workload NAME [--seeds 1-10] [--seconds S] [--trace 0|1]

For each metric: the median of the runs and the distance between the first
and third quartile (statistics.quantiles, n=4) as a share of the median, as
BENCHMARK.json's bounds are read.  Each run is a separate process.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or str(bench["run_seconds"])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values, shares = {}, set()
    for seed in parse_seeds(args.seeds):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", seconds, "--trace", args.trace],
            capture_output=True, text=True, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        shares.add(result["failed"] / result["attempted"])
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}",
              file=sys.stderr)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    print(f"{args.workload}: failed share {sorted(shares)}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None else (
            "  ok" if spread <= bound / 3 else "  WIDE" if spread > bound
            else "  over a third")
        print(f"  {name:24s} median {med:12.6g}  spread {spread:7.4f}"
              + ("" if bound is None else f"  bound {bound}") + flag)


if __name__ == "__main__":
    main()
