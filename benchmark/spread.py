#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, as the driver measures it.

    python3 benchmark/spread.py [--runs 10] [--first-seed 1] [--workload W]...

Runs each workload `--runs` times untraced, each time with another seed, and
prints for every end-to-end metric the median and the distance between the
first and third quartile (`statistics.quantiles(values, n=4)`) as a share of
the median, next to the metric's bound in BENCHMARK.json. The target is a
spread below a third of the bound; exit status is non-zero when a spread
(other than `setup_s`, whose spread the driver does not judge) exceeds it.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def main() -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in benchmark["workloads"]]
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    seconds = str(benchmark["run_seconds"])

    too_wide = False
    for workload in workloads:
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            command = benchmark["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", seconds, "--trace", "0",
            ]
            done = subprocess.run(
                command, cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True
            )
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} failed", file=sys.stderr)
                return 1
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        for name, bound in bounds.items():
            q1, _, q3 = statistics.quantiles(values[name], n=4)
            median = statistics.median(values[name])
            spread = (q3 - q1) / median
            verdict = "ok" if spread < bound / 3 else "WIDE"
            if verdict == "WIDE" and name != "setup_s":
                too_wide = True
            print(
                f"{workload:17} {name:15} median {median:14.6f} "
                f"spread {100 * spread:6.2f}% bound {100 * bound:4.0f}% {verdict}  "
                f"[{' '.join(f'{v:.4g}' for v in values[name])}]",
                flush=True,
            )
    return 1 if too_wide else 0


if __name__ == "__main__":
    sys.exit(main())
