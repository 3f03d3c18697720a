"""Run the benchmark over several seeds and print each metric's median and spread.

    python3 perfbench/report.py --seeds 1-10 --seconds 24
    python3 perfbench/report.py --workload table-1w --seeds 1-5 --seconds 24 --trace 1

For every workload (all of them unless ``--workload`` is given, repeatable)
it runs ``run.py`` once per seed, one run at a time, and prints for each
metric its unit, the median of the runs, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread (Q3 - Q1) / median,
plus the failed fraction over all runs.  ``BENCHMARK.json`` fixes the
``--seconds`` the benchmark is judged at.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

import workloads

RUN = Path(__file__).resolve().with_name("run.py")


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    status = 0
    for workload in args.workload or list(workloads.WORKLOADS):
        results = []
        began = monotonic()
        for seed in args.seeds:
            cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                status = 1
                continue
            results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        if not results:
            continue
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        print(f"\n{workload}: {len(results)} runs of {(monotonic() - began) / len(args.seeds):.1f} s"
              f" on average, failed_frac {failed / attempted:.4g} ({failed}/{attempted})")
        print(f"  {'metric':34s} {'unit':6s} {'median':>12s} {'q1':>12s} {'q3':>12s} spread")
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            if any(v is None for v in values):
                print(f"  {name:34s} absent: {first.get('absent')}")
                continue
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            spread = (q3 - q1) / med if med else float("nan")
            print(f"  {name:34s} {first['unit']:6s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:.4f}")
        status |= failed > 0
    return status


if __name__ == "__main__":
    sys.exit(main())
