"""Seed sweep: run the benchmark once per seed and report the run-to-run spread.

    python3 perfbench/spread.py --workload odd --seeds 1-5
    python3 perfbench/spread.py --workload all --seeds 1-10 --seconds 30

Runs are sequential, one interpreter at a time.  For every metric it prints
the median and quartiles over the seeds (``statistics.quantiles(n=4)``), the
spread (q3 - q1) / median, and that spread against the metric's bound in
BENCHMARK.json: "steady" below a third of the bound, "within" below the
bound, "WIDE" above it.  It also prints each seed's failed calls, so the
failing share per seed is on record.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("even", "odd", "search")


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,7")
    parser.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]
    seeds = parse_seeds(args.seeds)
    ok = True
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        results = []
        for seed in seeds:
            result = run(workload, seed, seconds)
            results.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed {result['failed']}/{result['attempted']}", flush=True)
            ok &= result["correct"]
        print(f"\n{workload}: {len(seeds)} seeds, {seconds} s per run")
        print(f"{'metric':24s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s} {'bound':>6s}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds[name]
            verdict = "steady" if spread < bound / 3 else "within" if spread <= bound else "WIDE"
            print(f"{name:24s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:7.3f} {bound:>6} {verdict}")
            print("    per seed: " + " ".join(f"{v:.5g}" for v in values))
        print()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
