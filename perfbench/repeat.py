"""Repeat mode: run one workload once per seed and summarise every metric.

    python3 perfbench/repeat.py --workload gan-d10 --seeds 1-10 --seconds 20

Runs ``perfbench/run.py`` sequentially, one process per seed, and prints for
each metric the median, the quartiles (``statistics.quantiles(n=4)``) and the
spread, which is the interquartile distance as a share of the median. It also
prints the failed share of operations and whether every run was correct.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def parse_seeds(text: str) -> list[int]:
    """'1-10' or '3,5,8' or a mix: '1-3,7'."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180,
                          cwd=RUN.parent.parent)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"run failed: seed {seed}, exit {proc.returncode}")
    return json.loads(lines[-1])


def summarise(results: list[dict]) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[name] = {"median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else float("nan")}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)

    results = []
    for seed in parse_seeds(args.seeds):
        results.append(run_once(args.workload, seed, args.seconds))
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.6g}"
                                          for k, v in results[-1]["metrics"].items()),
              flush=True)
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"\n{args.workload}: {len(results)} runs, all correct: "
          f"{all(r['correct'] for r in results)}, failed shares: {sorted(shares)}")
    print(f"{'metric':45s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}")
    for name, s in summarise(results).items():
        print(f"{name:45s} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} "
              f"{s['spread']:8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
