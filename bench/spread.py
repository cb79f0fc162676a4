"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --workload zeta-desk --seeds 1-10 [--seconds 24]

For every end-to-end metric prints the median of the runs and the spread
(interquartile distance over median, as ``statistics.quantiles(n=4)``
gives the quartiles), next to the metric's bound from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = p.parse_args(argv)
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True).stdout
        lines = out.strip().splitlines()
        meta, result = json.loads(lines[-2])["meta"], json.loads(lines[-1])
        row = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} "
              f"digest={meta['digest']} "
              + " ".join(f"{k}={v:.6g}" for k, v in row.items()), flush=True)
        for k, v in row.items():
            values.setdefault(k, []).append(v)
    for m in spec["end_to_end"]:
        xs = values[m["name"]]
        print(f"{m['name']:14s} median {statistics.median(xs):.6g} "
              f"spread {stats.spread(xs):.4f} bound {m['bound']}")


if __name__ == "__main__":
    main()
