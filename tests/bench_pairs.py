"""Compare a base commit with the working tree on one benchmark workload,
in alternating pairs of runs.  Run it by hand from anywhere in the
repository:

    python tests/bench_pairs.py BASE WORKLOAD [--seeds 3,7919] [--pairs 5]
                                [--seconds S]

BASE (any commit git names) is exported with ``git archive`` into a
temporary directory.  For each seed, each pair runs the base tree's own
``bench/run.py`` and the working tree's, one after the other, the base
first in even pairs and the change first in odd ones, with the same
``--seconds`` (``BENCHMARK.json``'s ``run_seconds`` unless given).  For
each seed and each end-to-end metric it prints both medians, both ranges,
the ratio of the change's median to the base's and the pairs that the
change won, in the direction ``BENCHMARK.json`` gives; then whether the
two trees' output digests agree.  It exits 1 if any run is not
``correct``.
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """``{"correct", "digest", "metrics"}`` of one ``bench/run.py`` run."""
    out = subprocess.run(
        [sys.executable, str(tree / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode or len(lines) < 2:
        return {"correct": False, "digest": None, "metrics": {},
                "error": (out.stderr.strip().splitlines() or ["no output"])[-1]}
    meta, result = json.loads(lines[-2])["meta"], json.loads(lines[-1])
    return {"correct": result["correct"] and result["failed"] == 0,
            "digest": meta["digest"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def summary(base, change, metrics) -> list[str]:
    """One line per metric of ``metrics`` (``BENCHMARK.json``'s
    ``end_to_end`` entries) for the paired runs ``base`` and ``change``,
    two equally long lists of ``{name: value}``: the medians, the ranges,
    the ratio change / base of the medians and the pairs the change won
    (a tie counts for neither side).
    """
    lines = []
    for m in metrics:
        name = m["name"]
        b, c = [r[name] for r in base], [r[name] for r in change]
        won = sum(y > x if m["better"] == "higher" else y < x
                  for x, y in zip(b, c, strict=True))
        mb, mc = statistics.median(b), statistics.median(c)
        lines.append(f"{name:13s} base {mb:.6g} [{min(b):.6g}, {max(b):.6g}]  "
                     f"change {mc:.6g} [{min(c):.6g}, {max(c):.6g}]  "
                     f"ratio {mc / mb:.3f}  won {won}/{len(b)}")
    return lines


def export(base: str, into: Path) -> None:
    """The tree of commit ``base``, written under ``into``."""
    archive = subprocess.run(["git", "archive", "--format=tar", base], cwd=ROOT,
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("base")
    p.add_argument("workload")
    p.add_argument("--seeds", default="3,7919",
                   type=lambda text: [int(s) for s in text.split(",")])
    p.add_argument("--pairs", type=int, default=5)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = p.parse_args(argv)
    ok = True
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        export(args.base, Path(tmp))
        trees = {"base": Path(tmp), "change": ROOT}
        for seed in args.seeds:
            runs = {"base": [], "change": []}
            for i in range(args.pairs):
                for side in ("base", "change") if i % 2 == 0 else ("change", "base"):
                    r = run(trees[side], args.workload, seed, args.seconds)
                    runs[side].append(r)
                    if not r["correct"]:
                        ok = False
                        print(f"seed {seed} pair {i} {side}: not correct "
                              f"({r.get('error', 'failed ops')})", flush=True)
            if not all(r["correct"] for side in runs.values() for r in side):
                continue
            print(f"{args.workload} seed {seed}, {args.pairs} pairs, "
                  f"{args.seconds:g} s a run:")
            for line in summary(*[[r["metrics"] for r in runs[side]]
                                  for side in ("base", "change")], spec["end_to_end"]):
                print("  " + line)
            digests = {r["digest"] for side in runs.values() for r in side}
            print(f"  digest {'equal' if len(digests) == 1 else 'DIFFERS'}: "
                  f"{', '.join(sorted(digests))}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
