"""Benchmark of newtonzeta: one workload per invocation.

    python3 bench/run.py --workload zeta-desk --seed 1 --seconds 24 --trace 0

Starts the workload in its own single-threaded worker process, which runs a
closed loop (one op at a time) over whole passes of a seeded corpus and
checks every output.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a separate traced run
with ``--trace 1``.  The line before it holds the run's metadata.  Times
are reference-speed seconds (see refkernel.py).  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import corpus
import stats
import tracing
from refkernel import R0, ref_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# never used while the benchmark was tuned; recheck claims on it
HELD_OUT_SEED = 7919
SETUP_RUNS = 10
DEADLINE_S = 170.0

END_TO_END = {"op_p50_s": "s", "op_tail_s": "s", "ops_per_s": "1/s",
              "setup_s": "s", "peak_rss_mib": "MiB"}


def per_layer_units() -> dict[str, str]:
    units = {}
    for g in tracing.GROUPS:
        units.update({f"{g}.calls": "count", f"{g}.self_s": "s",
                      f"{g}.share": "ratio"})
    units.update({
        "diagram.facets.facets": "count",
        "lattice.hull.attempts": "count", "lattice.hull.facets": "count",
        "lattice.hull.yield": "ratio",
        "lattice.minkowski.points_in": "count",
        "lattice.minkowski.yield": "ratio",
        "nondegeneracy.polyhedron.attempts": "count",
        "nondegeneracy.polyhedron.facets": "count",
        "nondegeneracy.polyhedron.yield": "ratio",
        "nondegeneracy.faces.faces": "count",
        "nondegeneracy.decided_share": "ratio",
        "bench.ref_s": "s", "bench.raw_op_p50_s": "s",
        "trace.overhead": "ratio",
    })
    return units


class BenchError(RuntimeError):
    """The worker failed; no result can be reported."""


def ref_sample() -> float:
    return statistics.median([ref_time() for _ in range(3)])


def start_worker(args, deadline):
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        stdout=subprocess.PIPE, text=True, cwd=ROOT)
    killer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    killer.daemon = True
    killer.start()
    return proc, killer


def finish(proc, killer):
    out = proc.stdout.read()
    proc.wait()
    killer.cancel()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return out


def setup_time(common, deadline) -> tuple[float, float]:
    """Raw and reference-speed seconds from spawn to the worker's ready."""
    before = ref_sample()
    t0 = time.perf_counter()
    proc, killer = start_worker([*common, "--setup-only"], deadline)
    line = proc.stdout.readline()
    raw = time.perf_counter() - t0
    finish(proc, killer)
    if line.strip() != "ready":
        raise BenchError("worker did not finish its set-up")
    return raw, raw * R0 / ((before + ref_sample()) / 2)


def measure(common, passes, trace, deadline) -> dict:
    proc, killer = start_worker(
        [*common, "--passes", str(passes), "--trace", str(trace)], deadline)
    if proc.stdout.readline().strip() != "ready":
        finish(proc, killer)
        raise BenchError("worker did not finish its set-up")
    lines = finish(proc, killer).strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1])


def timing(samples):
    """Reference-speed op seconds, raw op seconds and the kernel times."""
    kernel = [k for s in samples for k in s[3][:-1]]
    return [s[2] for s in samples], [s[1] for s in samples], kernel


def end_to_end(res, setups):
    ref_s, raw, kernel = timing(res["samples"])
    pct, tail_s, beyond = stats.tail(ref_s)
    metrics = {
        "op_p50_s": statistics.median(ref_s),
        "op_tail_s": tail_s,
        "ops_per_s": len(ref_s) / sum(ref_s),
        "setup_s": statistics.median(s[1] for s in setups),
        "peak_rss_mib": res["rss_kib"] / 1024,
    }
    meta = {"op_tail_percentile": pct, "op_tail_beyond": beyond,
            "op_samples": len(ref_s), "raw_op_p50_s": statistics.median(raw),
            "setup_raw_s": [s[0] for s in setups],
            "bench.ref_s": statistics.median(kernel)}
    return metrics, meta


def per_layer(res):
    untraced = [s for s in res["samples"] if not s[4]]
    traced = [s for s in res["samples"] if s[4]]
    ref_u, raw_u, kernel_u = timing(untraced)
    ref_t, raw_t, kernel_t = timing(traced)
    layers, c = res["layers"], res["counts"]
    op_raw = sum(raw_t)
    metrics = {}
    for g in tracing.GROUPS:
        calls, raw_self, ref_self = layers[g]
        metrics[f"{g}.calls"] = calls
        metrics[f"{g}.self_s"] = ref_self
        metrics[f"{g}.share"] = raw_self / op_raw

    def ratio(a, b):
        return a / b if b else 0.0

    metrics.update({
        "diagram.facets.facets": c["diagram.facets.facets"],
        "lattice.hull.attempts": c["lattice.hull.attempts"],
        "lattice.hull.facets": c["lattice.hull.facets"],
        "lattice.hull.yield": ratio(c["lattice.hull.facets"],
                                    c["lattice.hull.attempts"]),
        "lattice.minkowski.points_in": c["lattice.minkowski.points_in"],
        "lattice.minkowski.yield": ratio(c["lattice.minkowski.vertices_out"],
                                         c["lattice.minkowski.points_in"]),
        "nondegeneracy.polyhedron.attempts": c["nondegeneracy.polyhedron.attempts"],
        "nondegeneracy.polyhedron.facets": c["nondegeneracy.polyhedron.facets"],
        "nondegeneracy.polyhedron.yield": ratio(
            c["nondegeneracy.polyhedron.facets"],
            c["nondegeneracy.polyhedron.attempts"]),
        "nondegeneracy.faces.faces": c["nondegeneracy.faces.faces"],
        "nondegeneracy.decided_share": ratio(c["nondegeneracy.decided_faces"],
                                             c["nondegeneracy.report_faces"]),
        "bench.ref_s": statistics.median(kernel_u + kernel_t),
        "bench.raw_op_p50_s": statistics.median(raw_u),
        "trace.overhead": (len(ref_u) / sum(ref_u)) / (len(ref_t) / sum(ref_t)),
    })
    return metrics, {"op_samples_untraced": len(ref_u),
                     "op_samples_traced": len(ref_t)}


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=corpus.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    passes = corpus.passes_for(args.workload, args.seconds)
    probes = 0 if args.trace else SETUP_RUNS // 2
    try:
        # half the set-up runs before the timed passes and half after, so
        # one slow spell of the host does not move their median
        setups = [setup_time(common, deadline) for _ in range(probes)]
        res = measure(common, passes, args.trace, deadline)
        setups += [setup_time(common, deadline) for _ in range(probes)]
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if args.trace:
        metrics, extra = per_layer(res)
        units = per_layer_units()
    else:
        metrics, extra = end_to_end(res, setups)
        units = END_TO_END
    meta = {
        "workload": args.workload, "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED, "trace": args.trace,
        "passes": "1 untraced + 1 traced" if args.trace else passes,
        "ops_per_pass": res["ops_per_pass"], "R0_s": R0,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "git_sha": git_sha(), "digest": res["digest"],
        "fail_share": res["failed"] / res["attempted"],
        "failures": res["notes"], **extra,
    }
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
