"""One workload in one process: set up, then time whole passes of ops.

Run by ``run.py``; not meant to be started by hand.  Prints ``ready`` when
set-up (imports, corpus, warm-up) is done, then, unless ``--setup-only``,
one JSON line with the per-op timings and check results.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import re
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

import corpus
from refkernel import R0, Sampler, ref_time
from stats import rescale

# kernel samples while an op runs; the host's speed changes within ~0.25 s
SAMPLE_PERIOD_S = 0.1

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from newtonzeta import cli, diagram, germ, lattice  # noqa: E402

import tracing  # noqa: E402

GOLDEN = Path(__file__).with_name("golden.json")
_AFFINE_LINE = re.compile(r"^zeta on the affine fibre: (.*?)\s+\[degree", re.M)
_FACTOR = re.compile(r"\(1-t(?:\^(\d+))?\)(?:\^(-?\d+))?")


class CheckFailed(Exception):
    """An op's output did not pass its check."""


# ---------------------------------------------------------------------------
# executing one op; every call goes through a module attribute so that the
# tracer's wrappers are seen

def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def run_cone(f_text, names):
    f = germ.parse_germ(f_text, names)
    F = germ.suspend_germ(f)
    rows = []
    for I in germ.index_sets_with_zero(F.num_vars - 1):
        if len(I) < 2:
            continue
        for fac in diagram.diagram_facets(F, I):
            ok = diagram.cone_reduction_identity(f, I, fac)
            rows.append((I, fac.normal, fac.m, fac.nvol, ok))
    return rows


def run_cayley(f0_text, f1_text, names):
    f0 = germ.parse_germ(f0_text, names)
    f1 = germ.parse_germ(f1_text, names)
    F = germ.pencil_germ(f0, f1)
    rows = []
    for I in germ.index_sets_with_zero(F.num_vars - 1):
        if len(I) - 1 not in (2, 3):
            continue
        for fac in diagram.diagram_facets(F, I):
            ok = diagram.cayley_mixed_volume_identity(f0, f1, I, fac)
            rows.append((I, fac.normal, fac.m, fac.nvol, ok))
    return rows


def run_mixed(*bodies):
    """mixed_volume of [A+B, rest] and of [A, rest], [B, rest]."""
    A, B, *rest = [lattice.LatticePolytope.from_points(b) for b in bodies]
    lhs = lattice.mixed_volume([lattice.minkowski_sum(A, B)] + rest)
    rhs = lattice.mixed_volume([A] + rest) + lattice.mixed_volume([B] + rest)
    return lhs, rhs


RUNNERS = {"cli": run_cli, "cone": run_cone, "cayley": run_cayley,
           "mv2": run_mixed, "mv3": run_mixed}


# ---------------------------------------------------------------------------
# checking one output

def affine_factors(rc, out, fmt):
    if rc != 0:
        raise CheckFailed(f"exit code {rc}")
    if fmt == "json":
        return {f["m"]: f["e"] for f in json.loads(out)["affine"]["factors"]}
    line = _AFFINE_LINE.search(out)
    if line is None:
        raise CheckFailed("no affine zeta line in the output")
    acc = {}
    for m, e in _FACTOR.findall(line.group(1)):
        acc[int(m or 1)] = acc.get(int(m or 1), 0) + int(e or 1)
    return acc


def output_digest(result) -> str:
    return hashlib.sha256(repr(result).encode()).hexdigest()[:20]


def check(op, result, golden):
    """Digest of the op's output; raises CheckFailed if it is wrong."""
    digest = output_digest(result)
    if op.check == "pinned":
        want = golden.get(op.input_id)
        if want is None:
            raise CheckFailed("no pinned output for this input")
        if want != digest:
            raise CheckFailed("output differs from the pinned output")
    elif op.check == "bp":
        rc, out, _ = result
        got = affine_factors(rc, out, op.args[-1])
        want = corpus.bp_affine_zeta(op.expect)
        if got != want:
            raise CheckFailed(f"affine zeta {got} != closed form {want}")
    elif op.check == "identity":
        if not all(row[-1] is True for row in result):
            raise CheckFailed("a reduction identity returned False")
    elif op.check == "multilinear":
        lhs, rhs = result
        if not isinstance(lhs, Fraction) or lhs != rhs:
            raise CheckFailed(f"mixed volume not additive: {lhs} != {rhs}")
    return digest


def execute(op, golden, tracer=None, sampler=None):
    """Run and check one op.

    Returns (segments, digest or None, failure note or None): the op's run
    time cut at every kernel sample taken while it ran, as (seconds, kernel
    time at the segment's start) pairs; see ``refkernel.Sampler``.
    """
    fn = RUNNERS[op.kind]
    note = result = None
    with sampler or contextlib.nullcontext():
        t0 = time.perf_counter()
        try:
            result = fn(*op.args) if tracer is None else tracer.op(fn, *op.args)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            note = f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
    ticks = [t for t in sampler.ticks if t0 <= t[0] and t[2] <= t1] if sampler else []
    segments, start, k = [], t0, None
    for tick_start, kernel_s, tick_end in ticks:
        segments.append((tick_start - start, k))
        start, k = tick_end, kernel_s
    segments.append((t1 - start, k))
    if note is not None:
        return segments, None, note
    try:
        return segments, check(op, result, golden), None
    except (CheckFailed, ValueError, KeyError, TypeError) as exc:
        return segments, None, f"{type(exc).__name__}: {exc}"


def timed_pass(ops, golden, tracer=None):
    """Closed loop over ops, one sample per op.

    Before each op the heap is collected and the kernel timed; while an
    untraced op runs the kernel is also timed every SAMPLE_PERIOD_S.  A
    sample is (raw seconds, reference-speed seconds, kernel times).
    """
    sampler = None if tracer else Sampler(SAMPLE_PERIOD_S)
    samples, digests, notes = [], [], []
    for op in ops:
        gc.collect()
        before = ref_time()
        segments, digest, note = execute(op, golden, tracer, sampler)
        samples.append([segments, before])
        digests.append(digest)
        notes.append(note)
    after = ref_time()
    out = []
    for i, (segments, before) in enumerate(samples):
        end = samples[i + 1][1] if i + 1 < len(samples) else after
        pieces = [(d, before if k is None else k) for d, k in segments]
        kernel = [k for _, k in pieces] + [end]
        raw = sum(d for d, _ in pieces)
        out.append((raw, rescale(pieces, end, R0), kernel))
    return out, digests, notes


def setup(workload, seed):
    """Corpus, pinned outputs and an untimed warm-up; then say ready."""
    ops = corpus.corpus(workload, seed)
    golden = json.loads(GOLDEN.read_text())
    for op in corpus.warmup(workload):
        execute(op, golden)
    # what set-up left alive is never garbage: keep it out of the per-op
    # collections, so each collects only what earlier ops left behind
    gc.collect()
    gc.freeze()
    print("ready", flush=True)
    return ops, golden


def measure(workload, seed, passes, trace, ops, golden):
    if trace:
        plan = [False, True]  # one untraced pass, then one traced pass
    else:
        plan = [False] * passes
    samples = []  # (pass, raw s, reference-speed s, kernel times, traced, op)
    first = {}    # op key -> digest in the first pass
    failed, notes = 0, []
    tracer = tracing.Tracer()
    for k, traced in enumerate(plan):
        order = corpus.pass_order(ops, workload, seed, k)
        if traced:
            tracer.install()
        try:
            timings, digests, fails = timed_pass(order, golden,
                                                 tracer if traced else None)
        finally:
            tracer.remove()
        for i, op in enumerate(order):
            samples.append((k, *timings[i], traced, op.key))
            note = fails[i]
            if note is None and first.setdefault(op.key, digests[i]) != digests[i]:
                note = "output differs between passes"
            if note is not None:
                failed += 1
                notes.append(f"{op.key}: {note}")
    digest = hashlib.sha256("".join(
        f"{op.key}={first.get(op.key)}\n" for op in ops).encode()).hexdigest()[:20]
    out = {
        "samples": samples,
        "attempted": len(samples),
        "failed": failed,
        "notes": notes[:20],
        "digest": digest,
        "ops_per_pass": len(ops),
        "rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if trace:
        traced = [s for s in samples if s[4]]
        out["layers"] = tracer.summary([s[2] / s[1] for s in traced])
        out["counts"] = tracer.counts
        dump_dir = ROOT / ".bench_out"
        dump_dir.mkdir(exist_ok=True)
        tracer.dump(dump_dir / f"spans-{workload}-seed{seed}.bin")
    print(json.dumps(out), flush=True)


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=corpus.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--passes", type=int, default=1)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    ops, golden = setup(args.workload, args.seed)
    if not args.setup_only:
        measure(args.workload, args.seed, args.passes, args.trace, ops, golden)


if __name__ == "__main__":
    main()
