"""Tests of the benchmark's own machinery (not of newtonzeta).

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import corpus  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402


def _ids(workload, seed):
    return [(op.key, op.input_id) for op in corpus.corpus(workload, seed)]


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_corpus_is_deterministic_per_seed(workload):
    assert _ids(workload, 3) == _ids(workload, 3)
    assert _ids(workload, 3) != _ids(workload, 4)


def test_corpus_does_not_depend_on_hash_seed():
    code = ("import json, corpus; print(json.dumps([op.input_id for w in "
            "corpus.WORKLOADS for op in corpus.corpus(w, 5)]))")
    outs = set()
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        outs.add(subprocess.run([sys.executable, "-c", code], cwd=BENCH, env=env,
                                capture_output=True, text=True,
                                check=True).stdout)
    assert len(outs) == 1


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_op_count_per_run_is_fixed(workload):
    sizes = {len(corpus.corpus(workload, seed)) for seed in range(6)}
    assert sizes == {sum(slots for _, slots, _ in corpus.SCHEDULE[workload])}
    ops = corpus.corpus(workload, 1)
    for k in range(3):
        order = corpus.pass_order(ops, workload, 1, k)
        assert sorted(op.key for op in order) == sorted(op.key for op in ops)
    for seconds in (1, 10, 25, 60):
        assert corpus.passes_for(workload, seconds) >= 1
    assert corpus.passes_for(workload, 25) == corpus.passes_for(workload, 25.0)


def test_rescale_by_reference_time():
    r0 = 0.002
    # a host running the kernel at half speed halves the op time
    assert stats.rescale([(1.0, 0.004)], 0.004, r0) == pytest.approx(0.5)
    assert stats.rescale([(2.0, 0.002)], 0.002, r0) == pytest.approx(2.0)
    # one piece: the mean of the kernel times before and after
    assert stats.rescale([(0.3, 0.001)], 0.003, r0) == pytest.approx(0.3)
    # the speed halves in the middle of the op: each piece on its own
    pieces = [(0.1, 0.002), (0.2, 0.002), (0.2, 0.004)]
    assert stats.rescale(pieces, 0.004, r0) == pytest.approx(
        0.1 + 0.2 * 2 / 3 + 0.1)


def test_tail_keeps_ten_samples_beyond():
    assert stats.tail(list(range(1, 101))) == (90.0, 90, 10)
    assert stats.tail(list(range(1, 100))) == (75.0, 75, 24)
    assert stats.tail(list(range(1000, 0, -1))) == (99.0, 990, 10)
    assert stats.tail(list(range(20))) == (50.0, 9, 10)
    with pytest.raises(ValueError):
        stats.tail(list(range(19)))


def test_brieskorn_pham_closed_form():
    # the README cusp z1^2 + z2^3 - s: (1-t^2) (1-t^3) (1-t^6)^-1
    assert corpus.bp_affine_zeta((2, 3)) == {2: 1, 3: 1, 6: -1}
    # one variable: the fibre is a finite set of points, zeta (1-t^a)
    assert corpus.bp_affine_zeta((5,)) == {5: 1}


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(run.per_layer_units())
    assert [w["name"] for w in spec["workloads"]] == list(corpus.WORKLOADS)
    units = {**run.END_TO_END, **run.per_layer_units()}
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert m["unit"] == units[m["name"]]


_TRACED = """
import json, sys
sys.path.insert(0, "src")
sys.path.insert(0, "bench")
import corpus, tracing, worker
t = tracing.Tracer()
t.install()
ops = [corpus.variant("zeta-desk", "bp-n4", 0, corpus.bp_cli(4, "zeta", "json")),
       corpus.variant("oracle", "cone-n3-e2", 0, corpus.cone_case(3, 2)),
       corpus.variant("oracle", "mv3", 0, corpus.mv3_case)]
for op in ops:
    worker.execute(op, {}, t)
t.remove()
calls = {g: v[0] for g, v in t.summary([1.0] * len(ops)).items()}
print(json.dumps([calls, t.counts], sort_keys=True))
"""


def test_traced_counts_repeat_across_hash_seeds():
    outs = []
    for hash_seed in ("1", "7"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        outs.append(subprocess.run([sys.executable, "-c", _TRACED], cwd=ROOT,
                                   env=env, capture_output=True, text=True,
                                   check=True).stdout)
    assert outs[0] == outs[1]
    calls, counts = json.loads(outs[0])
    assert calls["bench.op"] == 3
    assert calls["germ.restrict"] > 0 and calls["lattice.det"] > 0
    assert counts["nondegeneracy.polyhedron.attempts"] > 0
    assert counts["lattice.minkowski.points_in"] > 0


def test_tracer_restores_every_binding():
    sys.path.insert(0, str(ROOT / "src"))
    import newtonzeta
    import tracing
    from newtonzeta import cli, diagram, factored, lattice
    before = (lattice.int_det, diagram.convex_hull, lattice.convex_hull,
              newtonzeta.convex_hull, cli.main, factored.FactoredZeta.pretty)
    t = tracing.Tracer()
    t.install()
    assert diagram.convex_hull is lattice.convex_hull is newtonzeta.convex_hull
    assert lattice.int_det is not before[0]
    assert diagram.convex_hull is not before[1]
    t.remove()
    assert (lattice.int_det, diagram.convex_hull, lattice.convex_hull,
            newtonzeta.convex_hull, cli.main,
            factored.FactoredZeta.pretty) == before
