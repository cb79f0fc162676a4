"""Every pinned benchmark op still gives its pinned output.

Replays each op of the benchmark pools (``bench/corpus.py``) whose output is
checked against ``bench/golden.json`` through the benchmark's own runners and
digest, so an output change shows here before a benchmark run counts it as a
failed op.  Reads both files and writes neither.
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

import corpus  # noqa: E402
import worker  # noqa: E402

GOLDEN = json.loads((BENCH / "golden.json").read_text())
PINNED = [op for w in corpus.WORKLOADS for op in corpus.pool(w) if op.check == "pinned"]


def test_every_pinned_output_is_replayed():
    assert {op.input_id for op in PINNED} == set(GOLDEN)


def test_pinned_ops_give_their_pinned_outputs():
    changed = [op.key for op in PINNED
               if worker.output_digest(worker.RUNNERS[op.kind](*op.args))
               != GOLDEN[op.input_id]]
    assert not changed, changed
