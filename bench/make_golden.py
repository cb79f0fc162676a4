"""Record the pinned output of every pool op into golden.json.

    python3 bench/make_golden.py

Run it only at a commit whose outputs are known good: the benchmark counts
every later difference from these outputs as a failed op.  Ops checked by a
closed form or an identity are not recorded.
"""

from __future__ import annotations

import json
from collections import Counter

import corpus
import worker


def main():
    golden = {}
    exit_codes = Counter()
    for workload in corpus.WORKLOADS:
        for op in corpus.pool(workload):
            if op.check == "pinned":
                result = worker.RUNNERS[op.kind](*op.args)
                golden[op.input_id] = worker.output_digest(result)
                if op.kind == "cli":
                    exit_codes[result[0]] += 1
    worker.GOLDEN.write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n")
    print(f"{len(golden)} pinned outputs written to {worker.GOLDEN.name}; "
          f"CLI exit codes {dict(sorted(exit_codes.items()))}")


if __name__ == "__main__":
    main()
