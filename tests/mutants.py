"""A committed list of mutants of ``src/newtonzeta``, each of which the test
suite must kill.  Run it by hand from anywhere in the repository:

    python tests/mutants.py

A mutant is one ``(file, old, new, reason)`` edit, ``file`` relative to
``src/newtonzeta``; ``old`` must occur exactly once in it.  Each mutant is
applied to its own copy, in a temporary directory, of ``src/``, ``tests/``
and the files the tests read (``bench/``, ``README.md``,
``pyproject.toml``), and ``pytest -x`` runs the whole suite there.  The
script prints each mutant as killed, with the first failing test, or as
survived, then the count killed and the run time, and exits 1 if any
mutant survived.  Add the mutant of each new fast path or rule here.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ["src", "tests", "bench", "README.md", "pyproject.toml"]

MUTANTS = {
    "face-sign-from-5": (
        "diagram.py",
        "    return -1 if len(I) % 2 else 1",
        "    return (-1 if len(I) % 2 else 1) * (-1 if len(I) >= 5 else 1)",
        "the sign of every index set of five or more elements flipped"),
    "drop-0-x-x-4": (
        "lattice.py",
        "        out.append(DiagramFacet(label, a, a[0], tuple(rows), nvol))",
        "        if not (len(label) == 4 and label[-1] == 4):\n"
        "            out.append(DiagramFacet(label, a, a[0], tuple(rows), nvol))",
        "the records of the index sets (0, i, j, 4) dropped, in the table and "
        "in diagram_facets alike"),
    "top-pull-misses-a-facet": (
        "lattice.py",
        "               for f in facet_masks if not f & low)",
        "               for f in facet_masks[len(apexes) == 1:] if not f & low)",
        "the top step of the pulling triangulation skips the face's first "
        "facet"),
    "double-m-of-3": (
        "lattice.py",
        "        out.append(DiagramFacet(label, a, a[0], tuple(rows), nvol))",
        "        out.append(DiagramFacet(label, a, a[0] * (1 + (a[0] % 3 == 0 and "
        "len(label) >= 3)), tuple(rows), nvol))",
        "each m doubled where 3 divides it and |I| >= 3"),
    "zeta-torus-label-short": (
        "diagram.py",
        "    full = tuple(range(F.num_vars))",
        "    full = tuple(range(F.num_vars - 1))",
        "zeta_torus labels its records with an index set one element short, "
        "which flips their sign"),
}


def _first_failure(output: str) -> str:
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" - ")[0]
    return output.strip().splitlines()[-1] if output.strip() else "(no output)"


def run(name: str, file: str, old: str, new: str) -> tuple[bool, str]:
    """``(killed, first failing test)`` of one mutant."""
    with tempfile.TemporaryDirectory(prefix=f"mutant-{name}-") as tmp:
        copy = Path(tmp)
        for part in COPIED:
            source = ROOT / part
            if source.is_dir():
                shutil.copytree(source, copy / part,
                                ignore=shutil.ignore_patterns("__pycache__", ".*"))
            else:
                shutil.copy2(source, copy / part)
        target = copy / "src" / "newtonzeta" / file
        text = target.read_text()
        if text.count(old) != 1:
            raise SystemExit(f"{name}: the edit's old text occurs {text.count(old)} "
                             f"times in {file}, not once")
        target.write_text(text.replace(old, new))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"))
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider"],
            cwd=copy, env=env, capture_output=True, text=True)
        return done.returncode != 0, _first_failure(done.stdout + done.stderr)


def main() -> int:
    start = time.monotonic()
    killed = 0
    for name, (file, old, new, reason) in MUTANTS.items():
        t0 = time.monotonic()
        dead, failure = run(name, file, old, new)
        killed += dead
        verdict = f"killed by {failure}" if dead else "SURVIVED"
        print(f"{name} ({reason}): {verdict} [{time.monotonic() - t0:.1f} s]", flush=True)
    print(f"{killed} of {len(MUTANTS)} mutants killed in {time.monotonic() - start:.1f} s")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
