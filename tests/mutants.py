"""A committed list of mutants of ``src/newtonzeta``, each of which the test
suite must kill, and of equivalent mutants, which it cannot.  Run it by
hand from anywhere in the repository, on every mutant or on the ones
named:

    python tests/mutants.py
    python tests/mutants.py NAME ...

An unknown name exits 1 before any mutant runs.

A mutant is one ``(file, old, new, reason)`` edit, ``file`` relative to
``src/newtonzeta``; ``old`` must occur exactly once in it.  Each mutant is
applied to its own copy, in a temporary directory, of ``src/``, ``tests/``
and the files the tests read (``bench/``, ``BENCHMARK.json``,
``README.md``, ``pyproject.toml``), and ``pytest -x`` runs the whole suite
there, all but ``tests/test_mutant_list.py``, which checks this list
against the unmutated source.  The script prints each mutant as killed,
with the first failing test, or as survived.

An equivalent mutant changes no output of the package.  It is listed in
``EQUIVALENT`` with its proof in ``reason``, and is expected to survive.
The report counts the killed mutants and the expected survivors apart,
with the run time, and the script exits 1 if a mutant of ``MUTANTS``
survived or one of ``EQUIVALENT`` was killed.  Add the mutant of each new
fast path or rule here.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ["src", "tests", "bench", "BENCHMARK.json", "README.md", "pyproject.toml"]

MUTANTS = {
    "face-sign-from-5": (
        "diagram.py",
        "    return -1 if len(I) % 2 else 1",
        "    return (-1 if len(I) % 2 else 1) * (-1 if len(I) >= 5 else 1)",
        "the sign of every index set of five or more elements flipped"),
    "drop-0-x-x-4": (
        "lattice.py",
        "    return DiagramFacet(a, a[0], tuple(rows), nvol)",
        "    return DiagramFacet(a, a[0], tuple(rows), nvol * "
        "(len(coords) != 4 or coords[-1] != 4))",
        "the records of the index sets (0, i, j, 4) read with nvol 0 in the "
        "index-set table, which drops their factors (diagram_facets reads S_I "
        "in R^4, on the positions (0, 1, 2, 3), and keeps them)"),
    "top-pull-misses-a-facet": (
        "lattice.py",
        "               for f in facet_masks if not f & low)",
        "               for f in facet_masks[len(apexes) == 1:] if not f & low)",
        "the top step of the pulling triangulation skips the face's first "
        "facet"),
    "double-m-of-3": (
        "lattice.py",
        "    return DiagramFacet(a, a[0], tuple(rows), nvol)",
        "    return DiagramFacet(a, a[0] * (1 + (a[0] % 3 == 0 and "
        "len(coords) >= 3)), tuple(rows), nvol)",
        "each m doubled where 3 divides it and |I| >= 3"),
    "zeta-torus-label-short": (
        "diagram.py",
        "    return _zeta({tuple(range(F.num_vars)): support_facets(",
        "    return _zeta({tuple(range(F.num_vars - 1)): support_facets(",
        "zeta_torus files its records under an index set one element short, "
        "which flips their sign"),
    "zeta-torus-and-full-lookup-short": (
        "diagram.py",
        "    return _zeta({full: table.get(full, [])}, {}), _zeta(table, {1: 1})",
        "    return _zeta({full: table.get(full[:-1], [])}, {}), _zeta(table, {1: 1})",
        "the CLI's torus zeta function takes the records of the index set one "
        "element short of the full one"),
    "records-rows-from-every-point": (
        "lattice.py",
        "            rows = [proj[i] for i in _vertices(g, found)]",
        "            rows = [proj[i] for i in _bits(g)]",
        "a diagram facet that is not a simplex takes as its vertices every "
        "support point on it, not its vertices alone"),
    "records-find-facets-twice": (
        "lattice.py",
        "            volume = _pulled_volume(g, len(coords) - 1, proj, found, ())",
        "            volume = _pulled_volume(g, len(coords) - 1, proj, "
        "_face_facets(g, cut), ())",
        "a diagram facet that is not a simplex has its own facets found a "
        "second time for its triangulation: the same records, but the work "
        "guard that hands both readers one list fails"),
    "walk-drops-the-deformation-axis": (
        "lattice.py",
        "    points = face & (1 << len(pts)) - 1",
        "    points = face & (1 << len(pts)) - 1 if len(I) > 1 else 0",
        "the coordinate-face walk reads no record of the index set (0,), the "
        "deformation axis"),
    "zeta-check-builds-its-own-polyhedron": (
        "cli.py",
        "                        _report(F, facets))",
        "                        nondegeneracy_check(F))",
        "zeta hands its check no polyhedron, so the check builds a second: "
        "the same report, but the work guard of one Newton polyhedron per "
        "command fails"),
    "edge-gcd-degree-one-read-as-none": (
        "nondegeneracy.py",
        "    if len(h) <= 1:",
        "    if len(h) <= 2:",
        "an edge polynomial whose gcd with its derivative has degree one, a "
        "double zero, is verified"),
    "binomial-shortcut-on-three-points": (
        "nondegeneracy.py",
        "    if len(pts) == 2:",
        "    if len(pts) <= 3:",
        "an edge of three support points is verified as a binomial would be"),
    "sturm-sign-shift-by-i": (
        "nondegeneracy.py",
        "(2 * k + 1) ** i << (len(f) - 1 - i)",
        "(2 * k + 1) ** i << i",
        "_rational_root reads each Sturm sign off c_i (2k + 1)^i 2^i instead of "
        "2^(deg - i), which is not 2^deg f(k + 1/2)"),
    "exact-face-keeps-zero-volume": (
        "lattice.py",
        "            if volume := abs(int_det(rows)):",
        "            if (volume := abs(int_det(rows))) or True:",
        "a coordinate face of exactly |I| points keeps the record of dependent "
        "points that a facet above cuts out, with nvol 0"),
    "exact-face-meet-with-an-axis": (
        "lattice.py",
        "y := next((y for g, y in cut.items() if g & face == points), None)",
        "y := next((y for g, y in cut.items() if g & points == points), None)",
        "a coordinate face of exactly |I| points takes a facet above that meets "
        "it in its points plus an axis"),
    "walk-inherits-when-two-points-leave": (
        "lattice.py",
        "            if simplex and lost.bit_count() == 1:",
        "            if simplex and lost.bit_count() >= 1:",
        "a face below a simplex diagram facet that loses two or more points "
        "takes the facet's normal and a volume from it, and is read as a "
        "facet"),
    "compact-faces-no-orthant-fallback": (
        "lattice.py",
        "    seeds = [z for a, _, z in facets if sum(map(bool, a)) > 1] or masks",
        "    seeds = [z for a, _, z in facets if sum(map(bool, a)) > 1]",
        "compact_faces walks nothing on an orthant, whose facets all have unit "
        "normals"),
    "compact-faces-seeds-positive-normals": (
        "lattice.py",
        "    seeds = [z for a, _, z in facets if sum(map(bool, a)) > 1] or masks",
        "    seeds = [z for a, _, z in facets if all(a)] or masks",
        "compact_faces starts only at the facets with a strictly positive normal"),
    "compact-faces-seeds-by-offset": (
        "lattice.py",
        "    seeds = [z for a, _, z in facets if sum(map(bool, a)) > 1] or masks",
        "    seeds = [z for a, c, z in facets if c > 0] or masks",
        "compact_faces starts at the facets with a positive offset"),
    "support-facets-keeps-a-zero-entry": (
        "lattice.py",
        "    if all(x > 0 for x in y):",
        "    if all(x >= 0 for x in y):",
        "a support of exactly |I| points keeps its simplex when y has a zero "
        "entry, though the face then holds a recession axis"),
    "support-facets-ignores-the-pivot-sign": (
        "lattice.py",
        "    sign = 1 if p > 0 else -1",
        "    sign = 1",
        "a support of exactly |I| points after a negative pivot reads y "
        "negated, so its simplex is dropped"),
    "support-facets-drops-exact-supports": (
        "lattice.py",
        "    if len(pivots) < d:",
        "    if len(pivots) <= d:",
        "a support of exactly |I| independent points is read as dependent, "
        "with no diagram facet"),
    "support-facets-builds-exact-supports": (
        "lattice.py",
        "    if len(points) > d:",
        "    if len(points) >= d:",
        "a support of exactly |I| points builds its Newton polyhedron: the "
        "same records (the polyhedron path reads them), but the work guard "
        "that such supports build none fails"),
    "dispatch-ignores-leftover-args": (
        "cli.py",
        "    if rest:",
        "    if rest and False:",
        "a command line led by a subcommand name runs with the arguments its "
        "parser did not read dropped, where argparse refuses them"),
    "dispatch-always-top-level": (
        "cli.py",
        "    parser = PARSER.commands.get(argv[0]) if argv else None",
        "    parser = None",
        "every command line is parsed at the top level first: the same "
        "results, but the work guard that a subcommand line skips that "
        "parse fails"),
    "json-memo-key-drops-the-indent": (
        "cli.py",
        "            key = id(doc), newline",
        "            key = id(doc)",
        "the JSON writer reuses a list's text at another depth, with the "
        "indent of the first"),
    "refusal-one-token-late": (
        "germ.py",
        "    m = next(islice(_TOKEN.finditer(text), k, None), None)",
        "    m = next(islice(_TOKEN.finditer(text), k + 1, None), None)",
        "parse_germ reports a refused token at the position of the token "
        "after it"),
    "reader-takes-a-zero": (
        "germ.py",
        "            elif value == 0:",
        "            elif value < 0:",
        "parse_germ reads a zero denominator or exponent instead of refusing "
        "it"),
    "printer-drops-denominator": (
        "germ.py",
        'coef = f"{mag}/{q}*" if q > 1',
        'coef = f"{mag}*" if q > 1',
        "germ_to_string writes a coefficient p/q as p"),
    "doubling-prepends": (
        "germ.py",
        "        sets += [s + (i,) for s in sets]",
        "        sets = [s + (i,) for s in sets] + sets",
        "index_sets_with_zero lists the sets holding i before the others, "
        "out of binary order"),
    "suite-passes-inapplicable-checks": (
        "randomized.py",
        "            if not ok:",
        "            if ok is False:",
        "a seeded suite counts no failure for a facet whose identity does not "
        "apply, so it can pass on facets that it did not check"),
    "suite-always-passes": (
        "randomized.py",
        '    doc["passed"] = not doc["failures"]',
        '    doc["passed"] = True',
        "a seeded suite reads passed whatever its failures"),
}

EQUIVALENT = {
    "dd-prefilter-rank-3": (
        "lattice.py",
        "                    if z.bit_count() < rank - 2:",
        "                    if z.bit_count() < rank - 3:",
        "the double description's count bound is a prefilter only: two extreme "
        "rays are adjacent iff no third one vanishes on their common zero set, "
        "the combinatorial test of Fukuda & Prodon (Double description method "
        "revisited, 1996), which the scan after the bound makes on every pair it "
        "passes, so a looser bound admits no other pair"),
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
        # test_mutant_list checks this list against the unmutated source, so
        # in a mutated copy it would fail on every mutant, equivalent or not
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider",
             "--ignore", "tests/test_mutant_list.py"],
            cwd=copy, env=env, capture_output=True, text=True)
        return done.returncode != 0, _first_failure(done.stdout + done.stderr)


def main(names) -> int:
    unknown = [name for name in names if name not in MUTANTS | EQUIVALENT]
    if unknown:
        print(f"unknown mutant: {', '.join(unknown)}", file=sys.stderr)
        return 1
    chosen = [{name: edit for name, edit in mutants.items() if not names or name in names}
              for mutants in (MUTANTS, EQUIVALENT)]
    start = time.monotonic()
    tally = {}
    for expected, mutants in zip(("killed", "survived"), chosen):
        tally[expected] = 0
        for name, (file, old, new, reason) in mutants.items():
            t0 = time.monotonic()
            dead, failure = run(name, file, old, new)
            verdict = f"killed by {failure}" if dead else "survived"
            if verdict.startswith(expected):
                tally[expected] += 1
            else:
                verdict = f"UNEXPECTED: {verdict}, expected {expected}"
            print(f"{name} ({reason}): {verdict} [{time.monotonic() - t0:.1f} s]",
                  flush=True)
    print(f"{tally['killed']} of {len(chosen[0])} mutants killed, "
          f"{tally['survived']} of {len(chosen[1])} equivalent mutants survived, "
          f"in {time.monotonic() - start:.1f} s")
    return 0 if [tally["killed"], tally["survived"]] == list(map(len, chosen)) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
