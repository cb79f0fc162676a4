"""Spans around the public functions of each ``newtonzeta`` layer.

The tracer wraps functions from outside: for every wrapped function it
replaces each binding of that function object in every ``newtonzeta``
module namespace (``convex_hull`` is bound in both ``diagram`` and
``lattice``; ``int_det`` is looked up in ``lattice`` by ``_cross_normal``),
so calls made inside the package are seen too.  Nothing under ``src/``
changes.

A span is (group, parent span, start, end).  Spans are kept in memory in
flat arrays, 25 bytes each, and written out by ``dump`` when the run ends.
Span 0 of every op is a ``bench.op`` root, so self times can be attributed
to ops and rescaled with each op's reference time.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from math import comb

OP = "bench.op"

# span group -> wrapped functions, as (module, attribute path)
GROUPS = {
    "cli.main": [("cli", "main")],
    "germ.parse": [("germ", "parse_germ")],
    "germ.restrict": [("germ", "restrict_support")],
    "diagram.facets": [("diagram", "diagram_facets")],
    "diagram.identity": [("diagram", "cone_reduction_identity"),
                         ("diagram", "cayley_mixed_volume_identity")],
    "lattice.hull": [("lattice", "convex_hull")],
    "lattice.det": [("lattice", "int_det")],
    "lattice.elim": [("lattice", "mat_rank"), ("lattice", "coords_in_basis")],
    "lattice.snf": [("lattice", "smith_normal_form"),
                    ("lattice", "saturation_basis")],
    "lattice.volume": [("lattice", "normalized_volume"),
                       ("lattice", "normalized_volume_at")],
    "lattice.mixed": [("lattice", "mixed_volume")],
    "lattice.minkowski": [("lattice", "minkowski_sum")],
    "nondegeneracy.polyhedron": [("nondegeneracy", "newton_polyhedron_facets")],
    "nondegeneracy.faces": [("nondegeneracy", "compact_faces")],
    "nondegeneracy.edge": [("nondegeneracy", "_edge_verdict")],
    "factored": [("factored", "product"), ("factored", "FactoredZeta.pretty"),
                 ("factored", "FactoredZeta.as_json_dict")],
}


# ---------------------------------------------------------------------------
# counts taken at the boundary, from the call's inputs and result

def _count_hull(c, args, result):
    pts = {tuple(p) for p in args[0]}
    d = len(next(iter(pts)))
    if result[1] == d:  # full-dimensional: the brute force tries C(N, d)
        c["lattice.hull.attempts"] += comb(len(pts), d)
        c["lattice.hull.facets"] += len(result[2])


def _count_minkowski(c, args, result):
    c["lattice.minkowski.points_in"] += len(args[0].vertices) * len(args[1].vertices)
    c["lattice.minkowski.vertices_out"] += len(result.vertices)


def _count_polyhedron(c, args, result):
    n = len({tuple(p) for p in args[0]})
    d = args[1]
    c["nondegeneracy.polyhedron.attempts"] += sum(
        comb(n, t) * comb(d, d - t) for t in range(1, min(d, n) + 1))
    c["nondegeneracy.polyhedron.facets"] += len(result)


def _count_facets(c, args, result):
    c["diagram.facets.facets"] += len(result)


def _count_faces(c, args, result):
    c["nondegeneracy.faces.faces"] += len(result)


def _count_report(c, args, result):
    c["nondegeneracy.report_faces"] += len(result.faces)
    c["nondegeneracy.decided_faces"] += sum(
        1 for f in result.faces if f.status in ("verified", "counterexample"))


HOOKS = {
    "lattice.hull": _count_hull,
    "lattice.minkowski": _count_minkowski,
    "nondegeneracy.polyhedron": _count_polyhedron,
    "diagram.facets": _count_facets,
    "nondegeneracy.faces": _count_faces,
}

# counted but not timed: every verdict passes through the report
COUNT_ONLY = [("nondegeneracy", "nondegeneracy_check", _count_report)]


class Tracer:
    """Installs the wrappers on ``install`` and removes them on ``remove``."""

    def __init__(self):
        self.names = [OP] + list(GROUPS)
        self.group = array("b")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self._stack = [-1]
        self._undo = []

    # -- span recording ----------------------------------------------------

    def _open(self, gid):
        i = len(self.group)
        self.group.append(gid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i):
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def op(self, fn, *args):
        """Run one benchmark op under a root span."""
        i = self._open(0)
        try:
            return fn(*args)
        finally:
            self._close(i)

    def _wrap(self, fn, gid, hook):
        counts = self.counts

        def wrapper(*args, **kwargs):
            i = self._open(gid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if hook is not None:
                hook(counts, args, result)
            return result

        return wrapper

    def _count_only(self, fn, hook):
        counts = self.counts

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            hook(counts, args, result)
            return result

        return wrapper

    # -- patching ----------------------------------------------------------

    def _replace(self, module, path, make):
        owner = sys.modules[f"newtonzeta.{module}"]
        *outer, attr = path.split(".")
        for name in outer:
            owner = getattr(owner, name)
        orig = getattr(owner, attr)
        new = make(orig)
        if outer:  # a method: one binding, on its class
            self._undo.append((owner, attr, orig))
            setattr(owner, attr, new)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "newtonzeta"
                                   or mod_name.startswith("newtonzeta.")):
                continue
            for name, value in list(vars(mod).items()):
                if value is orig:
                    self._undo.append((mod, name, orig))
                    setattr(mod, name, new)

    def install(self):
        for gid, (group, targets) in enumerate(GROUPS.items(), start=1):
            for module, path in targets:
                self._replace(module, path, lambda fn, g=gid, h=HOOKS.get(group):
                              self._wrap(fn, g, h))
        for module, path, hook in COUNT_ONLY:
            self._replace(module, path, lambda fn, h=hook: self._count_only(fn, h))

    def remove(self):
        for owner, name, orig in reversed(self._undo):
            setattr(owner, name, orig)
        self._undo.clear()

    # -- results -----------------------------------------------------------

    def summary(self, op_scale):
        """Per-group calls, raw self seconds and rescaled self seconds.

        op_scale[k] is reference-speed over raw seconds of the k-th op.
        """
        n = len(self.group)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        ng = len(self.names)
        calls = [0] * ng
        raw_self = [0.0] * ng
        ref_self = [0.0] * ng
        k = -1
        for i in range(n):
            g = self.group[i]
            if g == 0:
                k += 1
            s = self.end[i] - self.start[i] - child[i]
            calls[g] += 1
            raw_self[g] += s
            ref_self[g] += s * op_scale[k]
        return {name: (calls[g], raw_self[g], ref_self[g])
                for g, name in enumerate(self.names)}

    def dump(self, path):
        """Write the spans: one JSON header line, then the four arrays."""
        header = {"groups": self.names, "spans": len(self.group),
                  "arrays": [["group", "b"], ["parent", "l"],
                             ["start", "d"], ["end", "d"]]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.group, self.parent, self.start, self.end):
                arr.tofile(fh)


COUNT_NAMES = ("diagram.facets.facets", "lattice.hull.attempts",
               "lattice.hull.facets", "lattice.minkowski.points_in",
               "lattice.minkowski.vertices_out",
               "nondegeneracy.polyhedron.attempts",
               "nondegeneracy.polyhedron.facets", "nondegeneracy.faces.faces",
               "nondegeneracy.report_faces", "nondegeneracy.decided_faces")
