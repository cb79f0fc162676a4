"""The benchmark tracer's wrap list resolves on the package.

``bench/tracing.py`` wraps functions by (module, attribute) name, so a
rename in ``newtonzeta`` would break ``bench/run.py --trace 1``; this
catches it without running the benchmark's own slower test suite.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = _load_tracing()
    targets = [t for group in tracing.GROUPS.values() for t in group]
    targets += [(module, path) for module, path, _ in tracing.COUNT_ONLY]
    assert targets
    for module, path in targets:
        owner = importlib.import_module(f"newtonzeta.{module}")
        for name in path.split("."):
            assert hasattr(owner, name), f"newtonzeta.{module}.{path}"
            owner = getattr(owner, name)
        assert callable(owner), f"newtonzeta.{module}.{path}"


def test_convex_hull_is_bound_in_diagram():
    from newtonzeta import diagram, lattice

    assert diagram.convex_hull is lattice.convex_hull
