"""The committed mutant list, ``tests/mutants.py``, still fits the source.

Each edit's ``old`` text occurs exactly once in its file, its ``new``
text differs, and its reason is given, so an edit of a mutated line is
found by the test suite, not only by a run of the list itself."""

from pathlib import Path

import pytest

from mutants import EQUIVALENT, MUTANTS

SRC = Path(__file__).resolve().parents[1] / "src" / "newtonzeta"


def test_no_mutant_is_both_killed_and_equivalent():
    assert MUTANTS.keys() & EQUIVALENT.keys() == set()


@pytest.mark.parametrize("name", [*MUTANTS, *EQUIVALENT])
def test_each_mutant_edits_one_place_in_its_file(name):
    file, old, new, reason = (MUTANTS | EQUIVALENT)[name]
    assert (SRC / file).read_text().count(old) == 1
    assert new != old
    assert reason.strip()
