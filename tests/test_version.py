"""``pyproject.toml`` and the package state one version, the same one.

The file is read with a regular expression, not ``tomllib``, so that the
test runs on Python 3.10 too."""

import re
from pathlib import Path

import newtonzeta

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_pyproject_version_is_the_package_version():
    (version,) = re.findall(r'^version = "([^"]*)"$', PYPROJECT.read_text(), re.M)
    assert version == newtonzeta.__version__
