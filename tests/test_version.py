"""The package states its version once, as ``newtonzeta.__version__``, and
``pyproject.toml`` takes it from there.

The file is read with regular expressions, not ``tomllib``, so that the
test runs on Python 3.10 too."""

import re
from pathlib import Path

import newtonzeta

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_pyproject_version_is_the_package_version():
    text = PYPROJECT.read_text()
    (project,) = re.findall(r"^\[project\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S)
    assert not re.search(r"^version\s*=", project, re.M)
    assert re.search(r'^dynamic = \[[^]]*"version"', project, re.M)
    assert re.search(r'^\[tool\.setuptools\.dynamic\]\n'
                     r'version = \{ attr = "newtonzeta\.__version__" \}$', text, re.M)
    assert re.fullmatch(r"\d+\.\d+\.\d+", newtonzeta.__version__)
