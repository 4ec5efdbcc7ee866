"""The README and the packaging metadata agree with the code."""

import json
import re
from pathlib import Path

import pytest

import lt_spectral
from lt_spectral import potential

ROOT = Path(__file__).resolve().parent.parent


def _readme_json_examples():
    """Every inline code span of README.md that holds a JSON object."""
    text = (ROOT / "README.md").read_text()
    return re.findall(r"`(\{.*?\})`", text)


def test_readme_json_examples_load():
    examples = _readme_json_examples()
    assert examples
    for doc in examples:
        V = potential.from_json_dict(json.loads(doc))
        assert V.integrate() > 0.0


def test_version_has_one_source():
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    meta = tomllib.loads((ROOT / "pyproject.toml").read_text())
    assert "version" not in meta["project"]
    assert "version" in meta["project"]["dynamic"]
    attr = meta["tool"]["setuptools"]["dynamic"]["version"]["attr"]
    assert attr == "lt_spectral.__version__"
    assert re.fullmatch(r"\d+\.\d+\.\d+", lt_spectral.__version__)
