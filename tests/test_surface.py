"""The package surface is exactly the README's Library list."""

from __future__ import annotations

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import fuzzmin

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_library_names() -> list[str]:
    """Backticked names in the bullets of the README's Library section."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    bullets = re.findall(r"^- .*(?:\n  .*)*", section, re.MULTILINE)
    return [name for bullet in bullets for name in re.findall(r"`(\w+)`", bullet)]


def test_all_is_the_readme_library_list():
    names = readme_library_names()
    assert len(names) == len(set(names)) == 36
    assert sorted(fuzzmin.__all__) == sorted(names + ["__version__"])
    for name in fuzzmin.__all__:
        assert getattr(fuzzmin, name) is not None, name


def test_star_import_is_clean_under_warnings_as_errors():
    src = str(Path(fuzzmin.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-W", "error", "-c", "from fuzzmin import *"],
        env={"PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr


def test_the_weight_matrix_lives_with_the_automaton():
    assert fuzzmin.FuzzyMatrix.__module__ == "fuzzmin.automaton"
    assert importlib.util.find_spec("fuzzmin.linalg") is None
