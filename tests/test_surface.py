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


def test_every_name_the_benchmark_reads_resolves(monkeypatch):
    # perfbench reads these from outside the package; a deletion from src/
    # that breaks its tracer or its corpus fails here, not only in a traced run
    path = README.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the module body runs
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    for module, attr in spans.TRACED:
        target = getattr(importlib.import_module(f"fuzzmin.{module}"), attr, None)
        assert callable(target), f"fuzzmin.{module}.{attr}"
    # the corpus rebuilds equations positionally, relation included
    system = fuzzmin.gen_system(2, 4, 3, 2, 4)  # solvable, in 2 boxes
    eq = system.equations[0]
    assert fuzzmin.Equation(eq.lhs, eq.relation, eq.rhs) == eq
    # the tracer's counters read these off real arguments and results
    boxes = fuzzmin.solve_intervals(system)
    assert len(boxes) == 2 and all(v.is_nonempty for v in boxes)
    a = fuzzmin.gen_automaton(3, 3, 2, 4)
    result = fuzzmin.equivalent_fixpoint(a, a)
    assert len(result.reached) > 0 and result.stabilization_index >= 0
    space = fuzzmin.build_candidate_space(fuzzmin.MinimizeInstance(a, 2))
    assert space.var_count == 2 * 2 + 2 * 2**2
    assert [space.values.index(v) for v in space.values] == list(range(len(space.values)))
