"""Self-test of the benchmark harness on tiny passes.

    python3 perfbench/selftest.py

Checks, for each workload, that a tiny pass runs clean; that the same seed
writes a byte-identical corpus and another seed a different one; that an
injected wrong output, an empty output and an op over its budget all count
as failed ops;
and that the metric names and units match BENCHMARK.json.  Finally it runs
the benchmark in a directory holding only BENCHMARK.json and perfbench/,
where it must exit nonzero without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import clock
import corpus
import run

TINY = 4
SPEED = clock.SpeedClock()
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def _tiny(workload: str, seed: int, work: Path):
    shutil.rmtree(work, ignore_errors=True)
    return run.set_up(workload, seed, work, limit=TINY)


def _failed(fz, ops, pins, passes) -> int:
    return sum(1 for row in run.check_passes(fz, ops, pins, passes) if row[4] is not None)


def _wrong(fz, op, stdout: str) -> str:
    """A plausible but wrong output for the op."""
    if op.command == "equiv":
        if stdout.startswith("equivalent"):
            return "not equivalent (counterexample: λ)\n"
        return "equivalent (stabilized at l=1)\n"
    if op.command == "solve":
        (system,) = op.parts
        if stdout.strip() == "unsolvable":
            top = system.chain.labels[-1]
            return "(" + ", ".join([f"[{top},{top}]"] * system.n_vars) + ")\n"
        return "unsolvable\n"
    w = fz.parse_automaton(stdout)
    pi = list(w.pi.data)
    pi[0] = (pi[0] + 1) % len(w.chain)
    changed = fz.FuzzyAutomaton(w.chain, w.alphabet,
                                fz.FuzzyMatrix(w.chain, 1, w.n, tuple(pi)), w.eta, w.delta)
    return fz.render_automaton(changed)


def check_workload(workload: str) -> None:
    out = run.OUT / "selftest"
    fz, ops, argvs, pins = _tiny(workload, 7, out / "a")
    passes = [run.run_pass(fz, argvs, SPEED)]
    assert _failed(fz, ops, pins, passes) == 0, f"{workload}: tiny pass failed"

    _tiny(workload, 7, out / "b")
    assert _files(out / "a") == _files(out / "b"), f"{workload}: same seed differs"
    _tiny(workload, 8, out / "c")
    assert _files(out / "a") != _files(out / "c"), f"{workload}: seeds give one corpus"

    wrong = [[(lat, code, _wrong(fz, ops[k], stdout))
              for k, (lat, code, stdout) in enumerate(passes[0])]]
    assert _failed(fz, ops, pins, wrong) == len(ops), f"{workload}: wrong output passed"
    empty = [[(lat, code, "") for lat, code, _ in passes[0]]]
    assert _failed(fz, ops, pins, empty) == len(ops), f"{workload}: empty output passed"

    os.environ["FUZZMIN_BUDGET"] = "1"
    try:
        refused = [run.run_pass(fz, argvs, SPEED)]
    finally:
        del os.environ["FUZZMIN_BUDGET"]
    rows = run.check_passes(fz, ops, pins, refused)
    over = [row for row in rows if row[3] == 3]
    assert over, f"{workload}: no op exceeded a budget of 1"
    assert all(row[4] == "exit 3" for row in over), f"{workload}: refusal not failed"

    passes, layer, _ = run.traced_run(fz, argvs, SPEED)
    assert _failed(fz, ops, pins, passes) == 0, f"{workload}: traced pass failed"
    expected = {(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]}
    assert {(n, u) for n, (_, u) in layer.items()} == expected, "per-layer metrics"
    e2e = run.end_to_end(0.1, [ms for ms, _, _ in passes[0]], 1.0)
    expected = {(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]}
    assert {(n, u) for n, (_, u) in e2e.items()} == expected, "end-to-end metrics"
    shutil.rmtree(out)
    print(f"{workload}: ok ({len(ops)} ops)")


def check_stripped_checkout() -> None:
    """Without the program's sources the benchmark must fail, printing no result."""
    stripped = run.OUT / "stripped"
    shutil.rmtree(stripped, ignore_errors=True)
    stripped.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", stripped)
    here = Path(__file__).resolve().parent
    shutil.copytree(here, stripped / here.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "equiv", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=stripped, capture_output=True, text=True, timeout=180, check=False,
    )
    shutil.rmtree(stripped)
    assert proc.returncode != 0, "stripped checkout exited 0"
    assert '"correct"' not in proc.stdout, "stripped checkout printed a result"
    print("stripped checkout: ok (exit %d)" % proc.returncode)


def main() -> int:
    for workload in corpus.WORKLOADS:
        check_workload(workload)
    check_stripped_checkout()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
