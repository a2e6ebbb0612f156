"""Record the output pins in pins.json from the current fuzzmin.

    python3 perfbench/record_pins.py

Runs every pinned op (all of `equiv` and `minimize`) under two seeds,
requires each output to pass its referee and both seeds to give the same
relabelling-invariant form, and writes one digest per base instance.
Re-record only when a change to a verdict, counterexample or witness is
intended, and say so where the change is described.
"""

from __future__ import annotations

import importlib
import json
import shutil
import sys

import clock
import corpus
import referee
import run

PINNED = ("equiv", "minimize")
SEEDS = (0, 1)


def main() -> int:
    fz = corpus.import_fuzzmin()
    importlib.import_module("fuzzmin.oracles")
    speed = clock.SpeedClock()
    work = run.OUT / "pins-docs"
    pins: dict[str, str] = {}
    try:
        for workload in PINNED:
            forms: dict[str, str] = {}
            for seed in SEEDS:
                ops = corpus.build(fz, workload, seed)
                argvs = corpus.write_documents(fz, ops, work)
                for op, (_, code, stdout) in zip(ops, run.run_pass(fz, argvs, speed)):
                    reason = referee.check(fz, op, code, stdout, pins=None)
                    if reason is not None:
                        print(f"{op.id}: {reason}", file=sys.stderr)
                        return 1
                    form = referee.canonical(fz, op, stdout)
                    if forms.setdefault(op.id, form) != form:
                        print(f"{op.id}: output depends on the seed", file=sys.stderr)
                        return 1
            pins.update((key, referee.digest(form)) for key, form in forms.items())
            print(f"{workload}: {len(forms)} pins")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    run.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
