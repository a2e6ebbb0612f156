"""fuzzmin benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload equiv --seed 1 --seconds 25 --trace 0

Run from anywhere; the package is imported from the checkout's `src/`.
The workload's ops run one after another from a single caller (a closed
loop, no threads).  Each op is one `fuzzmin` command run in-process through
`fuzzmin.cli.main(argv)` on documents written during set-up, with stdout
and stderr captured; FUZZMIN_BUDGET is left as the environment has it, so
default budgets apply unless it is set.

The work of a run is fixed: the op phase runs the corpus twice, in the same
order, whatever --seconds says; run_seconds in BENCHMARK.json is about the
time the two passes take.  Op times are reference milliseconds (clock.py):
wall time corrected for the machine's speed at the time.  Latency quantiles
and ops_per_s are taken over every execution of the two passes.  Every
output is then checked (referee.py); a nonzero exit code or a wrong output
counts as a failed op.

setup_s is the median over SETUP_REPEATS set-ups, each in a fresh
interpreter from process start until the ops are ready (corpus.prepare).

--trace 0 prints the end-to-end metrics.  --trace 1 runs untraced and
traced passes of the same ops, alternating, and prints the per-layer metrics
(spans.py) with the tracing overhead.  Either way the last stdout line is
one JSON object; per-op rows, and spans when traced, go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import clock
import corpus
import referee
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
PINS = HERE / "pins.json"
PASSES = 2
SETUP_REPEATS = 7


def set_up(workload: str, seed: int, work: Path, limit: int | None = None):
    """The benchmark's set-up in this process, then the referees' needs:
    (fz, ops, argvs, pins)."""
    fz, ops, argvs = corpus.prepare(workload, seed, work, limit)
    importlib.import_module("fuzzmin.oracles")
    pins = json.loads(PINS.read_text(encoding="utf-8"))
    return fz, ops, argvs, pins


def fresh_set_up_ms(speed: clock.SpeedClock, workload: str, seed: int, work: Path) -> float:
    """One set-up in a fresh interpreter, process start to exit, in reference ms."""
    code = (f"import sys; from pathlib import Path; sys.path.insert(0, {str(HERE)!r}); "
            f"import corpus; corpus.prepare({workload!r}, {seed}, Path({str(work)!r}))")
    shutil.rmtree(work, ignore_errors=True)
    timing, proc = speed.call(
        lambda: subprocess.run([sys.executable, "-c", code], capture_output=True,
                               text=True, check=False),
        net=False)
    shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up failed\n{proc.stderr}")
    return speed.reference_ms([timing])[0]


def run_op(fz, argv: list[str], speed: clock.SpeedClock):
    """One fuzzmin command: (timing, exit code, stdout); see SpeedClock.call."""
    out, err = io.StringIO(), io.StringIO()

    def command() -> int:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                return fz.cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                return exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # a traceback is a failed op, not a dead run
                print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
                return -1

    timing, code = speed.call(command)
    return timing, code, out.getvalue()


def run_pass(fz, argvs, speed: clock.SpeedClock, tracer: spans.Tracer | None = None):
    """Every op once, in order; returns [(latency in reference ms, exit, stdout)]."""
    results = []
    if tracer is not None:
        tracer.install()
    try:
        for k, argv in enumerate(argvs):
            if tracer is not None:
                tracer.begin_op(k)
            results.append(run_op(fz, argv, speed))
            if tracer is not None:
                tracer.end_op()
    finally:
        if tracer is not None:
            tracer.remove()
    latencies = speed.reference_ms([timing for timing, _, _ in results])
    return [(ms, code, stdout) for ms, (_, code, stdout) in zip(latencies, results)]


def traced_run(fz, argvs, speed: clock.SpeedClock):
    """Untraced and traced passes of the same ops, alternating, PASSES each.

    Returns every pass, the per-layer metrics with the tracing overhead
    (traced / untraced op-phase time), and the tracer holding the spans of
    the traced passes."""
    tracer = spans.Tracer(fz)
    untraced, traced = [], []
    for _ in range(PASSES):
        untraced.append(run_pass(fz, argvs, speed))
        traced.append(run_pass(fz, argvs, speed, tracer))
    metrics = spans.layer_metrics(tracer, PASSES, speed)
    metrics["trace.overhead"] = (op_phase_ms(traced) / op_phase_ms(untraced), "ratio")
    return untraced + traced, metrics, tracer


def op_phase_ms(passes) -> float:
    return sum(ms for results in passes for ms, _, _ in results)


def check_passes(fz, ops, pins, passes):
    """Referee every op of every pass; returns [(pass, k, latency, exit, reason)]."""
    rows = []
    seen: dict[tuple[int, int, str], str | None] = {}
    for p, results in enumerate(passes):
        for k, (latency, code, stdout) in enumerate(results):
            key = (k, code, stdout)
            if key not in seen:
                seen[key] = referee.check(fz, ops[k], code, stdout, pins)
            rows.append((p, k, latency, code, seen[key]))
    return rows


def write_rows(path: Path, ops, rows) -> None:
    with path.open("w", encoding="utf-8") as out:
        out.write("pass\tposition\tinstance\tclass\tlatency_ms\texit\tcheck\n")
        for p, k, latency, code, reason in rows:
            out.write(f"{p}\t{k}\t{ops[k].id}\t{ops[k].cls}\t{latency:.4f}"
                      f"\t{code}\t{reason or 'ok'}\n")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def end_to_end(setup_s: float, latencies: list[float],
               rss_mb: float) -> dict[str, tuple[float, str]]:
    """End-to-end figures from the latencies in ms of every op execution:
    name -> (value, unit).

    ops_per_s is executions / the op-phase time they add up to, the rate of
    one closed-loop caller."""
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    return {
        "setup_s": (setup_s, "s"),
        "op_p50_ms": (deciles[4], "ms"),
        "op_p90_ms": (deciles[8], "ms"),
        "ops_per_s": (1000 * len(latencies) / sum(latencies), "1/s"),
        "peak_rss_mb": (rss_mb, "MiB"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"docs-{tag}-{os.getpid()}"
    speed = clock.SpeedClock()
    try:
        fz, ops, argvs, pins = set_up(args.workload, args.seed, work)
        if args.trace:
            passes, metrics, tracer = traced_run(fz, argvs, speed)
            tracer.write(OUT / f"{tag}.spans.jsonl")
        else:
            fresh = work.with_name(work.name + "-fresh")
            setup_ms = statistics.median(
                fresh_set_up_ms(speed, args.workload, args.seed, fresh)
                for _ in range(SETUP_REPEATS))
            passes = [run_pass(fz, argvs, speed) for _ in range(PASSES)]
            latencies = [ms for results in passes for ms, _, _ in results]
            metrics = end_to_end(setup_ms / 1000, latencies, peak_rss_mb())
        rows = check_passes(fz, ops, pins, passes)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    write_rows(OUT / f"{tag}.ops.tsv", ops, rows)

    failed = sum(1 for row in rows if row[4] is not None)
    for p, k, _, code, reason in rows:
        if reason is not None:
            print(f"FAILED pass {p} op {k} {ops[k].id}: {reason}")
    print(f"{args.workload}: {len(rows)} ops in {len(passes)} passes, "
          f"{failed} failed, fail_ratio {failed / len(rows):.4f}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(rows),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
