"""Run the benchmark over workloads and seeds and summarise the spread.

    python3 perfbench/sweep.py                      # every workload, seed 1
    python3 perfbench/sweep.py --seeds 1-10 --out perfbench/out/sweep.json

Each run is its own process (`run.py`), one after another.  For every
workload and metric this prints the median over the seeds with its unit,
the op count, and the spread: the distance between the first and third
quartiles (`statistics.quantiles(values, n=4)`) as a share of the median,
which is how the benchmark's bounds in BENCHMARK.json are judged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import corpus

RUN = Path(__file__).resolve().parent / "run.py"
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run's result line, with its wall time added as wall_s."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - start
    return result


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(corpus.WORKLOADS))
    parser.add_argument("--seeds", default="1", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=float,
                        default=json.loads(BENCHMARK.read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="write every run's result as JSON")
    args = parser.parse_args()

    summary = {}
    for workload in args.workloads.split(","):
        results = [run_once(workload, seed, args.seconds, args.trace)
                   for seed in _seeds(args.seeds)]
        ops = [r["attempted"] for r in results]
        failed = sum(r["failed"] for r in results)
        walls = [r["wall_s"] for r in results]
        print(f"{workload}: {len(results)} runs, ops per run {min(ops)}-{max(ops)}, "
              f"failed {failed}, all correct {all(r['correct'] for r in results)}, "
              f"wall {min(walls):.1f}-{max(walls):.1f} s")
        rows = {}
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            rows[name] = {"unit": first["unit"], "median": statistics.median(values),
                          "spread": spread(values), "values": values}
            print(f"  {name:45s} {rows[name]['median']:14.6g} {first['unit']:6s}"
                  f" spread {rows[name]['spread']:.4f}")
        summary[workload] = {"ops": ops, "failed": failed, "wall_s": walls, "metrics": rows}
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
