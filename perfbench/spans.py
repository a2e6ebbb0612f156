"""Per-layer tracing from outside the program.

For the duration of a traced pass, every binding of the traced public
functions in the `fuzzmin.*` module namespaces is replaced by a wrapper that
records a span: name, start, end, parent span and op id.  A wrapper keeps
the call's arguments and result only until the op ends; the work counts are
then derived from them, outside the op's timed call.  Spans stay in memory
and are written out when the run ends.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

# (module, function) pairs that are traced, in fuzzmin's layer order.
TRACED = (
    ("cli", "main"),
    ("formats", "parse_automaton"),
    ("formats", "parse_system"),
    ("formats", "render_automaton"),
    ("automaton", "equivalent_fixpoint"),
    ("equations", "solve_intervals"),
    ("equations", "polynomial_eq_solutions"),
    ("chain", "cross_intersect"),
    ("minimization", "cost_estimate"),
    ("minimization", "decide_k"),
)


@dataclass
class Span:
    name: str
    op: int
    parent: int
    start: float = 0.0
    end: float = 0.0
    counts: dict[str, int] = field(default_factory=dict)
    call: tuple[Any, ...] | None = None  # (args, result) until the op ends

    @property
    def duration(self) -> float:
        return self.end - self.start


def _fixpoint_counts(fz, args, result) -> dict[str, int]:
    return {"vectors": len(result.reached), "levels": result.stabilization_index}


def _cross_counts(fz, args, result) -> dict[str, int]:
    s1, s2 = args
    return {
        "pairs": len(s1) * len(s2),
        "kept": len(result),
        "live": sum(1 for v in result if v.is_nonempty),
    }


def _size_counts(fz, args, result) -> dict[str, int]:
    return {"vectors": len(result)}


def _decide_counts(fz, args, result) -> dict[str, int]:
    """grid = |V|^var_count; scan_len = the witness's lexicographic grid
    position + 1, or the whole grid when the search comes back empty."""
    space = fz.build_candidate_space(args[0])
    base = len(space.values)
    grid = base**space.var_count
    if result is None:
        return {"grid": grid, "scan_len": grid, "witnesses": 0}
    position = 0
    for value in result.assignment:
        position = position * base + space.values.index(value)
    return {"grid": grid, "scan_len": position + 1, "witnesses": 1}


_COUNTERS: dict[str, Callable[..., dict[str, int]]] = {
    "automaton.equivalent_fixpoint": _fixpoint_counts,
    "equations.solve_intervals": _size_counts,
    "equations.polynomial_eq_solutions": _size_counts,
    "chain.cross_intersect": _cross_counts,
    "minimization.decide_k": _decide_counts,
}


class Tracer:
    """Records spans while installed; `install` and `remove` bracket a pass."""

    def __init__(self, fz) -> None:
        self.fz = fz
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple[Any, str, Any]] = []
        self._op_first = 0

    def _wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        keep = name in _COUNTERS

        def traced(*args, **kwargs):
            span = Span(name, self.op, self._stack[-1] if self._stack else -1)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
            if keep:
                span.call = (args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if n == "fuzzmin" or n.startswith("fuzzmin.")]
        for module_name, attr in TRACED:
            name = f"{module_name}.{attr}"
            original = getattr(sys.modules[f"fuzzmin.{module_name}"], attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, value))
                        setattr(module, key, wrapper)

    def remove(self) -> None:
        for module, key, value in reversed(self._restore):
            setattr(module, key, value)
        self._restore.clear()

    def begin_op(self, op: int) -> None:
        self.op = op
        self._op_first = len(self.spans)

    def end_op(self) -> None:
        """Derive the op's counts and drop the arguments and results it kept."""
        for span in self.spans[self._op_first :]:
            if span.call is not None:
                span.counts = _COUNTERS[span.name](self.fz, *span.call)
                span.call = None

    def self_times(self) -> list[float]:
        """Span duration minus the time its direct child spans cover."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.duration
        return own

    def write(self, path: Path) -> None:
        own = self.self_times()
        with path.open("w", encoding="utf-8") as out:
            for i, s in enumerate(self.spans):
                row = {"id": i, "name": s.name, "op": s.op, "parent": s.parent,
                       "start": s.start, "end": s.end, "self_s": own[i], **s.counts}
                out.write(json.dumps(row) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, passes: int, speed) -> dict[str, tuple[float, str]]:
    """Per-layer figures per pass, over the spans of `passes` traced passes of
    the same ops: name -> (value, unit).  Times are in reference seconds,
    converted with `speed` (a clock.SpeedClock that timed the passes)."""
    factors = [speed.speed_factor(s.start, s.end) for s in tracer.spans]
    busy: dict[str, float] = {}
    calls: dict[str, int] = {}
    totals: dict[tuple[str, str], int] = {}
    for s, factor in zip(tracer.spans, factors):
        busy[s.name] = busy.get(s.name, 0.0) + s.duration * factor / passes
        calls[s.name] = calls.get(s.name, 0) + 1
        for key, value in s.counts.items():
            totals[s.name, key] = totals.get((s.name, key), 0) + value
    calls = {name: n // passes for name, n in calls.items()}
    totals = {key: n // passes for key, n in totals.items()}
    own = tracer.self_times()

    def total(name: str, key: str) -> int:
        return totals.get((name, key), 0)

    # largest interval set a solve held: its result, or any set built by its
    # direct children (a per-equation family or a running intersection)
    peak = 0
    for s in tracer.spans:
        if s.name == "equations.solve_intervals" and s.counts:
            peak = max(peak, s.counts["vectors"])
        parent = tracer.spans[s.parent].name if s.parent >= 0 else ""
        if parent == "equations.solve_intervals" and s.counts:
            peak = max(peak, s.counts.get("kept", s.counts.get("vectors", 0)))

    fix, solve, poly = ("automaton.equivalent_fixpoint", "equations.solve_intervals",
                        "equations.polynomial_eq_solutions")
    cross, decide = "chain.cross_intersect", "minimization.decide_k"
    levels = [s.counts["levels"] for s in tracer.spans if s.name == fix and s.counts]
    main_self = sum(o * factor for s, o, factor in zip(tracer.spans, own, factors)
                    if s.name == "cli.main") / passes
    return {
        f"{fix}.busy_s": (busy.get(fix, 0.0), "s"),
        f"{fix}.calls": (calls.get(fix, 0), "count"),
        f"{fix}.vectors": (total(fix, "vectors"), "count"),
        f"{fix}.levels_max": (max(levels, default=0), "count"),
        f"{fix}.us_per_vector": (1e6 * _ratio(busy.get(fix, 0.0), total(fix, "vectors")),
                                 "us"),
        f"{solve}.busy_s": (busy.get(solve, 0.0), "s"),
        f"{solve}.calls": (calls.get(solve, 0), "count"),
        f"{solve}.peak_vectors": (peak, "count"),
        f"{poly}.busy_s": (busy.get(poly, 0.0), "s"),
        f"{poly}.vectors": (total(poly, "vectors"), "count"),
        f"{cross}.busy_s": (busy.get(cross, 0.0), "s"),
        f"{cross}.pairs": (total(cross, "pairs"), "count"),
        f"{cross}.kept": (total(cross, "kept"), "count"),
        f"{cross}.live": (total(cross, "live"), "count"),
        f"{cross}.live_ratio": (_ratio(total(cross, "live"), total(cross, "pairs")),
                                "ratio"),
        f"{decide}.busy_s": (busy.get(decide, 0.0), "s"),
        f"{decide}.calls": (calls.get(decide, 0), "count"),
        f"{decide}.grid": (total(decide, "grid"), "count"),
        f"{decide}.scan_len": (total(decide, "scan_len"), "count"),
        f"{decide}.us_per_scanned": (1e6 * _ratio(busy.get(decide, 0.0),
                                                  total(decide, "scan_len")), "us"),
        f"{decide}.witnesses": (total(decide, "witnesses"), "count"),
        "formats.parse_automaton.busy_s": (busy.get("formats.parse_automaton", 0.0), "s"),
        "formats.parse_system.busy_s": (busy.get("formats.parse_system", 0.0), "s"),
        "formats.render_automaton.busy_s": (busy.get("formats.render_automaton", 0.0), "s"),
        "minimization.cost_estimate.busy_s": (
            busy.get("minimization.cost_estimate", 0.0), "s"),
        "cli.main.self_s": (main_self, "s"),
    }
