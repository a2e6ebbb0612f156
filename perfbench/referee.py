"""Correctness referees and output pins for benchmark ops.

Each check takes an op's instance and its captured stdout and returns None
when the output is right, or a one-line reason when it is not.  Referees run
outside the timed region and lean on independent paths: the matrix-pair BFS
for counterexamples and witnesses, the point grid for solvability, and the
brute-force NFA minimum from `fuzzmin.oracles`.

Pins are digests of the outputs recorded at one commit (pins.json, written
by record_pins.py).  They are taken over a relabelling-invariant form of the
output (verdict and counterexample as symbol indices; witness as ranks), so
one pin serves the instance under every run seed.  The stabilization index
and the solve box list are deliberately not pinned.
"""

from __future__ import annotations

import hashlib
import itertools
import re

_EQUIVALENT = re.compile(r"equivalent \(stabilized at l=\d+\)\n")
_NOT_EQUIVALENT = re.compile(r"not equivalent \(counterexample: (.*)\)\n")
_INTERVAL = re.compile(r"\[([^,\]]+),([^\]]+)\]")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def parse_equiv(a, stdout: str) -> tuple[bool, tuple[int, ...] | None]:
    """(equivalent, counterexample) from `fuzzmin equiv` output."""
    if _EQUIVALENT.fullmatch(stdout):
        return True, None
    match = _NOT_EQUIVALENT.fullmatch(stdout)
    if match is None:
        raise ValueError(f"unrecognised equiv output {stdout[:60]!r}")
    text = match.group(1)
    return False, () if text == "λ" else a.word_from_names(text.split())


def equiv_canonical(a, stdout: str) -> str:
    equivalent, cex = parse_equiv(a, stdout)
    return "equivalent" if equivalent else "not equivalent: " + ",".join(map(str, cex))


def minimize_canonical(fz, a, stdout: str) -> str:
    """'self' when the input came back unchanged, else the witness's ranks."""
    if stdout == fz.render_automaton(a):
        return "self"
    w = fz.parse_automaton(stdout)
    return f"n={w.n} pi={w.pi.data} eta={w.eta.data} delta={[m.data for m in w.delta]}"


def canonical(fz, op, stdout: str) -> str | None:
    """Relabelling-invariant form of a pinned output; None for unpinned ops."""
    if op.command == "equiv":
        return equiv_canonical(op.parts[0], stdout)
    if op.command == "minimize":
        return minimize_canonical(fz, op.parts[0], stdout)
    return None


def check_equiv(fz, op, stdout: str) -> str | None:
    a, b = op.parts
    equivalent, cex = parse_equiv(a, stdout)
    if op.expect is not None and equivalent != op.expect:
        return f"verdict {equivalent}, built as {op.expect}"
    if cex is not None:
        if fz.language_value(a, cex) == fz.language_value(b, cex):
            return "counterexample gives equal values"
        least = fz.bounded_counterexample(a, b, len(cex))
        if least != cex:
            return f"counterexample {cex} is not the least ({least})"
    return None


def _boxes(chain, stdout: str) -> list[list[tuple[int, int]]]:
    boxes = []
    for line in stdout.splitlines():
        coords = [(chain.rank_of(lo), chain.rank_of(hi)) for lo, hi in _INTERVAL.findall(line)]
        if not coords or not line.startswith("("):
            raise ValueError(f"unrecognised box line {line[:60]!r}")
        boxes.append(coords)
    return boxes


def check_solve(fz, op, stdout: str) -> str | None:
    (system,) = op.parts
    chain = system.chain
    point = fz.solve_points(system)
    if stdout == "unsolvable\n":
        if op.expect:
            return "planted system reported unsolvable"
        if point is not None:
            return "reported unsolvable, but solve_points finds a point"
        return None
    if point is None:
        return "boxes printed, but solve_points finds no point"
    boxes = _boxes(chain, stdout)
    if not boxes:
        return "neither boxes nor 'unsolvable' printed"
    # the boxes cover every solution, so they must hold the point found
    ranks = point.ranks()
    if not any(len(coords) == len(ranks) and
               all(lo <= r <= hi for (lo, hi), r in zip(coords, ranks)) for coords in boxes):
        return f"no box holds the solution {point.labels()}"
    for coords in boxes:
        if len(coords) != system.n_vars:
            return f"box of dimension {len(coords)}"
        for corner in itertools.product(*({lo, hi} for lo, hi in coords)):
            values = fz.PointAssignment(tuple(chain[r] for r in corner))
            if not fz.satisfies(system, values):
                return f"box corner {[chain.label(r) for r in corner]} fails the system"
    return None


def _ranks(a) -> set[int]:
    out = set(a.pi.data) | set(a.eta.data)
    for m in a.delta:
        out.update(m.data)
    return out


def check_minimize(fz, op, stdout: str) -> str | None:
    (a,) = op.parts
    w = fz.parse_automaton(stdout)
    if fz.render_automaton(w) != stdout:
        return "witness document is not canonical"
    if w.chain != a.chain or w.alphabet != a.alphabet:
        return "witness on another chain or alphabet"
    if not _ranks(w) <= _ranks(a):
        return "witness uses values absent from the input"
    if w.n >= a.n and stdout != fz.render_automaton(a):
        return f"{w.n}-state witness is neither smaller nor the input"
    if not fz.k_equivalent(a, w, fz.equivalence_length_bound(a, w)):
        return "witness is not equivalent at the conclusive length"
    if op.cls == "boolean" and w.n != fz.oracles.min_nfa_states_brute(a):
        return "state count differs from the brute-force NFA minimum"
    return None


_CHECKS = {"equiv": check_equiv, "solve": check_solve, "minimize": check_minimize}


def check(fz, op, exit_code: int, stdout: str, pins: dict[str, str] | None) -> str | None:
    """None when the op succeeded and its output is right, else why not.

    With pins None the output is refereed but not compared with a pin."""
    if exit_code != 0:
        return f"exit {exit_code}"
    try:
        reason = _CHECKS[op.command](fz, op, stdout)
        if reason is None:
            form = canonical(fz, op, stdout)
            if pins is not None and form is not None and digest(form) != pins.get(op.id):
                reason = "output differs from its pin"
    except ValueError as exc:  # DocumentError is a ValueError
        reason = f"unreadable output: {exc}"
    return reason
