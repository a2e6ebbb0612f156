"""Command-line front end.

Subcommands: eval, equiv, solve, decide-min, minimize, gen.  Witness automata
and generated instances are written to stdout as documents; diagnostics and
cost figures go to stderr.  Exit codes: 0 when a command reaches a
verdict (either way), 2 for input or usage problems, 3 when an enumeration
budget is exceeded.  The FUZZMIN_BUDGET environment variable replaces every
default ceiling; per-run --budget-* flags take precedence over it.

The argument parser is built on the first call of `main`, not at import, and
that one parser serves every later call in the process: parsing leaves it
unchanged, so a caller running many commands in-process pays for it once.
`main` hands the arguments after a subcommand's name straight to that
subcommand's parser; when the first argument names no subcommand, or the
subcommand leaves arguments over, the full parser parses them all, so every
usage error and help text is the full parser's.  A document is read in one
unbuffered binary read and decoded as UTF-8, with CR LF and a lone CR each
read as LF, as text mode reads them.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from typing import Sequence

from .automaton import (
    FuzzyAutomaton,
    Word,
    bounded_counterexample,
    equivalent_fixpoint,
    language_value,
    _length_bound_power,
)
from .equations import solve_intervals, solve_points
from .errors import (
    DEFAULT_CANDIDATE_BUDGET,
    DEFAULT_CELL_BUDGET,
    DEFAULT_VECTOR_BUDGET,
    BudgetExceededError,
    _size,
)
from .formats import _write_automaton, _write_system, parse_automaton, parse_system
from .generate import gen_automaton, gen_system
from .minimization import MinimizeInstance, cost_estimate, decide_k, minimize


def _read(path: str) -> str:
    """The file's text as text mode reads it: UTF-8, each CR LF and each
    lone CR read as LF.  One unbuffered read, then one decode."""
    with open(path, "rb", buffering=0) as f:
        text = f.readall().decode("utf-8")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def _budget(flag_value: int | None, default: int) -> int:
    if flag_value is not None:
        if flag_value < 1:
            raise ValueError("budgets must be positive")
        return flag_value
    raw = os.environ.get("FUZZMIN_BUDGET")
    if raw is not None:
        try:
            value = int(raw)
        except ValueError:
            raise ValueError(
                f"FUZZMIN_BUDGET must be an integer, got {raw!r}"
            ) from None
        if value < 1:
            raise ValueError("FUZZMIN_BUDGET must be positive")
        return value
    return default


def _cost_line(inst: MinimizeInstance) -> str:
    return f"cost k={inst.k}: candidates={cost_estimate(inst)}"


def _print_bound(a: FuzzyAutomaton, alpha: int, pairs: list[tuple[Word, Word]]) -> None:
    shown = " ".join(f"({a.format_word(x)}, {a.format_word(y)})" for x, y in pairs)
    print(f"lower bound {len(pairs)} at level {a.chain.label(alpha)}: {shown}", file=sys.stderr)


def _cmd_eval(args: argparse.Namespace) -> int:
    a = parse_automaton(_read(args.file))
    names = args.word.split()
    # λ alone is the empty word, as `format_word` prints it
    word = a.word_from_names([] if names == ["λ"] else names)
    print(language_value(a, word).label)
    return 0


def _cmd_equiv(args: argparse.Namespace) -> int:
    a1 = parse_automaton(_read(args.file1))
    a2 = parse_automaton(_read(args.file2))
    budget = _budget(args.budget_phi, DEFAULT_VECTOR_BUDGET)
    if args.oracle_bound:
        # equivalence_length_bound's d**e - 1, shown as a power past 4,300 digits
        d, e = _length_bound_power(a1, a2)
        cex = bounded_counterexample(a1, a2, d**e - 1, max_pairs=budget)
        if cex is None:
            print(f"equivalent (up to length {_size(d, e, less=1)})")
            return 0
    else:
        result = equivalent_fixpoint(a1, a2, max_vectors=budget)
        if result.equivalent:
            print(f"equivalent (stabilized at l={result.stabilization_index})")
            return 0
        cex = result.counterexample
    assert cex is not None
    print(f"not equivalent (counterexample: {a1.format_word(cex)})")
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    system = parse_system(_read(args.file))
    if args.mode == "points":
        witness = solve_points(
            system,
            max_candidates=_budget(args.budget_candidates, DEFAULT_CANDIDATE_BUDGET),
        )
        print("unsolvable" if witness is None else " ".join(witness.labels()))
        return 0
    solutions = solve_intervals(
        system,
        max_vectors=_budget(args.budget_phi, DEFAULT_VECTOR_BUDGET),
        _max_cells=_budget(None, DEFAULT_CELL_BUDGET),
    )
    if not solutions:
        print("unsolvable")
    for vec in solutions:
        print(vec)
    return 0


def _cmd_decide_min(args: argparse.Namespace) -> int:
    a = parse_automaton(_read(args.file))
    inst = MinimizeInstance(a, args.k)
    max_candidates = _budget(args.budget_candidates, DEFAULT_CANDIDATE_BUDGET)
    max_vectors = _budget(args.budget_phi, DEFAULT_VECTOR_BUDGET)
    print(_cost_line(inst), file=sys.stderr)
    witness = decide_k(
        inst,
        max_candidates=max_candidates,
        max_vectors=max_vectors,
        _on_bound=functools.partial(_print_bound, a),
    )
    if witness is None:
        print("empty")
    else:
        _write_automaton(witness.automaton, sys.stdout)
    return 0


def _cmd_minimize(args: argparse.Namespace) -> int:
    a = parse_automaton(_read(args.file))
    small = minimize(
        a,
        max_candidates=_budget(args.budget_candidates, DEFAULT_CANDIDATE_BUDGET),
        max_vectors=_budget(args.budget_phi, DEFAULT_VECTOR_BUDGET),
        on_k=lambda inst: print(_cost_line(inst), file=sys.stderr),
        _on_bound=functools.partial(_print_bound, a),
    )
    _write_automaton(small, sys.stdout)
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.shape == "automaton":
        n, s = args.states, args.symbols
        sizes, cells = (n, s), n * (2 + s * n)
        draw = functools.partial(gen_automaton, args.seed, n, s, args.chain_size)
        write = _write_automaton
    else:
        sizes = (args.equations, args.max_monomials, args.vars)
        cells = math.prod(sizes)
        draw = functools.partial(
            gen_system,
            args.seed, args.vars, args.equations, args.max_monomials, args.chain_size,
        )
        write = _write_system
    # the most weights or variable indices the document can hold, refused
    # before anything is drawn; sizes below 1 are left to the generator
    limit = _budget(None, DEFAULT_CELL_BUDGET)
    if min(sizes) > 0 and cells > limit:
        raise BudgetExceededError(cells, limit, "generated document cells")
    write(draw(), sys.stdout)
    return 0


def _budget_flags(p: argparse.ArgumentParser, *, candidates: bool = False) -> None:
    if candidates:
        p.add_argument(
            "--budget-candidates",
            type=int,
            metavar="N",
            help="max points of a grid searched point by point "
            "(max values of its point, for a grid of one point)",
        )
    p.add_argument(
        "--budget-phi",
        type=int,
        metavar="N",
        help="max stored vectors (cut subsets, forward vector pairs, interval "
        "solutions) and fooling-set search units per cut",
    )


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="fuzzmin",
        description="Equivalence, equation solving, and exact state "
        "minimization for fuzzy automata over finite chains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="value of a word under an automaton")
    p.add_argument("file")
    p.add_argument(
        "word", help="whitespace-separated symbol names; '' or λ is the empty word"
    )
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("equiv", help="decide language equality of two automata")
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument(
        "--oracle-bound",
        action="store_true",
        help="use the bounded word check at its conclusive length "
        "instead of the fixpoint",
    )
    _budget_flags(p)
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser("solve", help="solve a system of fuzzy polynomial equations")
    p.add_argument("file")
    p.add_argument("--mode", choices=("intervals", "points"), default="intervals")
    _budget_flags(p, candidates=True)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("decide-min", help="find a k-state equivalent or report empty")
    p.add_argument("file")
    p.add_argument("k", type=int)
    _budget_flags(p, candidates=True)
    p.set_defaults(func=_cmd_decide_min)

    p = sub.add_parser("minimize", help="smallest equivalent automaton")
    p.add_argument("file")
    _budget_flags(p, candidates=True)
    p.set_defaults(func=_cmd_minimize)

    p = sub.add_parser("gen", help="generate a random instance document")
    shape = p.add_subparsers(dest="shape", required=True)
    pa = shape.add_parser("automaton")
    pa.add_argument("--seed", type=int, default=0)
    pa.add_argument("--states", type=int, default=2)
    pa.add_argument("--symbols", type=int, default=2)
    pa.add_argument("--chain-size", type=int, default=3)
    pa.set_defaults(func=_cmd_gen)
    ps = shape.add_parser("system")
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--vars", type=int, default=3)
    ps.add_argument("--equations", type=int, default=2)
    ps.add_argument("--max-monomials", type=int, default=2)
    ps.add_argument("--chain-size", type=int, default=3)
    ps.set_defaults(func=_cmd_gen)
    return parser, sub.choices


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, commands = _build_parser()
    command = commands.get(argv[0]) if argv else None
    if command is not None:
        args, rest = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if command is None or rest:
        # no subcommand, or arguments left over: the full parser gives the
        # usage error, or the help, in its own words
        args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
