"""Seeded corpora for the three benchmark workloads.

Each workload has a fixed base corpus: one pass of instances drawn once
from fixed generator seeds.  The run seed never changes which base instances
a pass holds.  It changes every document instead, through a relabelling
that keeps each instance's work the same:

* chain labels are redrawn, keeping the chain size, so every rank stays put;
* automaton states are permuted, each automaton of a pair on its own.

Equation-system variables keep their order: it decides which coordinate
tells interval vectors apart when they are sorted, and with it the cost of a
solve by up to half.

Languages, verdicts, least counterexamples, minimization witnesses (as
ranks) and the sizes of every stored vector set are invariant under these
maps, so a seed changes the inputs while runs still measure the same work.
The seed also shuffles the order of the ops within the pass.  Random draws of
the heavy classes would make the op mix, and with it every timing, swing
from seed to seed by more than the benchmark's bounds.

`prepare` is the benchmark's whole set-up: it imports fuzzmin from the
checkout's `src/`, builds one pass of ops and writes their documents.  The
other functions take the fuzzmin package as an argument (`fz`).
"""

from __future__ import annotations

import importlib
import itertools
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any

SRC = Path(__file__).resolve().parent.parent / "src"

WORKLOADS = ("equiv", "solve", "minimize")

# Each pass takes about 8-12 s on a 2-vCPU VM in its fast mode, so that two
# passes, their referees and seven set-ups fit a run.  The mixes put p50 and
# p90 inside groups of ops of similar cost, where timing noise moves them least.

# equiv: one cycle is 14 permutation pairs (1 at n=5, 10 at n=6, 3 at n=7) and
# 4 random pairs, so permutation pairs are 78% of the ops.  Most random pairs
# and the n=5 pairs cost less than the n=6 group, and about as many ops cost
# more (n=7 and a few random pairs), so p50 falls in the middle of the n=6
# group and p90 in the n=7 group.
EQUIV_CYCLES = 4
PERM_PER_CYCLE = ((5, 1), (6, 10), (7, 3))
RANDOM_PER_CYCLE = 4

# solve: (variables, planted, uniform) per pass, half planted in all.  Seven
# variables are left out: their tail reaches a minute.  The counts keep the
# pass within its time; planted6-02 alone (4.5 s) would be a third of it.
SOLVE_MIX = ((5, 40, 34), (6, 2, 6))
SOLVE_EQUATIONS = 5
SOLVE_MONOMIALS = 3
SOLVE_CHAIN = 5

# minimize: boolean NFAs from the criterion-6 family, fuzzy one-symbol draws,
# and one draw whose k=2 search scans the whole 3^12 grid.  FULL_SCAN_SEED is
# the first gen seed whose 3-state, 2-symbol, chain-3 automaton uses all three
# chain values and has no 2-state equivalent.  p50 falls among the cheap
# collapses and p90 among the boolean NFAs whose k=2 search scans the whole
# 2^12 grid.
BOOLEAN_DRAWS = 60
FUZZY_DRAWS = 40
FULL_SCAN_SEED = 5


@dataclass(frozen=True)
class Instance:
    """One op's input: library objects plus what construction guarantees.

    expect is True or False when the verdict is known by construction
    (equiv: equivalent; solve: planted, so solvable), None otherwise.
    """

    id: str
    cls: str
    command: str
    parts: tuple[Any, ...]
    expect: bool | None = None


def _matrix(fz, chain, rows, cols, data):
    return fz.FuzzyMatrix(chain, rows, cols, tuple(data))


def _perm_pair(fz, n: int, idx: int, broken: bool) -> Instance:
    """a = n-cycle, b = transposition, eta holds n distinct values, so the
    joint saturation stores n! vectors.  The partner is a padded copy, or the
    padded copy with one reachable final weight changed."""
    rng = random.Random(f"perm/{n}/{idx}")
    chain = fz.Chain(fz.random_chain_labels(rng, n + 1))
    top = len(chain) - 1
    swap = list(range(n))
    swap[0], swap[1] = 1, 0
    cycle = [top if j == (i + 1) % n else 0 for i in range(n) for j in range(n)]
    transposition = [top if j == swap[i] else 0 for i in range(n) for j in range(n)]
    eta = rng.sample(range(len(chain)), n)
    a = fz.FuzzyAutomaton(
        chain,
        ("a", "b"),
        _matrix(fz, chain, 1, n, [top] + [0] * (n - 1)),
        _matrix(fz, chain, n, 1, eta),
        (_matrix(fz, chain, n, n, cycle), _matrix(fz, chain, n, n, transposition)),
    )
    b = fz.pad_states(a, n + 1)
    if broken:
        state = rng.randrange(n)
        new_eta = list(b.eta.data)
        new_eta[state] = rng.choice([r for r in range(len(chain)) if r != eta[state]])
        b = fz.FuzzyAutomaton(
            chain, b.alphabet, b.pi, _matrix(fz, chain, n + 1, 1, new_eta), b.delta
        )
    kind = "broken" if broken else "equal"
    return Instance(f"perm{n}-{kind}-{idx:02d}", "perm", "equiv", (a, b), not broken)


def _random_pair(fz, idx: int, fresh: bool) -> Instance:
    """gen_automaton pair: 6-10 states, 3 symbols, chain 6, against a padded
    copy (equivalent) or a fresh draw on the same chain (verdict unknown)."""
    n = 6 + idx % 5
    a = fz.gen_automaton(1000 + idx, n, 3, 6)
    if fresh:
        rng = random.Random(f"fresh/{idx}")
        b = fz.random_automaton(rng, a.chain, a.alphabet, rng.randint(6, 10))
        return Instance(f"rand-fresh-{idx:02d}", "random", "equiv", (a, b), None)
    b = fz.pad_states(a, n + 1)
    return Instance(f"rand-padded-{idx:02d}", "random", "equiv", (a, b), True)


def _equiv_base(fz) -> list[Instance]:
    out = []
    for c in range(EQUIV_CYCLES):
        for n, count in PERM_PER_CYCLE:
            for j in range(count):
                out.append(_perm_pair(fz, n, count * c + j, broken=j % 2 == 1))
        for j in range(RANDOM_PER_CYCLE):
            out.append(_random_pair(fz, RANDOM_PER_CYCLE * c + j, fresh=j % 2 == 1))
    return out


def _planted_system(fz, n_vars: int, idx: int):
    """gen_system shape with each rhs replaced by the polynomial's value at a
    point drawn first, so the system is solvable."""
    base = fz.gen_system(10_000 * n_vars + idx, n_vars, SOLVE_EQUATIONS,
                         SOLVE_MONOMIALS, SOLVE_CHAIN)
    rng = random.Random(f"planted/{n_vars}/{idx}")
    chain = base.chain
    point = fz.PointAssignment(
        tuple(chain[rng.randrange(len(chain))] for _ in range(n_vars))
    )
    equations = tuple(
        fz.Equation(eq.lhs, eq.relation, fz.eval_polynomial(eq.lhs, point))
        for eq in base.equations
    )
    return fz.EquationSystem(chain, n_vars, equations)


def _solve_base(fz) -> list[Instance]:
    planted, uniform = [], []
    for n_vars, n_planted, n_uniform in SOLVE_MIX:
        planted += [
            Instance(f"planted{n_vars}-{i:02d}", "planted", "solve",
                     (_planted_system(fz, n_vars, i),), True)
            for i in range(n_planted)
        ]
        uniform += [
            Instance(f"uniform{n_vars}-{i:02d}", "uniform", "solve",
                     (fz.gen_system(10_000 * n_vars + 5_000 + i, n_vars, SOLVE_EQUATIONS,
                                    SOLVE_MONOMIALS, SOLVE_CHAIN),), None)
            for i in range(n_uniform)
        ]
    pairs = itertools.zip_longest(planted, uniform)
    return [inst for pair in pairs for inst in pair if inst is not None]


def _minimize_base(fz) -> list[Instance]:
    chain2 = fz.Chain(("0", "1"))
    codes = random.Random("minimize/boolean").sample(range(2**24), BOOLEAN_DRAWS)
    boolean = [
        Instance(
            f"boolean-{i:02d}", "boolean", "minimize",
            (fz.decode_candidate(chain2, ("a", "b"), 3, tuple(
                chain2.one if (code >> p) & 1 else chain2.zero for p in range(24))),),
        )
        for i, code in enumerate(codes)
    ]
    fuzzy = [
        Instance(f"fuzzy-{g:02d}", "fuzzy", "minimize", (fz.gen_automaton(g, 3, 1, 5),))
        for g in range(FUZZY_DRAWS)
    ]
    # three booleans per two fuzzy draws, so a short prefix covers both classes
    out = []
    for i in range(0, BOOLEAN_DRAWS, 3):
        out.extend(boolean[i : i + 3])
        out.extend(fuzzy[2 * i // 3 : 2 * i // 3 + 2])
    out.append(Instance(f"fullscan-{FULL_SCAN_SEED}", "full-scan", "minimize",
                        (fz.gen_automaton(FULL_SCAN_SEED, 3, 2, 3),)))
    return out


_BASES = {"equiv": _equiv_base, "solve": _solve_base, "minimize": _minimize_base}


def base_instances(fz, workload: str) -> list[Instance]:
    return _BASES[workload](fz)


def _relabel_automaton(fz, a, chain, perm: list[int]):
    """Same automaton on a relabelled chain; new state i is old state perm[i]."""
    n = a.n
    return fz.FuzzyAutomaton(
        chain,
        a.alphabet,
        _matrix(fz, chain, 1, n, (a.pi.data[perm[j]] for j in range(n))),
        _matrix(fz, chain, n, 1, (a.eta.data[perm[i]] for i in range(n))),
        tuple(
            _matrix(fz, chain, n, n,
                    (m.data[perm[i] * n + perm[j]] for i in range(n) for j in range(n)))
            for m in a.delta
        ),
    )


def _relabel_system(fz, s, chain):
    """Same system on a relabelled chain."""
    equations = tuple(
        fz.Equation(eq.lhs, eq.relation, chain[eq.rhs.rank]) for eq in s.equations
    )
    return fz.EquationSystem(chain, s.n_vars, equations)


def _shuffled(rng: random.Random, n: int) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def _relabel(fz, inst: Instance, rng: random.Random) -> Instance:
    first = inst.parts[0]
    chain = fz.Chain(fz.random_chain_labels(rng, len(first.chain)))
    if inst.command == "solve":
        parts = (_relabel_system(fz, first, chain),)
    else:
        parts = tuple(
            _relabel_automaton(fz, a, chain, _shuffled(rng, a.n)) for a in inst.parts
        )
    return Instance(inst.id, inst.cls, inst.command, parts, inst.expect)


def build(fz, workload: str, seed: int, limit: int | None = None) -> list[Instance]:
    """One pass of ops: the first `limit` base instances (all by default),
    relabelled and shuffled by the seed."""
    rng = random.Random(f"{workload}/{seed}")
    ops = [_relabel(fz, inst, rng) for inst in base_instances(fz, workload)[:limit]]
    rng.shuffle(ops)
    return ops


def render(fz, part) -> str:
    if isinstance(part, fz.EquationSystem):
        return fz.render_system(part)
    return fz.render_automaton(part)


def write_documents(fz, ops: list[Instance], directory: Path) -> list[list[str]]:
    """Write every op's documents and return the fuzzmin argv of each op."""
    directory.mkdir(parents=True, exist_ok=True)
    argvs = []
    for k, op in enumerate(ops):
        paths = []
        for d, part in enumerate(op.parts):
            path = directory / f"{k:03d}-{op.id}-{d}.json"
            path.write_text(render(fz, part), encoding="utf-8")
            paths.append(str(path))
        argvs.append([op.command, *paths])
    return argvs


def import_fuzzmin():
    """Import fuzzmin from the checkout's `src/`, and no other copy."""
    if not (SRC / "fuzzmin" / "__init__.py").is_file():
        raise SystemExit(f"error: no fuzzmin package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    fz = importlib.import_module("fuzzmin")
    if Path(fz.__file__).resolve().parent != SRC / "fuzzmin":
        raise SystemExit(f"error: fuzzmin imported from {fz.__file__}, not {SRC}")
    importlib.import_module("fuzzmin.cli")
    return fz


def prepare(workload: str, seed: int, directory: Path, limit: int | None = None):
    """Set-up: import fuzzmin, build one pass of ops and write their documents.

    Returns (fz, ops, argvs)."""
    fz = import_fuzzmin()
    ops = build(fz, workload, seed, limit)
    return fz, ops, write_documents(fz, ops, directory)
