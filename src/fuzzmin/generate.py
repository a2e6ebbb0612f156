"""Seeded random instances for property suites and the gen subcommand.

Determinism contract: identical seed and parameters produce identical
documents.  Every entry is drawn uniformly from the declared chain; chains
are built from 0, 1, and a fixed pool of twentieths so labels stay exact.
"""

from __future__ import annotations

import random
import string
from fractions import Fraction

from .automaton import FuzzyAutomaton, FuzzyMatrix
from .chain import Chain
from .equations import Equation, EquationSystem, Monomial, Polynomial, Relation

_INTERIOR = tuple(f"0.{i * 5:02d}".rstrip("0") for i in range(1, 20))


def random_chain_labels(rng: random.Random, size: int) -> tuple[str, ...]:
    if not 2 <= size <= len(_INTERIOR) + 2:
        raise ValueError(f"chain size must lie in [2, {len(_INTERIOR) + 2}]")
    interior = sorted(rng.sample(_INTERIOR, size - 2), key=Fraction)
    return ("0", *interior, "1")


def random_automaton(
    rng: random.Random, chain: Chain, alphabet: tuple[str, ...], n: int
) -> FuzzyAutomaton:
    """Uniform entries over the chain; rng state advances deterministically."""
    size = len(chain)
    pi = FuzzyMatrix(chain, 1, n, tuple(rng.randrange(size) for _ in range(n)))
    eta = FuzzyMatrix(chain, n, 1, tuple(rng.randrange(size) for _ in range(n)))
    delta = tuple(
        FuzzyMatrix(chain, n, n, tuple(rng.randrange(size) for _ in range(n * n)))
        for _ in alphabet
    )
    return FuzzyAutomaton(chain, alphabet, pi, eta, delta)


def random_system(
    rng: random.Random,
    chain: Chain,
    n_vars: int,
    n_equations: int,
    max_monomials: int,
) -> EquationSystem:
    if n_equations < 1:
        raise ValueError("need at least one equation")
    if max_monomials < 1:
        raise ValueError("need at least one monomial per equation")
    equations = []
    for _ in range(n_equations):
        monomials = []
        for _ in range(rng.randint(1, max_monomials)):
            width = rng.randint(1, n_vars)
            monomials.append(Monomial(tuple(rng.sample(range(n_vars), width))))
        rhs = chain[rng.randrange(len(chain))]
        equations.append(Equation(Polynomial(tuple(monomials)), Relation.EQ, rhs))
    return EquationSystem(chain, n_vars, tuple(equations))


def alphabet_of(n_symbols: int) -> tuple[str, ...]:
    if not 1 <= n_symbols <= 26:
        raise ValueError("symbol count must lie in [1, 26]")
    return tuple(string.ascii_lowercase[:n_symbols])


def gen_automaton(
    seed: int, n_states: int, n_symbols: int, chain_size: int
) -> FuzzyAutomaton:
    if n_states < 1:
        raise ValueError("need at least one state")
    rng = random.Random(seed)
    chain = Chain(random_chain_labels(rng, chain_size))
    return random_automaton(rng, chain, alphabet_of(n_symbols), n_states)


def gen_system(
    seed: int, n_vars: int, n_equations: int, max_monomials: int, chain_size: int
) -> EquationSystem:
    if n_vars < 1:
        raise ValueError("need at least one variable")
    rng = random.Random(seed)
    chain = Chain(random_chain_labels(rng, chain_size))
    return random_system(rng, chain, n_vars, n_equations, max_monomials)

