"""Fuzzy automata over finite chains: equivalence, equation solving, and
exact state minimization.

The max-min semantics makes every question here finite: language values of
an n-state automaton can only be values that appear in the automaton, so
equivalence closes off after boundedly many suffix vectors and a k-state
equivalent, when one exists, can be found on a finite candidate grid.  The
package provides those decision procedures, the interval-based solver for
the systems of fuzzy polynomial equations they reduce to, and a CLI with
bit-exact document formats.

The names below are the documented surface; everything else stays
importable from its own module.
"""

from .automaton import (
    FuzzyAutomaton,
    FuzzyMatrix,
    bounded_counterexample,
    equivalence_length_bound,
    equivalent_fixpoint,
    k_equivalent,
    language_value,
)
from .chain import Chain
from .equations import (
    Equation,
    EquationSystem,
    Monomial,
    PointAssignment,
    Polynomial,
    Relation,
    eval_polynomial,
    satisfies,
    solve_intervals,
    solve_points,
)
from .errors import BudgetExceededError, DocumentError, NonBooleanValueError
from .formats import parse_automaton, parse_system, render_automaton, render_system
from .generate import gen_automaton, gen_system, random_automaton, random_chain_labels
from .minimization import (
    MinimizeInstance,
    build_candidate_space,
    decide_k,
    decode_candidate,
    minimize,
    nfa_view,
    pad_states,
)

__version__ = "0.1.0"

__all__ = [
    # types
    "Chain",
    "FuzzyMatrix",
    "FuzzyAutomaton",
    "MinimizeInstance",
    "Monomial",
    "Polynomial",
    "Relation",
    "Equation",
    "EquationSystem",
    "PointAssignment",
    # errors
    "BudgetExceededError",
    "DocumentError",
    "NonBooleanValueError",
    # documents
    "parse_automaton",
    "parse_system",
    "render_automaton",
    "render_system",
    # equivalence
    "equivalent_fixpoint",
    "k_equivalent",
    "bounded_counterexample",
    "equivalence_length_bound",
    "language_value",
    # solving
    "solve_intervals",
    "solve_points",
    "eval_polynomial",
    "satisfies",
    # minimization
    "decide_k",
    "minimize",
    "nfa_view",
    "build_candidate_space",
    "decode_candidate",
    "pad_states",
    # generation
    "gen_automaton",
    "gen_system",
    "random_automaton",
    "random_chain_labels",
    "__version__",
]
