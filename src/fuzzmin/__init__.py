"""Fuzzy automata over finite chains: equivalence, equation solving, and
exact state minimization.

The max-min semantics makes every question here finite: language values of
an n-state automaton can only be values that appear in the automaton, so
equivalence closes off after boundedly many suffix vectors and a k-state
equivalent, when one exists, can be found on a finite candidate grid.  The
package provides those decision procedures, the interval-based solver for
the systems of fuzzy polynomial equations they reduce to, and a CLI with
bit-exact document formats.
"""

from .automaton import (
    DEFAULT_VECTOR_BUDGET,
    EquivalenceResult,
    FuzzyAutomaton,
    Word,
    bounded_counterexample,
    delta_word,
    equivalence_length_bound,
    equivalent,
    equivalent_fixpoint,
    k_equivalent,
    language_value,
)
from .chain import (
    Chain,
    ChainValue,
    Interval,
    IntervalVector,
    SolutionSet,
    cross_intersect,
    intersect,
    is_decimal_label,
)
from .equations import (
    DEFAULT_SOLUTION_CAP,
    Equation,
    EquationSystem,
    Monomial,
    PointAssignment,
    Polynomial,
    Relation,
    eval_polynomial,
    monomial_eq_solutions,
    monomial_le_solutions,
    polynomial_eq_solutions,
    rhs_values,
    satisfies,
    solve_intervals,
    solve_points,
)
from .errors import (
    BudgetExceededError,
    DocumentError,
    NonBooleanValueError,
)
from .formats import (
    parse_automaton,
    parse_instance,
    parse_system,
    render_automaton,
    render_instance,
    render_system,
)
from .generate import (
    gen_automaton,
    gen_automaton_document,
    gen_system,
    gen_system_document,
    random_automaton,
    random_chain_labels,
    random_system,
)
from .linalg import FuzzyMatrix, direct_sum, fold_maxmin_product, maxmin_product
from .minimization import (
    DEFAULT_CANDIDATE_BUDGET,
    CandidateAutomaton,
    CandidateSpace,
    CostEstimate,
    MinimizeInstance,
    NfaView,
    build_candidate_space,
    cost_estimate,
    decide_k,
    decode_candidate,
    minimize,
    nfa_view,
    pad_states,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "CandidateAutomaton",
    "CandidateSpace",
    "Chain",
    "ChainValue",
    "CostEstimate",
    "DEFAULT_CANDIDATE_BUDGET",
    "DEFAULT_SOLUTION_CAP",
    "DEFAULT_VECTOR_BUDGET",
    "DocumentError",
    "Equation",
    "EquationSystem",
    "EquivalenceResult",
    "FuzzyAutomaton",
    "FuzzyMatrix",
    "Interval",
    "IntervalVector",
    "MinimizeInstance",
    "Monomial",
    "NfaView",
    "NonBooleanValueError",
    "PointAssignment",
    "Polynomial",
    "Relation",
    "SolutionSet",
    "Word",
    "bounded_counterexample",
    "build_candidate_space",
    "cost_estimate",
    "cross_intersect",
    "decide_k",
    "decode_candidate",
    "delta_word",
    "direct_sum",
    "equivalence_length_bound",
    "equivalent",
    "equivalent_fixpoint",
    "eval_polynomial",
    "fold_maxmin_product",
    "gen_automaton",
    "gen_automaton_document",
    "gen_system",
    "gen_system_document",
    "intersect",
    "is_decimal_label",
    "k_equivalent",
    "language_value",
    "maxmin_product",
    "minimize",
    "monomial_eq_solutions",
    "monomial_le_solutions",
    "nfa_view",
    "pad_states",
    "parse_automaton",
    "parse_instance",
    "parse_system",
    "polynomial_eq_solutions",
    "random_automaton",
    "random_chain_labels",
    "random_system",
    "render_automaton",
    "render_instance",
    "render_system",
    "rhs_values",
    "satisfies",
    "solve_intervals",
    "solve_points",
    "__version__",
]
