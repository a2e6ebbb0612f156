"""Seeded generators: determinism and parameter validation."""

from __future__ import annotations

import random

import pytest

from fuzzmin import (
    gen_automaton,
    gen_system,
    parse_automaton,
    parse_system,
    render_automaton,
    render_system,
)
from fuzzmin.generate import alphabet_of, random_chain_labels


def test_same_seed_same_document():
    a = render_automaton(gen_automaton(42, 3, 2, 4))
    b = render_automaton(gen_automaton(42, 3, 2, 4))
    assert a == b
    s = render_system(gen_system(42, 3, 2, 2, 4))
    assert s == render_system(gen_system(42, 3, 2, 2, 4))
    assert render_automaton(gen_automaton(43, 3, 2, 4)) != a


def test_generated_documents_parse_back():
    a = parse_automaton(render_automaton(gen_automaton(7, 2, 3, 5)))
    assert a.n == 2
    assert a.alphabet == ("a", "b", "c")
    assert len(a.chain) == 5

    s = parse_system(render_system(gen_system(7, 4, 3, 2, 3)))
    assert s.n_vars == 4
    assert len(s.equations) == 3
    assert all(len(eq.lhs.monomials) <= 2 for eq in s.equations)


def test_two_point_chain_means_boolean_weights():
    a = parse_automaton(render_automaton(gen_automaton(5, 1, 1, 2)))
    assert a.chain.labels == ("0", "1")


def test_chain_label_pool():
    rng = random.Random(0)
    assert random_chain_labels(rng, 2) == ("0", "1")
    full = random_chain_labels(rng, 21)
    assert full[0] == "0" and full[-1] == "1"
    assert len(full) == 21
    from fractions import Fraction

    fr = [Fraction(x) for x in full]
    assert fr == sorted(fr)
    for bad in (1, 22):
        with pytest.raises(ValueError):
            random_chain_labels(rng, bad)


def test_alphabet_names():
    assert alphabet_of(3) == ("a", "b", "c")
    assert len(alphabet_of(26)) == 26
    for bad in (0, 27):
        with pytest.raises(ValueError):
            alphabet_of(bad)


def test_bad_parameters():
    with pytest.raises(ValueError):
        gen_automaton(0, 0, 1, 2)
    with pytest.raises(ValueError):
        gen_automaton(0, 1, 0, 2)
    with pytest.raises(ValueError):
        gen_system(0, 0, 1, 1, 2)
    with pytest.raises(ValueError):
        gen_system(0, 1, 0, 1, 2)
    with pytest.raises(ValueError):
        gen_system(0, 1, 1, 0, 2)
