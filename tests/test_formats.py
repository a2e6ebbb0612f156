"""JSON document round trips and strict parsing."""

from __future__ import annotations

import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fuzzmin import (
    Chain,
    DocumentError,
    Equation,
    EquationSystem,
    Monomial,
    Polynomial,
    Relation,
    parse_automaton,
    parse_system,
    random_automaton,
    random_chain_labels,
    render_automaton,
    render_system,
)

from helpers import automaton

CH = Chain(("0", "0.5", "1"))
TINY = automaton(CH, "a", ["1"], ["0.5"], [[["0"]]])

TINY_DOC = """\
{
  "kind": "automaton",
  "chain": [
    "0",
    "0.5",
    "1"
  ],
  "alphabet": [
    "a"
  ],
  "n": 1,
  "pi": [
    "1"
  ],
  "eta": [
    "0.5"
  ],
  "delta": {
    "a": [
      "0"
    ]
  }
}
"""


def _tiny_system():
    p = Polynomial((Monomial((0, 1)),))
    return EquationSystem(CH, 2, (Equation(p, Relation.EQ, CH.value("0.5")),))


SYSTEM_DOC = """\
{
  "kind": "system",
  "chain": [
    "0",
    "0.5",
    "1"
  ],
  "n_vars": 2,
  "equations": [
    {
      "monomials": [
        [
          1,
          2
        ]
      ],
      "rhs": "0.5"
    }
  ]
}
"""


def test_rendered_automaton_is_byte_stable():
    assert render_automaton(TINY) == TINY_DOC


def test_rendered_system_is_byte_stable():
    assert render_system(_tiny_system()) == SYSTEM_DOC


def test_round_trips():
    assert parse_automaton(render_automaton(TINY)) == TINY
    assert parse_system(render_system(_tiny_system())) == _tiny_system()


def test_syntax_errors_carry_a_position():
    with pytest.raises(DocumentError) as info:
        parse_automaton('{"kind": "automaton",}')
    assert info.value.line == 1
    assert info.value.column is not None
    assert str(info.value).startswith("line 1, column ")


def test_root_must_be_an_object_of_the_right_kind():
    with pytest.raises(DocumentError, match="root must be an object"):
        parse_automaton("[1, 2]")
    with pytest.raises(DocumentError, match="expected a system document"):
        parse_system(TINY_DOC)
    with pytest.raises(DocumentError, match="kind=None"):
        parse_automaton("{}")


def test_unknown_and_missing_fields():
    with pytest.raises(DocumentError, match="missing field.*delta"):
        parse_automaton(TINY_DOC.replace('"delta"', '"gamma"'))
    with pytest.raises(DocumentError, match="unknown field.*note"):
        parse_automaton(TINY_DOC[:-3] + ',\n  "note": 1\n}\n')


def test_duplicate_keys_are_rejected():
    doc = TINY_DOC[:-3] + ',\n  "n": 1\n}\n'
    with pytest.raises(DocumentError, match="duplicate key 'n'"):
        parse_automaton(doc)


def test_values_must_live_on_the_declared_chain():
    with pytest.raises(DocumentError, match="value 0.65 is not in the chain"):
        parse_automaton(TINY_DOC.replace('"eta": [\n    "0.5"', '"eta": [\n    "0.65"'))
    with pytest.raises(DocumentError, match="decimal strings"):
        parse_automaton(TINY_DOC.replace('"eta": [\n    "0.5"', '"eta": [\n    0.5'))


def test_shapes_are_enforced():
    with pytest.raises(DocumentError, match="pi must be a list of 1 values"):
        parse_automaton(TINY_DOC.replace('"pi": [\n    "1"', '"pi": [\n    "1", "0"'))
    with pytest.raises(DocumentError, match="n must be a positive integer"):
        parse_automaton(TINY_DOC.replace('"n": 1', '"n": 0'))
    # booleans are ints in python; documents must still say 1, not true
    with pytest.raises(DocumentError, match="n must be a positive integer"):
        parse_automaton(TINY_DOC.replace('"n": 1', '"n": true'))


@pytest.mark.parametrize("symbol", ["λ", "a b", " a", "a\t", "a\u3000b", "\x1c"])
def test_a_symbol_that_cannot_be_printed_in_a_word_is_refused(symbol):
    # words print with spaces between symbols and λ for the empty word, and
    # `eval` splits its word on whitespace
    doc = TINY_DOC.replace('"alphabet": [\n    "a"', f'"alphabet": [{json.dumps(symbol)}')
    doc = doc.replace('"a": [\n      "0"', f'{json.dumps(symbol)}: ["0"')
    with pytest.raises(DocumentError, match=f"alphabet: bad symbol {re.escape(repr(symbol))}"):
        parse_automaton(doc)
    with pytest.raises(ValueError, match="bad symbol"):
        automaton(Chain(("0", "1")), [symbol], ["1"], ["1"], [[["0"]]])
    # the same symbols pass once the offending characters are gone
    plain = "".join(c for c in symbol if not c.isspace()).replace("λ", "") or "l"
    assert parse_automaton(doc.replace(json.dumps(symbol), json.dumps(plain))).alphabet == (plain,)


def test_delta_must_cover_the_alphabet_exactly():
    with pytest.raises(DocumentError, match="delta: missing symbol.*a"):
        parse_automaton(TINY_DOC.replace('"a": [\n      "0"\n    ]', '"b": [\n      "0"\n    ]'))
    extra = TINY_DOC.replace(
        '"a": [\n      "0"\n    ]',
        '"a": [\n      "0"\n    ],\n    "b": [\n      "0"\n    ]',
    )
    with pytest.raises(DocumentError, match="delta: unknown symbol.*b"):
        parse_automaton(extra)


def test_system_variable_indices_are_one_based_and_in_range():
    with pytest.raises(DocumentError, match="out of range 1..2"):
        parse_system(SYSTEM_DOC.replace("[\n          1,\n          2\n        ]", "[0]"))
    with pytest.raises(DocumentError, match="out of range 1..2"):
        parse_system(SYSTEM_DOC.replace("[\n          1,\n          2\n        ]", "[3]"))
    with pytest.raises(DocumentError, match="monomials\\[0\\] must be a nonempty list"):
        parse_system(SYSTEM_DOC.replace("[\n          1,\n          2\n        ]", "[]"))


def _with_eta(weights) -> str:
    doc = json.loads(TINY_DOC)
    doc["n"] = len(weights)
    doc["pi"] = ["1"] * len(weights)
    doc["delta"]["a"] = ["0"] * len(weights) ** 2
    doc["eta"] = weights
    return json.dumps(doc)


@pytest.mark.parametrize(
    "weight, message",
    [
        ("0.65", "eta: value 0.65 is not in the chain"),
        (0.5, "eta: values must be decimal strings, got 0.5"),
        (None, "eta: values must be decimal strings, got None"),
        ([], "eta: values must be decimal strings, got []"),
        ({}, "eta: values must be decimal strings, got {}"),
        (" 0.5", "eta: values must be decimal strings, got ' 0.5'"),
        ("0.5 ", "eta: values must be decimal strings, got '0.5 '"),
        ("\u0660.\u0665", "eta: values must be decimal strings, got '\u0660.\u0665'"),
        ("\uff10.\uff15", "eta: values must be decimal strings, got '\uff10.\uff15'"),
    ],
)
def test_a_weight_off_the_chain_is_named_in_the_error(weight, message):
    # the bad weight follows a good one, spelled as declared or not
    for good in ("0.5", "0.50"):
        with pytest.raises(DocumentError) as caught:
            parse_automaton(_with_eta([good, weight]))
        assert str(caught.value) == message


def test_chain_labels_use_ascii_digits():
    for label in ("\u0660.\u0665", "\uff10.\uff15"):
        doc = TINY_DOC.replace('"0.5"', json.dumps(label))
        with pytest.raises(DocumentError) as caught:
            parse_automaton(doc)
        assert str(caught.value) == (
            f"chain: chain values must be decimal strings, got {label!r}"
        )


def _respell(draw, label: str) -> str:
    """label, or an equal rational with leading or trailing zeros added."""
    whole, _, frac = label.partition(".")
    lead = draw(st.sampled_from(["", "0", "00"]))
    tail = frac + draw(st.sampled_from(["", "0", "000"]))
    return lead + whole + ("." + tail if tail else "")


@st.composite
def _respelled_automata(draw):
    rng = random.Random(draw(st.integers(0, 2**32)))
    chain = Chain(random_chain_labels(rng, draw(st.integers(2, 6))))
    alphabet = ("a", "b")[: draw(st.integers(1, 2))]
    a = random_automaton(rng, chain, alphabet, draw(st.integers(1, 3)))
    doc = json.loads(render_automaton(a))
    rows = [doc["pi"], doc["eta"], *doc["delta"].values()]
    for row in rows:
        row[:] = [_respell(draw, w) for w in row]
    return a, json.dumps(doc), rows


@given(_respelled_automata())
def test_respelled_weights_parse_to_the_canonical_automaton(case):
    a, text, rows = case
    parsed = parse_automaton(text)
    assert parsed == parse_automaton(render_automaton(a)) == a
    by_fraction = {Fraction(label): i for i, label in enumerate(a.chain.labels)}
    matrices = [parsed.pi, parsed.eta, *parsed.delta]
    for row, m in zip(rows, matrices):
        assert list(m.data) == [by_fraction[Fraction(w)] for w in row]
