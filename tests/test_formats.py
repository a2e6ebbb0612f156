"""JSON document round trips and strict parsing."""

from __future__ import annotations

import json
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fuzzmin import (
    Chain,
    DocumentError,
    Equation,
    EquationSystem,
    FuzzyAutomaton,
    FuzzyMatrix,
    Monomial,
    Polynomial,
    Relation,
    gen_system,
    parse_automaton,
    parse_system,
    random_automaton,
    random_chain_labels,
    render_automaton,
    render_system,
)

from helpers import _benchmark_base, automaton

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


def _edited(doc, key, value):
    """doc with one top-level field replaced, or one equation's when key is
    (i, field)."""
    payload = json.loads(doc)
    if isinstance(key, tuple):
        payload["equations"][key[0]][key[1]] = value
    else:
        payload[key] = value
    return json.dumps(payload)


@pytest.mark.parametrize(
    "parse, doc, key, value, message",
    [
        (parse_automaton, TINY_DOC, "alphabet", ["a", "a"], "alphabet symbols must be distinct"),
        (
            parse_automaton, TINY_DOC, "delta", [["0"]],
            "delta must be an object mapping symbols to value lists",
        ),
        (parse_system, SYSTEM_DOC, "equations", [[[1, 2]]], r"equations\[0\] must be an object"),
        (
            parse_system, SYSTEM_DOC, (0, "monomials"), [],
            r"equations\[0\]\.monomials must be a nonempty list",
        ),
    ],
)
def test_a_malformed_part_is_a_document_error(parse, doc, key, value, message):
    with pytest.raises(DocumentError, match=f"^{message}$"):
        parse(_edited(doc, key, value))


def test_system_variable_indices_are_one_based_and_in_range():
    with pytest.raises(DocumentError, match="out of range 1..2"):
        parse_system(SYSTEM_DOC.replace("[\n          1,\n          2\n        ]", "[0]"))
    with pytest.raises(DocumentError, match="out of range 1..2"):
        parse_system(SYSTEM_DOC.replace("[\n          1,\n          2\n        ]", "[3]"))
    with pytest.raises(DocumentError, match="monomials\\[0\\] must be a nonempty list"):
        parse_system(SYSTEM_DOC.replace("[\n          1,\n          2\n        ]", "[]"))


def test_an_integer_too_long_to_convert_is_a_document_error():
    # int() refuses literals past sys.get_int_max_str_digits(), 4,300 by default
    message = f"an integer has more than {sys.get_int_max_str_digits()} digits"
    long = "9" * 5000
    with pytest.raises(DocumentError) as caught:
        parse_automaton(TINY_DOC.replace('"n": 1', f'"n": {long}'))
    assert str(caught.value) == message
    with pytest.raises(DocumentError) as caught:
        parse_system(SYSTEM_DOC.replace("[\n          1,\n          2\n        ]", f"[{long}]"))
    assert str(caught.value) == message


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


# The parser ranks a weight list with one lookup pass and reuses the last
# chain it built; these documents are ranked again here one item at a time,
# through Chain.rank_of alone, on a chain built afresh.


def _ranked_item_by_item(text: str):
    doc = json.loads(text)
    chain = Chain(tuple(doc["chain"]))
    if doc["kind"] == "system":
        equations = tuple(
            Equation(
                Polynomial(tuple(Monomial(tuple(i - 1 for i in m)) for m in eq["monomials"])),
                Relation.EQ,
                chain[chain.rank_of(eq["rhs"])],
            )
            for eq in doc["equations"]
        )
        return EquationSystem(chain, doc["n_vars"], equations)
    n = doc["n"]

    def matrix(rows, cols, values):
        return FuzzyMatrix(chain, rows, cols, tuple(chain.rank_of(v) for v in values))

    return FuzzyAutomaton(
        chain,
        tuple(doc["alphabet"]),
        matrix(1, n, doc["pi"]),
        matrix(n, 1, doc["eta"]),
        tuple(matrix(n, n, doc["delta"][sym]) for sym in doc["alphabet"]),
    )


def _relabelled(part, chain: Chain):
    """part with the same ranks on another chain of its size."""
    if isinstance(part, EquationSystem):
        equations = tuple(
            Equation(eq.lhs, eq.relation, chain[eq.rhs.rank]) for eq in part.equations
        )
        return EquationSystem(chain, part.n_vars, equations)

    def moved(m):
        return FuzzyMatrix(chain, m.rows, m.cols, m.data)

    return FuzzyAutomaton(
        chain, part.alphabet, moved(part.pi), moved(part.eta), tuple(map(moved, part.delta))
    )


def _respelled(text: str) -> str:
    """The document with every weight written with one more trailing zero."""
    doc = json.loads(text)

    def respell(label: str) -> str:
        return label + ("0" if "." in label else ".0")

    if doc["kind"] == "system":
        for eq in doc["equations"]:
            eq["rhs"] = respell(eq["rhs"])
    else:
        for row in (doc["pi"], doc["eta"], *doc["delta"].values()):
            row[:] = map(respell, row)
    return json.dumps(doc)


@pytest.mark.parametrize("workload", ["equiv", "solve", "minimize"])
def test_parsing_matches_item_by_item_ranking_on_the_benchmark_corpora(workload):
    rng = random.Random(workload)
    for inst in _benchmark_base(workload):
        # a pair's documents are read one after the other, as `equiv` reads
        # them, and then the pair again on one other chain
        chain = Chain(random_chain_labels(rng, len(inst.parts[0].chain)))
        for parts in (inst.parts, tuple(_relabelled(p, chain) for p in inst.parts)):
            for part in parts:
                render = render_system if isinstance(part, EquationSystem) else render_automaton
                parse = parse_system if isinstance(part, EquationSystem) else parse_automaton
                text = render(part)
                parsed = parse(text)
                assert parsed == _ranked_item_by_item(text) == part
                assert render(parsed) == text
                respelled = _respelled(text)
                assert parse(respelled) == _ranked_item_by_item(respelled) == part


# The writer lays documents out itself; json.dumps is the referee.

_SYMBOLS = st.text(
    st.sampled_from(
        ["a", "b", '"', "\\", "/", "é", "中", "λ", "\x00", "\x01", "\x1b", "\x7f", "\u200b",
         "\U0001d51e"]
    ),
    min_size=1,
    max_size=3,
).filter(lambda sym: sym != "λ")


@st.composite
def _automata(draw):
    rng = random.Random(draw(st.integers(0, 2**32)))
    chain = Chain(random_chain_labels(rng, draw(st.integers(2, 6))))
    alphabet = tuple(draw(st.lists(_SYMBOLS, min_size=1, max_size=3, unique=True)))
    return random_automaton(rng, chain, alphabet, draw(st.integers(1, 4)))


@given(_automata())
def test_rendered_automata_are_the_json_module_layout(a):
    label = a.chain.label
    doc = {
        "kind": "automaton",
        "chain": list(a.chain.labels),
        "alphabet": list(a.alphabet),
        "n": a.n,
        "pi": [label(r) for r in a.pi.data],
        "eta": [label(r) for r in a.eta.data],
        "delta": {sym: [label(r) for r in m.data] for sym, m in zip(a.alphabet, a.delta)},
    }
    text = render_automaton(a)
    assert text == json.dumps(doc, indent=2, ensure_ascii=False) + "\n"
    assert parse_automaton(text) == a


@given(
    st.integers(0, 2**32), st.integers(1, 12), st.integers(1, 4), st.integers(1, 4),
    st.integers(2, 6),
)
def test_rendered_systems_are_the_json_module_layout(seed, n_vars, equations, monomials, size):
    s = gen_system(seed, n_vars, equations, monomials, size)
    doc = {
        "kind": "system",
        "chain": list(s.chain.labels),
        "n_vars": s.n_vars,
        "equations": [
            {
                "monomials": [[v + 1 for v in m.vars] for m in eq.lhs.monomials],
                "rhs": eq.rhs.label,
            }
            for eq in s.equations
        ],
    }
    text = render_system(s)
    assert text == json.dumps(doc, indent=2, ensure_ascii=False) + "\n"
    assert parse_system(text) == s
