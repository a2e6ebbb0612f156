"""End-to-end runs of the command-line interface via main()."""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

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
    equivalent_fixpoint,
    gen_automaton,
    pad_states,
    parse_automaton,
    parse_system,
    render_automaton,
    render_system,
)
import fuzzmin.cli
from fuzzmin.cli import main

from fuzzmin.oracles import is_fooling_set
from helpers import BEYOND_CUTS, automaton, permutation_pair

CH = Chain(("0", "0.2", "0.5", "1"))


@pytest.fixture(autouse=True)
def _no_ambient_budget(monkeypatch):
    monkeypatch.delenv("FUZZMIN_BUDGET", raising=False)


@pytest.fixture
def eval_doc(tmp_path):
    ch = Chain(("0", "0.6", "0.8", "1"))
    a = automaton(ch, "a", ["1"], ["0.8"], [[["0.6"]]])
    path = tmp_path / "a.json"
    path.write_text(render_automaton(a), encoding="utf-8")
    return str(path)


@pytest.fixture
def dup_doc(tmp_path):
    ch = Chain(("0", "0.6", "0.8", "1"))
    dup = automaton(
        ch, "a", ["0.8", "0.8"], ["0.8", "0.8"], [[["0.6", "0.6"], ["0.6", "0.6"]]]
    )
    path = tmp_path / "dup.json"
    path.write_text(render_automaton(dup), encoding="utf-8")
    return str(path)


@pytest.fixture
def system_doc(tmp_path):
    eq1 = Equation(
        Polynomial((Monomial((0, 1)), Monomial((2,)))), Relation.EQ, CH.value("0.5")
    )
    eq2 = Equation(Polynomial((Monomial((2,)),)), Relation.EQ, CH.value("0.2"))
    path = tmp_path / "sys.json"
    path.write_text(render_system(EquationSystem(CH, 3, (eq1, eq2))), encoding="utf-8")
    return str(path)


def test_eval(eval_doc, capsys):
    assert main(["eval", eval_doc, "a"]) == 0
    assert capsys.readouterr().out == "0.6\n"
    # λ alone is the empty word, as equiv prints it; '' names it too
    for empty in ("", "λ"):
        assert main(["eval", eval_doc, empty]) == 0
        assert capsys.readouterr().out == "0.8\n"


def test_eval_unknown_symbol(eval_doc, capsys):
    assert main(["eval", eval_doc, "z"]) == 2
    assert "unknown symbol 'z'" in capsys.readouterr().err
    # inside a longer word λ is no symbol
    assert main(["eval", eval_doc, "a λ"]) == 2
    assert "unknown symbol 'λ'" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["equiv", "{0}", "{0}"], ["eval", "{0}", "a b"]])
def test_a_symbol_a_word_cannot_name_is_an_input_error(command, tmp_path, capsys):
    # a one-symbol alphabet ["λ"] would print the word "λ" as the empty word,
    # and the symbol "a b" could never be named in a word
    for symbol in ("λ", "a b"):
        doc = json.loads(render_automaton(automaton(CH, "a", ["1"], ["1"], [[["0"]]])))
        doc["alphabet"], doc["delta"] = [symbol], {symbol: doc["delta"]["a"]}
        path = tmp_path / "odd.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main([part.format(path) for part in command]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: alphabet: bad symbol {symbol!r}: a symbol name is"
            " nonempty, holds no whitespace and is not λ\n"
        )


def test_equiv_fixpoint(eval_doc, capsys):
    assert main(["equiv", eval_doc, eval_doc]) == 0
    assert capsys.readouterr().out == "equivalent (stabilized at l=1)\n"


def test_equiv_oracle_bound(eval_doc, capsys):
    assert main(["equiv", eval_doc, eval_doc, "--oracle-bound"]) == 0
    assert capsys.readouterr().out == "equivalent (up to length 3)\n"


def test_equiv_counterexample_at_lambda(eval_doc, tmp_path, capsys):
    ch = Chain(("0", "0.6", "0.8", "1"))
    other = automaton(ch, "a", ["1"], ["1"], [[["0.6"]]])
    path = tmp_path / "b.json"
    path.write_text(render_automaton(other), encoding="utf-8")
    assert main(["equiv", eval_doc, str(path)]) == 0
    assert capsys.readouterr().out == "not equivalent (counterexample: λ)\n"


def test_solve_intervals(system_doc, capsys):
    assert main(["solve", system_doc]) == 0
    assert capsys.readouterr().out == (
        "([0.5,0.5], [0.5,1], [0.2,0.2])\n([0.5,1], [0.5,0.5], [0.2,0.2])\n"
    )


def test_solve_points(system_doc, capsys):
    assert main(["solve", system_doc, "--mode", "points"]) == 0
    assert capsys.readouterr().out == "0.5 0.5 0.2\n"


def test_solve_unsolvable(tmp_path, capsys):
    x = Polynomial((Monomial((0,)),))
    clash = EquationSystem(
        CH,
        1,
        (
            Equation(x, Relation.EQ, CH.value("0.5")),
            Equation(x, Relation.EQ, CH.value("1")),
        ),
    )
    path = tmp_path / "clash.json"
    path.write_text(render_system(clash), encoding="utf-8")
    assert main(["solve", str(path)]) == 0
    assert capsys.readouterr().out == "unsolvable\n"
    assert main(["solve", str(path), "--mode", "points"]) == 0
    assert capsys.readouterr().out == "unsolvable\n"


# documents near the system and automaton formats, well-formed or with a fault
# or two: every one must end in a verdict (0), an input error (2) or a budget
# refusal (3)

_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 6),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=3),
    st.just([]),
    st.just({}),
)
_FAULTS = (
    "drop key", "unknown key", "wrong type", "equation drops key",
    "equation gains key", "non-list monomial", "index out of range",
    "rhs outside chain",
)


@st.composite
def _system_texts(draw):
    shape = draw(st.integers(0, 9))
    if shape == 0:
        return json.dumps(draw(st.one_of(_JUNK, st.lists(_JUNK, max_size=2))))
    chain = draw(st.sampled_from([["0", "1"], ["0", "0.2", "0.5", "1"]]))
    n = draw(st.integers(1, 4))
    monomials = st.lists(st.lists(st.integers(1, n), min_size=1, max_size=3),
                         min_size=1, max_size=3)
    equations = draw(st.lists(
        st.fixed_dictionaries({"monomials": monomials, "rhs": st.sampled_from(chain)}),
        min_size=1, max_size=3,
    ))
    doc = {"kind": "system", "chain": chain, "n_vars": n, "equations": equations}
    for fault in draw(st.lists(st.sampled_from(_FAULTS), max_size=2)):
        eq = draw(st.sampled_from(equations))
        monos = eq.get("monomials", [])
        if fault == "drop key":
            doc.pop(draw(st.sampled_from(sorted(doc))), None)
        elif fault == "unknown key":
            doc["weights"] = 1
        elif fault == "wrong type":
            doc[draw(st.sampled_from(sorted(doc)))] = draw(_JUNK)
        elif fault == "equation drops key":
            eq.pop(draw(st.sampled_from(["monomials", "rhs"])), None)
        elif fault == "equation gains key":
            eq["coefficient"] = "1"
        elif fault == "non-list monomial" and monos:
            monos[0] = draw(_JUNK)
        elif fault == "index out of range" and monos and isinstance(monos[-1], list) and monos[-1]:
            monos[-1][0] = draw(st.sampled_from([0, n + 1, -1, "1", 1.0, True]))
        elif fault == "rhs outside chain":
            eq["rhs"] = draw(st.sampled_from(["0.3", "2", "-1", "x", "", 0.5, 1]))
    text = json.dumps(doc)
    return text[: len(text) // 2] if shape == 1 else text


@given(_system_texts())
def test_solve_ends_in_a_verdict_or_an_error_on_any_document(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("fuzz") / "sys.json"
    path.write_text(text, encoding="utf-8")
    for argv in (["solve", str(path)], ["solve", str(path), "--mode", "points"]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2, 3)
        assert bool(out.getvalue()) == (code == 0)
        assert err.getvalue().startswith("error: ") == (code != 0)


@given(_system_texts())
def test_a_parsed_system_equals_one_built_by_the_public_constructors(text):
    # the parser builds monomials, polynomials and equations without their
    # constructors' checks; on every document it accepts, the public
    # constructors, which sort, deduplicate and check, build an equal system
    try:
        parsed = parse_system(text)
    except DocumentError:
        return
    doc = json.loads(text)
    chain = Chain(tuple(doc["chain"]))
    built = EquationSystem(chain, doc["n_vars"], tuple(
        Equation(
            Polynomial(tuple(Monomial(tuple(i - 1 for i in mono)) for mono in eq["monomials"])),
            Relation.EQ,
            chain.value(eq["rhs"]),
        )
        for eq in doc["equations"]
    ))
    assert parsed == built
    assert hash(parsed) == hash(built)
    assert render_system(parsed) == render_system(built)


_AUTOMATON_FAULTS = (
    "drop key", "unknown key", "wrong type", "ragged row", "weight outside chain",
    "empty alphabet", "delta drops symbol", "delta gains symbol",
)


@st.composite
def _automaton_texts(draw):
    shape = draw(st.integers(0, 9))
    if shape == 0:
        return json.dumps(draw(st.one_of(_JUNK, st.lists(_JUNK, max_size=2))))
    chain = draw(st.sampled_from([["0", "1"], ["0", "0.5", "1"], ["0", "0.2", "0.5", "1"]]))
    alphabet = draw(st.sampled_from([["a"], ["a", "b"]]))
    n = draw(st.integers(1, 3))

    def weights(size):
        return draw(st.lists(st.sampled_from(chain), min_size=size, max_size=size))

    delta = {sym: weights(n * n) for sym in alphabet}
    doc = {
        "kind": "automaton", "chain": chain, "alphabet": alphabet, "n": n,
        "pi": weights(n), "eta": weights(n), "delta": delta,
    }
    rows = [doc["pi"], doc["eta"], *delta.values()]
    for fault in draw(st.lists(st.sampled_from(_AUTOMATON_FAULTS), max_size=2)):
        row = draw(st.sampled_from(rows))
        if fault == "drop key":
            doc.pop(draw(st.sampled_from(sorted(doc))), None)
        elif fault == "unknown key":
            doc["states"] = n
        elif fault == "wrong type":
            doc[draw(st.sampled_from(sorted(doc)))] = draw(_JUNK)
        elif fault == "ragged row":
            if draw(st.booleans()):
                row.append(chain[0])
            elif row:
                row.pop()
        elif fault == "weight outside chain" and row:
            row[0] = draw(st.sampled_from([
                "0.3", "2", "-1", "x", "", 0.5, 1, None, [], {}, "0.50", "1.0", "\u0660.\u0665",
            ]))
        elif fault == "empty alphabet":
            doc["alphabet"] = []
        elif fault == "delta drops symbol":
            delta.pop(alphabet[-1], None)
        elif fault == "delta gains symbol":
            delta["z"] = list(delta.get("a", []))
    text = json.dumps(doc)
    return text[: len(text) // 2] if shape == 1 else text


# large k is refused at once unless the input has a single value
@given(
    _automaton_texts(),
    _automaton_texts(),
    st.one_of(st.integers(1, 2), st.integers(3, 64)),
    st.sampled_from(["", "a", "a b", "z"]),
)
def test_automaton_commands_end_in_a_verdict_or_an_error_on_any_document(
    tmp_path_factory, text, other_text, k, word
):
    path = tmp_path_factory.mktemp("fuzz") / "a.json"
    path.write_text(text, encoding="utf-8")
    other = path.with_name("b.json")
    other.write_text(other_text, encoding="utf-8")
    for argv in (
        ["eval", str(path), word],
        ["equiv", str(path), str(path)],
        ["equiv", str(path), str(other), "--oracle-bound"],
        ["decide-min", str(path), str(k)],
        ["minimize", str(path)],
    ):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2, 3)
        assert bool(out.getvalue()) == (code == 0)
        errors = [line for line in err.getvalue().splitlines() if line.startswith("error: ")]
        assert len(errors) == (code != 0)


def test_solve_budgets(system_doc, capsys):
    # the point grid is 2**3 = 8; the up side already holds 2 boxes after
    # the first equation, and no set ever holds more
    assert main(["solve", system_doc, "--mode", "points", "--budget-candidates", "7"]) == 3
    assert "8 exceeds budget 7" in capsys.readouterr().err
    assert main(["solve", system_doc, "--budget-phi", "1"]) == 3
    err = capsys.readouterr().err
    assert err == "error: size 2 exceeds budget 1 (interval solution set)\n"
    assert main(["solve", system_doc, "--budget-phi", "2"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2


# 111 bytes: x1 x2 x3 = 0.5 has 3 boxes, which would pad to 3 * 10**9 pairs
WIDE_SYSTEM = (
    '{"kind":"system","chain":["0","0.5","1"],"n_vars":1000000000,'
    '"equations":[{"monomials":[[1,2,3]],"rhs":"0.5"}]}'
)


def test_solve_refuses_boxes_too_wide_to_pad(tmp_path, capsys):
    path = tmp_path / "wide.json"
    path.write_text(WIDE_SYSTEM, encoding="utf-8")
    assert main(["solve", str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: size 3000000000 exceeds budget 10000000 (interval solution cells)\n"


def test_solve_points_refuses_a_point_too_wide_to_build(tmp_path, capsys):
    # one rhs value: the grid is one point of 10^9 values, refused unbuilt
    path = tmp_path / "wide.json"
    path.write_text(WIDE_SYSTEM, encoding="utf-8")
    assert main(["solve", str(path), "--mode", "points"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "error: size 1000000000 exceeds budget 10000000 (point-search weights)\n"
    )


def test_budget_env_var_replaces_the_cell_ceiling(tmp_path, capsys, monkeypatch):
    path = tmp_path / "wide.json"
    path.write_text(WIDE_SYSTEM.replace("1000000000", "1000"), encoding="utf-8")
    monkeypatch.setenv("FUZZMIN_BUDGET", "2999")
    assert main(["solve", str(path)]) == 3
    err = capsys.readouterr().err
    assert err == "error: size 3000 exceeds budget 2999 (interval solution cells)\n"
    monkeypatch.setenv("FUZZMIN_BUDGET", "3000")
    assert main(["solve", str(path)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 3


def test_solve_points_refuses_a_grid_too_large_to_print(tmp_path, capsys):
    # 3**10000 has 4,772 digits, past the 4,300 an int may print with
    x = Polynomial((Monomial((0,)),))
    rhs = ("0", "0.5", "1")
    system = EquationSystem(
        CH, 10_000, tuple(Equation(x, Relation.EQ, CH.value(v)) for v in rhs)
    )
    path = tmp_path / "wide.json"
    path.write_text(render_system(system), encoding="utf-8")
    assert main(["solve", str(path), "--mode", "points"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: size 3^10000 exceeds budget 10000000 (point-search grid)\n"


def test_decide_min_witness(dup_doc, capsys):
    assert main(["decide-min", dup_doc, "1"]) == 0
    out, err = capsys.readouterr()
    assert err == "cost k=1: candidates=8\n"
    witness = parse_automaton(out)
    assert witness.n == 1
    dup = parse_automaton(Path(dup_doc).read_text())
    assert equivalent_fixpoint(pad_states(witness, 2), dup).equivalent


def test_decide_min_empty(tmp_path, capsys):
    ch = Chain(("0", "0.5", "0.8", "1"))
    nonmono = automaton(
        ch,
        "a",
        ["1", "0", "0"],
        ["1", "0.5", "0.8"],
        [[["0", "1", "0"], ["0", "0", "1"], ["0", "0", "0"]]],
    )
    path = tmp_path / "nonmono.json"
    path.write_text(render_automaton(nonmono), encoding="utf-8")
    assert main(["decide-min", str(path), "1"]) == 0
    out, err = capsys.readouterr()
    assert out == "empty\n"
    # the refutation: a a and a a a are rejected at 0.8, λ and a a accepted
    assert err == (
        "cost k=1: candidates=64\n"
        "lower bound 2 at level 0.8: (λ, a a) (a, a)\n"
    )


def test_decide_min_budget(dup_doc, capsys):
    assert main(["decide-min", dup_doc, "2", "--budget-candidates", "7"]) == 3
    assert "256 exceeds budget 7" in capsys.readouterr().err
    # k=1 has no grid: its one point is checked under the same cap, and the
    # cost line still prints the figure of the grid it stands for
    assert main(["decide-min", dup_doc, "1", "--budget-candidates", "7"]) == 0
    out, err = capsys.readouterr()
    assert err == "cost k=1: candidates=8\n"
    assert parse_automaton(out).n == 1


@pytest.mark.parametrize("command", [["minimize"], ["decide-min", "1"]])
def test_budget_phi_refuses_the_witness_search(command, tmp_path, capsys):
    # the grid of 81 points is within budget, but the search stores the cut
    # subsets of each prefix it checks, and --budget-phi caps those
    argv = ["gen", "automaton", "--seed", "1", "--states", "3", "--symbols", "2"]
    assert main([*argv, "--chain-size", "3"]) == 0
    path = tmp_path / "g1.json"
    path.write_text(capsys.readouterr().out, encoding="utf-8")
    assert main([command[0], str(path), *command[1:], "--budget-phi", "1"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "cost k=1: candidates=81\n"
        "error: size 2 exceeds budget 1 (cut subsets)\n"
    )


@pytest.fixture
def wide_doc(tmp_path):
    # `gen automaton --seed 3 --states 3 --symbols 2 --chain-size 5`: five
    # values, two symbols, so the k-state grid has 5**(2k + 2k**2) points
    path = tmp_path / "wide.json"
    path.write_text(render_automaton(gen_automaton(3, 3, 2, 5)), encoding="utf-8")
    return str(path)


def test_decide_min_refuses_a_grid_too_large_to_print(wide_doc, capsys):
    # 5**7320 has 5,117 digits, past the 4,300 an int may print with
    assert main(["decide-min", wide_doc, "60"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "cost k=60: candidates=5^7320\n"
        "error: size 5^7320 exceeds budget 10000000 "
        "(candidate assignments for k=60)\n"
    )


def test_decide_min_refuses_a_huge_k_without_building_its_grid(wide_doc, capsys):
    k = 10**6
    assert main(["decide-min", wide_doc, str(k)]) == 3
    v = 2 * k + 2 * k * k
    assert capsys.readouterr().err == (
        f"cost k={k}: candidates=5^{v}\n"
        f"error: size 5^{v} exceeds budget 10000000 "
        f"(candidate assignments for k={k})\n"
    )


def test_decide_min_refuses_a_k_whose_grid_exponent_is_too_long_to_write(wide_doc, capsys):
    # var_count = 2k + 2k**2 has 4,401 digits, past the 4,300 an int may
    # print with, so even the power is written as a bound
    k = 10**2200
    assert main(["decide-min", wide_doc, str(k)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        f"cost k={k}: candidates=at least 10^4300\n"
        f"error: size at least 10^4300 exceeds budget 10000000 "
        f"(candidate assignments for k={k})\n"
    )


def test_decide_min_rejects_k_zero(dup_doc, capsys):
    assert main(["decide-min", dup_doc, "0"]) == 2
    assert "state count" in capsys.readouterr().err


def _one_value_doc(tmp_path, n_sym, weight):
    # a 2-state automaton on the chain (0, 1) whose weights all equal weight
    alphabet = [f"s{i}" for i in range(n_sym)]
    doc = {
        "kind": "automaton", "chain": ["0", "1"], "alphabet": alphabet, "n": 2,
        "pi": [weight] * 2, "eta": [weight] * 2,
        "delta": {sym: [weight] * 4 for sym in alphabet},
    }
    path = tmp_path / "one.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _ranks(a):
    return {*a.pi.data, *a.eta.data, *(r for d in a.delta for r in d.data)}


def test_decide_min_judges_a_one_point_grid_without_a_search(tmp_path, capsys):
    # every weight is 0, so the grid has one point; a search filling it
    # weight by weight would recurse 1,600 deep at k=40
    assert main(["decide-min", _one_value_doc(tmp_path, 1, "0"), "40"]) == 0
    out, err = capsys.readouterr()
    assert err == "cost k=40: candidates=1\n"
    witness = parse_automaton(out)
    assert (witness.n, _ranks(witness)) == (40, {0})


def test_minimize_one_value_over_many_symbols(tmp_path, capsys):
    # a search checking block by block would recurse once per symbol
    assert main(["minimize", _one_value_doc(tmp_path, 1500, "1")]) == 0
    out, err = capsys.readouterr()
    assert err == "cost k=1: candidates=1\n"
    small = parse_automaton(out)
    assert (small.n, len(small.alphabet), _ranks(small)) == (1, 1500, {1})


def test_decide_min_refuses_a_one_point_witness_too_large_to_build(tmp_path, capsys):
    # k=40 over one symbol is 2 * 40 + 40**2 = 1,680 weights; k=100000 would
    # be 10,000,200,000 and is refused before any of them is built
    path = _one_value_doc(tmp_path, 1, "1")
    assert main(["decide-min", path, "40", "--budget-candidates", "1680"]) == 0
    assert parse_automaton(capsys.readouterr().out).n == 40
    assert main(["decide-min", path, "40", "--budget-candidates", "1679"]) == 3
    assert capsys.readouterr().err == (
        "cost k=40: candidates=1\n"
        "error: size 1680 exceeds budget 1679 (candidate weights for k=40)\n"
    )
    assert main(["decide-min", path, "100000"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "cost k=100000: candidates=1\n"
        "error: size 10000200000 exceeds budget 10000000 (candidate weights for k=100000)\n"
    )


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_decide_min_refutes_before_refusing_the_grid(k, tmp_path, capsys):
    # the 6-state permutation automaton has a fooling set of 6 pairs, so
    # every k < 6 is empty although its grid is far past the budget
    a = permutation_pair(6, 0, broken=False)[0]
    path = tmp_path / "perm6.json"
    path.write_text(render_automaton(a), encoding="utf-8")
    assert main(["decide-min", str(path), str(k)]) == 0
    out, err = capsys.readouterr()
    assert out == "empty\n"
    cost, bound = err.splitlines()
    assert cost.startswith(f"cost k={k}: candidates=")
    head, shown = bound.split(": ", 1)
    size, level = re.fullmatch(r"lower bound (\d+) at level (\S+)", head).groups()
    pairs = [
        tuple(a.word_from_names([] if w == "λ" else w.split()) for w in pair)
        for pair in re.findall(r"\(([^,]*), ([^)]*)\)", shown)
    ]
    assert int(size) == len(pairs) > k
    assert is_fooling_set(a, a.chain.rank_of(level), pairs)


def test_equiv_oracle_bound_prints_a_long_bound_as_a_power(tmp_path, capsys):
    # 500 states whose transitions carry 20,000 values, and no initial
    # weight: the bound d**1000 - 1 has more than 4,300 digits, and the
    # check ends after one step
    labels = ["0", *(f"0.{i:05d}".rstrip("0") for i in range(1, 20000)), "1"]
    n = 500
    doc = {
        "kind": "automaton", "chain": labels, "alphabet": ["a"], "n": n,
        "pi": ["0"] * n, "eta": ["1"] * n,
        "delta": {"a": [labels[1 + i % 20000] for i in range(n * n)]},
    }
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["equiv", str(path), str(path), "--oracle-bound"]) == 0
    assert capsys.readouterr().out == "equivalent (up to length 20000^1000-1)\n"


def _deep_doc(tmp_path, chain, n_sym, pi, eta, block):
    # a 2-state automaton whose symbols all share one transition block
    alphabet = [f"s{i}" for i in range(n_sym)]
    doc = {
        "kind": "automaton", "chain": chain, "alphabet": alphabet, "n": 2,
        "pi": pi, "eta": eta, "delta": {sym: block for sym in alphabet},
    }
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _answers_deep(path, k, capsys):
    # the witness decide-min prints, checked against the input
    assert main(["decide-min", path, str(k), "--budget-candidates", str(10**400)]) == 0
    out, _ = capsys.readouterr()
    witness = parse_automaton(out)
    source = parse_automaton(Path(path).read_text(encoding="utf-8"))
    assert equivalent_fixpoint(source, witness).equivalent
    return witness


def test_decide_min_answers_a_search_deeper_than_the_stack(tmp_path, capsys):
    # one positive level: the search goes one block deeper per symbol, 1,200
    # deep, on a grid of 2**1202 points that a candidate budget of 10**400
    # admits; the language is constant 1
    path = _deep_doc(
        tmp_path, ["0", "1"], 1200, ["1", "0"], ["1", "0"], ["1", "0", "0", "1"]
    )
    witness = _answers_deep(path, 1, capsys)
    assert (witness.n, _ranks(witness)) == (1, {1})


@pytest.mark.parametrize("n_sym, k", [(600, 1), (200, 2)])
def test_decide_min_answers_a_weight_by_weight_search_deeper_than_the_stack(
    tmp_path, capsys, n_sym, k
):
    # two positive levels: the search goes one delta' weight deeper at a
    # time, k*k per symbol; the language is constant 0.5
    path = _deep_doc(
        tmp_path, ["0", "0.5", "1"], n_sym, ["1", "1"], ["0.5", "0.5"], ["1"] * 4
    )
    witness = _answers_deep(path, k, capsys)
    assert (witness.n, _ranks(witness)) == (k, {1})


def test_minimize(dup_doc, capsys):
    assert main(["minimize", dup_doc]) == 0
    out, err = capsys.readouterr()
    assert "cost k=1:" in err
    assert parse_automaton(out).n == 1


@pytest.fixture
def nonmono_doc(tmp_path):
    # f(a^k) = 1, 0.5, 0.8, 0, 0, ...: its cut at 0.8, {λ, a a}, has a
    # fooling set of 3 pairs, so minimize searches no k
    ch = Chain(("0", "0.5", "0.8", "1"))
    nonmono = automaton(
        ch,
        "a",
        ["1", "0", "0"],
        ["1", "0.5", "0.8"],
        [[["0", "1", "0"], ["0", "0", "1"], ["0", "0", "0"]]],
    )
    path = tmp_path / "nonmono.json"
    path.write_text(render_automaton(nonmono), encoding="utf-8")
    return str(path)


@pytest.fixture
def beyond_cuts_doc(tmp_path):
    # fooling sets of 2 pairs at most, and a minimum of 3 states: minimize
    # skips k = 1 and searches k = 2
    path = tmp_path / "beyond.json"
    path.write_text(render_automaton(BEYOND_CUTS), encoding="utf-8")
    return str(path)


def test_minimize_prints_one_cost_line_per_k(nonmono_doc, beyond_cuts_doc, capsys):
    assert main(["minimize", nonmono_doc]) == 0
    out, err = capsys.readouterr()
    assert err == "lower bound 3 at level 0.8: (λ, a a) (a, a) (a a, λ)\n"
    assert out == Path(nonmono_doc).read_text(encoding="utf-8")

    assert main(["minimize", beyond_cuts_doc]) == 0
    out, err = capsys.readouterr()
    assert err == (
        "lower bound 2 at level 1: (a b, λ) (λ, a)\n"
        "cost k=2: candidates=531441\n"
    )
    assert out == Path(beyond_cuts_doc).read_text(encoding="utf-8")


def test_minimize_budget_stops_after_the_stuck_k(beyond_cuts_doc, capsys):
    assert main(["minimize", beyond_cuts_doc, "--budget-candidates", "100"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "lower bound 2 at level 1: (a b, λ) (λ, a)\n"
        "cost k=2: candidates=531441\n"
        "error: size 531441 exceeds budget 100 (candidate assignments for k=2)\n"
    )


def test_budget_env_var(dup_doc, capsys, monkeypatch):
    monkeypatch.setenv("FUZZMIN_BUDGET", "2")
    assert main(["decide-min", dup_doc, "2"]) == 3
    assert "256 exceeds budget 2" in capsys.readouterr().err
    # an explicit flag wins over the environment
    assert main(["decide-min", dup_doc, "2", "--budget-candidates", "256"]) == 0
    assert parse_automaton(capsys.readouterr().out).n == 2
    # k=1 has no grid to refuse, and its check fits the same cut-subset cap
    assert main(["decide-min", dup_doc, "1"]) == 0
    assert parse_automaton(capsys.readouterr().out).n == 1


def test_budget_env_var_must_be_an_integer(dup_doc, capsys, monkeypatch):
    monkeypatch.setenv("FUZZMIN_BUDGET", "lots")
    assert main(["decide-min", dup_doc, "1"]) == 2
    assert "FUZZMIN_BUDGET" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["minimize"], ["decide-min", "1"]])
@pytest.mark.parametrize("flag", ["--budget-candidates", "--budget-phi"])
def test_a_budget_flag_below_one_is_refused_before_any_output(command, flag, dup_doc, capsys):
    # decide-min reads its budgets before it prints its cost line
    for value in ("0", "-5"):
        assert main([command[0], dup_doc, *command[1:], flag, value]) == 2
        assert capsys.readouterr() == ("", "error: budgets must be positive\n")


def test_budget_env_var_must_be_positive(dup_doc, capsys, monkeypatch):
    monkeypatch.setenv("FUZZMIN_BUDGET", "0")
    for argv in (["gen", "automaton"], ["decide-min", dup_doc, "1"], ["minimize", dup_doc]):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "error: FUZZMIN_BUDGET must be positive\n")


def test_gen_is_deterministic(capsys):
    assert main(["gen", "automaton", "--seed", "9", "--states", "2"]) == 0
    first = capsys.readouterr().out
    assert main(["gen", "automaton", "--seed", "9", "--states", "2"]) == 0
    assert capsys.readouterr().out == first
    assert parse_automaton(first).n == 2

    assert main(["gen", "system", "--seed", "9", "--vars", "2"]) == 0
    sys_doc = capsys.readouterr().out
    assert '"kind": "system"' in sys_doc


@pytest.fixture
def no_drawing(monkeypatch):
    # a refused size must fail before any document is drawn
    def refuse(*args):
        raise AssertionError(f"drew a document of size {args[1:]}")

    for name in ("gen_automaton", "gen_system"):
        monkeypatch.setattr(fuzzmin.cli, name, refuse)


@pytest.mark.parametrize(
    "argv, count",
    [
        # n * (2 + |alphabet| * n) weights
        (["automaton", "--states", "30000", "--symbols", "1"], 900_060_000),
        (["automaton", "--states", "100000000", "--symbols", "1"], 10**16 + 2 * 10**8),
        # equations * max-monomials * variables indices
        (["system", "--vars", "200000000"], 800_000_000),
        # counts of more than 4,300 digits, which no int may print
        (["automaton", "--states", str(10**2200)], "at least 10^4300"),
        (["system", "--vars", str(10**2200), "--equations", str(10**2200)], "at least 10^4300"),
    ],
)
def test_gen_refuses_a_document_past_the_cell_ceiling(argv, count, no_drawing, capsys):
    assert main(["gen", *argv]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: size {count} exceeds budget 10000000 (generated document cells)\n"


def test_gen_leaves_sizes_below_one_to_the_generator(capsys):
    # -10000 states would count 99,980,000 weights, and -10000 equations of
    # -10000 monomials 300,000,000 indices: both are input errors instead
    assert main(["gen", "automaton", "--states", "-10000", "--symbols", "1"]) == 2
    assert capsys.readouterr().err == "error: need at least one state\n"
    assert main(["gen", "system", "--equations", "-10000", "--max-monomials", "-10000"]) == 2
    assert capsys.readouterr().err == "error: need at least one equation\n"


def test_budget_env_var_replaces_the_gen_ceiling(capsys, monkeypatch):
    # 7 states over 2 symbols: 7 * (2 + 2 * 7) = 112 weights; 2 equations of
    # at most 3 monomials over 5 variables: 30 indices
    automaton_argv = ["gen", "automaton", "--states", "7", "--symbols", "2"]
    system_argv = ["gen", "system", "--vars", "5", "--equations", "2", "--max-monomials", "3"]
    monkeypatch.setenv("FUZZMIN_BUDGET", "111")
    assert main(automaton_argv) == 3
    err = capsys.readouterr().err
    assert err == "error: size 112 exceeds budget 111 (generated document cells)\n"
    monkeypatch.setenv("FUZZMIN_BUDGET", "29")
    assert main(system_argv) == 3
    err = capsys.readouterr().err
    assert err == "error: size 30 exceeds budget 29 (generated document cells)\n"
    monkeypatch.setenv("FUZZMIN_BUDGET", "112")
    assert main(automaton_argv) == 0
    assert parse_automaton(capsys.readouterr().out).n == 7
    monkeypatch.setenv("FUZZMIN_BUDGET", "30")
    assert main(system_argv) == 0
    assert '"kind": "system"' in capsys.readouterr().out


def test_missing_file(capsys):
    assert main(["eval", "/nonexistent/a.json", "a"]) == 2
    assert "error:" in capsys.readouterr().err


_ONE_EQUATION = (
    '{"kind": "system", "chain": ["0", "1"], "n_vars": 1,'
    ' "equations": [{"monomials": [[1]], "rhs": "1"}]}'
)


def _text_mode_error(path: Path) -> str:
    """The error line `solve` gives for the document at path when the file
    is read in text mode, as `Path.read_text` reads it."""
    try:
        parse_system(path.read_text(encoding="utf-8"))
    except (ValueError, OSError) as exc:
        return f"error: {exc}\n"
    raise AssertionError(f"{path} parsed")


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
def test_a_document_reads_its_newlines_as_text_mode_does(newline, tmp_path, capsys):
    # the JSON error sits on line 3 only once CR LF and a lone CR each read
    # as one newline
    lines = ['{"kind": "system",', ' "chain": ["0", "1"],', ' "n_vars": 1 "equations": []}']
    path = tmp_path / "newlines.json"
    path.write_bytes(newline.join(lines).encode("utf-8"))
    assert fuzzmin.cli._read(str(path)) == path.read_text(encoding="utf-8")
    assert main(["solve", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == _text_mode_error(path)
    assert err.startswith("error: line 3, column 14: ")


@pytest.mark.parametrize("fault", ["missing", "directory", "bom", "invalid utf-8"])
def test_a_file_unreadable_as_a_document_fails_as_in_text_mode(fault, tmp_path, capsys):
    path = tmp_path / "doc.json"
    raw = _ONE_EQUATION.encode("utf-8")
    if fault == "directory":
        path.mkdir()
    elif fault == "bom":
        path.write_bytes(b"\xef\xbb\xbf" + raw)
    elif fault == "invalid utf-8":
        path.write_bytes(raw[:20] + b"\xff" + raw[20:])
    assert main(["solve", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == _text_mode_error(path)


def test_the_subcommand_dispatch_answers_as_the_full_parser(
    eval_doc, system_doc, monkeypatch, capsys
):
    # main hands the arguments straight to the named subcommand's parser;
    # with no subcommand parsers to hand them to, it uses the full parser
    # for every command, so both must give the same exit, output and errors
    monkeypatch.setenv("COLUMNS", "80")
    argvs = [
        ["equiv", "-h"],
        ["equiv", eval_doc, eval_doc],
        ["solve", system_doc, "--frob"],
        ["solve", system_doc, "extra"],
        ["solve", system_doc, "--mode", "points"],
        ["solve"],
        ["solve", system_doc, "--budget-phi"],
        ["eval", eval_doc, "a", "b"],
        ["decide-min", eval_doc, "1", "--budget-phi", "1"],
        ["gen"],
        ["gen", "system", "--seed", "1"],
        ["gen", "system", "--bogus"],
        ["gen", "automaton", "--states", "2", "x"],
        ["-h"],
        [],
    ]
    dispatched = [_outcome(argv, capsys) for argv in argvs]
    parser, _ = fuzzmin.cli._build_parser()
    monkeypatch.setattr(fuzzmin.cli, "_build_parser", lambda: (parser, {}))
    assert [_outcome(argv, capsys) for argv in argvs] == dispatched
    code, out, err = dispatched[2]
    assert (code, out) == (2, "")
    assert err.startswith("usage: fuzzmin [-h]")
    assert err.endswith("fuzzmin: error: unrecognized arguments: --frob\n")


@pytest.mark.parametrize(
    "argv, text",
    [
        (["eval", "{path}", "a"], '{"kind": "automaton", "n": %s}'),
        (
            ["solve", "{path}"],
            '{"kind": "system", "chain": ["0", "1"], "n_vars": 2,'
            ' "equations": [{"monomials": [[%s]], "rhs": "1"}]}',
        ),
    ],
)
def test_an_integer_too_long_to_convert_is_an_input_error(argv, text, tmp_path, capsys):
    path = tmp_path / "long.json"
    path.write_text(text % ("9" * 5000), encoding="utf-8")
    assert main([arg.format(path=path) for arg in argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: an integer has more than {sys.get_int_max_str_digits()} digits\n"


def test_deeply_nested_document_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000, encoding="utf-8")
    assert main(["eval", str(path), "a"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["solve", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_subcommand(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def _outcome(argv, capsys):
    """(exit code, stdout, stderr) of one main call, usage errors included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return (code, *capsys.readouterr())


def test_repeated_main_calls_build_the_parser_once(eval_doc, monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.prog)

    # counts the subcommand parsers too, which are built by the same class
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    fuzzmin.cli._build_parser.cache_clear()
    try:
        assert _outcome(["eval", eval_doc, "a"], capsys)[0] == 0
        one_build = list(built)
        assert one_build.count("fuzzmin") == 1
        assert _outcome(["equiv", eval_doc, eval_doc], capsys)[0] == 0
        assert _outcome(["frobnicate"], capsys)[0] == 2
        assert _outcome(["eval", eval_doc, "a"], capsys)[0] == 0
    finally:
        fuzzmin.cli._build_parser.cache_clear()
    assert built == one_build


def test_importing_the_cli_builds_no_parser():
    code = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def spy(self, *args, **kwargs):\n"
        "    built.append(1)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = spy\n"
        "import fuzzmin.cli\n"
        "print(len(built), fuzzmin.cli._build_parser.cache_info().currsize)\n"
    )
    src = str(Path(fuzzmin.cli.__file__).parents[1])
    run = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert run.stdout == "0 0\n"


def test_the_module_entry_hands_the_exit_code_to_the_shell(tmp_path):
    # `python -m fuzzmin.cli`, in a process of its own: an answer exits 0, a
    # usage error 2 and a budget refusal 3, each with no traceback
    src = str(Path(fuzzmin.cli.__file__).parents[1])

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "fuzzmin.cli", *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
        )

    runs = [run("gen", "automaton", "--seed", "1"), run("frobnicate")]
    path = tmp_path / "a.json"
    shape = ["--states", "3", "--symbols", "2", "--chain-size", "3"]
    path.write_text(run("gen", "automaton", "--seed", "1", *shape).stdout, encoding="utf-8")
    runs.append(run("minimize", str(path), "--budget-phi", "1"))
    assert [r.returncode for r in runs] == [0, 2, 3]
    assert all("Traceback" not in r.stderr for r in runs)
    parse_automaton(runs[0].stdout)
    assert "error: size 2 exceeds budget 1 (cut subsets)\n" in runs[2].stderr


def test_the_shared_parser_answers_as_a_fresh_one(eval_doc, system_doc, monkeypatch, capsys):
    # usage errors, help and valid commands in one process give what each
    # gives on a parser built for it alone
    monkeypatch.setenv("COLUMNS", "80")
    argvs = [
        [],
        ["frobnicate"],
        ["solve", system_doc, "--mode", "nope"],
        ["eval", eval_doc, "a"],
        ["decide-min", eval_doc, "two"],
        ["solve", system_doc],
        ["--help"],
        *([cmd, "--help"] for cmd in ("eval", "equiv", "solve", "decide-min", "minimize", "gen")),
        ["gen", "automaton", "--help"],
        ["gen", "system", "--help"],
        ["gen", "system", "--vars", "x"],
        ["equiv", eval_doc, eval_doc, "--budget-phi", "1"],
        ["eval", eval_doc, ""],
    ]
    fresh = []
    for argv in argvs:
        fuzzmin.cli._build_parser.cache_clear()
        fresh.append(_outcome(argv, capsys))
    shared = [_outcome(argv, capsys) for argv in argvs]
    assert shared == fresh
    assert [code for code, _, _ in shared] == [2, 2, 2, 0, 2, 0, *[0] * 9, 2, 3, 0]
    assert all("Traceback" not in err for _, _, err in shared)
