"""Bit-exact JSON documents for automata and equation systems.

Values travel as decimal strings so nothing is ever rounded.  Render emits a
fixed key order and a trailing newline, making rendered documents canonical:
parse(render(x)) == x, and render(parse(t)) is the canonical form of t.
The command line writes the same text straight to stdout through one
streaming encoder, so a large document is never held whole as a string.

Automaton documents: kind, chain (ascending decimal labels), alphabet, n,
pi (n values), eta (n values), delta (symbol -> n*n values, row-major).
System documents: kind, chain, n_vars, equations; each equation is a list of
monomials (1-based variable index lists) plus an rhs value.

Parsing is strict: unknown or duplicate keys, wrong shapes, and values
missing from the declared chain are all errors.
"""

from __future__ import annotations

import io
import json
from typing import Any, TextIO

from .automaton import FuzzyAutomaton, FuzzyMatrix, _SYMBOL_RULE, _plain_symbol
from .chain import Chain, is_decimal_label
from .equations import Equation, EquationSystem, Monomial, Polynomial, Relation
from .errors import DocumentError

_AUTOMATON_KEYS = ("kind", "chain", "alphabet", "n", "pi", "eta", "delta")
_SYSTEM_KEYS = ("kind", "chain", "n_vars", "equations")


def _reject_duplicates(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    out: dict[str, Any] = {}
    for key, value in pairs:
        if key in out:
            raise DocumentError(f"duplicate key {key!r}")
        out[key] = value
    return out


def _decode(text: str) -> Any:
    try:
        return json.loads(text, object_pairs_hook=_reject_duplicates)
    except json.JSONDecodeError as exc:
        raise DocumentError(exc.msg, line=exc.lineno, column=exc.colno) from exc
    except RecursionError:
        raise DocumentError("document nests too deeply") from None


def _root_object(text: str, kind: str) -> dict[str, Any]:
    doc = _decode(text)
    if not isinstance(doc, dict):
        raise DocumentError("document root must be an object")
    got = doc.get("kind")
    if got != kind:
        raise DocumentError(f"expected a {kind} document, got kind={got!r}")
    return doc


def _expect_keys(obj: dict[str, Any], keys: tuple[str, ...], where: str = "document") -> None:
    missing = [k for k in keys if k not in obj]
    if missing:
        raise DocumentError(f"{where}: missing field(s): {', '.join(missing)}")
    extra = [k for k in obj if k not in keys]
    if extra:
        raise DocumentError(f"{where}: unknown field(s): {', '.join(extra)}")


def _parse_chain(raw: Any) -> Chain:
    if not isinstance(raw, list) or not all(isinstance(x, str) for x in raw):
        raise DocumentError("chain must be a list of decimal strings")
    try:
        return Chain(tuple(raw))
    except ValueError as exc:
        raise DocumentError(f"chain: {exc}") from None


def _parse_alphabet(raw: Any) -> tuple[str, ...]:
    if (
        not isinstance(raw, list)
        or not raw
        or not all(isinstance(x, str) and x for x in raw)
    ):
        raise DocumentError("alphabet must be a nonempty list of symbol names")
    for sym in raw:
        if not _plain_symbol(sym):
            raise DocumentError(f"alphabet: bad symbol {sym!r}: {_SYMBOL_RULE}")
    if len(set(raw)) != len(raw):
        raise DocumentError("alphabet symbols must be distinct")
    return tuple(raw)


def _positive_int(raw: Any, where: str) -> int:
    if type(raw) is not int or raw < 1:
        raise DocumentError(f"{where} must be a positive integer")
    return raw


def _value_rank(chain: Chain, raw: Any, where: str) -> int:
    if not isinstance(raw, str) or not is_decimal_label(raw):
        raise DocumentError(f"{where}: values must be decimal strings, got {raw!r}")
    try:
        return chain.rank_of(raw)
    except ValueError:
        raise DocumentError(f"{where}: value {raw} is not in the chain") from None


def _value_ranks(chain: Chain, raw: Any, count: int, where: str) -> tuple[int, ...]:
    if not isinstance(raw, list) or len(raw) != count:
        raise DocumentError(f"{where} must be a list of {count} values")
    ranks = chain.label_ranks(raw)
    if ranks is None:  # another spelling, or an error to report item by item
        ranks = tuple(_value_rank(chain, item, where) for item in raw)
    return ranks


def parse_automaton(text: str) -> FuzzyAutomaton:
    payload = _root_object(text, "automaton")
    _expect_keys(payload, _AUTOMATON_KEYS)
    chain = _parse_chain(payload["chain"])
    alphabet = _parse_alphabet(payload["alphabet"])
    n = _positive_int(payload["n"], "n")
    pi = FuzzyMatrix(chain, 1, n, _value_ranks(chain, payload["pi"], n, "pi"))
    eta = FuzzyMatrix(chain, n, 1, _value_ranks(chain, payload["eta"], n, "eta"))
    raw_delta = payload["delta"]
    if not isinstance(raw_delta, dict):
        raise DocumentError("delta must be an object mapping symbols to value lists")
    missing = [s for s in alphabet if s not in raw_delta]
    if missing:
        raise DocumentError(f"delta: missing symbol(s): {', '.join(missing)}")
    extra = [s for s in raw_delta if s not in alphabet]
    if extra:
        raise DocumentError(f"delta: unknown symbol(s): {', '.join(extra)}")
    delta = tuple(
        FuzzyMatrix(
            chain, n, n, _value_ranks(chain, raw_delta[sym], n * n, f"delta[{sym}]")
        )
        for sym in alphabet
    )
    return FuzzyAutomaton(chain, alphabet, pi, eta, delta)


def parse_system(text: str) -> EquationSystem:
    payload = _root_object(text, "system")
    _expect_keys(payload, _SYSTEM_KEYS)
    chain = _parse_chain(payload["chain"])
    n_vars = _positive_int(payload["n_vars"], "n_vars")
    raw_eqs = payload["equations"]
    if not isinstance(raw_eqs, list) or not raw_eqs:
        raise DocumentError("equations must be a nonempty list")
    equations = []
    for i, raw in enumerate(raw_eqs):
        where = f"equations[{i}]"
        if not isinstance(raw, dict):
            raise DocumentError(f"{where} must be an object")
        _expect_keys(raw, ("monomials", "rhs"), where=where)
        raw_monos = raw["monomials"]
        if not isinstance(raw_monos, list) or not raw_monos:
            raise DocumentError(f"{where}.monomials must be a nonempty list")
        monomials = []
        for j, mono in enumerate(raw_monos):
            if not isinstance(mono, list) or not mono:
                raise DocumentError(
                    f"{where}.monomials[{j}] must be a nonempty list of variable indices"
                )
            vs = []
            for idx in mono:
                if type(idx) is not int or not 1 <= idx <= n_vars:
                    raise DocumentError(
                        f"{where}.monomials[{j}]: variable index {idx!r} "
                        f"out of range 1..{n_vars}"
                    )
                vs.append(idx - 1)
            monomials.append(Monomial(tuple(vs)))
        rhs = chain[_value_rank(chain, raw["rhs"], f"{where}.rhs")]
        equations.append(Equation(Polynomial(tuple(monomials)), Relation.EQ, rhs))
    return EquationSystem(chain, n_vars, tuple(equations))


def _write(doc: dict[str, Any], out: TextIO) -> None:
    # one encoder streams the chunks to out, so no whole text is held
    json.dump(doc, out, indent=2, ensure_ascii=False)
    out.write("\n")


def _write_automaton(a: FuzzyAutomaton, out: TextIO) -> None:
    label = a.chain.label
    _write(
        {
            "kind": "automaton",
            "chain": list(a.chain.labels),
            "alphabet": list(a.alphabet),
            "n": a.n,
            "pi": [label(r) for r in a.pi.data],
            "eta": [label(r) for r in a.eta.data],
            "delta": {
                sym: [label(r) for r in a.delta[s].data]
                for s, sym in enumerate(a.alphabet)
            },
        },
        out,
    )


def _write_system(s: EquationSystem, out: TextIO) -> None:
    equations = [
        {
            "monomials": [[v + 1 for v in m.vars] for m in eq.lhs.monomials],
            "rhs": eq.rhs.label,
        }
        for eq in s.equations
    ]
    _write(
        {
            "kind": "system",
            "chain": list(s.chain.labels),
            "n_vars": s.n_vars,
            "equations": equations,
        },
        out,
    )


def render_automaton(a: FuzzyAutomaton) -> str:
    buf = io.StringIO()
    _write_automaton(a, buf)
    return buf.getvalue()


def render_system(s: EquationSystem) -> str:
    buf = io.StringIO()
    _write_system(s, buf)
    return buf.getvalue()
