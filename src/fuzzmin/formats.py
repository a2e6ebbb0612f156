"""Bit-exact JSON documents for automata and equation systems.

Values travel as decimal strings so nothing is ever rounded.  Render emits a
fixed key order and a trailing newline, making rendered documents canonical:
parse(render(x)) == x, and render(parse(t)) is the canonical form of t:
the text of json.dump(doc, indent=2, ensure_ascii=False) plus a newline,
written out directly.  The command line writes it straight to stdout, one
string per matrix row or per equation, so a large document is never held
whole as a string.

Automaton documents: kind, chain (ascending decimal labels), alphabet, n,
pi (n values), eta (n values), delta (symbol -> n*n values, row-major).
System documents: kind, chain, n_vars, equations; each equation is a list of
monomials (1-based variable index lists) plus an rhs value.

Parsing is strict: unknown or duplicate keys, wrong shapes, and values
missing from the declared chain are all errors.  A weight list maps to ranks
in one pass of label lookups (`Chain.label_ranks`); only a list with a miss
is walked item by item, to accept another spelling of a label or to name the
bad item in the error.  Those checks cover every check the constructors of
`FuzzyMatrix`, `FuzzyAutomaton`, `Monomial`, `Polynomial`, `Equation` and
`EquationSystem` make, so the parsed objects are built without running them
again.  The last chain parsed is reused when the next document declares the
same labels, as both documents of an `equiv` pair usually do.
"""

from __future__ import annotations

import io
import json
import sys
from functools import lru_cache
from typing import Any, Iterable, TextIO

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
    except DocumentError:
        raise
    except ValueError:
        # the one other error json raises: int() refuses a literal longer
        # than sys.get_int_max_str_digits()
        limit = sys.get_int_max_str_digits()
        raise DocumentError(f"an integer has more than {limit} digits") from None


def _root_object(text: str, kind: str) -> dict[str, Any]:
    doc = _decode(text)
    if not isinstance(doc, dict):
        raise DocumentError("document root must be an object")
    got = doc.get("kind")
    if got != kind:
        raise DocumentError(f"expected a {kind} document, got kind={got!r}")
    return doc


def _expect_keys(obj: dict[str, Any], keys: tuple[str, ...], where: str = "document") -> None:
    if obj.keys() == set(keys):
        return
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
        return _chain(tuple(raw))
    except ValueError as exc:
        raise DocumentError(f"chain: {exc}") from None


@lru_cache(maxsize=1)
def _chain(labels: tuple[str, ...]) -> Chain:
    return Chain(labels)


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


def _prechecked(cls: type, **fields: Any) -> Any:
    """An instance of the frozen dataclass cls holding fields as given,
    without running the checks of its constructor: the parser has made each
    of them already."""
    self = object.__new__(cls)
    self.__dict__.update(fields)
    return self


def _matrix(chain: Chain, rows: int, cols: int, raw: Any, where: str) -> FuzzyMatrix:
    # _value_ranks checks what FuzzyMatrix would: the length and every rank
    data = _value_ranks(chain, raw, rows * cols, where)
    return _prechecked(FuzzyMatrix, chain=chain, rows=rows, cols=cols, data=data)


def parse_automaton(text: str) -> FuzzyAutomaton:
    payload = _root_object(text, "automaton")
    _expect_keys(payload, _AUTOMATON_KEYS)
    chain = _parse_chain(payload["chain"])
    alphabet = _parse_alphabet(payload["alphabet"])
    n = _positive_int(payload["n"], "n")
    pi = _matrix(chain, 1, n, payload["pi"], "pi")
    eta = _matrix(chain, n, 1, payload["eta"], "eta")
    raw_delta = payload["delta"]
    if not isinstance(raw_delta, dict):
        raise DocumentError("delta must be an object mapping symbols to value lists")
    missing = [s for s in alphabet if s not in raw_delta]
    if missing:
        raise DocumentError(f"delta: missing symbol(s): {', '.join(missing)}")
    extra = [s for s in raw_delta if s not in alphabet]
    if extra:
        raise DocumentError(f"delta: unknown symbol(s): {', '.join(extra)}")
    delta = tuple(_matrix(chain, n, n, raw_delta[sym], f"delta[{sym}]") for sym in alphabet)
    # every part was checked above, and shares the one chain, as FuzzyAutomaton asks
    return _prechecked(
        FuzzyAutomaton, chain=chain, alphabet=alphabet, pi=pi, eta=eta, delta=delta
    )


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
        # vars tuple -> monomial, the first of each kept, as Polynomial keeps it
        monomials: dict[tuple[int, ...], Monomial] = {}
        for j, mono in enumerate(raw_monos):
            if not isinstance(mono, list) or not mono:
                raise DocumentError(
                    f"{where}.monomials[{j}] must be a nonempty list of variable indices"
                )
            for idx in mono:
                if type(idx) is not int or not 1 <= idx <= n_vars:
                    raise DocumentError(
                        f"{where}.monomials[{j}]: variable index {idx!r} "
                        f"out of range 1..{n_vars}"
                    )
            vs = tuple(sorted({idx - 1 for idx in mono}))
            if vs not in monomials:
                monomials[vs] = _prechecked(Monomial, vars=vs)
        rhs = chain[_value_rank(chain, raw["rhs"], f"{where}.rhs")]
        lhs = _prechecked(Polynomial, monomials=tuple(monomials.values()))
        equations.append(_prechecked(Equation, lhs=lhs, relation=Relation.EQ, rhs=rhs))
    # every monomial is a sorted, duplicate-free, nonempty index tuple checked
    # against n_vars, every polynomial holds each monomial once, and every rhs
    # is on the chain: all that Monomial, Polynomial and EquationSystem check
    return _prechecked(
        EquationSystem, chain=chain, n_vars=n_vars, equations=tuple(equations)
    )


def _list(items: Iterable[str], indent: str) -> str:
    """A nonempty list of items, each already JSON, laid out as json.dump
    with indent=2 lays it out when its items sit at indent."""
    return f"[\n{indent}" + f",\n{indent}".join(items) + f"\n{indent[2:]}]"


def _write_automaton(a: FuzzyAutomaton, out: TextIO) -> None:
    quoted = [json.dumps(label) for label in a.chain.labels]
    label = quoted.__getitem__
    symbols = [json.dumps(sym, ensure_ascii=False) for sym in a.alphabet]
    n = a.n
    out.write(
        '{\n  "kind": "automaton",\n  "chain": ' + _list(quoted, "    ")
        + ',\n  "alphabet": ' + _list(symbols, "    ")
        + f',\n  "n": {n},\n  "pi": ' + _list(map(label, a.pi.data), "    ")
        + ',\n  "eta": ' + _list(map(label, a.eta.data), "    ")
        + ',\n  "delta": {'
    )
    for s, sym in enumerate(symbols):
        data = a.delta[s].data
        lead = ("\n    " if s == 0 else ",\n    ") + sym + ": [\n      "
        for i in range(0, n * n, n):
            out.write(lead + ",\n      ".join(map(label, data[i : i + n])))
            lead = ",\n      "
        out.write("\n    ]")
    out.write("\n  }\n}\n")


def _write_system(s: EquationSystem, out: TextIO) -> None:
    quoted = [json.dumps(label) for label in s.chain.labels]
    out.write(
        '{\n  "kind": "system",\n  "chain": ' + _list(quoted, "    ")
        + f',\n  "n_vars": {s.n_vars},\n  "equations": ['
    )
    lead = "\n    "
    for eq in s.equations:
        monomials = [_list([str(v + 1) for v in m.vars], " " * 10) for m in eq.lhs.monomials]
        out.write(
            lead + '{\n      "monomials": ' + _list(monomials, " " * 8)
            + ',\n      "rhs": ' + quoted[eq.rhs.rank] + "\n    }"
        )
        lead = ",\n    "
    out.write("\n  ]\n}\n")


def render_automaton(a: FuzzyAutomaton) -> str:
    buf = io.StringIO()
    _write_automaton(a, buf)
    return buf.getvalue()


def render_system(s: EquationSystem) -> str:
    buf = io.StringIO()
    _write_system(s, buf)
    return buf.getvalue()
