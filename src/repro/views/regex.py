"""Regular expressions for RPQs: AST, parser, Thompson construction.

Syntax (whitespace-insensitive)::

    expr    ::=  term ('|' term)*
    term    ::=  factor+                      (concatenation by juxtaposition)
    factor  ::=  base ('*' | '+' | '?')*
    base    ::=  SYMBOL | 'ε' | '()' group

Symbols are identifiers (``[A-Za-z0-9_]+``); ``ε`` (or ``eps``) denotes the
empty word and ``∅`` (or ``empty``) the empty language.  ``e+`` and ``e?``
are sugar for ``e e*`` and ``(e|ε)``.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

from repro.errors import ParseError
from repro.views.automata import NFA

__all__ = [
    "Regex",
    "SymbolRe",
    "EpsilonRe",
    "EmptyRe",
    "ConcatRe",
    "UnionRe",
    "StarRe",
    "parse_regex",
    "regex_to_nfa",
    "symbols_of",
]


@dataclass(frozen=True)
class SymbolRe:
    symbol: str


@dataclass(frozen=True)
class EpsilonRe:
    pass


@dataclass(frozen=True)
class EmptyRe:
    pass


@dataclass(frozen=True)
class ConcatRe:
    parts: tuple


@dataclass(frozen=True)
class UnionRe:
    parts: tuple


@dataclass(frozen=True)
class StarRe:
    inner: "Regex"


Regex = SymbolRe | EpsilonRe | EmptyRe | ConcatRe | UnionRe | StarRe

_TOKEN = re.compile(r"\s*(?:(?P<sym>[A-Za-z0-9_]+)|(?P<op>[()|*+?])|(?P<eps>ε)|(?P<emp>∅))")


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            rest = text[pos:].strip()
            if not rest:
                break
            raise ParseError(f"cannot tokenize regex near {rest[:15]!r}")
        pos = m.end()
        for kind in ("sym", "op", "eps", "emp"):
            value = m.group(kind)
            if value is not None:
                tokens.append((kind, value))
                break
    return tokens


def parse_regex(text: str) -> Regex:
    """Parse the textual syntax above into a :data:`Regex` AST."""
    tokens = _tokenize(text)
    pos = [0]

    def peek() -> tuple[str, str] | None:
        return tokens[pos[0]] if pos[0] < len(tokens) else None

    def advance() -> tuple[str, str]:
        tok = peek()
        if tok is None:
            raise ParseError("unexpected end of regex")
        pos[0] += 1
        return tok

    def parse_union() -> Regex:
        parts = [parse_concat()]
        while (tok := peek()) and tok[1] == "|":
            advance()
            parts.append(parse_concat())
        return parts[0] if len(parts) == 1 else UnionRe(tuple(parts))

    def parse_concat() -> Regex:
        parts = []
        while (tok := peek()) and not (tok[0] == "op" and tok[1] in ")|"):
            parts.append(parse_postfix())
        if not parts:
            return EpsilonRe()
        return parts[0] if len(parts) == 1 else ConcatRe(tuple(parts))

    def parse_postfix() -> Regex:
        node = parse_base()
        while (tok := peek()) and tok[0] == "op" and tok[1] in "*+?":
            advance()
            if tok[1] == "*":
                node = StarRe(node)
            elif tok[1] == "+":
                node = ConcatRe((node, StarRe(node)))
            else:
                node = UnionRe((node, EpsilonRe()))
        return node

    def parse_base() -> Regex:
        kind, value = advance()
        if kind == "sym":
            if value in ("eps",):
                return EpsilonRe()
            if value in ("empty",):
                return EmptyRe()
            return SymbolRe(value)
        if kind == "eps":
            return EpsilonRe()
        if kind == "emp":
            return EmptyRe()
        if value == "(":
            inner = parse_union()
            tok = advance()
            if tok[1] != ")":
                raise ParseError(f"expected ')', got {tok[1]!r}")
            return inner
        raise ParseError(f"unexpected token {value!r}")

    result = parse_union()
    if pos[0] != len(tokens):
        raise ParseError(f"trailing regex input at token {tokens[pos[0]]!r}")
    return result


def symbols_of(regex: Regex) -> frozenset[str]:
    """All alphabet symbols occurring in the expression."""
    if isinstance(regex, SymbolRe):
        return frozenset({regex.symbol})
    if isinstance(regex, (EpsilonRe, EmptyRe)):
        return frozenset()
    if isinstance(regex, StarRe):
        return symbols_of(regex.inner)
    out: frozenset[str] = frozenset()
    for part in regex.parts:
        out |= symbols_of(part)
    return out


_counter = itertools.count()


def _fresh() -> int:
    return next(_counter)


def regex_to_nfa(regex: Regex | str, alphabet: frozenset[str] | None = None) -> NFA:
    """Thompson's construction; ``alphabet`` may extend the symbols used."""
    if isinstance(regex, str):
        regex = parse_regex(regex)
    alphabet = (alphabet or frozenset()) | symbols_of(regex)

    transitions: dict[tuple, set] = {}
    states: set = set()

    def add(src, symbol, dst) -> None:
        transitions.setdefault((src, symbol), set()).add(dst)

    def build(node: Regex) -> tuple:
        """Return ``(start, end)`` states of the fragment."""
        start, end = _fresh(), _fresh()
        states.add(start)
        states.add(end)
        if isinstance(node, SymbolRe):
            add(start, node.symbol, end)
        elif isinstance(node, EpsilonRe):
            add(start, None, end)
        elif isinstance(node, EmptyRe):
            pass  # no path from start to end
        elif isinstance(node, ConcatRe):
            prev = start
            for part in node.parts:
                s, e = build(part)
                add(prev, None, s)
                prev = e
            add(prev, None, end)
        elif isinstance(node, UnionRe):
            for part in node.parts:
                s, e = build(part)
                add(start, None, s)
                add(e, None, end)
        elif isinstance(node, StarRe):
            s, e = build(node.inner)
            add(start, None, s)
            add(e, None, s)
            add(start, None, end)
            add(e, None, end)
        else:
            raise ParseError(f"unknown regex node {node!r}")
        return start, end

    start, end = build(regex)
    return NFA(states, alphabet, transitions, {start}, {end})
