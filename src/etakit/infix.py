"""The one infix grammar etakit reads: character expressions (`--rho`,
`--chi`) and elements of presented algebras (`--expr`, relation strings,
generator images, Steenrod data).

    expr   := [+|-] term (('+'|'-') term)*
    term   := power ('*' power)*
    power  := atom ('^' integer)*          chained '^' is left-associative
    atom   := name | integer | '(' expr ')'

A leading sign applies to the first term of an expression.  Values are
combined with the operands' own `+ - * **` and unary `-`, so one parser
serves every ring.  Parentheses are kept on an explicit stack of frames
instead of the call stack: nesting depth is bounded by memory only.
"""

from __future__ import annotations

import re
from typing import Any, Callable

_TOKEN = re.compile(r"\s*(?:(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<int>\d+)"
                    r"|(?P<op>[-+*^()])|(?P<bad>\S))")


class _Frame:
    """The state of one expression level: the top level or one '('."""

    __slots__ = ("total", "sign", "product", "negate")

    def __init__(self):
        self.total = None    # sum of the finished terms
        self.sign = "+"      # operator joining the open term to `total`
        self.product = None  # the open term
        self.negate = False  # the open term is the first one and had a '-'


def parse_infix(text: str, atom: Callable[[str, str, int], Any],
                error: Callable[[str, int], Exception]) -> Any:
    """Evaluate `text`.  `atom(kind, value, pos)` resolves a "name" or
    "int" token; `error(message, pos)` builds the exception to raise."""
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise error(f"unexpected character {m.group(kind)!r}", m.start(kind))
        tokens.append((kind, m.group(kind), m.start(kind)))
    tokens.append(("end", "", len(text)))
    it = iter(tokens)
    stack = [_Frame()]
    fresh = True  # at the start of an expression, where a sign may stand
    while True:
        kind, val, pos = next(it)
        if fresh and val in ("+", "-"):
            stack[-1].negate = val == "-"
            kind, val, pos = next(it)
        if val == "(":
            stack.append(_Frame())
            fresh = True
            continue
        if kind not in ("name", "int"):
            raise error(f"unexpected token {val!r}", pos)
        value = atom(kind, val, pos)
        fresh = False
        while True:  # after an operand: powers, then the next operator
            kind, val, pos = next(it)
            if val == "^":
                kind, val, pos = next(it)
                if kind != "int":
                    raise error("exponent must be an integer", pos)
                value = value ** int(val)
                continue
            frame = stack[-1]
            frame.product = value if frame.product is None else frame.product * value
            if val == "*":
                break
            term, frame.product = frame.product, None
            if frame.negate:
                term, frame.negate = -term, False
            if frame.total is None:
                frame.total = term
            else:
                frame.total = frame.total - term if frame.sign == "-" else frame.total + term
            if val in ("+", "-"):
                frame.sign = val
                break
            if val == ")" and len(stack) > 1:
                stack.pop()
                value = frame.total
                continue
            if kind == "end" and len(stack) == 1:
                return frame.total
            if len(stack) > 1:
                raise error("expected ')'", pos)
            raise error(f"unexpected token {val!r}", pos)
