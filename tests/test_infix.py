"""The one infix grammar, through every front end that reads it: algebra
elements, relation strings and virtual characters."""

import json
import re

import pytest

from etakit.cli import ParseError, main, parse_character
from etakit.f2ring import F2ParseError, PresentedF2Algebra
from etakit.grouprep import character_table
from etakit.infix import parse_infix

GENERATORS = [("tau", 1), ("k1", 1)]  # named like two irreducibles of Q8
ALGEBRA = PresentedF2Algebra("t", GENERATORS, [])
Q8 = character_table("q8")


def element_error(text):
    try:
        ALGEBRA.parse(text)
    except F2ParseError as exc:
        return exc.pos, str(exc)
    return None


def relation_error(text):
    try:
        PresentedF2Algebra("r", GENERATORS, [text])
    except F2ParseError as exc:
        return exc.pos, str(exc)
    return None


def character_error(text):
    try:
        parse_character(Q8, text)
    except ParseError as exc:
        return int(re.search(r"at position (\d+)", str(exc)).group(1)), str(exc)
    return None


# (text, position of the error or None, words of the message)
CASES = [
    ("tau", None, ""),
    ("tau + k1", None, ""),
    ("-tau + k1", None, ""),
    ("+tau*k1", None, ""),
    (" ((tau + k1))^2 ", None, ""),
    ("tau^2^3", None, ""),
    ("3*tau*k1 - k1^2", None, ""),
    ("-(-(tau))", None, ""),
    ("", 0, "unexpected token ''"),
    ("tau +", 5, "unexpected token ''"),
    ("tau)", 3, "unexpected token ')'"),
    ("tau k1", 4, "unexpected token 'k1'"),
    ("()", 1, "unexpected token ')'"),
    ("--tau", 1, "unexpected token '-'"),
    ("2*-tau", 2, "unexpected token '-'"),
    ("(tau", 4, "expected ')'"),
    ("((tau) k1", 7, "expected ')'"),
    ("tau^k1", 4, "exponent must be an integer"),
    ("tau^", 4, "exponent must be an integer"),
    ("tau^(2)", 4, "exponent must be an integer"),
    ("2 $ tau", 2, "unexpected character '$'"),
    ("tau +\t$", 6, "unexpected character '$'"),
    ("tau $ )", 4, "unexpected character '$'"),
    ("zeta", 0, "unknown"),
]


@pytest.mark.parametrize("front_end", [element_error, relation_error, character_error])
@pytest.mark.parametrize("text,pos,words", CASES)
def test_front_ends_agree(front_end, text, pos, words):
    got = front_end(text)
    if pos is None:
        assert got is None
    else:
        assert got[0] == pos and words in got[1]


def test_pinned_values():
    tau, k1 = Q8.irreducible("tau"), Q8.irreducible("k1")
    assert parse_character(Q8, "tau^2^3") == (tau ** 2) ** 3
    assert parse_character(Q8, "-tau+k1") == k1 - tau
    assert parse_character(Q8, "-tau*k1 - k1") == -(tau * k1) - k1
    assert ALGEBRA.parse("tau^2^3") == ALGEBRA.parse("tau^6")
    assert ALGEBRA.parse("-tau+k1") == ALGEBRA.parse("tau + k1")
    assert PresentedF2Algebra("r", GENERATORS, ["tau^2^3"]).raw_relations == \
        (frozenset({(6, 0)}),)


def test_evaluates_with_the_operands_own_operators():
    def atom(kind, value, pos):
        return int(value) if kind == "int" else {"a": 7, "b": 3}[value]

    assert parse_infix("-a*b + (a - b)^2 - 2^3^2", atom, ValueError) == -21 + 16 - 64


DEPTH = 3000


def nested(text):
    return "(" * DEPTH + text + ")" * DEPTH


class TestDeepNesting:
    def test_expr(self, capsys):
        assert main(["nf", "--algebra", "sd", "--expr", nested("y*u^3")]) == 0
        assert capsys.readouterr().out == "y^3*u*P\n"

    def test_rho(self, capsys):
        assert main(["eta", "quaternion", "--k", "1", "--rho", nested("(2-tau)^2")]) == 0
        assert capsys.readouterr().out == "7/8 (order 8 mod Z)\n"

    def test_relation(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text(json.dumps({"algebras": {"deep": {
            "generators": [["e", 1], ["w", 2]], "relations": [nested("e^2")]}}}))
        assert main(["--config", str(path), "basis", "--algebra", "custom:deep",
                     "--degree", "3"]) == 0
        assert capsys.readouterr().out == "e*w\n"

    def test_unclosed(self, capsys):
        assert main(["nf", "--algebra", "sd", "--expr", "(" * DEPTH + "x"]) == 1
        assert capsys.readouterr().err == \
            f"F2ParseError: expected ')' (line 1, column {DEPTH + 2})\n"
