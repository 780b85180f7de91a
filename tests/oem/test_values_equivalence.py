"""Deciding a coercion once decides it the same way.

``compare`` skips ``coerce_pair`` when both sides already have a
comparable type, ``comparator(op, literal)`` settles per literal what
``holds`` rediscovers per value, ``like_matcher(pattern)`` compiles what
``like`` rebuilt per row.  Each must answer exactly as the general route
does -- checked exhaustively over a grid holding every atomic type, the
strings that read as numbers or timestamps, and the non-values.
"""

from __future__ import annotations

import itertools
import re

import pytest

from repro import COMPLEX, parse_timestamp
from repro.errors import TimestampError
from repro.lorel.eval import Evaluator
from repro.oem.values import (
    _OPERATORS, coerce_pair, comparator, compare, holds, is_atomic_value,
    like, like_matcher)
from repro.timestamps import NEG_INF, POS_INF, Timestamp

OPS = ("=", "==", "!=", "<>", "<", "<=", ">", ">=")
GRID = [
    0, 1, -3, 9, 10, 852163200, 2.5, 1.0, -0.0, 1e3, float("inf"),
    True, False,
    "", "n03", "abc", "ABC", "true", "10", "9", " 7 ", "1e3", "2.5", "-3",
    "1Jan97", "4Jan97", "1997-01-01", "1/8/97", "1Jan97 11:30pm",
    parse_timestamp("1Jan97"), parse_timestamp("4Jan97"), Timestamp(5),
    POS_INF, NEG_INF,
    COMPLEX, None,
]


def compare_by_coercion(left: object, right: object, op: str) -> bool:
    """``compare`` as it stood: every pair through ``coerce_pair``."""
    if left is COMPLEX or right is COMPLEX or left is None or right is None:
        return False
    if not (is_atomic_value(left) and is_atomic_value(right)):
        return False
    pair = coerce_pair(left, right)
    if pair is None:
        return False
    return _OPERATORS[op](*pair)


def holds_by_coercion(left: object, op: str, right: object) -> bool:
    """``Evaluator._holds`` as it stood, over ``compare`` as it stood."""
    if isinstance(left, Timestamp) or isinstance(right, Timestamp):
        try:
            left, right = parse_timestamp(left), parse_timestamp(right)
        except Exception:
            return False
    return compare_by_coercion(left, right, op)


def like_per_row(value: object, pattern: str) -> bool:
    """``like`` as it stood: the regex text rebuilt for every value."""
    if value is COMPLEX or value is None:
        return False
    if isinstance(value, Timestamp):
        text = str(value)
    elif isinstance(value, bool):
        text = "true" if value else "false"
    elif isinstance(value, (int, float)):
        text = str(value)
    elif isinstance(value, str):
        text = value
    else:
        return False
    regex = "".join(
        ".*" if ch == "%" else "." if ch == "_" else re.escape(ch)
        for ch in pattern)
    return re.fullmatch(regex, text, flags=re.DOTALL) is not None


def test_the_grid_names_every_operator():
    assert set(OPS) == set(_OPERATORS)


@pytest.mark.parametrize("op", OPS)
def test_compare_shortcut_is_the_coercion_route(op):
    for left, right in itertools.product(GRID, repeat=2):
        assert compare(left, right, op) is \
            compare_by_coercion(left, right, op), (left, op, right)


@pytest.mark.parametrize("op", OPS)
def test_comparator_is_holds(op):
    for literal in GRID:
        test = comparator(op, literal)
        for value in GRID:
            expected = holds_by_coercion(value, op, literal)
            assert test(value) is expected, (value, op, literal)
            assert Evaluator._holds(value, op, literal) is expected
            assert holds(value, op, literal) is expected


def test_what_must_not_be_shortcut():
    # Two numeric-looking strings still compare as strings ...
    assert comparator("<", "9")("10") is compare("10", "9", "<") is True
    # ... a number against one as numbers, booleans as numbers.
    assert comparator("<", "9")(10) is False
    assert comparator("=", 1)(True) is compare(True, 1) is True
    assert comparator("=", True)(1) is True
    # Beside a timestamp an int is raw ticks (``holds``, not ``compare``).
    assert comparator(">", 5)(parse_timestamp("1Jan97")) is True
    assert compare(parse_timestamp("1Jan97"), 5, ">") is False
    # Failed coercions stay False for every operator, != included.
    for op in OPS:
        assert comparator(op, "abc")(3) is False
        assert comparator(op, 3)("abc") is False
        assert comparator(op, "abc")(COMPLEX) is False


def test_a_settled_literal_never_raises():
    """``32Jan97`` reads as a timestamp and is none: the general route
    raises on it; against a plain-text literal it is text."""
    with pytest.raises(TimestampError):
        holds("32Jan97", "=", "abc")
    assert comparator("=", "abc")("32Jan97") is False
    assert comparator("!=", "abc")("32Jan97") is True


def test_unknown_operator():
    from repro.errors import ValueError_
    with pytest.raises(ValueError_):
        comparator("~", 1)
    with pytest.raises(ValueError_):
        compare(1, 2, "~")


@pytest.mark.parametrize("pattern", [
    "%", "", "_", "n0_", "%a%", "a.c", "1%", "%97", "tr_e", "(%", "%\n%"])
def test_like_matcher_is_like(pattern):
    matches = like_matcher(pattern)
    for value in GRID + ["a.c", "abc\ndef", "(x", object()]:
        expected = like_per_row(value, pattern)
        assert matches(value) is expected, (value, pattern)
        assert like(value, pattern) is expected, (value, pattern)
    assert like("abc", "a%") and not like("abc", "b%")
    assert like(True, "tr%") and like(12, "1_") and not like(COMPLEX, "%")
