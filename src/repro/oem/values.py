"""The atomic value domain of OEM and Lorel's forgiving coercion rules.

Definition 2.1 maps every node to "a value that is an integer, string,
etc., or the reserved value C (for complex)".  We support integers, reals,
strings, booleans, and timestamps (the last so that DOEM annotations can be
encoded in plain OEM, Section 5.1).

Section 4.1 describes Lorel's type system: "When faced with the task of
comparing different types, Lorel first tries to coerce them to a common
type.  When such coercions fail, the comparison simply returns false
instead of raising an error."  :func:`compare` implements exactly that
behaviour, and :func:`like` implements SQL-style pattern matching used by
Lorel's ``like`` operator.
"""

from __future__ import annotations

import re
from typing import Callable, Union

from ..errors import ValueError_
from ..timestamps import Timestamp, parse_timestamp
from ..timestamps import is_timestamp_literal as _is_ts_literal

__all__ = [
    "COMPLEX",
    "Complex",
    "AtomicValue",
    "Value",
    "is_atomic_value",
    "check_value",
    "value_repr",
    "coerce_pair",
    "compare",
    "holds",
    "comparator",
    "like",
    "like_matcher",
]


class Complex:
    """The reserved value ``C`` marking complex (non-atomic) objects.

    There is a single instance, :data:`COMPLEX`; identity comparison is
    safe and the instance is falsy so that ``if node_value:`` reads well.
    """

    _instance: "Complex | None" = None

    def __new__(cls) -> "Complex":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "COMPLEX"

    def __bool__(self) -> bool:
        return False

    def __deepcopy__(self, memo: dict) -> "Complex":
        return self

    def __copy__(self) -> "Complex":
        return self


COMPLEX = Complex()
"""The singleton reserved value ``C`` of Definition 2.1."""

AtomicValue = Union[int, float, str, bool, Timestamp]
"""Python types admitted as atomic OEM values."""

Value = Union[AtomicValue, Complex]
"""Any legal node value: an atomic value or :data:`COMPLEX`."""


def is_atomic_value(value: object) -> bool:
    """Return True when ``value`` belongs to the atomic value domain."""
    return isinstance(value, (int, float, str, bool, Timestamp)) \
        and not isinstance(value, Complex)


def check_value(value: object) -> Value:
    """Validate that ``value`` is a legal OEM node value and return it.

    Raises :class:`~repro.errors.ValueError_` for anything outside the
    domain (lists, dicts, None, ...).
    """
    if value is COMPLEX or is_atomic_value(value):
        return value  # type: ignore[return-value]
    raise ValueError_(
        f"illegal OEM value {value!r}: expected int, float, str, bool, "
        f"Timestamp, or COMPLEX")


def value_repr(value: Value) -> str:
    """A stable, human-readable rendering of a node value."""
    if value is COMPLEX:
        return "C"
    if isinstance(value, str):
        return repr(value)
    return str(value)


# ---------------------------------------------------------------------------
# Lorel coercion
# ---------------------------------------------------------------------------

_NUMERIC_RE = re.compile(r"^\s*[-+]?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?\s*$")


def _as_number(value: AtomicValue) -> float | int | None:
    """Try to view ``value`` as a number; return None when impossible."""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, (int, float)):
        return value
    if isinstance(value, str) and _NUMERIC_RE.match(value):
        try:
            return int(value)
        except ValueError:
            pass
        try:
            return float(value)
        except ValueError:  # ``\s`` matches separators float() refuses
            return None
    return None


def _as_timestamp(value: AtomicValue) -> Timestamp | None:
    """Try to view ``value`` as a timestamp; return None when impossible."""
    if isinstance(value, Timestamp):
        return value
    if isinstance(value, str) and _is_ts_literal(value):
        return parse_timestamp(value)
    return None


def coerce_pair(left: AtomicValue, right: AtomicValue):
    """Coerce two atomic values to a common comparable type.

    Returns a ``(left', right')`` pair on success or ``None`` when no
    coercion exists.  The coercion lattice, mirroring Lorel:

    * timestamp vs. timestamp-like string -> timestamps;
    * number vs. number-like (int, float, bool, numeric string) -> numbers;
    * string vs. string -> strings;
    * everything else -> no coercion (comparisons then yield False).
    """
    left_ts, right_ts = _as_timestamp(left), _as_timestamp(right)
    if isinstance(left, Timestamp) or isinstance(right, Timestamp):
        if left_ts is not None and right_ts is not None:
            return left_ts, right_ts
        return None

    left_num, right_num = _as_number(left), _as_number(right)
    if isinstance(left, (int, float)) or isinstance(right, (int, float)):
        if left_num is not None and right_num is not None:
            return left_num, right_num
        return None

    if isinstance(left, str) and isinstance(right, str):
        # Two strings that both look like timestamps compare temporally.
        if left_ts is not None and right_ts is not None:
            return left_ts, right_ts
        return left, right

    return None


_OPERATORS = {
    "=": lambda a, b: a == b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<>": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


# No coercion needed (``bool`` is absent: it compares as a number).
_COMPARABLE_AS_IS = {(int, int), (int, float), (float, int), (float, float),
                     (Timestamp, Timestamp)}


def _operator(op: str):
    if op not in _OPERATORS:
        raise ValueError_(f"unknown comparison operator: {op!r}")
    return _OPERATORS[op]


def compare(left: object, right: object, op: str = "=") -> bool:
    """Lorel's forgiving comparison (Example 4.1).

    Complex values and failed coercions make the comparison return
    ``False`` -- never an error.  ``op`` is one of ``= == != <> < <= > >=``.
    """
    operator = _operator(op)
    if (type(left), type(right)) in _COMPARABLE_AS_IS:
        return operator(left, right)
    if left is COMPLEX or right is COMPLEX or left is None or right is None:
        return False
    if not (is_atomic_value(left) and is_atomic_value(right)):
        return False
    pair = coerce_pair(left, right)  # type: ignore[arg-type]
    if pair is None:
        return False
    coerced_left, coerced_right = pair
    return operator(coerced_left, coerced_right)


def holds(left: object, op: str, right: object) -> bool:
    """:func:`compare` as ``where`` applies it: beside a timestamp the other
    side is read by :func:`parse_timestamp` (an ``int``: raw ticks) or fails."""
    if isinstance(left, Timestamp) or isinstance(right, Timestamp):
        try:
            left, right = parse_timestamp(left), parse_timestamp(right)
        except Exception:
            return False
    return compare(left, right, op)


def comparator(op: str, literal: object) -> Callable[[object], bool]:
    """``value -> holds(value, op, literal)``, the coercion decided once:
    a string literal that reads as neither timestamp nor number meets a
    string as a string, a number literal a number as a number -- one
    operator call.  Any other value or literal takes :func:`holds`."""
    operator = _operator(op)
    as_is: tuple = ()
    if type(literal) in (int, float):
        as_is = (int, float)
    elif type(literal) is str and not (_is_ts_literal(literal)
                                       or _NUMERIC_RE.match(literal)):
        as_is = (str,)

    def test(value: object) -> bool:
        if type(value) in as_is:
            return operator(value, literal)
        return holds(value, op, literal)
    return test


def like_matcher(pattern: str) -> Callable[[object], bool]:
    """``value -> like(value, pattern)``, the pattern compiled once."""
    fullmatch = re.compile(
        "".join(".*" if ch == "%" else "." if ch == "_" else re.escape(ch)
                for ch in pattern), flags=re.DOTALL).fullmatch

    def matches(value: object) -> bool:
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, (int, float, Timestamp)):
            value = str(value)
        return isinstance(value, str) and fullmatch(value) is not None
    return matches


def like(value: object, pattern: str) -> bool:
    """SQL-style ``like`` matching with ``%`` (any run) and ``_`` (one char).

    Non-string values are coerced to their textual form first, in keeping
    with Lorel's forgiving style; complex values never match.
    """
    return like_matcher(pattern)(value)
