"""The time domain used by OEM histories, DOEM annotations, and Chorel.

Section 2.2 of the paper assumes "some time domain *time* that is discrete
and totally ordered; elements of *time* are called timestamps".  Section 4.2
additionally requires Lorel-style coercion: "we allow users to enter
timestamps using a textual representation, e.g. ``4Jan97``.  In keeping with
Lorel's extensive use of coercion, any recognizable format is allowed and is
converted automatically to an internal timestamp datatype."

This module provides:

* :class:`Timestamp` -- an immutable, totally ordered point in time with
  one-second granularity, plus the two infinities the QSS time variables
  need (``t[-i]`` is negative infinity before the i-th poll, Section 6).
* :func:`parse_timestamp` -- the forgiving coercion from the textual formats
  the paper uses (``1Jan97``, ``8Jan1997``), ISO dates, date-times, and raw
  integer ticks.
"""

from __future__ import annotations

import datetime as _dt
import functools
import re

from .errors import TimestampError

__all__ = [
    "Timestamp",
    "NEG_INF",
    "POS_INF",
    "order_tick",
    "parse_timestamp",
    "is_timestamp_literal",
]

_MONTHS = {
    "jan": 1, "feb": 2, "mar": 3, "apr": 4, "may": 5, "jun": 6,
    "jul": 7, "aug": 8, "sep": 9, "oct": 10, "nov": 11, "dec": 12,
}
_MONTH_NAMES = ["Jan", "Feb", "Mar", "Apr", "May", "Jun",
                "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"]

# The compact style the paper uses throughout: 1Jan97, 30Dec96, 8Jan1997.
_PAPER_STYLE = re.compile(
    r"^\s*(\d{1,2})\s*([A-Za-z]{3,9})\s*(\d{2}|\d{4})"
    r"(?:[ T@](\d{1,2}):(\d{2})(?::(\d{2}))?\s*(am|pm|AM|PM)?)?\s*$"
)
_ISO_DATE = re.compile(r"^\s*(\d{4})-(\d{2})-(\d{2})"
                       r"(?:[ T](\d{1,2}):(\d{2})(?::(\d{2}))?)?\s*$")
_US_DATE = re.compile(r"^\s*(\d{1,2})/(\d{1,2})/(\d{2}|\d{4})\s*$")

_EPOCH = _dt.datetime(1970, 1, 1)


def _expand_year(text: str) -> int:
    """Expand a two-digit year the way 1998-era software did: 70-99 -> 19xx."""
    year = int(text)
    if len(text) == 4:
        return year
    return 1900 + year if year >= 70 else 2000 + year


@functools.total_ordering
class Timestamp:
    """An immutable point in the discrete, totally ordered time domain.

    Internally a timestamp is a count of seconds since 1970-01-01 00:00:00
    (an arbitrary but convenient origin; the paper only requires a discrete
    total order).  Two singleton sentinels, :data:`NEG_INF` and
    :data:`POS_INF`, compare below and above every finite timestamp; they
    are used by the QSS time variables and by "current snapshot" queries.
    """

    __slots__ = ("_ticks",)

    def __init__(self, ticks: int) -> None:
        if not isinstance(ticks, int):
            raise TimestampError(f"timestamp ticks must be an int, got {type(ticks).__name__}")
        object.__setattr__(self, "_ticks", ticks)

    # -- construction -------------------------------------------------

    @classmethod
    def from_datetime(cls, when: _dt.datetime) -> "Timestamp":
        """Build a timestamp from a naive :class:`datetime.datetime`."""
        return cls(int((when - _EPOCH).total_seconds()))

    @classmethod
    def from_date(cls, year: int, month: int, day: int,
                  hour: int = 0, minute: int = 0, second: int = 0) -> "Timestamp":
        """Build a timestamp from calendar components."""
        try:
            when = _dt.datetime(year, month, day, hour, minute, second)
        except ValueError as exc:
            raise TimestampError(str(exc)) from exc
        return cls.from_datetime(when)

    # -- accessors ----------------------------------------------------

    @property
    def ticks(self) -> int:
        """Seconds since the epoch origin of the time domain."""
        return self._ticks

    def to_datetime(self) -> _dt.datetime:
        """Return the timestamp as a naive :class:`datetime.datetime`."""
        return _EPOCH + _dt.timedelta(seconds=self._ticks)

    @property
    def is_finite(self) -> bool:
        """True for every ordinary timestamp; the infinities override this."""
        return True

    # -- arithmetic ---------------------------------------------------

    def plus(self, *, days: int = 0, hours: int = 0, minutes: int = 0,
             seconds: int = 0) -> "Timestamp":
        """Return a new timestamp offset by the given duration."""
        delta = ((days * 24 + hours) * 60 + minutes) * 60 + seconds
        return Timestamp(self._ticks + delta)

    def __sub__(self, other: "Timestamp") -> int:
        """Difference between two finite timestamps, in seconds."""
        if not (self.is_finite and other.is_finite):
            raise TimestampError("cannot subtract infinite timestamps")
        return self._ticks - other._ticks

    # -- ordering and hashing ------------------------------------------

    def _order_key(self) -> tuple[int, int]:
        return (0, self._ticks)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Timestamp):
            return NotImplemented
        return self._order_key() == other._order_key()

    def __lt__(self, other: "Timestamp") -> bool:
        if not isinstance(other, Timestamp):
            return NotImplemented
        return self._order_key() < other._order_key()

    def __hash__(self) -> int:
        return hash(self._order_key())

    # -- presentation ---------------------------------------------------

    def __str__(self) -> str:
        when = self.to_datetime()
        text = f"{when.day}{_MONTH_NAMES[when.month - 1]}{when.year % 100:02d}"
        if (when.hour, when.minute, when.second) != (0, 0, 0):
            text += f" {when.hour:02d}:{when.minute:02d}"
            if when.second:
                text += f":{when.second:02d}"
        return text

    def __repr__(self) -> str:
        return f"Timestamp({str(self)!r})"


class _Infinity(Timestamp):
    """Shared machinery for the two infinite timestamps."""

    __slots__ = ("_sign", "_name")

    def __init__(self, sign: int, name: str) -> None:
        super().__init__(0)
        object.__setattr__(self, "_sign", sign)
        object.__setattr__(self, "_name", name)

    @property
    def is_finite(self) -> bool:
        return False

    def _order_key(self) -> tuple[int, int]:
        return (self._sign, 0)

    def to_datetime(self) -> _dt.datetime:
        raise TimestampError(f"{self._name} has no calendar representation")

    def plus(self, **_kwargs: int) -> "Timestamp":
        return self

    def __str__(self) -> str:
        return self._name

    def __repr__(self) -> str:
        return self._name


NEG_INF: Timestamp = _Infinity(-1, "NEG_INF")
"""A timestamp smaller than every finite timestamp (``t[-i]`` before poll i)."""

POS_INF: Timestamp = _Infinity(+1, "POS_INF")
"""A timestamp larger than every finite timestamp ("now" for snapshots)."""

# The infinities as ticks: below and above every finite timestamp.
_NEG_TICK, _POS_TICK = -(1 << 63), (1 << 63) - 1


def order_tick(when: Timestamp) -> int:
    """``when`` as one signed 64-bit integer, in the time domain's order."""
    sign, ticks = when._order_key()
    return ticks if sign == 0 else (_NEG_TICK if sign < 0 else _POS_TICK)


def parse_timestamp(text: object) -> Timestamp:
    """Coerce ``text`` to a :class:`Timestamp`, accepting any recognizable format.

    Accepted inputs:

    * an existing :class:`Timestamp` (returned unchanged);
    * a :class:`datetime.datetime` or :class:`datetime.date`;
    * an ``int`` (raw ticks);
    * the paper's compact style: ``"1Jan97"``, ``"30Dec96"``, ``"8Jan1997"``,
      optionally with a time of day (``"1Jan97 11:30pm"``);
    * ISO dates and date-times: ``"1997-01-01"``, ``"1997-01-01 23:30"``;
    * US-style dates: ``"1/8/97"``.

    Raises :class:`~repro.errors.TimestampError` when nothing matches, in
    the spirit of Lorel's coercion this is the *only* failure mode.
    """
    if isinstance(text, Timestamp):
        return text
    if isinstance(text, _dt.datetime):
        return Timestamp.from_datetime(text)
    if isinstance(text, _dt.date):
        return Timestamp.from_date(text.year, text.month, text.day)
    if isinstance(text, bool):
        raise TimestampError("cannot coerce a boolean to a timestamp")
    if isinstance(text, int):
        return Timestamp(text)
    if not isinstance(text, str):
        raise TimestampError(f"cannot coerce {type(text).__name__} to a timestamp")

    match = _PAPER_STYLE.match(text)
    if match:
        day, month_name, year = match.group(1), match.group(2), match.group(3)
        month = _MONTHS.get(month_name[:3].lower())
        if month is None:
            raise TimestampError(f"unknown month name in timestamp: {text!r}")
        hour = int(match.group(4) or 0)
        minute = int(match.group(5) or 0)
        second = int(match.group(6) or 0)
        meridiem = (match.group(7) or "").lower()
        if meridiem == "pm" and hour < 12:
            hour += 12
        if meridiem == "am" and hour == 12:
            hour = 0
        return Timestamp.from_date(_expand_year(year), month, int(day),
                                   hour, minute, second)

    match = _ISO_DATE.match(text)
    if match:
        return Timestamp.from_date(
            int(match.group(1)), int(match.group(2)), int(match.group(3)),
            int(match.group(4) or 0), int(match.group(5) or 0),
            int(match.group(6) or 0))

    match = _US_DATE.match(text)
    if match:
        return Timestamp.from_date(_expand_year(match.group(3)),
                                   int(match.group(1)), int(match.group(2)))

    raise TimestampError(f"unrecognizable timestamp format: {text!r}")


def is_timestamp_literal(text: str) -> bool:
    """Return True if ``text`` looks like a textual timestamp literal.

    The Lorel/Chorel lexer uses this to recognize tokens such as ``4Jan97``
    that start with digits but are not numbers.
    """
    return bool(_PAPER_STYLE.match(text) or _ISO_DATE.match(text)
                or _US_DATE.match(text))
