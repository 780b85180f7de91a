"""Abstract syntax trees for Lorel and Chorel queries.

One AST serves both languages: Chorel is Lorel plus *annotation
expressions* attached to path steps (Section 4.2).  A parser flag decides
whether annotation expressions are accepted.

The shapes follow the paper's grammar fragments::

    select N, T, NV
    from  guide.restaurant.price<upd at T to NV>,
          guide.restaurant.name N
    where T >= 1Jan97 and NV > 15

* a :class:`PathExpr` is a start name plus :class:`PathStep` s;
* a step holds an optional *arc* annotation (before the label: ``add``,
  ``rem``, or virtual ``at``) and an optional *node* annotation (after
  the label: ``cre``, ``upd``, or virtual ``at``);
* conditions form an and/or/not tree over comparisons, ``like``, and
  ``exists v in path : cond``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

__all__ = [
    "TimeRange", "AnnotationExpr", "PathStep", "PathExpr", "Literal",
    "VarRef", "TimeVar", "Expr", "Comparison", "LikeCond", "ExistsCond",
    "And", "Or", "Not", "Condition", "SelectItem", "FromItem", "Query",
    "Definition",
]


@dataclass(frozen=True)
class TimeRange:
    """A closed time interval ``[low..high]`` with optional open sides.

    Bounds are timestamp literals or QSS :class:`TimeVar` s; ``None``
    leaves a side open (``[1Jan97..]`` is "since 1Jan97", ``[..5Jan97]``
    is "up to 5Jan97").  Both present bounds are *inclusive*, so adjacent
    intervals ``[a..m]`` and ``[m..b]`` compose to ``[a..b]`` under set
    union -- the property the cross-time equivalence suite checks.
    """

    low: Optional[object] = None
    high: Optional[object] = None

    def __str__(self) -> str:
        low = "" if self.low is None else str(self.low)
        high = "" if self.high is None else str(self.high)
        return f"[{low}..{high}]"


@dataclass(frozen=True)
class AnnotationExpr:
    """A Chorel annotation expression ``<kind at T in [a..b] from OV to NV>``.

    ``kind`` is one of ``"cre" | "upd" | "add" | "rem"`` (the paper's real
    annotations), ``"at"`` (the *virtual* annotation of Section 4.2.2), or
    the cross-time kinds ``"changed"`` (any change event: ``cre``/``upd``
    on nodes, ``add``/``rem`` on arcs) and ``"last-change"`` (the most
    recent such event).  ``at_var``/``from_var``/``to_var`` are variable
    names to bind; ``at_literal`` is set instead of ``at_var`` when the
    expression pins a concrete time (``<at 5Jan97>``).  ``in_range``
    restricts the bound times to a :class:`TimeRange` -- for the virtual
    ``at`` kind it enumerates *versions* over the range instead of reading
    one state.
    """

    kind: str
    at_var: Optional[str] = None
    from_var: Optional[str] = None
    to_var: Optional[str] = None
    at_literal: Optional[object] = None
    in_range: Optional[TimeRange] = None

    def canonical(self, fresh: "FreshNames") -> "AnnotationExpr":
        """The canonical form with every bindable slot holding a variable.

        Section 4.2.1: "the annotation expressions in a Chorel query are
        transformed into a canonical form that includes all variables" --
        ``<add>`` becomes ``<add at T1>``, ``<upd from X>`` becomes
        ``<upd at T2 from X to NV2>``.  Range-restricted forms always
        bind a time variable: ``<changed in [a..b]>`` becomes
        ``<changed at T1 in [a..b]>``.
        """
        at_var = self.at_var
        if at_var is None and self.at_literal is None:
            at_var = fresh.next("T")
        if self.kind != "upd":
            return AnnotationExpr(self.kind, at_var, None, None,
                                  self.at_literal, self.in_range)
        from_var = self.from_var or fresh.next("OV")
        to_var = self.to_var or fresh.next("NV")
        return AnnotationExpr("upd", at_var, from_var, to_var,
                              self.at_literal, self.in_range)

    def __str__(self) -> str:
        operand = self.at_literal if self.at_literal is not None \
            else self.at_var
        if self.kind == "at":
            # The virtual annotation's kind *is* the "at": <at 5Jan97>,
            # never <at at 5Jan97> (which the parser rightly rejects).
            if self.in_range is not None:
                if operand is None:
                    return f"<at {self.in_range}>"
                return f"<at {operand} in {self.in_range}>"
            return f"<at {operand}>"
        parts = [self.kind]
        if operand is not None:
            parts.append(f"at {operand}")
        if self.in_range is not None:
            parts.append(f"in {self.in_range}")
        if self.from_var:
            parts.append(f"from {self.from_var}")
        if self.to_var:
            parts.append(f"to {self.to_var}")
        return "<" + " ".join(parts) + ">"


class FreshNames:
    """A per-query counter for introduced variables (T1, NV2, X3, ...)."""

    def __init__(self) -> None:
        self._counts: dict[str, int] = {}

    def next(self, prefix: str) -> str:
        self._counts[prefix] = self._counts.get(prefix, 0) + 1
        return f"_{prefix}{self._counts[prefix]}"


@dataclass(frozen=True)
class PathStep:
    """One step of a path expression: ``.<arc_annot>label<node_annot>``.

    ``label`` is a plain label, a ``%``-pattern, an alternation
    ``a|b|c``, or ``"#"`` (the wildcard matching any path of length >= 0,
    which cannot carry arc annotations).  ``repetition`` is ``"*"`` /
    ``"+"`` for the general-path-expression closures ``label*`` (zero or
    more same-labeled hops) and ``label+`` (one or more).
    """

    label: str
    arc_annotation: Optional[AnnotationExpr] = None
    node_annotation: Optional[AnnotationExpr] = None
    repetition: Optional[str] = None

    @property
    def is_wildcard(self) -> bool:
        """True for the ``#`` path wildcard."""
        return self.label == "#"

    @property
    def is_pattern(self) -> bool:
        """True when the label contains ``%`` (like-style label matching)."""
        return "%" in self.label

    @property
    def is_alternation(self) -> bool:
        """True for ``(a|b|c)`` general-path-expression labels."""
        return "|" in self.label

    @property
    def is_plain(self) -> bool:
        """True for one hop along one literal label -- no ``#``, pattern,
        alternation, repetition or start-anchored ``""`` -- annotated or not."""
        return self.repetition is None and self.label != "" and not (
            self.is_wildcard or self.is_pattern or self.is_alternation)

    @property
    def alternatives(self) -> tuple[str, ...]:
        """The alternation's labels (a 1-tuple for plain labels)."""
        return tuple(self.label.split("|"))

    def __str__(self) -> str:
        text = ""
        if self.arc_annotation:
            text += str(self.arc_annotation)
        text += f"({self.label})" if "|" in self.label else self.label
        if self.repetition:
            text += self.repetition
        if self.node_annotation:
            text += str(self.node_annotation)
        return text


@dataclass(frozen=True)
class PathExpr:
    """A path expression: a start name followed by steps.

    The start resolves, in order, to (1) a variable bound in the current
    environment, or (2) a database name known to the engine (``guide``,
    or a QSS polling-query name such as ``LyttonRestaurants``).
    """

    start: str
    steps: tuple[PathStep, ...] = ()

    def __str__(self) -> str:
        pieces = [self.start]
        for index, step in enumerate(self.steps):
            if index == 0 and step.label == "":
                # a start-anchored node annotation: NEW<upd at T>
                pieces[0] += str(step)
            else:
                pieces.append(str(step))
        return ".".join(pieces)

    def with_steps(self, extra: tuple[PathStep, ...]) -> "PathExpr":
        """A copy with ``extra`` steps appended."""
        return PathExpr(self.start, self.steps + extra)


@dataclass(frozen=True)
class Literal:
    """A constant: int, real, string, boolean, or timestamp."""

    value: object

    def __str__(self) -> str:
        if isinstance(value := self.value, str):
            return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'
        if value is True:
            return "true"
        if value is False:
            return "false"
        return str(value)


@dataclass(frozen=True)
class VarRef:
    """A reference to a range/annotation variable."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class TimeVar:
    """A QSS time variable ``t[0]``, ``t[-1]``, ... (Section 6)."""

    index: int

    def __str__(self) -> str:
        return f"t[{self.index}]"


Expr = Union[Literal, VarRef, TimeVar, PathExpr]
"""Any expression that may appear in select items or comparisons."""


@dataclass(frozen=True)
class Comparison:
    """``left op right`` with a forgiving-coercion comparison operator."""

    left: Expr
    op: str
    right: Expr

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


@dataclass(frozen=True)
class LikeCond:
    """``expr like "pattern"`` (``%``/``_`` wildcards)."""

    expr: Expr
    pattern: str

    def __str__(self) -> str:
        return f'{self.expr} like "{self.pattern}"'


@dataclass(frozen=True)
class ExistsCond:
    """``exists VAR in PATH : CONDITION`` (used by translated queries)."""

    var: str
    path: PathExpr
    condition: "Condition"

    def __str__(self) -> str:
        return f"exists {self.var} in {self.path} : ({self.condition})"


@dataclass(frozen=True)
class And:
    """Conjunction."""

    left: "Condition"
    right: "Condition"

    def __str__(self) -> str:
        return f"{self.left} and {self.right}"


@dataclass(frozen=True)
class Or:
    """Disjunction."""

    left: "Condition"
    right: "Condition"

    def __str__(self) -> str:
        return f"({self.left} or {self.right})"


@dataclass(frozen=True)
class Not:
    """Negation (negation-as-failure over existential matches)."""

    operand: "Condition"

    def __str__(self) -> str:
        return f"not ({self.operand})"


Condition = Union[Comparison, LikeCond, ExistsCond, And, Or, Not]
"""Any where-clause condition."""


@dataclass(frozen=True)
class SelectItem:
    """One select-clause item with an optional explicit label (``AS``)."""

    expr: Expr
    label: Optional[str] = None

    def __str__(self) -> str:
        if self.label:
            return f"{self.expr} as {self.label}"
        return str(self.expr)


@dataclass(frozen=True)
class FromItem:
    """One from-clause item: a path expression with an optional range variable."""

    path: PathExpr
    var: Optional[str] = None

    def __str__(self) -> str:
        if self.var:
            return f"{self.path} {self.var}"
        return str(self.path)


@dataclass(frozen=True)
class Query:
    """A complete select-from-where query."""

    select: tuple[SelectItem, ...]
    from_items: tuple[FromItem, ...] = ()
    where: Optional[Condition] = None

    def __str__(self) -> str:
        text = "select " + ", ".join(str(item) for item in self.select)
        if self.from_items:
            text += " from " + ", ".join(str(item) for item in self.from_items)
        if self.where is not None:
            text += f" where {self.where}"
        return text


@dataclass(frozen=True)
class Definition:
    """``define polling|filter query NAME as QUERY`` (Section 6)."""

    kind: str  # "polling" | "filter"
    name: str
    query: Query

    def __str__(self) -> str:
        return f"define {self.kind} query {self.name} as {self.query}"
