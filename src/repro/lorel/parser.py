"""Recursive-descent parser for Lorel and Chorel.

One grammar serves both dialects; constructing the parser with
``allow_annotations=False`` (plain Lorel) makes annotation expressions a
parse error, which is how the :class:`~repro.lorel.engine.LorelEngine`
guards against Chorel-only syntax reaching it accidentally.

Grammar (keywords case-insensitive)::

    query      := SELECT selitem ("," selitem)*
                  [FROM fromitem ("," fromitem)*]
                  [WHERE condition]
    selitem    := expr [AS IDENT] | expr IDENT        -- trailing label
    fromitem   := pathexpr [IDENT] | "(" varlist ")" IN funcall
    condition  := orcond
    orcond     := andcond (OR andcond)*
    andcond    := unary (AND unary)*
    unary      := NOT unary | EXISTS IDENT IN pathexpr ":" unary
                | "(" orcond ")" | predicate
    predicate  := expr ( OP expr | LIKE STRING )      -- or bare expr
    expr       := literal | TIMEVAR | pathexpr
    pathexpr   := name step*
    step       := "." [annot] label [annot]
    label      := IDENT | AMP_IDENT | "#" | pattern-with-%
    annot      := "<" kind [AT (IDENT|ts-literal)] [range] [FROM IDENT]
                  [TO IDENT] ">"
    range      := IN "[" [bound] ".." [bound] "]" | SINCE bound
    bound      := ts-literal | TIMEVAR | INT

Conditions nest -- parentheses, ``not``, ``exists`` -- at most
:data:`MAX_CONDITION_DEPTH` deep; deeper is a :class:`ParseError`, never
the interpreter's recursion limit (each level costs two stack frames).

Cross-time kinds (contextual identifiers, not reserved words):
``changed`` matches any change event (``cre``/``upd`` after a label,
``add``/``rem`` before one), ``last-change`` its most recent event, and
``<at [t1..t2]>`` enumerates a node's *versions* over the range.
``changed-in [a..b]`` is sugar for ``changed in [a..b]``;
``<versions [at T] over [a..b]>`` is sugar for ``<at T in [a..b]>``;
``since t`` is sugar for ``in [t..]``.
"""

from __future__ import annotations

from ..errors import ParseError
from ..timestamps import Timestamp, parse_timestamp
from .ast import (
    And,
    AnnotationExpr,
    Comparison,
    Condition,
    Definition,
    ExistsCond,
    Expr,
    FromItem,
    LikeCond,
    Literal,
    Not,
    Or,
    PathExpr,
    PathStep,
    Query,
    SelectItem,
    TimeRange,
    TimeVar,
    VarRef,
)
from .lexer import tokenize
from .tokens import Token, TokenKind

__all__ = ["Parser", "parse_query", "parse_definition",
           "MAX_CONDITION_DEPTH"]

MAX_CONDITION_DEPTH = 300

_ARC_ANNOT_KINDS = {"add", "rem", "at", "changed", "last-change"}
_NODE_ANNOT_KINDS = {"cre", "upd", "at", "changed", "last-change"}
_COMPARISON_OPS = {"=", "==", "!=", "<>", "<", "<=", ">", ">="}


class Parser:
    """A recursive-descent parser over the token stream."""

    def __init__(self, text: str, allow_annotations: bool = True) -> None:
        self.text = text
        self.tokens = tokenize(text)
        self.index = 0
        self.allow_annotations = allow_annotations
        self._depth = 0  # unary conditions being parsed, nested

    # -- token plumbing -------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        index = min(self.index + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def _advance(self) -> Token:
        token = self.tokens[self.index]
        if token.kind is not TokenKind.EOF:
            self.index += 1
        return token

    def _error(self, message: str) -> ParseError:
        return ParseError(message, self._peek().position)

    def _expect(self, kind: TokenKind, what: str) -> Token:
        token = self._peek()
        if token.kind is not kind:
            raise self._error(f"expected {what}, found {token.text!r}")
        return self._advance()

    def _accept_keyword(self, word: str) -> bool:
        if self._peek().is_keyword(word):
            self._advance()
            return True
        return False

    def _expect_keyword(self, word: str) -> None:
        if not self._accept_keyword(word):
            raise self._error(f"expected {word!r}, found {self._peek().text!r}")

    # -- entry points ---------------------------------------------------

    def parse_query(self) -> Query:
        """Parse a complete query and require end of input."""
        query = self._query()
        if self._peek().kind is not TokenKind.EOF:
            raise self._error(f"trailing input: {self._peek().text!r}")
        return query

    def parse_definition(self) -> Definition:
        """Parse ``define polling|filter query NAME as QUERY``."""
        self._expect_keyword("define")
        kind_token = self._advance()
        if kind_token.text.lower() not in ("polling", "filter"):
            raise self._error("expected 'polling' or 'filter'")
        self._expect_keyword("query")
        name = self._expect(TokenKind.IDENT, "a query name").text
        self._expect_keyword("as")
        query = self._query()
        if self._peek().kind is not TokenKind.EOF:
            raise self._error(f"trailing input: {self._peek().text!r}")
        return Definition(kind_token.text.lower(), name, query)

    # -- clauses ----------------------------------------------------------

    def _query(self) -> Query:
        self._expect_keyword("select")
        select = [self._select_item()]
        while self._peek().kind is TokenKind.COMMA:
            self._advance()
            select.append(self._select_item())

        from_items: list[FromItem] = []
        if self._accept_keyword("from"):
            from_items.append(self._from_item())
            while self._peek().kind is TokenKind.COMMA:
                self._advance()
                from_items.append(self._from_item())

        where = None
        if self._accept_keyword("where"):
            where = self._or_condition()

        return Query(tuple(select), tuple(from_items), where)

    def _select_item(self) -> SelectItem:
        expr = self._expression()
        if self._accept_keyword("as"):
            label = self._label_token("a result label")
            return SelectItem(expr, label)
        return SelectItem(expr)

    def _from_item(self) -> FromItem:
        path = self._path_expr()
        token = self._peek()
        if token.kind is TokenKind.IDENT:
            self._advance()
            return FromItem(path, token.text)
        return FromItem(path)

    # -- conditions -------------------------------------------------------

    def _or_condition(self) -> Condition:
        """``orcond``, and ``andcond`` in the same loop: one stack frame
        per nesting level fewer than a function each."""
        left, conjunction = None, self._unary_condition()
        while True:
            if self._accept_keyword("and"):
                conjunction = And(conjunction, self._unary_condition())
            elif self._accept_keyword("or"):
                left = conjunction if left is None else Or(left, conjunction)
                conjunction = self._unary_condition()
            else:
                return conjunction if left is None \
                    else Or(left, conjunction)

    def _unary_condition(self) -> Condition:
        if self._depth > MAX_CONDITION_DEPTH:
            raise self._error(f"conditions nest deeper than "
                              f"{MAX_CONDITION_DEPTH} levels")
        self._depth += 1
        try:
            if self._accept_keyword("not"):
                return Not(self._unary_condition())
            if self._accept_keyword("exists"):
                var = self._expect(TokenKind.IDENT, "a variable").text
                self._expect_keyword("in")
                path = self._path_expr()
                self._expect(TokenKind.COLON, "':'")
                return ExistsCond(var, path, self._unary_condition())
            if self._peek().kind is TokenKind.LPAREN:
                self._advance()
                inner = self._or_condition()
                self._expect(TokenKind.RPAREN, "')'")
                return inner
            return self._predicate()
        finally:
            self._depth -= 1

    def _predicate(self) -> Condition:
        left = self._expression()
        token = self._peek()
        if token.is_keyword("like"):
            self._advance()
            pattern = self._expect(TokenKind.STRING, "a pattern string")
            return LikeCond(left, str(pattern.value))
        if token.kind is TokenKind.OP and token.text in _COMPARISON_OPS:
            self._advance()
            right = self._expression()
            return Comparison(left, token.text, right)
        if token.kind is TokenKind.RANGLE:
            self._advance()
            right = self._expression()
            return Comparison(left, ">", right)
        # A bare path expression is an existence test ("has this path").
        return Comparison(left, "!=", Literal(None))

    # -- expressions --------------------------------------------------------

    def _expression(self) -> Expr:
        token = self._peek()
        if token.kind in (TokenKind.INT, TokenKind.REAL, TokenKind.STRING,
                          TokenKind.TIMESTAMP):
            self._advance()
            return Literal(token.value)
        if token.kind is TokenKind.TIMEVAR:
            self._advance()
            return TimeVar(int(token.value))  # type: ignore[arg-type]
        if token.is_keyword("true") or token.is_keyword("false"):
            self._advance()
            return Literal(token.text.lower() == "true")
        if token.kind in (TokenKind.IDENT, TokenKind.AMP_IDENT):
            path = self._path_expr()
            if not path.steps:
                return VarRef(path.start)
            return path
        raise self._error(f"expected an expression, found {token.text!r}")

    # -- path expressions ------------------------------------------------

    def _path_expr(self) -> PathExpr:
        start = self._label_token("a name or variable")
        steps: list[PathStep] = []
        if self._peek().kind is TokenKind.LANGLE:
            # A node annotation directly on the start object (a bound
            # variable): ``NEW<upd at T>``.  Represented as an empty-label
            # step that stays on the current object.
            annotation = self._annotation(_NODE_ANNOT_KINDS, "node")
            steps.append(PathStep("", None, annotation))
        while self._peek().kind is TokenKind.DOT:
            self._advance()
            steps.append(self._path_step())
        return PathExpr(start, tuple(steps))

    def _path_step(self) -> PathStep:
        arc_annotation = None
        if self._peek().kind is TokenKind.LANGLE:
            arc_annotation = self._annotation(_ARC_ANNOT_KINDS, "arc")
        label = self._label_token("an arc label")
        repetition = None
        if self._peek().kind is TokenKind.OP and \
                self._peek().text in ("*", "+"):
            repetition = self._advance().text
            if arc_annotation is not None:
                raise self._error(
                    "arc annotations cannot combine with label closures "
                    f"({label}{repetition})")
        node_annotation = None
        if self._peek().kind is TokenKind.LANGLE:
            node_annotation = self._annotation(_NODE_ANNOT_KINDS, "node")
        return PathStep(label, arc_annotation, node_annotation, repetition)

    def _label_token(self, what: str) -> str:
        """A label: IDENT, AMP_IDENT, '#', quoted string, a %-pattern, or
        an alternation ``(a|b|c)``.

        Adjacent IDENT/'%' fragments with no intervening whitespace fuse
        into one pattern label (``%Lytton%``); contextual keywords (cre,
        upd, add, rem, at, to) are legal labels outside annotations.
        Alternations come from Lorel's general path expressions
        ("path expressions that include regular expressions", Section
        4.1) and are stored as ``a|b|c``.
        """
        token = self._peek()
        if token.kind is TokenKind.HASH:
            self._advance()
            return "#"
        if token.kind is TokenKind.LPAREN:
            self._advance()
            alternatives = [self._label_token("a label alternative")]
            while self._peek().kind is not TokenKind.RPAREN:
                if self._peek().text != "|":
                    raise self._error("expected '|' or ')' in alternation")
                self._advance()
                alternatives.append(self._label_token("a label alternative"))
            self._expect(TokenKind.RPAREN, "')'")
            return "|".join(alternatives)
        if token.kind is TokenKind.STRING:
            self._advance()
            return str(token.value)
        if token.kind is TokenKind.AMP_IDENT:
            self._advance()
            return token.text
        if token.kind is TokenKind.IDENT or token.kind is TokenKind.KEYWORD:
            if token.kind is TokenKind.KEYWORD and token.text.lower() not in (
                    "cre", "upd", "add", "rem", "at", "to", "in", "query",
                    "polling", "filter"):
                raise self._error(f"expected {what}, found keyword {token.text!r}")
            self._advance()
            pieces = [token.text]
            end = token.position + len(token.text)
            # Fuse adjacent fragments for %-patterns.
            while True:
                nxt = self._peek()
                if nxt.kind is TokenKind.IDENT and nxt.position == end \
                        and ("%" in nxt.text or "%" in pieces[-1]):
                    pieces.append(nxt.text)
                    end = nxt.position + len(nxt.text)
                    self._advance()
                else:
                    break
            return "".join(pieces)
        raise self._error(f"expected {what}, found {token.text!r}")

    # -- annotation expressions -------------------------------------------

    def _annotation(self, allowed: set[str], where: str) -> AnnotationExpr:
        if not self.allow_annotations:
            raise self._error(
                "annotation expressions are Chorel syntax; this engine "
                "parses plain Lorel")
        self._expect(TokenKind.LANGLE, "'<'")
        kind_token = self._advance()
        word = kind_token.text.lower()
        require_range = False
        versions = False
        if word == "changed-in":
            # ``<changed-in [a..b]>`` sugar: a changed kind with a
            # mandatory range.
            kind = "changed"
            require_range = True
        elif word in ("versions", "versions-of"):
            # ``<versions [at T] over [a..b]>`` sugar for the virtual
            # range annotation ``<at T in [a..b]>``.
            if where != "node":
                raise self._error(
                    "<versions ...> can only appear after a label")
            kind = "at"
            require_range = True
            versions = True
        else:
            kind = word
        if kind not in allowed:
            raise self._error(
                f"annotation <{kind}> cannot appear {'before' if where == 'arc' else 'after'} "
                f"a label (expected one of {sorted(allowed)})")

        at_var = None
        at_literal = None
        from_var = None
        to_var = None
        in_range = None

        if kind == "at" and not versions:
            # Virtual annotation: <at T>, <at 5Jan97>, <at [a..b]>, or
            # <at T in [a..b]>.
            if self._peek().kind is TokenKind.LBRACKET:
                in_range = self._time_range()
            else:
                at_var, at_literal = self._at_operand()
                in_range = self._range_suffix()
            if in_range is not None and where == "arc":
                raise self._error(
                    "a range-restricted <at> cannot appear before a label "
                    "(versions are enumerated on nodes)")
        else:
            # The range may come before or after the at-operand:
            # <changed in [a..b] at T> and <changed at T in [a..b]> are
            # the same annotation (the latter is the canonical print).
            in_range = self._range_suffix(allow_over=versions)
            if self._accept_keyword("at"):
                at_var, at_literal = self._at_operand()
            if in_range is None:
                in_range = self._range_suffix(require=require_range,
                                              allow_over=versions)
            if kind == "upd":
                if self._accept_keyword("from"):
                    from_var = self._expect(TokenKind.IDENT, "a variable").text
                if self._accept_keyword("to"):
                    to_var = self._expect(TokenKind.IDENT, "a variable").text

        self._expect(TokenKind.RANGLE, "'>'")
        return AnnotationExpr(kind, at_var, from_var, to_var, at_literal,
                              in_range)

    def _at_operand(self) -> tuple[str | None, object | None]:
        token = self._peek()
        if token.kind is TokenKind.IDENT:
            self._advance()
            return token.text, None
        if token.kind is TokenKind.TIMESTAMP:
            self._advance()
            return None, token.value
        if token.kind is TokenKind.TIMEVAR:
            self._advance()
            return None, TimeVar(int(token.value))  # type: ignore[arg-type]
        raise self._error("expected a variable or timestamp after 'at'")

    def _range_suffix(self, *, require: bool = False,
                      allow_over: bool = False) -> TimeRange | None:
        """An optional range restriction: ``in [a..b]`` or ``since t``.

        A bare bracket also opens a range (``<changed-in [a..b]>``,
        ``<versions [a..b]>``) -- the introducing word is optional sugar.
        """
        token = self._peek()
        if token.kind is TokenKind.LBRACKET:
            return self._time_range()
        if token.is_keyword("in") or (
                allow_over and token.kind is TokenKind.IDENT
                and token.text.lower() == "over"):
            self._advance()
            return self._time_range()
        if token.kind is TokenKind.IDENT and token.text.lower() == "since":
            self._advance()
            return TimeRange(self._range_bound(), None)
        if require:
            raise self._error("expected a time range ('in [t1..t2]')")
        return None

    def _time_range(self) -> TimeRange:
        self._expect(TokenKind.LBRACKET, "'['")
        low = None
        if self._peek().kind is not TokenKind.DOT:
            low = self._range_bound()
        self._expect(TokenKind.DOT, "'..'")
        self._expect(TokenKind.DOT, "'..'")
        high = None
        if self._peek().kind is not TokenKind.RBRACKET:
            high = self._range_bound()
        self._expect(TokenKind.RBRACKET, "']'")
        if low is None and high is None:
            raise self._error("a time range needs at least one bound")
        return TimeRange(low, high)

    def _range_bound(self) -> object:
        token = self._peek()
        if token.kind is TokenKind.TIMESTAMP:
            self._advance()
            return token.value
        if token.kind is TokenKind.TIMEVAR:
            self._advance()
            return TimeVar(int(token.value))  # type: ignore[arg-type]
        if token.kind is TokenKind.INT:
            self._advance()
            return parse_timestamp(token.value)
        raise self._error("expected a timestamp bound in a time range")


def parse_query(text: str, allow_annotations: bool = True) -> Query:
    """Parse a query; set ``allow_annotations=False`` for strict Lorel."""
    return Parser(text, allow_annotations).parse_query()


def parse_definition(text: str, allow_annotations: bool = True) -> Definition:
    """Parse a ``define polling/filter query`` statement."""
    return Parser(text, allow_annotations).parse_definition()
