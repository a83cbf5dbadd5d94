"""Parser, AST and renderer for the hybrid graph/relational query subset.

Grammar (keywords case-insensitive, names and types case-sensitive)::

    query    := MATCH chain (',' chain)* [WHERE expr] RETURN item (',' item)*
                [ORDER BY alias [ASC|DESC]] [LIMIT n]
    chain    := vertex (link vertex)*
    vertex   := '(' name [':' TYPE] ')'
    link     := '-[' [name] [':' label ('|' label)*] ['*' L '..' U] ']->'
    item     := (agg '(' ref ')' | ref) [AS alias]      agg in {count,sum,avg,max,min}
    ref      := name | name '.' key
    expr     := comparisons over refs/literals combined with AND, OR, NOT, parens

Only left-to-right arrows exist; reverse patterns are written by swapping
endpoints. A fixed link carries at most one label; a variable-length link
(``*L..U``) may carry a label alternation. Unsupported Cypher constructs
are rejected, never silently ignored.

Property access ``name.key`` resolves ``key`` from the element's property
map; the key ``id`` falls back to the element's id when no explicit
``id`` property is present, so queries can project and filter on ids.
"""

from __future__ import annotations

import math
import re
import threading
from dataclasses import dataclass, field
from decimal import Decimal
from typing import Iterator, Union

from .errors import (
    QuerySyntaxError,
    UnboundNameError,
    UnsupportedConstructError,
    ValidationError,
)
from .store import components

AGGREGATE_FUNCS = ("count", "sum", "avg", "max", "min")

_KEYWORDS = {
    "match", "where", "return", "order", "by", "limit", "as", "asc", "desc",
    "and", "or", "not", "true", "false",
}
_UNSUPPORTED_KEYWORDS = {
    "optional", "create", "merge", "delete", "set", "remove", "with",
    "union", "unwind", "skip", "distinct", "call", "foreach",
}


# --------------------------------------------------------------------------
# AST
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class PatternEdge:
    src: str
    dst: str
    label: str | None = None
    name: str | None = None


@dataclass(frozen=True)
class VarLengthPath:
    src: str
    dst: str
    lower: int
    upper: int
    labels: tuple[str, ...] | None = None
    name: str | None = None

    def __post_init__(self):
        if not (0 <= self.lower <= self.upper):
            raise ValidationError(
                f"variable-length bounds must satisfy 0 <= L <= U, "
                f"got ({self.lower}, {self.upper})"
            )


@dataclass(frozen=True)
class PropertyRef:
    name: str
    key: str


@dataclass(frozen=True)
class NameRef:
    name: str


@dataclass(frozen=True)
class Literal:
    value: int | float | str | bool


@dataclass(frozen=True)
class Comparison:
    lhs: PropertyRef
    op: str  # one of = <> < <= > >=
    rhs: Union[Literal, PropertyRef]


@dataclass(frozen=True)
class And:
    children: tuple


@dataclass(frozen=True)
class Or:
    children: tuple


@dataclass(frozen=True)
class Not:
    child: object


FilterExpr = Union[Comparison, And, Or, Not]


@dataclass(frozen=True)
class Aggregate:
    func: str
    arg: Union[NameRef, PropertyRef]

    def __post_init__(self):
        if self.func not in AGGREGATE_FUNCS:
            raise ValidationError(f"unknown aggregate {self.func!r}")


ProjectionExpr = Union[NameRef, PropertyRef, Aggregate]


@dataclass(frozen=True)
class ProjectionItem:
    expr: ProjectionExpr
    alias: str


@dataclass(frozen=True)
class OrderBy:
    alias: str
    descending: bool = False


@dataclass
class QueryGraph:
    """Parsed query: pattern, filters, projection, ordering, limit."""

    pattern_vertices: dict[str, str | None]
    pattern_edges: tuple[PatternEdge, ...]
    var_length_paths: tuple[VarLengthPath, ...]
    filters: FilterExpr | None
    projection: tuple[ProjectionItem, ...]
    order_by: OrderBy | None = None
    limit: int | None = None

    def __post_init__(self):
        if not self.projection:
            raise ValidationError("projection must not be empty")
        if self.limit is not None and self.limit <= 0:
            raise ValidationError("LIMIT must be positive")
        self._validate_names()

    # referencable names: pattern vertices plus named fixed edges
    def bound_names(self) -> set[str]:
        names = set(self.pattern_vertices)
        names.update(e.name for e in self.pattern_edges if e.name)
        return names

    def path_names(self) -> set[str]:
        return {p.name for p in self.var_length_paths if p.name}

    def aggregates(self) -> tuple[ProjectionItem, ...]:
        return tuple(i for i in self.projection if isinstance(i.expr, Aggregate))

    def group_keys(self) -> tuple[ProjectionItem, ...]:
        return tuple(i for i in self.projection if not isinstance(i.expr, Aggregate))

    def components(self) -> list[list[str]]:
        """Pattern vertex names grouped by the fixed edges and paths that
        connect them, in :func:`store.components` order."""
        return components(self.pattern_vertices,
                          [(e.src, e.dst) for e in self.pattern_edges]
                          + [(p.src, p.dst) for p in self.var_length_paths])

    def referenced_names(self) -> set[str]:
        """Names used by filters, projection or ordering."""
        names: set[str] = set()
        if self.filters is not None:
            names.update(_expr_names(self.filters))
        for item in self.projection:
            expr = item.expr
            if isinstance(expr, Aggregate):
                expr = expr.arg
            names.add(expr.name)
        return names

    def _validate_names(self):
        bound = self.bound_names()
        paths = self.path_names()
        for name in sorted(self.referenced_names()):
            if name in bound:
                continue
            if name in paths:
                raise UnsupportedConstructError(
                    f"path variable {name!r} cannot be referenced"
                )
            raise UnboundNameError(f"name {name!r} is not bound in the pattern")
        aliases = [i.alias for i in self.projection]
        if len(set(aliases)) != len(aliases):
            raise ValidationError("duplicate projection aliases")
        if self.order_by is not None and self.order_by.alias not in aliases:
            raise UnboundNameError(
                f"ORDER BY alias {self.order_by.alias!r} is not projected"
            )


def _expr_names(expr: FilterExpr) -> Iterator[str]:
    if isinstance(expr, Comparison):
        yield expr.lhs.name
        if isinstance(expr.rhs, PropertyRef):
            yield expr.rhs.name
    elif isinstance(expr, (And, Or)):
        for child in expr.children:
            yield from _expr_names(child)
    elif isinstance(expr, Not):
        yield from _expr_names(expr.child)


# --------------------------------------------------------------------------
# Tokenizer
# --------------------------------------------------------------------------

# One pass of one regex: each match skips whitespace and takes one token.
# Whitespace, word and digit classes are str.isspace, str.isalnum or '_',
# and str.isdecimal. A word must start with a letter or '_': one starting
# with another numeric character, like '²' or '½', is an unexpected
# character. A string body takes an escaped quote or backslash as one
# character and any other backslash literally; a quote that opens no
# complete string is an unterminated literal. ``_STRING_BODY`` is also
# what ``parse_query`` finds string literals with.
_STRING_BODY = r"(?:[^'\\]|\\['\\]|\\(?!['\\]))*"
_TOKEN_RE = re.compile(r"""\s*(?:
      (?P<float>\d+\.\d+)
    | (?P<int>\d+)
    | (?P<ident>\w+)
    | (?P<string>'""" + _STRING_BODY + r"""')
    | (?P<punct><=|>=|<>|\.\.|[()\[\]\-><:,.*=|])
    | (?P<unterminated>')
    | (?P<bad>\S)
    )""", re.VERBOSE)
_ESCAPE_RE = re.compile(r"\\(['\\])")


def _unescape(body: str) -> str:
    """A string literal's value from the text between its quotes."""
    return _ESCAPE_RE.sub(r"\1", body) if "\\" in body else body


class _Token:
    __slots__ = ("kind", "text", "pos", "lower")

    def __init__(self, kind: str, text: str, pos: int):
        self.kind = kind  # ident, int, float, string, punct, end
        self.text = text
        self.pos = pos
        self.lower = text.lower()


def _tokenize(text: str) -> list[_Token]:
    """The tokens of ``text``, closed by two end tokens so that the
    parser may look one token past the last one."""
    tokens = []
    for m in _TOKEN_RE.finditer(text, 0, len(text.rstrip())):
        kind = m.lastgroup
        pos = m.start(kind)
        token = m.group(kind)
        if kind == "string":
            token = _unescape(token[1:-1])
        elif kind == "unterminated":
            raise QuerySyntaxError("unterminated string literal", pos)
        elif kind == "bad" or (kind == "ident" and not (
                token[0].isalpha() or token[0] == "_")):
            raise QuerySyntaxError(f"unexpected character {token[0]!r}", pos)
        tokens.append(_Token(kind, token, pos))
    end = _Token("end", "", len(text))
    tokens += (end, end)
    return tokens


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------

class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self, offset: int = 0) -> _Token:
        return self.tokens[self.i + offset]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        if tok.kind != "end":
            self.i += 1
        return tok

    # the accept/expect helpers step over a token they have checked,
    # which is never the end token
    def accept_punct(self, text: str) -> bool:
        tok = self.tokens[self.i]
        if tok.kind == "punct" and tok.text == text:
            self.i += 1
            return True
        return False

    def expect_punct(self, text: str) -> _Token:
        tok = self.tokens[self.i]
        if tok.kind != "punct" or tok.text != text:
            raise QuerySyntaxError(f"expected {text!r}, found {tok.text!r}", tok.pos)
        self.i += 1
        return tok

    def accept_keyword(self, word: str) -> bool:
        tok = self.tokens[self.i]
        if tok.kind == "ident" and tok.lower == word:
            self.i += 1
            return True
        return False

    def expect_keyword(self, word: str) -> _Token:
        tok = self.tokens[self.i]
        if tok.kind != "ident" or tok.lower != word:
            raise QuerySyntaxError(f"expected {word.upper()}, found {tok.text!r}", tok.pos)
        self.i += 1
        return tok

    def expect_name(self, what: str) -> _Token:
        tok = self.tokens[self.i]
        if tok.kind != "ident":
            raise QuerySyntaxError(f"expected {what}, found {tok.text!r}", tok.pos)
        if tok.lower in _UNSUPPORTED_KEYWORDS:
            raise UnsupportedConstructError(f"{tok.text.upper()} is not supported")
        if tok.lower in _KEYWORDS:
            raise QuerySyntaxError(f"expected {what}, found keyword {tok.text!r}", tok.pos)
        self.i += 1
        return tok

    def expect_int(self) -> int:
        tok = self.tokens[self.i]
        if tok.kind != "int":
            raise QuerySyntaxError(f"expected integer, found {tok.text!r}", tok.pos)
        self.i += 1
        return int(tok.text)

    # -- clauses -------------------------------------------------------

    def parse(self) -> QueryGraph:
        tok = self.peek()
        if tok.kind == "ident" and tok.lower in _UNSUPPORTED_KEYWORDS:
            raise UnsupportedConstructError(f"{tok.text.upper()} is not supported")
        self.expect_keyword("match")
        vertices: dict[str, str | None] = {}
        edges: list[PatternEdge] = []
        paths: list[VarLengthPath] = []
        used_names: set[str] = set()
        self._parse_chain(vertices, edges, paths, used_names)
        while self.accept_punct(","):
            self._parse_chain(vertices, edges, paths, used_names)

        filters = None
        if self.accept_keyword("where"):
            filters = self._parse_or()

        tok = self.peek()
        if tok.kind == "ident" and tok.lower in _UNSUPPORTED_KEYWORDS:
            raise UnsupportedConstructError(f"{tok.text.upper()} is not supported")
        self.expect_keyword("return")
        projection = [self._parse_projection_item()]
        while self.accept_punct(","):
            projection.append(self._parse_projection_item())

        order_by = None
        if self.accept_keyword("order"):
            self.expect_keyword("by")
            alias = self.expect_name("ORDER BY alias").text
            descending = False
            if self.accept_keyword("desc"):
                descending = True
            else:
                self.accept_keyword("asc")
            if self.peek().kind == "punct" and self.peek().text == ",":
                raise UnsupportedConstructError("multiple ORDER BY keys are not supported")
            order_by = OrderBy(alias, descending)

        limit = None
        if self.accept_keyword("limit"):
            tok = self.peek()
            limit = self.expect_int()
            if limit <= 0:
                raise QuerySyntaxError("LIMIT must be positive", tok.pos)

        tok = self.peek()
        if tok.kind != "end":
            if tok.kind == "ident" and tok.lower in _UNSUPPORTED_KEYWORDS:
                raise UnsupportedConstructError(f"{tok.text.upper()} is not supported")
            raise QuerySyntaxError(f"unexpected trailing input {tok.text!r}", tok.pos)

        return QueryGraph(
            pattern_vertices=vertices,
            pattern_edges=tuple(edges),
            var_length_paths=tuple(paths),
            filters=filters,
            projection=tuple(projection),
            order_by=order_by,
            limit=limit,
        )

    def _parse_chain(self, vertices, edges, paths, used_names):
        prev = self._parse_vertex(vertices, used_names)
        while True:
            tok = self.peek()
            if tok.kind == "punct" and tok.text == "<":
                raise UnsupportedConstructError(
                    "reverse arrows are not supported; swap the endpoints"
                )
            if not (tok.kind == "punct" and tok.text == "-"):
                break
            link = self._parse_link(used_names)
            dst = self._parse_vertex(vertices, used_names)
            name, labels, bounds = link
            if bounds is None:
                label = labels[0] if labels else None
                edges.append(PatternEdge(src=prev, dst=dst, label=label, name=name))
                if name:
                    used_names.add(name)
            else:
                lo, hi = bounds
                paths.append(VarLengthPath(
                    src=prev, dst=dst, lower=lo, upper=hi,
                    labels=tuple(labels) if labels else None, name=name,
                ))
                if name:
                    used_names.add(name)
            prev = dst

    def _parse_vertex(self, vertices, used_names) -> str:
        self.expect_punct("(")
        tok = self.peek()
        if tok.kind == "punct" and tok.text == ")":
            raise UnsupportedConstructError("anonymous pattern vertices are not supported")
        name = self.expect_name("vertex name").text
        vtype = None
        if self.accept_punct(":"):
            vtype = self.expect_name("vertex type").text
        self.expect_punct(")")
        if name in vertices:
            if vtype is not None:
                if vertices[name] is not None and vertices[name] != vtype:
                    raise QuerySyntaxError(
                        f"conflicting types for vertex {name!r}", tok.pos)
                vertices[name] = vtype
        else:
            if name in used_names:
                raise QuerySyntaxError(f"name {name!r} already bound", tok.pos)
            vertices[name] = vtype
            used_names.add(name)
        return name

    def _parse_link(self, used_names):
        """Returns (name, labels, bounds); bounds None for a fixed edge."""
        self.expect_punct("-")
        if self.accept_punct("-"):  # '-->' sugar for '-[]->'
            self.expect_punct(">")
            return None, [], None
        self.expect_punct("[")
        name = None
        tok = self.peek()
        if tok.kind == "ident":
            name = self.expect_name("edge name").text
            if name in used_names:
                raise QuerySyntaxError(f"name {name!r} already bound", tok.pos)
        labels: list[str] = []
        if self.accept_punct(":"):
            labels.append(self.expect_name("edge label").text)
            while self.accept_punct("|"):
                labels.append(self.expect_name("edge label").text)
        bounds = None
        if self.peek().kind == "punct" and self.peek().text == "*":
            star = self.next()
            lo = self.expect_int()
            self.expect_punct("..")
            hi = self.expect_int()
            if lo > hi:
                raise QuerySyntaxError(
                    f"variable-length bounds {lo}..{hi} have L > U", star.pos)
            bounds = (lo, hi)
        if bounds is None and len(labels) > 1:
            raise UnsupportedConstructError(
                "label alternation is only supported on variable-length links")
        self.expect_punct("]")
        self.expect_punct("-")
        self.expect_punct(">")
        return name, labels, bounds

    def _parse_projection_item(self) -> ProjectionItem:
        tok = self.peek()
        if (tok.kind == "ident" and tok.lower in AGGREGATE_FUNCS
                and self.peek(1).kind == "punct" and self.peek(1).text == "("):
            func = self.next().lower
            self.expect_punct("(")
            arg = self._parse_ref()
            self.expect_punct(")")
            expr: ProjectionExpr = Aggregate(func, arg)
        else:
            expr = self._parse_ref()
        alias = default_alias(expr)
        if self.accept_keyword("as"):
            alias = self.expect_name("alias").text
        return ProjectionItem(expr, alias)

    def _parse_ref(self) -> Union[NameRef, PropertyRef]:
        name = self.expect_name("name").text
        if self.accept_punct("."):
            key = self.expect_name("property key").text
            return PropertyRef(name, key)
        return NameRef(name)

    # -- filter expressions ---------------------------------------------

    def _parse_or(self) -> FilterExpr:
        children = [self._parse_and()]
        while self.accept_keyword("or"):
            children.append(self._parse_and())
        return children[0] if len(children) == 1 else Or(tuple(children))

    def _parse_and(self) -> FilterExpr:
        children = [self._parse_not()]
        while self.accept_keyword("and"):
            children.append(self._parse_not())
        return children[0] if len(children) == 1 else And(tuple(children))

    def _parse_not(self) -> FilterExpr:
        if self.accept_keyword("not"):
            return Not(self._parse_not())
        return self._parse_atom()

    def _parse_atom(self) -> FilterExpr:
        if self.accept_punct("("):
            inner = self._parse_or()
            self.expect_punct(")")
            return inner
        tok = self.peek()
        lhs = self._parse_ref()
        if not isinstance(lhs, PropertyRef):
            raise QuerySyntaxError(
                "comparisons must reference a property (name.key)", tok.pos)
        op_tok = self.peek()
        if op_tok.kind != "punct" or op_tok.text not in ("=", "<>", "<", "<=", ">", ">="):
            raise QuerySyntaxError(
                f"expected comparison operator, found {op_tok.text!r}", op_tok.pos)
        self.next()
        rhs = self._parse_operand()
        return Comparison(lhs, op_tok.text, rhs)

    def _parse_operand(self) -> Union[Literal, PropertyRef]:
        tok = self.peek()
        if tok.kind == "int":
            self.next()
            return Literal(int(tok.text))
        if tok.kind == "float":
            self.next()
            return Literal(float(tok.text))
        if tok.kind == "string":
            self.next()
            return Literal(tok.text)
        if tok.kind == "punct" and tok.text == "-":
            self.next()
            num = self.peek()
            if num.kind == "int":
                self.next()
                return Literal(-int(num.text))
            if num.kind == "float":
                self.next()
                return Literal(-float(num.text))
            raise QuerySyntaxError("expected number after '-'", num.pos)
        if tok.kind == "ident":
            if tok.lower == "true":
                self.next()
                return Literal(True)
            if tok.lower == "false":
                self.next()
                return Literal(False)
            ref = self._parse_ref()
            if not isinstance(ref, PropertyRef):
                raise QuerySyntaxError(
                    "comparison operand must be a literal or property", tok.pos)
            return ref
        raise QuerySyntaxError(f"expected operand, found {tok.text!r}", tok.pos)


def is_name(text) -> bool:
    """True when ``text`` is, as it stands, one name the parser takes for
    a vertex, type or label: one word token that is no keyword."""
    if not isinstance(text, str):
        return False
    try:
        tokens = _tokenize(text)
    except QuerySyntaxError:
        return False
    tok = tokens[0]
    return (tokens[1].kind == "end" and tok.kind == "ident" and tok.text == text
            and tok.lower not in _KEYWORDS
            and tok.lower not in _UNSUPPORTED_KEYWORDS)


# --------------------------------------------------------------------------
# Query shapes
# --------------------------------------------------------------------------

SHAPE_CACHE_ENTRIES = 256


class ShapeCache:
    """At most ``SHAPE_CACHE_ENTRIES`` values by key. A put past the
    bound evicts the entry put first; a value is stored as given, so a
    mutable one is copied by the caller."""

    def __init__(self):
        self._entries: dict = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key):
        return self._entries.get(key)

    def put(self, key, value) -> None:
        with self._lock:
            self._entries[key] = value
            if len(self._entries) > SHAPE_CACHE_ENTRIES:
                del self._entries[next(iter(self._entries))]


# text with each string literal emptied -> its parse, literal values and all
_PARSED = ShapeCache()
_STRING_LITERAL_RE = re.compile("'(" + _STRING_BODY + ")'")


def parse_query(text: str) -> QueryGraph:
    """Parse query text into a :class:`QueryGraph`.

    Texts that differ only in the values of their string literals share
    one parse: the text with every string literal emptied is the key,
    and a text with a known key gets the known query with its own
    literal values put into the filters, in text order. Numbers,
    booleans, path bounds and ``LIMIT`` stay in the key. A text that
    fails to parse is never kept, so it fails afresh with its own
    message and offset. The cache holds ``SHAPE_CACHE_ENTRIES`` shapes.
    """
    parts = _STRING_LITERAL_RE.split(text)
    key = "''".join(parts[::2])
    known = _PARSED.get(key)
    if known is None:
        q = _Parser(text).parse()
        _PARSED.put(key, with_filters(q, q.filters))
        return q
    filters = known.filters
    if len(parts) > 1:
        filters = _bind_literals(filters, map(_unescape, parts[1::2]))
    return with_filters(known, filters)


def _bind_literals(expr: FilterExpr, values: Iterator[str]) -> FilterExpr:
    """``expr`` with each string literal's value taken from ``values``,
    in the order the literals appear in the text."""
    if isinstance(expr, Comparison):
        if isinstance(expr.rhs, Literal) and isinstance(expr.rhs.value, str):
            return Comparison(expr.lhs, expr.op, Literal(next(values)))
        return expr
    if isinstance(expr, Not):
        return Not(_bind_literals(expr.child, values))
    return type(expr)(tuple(_bind_literals(c, values) for c in expr.children))


def with_filters(q: QueryGraph, filters: FilterExpr | None) -> QueryGraph:
    """A copy of ``q`` with ``filters`` and a ``pattern_vertices`` dict of
    its own. It is not validated again: ``filters`` must reference the
    names ``q``'s own filters do, as filters that differ only in literal
    values do."""
    copy = object.__new__(QueryGraph)
    copy.__dict__.update(q.__dict__)
    copy.pattern_vertices = dict(q.pattern_vertices)
    copy.filters = filters
    return copy


def shape_key(q: QueryGraph) -> tuple:
    """A hashable key of everything in ``q`` but its filters' literal
    values: queries that differ only in those have equal keys."""
    return (tuple(q.pattern_vertices.items()), q.pattern_edges,
            q.var_length_paths, _filter_shape(q.filters), q.projection,
            q.order_by, q.limit)


def _filter_shape(expr: FilterExpr | None):
    if expr is None:
        return None
    if isinstance(expr, Comparison):
        rhs = None if isinstance(expr.rhs, Literal) else expr.rhs
        return (expr.lhs, expr.op, rhs)
    if isinstance(expr, Not):
        return (Not, _filter_shape(expr.child))
    return (type(expr), tuple(map(_filter_shape, expr.children)))


# --------------------------------------------------------------------------
# Renderer
# --------------------------------------------------------------------------

def default_alias(expr: ProjectionExpr) -> str:
    if isinstance(expr, NameRef):
        return expr.name
    if isinstance(expr, PropertyRef):
        return f"{expr.name}.{expr.key}"
    return f"{expr.func}({default_alias(expr.arg)})"


def _render_literal(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValidationError("cannot render non-finite float literal")
        # the grammar has no exponent: 1e-05 renders as 0.00001
        text = format(Decimal(repr(value)), "f")
        return text if "." in text else text + ".0"
    if isinstance(value, int):
        return repr(value)
    escaped = value.replace("\\", "\\\\").replace("'", "\\'")
    return f"'{escaped}'"


def _render_operand(op) -> str:
    if isinstance(op, Literal):
        return _render_literal(op.value)
    return f"{op.name}.{op.key}"


def _render_filter(expr: FilterExpr, parent: str | None = None) -> str:
    if isinstance(expr, Comparison):
        return f"{expr.lhs.name}.{expr.lhs.key} {expr.op} {_render_operand(expr.rhs)}"
    if isinstance(expr, And):
        text = " AND ".join(_render_filter(c, "and") for c in expr.children)
        return f"({text})" if parent in ("not",) else text
    if isinstance(expr, Or):
        text = " OR ".join(_render_filter(c, "or") for c in expr.children)
        return f"({text})" if parent in ("and", "not") else text
    if isinstance(expr, Not):
        return f"NOT {_render_filter(expr.child, 'not')}"
    raise ValidationError(f"cannot render filter node {expr!r}")


def _render_projection(item: ProjectionItem) -> str:
    text = default_alias(item.expr)
    if item.alias != default_alias(item.expr):
        text += f" AS {item.alias}"
    return text


def render_query(q: QueryGraph) -> str:
    """Render a QueryGraph to query text. ``parse_query(render_query(q))``
    is structurally equal to ``q``."""
    emitted_type: set[str] = set()

    def vertex(name: str) -> str:
        vtype = q.pattern_vertices[name]
        if vtype is not None and name not in emitted_type:
            emitted_type.add(name)
            return f"({name}:{vtype})"
        emitted_type.add(name)
        return f"({name})"

    fragments = []
    covered: set[str] = set()
    for e in q.pattern_edges:
        body = e.name or ""
        if e.label:
            body += f":{e.label}"
        fragments.append(f"{vertex(e.src)}-[{body}]->{vertex(e.dst)}")
        covered.update((e.src, e.dst))
    for p in q.var_length_paths:
        body = p.name or ""
        if p.labels:
            body += ":" + "|".join(p.labels)
        body += f"*{p.lower}..{p.upper}"
        fragments.append(f"{vertex(p.src)}-[{body}]->{vertex(p.dst)}")
        covered.update((p.src, p.dst))
    for name in q.pattern_vertices:
        if name not in covered:
            fragments.append(vertex(name))

    parts = ["MATCH " + ", ".join(fragments)]
    if q.filters is not None:
        parts.append("WHERE " + _render_filter(q.filters))
    parts.append("RETURN " + ", ".join(_render_projection(i) for i in q.projection))
    if q.order_by is not None:
        parts.append(f"ORDER BY {q.order_by.alias} "
                     + ("DESC" if q.order_by.descending else "ASC"))
    if q.limit is not None:
        parts.append(f"LIMIT {q.limit}")
    return " ".join(parts)


# --------------------------------------------------------------------------
# Result tables
# --------------------------------------------------------------------------

def _cell_sort_key(value):
    """None, then booleans, then numbers, then the rest. Numbers compare
    by exact value, so two ints that round to one float still differ; of
    equal numbers an int comes before a float, and -0.0 before 0.0. Rows
    with equal keys are therefore equal, and their order does not depend
    on the order in which they were found."""
    if type(value) is str:   # the commonest cell (ids), tested first
        return (3, value)
    if value is None:
        return (0, "")
    if isinstance(value, bool):
        return (1, value)
    if isinstance(value, int):
        return (2, value, 0)
    if isinstance(value, float):
        return (2, value, 1, math.copysign(1.0, value))
    return (3, value)


def _row_sort_key(row):
    return tuple(_cell_sort_key(v) for v in row)


def _cells_equal(a, b, rel_tol: float) -> bool:
    if isinstance(a, bool) or isinstance(b, bool):
        return a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        if rel_tol <= 0:
            return a == b
        return math.isclose(a, b, rel_tol=rel_tol, abs_tol=1e-12)
    return a == b


@dataclass
class ResultTable:
    """Query result: named columns over a multiset of rows."""

    columns: tuple[str, ...]
    rows: list[tuple] = field(default_factory=list)

    def __post_init__(self):
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValidationError(
                    f"row arity {len(row)} != column arity {len(self.columns)}")

    def multiset_equal(self, other: "ResultTable", rel_tol: float = 0.0) -> bool:
        """Multiset row equality; numeric cells compared within rel_tol."""
        if self.columns != other.columns or len(self.rows) != len(other.rows):
            return False
        mine = sorted(self.rows, key=_row_sort_key)
        theirs = sorted(other.rows, key=_row_sort_key)
        return all(
            len(a) == len(b) and all(_cells_equal(x, y, rel_tol) for x, y in zip(a, b))
            for a, b in zip(mine, theirs)
        )

    def to_csv(self) -> str:
        import csv as _csv
        import io
        buf = io.StringIO()
        writer = _csv.writer(buf, lineterminator="\n")
        writer.writerow(self.columns)
        for row in self.rows:
            writer.writerow(["" if v is None else v for v in row])
        return buf.getvalue()
