import math
import random
import re
import struct
from dataclasses import replace

import pytest

from graphviews.errors import (
    QuerySyntaxError,
    UnboundNameError,
    UnsupportedConstructError,
    ValidationError,
)
from graphviews.query import (
    _tokenize,
    Aggregate,
    Comparison,
    Literal,
    NameRef,
    PatternEdge,
    PropertyRef,
    QueryGraph,
    ResultTable,
    VarLengthPath,
    parse_query,
    render_query,
)

from conftest import BLAST_RADIUS_QUERY
from oracles import reference_tokenize


class TestParse:
    def test_blast_radius_shape(self):
        q = parse_query(BLAST_RADIUS_QUERY)
        assert q.pattern_vertices == {
            "q_j1": "Job", "q_f1": "File", "q_f2": "File", "q_j2": "Job",
        }
        assert q.pattern_edges == (
            PatternEdge("q_j1", "q_f1", "WRITES_TO"),
            PatternEdge("q_f2", "q_j2", "IS_READ_BY"),
        )
        assert q.var_length_paths == (
            VarLengthPath("q_f1", "q_f2", 0, 8, None, "r"),
        )
        assert len(q.projection) == 2
        assert q.projection[1].expr == Aggregate("avg", PropertyRef("q_j2", "cpu_hours"))

    def test_single_vertex_count(self):
        q = parse_query("MATCH (a:Job) RETURN count(a)")
        assert q.pattern_vertices == {"a": "Job"}
        assert q.pattern_edges == ()
        assert q.aggregates()[0].expr == Aggregate("count", NameRef("a"))

    def test_bounds_l_greater_than_u(self):
        with pytest.raises(QuerySyntaxError):
            parse_query("MATCH (a)-[*2..1]->(b) RETURN a")

    def test_where_order_limit(self):
        q = parse_query(
            "MATCH (a:Job)-[e:WRITES_TO]->(b:File) "
            "WHERE a.cpu_hours > 3 AND NOT (b.size <= 7 OR a.name = 'x') "
            "RETURN a.id AS jid, e.timestamp ORDER BY jid DESC LIMIT 4"
        )
        assert isinstance(q.filters, object)
        assert q.order_by.alias == "jid"
        assert q.order_by.descending
        assert q.limit == 4
        assert q.pattern_edges[0].name == "e"

    def test_label_alternation_on_path(self):
        q = parse_query("MATCH (a:Job)-[p:WRITES_TO|IS_READ_BY*1..3]->(b:Job) RETURN a")
        assert q.var_length_paths[0].labels == ("WRITES_TO", "IS_READ_BY")

    def test_unbound_name_rejected(self):
        with pytest.raises(UnboundNameError):
            parse_query("MATCH (a:Job) RETURN b")
        with pytest.raises(UnboundNameError):
            parse_query("MATCH (a:Job) WHERE c.x = 1 RETURN a")

    def test_unsupported_constructs_rejected(self):
        for text in [
            "OPTIONAL MATCH (a) RETURN a",
            "MATCH (a) WITH a RETURN a",
            "CREATE (a:Job) RETURN a",
            "MATCH (a) RETURN DISTINCT a",
            "MATCH (a)<-[:L]-(b) RETURN a",
            "MATCH () RETURN 1",
            "MATCH (a) RETURN a SKIP 2",
        ]:
            with pytest.raises(UnsupportedConstructError):
                parse_query(text)

    def test_path_variable_not_referencable(self):
        with pytest.raises(UnsupportedConstructError):
            parse_query("MATCH (a)-[r*1..2]->(b) RETURN r")

    def test_syntax_error_has_position(self):
        with pytest.raises(QuerySyntaxError) as exc:
            parse_query("MATCH (a:Job RETURN a")
        assert exc.value.position > 0

    def test_conflicting_vertex_types(self):
        with pytest.raises(QuerySyntaxError):
            parse_query("MATCH (a:Job)-[:L]->(b), (a:File)-[:L]->(c) RETURN a")

    def test_limit_positive(self):
        with pytest.raises(QuerySyntaxError):
            parse_query("MATCH (a) RETURN a LIMIT 0")

    def test_empty_projection_rejected_at_construction(self):
        with pytest.raises(ValidationError):
            QueryGraph(
                pattern_vertices={"a": None},
                pattern_edges=(),
                var_length_paths=(),
                filters=None,
                projection=(),
            )

    def test_arrow_sugar(self):
        q = parse_query("MATCH (a)-->(b) RETURN a")
        assert q.pattern_edges == (PatternEdge("a", "b", None),)

    @pytest.mark.parametrize("text, offset", [
        ("MATCH (a)-[*1..\u00b2]->(b) RETURN a", 15),
        ("MATCH (a) WHERE a.x = \u00b2 RETURN a", 22),
        ("MATCH (a) RETURN a LIMIT \u00b3", 25),
        ("MATCH (a) RETURN a LIMIT 1\u00b2", 26),
        ("MATCH (a) WHERE a.x = 1.\u00b2 RETURN a", 24),
        ("MATCH (\u00b2a) RETURN a", 7),
    ])
    def test_non_decimal_digit_is_syntax_error(self, text, offset):
        with pytest.raises(QuerySyntaxError) as exc:
            parse_query(text)
        assert exc.value.position == offset
        assert str(exc.value) == (
            f"unexpected character {text[offset]!r} (at offset {offset})")

    def test_decimal_digits_of_any_script(self):
        q = parse_query("MATCH (a)-[*\u0661..\u0663]->(b) "
                        "WHERE a.x = \u0663.5 RETURN a LIMIT \u0663")
        assert (q.var_length_paths[0].lower, q.var_length_paths[0].upper) == (1, 3)
        assert q.filters.rhs.value == 3.5
        assert q.limit == 3
        # a letter may be followed by any numeric character
        assert parse_query("MATCH (a\u00b2) RETURN a\u00b2").pattern_vertices == {
            "a\u00b2": None}


# The reference reads runs of str.isdigit characters as numbers, so a
# non-decimal digit such as '²' in one reached int() in the parser and
# raised a bare ValueError; the tokenizer rejects it at its offset.
TOKEN_ALPHABET = (list("()[]-<>:,.*=|'\\\"") + ["\t", "\x0b", "\xa0", " "]
                  + ["\u00e9", "\u00df", "\u01c5", "_", "\u0663", "\u00b2",
                     "\u00bd"]
                  + ["MATCH", "where", "Return", "AND", "limit", "x", "7"]
                  + ["1..3", "1.5", "'a\\'b'", "'abc\\"])


def expected_tokens(text):
    """The reference's (kind, text, pos) tokens, or its first error as
    (message, offset), with the first number token holding a non-decimal
    digit turned into an unexpected-character error at that digit."""
    error = None
    try:
        tokens = reference_tokenize(text)
    except QuerySyntaxError as exc:
        error = (str(exc), exc.position)
        tokens = reference_tokenize(text[:exc.position])
    for kind, token, pos in tokens:
        if kind in ("int", "float"):
            for off, ch in enumerate(token):
                if ch != "." and not ch.isdecimal():
                    at = pos + off
                    return (f"unexpected character {ch!r} (at offset {at})", at)
    return error or tokens


def tokenized(text):
    try:
        tokens = _tokenize(text)
    except QuerySyntaxError as exc:
        return (str(exc), exc.position)
    # one extra end token lets the parser look one token ahead anywhere
    assert tokens[-1].kind == tokens[-2].kind == "end"
    return [(t.kind, t.text, t.pos) for t in tokens[:-1]]


class TestTokenizerMatchesReference:
    def test_random_strings(self):
        rng = random.Random(9)
        for trial in range(20000):
            text = "".join(rng.choice(TOKEN_ALPHABET)
                           for _ in range(rng.randrange(0, 16)))
            assert tokenized(text) == expected_tokens(text), (trial, text)

    def test_corpus(self):
        for text in ROUND_TRIP_CORPUS + [
                "", "   ", " \t\n", "MATCH (a) RETURN a  \n",
                "'abc\\ ", "'a\\\\'", "'\\q'", "a.b..c", "1.2.3", "9.",
                ".5", "x'y'z", "<<=>>=<>=", "'\u00b2'", "a\u00bd", "\u00bd"]:
            assert tokenized(text) == expected_tokens(text), text

    def test_random_queries_raise_only_validation_errors(self):
        # token soup near the grammar: every input parses or is refused
        # with a ValidationError, which the CLI turns into exit code 2
        rng = random.Random(4)
        for trial in range(3000):
            try:
                parse_query(random_query(rng))
            except ValidationError:
                pass


QUERY_WORDS = ["MATCH", "WHERE", "RETURN", "ORDER", "BY", "LIMIT", "AS",
               "AND", "OR", "NOT", "count", "(a", "(b:Job)", ")", "-[",
               "]->", "*", "1..\u00b2", "0..3", "a.x", "=", "\u00b3", "2",
               "'s'", ",", "-->", "DESC", "1.5"]


def random_query(rng: random.Random, words=QUERY_WORDS) -> str:
    """Seeded token soup near the grammar: 1 to 11 of ``words``."""
    return " ".join(rng.choice(words) for _ in range(rng.randrange(1, 12)))


ROUND_TRIP_CORPUS = [
    BLAST_RADIUS_QUERY,
    "MATCH (a:Job) RETURN count(a)",
    "MATCH (a)-[]->(b) RETURN count(a)",
    "MATCH (a:Job)-[e:WRITES_TO]->(b:File) WHERE a.x > 1.5 OR b.y = true "
    "RETURN a, b.size AS s, min(a.x) ORDER BY s ASC LIMIT 3",
    "MATCH (x:File)-[p:IS_READ_BY*0..4]->(y:Job) RETURN x.id, max(y.cpu_hours)",
    "MATCH (a)-[*1..1]->(b), (c:Job) WHERE NOT a.f = 'it''s' RETURN a, b, c",
    "MATCH (a:Job)-[:WRITES_TO]->(b:File)-[r*0..2]->(c:File) "
    "WHERE c.size <> -2 RETURN a.id, sum(c.size)",
]


class TestRoundTrip:
    @pytest.mark.parametrize("text", ROUND_TRIP_CORPUS)
    def test_render_parse_round_trip(self, text):
        # normalise the doubled quote escape used in the corpus
        text = text.replace("''", "\\'")
        q = parse_query(text)
        rendered = render_query(q)
        assert parse_query(rendered) == q

    def test_float_literals_round_trip(self):
        # the grammar has no exponent, so no float may render with one
        rng = random.Random(31)
        values = [1e-05, 1.2e+23, 1e16, -0.0, 5e-324, 1.7976931348623157e308]
        for _ in range(2000):
            values.append(rng.uniform(-1, 1) * 10.0 ** rng.randint(-30, 30))
            values.append(struct.unpack("<d", rng.randbytes(8))[0])
        base = parse_query("MATCH (a) WHERE a.x = 1.5 RETURN a")
        for value in filter(math.isfinite, values):
            q = replace(base, filters=Comparison(
                PropertyRef("a", "x"), "=", Literal(value)))
            rendered = render_query(q)
            literal = rendered.split(" = ")[1].split(" ")[0]
            assert re.fullmatch(r"-?\d+\.\d+", literal), rendered
            again = parse_query(rendered)
            assert again == q, rendered
            assert (math.copysign(1, again.filters.rhs.value)
                    == math.copysign(1, value))

    def test_var_length_render_shape(self):
        q = parse_query("MATCH (a:Job)-[*0..4]->(b:Job) RETURN a")
        assert "[*0..4]" in render_query(q)


class TestNameBindingProperty:
    def test_mutated_queries_reject_unbound(self):
        """Renaming a RETURN/WHERE reference to a fresh name must fail."""
        rng = random.Random(0)
        base = parse_query(BLAST_RADIUS_QUERY)
        for trial in range(50):
            victim = rng.choice(sorted(base.referenced_names()))
            fresh = f"ghost{trial}"
            text = BLAST_RADIUS_QUERY
            # replace only occurrences outside the MATCH pattern
            match_part, rest = text.split("RETURN")
            rest = rest.replace(victim, fresh)
            with pytest.raises(UnboundNameError):
                parse_query(match_part + "RETURN" + rest)


class TestResultTable:
    def test_multiset_equality_ignores_order(self):
        a = ResultTable(("x",), [(1,), (2,), (2,)])
        b = ResultTable(("x",), [(2,), (1,), (2,)])
        assert a.multiset_equal(b)
        assert not a.multiset_equal(ResultTable(("x",), [(1,), (2,)]))
        assert not a.multiset_equal(ResultTable(("y",), [(1,), (2,), (2,)]))

    def test_float_tolerance(self):
        a = ResultTable(("x",), [(1.0,)])
        b = ResultTable(("x",), [(1.0 + 1e-12,)])
        assert a.multiset_equal(b, rel_tol=1e-9)
        assert not a.multiset_equal(ResultTable(("x",), [(1.001,)]), rel_tol=1e-9)

    def test_arity_enforced(self):
        with pytest.raises(ValidationError):
            ResultTable(("x", "y"), [(1,)])

    def test_csv(self):
        t = ResultTable(("a", "b"), [(1, None), ("x", 2.5)])
        assert t.to_csv() == "a,b\n1,\nx,2.5\n"
