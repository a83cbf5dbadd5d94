"""Differential tests of the two shape caches: ``parse_query`` keeps one
parse per text with its string literals emptied, ``rewrite_with_view``
one plan per (query shape, view) on the schema. Warm or cold, each must
give what a full parse or a fresh rewrite gives, errors included."""

import itertools
import random
import re
from dataclasses import replace

import pytest

from graphviews import query
from graphviews.enumeration import _rewrite, enumerate_views, rewrite_with_view
from graphviews.errors import ValidationError
from graphviews.generate import LINEAGE_SCHEMA, PROVENANCE_SCHEMA, ROAD_SCHEMA
from graphviews.mining import mine_constraints
from graphviews.query import SHAPE_CACHE_ENTRIES, ShapeCache, parse_query
from graphviews.store import GraphSchema

from test_query import QUERY_WORDS, random_query

LIT = "<lit>"   # a string literal slot, filled from LITERALS
LITERALS = ["''", "'s'", "'j0'", "'j17'", "'it\\'s'", "'a\\\\'", "'\\q'",
            "'x y'", "'MATCH'", "'²'", "'a''b'", "'r0c0'"]
UNTERMINATED = ["'abc", "'x\\'"]

BLAST = ("MATCH (q_j1:Job)-[:WRITES_TO]->(q_f1:File), "
         "(q_f1)-[r*0..8]->(q_f2:File), (q_f2)-[:IS_READ_BY]->(q_j2:Job) "
         "WHERE {name}.id = {lit} RETURN q_j1.id, avg(q_j2.cpu_hours)")
ROAD_COUNT = ("MATCH (a:Junction)-[p*4..4]->(b:Junction) "
              "WHERE a.id = {lit} RETURN b.id, count(a)")
ROAD_REACH = ("MATCH (a:Junction)-[p*1..4]->(b:Junction) "
              "WHERE a.id = {lit} RETURN b.id")
FILTER_WORDS = ["a.x", "b.y", "a.id", "=", "<>", "<", LIT, LIT, LIT, "AND",
                "OR", "NOT", "(", ")", "1.5", "-", "2", "true"]
TEMPLATES = [BLAST.format(name="q_j1", lit=LIT),
             BLAST.format(name="q_j2", lit=LIT),
             ROAD_COUNT.format(lit=LIT), ROAD_REACH.format(lit=LIT),
             f"MATCH (a:Job)-[e:WRITES_TO]->(b:File) WHERE a.id = {LIT} "
             f"AND (b.id <> {LIT} OR NOT a.name = {LIT}) RETURN a, b",
             f"MATCH (a) WHERE a.id = {LIT} RETURN a LIMIT 3"]


REFERENCE = query._Parser


def full_parse(text):
    return REFERENCE(text).parse()


def outcome(call, *args):
    """A call's result, or its error as (type, message, offset)."""
    try:
        result = call(*args)
    except ValidationError as exc:
        return type(exc), str(exc), getattr(exc, "position", None)
    q = result.rewritten if hasattr(result, "rewritten") else result
    # dict equality ignores order; the order is part of the query
    return result, list(q.pattern_vertices.items())


def shapes(rng, n):
    """Texts with literal slots: seeded soup near the grammar, random
    filters under a fixed pattern, and the workload templates."""
    soup = QUERY_WORDS + [LIT, LIT] + UNTERMINATED
    for trial in range(n):
        if trial % 3 == 0:
            yield random_query(rng, soup)
        elif trial % 3 == 1:
            where = " ".join(rng.choice(FILTER_WORDS)
                             for _ in range(rng.randrange(3, 12)))
            yield f"MATCH (a:Job)-[:WRITES_TO]->(b:File) WHERE {where} RETURN a"
        else:
            yield TEMPLATES[trial // 3 % len(TEMPLATES)]


def instances(shape, rng, n=3):
    """``n`` texts of one shape: each slot takes a random literal."""
    return [re.sub(LIT, lambda _: rng.choice(LITERALS), shape)
            for _ in range(n)]


@pytest.fixture
def parses(monkeypatch):
    """An empty parse cache, and a list of the texts a full parse
    succeeded on."""
    monkeypatch.setattr(query, "_PARSED", ShapeCache())
    full = []

    class Counting(query._Parser):
        def parse(self):
            q = super().parse()
            full.append(self.text)
            return q

    monkeypatch.setattr(query, "_Parser", Counting)
    return full


class TestParseCache:
    def test_equals_full_parse_cold_and_warm(self, parses):
        rng = random.Random(13)
        parsed = 0
        for trial, shape in enumerate(shapes(rng, 1500)):
            for text in instances(shape, rng):
                expected = outcome(full_parse, text)
                for _ in range(2):
                    assert outcome(parse_query, text) == expected, (trial, text)
                    parsed += len(expected) == 2
        # most queries come from the cache, not from a full parse
        assert len(parses) < parsed / 3

    @pytest.mark.parametrize("shape", [
        "MATCH (a) WHERE a.x = {} RETURN a",
        "MATCH (a) WHERE a.x = {} AND a.y = {} RETURN a",
        "MATCH (a) WHERE a.x = {} AND (a.y = {} OR NOT a.z = {}) RETURN a",
        "MATCH (a) WHERE a.x = {} AND a.y = 'abc RETURN a",
        "MATCH (a) WHERE a.x = 'x\\' AND a.y = {} RETURN a",
        "MATCH (a) WHERE a.x = {} RETURN a, 'abc",
        "MATCH ({}) RETURN a",
        "MATCH (a) WHERE a.x = {} RETURN a LIMIT 0",
        "MATCH (a) WHERE b.x = {} RETURN a",
    ])
    def test_literal_cases(self, parses, shape):
        # escaped quotes, empty strings and unterminated literals
        literals = ["''", "'it\\'s'", "'back\\\\'", "'s'"]
        for values in itertools.product(literals, repeat=shape.count("{}")):
            text = shape.format(*values)
            for _ in range(2):
                assert outcome(parse_query, text) == outcome(full_parse, text)

    def test_literals_bound_in_text_order(self, parses):
        shape = ("MATCH (a) WHERE a.x = {} AND (a.y = {} OR NOT a.z = {}) "
                 "RETURN a")
        parse_query(shape.format("'p'", "'q'", "'r'"))
        text = shape.format("'u'", "'v\\'w'", "''")
        q = parse_query(text)
        assert len(parses) == 1
        assert q == full_parse(text)
        x, (y, z) = q.filters.children[0], q.filters.children[1].children
        assert (x.rhs.value, y.rhs.value, z.child.rhs.value) == ("u", "v'w", "")

    def test_errors_are_never_cached(self, parses):
        for _ in range(2):
            with pytest.raises(ValidationError):
                parse_query("MATCH (a) WHERE a.x = 'abc RETURN a")
        assert len(query._PARSED) == 0

    def test_mutating_a_result_does_not_reach_the_cache(self, parses):
        text = "MATCH (a:Job)-->(b) WHERE a.id = 'j1' RETURN a"
        for _ in range(3):
            q = parse_query(text)
            assert outcome(lambda: q) == outcome(full_parse, text)
            q.pattern_vertices["a"] = "File"
            q.pattern_vertices["ghost"] = None
            q.filters = None
            q.limit = 7
        assert len(parses) == 1

    def test_bounded(self, parses):
        for n in range(1, 10 * SHAPE_CACHE_ENTRIES + 1):
            parse_query(f"MATCH (a) WHERE a.id = 'x' RETURN a LIMIT {n}")
        assert len(query._PARSED) == SHAPE_CACHE_ENTRIES
        # the newest shape is kept, the oldest went first
        last = 10 * SHAPE_CACHE_ENTRIES
        parse_query(f"MATCH (a) WHERE a.id = 'y' RETURN a LIMIT {last}")
        assert len(parses) == last
        parse_query("MATCH (a) WHERE a.id = 'y' RETURN a LIMIT 1")
        assert len(parses) == last + 1


def fresh(schema):
    """An equal schema object, with no plans kept on it yet."""
    return GraphSchema(schema.vertex_types, schema.edge_types)


def corpus(rng, templates, n=4):
    """Queries that parse: ``n`` literal instances of each template."""
    queries = []
    for template in templates:
        for text in instances(template, rng, n):
            try:
                queries.append(parse_query(text))
            except ValidationError:
                pass
    return queries


def views_of(queries, schema):
    """Every view enumerated for any of ``queries``."""
    views = []
    for q in queries:
        for v in enumerate_views(q, schema, mine_constraints(q, schema)):
            if v not in views:
                views.append(v)
    return views


LINEAGE_TEXTS = TEMPLATES[:2] + [
    BLAST.format(name="q_f1", lit=LIT),
    f"MATCH (a:Job)-[e:WRITES_TO]->(f:File)-[r:IS_READ_BY]->(b:Job) "
    f"WHERE a.id = {LIT} RETURN a.id, e.id, b.id",
    f"MATCH (a:Job)-[:WRITES_TO]->(f:File)-[:IS_READ_BY]->(b:Job) "
    f"WHERE f.id = {LIT} OR a.id = {LIT} RETURN a, b",
    f"MATCH (x:Job)-[p*1..4]->(y:Job) WHERE x.id = {LIT} RETURN x, y",
    f"MATCH (x:File)-[p:IS_READ_BY|WRITES_TO*0..4]->(y:Job) "
    f"WHERE y.id = {LIT} RETURN x.id, max(y.cpu_hours)",
    f"MATCH (a:Job)-[p*2..6]->(b:Job) WHERE NOT b.id = {LIT} "
    f"RETURN count(a) AS n ORDER BY n DESC LIMIT 5",
]


class TestRewriteMemo:
    @pytest.mark.parametrize("schema, texts", [
        (LINEAGE_SCHEMA, LINEAGE_TEXTS),
        (PROVENANCE_SCHEMA, LINEAGE_TEXTS),
        (ROAD_SCHEMA, TEMPLATES[2:4]),
    ], ids=["lineage", "provenance", "road"])
    def test_plans_and_refusals_equal_fresh(self, schema, texts):
        rng = random.Random(21)
        schema = fresh(schema)
        queries = corpus(rng, texts)
        # enumerated views, and those of the seeded random queries too
        randoms = corpus(rng, [random_query(rng, QUERY_WORDS + [LIT])
                               for _ in range(300)], n=2)
        views = views_of(queries, schema) + views_of(randoms[:20], schema)
        plans = refusals = 0
        for q in queries + randoms:
            for v in views:
                expected = outcome(_rewrite, q, v, schema)
                for _ in range(2):
                    got = outcome(rewrite_with_view, q, v, schema)
                    assert got == expected
                if len(expected) == 3:
                    refusals += 1
                else:
                    plans += 1
                    assert got[0].rewritten.filters is q.filters
        assert plans and refusals
        kept = schema.memo[rewrite_with_view]
        assert 0 < len(kept) < plans

    def test_hit_takes_the_request_filters(self):
        schema = fresh(LINEAGE_SCHEMA)
        first = parse_query(BLAST.format(name="q_j1", lit="'j0'"))
        (v,) = [v for v in views_of([first], schema) if v.view_id ==
                "khop:Job:Job:02"]
        rewrite_with_view(first, v, schema)
        q = parse_query(BLAST.format(name="q_j1", lit="'j9'"))
        plan = rewrite_with_view(q, v, schema)
        assert plan.rewritten.filters is q.filters
        assert plan == _rewrite(q, v, schema)

    def test_filter_names_are_part_of_the_key(self):
        schema = fresh(LINEAGE_SCHEMA)
        pinned = parse_query(BLAST.format(name="q_j1", lit="'j0'"))
        (v,) = [v for v in views_of([pinned], schema) if v.view_id ==
                "khop:Job:Job:02"]
        rewrite_with_view(pinned, v, schema)
        # filtering on the folded-away file keeps the edge from folding
        on_file = parse_query(BLAST.format(name="q_f1", lit="'j0'"))
        expected = outcome(_rewrite, on_file, v, schema)
        assert len(expected) == 3
        assert outcome(rewrite_with_view, on_file, v, schema) == expected

    def test_mutating_a_plan_does_not_reach_the_memo(self):
        schema = fresh(LINEAGE_SCHEMA)
        text = BLAST.format(name="q_j1", lit="'j0'")
        views = views_of([parse_query(text)], schema)
        for v in views:
            for _ in range(3):
                q = full_parse(text)
                expected = outcome(_rewrite, full_parse(text), v, schema)
                got = outcome(rewrite_with_view, q, v, schema)
                assert got == expected
                if len(got) == 2:
                    got[0].rewritten.pattern_vertices["ghost"] = None
                    got[0].rewritten.limit = 9
                q.pattern_vertices["ghost"] = None
                q.filters = None

    def test_bounded(self):
        schema = fresh(LINEAGE_SCHEMA)
        q = parse_query(BLAST.format(name="q_j1", lit="'j0'"))
        (v,) = [v for v in views_of([q], schema) if v.view_id ==
                "khop:Job:Job:02"]
        for n in range(1, 10 * SHAPE_CACHE_ENTRIES + 1):
            rewrite_with_view(replace(q, limit=n), v, schema)
        assert len(schema.memo[rewrite_with_view]) == SHAPE_CACHE_ENTRIES
