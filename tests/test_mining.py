import random

from graphviews import mining
from graphviews.enumeration import ViewInstance, rewrite_with_view
from graphviews.mining import (
    SchemaPath,
    mine_constraints,
    schema_index,
    mine_query_facts,
    mine_schema_facts,
    schema_k_hop_paths,
    sort_facts,
)
from graphviews.query import parse_query
from graphviews.store import GraphSchema

from conftest import BLAST_RADIUS_QUERY, LINEAGE_SCHEMA
from oracles import schema_paths_oracle


def random_schema(seed: int, max_types: int = 5, max_triples: int = 8) -> GraphSchema:
    """Random schema with <= max_types vertex types and <= max_triples edge
    triples. Single-type schemas are kept to few parallel self-loops so
    the path space stays enumerable."""
    rng = random.Random(seed)
    n_types = rng.randint(1, max_types)
    types = [f"T{i}" for i in range(n_types)]
    cap = 3 if n_types == 1 else max_triples
    n_triples = rng.randint(1, cap)
    triples = set()
    for i in range(n_triples):
        triples.add((rng.choice(types), rng.choice(types), f"L{i}"))
    return GraphSchema.of(types, triples)


def bipartite_schema(seed: int) -> GraphSchema:
    rng = random.Random(seed)
    left = [f"A{i}" for i in range(rng.randint(1, 3))]
    right = [f"B{i}" for i in range(rng.randint(1, 3))]
    triples = set()
    for i in range(rng.randint(1, 6)):
        if rng.random() < 0.5:
            triples.add((rng.choice(left), rng.choice(right), f"L{i}"))
        else:
            triples.add((rng.choice(right), rng.choice(left), f"L{i}"))
    return GraphSchema.of(left + right, triples)


class TestQueryFacts:
    def test_blast_radius_thirteen_facts(self):
        q = parse_query(BLAST_RADIUS_QUERY)
        facts = mine_query_facts(q)
        assert len(facts) == 13
        rendered = [f.render() for f in sort_facts(facts)]
        assert rendered == [
            "queryVertex(q_f1).",
            "queryVertex(q_f2).",
            "queryVertex(q_j1).",
            "queryVertex(q_j2).",
            "queryVertexType(q_f1, 'File').",
            "queryVertexType(q_f2, 'File').",
            "queryVertexType(q_j1, 'Job').",
            "queryVertexType(q_j2, 'Job').",
            "queryEdge(q_f2, q_j2).",
            "queryEdge(q_j1, q_f1).",
            "queryEdgeType(q_f2, q_j2, 'IS_READ_BY').",
            "queryEdgeType(q_j1, q_f1, 'WRITES_TO').",
            "queryVariableLengthPath(q_f1, q_f2, 0, 8).",
        ]

    def test_single_typed_vertex(self):
        q = parse_query("MATCH (a:Job) RETURN count(a)")
        rendered = {f.render() for f in mine_query_facts(q)}
        assert rendered == {"queryVertex(a).", "queryVertexType(a, 'Job')."}

    def test_untyped_vertex_has_no_type_fact(self):
        q = parse_query("MATCH (x) RETURN x")
        rendered = {f.render() for f in mine_query_facts(q)}
        assert rendered == {"queryVertex(x)."}

    def test_deterministic_and_duplicate_free(self):
        q = parse_query(BLAST_RADIUS_QUERY)
        a = sort_facts(mine_query_facts(q))
        b = sort_facts(mine_query_facts(q))
        assert a == b
        assert len(a) == len(set(a))


class TestSchemaFacts:
    def test_lineage_schema(self):
        rendered = {f.render() for f in mine_schema_facts(LINEAGE_SCHEMA)}
        assert rendered == {
            "schemaVertex('Job').",
            "schemaVertex('File').",
            "schemaEdge('Job', 'File', 'WRITES_TO').",
            "schemaEdge('File', 'Job', 'IS_READ_BY').",
        }

    def test_empty_schema(self):
        assert mine_schema_facts(GraphSchema.of([], [])) == set()

    def test_self_loop_triple(self):
        s = GraphSchema.of(["A"], [("A", "A", "L")])
        assert "schemaEdge('A', 'A', 'L')." in {f.render() for f in mine_schema_facts(s)}


W = ("Job", "File", "WRITES_TO")
R = ("File", "Job", "IS_READ_BY")


class TestSchemaPaths:
    def test_lineage_k2(self):
        paths = schema_k_hop_paths(LINEAGE_SCHEMA, 2)
        assert paths == {SchemaPath((W, R)), SchemaPath((R, W))}

    def test_lineage_k3_no_same_type_paths(self):
        paths = schema_k_hop_paths(LINEAGE_SCHEMA, 3)
        assert paths == {SchemaPath((W, R, W)), SchemaPath((R, W, R))}
        assert not any(p.src_type == p.dst_type for p in paths)

    def test_self_loop_counts(self):
        for m in (1, 2, 3):
            s = GraphSchema.of(["A"], [("A", "A", f"L{i}") for i in range(m)])
            for k in range(1, 6):
                paths = schema_k_hop_paths(s, k)
                assert len(paths) == m ** k
                assert paths == {SchemaPath(tuple(c))
                                 for c in schema_paths_oracle_chains(s, k)}

    def test_oracle_equivalence_random_schemas(self):
        for seed in range(60):
            s = random_schema(seed)
            for k in range(1, 7):
                mine = {p.edges for p in schema_k_hop_paths(s, k)}
                assert mine == schema_paths_oracle(sorted(s.edge_types), k), (seed, k)

    def test_bipartite_parity(self):
        for seed in range(40):
            s = bipartite_schema(seed)
            for k in range(1, 8):
                if k % 2 == 1:
                    assert not any(
                        p.src_type == p.dst_type for p in schema_k_hop_paths(s, k)
                    ), (seed, k)

    def test_monotone_pruning(self):
        for seed in range(20):
            s = random_schema(seed)
            for k in range(2, 6):
                shorter = {p.edges for p in schema_k_hop_paths(s, k - 1)}
                for p in schema_k_hop_paths(s, k):
                    assert p.edges[:-1] in shorter


def schema_paths_oracle_chains(s, k):
    return schema_paths_oracle(sorted(s.edge_types), k)


class TestHopBounds:
    def test_blast_radius_folds_two_edges(self):
        q = parse_query(BLAST_RADIUS_QUERY)
        (b,) = mine_constraints(q)
        assert (b.src, b.dst) == ("q_j1", "q_j2")
        assert (b.k_min, b.k_max) == (2, 10)
        assert set(b.eliminated) == {"q_f1", "q_f2"}
        assert b.first_label == "WRITES_TO"
        assert b.last_label == "IS_READ_BY"

    def test_lone_path_unfolded(self):
        q = parse_query("MATCH (a:Job)-[p*1..4]->(b:Job) RETURN a, b")
        (b,) = mine_constraints(q)
        assert (b.src, b.dst, b.k_min, b.k_max) == ("a", "b", 1, 4)
        assert b.folded_edges == ()

    def test_fixed_chain_of_three(self):
        q = parse_query(
            "MATCH (a:Job)-[:WRITES_TO]->(b:File)-[:IS_READ_BY]->(c:Job)"
            "-[:WRITES_TO]->(d:File) RETURN a, d")
        (b,) = mine_constraints(q)
        assert (b.src, b.dst, b.k_min, b.k_max) == ("a", "d", 3, 3)
        assert b.eliminated == ("b", "c")

    def test_referenced_endpoint_not_folded(self):
        q = parse_query(
            "MATCH (j:Job)-[:WRITES_TO]->(f:File), (f)-[r*0..4]->(g:File) "
            "RETURN f.id, g.id")
        (b,) = mine_constraints(q)
        assert b.src == "f"
        assert (b.k_min, b.k_max) == (0, 4)

    def test_outgoing_edge_at_path_start_not_folded(self):
        # the fixed edge leaves the path start, so it cannot chain into it
        q = parse_query(
            "MATCH (f:File)-[:IS_READ_BY]->(j:Job), (f)-[r*1..2]->(g:Job) "
            "RETURN g, j")
        (b,) = mine_constraints(q)
        assert b.src == "f"
        assert (b.k_min, b.k_max) == (1, 2)


class TestSchemaIndex:
    def test_paths_computed_once_per_schema(self, monkeypatch):
        calls = []

        def recording(schema, k):
            calls.append(k)
            return schema_k_hop_paths(schema, k)

        monkeypatch.setattr(mining, "schema_k_hop_paths", recording)
        schema = GraphSchema.of(LINEAGE_SCHEMA.vertex_types,
                                LINEAGE_SCHEMA.edge_types)
        q = parse_query(BLAST_RADIUS_QUERY)
        view = ViewInstance(kind="KHopConnector", x="q_j1", y="q_j2",
                            x_type="Job", y_type="Job", k=2)
        plans = [rewrite_with_view(q, view, schema) for _ in range(50)]
        assert all(plan == plans[0] for plan in plans)
        assert calls and len(calls) == len(set(calls))

    def test_paths_between_and_has_path(self):
        index = schema_index(LINEAGE_SCHEMA)
        assert index.has_path("Job", "Job", 2)
        assert not index.has_path("Job", "Job", 3)
        assert index.has_path("Job", "Job", 0)
        assert not index.has_path("Job", "File", 0)
        assert [p.edges for p in index.paths_between("Job", "Job", 2)] == [(W, R)]

    def test_paths_between_sorted_by_triples(self):
        schema = GraphSchema.of(["A"], [("A", "A", f"L{i}") for i in range(4)])
        paths = schema_index(schema).paths_between("A", "A", 2)
        assert len(paths) == 16
        assert [p.edges for p in paths] == sorted(
            p.edges for p in schema_k_hop_paths(schema, 2))

    def test_source_sink_roles(self, provenance_schema):
        assert provenance_schema.root_types() == frozenset()
        assert provenance_schema.leaf_types() == {"Machine"}

    def test_types_by_depth(self, provenance_schema):
        index = schema_index(provenance_schema)
        assert index.type_bands("Job", "Job", 2, 2) == (
            None, frozenset({"File"}), frozenset({"Job"}))
        # every type a walk from File can reach may still reach a File
        assert schema_index(LINEAGE_SCHEMA).type_bands("File", "File", 0, 8) \
            == (None,) * 9
        # backwards from a Machine, a Job is at most two steps away
        assert index.type_bands("Machine", "Job", 1, 3, forward=False) == (
            None, None, None, frozenset())
        assert index.type_bands("Job", "Machine", 1, 1)[0] == frozenset()
        assert index.type_bands("Job", "Job", 2, 2) is \
            index.type_bands("Job", "Job", 2, 2)

    def test_type_bands_match_schema_paths(self):
        """Each band is the union of the types at its depth over the
        schema paths of lo..hi edges (None when that is every type a walk
        reaches there), checked on random schemas."""
        rng = random.Random(11)
        for seed in range(40):
            s = random_schema(seed)
            index = schema_index(s)
            types = sorted(s.vertex_types) + [None]
            labels = sorted({t[2] for t in s.edge_types})
            for _ in range(12):
                x, y = rng.choice(types), rng.choice(types)
                lo = rng.randint(0, 3)
                hi = rng.randint(lo, 4)
                keep = (frozenset(rng.sample(labels, rng.randint(1, len(labels))))
                        if rng.random() < 0.4 else None)
                forward = rng.random() < 0.7
                triples = {(a, b, l) if forward else (b, a, l)
                           for a, b, l in s.edge_types
                           if keep is None or l in keep}
                walks = {k: {p for p in schema_paths_oracle(triples, k)
                             if x is None or p[0][0] == x}
                         for k in range(1, hi + 1)}
                starts = s.vertex_types if x is None else {x}
                for d in range(hi + 1):
                    reach = (set(starts) if d == 0
                             else {p[-1][1] for p in walks[d]})
                    band = {t for t in starts
                            if lo == 0 and (y is None or t == y)} if d == 0 else set()
                    for k in range(max(lo, d, 1), hi + 1):
                        for p in walks[k]:
                            if y is None or p[-1][1] == y:
                                band.add(p[0][0] if d == 0 else p[d - 1][1])
                    want = None if band == reach else band
                    got = index.type_bands(x, y, lo, hi, keep, forward)[d]
                    assert got == want, (seed, x, y, lo, hi, keep, forward, d)
