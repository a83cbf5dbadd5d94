import pytest

from graphviews.enumeration import (
    CONNECTOR_KINDS,
    Predicate,
    ViewInstance,
    enumerate_views,
    rewrite_with_view,
)
from graphviews.errors import (
    NameEliminatedButReferencedError,
    RewriteInfeasibleError,
)
from graphviews import mining
from graphviews.mining import (
    SchemaPath,
    mine_constraints,
    schema_index,
    schema_k_hop_paths,
)
from graphviews.pipeline import WorkloadSpec, _plan_for, _prepare
from graphviews.query import parse_query, render_query
from graphviews.store import GraphSchema

from conftest import BLAST_RADIUS_QUERY, LINEAGE_SCHEMA, PROVENANCE_SCHEMA
from test_pipeline import (
    write_provenance_workload,
    write_road_workload,
    write_workload,
)


def enumerate_for(text, schema=LINEAGE_SCHEMA, max_k=10):
    q = parse_query(text)
    return q, enumerate_views(q, schema, mine_constraints(q), max_k=max_k)


class TestEnumerate:
    def test_blast_radius_khop_instances(self):
        q, views = enumerate_for(BLAST_RADIUS_QUERY)
        khops = [v for v in views if v.kind == "KHopConnector"]
        assert [v.k for v in khops] == [2, 4, 6, 8, 10]
        assert all((v.x, v.y, v.x_type, v.y_type) == ("q_j1", "q_j2", "Job", "Job")
                   for v in khops)
        assert [v.unification() for v in khops] == [
            "(X='q_j1', Y='q_j2', XTYPE='Job', YTYPE='Job', K=2)",
            "(X='q_j1', Y='q_j2', XTYPE='Job', YTYPE='Job', K=4)",
            "(X='q_j1', Y='q_j2', XTYPE='Job', YTYPE='Job', K=6)",
            "(X='q_j1', Y='q_j2', XTYPE='Job', YTYPE='Job', K=8)",
            "(X='q_j1', Y='q_j2', XTYPE='Job', YTYPE='Job', K=10)",
        ]

    def test_blast_radius_vertex_inclusion(self):
        q, views = enumerate_for(BLAST_RADIUS_QUERY)
        incl = [v for v in views if v.kind == "VertexInclusion"]
        assert len(incl) == 1
        assert incl[0].predicate.types == {"Job", "File"}

    def test_vertex_inclusion_on_provenance_schema_prunes(self):
        q, views = enumerate_for(BLAST_RADIUS_QUERY, PROVENANCE_SCHEMA)
        incl = [v for v in views if v.kind == "VertexInclusion"]
        assert incl[0].predicate.types == {"Job", "File"}
        assert incl[0].view_schema(PROVENANCE_SCHEMA).vertex_types == {"Job", "File"}

    def test_fixed_one_hop_yields_only_sparsifiers(self):
        q, views = enumerate_for(
            "MATCH (a:Job)-[:WRITES_TO]->(b:File) RETURN a, b")
        assert all(v.kind in ("VertexInclusion", "EdgeInclusion") for v in views)
        kinds = {v.kind for v in views}
        assert kinds == {"VertexInclusion", "EdgeInclusion"}

    def test_no_khop_above_query_upper_bound(self):
        q, views = enumerate_for(BLAST_RADIUS_QUERY.replace("*0..8", "*0..2"))
        khops = [v.k for v in views if v.kind == "KHopConnector"]
        assert khops == [2, 4]  # folded range (2, 4)

    def test_max_k_caps_enumeration(self):
        q, views = enumerate_for(BLAST_RADIUS_QUERY, max_k=5)
        khops = [v.k for v in views if v.kind == "KHopConnector"]
        assert khops == [2, 4]

    def test_same_vertex_type_connector_emitted(self):
        q, views = enumerate_for(BLAST_RADIUS_QUERY)
        svt = [v for v in views if v.kind == "SameVertexTypeConnector"]
        assert len(svt) == 1
        assert (svt[0].x_type, svt[0].lo, svt[0].hi) == ("Job", 2, 10)

    def test_same_edge_type_connector_needs_uniform_label(self):
        schema = GraphSchema.of(["A"], [("A", "A", "L"), ("A", "A", "M")])
        q, views = enumerate_for(
            "MATCH (x:A)-[p:L*1..3]->(y:A) RETURN x, y", schema)
        setc = [v for v in views if v.kind == "SameEdgeTypeConnector"]
        assert len(setc) == 1
        assert setc[0].label == "L"
        q, views = enumerate_for(
            "MATCH (x:A)-[p:L|M*1..3]->(y:A) RETURN x, y", schema)
        assert not any(v.kind == "SameEdgeTypeConnector" for v in views)

    def test_source_to_sink_connector(self):
        schema = GraphSchema.of(
            ["Src", "Mid", "Snk"],
            [("Src", "Mid", "A"), ("Mid", "Snk", "B")])
        q, views = enumerate_for(
            "MATCH (s:Src)-[p*2..2]->(t:Snk) RETURN s, t", schema)
        s2s = [v for v in views if v.kind == "SourceToSinkConnector"]
        assert len(s2s) == 1
        assert (s2s[0].x_type, s2s[0].y_type) == ("Src", "Snk")

    def test_distinct_types_need_projection_of_both(self):
        schema = GraphSchema.of(
            ["Src", "Mid", "Snk"],
            [("Src", "Mid", "A"), ("Mid", "Snk", "B")])
        q, views = enumerate_for(
            "MATCH (s:Src)-[p*2..2]->(t:Snk) RETURN s", schema)
        assert not any(v.kind in ("KHopConnector", "SourceToSinkConnector")
                       for v in views)

    def test_determinism(self):
        _, a = enumerate_for(BLAST_RADIUS_QUERY, PROVENANCE_SCHEMA)
        _, b = enumerate_for(BLAST_RADIUS_QUERY, PROVENANCE_SCHEMA)
        assert a == b

    def test_pruning_effectiveness_self_loop_family(self, monkeypatch):
        # M parallel self-loops; an upper bound below max_k must examine
        # strictly fewer bindings than the unconstrained M**max_k space
        calls = []

        def recording(schema, k):
            paths = schema_k_hop_paths(schema, k)
            calls.append((k, len(paths)))
            return paths

        monkeypatch.setattr(mining, "schema_k_hop_paths", recording)
        for m in (2, 3):
            schema = GraphSchema.of(
                ["A"], [("A", "A", f"L{i}") for i in range(m)])
            calls.clear()
            max_k = 5
            q, views = enumerate_for(
                "MATCH (x:A)-[p*1..2]->(y:A) RETURN x, y",
                schema, max_k=max_k)
            examined = sum(count for _, count in calls)
            total_paths = sum(m ** k for k in range(1, 3))
            assert max(k for k, _ in calls) <= 2
            assert examined <= total_paths
            assert examined < m ** max_k

    def test_untyped_endpoints_yield_no_connectors(self):
        q, views = enumerate_for("MATCH (a)-[p*1..4]->(b) RETURN a, b")
        assert not any(v.kind in ("KHopConnector", "SameVertexTypeConnector")
                       for v in views)


FIXED_CHAIN = "MATCH (a:Job)-[e:WRITES_TO]->(f:File)-[r:IS_READ_BY]->(b:Job) "


class TestRewrite:
    def khop(self, k=2):
        return ViewInstance(kind="KHopConnector", x="q_j1", y="q_j2",
                            x_type="Job", y_type="Job", k=k)

    def test_listing_shape_rewrite_over_2hop(self):
        q = parse_query(BLAST_RADIUS_QUERY)
        plan = rewrite_with_view(q, self.khop(2), LINEAGE_SCHEMA)
        r = plan.rewritten
        assert set(r.pattern_vertices) == {"q_j1", "q_j2"}
        assert r.pattern_edges == ()
        (path,) = r.var_length_paths
        assert (path.src, path.dst, path.lower, path.upper) == ("q_j1", "q_j2", 1, 5)
        assert path.labels == ("JOB_TO_JOB_2HOP",)
        assert path.name == "r"
        assert r.projection == q.projection
        assert plan.view_hops == 5
        assert "[r:JOB_TO_JOB_2HOP*1..5]" in render_query(r)

    def test_k4_rejected_for_full_range(self):
        # a 4-hop connector covers raw lengths {4, 8}; the query needs
        # every even length in [2, 10]
        q = parse_query(BLAST_RADIUS_QUERY)
        with pytest.raises(RewriteInfeasibleError):
            rewrite_with_view(q, self.khop(4), LINEAGE_SCHEMA)

    def test_k4_accepted_for_exactly_covered_range(self):
        # folded range (4, 4): the only feasible length is 4 = one view hop
        q = parse_query(BLAST_RADIUS_QUERY.replace("*0..8", "*2..2"))
        plan = rewrite_with_view(q, self.khop(4), LINEAGE_SCHEMA)
        (path,) = plan.rewritten.var_length_paths
        assert (path.lower, path.upper) == (1, 1)

    def test_k1_identity_connector(self):
        schema = GraphSchema.of(["A"], [("A", "A", "L")])
        q = parse_query("MATCH (x:A)-[p*1..3]->(y:A) RETURN x, y")
        ident = ViewInstance(kind="KHopConnector", x="x", y="y",
                             x_type="A", y_type="A", k=1)
        plan = rewrite_with_view(q, ident, schema)
        (path,) = plan.rewritten.var_length_paths
        assert (path.lower, path.upper) == (1, 3)
        assert path.labels == ("A_TO_A_1HOP",)

    def test_eliminated_name_referenced(self):
        text = BLAST_RADIUS_QUERY.replace(
            "RETURN q_j1.id", "RETURN q_j1.id, q_f1.id")
        q = parse_query(text)
        with pytest.raises(NameEliminatedButReferencedError):
            rewrite_with_view(q, self.khop(2), LINEAGE_SCHEMA)

    @pytest.mark.parametrize("text,name", [
        (FIXED_CHAIN + "RETURN a.id, e.id, b.id", "e"),
        (FIXED_CHAIN + "WHERE r.id <> 'x' RETURN a.id, b.id", "r"),
    ], ids=["projected", "filtered"])
    def test_folded_edge_name_referenced(self, text, name):
        # a fixed chain folds its named edges along with its interior
        q, views = enumerate_for(text)
        connectors = [v for v in views if v.kind in CONNECTOR_KINDS]
        assert [v.view_id for v in connectors] == ["khop:Job:Job:02",
                                                  "svtc:Job:02:02"]
        for v in connectors:
            with pytest.raises(NameEliminatedButReferencedError,
                               match=rf"\['{name}'\]"):
                rewrite_with_view(q, v, LINEAGE_SCHEMA)

    def test_unreferenced_folded_edge_names_rewrite(self):
        q = parse_query(FIXED_CHAIN + "RETURN a.id, b.id")
        v = ViewInstance(kind="KHopConnector", x="a", y="b",
                         x_type="Job", y_type="Job", k=2)
        plan = rewrite_with_view(q, v, LINEAGE_SCHEMA)
        assert set(plan.rewritten.pattern_vertices) == {"a", "b"}
        assert plan.rewritten.pattern_edges == ()
        (path,) = plan.rewritten.var_length_paths
        assert (path.src, path.dst, path.lower, path.upper) == ("a", "b", 1, 1)

    def test_referenced_names_walked_once_per_query(self, monkeypatch):
        # a miss walks them once for the query and once when the
        # rewritten query checks its own; a hit on the kept plan, none
        from graphviews.query import QueryGraph
        q = parse_query(BLAST_RADIUS_QUERY)
        walked = []
        original = QueryGraph.referenced_names

        def counting(self):
            walked.append(self is q)
            return original(self)

        monkeypatch.setattr(QueryGraph, "referenced_names", counting)
        # an equal schema object keeps plans of its own
        schema = GraphSchema(LINEAGE_SCHEMA.vertex_types,
                             LINEAGE_SCHEMA.edge_types)
        plan = rewrite_with_view(q, self.khop(), schema)
        assert plan.rewritten is not q
        assert walked == [True, False]
        walked.clear()
        again = rewrite_with_view(q, self.khop(), schema)
        assert again.rewritten == plan.rewritten
        assert walked == []

    def test_same_vertex_type_connector_rewrite(self):
        q = parse_query(BLAST_RADIUS_QUERY)
        v = ViewInstance(kind="SameVertexTypeConnector", x="q_j1", y="q_j2",
                         x_type="Job", y_type="Job", lo=2, hi=10)
        plan = rewrite_with_view(q, v, LINEAGE_SCHEMA)
        (path,) = plan.rewritten.var_length_paths
        assert (path.lower, path.upper) == (1, 1)

    def test_range_mismatch_rejected(self):
        q = parse_query(BLAST_RADIUS_QUERY)  # needs lengths up to 10
        v = ViewInstance(kind="SameVertexTypeConnector", x="q_j1", y="q_j2",
                         x_type="Job", y_type="Job", lo=2, hi=6)
        with pytest.raises(RewriteInfeasibleError):
            rewrite_with_view(q, v, LINEAGE_SCHEMA)

    def test_vertex_inclusion_identity_rewrite(self):
        q = parse_query(BLAST_RADIUS_QUERY)
        v = ViewInstance(kind="VertexInclusion",
                         predicate=Predicate(types=frozenset({"Job", "File"})))
        plan = rewrite_with_view(q, v, PROVENANCE_SCHEMA)
        assert plan.rewritten == q
        assert plan.view_hops is None

    def test_vertex_inclusion_missing_needed_type(self):
        q = parse_query("MATCH (t:Task)-[:RUNS_ON]->(m:Machine) RETURN t, m")
        v = ViewInstance(kind="VertexInclusion",
                         predicate=Predicate(types=frozenset({"Job", "File"})))
        with pytest.raises(RewriteInfeasibleError):
            rewrite_with_view(q, v, PROVENANCE_SCHEMA)

    def test_path_through_removed_type_rejected(self):
        # A -> B -> A paths exist; removing B breaks (a1)-[*2..2]->(a2)
        schema = GraphSchema.of(
            ["A", "B"], [("A", "B", "F"), ("B", "A", "G")])
        q = parse_query("MATCH (a1:A)-[p*2..2]->(a2:A) RETURN a1, a2")
        v = ViewInstance(kind="VertexRemoval",
                         predicate=Predicate(types=frozenset({"B"})))
        with pytest.raises(RewriteInfeasibleError):
            rewrite_with_view(q, v, schema)

    def test_aggregators_have_no_transparent_rewrite(self):
        q = parse_query("MATCH (a:Job) RETURN count(a)")
        v = ViewInstance(kind="VertexAggregator",
                         predicate=Predicate(types=frozenset({"File"})),
                         group_key="dir", aggregations=(("bytes", "sum"),))
        with pytest.raises(RewriteInfeasibleError):
            rewrite_with_view(q, v, LINEAGE_SCHEMA)

    def test_label_ambiguous_schema_rejected(self):
        # a second Job->File label means the 2-hop view would contract
        # trails the query's :WRITES_TO edge excludes
        schema = GraphSchema.of(
            ["Job", "File"],
            [("Job", "File", "WRITES_TO"), ("Job", "File", "TOUCHES"),
             ("File", "Job", "IS_READ_BY")])
        q = parse_query(BLAST_RADIUS_QUERY)
        with pytest.raises(RewriteInfeasibleError):
            rewrite_with_view(q, self.khop(2), schema)

    def test_contraction_boundary_type_rejected(self):
        # the only 4-hop A-to-A path crosses C at position 2, so two
        # 2-hop A-to-A view edges can never represent it
        schema = GraphSchema.of(
            ["A", "B", "C", "D"],
            [("A", "B", "E1"), ("B", "C", "E2"), ("C", "D", "E3"),
             ("D", "A", "E4")])
        q = parse_query("MATCH (x:A)-[p*4..4]->(y:A) RETURN x, y")
        v = ViewInstance(kind="KHopConnector", x="x", y="y",
                         x_type="A", y_type="A", k=2)
        with pytest.raises(RewriteInfeasibleError):
            rewrite_with_view(q, v, schema)

    def test_edge_inclusion_rewrite(self):
        q = parse_query("MATCH (a:Job)-[:WRITES_TO]->(b:File) RETURN a, b")
        v = ViewInstance(kind="EdgeInclusion",
                         predicate=Predicate(types=frozenset({"WRITES_TO"})))
        plan = rewrite_with_view(q, v, LINEAGE_SCHEMA)
        assert plan.rewritten == q
        q2 = parse_query(BLAST_RADIUS_QUERY)  # unlabelled path
        with pytest.raises(RewriteInfeasibleError):
            rewrite_with_view(q2, v, LINEAGE_SCHEMA)


class TestViewInstance:
    def test_kind_set_covers_both_tables_exactly(self):
        from graphviews.enumeration import VIEW_KINDS
        assert VIEW_KINDS == (
            "KHopConnector", "SameVertexTypeConnector", "SameEdgeTypeConnector",
            "SourceToSinkConnector", "VertexRemoval", "EdgeRemoval",
            "VertexInclusion", "EdgeInclusion", "VertexAggregator",
            "EdgeAggregator", "SubgraphAggregator",
        )

    def test_view_schema_of_khop(self):
        v = ViewInstance(kind="KHopConnector", x="a", y="b",
                         x_type="Job", y_type="Job", k=2)
        vs = v.view_schema(LINEAGE_SCHEMA)
        assert vs.vertex_types == {"Job"}
        assert vs.edge_types == {("Job", "Job", "JOB_TO_JOB_2HOP")}

    def test_view_ids_distinct_and_deterministic(self):
        _, views = enumerate_for(BLAST_RADIUS_QUERY, PROVENANCE_SCHEMA)
        ids = [v.view_id for v in views]
        assert len(ids) == len(set(ids))
        assert ids == sorted(ids, key=lambda i: ids.index(i))


def _rewrite_outcome(q, v, schema):
    try:
        return rewrite_with_view(q, v, schema)
    except (RewriteInfeasibleError, NameEliminatedButReferencedError) as exc:
        return type(exc), str(exc)


class TestSchemaIndex:
    @pytest.mark.parametrize("write", [
        write_workload, write_provenance_workload,
        lambda tmp_path: write_road_workload(tmp_path, 5, 5)],
        ids=["lineage", "provenance", "road"])
    def test_rewrites_equal_over_shared_and_fresh_schema(self, tmp_path, write):
        spec = WorkloadSpec.from_file(write(tmp_path))
        schema = GraphSchema.load(spec.schema_file)
        prepared = [pq for pq in map(_prepare, spec.queries) if pq.synth is not None]
        views = {v.view_id: v for pq in prepared
                 for v in enumerate_views(pq.synth, schema,
                                          mine_constraints(pq.synth))}
        assert views
        plans = 0
        for pq in prepared:
            for v in views.values():
                fresh = GraphSchema.of(schema.vertex_types, schema.edge_types)
                for q in {id(q): q for q in (pq.query, pq.synth) if q}.values():
                    first = _rewrite_outcome(q, v, schema)
                    assert _rewrite_outcome(q, v, schema) == first
                    assert _rewrite_outcome(q, v, fresh) == first
                    plans += not isinstance(first, tuple)
                assert _plan_for(pq, v, fresh) == _plan_for(pq, v, schema)
        assert plans

        index = schema_index(schema)
        assert schema_index(schema) is index
        assert schema_index(fresh) is not index
        assert schema == fresh and hash(schema) == hash(fresh)
        assert "memo" not in repr(schema)
        assert index._paths
        for by_ends in index._paths.values():
            for (src_type, dst_type), paths in by_ends.items():
                assert type(paths) is tuple
                assert [p.edges for p in paths] == sorted(p.edges for p in paths)
                for p in paths:
                    assert type(p) is SchemaPath
                    assert (p.src_type, p.dst_type) == (src_type, dst_type)
                    for part in (p.edges, p.labels, p.type_sequence):
                        assert type(part) is tuple
