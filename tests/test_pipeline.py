import hashlib
import itertools
import json
import random
import time
from dataclasses import replace

import pytest

from graphviews.costing import eval_cost
from graphviews.enumeration import (
    CONNECTOR_KINDS,
    Predicate,
    ViewInstance,
    enumerate_views,
)
from graphviews.errors import (
    GraphViewsError,
    InvalidParamsError,
    PropertyTypeMismatchError,
)
from graphviews import pipeline
from graphviews.generate import generate_lineage, generate_road_like
from graphviews.mining import SchemaIndex, mine_constraints
from graphviews.pipeline import (
    QuerySpec,
    WorkloadSpec,
    _Prepared,
    _estimate_weight,
    _needed_aggregates,
    _prepare,
    _run_over_view,
    _run_raw,
    _triple_counts,
    build_candidates,
    run_pipeline,
)
from graphviews.query import parse_query
from graphviews.store import (
    GraphSchema,
    PropertyGraph,
    degree_summary,
    load_graph,
)
from graphviews.views import (
    materialize,
    query_picks,
    sampled_degree_summary,
    select_views,
    view_degree_summary,
)

from conftest import (
    PROVENANCE_SCHEMA,
    as_cyclic,
    cluttered_lineage_dag,
    random_lineage_dag,
    road_5x5,
)

BLAST = ("MATCH (q_j1:Job)-[:WRITES_TO]->(q_f1:File), "
         "(q_f1)-[r*0..8]->(q_f2:File), (q_f2)-[:IS_READ_BY]->(q_j2:Job) "
         "RETURN q_j1.id, avg(q_j2.cpu_hours)")

# a fixed two-edge chain whose folded edge name is referenced: no
# connector can answer it
FOLDED_EDGE = ("MATCH (a:Job)-[e:WRITES_TO]->(f:File)-[r:IS_READ_BY]->(b:Job) "
               "RETURN a.id, e.id, b.id")


def write_workload(tmp_path, budget=10 ** 6, seed=0, queries=None, **gen_kw):
    gen_kw.setdefault("jobs", 30)
    gen_kw.setdefault("files", 45)
    ds = generate_lineage(tmp_path, seed, **gen_kw)
    (tmp_path / "q1.query").write_text(BLAST, encoding="utf-8")
    (tmp_path / "q5.query").write_text(
        "MATCH (a)-[]->(b) RETURN count(a)", encoding="utf-8")
    (tmp_path / "q6.query").write_text(
        "MATCH (a:Job) RETURN count(a)", encoding="utf-8")
    (tmp_path / "q9.query").write_text(FOLDED_EDGE, encoding="utf-8")
    if queries is None:
        queries = [
            {"name": "q1", "file": "q1.query", "weight": 2.0},
            {"name": "q2", "op": "ancestors",
             "params": {"source": "j20", "hops": 4, "result_type": "Job"}},
            {"name": "q3", "op": "descendants",
             "params": {"source": "j2", "hops": 4, "result_type": "Job"}},
            {"name": "q4", "op": "path_lengths",
             "params": {"source": "j2", "hops": 4, "property": "timestamp",
                        "result_type": "Job"}},
            {"name": "q5", "file": "q5.query"},
            {"name": "q6", "file": "q6.query"},
            {"name": "q7", "op": "label_propagation", "params": {"passes": 6}},
            {"name": "q8", "op": "largest_community",
             "params": {"passes": 6, "count_type": "Job"}},
        ]
    workload = {
        "graph": {"vertices": ds.vertex_file.name, "edges": ds.edge_file.name,
                  "schema": ds.schema_file.name},
        "budget": budget,
        "alpha": 95,
        "max_k": 10,
        "seed": seed,
        "queries": queries,
    }
    path = tmp_path / "workload.json"
    path.write_text(json.dumps(workload), encoding="utf-8")
    return path


ROAD_COUNT = ("MATCH (a:Junction)-[p*4..4]->(b:Junction) "
              "WHERE a.id = 'r0c0' RETURN b.id, count(a)")
ROAD_REACH = ("MATCH (a:Junction)-[p*1..4]->(b:Junction) "
              "WHERE a.id = 'r0c0' RETURN b.id")


def write_road_workload(tmp_path, rows, cols, budget=2 * 10 ** 6):
    """The shape of the road benchmark workload: two pinned grid
    queries, two 4-hop ops from the centre and label propagation."""
    ds = generate_road_like(tmp_path, 1, rows=rows, cols=cols)
    (tmp_path / "q1.query").write_text(ROAD_COUNT, encoding="utf-8")
    (tmp_path / "q2.query").write_text(ROAD_REACH, encoding="utf-8")
    op = {"source": f"r{rows // 2}c{cols // 2}", "hops": 4,
          "result_type": "Junction"}
    workload = {
        "graph": {"vertices": ds.vertex_file.name, "edges": ds.edge_file.name,
                  "schema": ds.schema_file.name},
        "budget": budget, "alpha": 95, "max_k": 10, "seed": 0,
        "queries": [
            {"name": "q1", "file": "q1.query"},
            {"name": "q2", "file": "q2.query"},
            {"name": "q3", "op": "descendants", "params": op},
            {"name": "q4", "op": "path_lengths",
             "params": {**op, "property": "length"}},
            {"name": "q5", "op": "label_propagation", "params": {"passes": 6}},
        ],
    }
    path = tmp_path / "workload.json"
    path.write_text(json.dumps(workload), encoding="utf-8")
    return path


def write_provenance_workload(tmp_path):
    """The shape of the provenance benchmark workload, small: a pinned
    blast radius, three job ops and label propagation over four types."""
    job_op = {"hops": 4, "result_type": "Job"}
    queries = [
        {"name": "q1", "file": "q1.query", "weight": 2.0},
        {"name": "q2", "op": "ancestors", "params": {**job_op, "source": "j20"}},
        {"name": "q3", "op": "descendants", "params": {**job_op, "source": "j2"}},
        {"name": "q4", "op": "path_lengths",
         "params": {**job_op, "source": "j2", "property": "timestamp"}},
        {"name": "q7", "op": "label_propagation", "params": {"passes": 6}},
    ]
    path = write_workload(tmp_path, budget=3 * 10 ** 6, queries=queries,
                          jobs=40, files=80, tasks=400, machines=200)
    (tmp_path / "q1.query").write_text(
        BLAST.replace("RETURN", "WHERE q_j1.id = 'j0' RETURN"), encoding="utf-8")
    return path


def candidates_and_selection(path):
    spec = WorkloadSpec.from_file(path)
    schema = GraphSchema.load(spec.schema_file)
    graph = load_graph(spec.vertex_file, spec.edge_file, schema)
    candidates = build_candidates([_prepare(q) for q in spec.queries], schema,
                                  degree_summary(graph), graph, spec.alpha,
                                  spec.max_k)
    return candidates, select_views(candidates, spec.budget)


class TestWorkloadSpec:
    def test_round_trip_from_file(self, tmp_path):
        path = write_workload(tmp_path)
        spec = WorkloadSpec.from_file(path)
        assert spec.budget == 10 ** 6
        assert [q.name for q in spec.queries] == [
            "q1", "q2", "q3", "q4", "q5", "q6", "q7", "q8"]
        assert spec.queries[0].weight == 2.0

    def test_duplicate_names_rejected(self):
        with pytest.raises(InvalidParamsError):
            WorkloadSpec(
                vertex_file="v", edge_file="e", schema_file="s",
                queries=[QuerySpec("a", op="label_propagation",
                                   params={"passes": 1}),
                         QuerySpec("a", op="label_propagation",
                                   params={"passes": 1})],
                budget=1)

    def test_query_spec_needs_exactly_one_source(self):
        with pytest.raises(InvalidParamsError):
            QuerySpec("x")
        with pytest.raises(InvalidParamsError):
            QuerySpec("x", file="f", op="ancestors")


BAD_OP_PARAMS = [
    ("label_propagation", {}),
    ("label_propagation", {"passes": "six"}),
    ("label_propagation", {"passes": 0}),
    ("label_propagation", {"passes": True}),
    ("largest_community", {"passes": 6}),
    ("largest_community", {"passes": 2.5, "count_type": "Job"}),
    ("ancestors", {"source": "j2", "hops": "four", "result_type": "Job"}),
    ("descendants", {"source": "j2", "result_type": "Job"}),
    ("path_lengths", {"source": "j2", "hops": 4, "result_type": "Job"}),
    ("ancestors", {"source": "j2", "hops": 0, "result_type": "Job"}),
    # the result type must be one name token, as the parser reads a type
    ("ancestors", {"source": "j2", "hops": 4, "result_type": "Job x"}),
    ("ancestors", {"source": "j2", "hops": 4, "result_type": " Job"}),
    ("descendants", {"source": "j2", "hops": 4, "result_type": 3}),
    ("descendants", {"source": "j2", "hops": 4, "result_type": "3"}),
    ("descendants", {"source": "j2", "hops": 4, "result_type": "MATCH"}),
    ("descendants", {"source": "j2", "hops": 4, "result_type": "Job)"}),
]


class TestOpParams:
    @pytest.mark.parametrize("op,params", BAD_OP_PARAMS)
    def test_bad_params_fail_at_parse(self, tmp_path, op, params):
        queries = [{"name": "q1", "file": "q1.query"},
                   {"name": "bad", "op": op, "params": params}]
        spec = WorkloadSpec.from_file(write_workload(tmp_path, queries=queries))
        with pytest.raises(InvalidParamsError) as exc:
            run_pipeline(spec)
        assert exc.value.stage == "parse"

    @pytest.mark.parametrize("result_type", ["Job x", 3, "return", "²"])
    def test_bad_result_type_names_the_param(self, result_type):
        spec = QuerySpec("q", op="ancestors", params={
            "source": "j2", "hops": 4, "result_type": result_type})
        with pytest.raises(InvalidParamsError, match="'result_type'"):
            _prepare(spec)

    @pytest.mark.parametrize("result_type, hops", [("Job", 4), ("_T2", 1),
                                                   ("\u00e9t\u00e9", 7)])
    def test_op_proxy_is_the_pattern_it_stands_for(self, result_type, hops):
        spec = QuerySpec("q", op="descendants", params={
            "source": "j2", "hops": hops, "result_type": result_type})
        synth = _prepare(spec).synth
        text = (f"MATCH (x:{result_type})-[p*1..{hops}]->(y:{result_type}) "
                f"RETURN x, y")
        assert synth == parse_query(text)
        assert list(synth.pattern_vertices) == ["x", "y"]


class TestPipeline:
    def test_generous_budget_selects_spanner_and_rewrites(self, tmp_path):
        spec = WorkloadSpec.from_file(write_workload(tmp_path))
        report = run_pipeline(spec)
        assert "khop:Job:Job:02" in report.selection["chosen"]
        by_name = {q.name: q for q in report.queries}
        assert by_name["q1"].view_id == "khop:Job:Job:02"
        assert by_name["q1"].results_match is True
        assert by_name["q4"].view_id == "khop:Job:Job:02"
        assert by_name["q4"].results_match is True
        for name in ("q2", "q3"):
            assert by_name[name].results_match is True
        # report-only ops carry measurements but no equivalence claim
        assert by_name["q7"].results_match is None
        assert by_name["q7"].rewritten is not None

    def test_budget_zero_runs_all_raw(self, tmp_path):
        spec = WorkloadSpec.from_file(write_workload(tmp_path, budget=0))
        report = run_pipeline(spec)
        assert report.selection["chosen"] == []
        for q in report.queries:
            assert q.view_id is None
            assert q.speedup == 1.0
            assert q.work_ratio == 1.0

    def test_workload_without_templates(self, tmp_path):
        queries = [{"name": "only", "file": "q5.query"}]
        spec = WorkloadSpec.from_file(
            write_workload(tmp_path, queries=queries))
        report = run_pipeline(spec)
        assert report.views == []
        assert report.queries[0].view_id is None

    def test_referenced_folded_edge_runs_raw(self, tmp_path):
        queries = [{"name": "q1", "file": "q1.query"},
                   {"name": "q9", "file": "q9.query"}]
        spec = WorkloadSpec.from_file(write_workload(tmp_path, queries=queries))
        report = run_pipeline(spec)
        assert "khop:Job:Job:02" in report.selection["chosen"]
        q1, q9 = report.queries
        assert q1.view_id == "khop:Job:Job:02" and q1.results_match is True
        assert q9.view_id is None and q9.rewritten is None
        assert q9.rows > 0

    def test_raw_cost_once_per_planned_query(self, tmp_path, monkeypatch):
        spec = WorkloadSpec.from_file(write_provenance_workload(tmp_path))
        schema = GraphSchema.load(spec.schema_file)
        graph = load_graph(spec.vertex_file, spec.edge_file, schema)
        summary = degree_summary(graph)
        raw_costed = []

        def eval_cost(q, d, alpha):
            if d is summary:
                raw_costed.append(q)
            return real(q, d, alpha)
        real = pipeline.eval_cost
        monkeypatch.setattr(pipeline, "eval_cost", eval_cost)
        prepared = [_prepare(q) for q in spec.queries]
        candidates = build_candidates(prepared, schema, summary, graph,
                                      spec.alpha, spec.max_k)
        planned = {name for c in candidates for name in c.per_query_plans}
        assert planned == {"q1", "q2", "q3", "q4"}
        assert [id(q) for q in raw_costed] == [
            id(pq.synth) for pq in prepared if pq.spec.name in planned]

    def test_budget_respected(self, tmp_path):
        spec = WorkloadSpec.from_file(write_workload(tmp_path, budget=100))
        report = run_pipeline(spec)
        assert report.selection["total_estimated_weight"] <= 100
        for v in report.views:
            if v.selected:
                assert v.actual_edges is not None

    def test_failing_stage_is_named(self, tmp_path):
        path = write_workload(tmp_path)
        (tmp_path / "q1.query").write_text("WITH nonsense", encoding="utf-8")
        spec = WorkloadSpec.from_file(path)
        with pytest.raises(GraphViewsError) as exc:
            run_pipeline(spec)
        assert getattr(exc.value, "stage", None) == "parse"

    def test_query_weights_scale_candidate_value(self, tmp_path):
        queries = [{"name": "q1", "file": "q1.query", "weight": 1.0}]
        heavy = [{"name": "q1", "file": "q1.query", "weight": 3.0}]
        spec_light = WorkloadSpec.from_file(
            write_workload(tmp_path / "a", queries=queries))
        spec_heavy = WorkloadSpec.from_file(
            write_workload(tmp_path / "b", queries=heavy))
        light = {v.view_id: v.value for v in run_pipeline(spec_light).views}
        weighty = {v.view_id: v.value for v in run_pipeline(spec_heavy).views}
        for view_id, value in light.items():
            assert weighty[view_id] == pytest.approx(3.0 * value)

    def test_catalog_saved(self, tmp_path):
        from graphviews.views import catalog_load
        spec = WorkloadSpec.from_file(write_workload(tmp_path))
        run_pipeline(spec, catalog_dir=tmp_path / "cat")
        catalog = catalog_load(tmp_path / "cat")
        assert "khop:Job:Job:02" in catalog.entries
        # the spanner carries the aggregate q4 needs
        entry = catalog.entries["khop:Job:Job:02"]
        assert entry.view.edge_aggregates == ("timestamp",)


class TestDeterminism:
    def test_reports_byte_identical_across_runs_and_threads(self, tmp_path):
        path = write_workload(tmp_path)
        outputs = []
        for threads in (1, 8, 1):
            spec = WorkloadSpec.from_file(path)
            report = run_pipeline(spec, threads=threads)
            outputs.append(report.to_json(include_timing=False))
        assert outputs[0] == outputs[1] == outputs[2]

    def test_timing_fields_excluded(self, tmp_path):
        spec = WorkloadSpec.from_file(write_workload(tmp_path))
        report = run_pipeline(spec)
        no_timing = report.to_json(include_timing=False)
        assert "wall_ms" not in no_timing
        assert "speedup" not in no_timing
        assert "wall_ms" in report.to_json(include_timing=True)


def prepared_queries(*texts):
    return [_Prepared(QuerySpec(f"q{i}", file=f"q{i}.query"), q, q)
            for i, q in enumerate(map(parse_query, texts), 1)]


def edges_but_label(g):
    return sorted((src, dst, sorted(props.items()))
                  for _, src, dst, _, props in g.edges())


class TestOneCandidatePerContent:
    """Connectors that differ only in their edge label, and filters that
    keep the whole schema, are not materialized as views of their own."""

    @staticmethod
    def candidates(g, *texts):
        return build_candidates(prepared_queries(*texts), g.schema,
                                degree_summary(g), g, 95, 10)

    @pytest.mark.parametrize("shape", ["road", "lineage"])
    def test_twins_materialize_the_same_edges(self, tmp_path, shape):
        if shape == "road":
            g = road_5x5(tmp_path)
            text = "MATCH (a:Junction)-[p*4..4]->(b:Junction) RETURN a.id, b.id"
        else:
            g = random_lineage_dag(6, jobs=30, files=45)
            text = "MATCH (a:Job)-[p*2..2]->(b:Job) RETURN a.id, b.id"
        assert g.is_acyclic == (shape == "lineage")
        q = parse_query(text)
        enumerated = {v.view_id: v for v in
                      enumerate_views(q, g.schema, mine_constraints(q, g.schema))}
        candidates = self.candidates(g, text)
        ids = {c.view.view_id for c in candidates}
        with_twins = [c for c in candidates if c.twins]
        assert with_twins
        for cand in with_twins:
            kept = materialize(g, cand.view)
            assert kept.m > 0
            for twin_id in cand.twins:
                assert twin_id not in ids and twin_id > cand.view.view_id
                twin = materialize(g, enumerated[twin_id])
                assert edges_but_label(twin) == edges_but_label(kept)
                assert sorted(twin.vertices()) == sorted(kept.vertices())
                assert ({label for *_, label, _ in twin.edges()}
                        == {enumerated[twin_id].view_label})

    def test_twin_with_a_plan_of_its_own_is_kept(self, tmp_path, monkeypatch):
        from graphviews import pipeline
        g = road_5x5(tmp_path)
        pairs = "MATCH (a:Junction)-[p*4..4]->(b:Junction) RETURN a.id, b.id"
        pinned = ("MATCH (a:Junction)-[p*4..4]->(b:Junction) "
                  "WHERE a.id = 'r0c0' RETURN b.id")
        by_id = {c.view.view_id: c for c in self.candidates(g, pairs, pinned)}
        assert "svtc:Junction:04:04" not in by_id
        assert by_id["khop:Junction:Junction:04"].twins == ["svtc:Junction:04:04"]
        # the rewriter plans every query with khop:04 that it plans with
        # svtc:04:04; refuse it one, and the twin alone serves that query
        original = pipeline._plan_for

        def refuse_q2(pq, v, *args):
            if (pq.spec.name, v.view_id) == ("q2", "khop:Junction:Junction:04"):
                return None
            return original(pq, v, *args)

        monkeypatch.setattr(pipeline, "_plan_for", refuse_q2)
        by_id = {c.view.view_id: c for c in self.candidates(g, pairs, pinned)}
        khop, svtc = by_id["khop:Junction:Junction:04"], by_id["svtc:Junction:04:04"]
        assert khop.twins == [] and svtc.twins == []
        assert sorted(khop.per_query_plans) == ["q1"]
        assert sorted(svtc.per_query_plans) == ["q1", "q2"]

    def test_identity_filters_are_not_candidates(self, tmp_path, monkeypatch):
        from graphviews import pipeline
        estimated = []
        original = pipeline._estimate_weight

        def record(v, *args):
            estimated.append(v.view_id)
            return original(v, *args)

        monkeypatch.setattr(pipeline, "_estimate_weight", record)
        lineage, _ = candidates_and_selection(write_workload(tmp_path / "l"))
        assert "vert:File+Job" not in {c.view.view_id for c in lineage}
        assert "vert:File+Job" not in estimated
        # over four types, Job+File is a real filter
        provenance, _ = candidates_and_selection(
            write_provenance_workload(tmp_path / "p"))
        assert "vert:File+Job" in {c.view.view_id for c in provenance}

    def test_workload_selections(self, tmp_path):
        # the benchmark's road graph; lineage and provenance select the
        # same views at this size as at the benchmark's
        candidates, chosen = candidates_and_selection(
            write_road_workload(tmp_path / "road", 60, 60))
        assert [c.view.view_id for c in chosen] == ["khop:Junction:Junction:04"]
        assert chosen[0].twins == ["svtc:Junction:04:04"]
        assert not any("q2" in c.per_query_plans for c in chosen)
        _, chosen = candidates_and_selection(write_workload(tmp_path / "lineage"))
        assert [c.view.view_id for c in chosen] == ["khop:Job:Job:02", "vert:Job"]
        # vert:File+Job fits too, but q1, the one query it plans, runs on
        # khop:Job:Job:02
        _, chosen = candidates_and_selection(
            write_provenance_workload(tmp_path / "provenance"))
        assert [c.view.view_id for c in chosen] == ["khop:Job:Job:02"]

    def test_report_lists_twins(self, tmp_path):
        report = run_pipeline(WorkloadSpec.from_file(
            write_road_workload(tmp_path, 5, 5)))
        views = {v.view_id: v for v in report.views}
        assert "svtc:Junction:04:04" not in views
        assert views["khop:Junction:Junction:04"].twins == ["svtc:Junction:04:04"]
        listed = [v["view_id"] for v in json.loads(
            report.to_json(include_timing=False))["views"] if "twins" in v]
        assert listed == ["khop:Junction:Junction:04"]


class TestSparsifierWeights:
    def test_filter_weight_is_its_edge_count(self, tmp_path):
        # a type or label filter's weight is counted exactly, from the
        # edges per (src type, dst type, label) triple of the base graph
        ds = generate_lineage(tmp_path, 3, jobs=30, files=45, tasks=20, machines=4)
        g = load_graph(ds.vertex_file, ds.edge_file, ds.schema)
        types, labels = sorted(g.schema.vertex_types), sorted(g.schema.labels())
        triples = _triple_counts(g)
        views = [ViewInstance(kind=kind, predicate=Predicate(types=frozenset(kept)))
                 for r in (1, 2, 3) for kept in itertools.combinations(types, r)
                 for kind in ("VertexInclusion", "VertexRemoval")]
        views += [ViewInstance(kind=kind, predicate=Predicate(types=frozenset({label})))
                  for label in labels for kind in ("EdgeInclusion", "EdgeRemoval")]
        counts = set()
        for v in views:
            est = _estimate_weight(v, degree_summary(g), g.schema, triples, 95)
            assert est.estimated_edges == materialize(g, v).m, v.view_id
            counts.add(est.estimated_edges)
        assert len(counts) > 5


def load_workload(path):
    spec = WorkloadSpec.from_file(path)
    schema = GraphSchema.load(spec.schema_file)
    return spec, load_graph(spec.vertex_file, spec.edge_file, schema)


class TestPicksAtSelection:
    """Each query's view is picked from costs computed before anything is
    materialized, over degree summaries sampled by the materializer's
    own scan."""

    @pytest.mark.parametrize("shape", ["lineage", "provenance", "road"])
    def test_picks_equal_picks_over_materialized_views(self, tmp_path, shape):
        path = {"lineage": lambda: write_workload(tmp_path),
                "provenance": lambda: write_provenance_workload(tmp_path),
                "road": lambda: write_road_workload(tmp_path, 60, 60)}[shape]()
        spec, graph = load_workload(path)
        candidates, chosen = candidates_and_selection(path)
        # every view that fits the budget, as the knapsack could take it
        fitting = [c for c in candidates if c.per_query_plans
                   and c.weight <= spec.budget]
        assert {c.view.view_id for c in chosen} <= {c.view.view_id for c in fitting}
        built = {c.view.view_id: degree_summary(materialize(graph, c.view))
                 for c in fitting}
        for cands in (fitting, chosen):
            sampled = {name: c.view.view_id
                       for name, c in query_picks(cands).items()}
            over_built = {}
            for name in {n for c in cands for n in c.per_query_plans}:
                over_built[name] = min(
                    (eval_cost(c.per_query_plans[name].rewritten,
                               built[c.view.view_id], spec.alpha), c.view.view_id)
                    for c in cands if name in c.per_query_plans)[1]
            assert sampled == over_built
        assert query_picks(chosen)

    def test_report_runs_each_query_over_its_pick(self, tmp_path):
        path = write_provenance_workload(tmp_path)
        _, chosen = candidates_and_selection(path)
        picks = {name: c.view.view_id for name, c in query_picks(chosen).items()}
        report = run_pipeline(WorkloadSpec.from_file(path))
        assert report.selection["chosen"] == ["khop:Job:Job:02"]
        assert {q.name: q.view_id for q in report.queries
                if q.results_match is not None} == picks
        views = {v.view_id: v for v in report.views}
        assert not views["vert:File+Job"].selected
        assert views["vert:File+Job"].actual_edges is None

    def test_twins_share_one_sample(self, tmp_path, monkeypatch):
        spec, graph = load_workload(write_road_workload(tmp_path, 5, 5))
        sampled = []
        original = pipeline.sampled_degree_summary

        def record(g, v, raw):
            sampled.append(v.view_id)
            return original(g, v, raw)

        monkeypatch.setattr(pipeline, "sampled_degree_summary", record)
        candidates = build_candidates([_prepare(q) for q in spec.queries],
                                      graph.schema, degree_summary(graph),
                                      graph, spec.alpha, spec.max_k)
        by_id = {c.view.view_id: c for c in candidates}
        assert by_id["khop:Junction:Junction:04"].twins == ["svtc:Junction:04:04"]
        assert len(sampled) == len(set(sampled))
        assert "svtc:Junction:04:04" not in sampled

    def test_sample_of_every_source_is_the_views_summary(self):
        # at most SAMPLE_SOURCES sources: the sample walks from all of
        # them, so its percentiles are those of the materialized view
        # over every x_type vertex (a source with no pair has degree 0)
        for seed in range(6):
            g = random_lineage_dag(seed, jobs=40, files=60)
            raw = degree_summary(g)
            for k in (2, 4):
                v = ViewInstance(kind="KHopConnector", x="a", y="b",
                                 x_type="Job", y_type="Job", k=k)
                view_g = materialize(g, v)
                degrees = sorted(len(view_g.out_edges(j)) if view_g.has_vertex(j)
                                 else 0 for j in g.vertices_of_type("Job"))
                got = sampled_degree_summary(g, v, raw)
                for alpha in (50, 90, 95, 100):
                    rank = -(-alpha * len(degrees) // 100)
                    assert got.deg("Job", alpha) == degrees[rank - 1]
                assert got.n_of("Job") == raw.n_of("Job")


class TestSampleCap:
    LONG = ("MATCH (a:Junction)-[p*1..10]->(b:Junction) WHERE a.id = 'r0c0' "
            "RETURN b.id")

    def test_long_connector_on_a_cyclic_grid_is_costed_by_its_estimate(
            self, tmp_path):
        # from all 36 sources, the trails of up to 10 edges on the 6x6
        # grid take seconds to enumerate; the sample gives up at its cap
        ds = generate_road_like(tmp_path, 1, rows=6, cols=6)
        g = load_graph(ds.vertex_file, ds.edge_file, ds.schema)
        summary = degree_summary(g)
        started = time.perf_counter()
        candidates = build_candidates(prepared_queries(self.LONG), g.schema,
                                      summary, g, 95, 10)
        assert time.perf_counter() - started < 3.0
        (cand,) = [c for c in candidates if c.per_query_plans]
        assert cand.view.view_id == "svtc:Junction:01:10"
        assert sampled_degree_summary(g, cand.view, summary) is None
        fallback = view_degree_summary(cand.view, summary, cand.weight)
        assert cand.plan_costs == {"q1": eval_cost(
            cand.per_query_plans["q1"].rewritten, fallback, 95)}


class TestReportOnlyHost:
    """A report-only op also runs over the smallest-id selected connector
    only when that view has fewer edges than the base graph."""

    def test_view_larger_than_the_base_graph_runs_raw_only(self, tmp_path):
        report = run_pipeline(WorkloadSpec.from_file(
            write_road_workload(tmp_path, 5, 5)))
        views = {v.view_id: v for v in report.views}
        host = views["khop:Junction:Junction:04"]
        assert host.selected
        assert host.actual_edges >= report.config["graph"]["edges"]
        q5 = {q.name: q for q in report.queries}["q5"]
        assert (q5.view_id, q5.rewritten, q5.results_match) == (None, None, None)
        assert q5.work_ratio == 1.0

    @pytest.mark.parametrize("shape", ["lineage", "provenance"])
    def test_smaller_view_hosts_the_op(self, tmp_path, shape):
        path = (write_workload(tmp_path) if shape == "lineage"
                else write_provenance_workload(tmp_path))
        report = run_pipeline(WorkloadSpec.from_file(path))
        views = {v.view_id: v for v in report.views}
        assert (views["khop:Job:Job:02"].actual_edges
                < report.config["graph"]["edges"])
        ops = [q for q in report.queries if q.kind in pipeline.REPORT_ONLY_OPS]
        assert ops
        for q in ops:
            assert q.view_id == "khop:Job:Job:02"
            assert q.rewritten is not None and q.results_match is None


class TestSharedPropagation:
    """Report-only ops over one graph with one pass count share a label
    propagation run, and each reports that run's counters."""

    # with 3 passes, q8's raw run has the pass count of q7's run over the
    # view, and must not take its labels
    @pytest.mark.parametrize("q8_passes, runs", [(6, 2), (3, 4)])
    def test_one_run_per_graph_and_passes(self, tmp_path, monkeypatch,
                                          q8_passes, runs):
        calls = []
        real = pipeline.label_propagation

        def counted(g, passes, stats):
            calls.append((id(g), passes))
            return real(g, passes, stats=stats)
        monkeypatch.setattr(pipeline, "label_propagation", counted)
        queries = [
            {"name": "q1", "file": "q1.query", "weight": 2.0},
            {"name": "q7", "op": "label_propagation", "params": {"passes": 6}},
            {"name": "q8", "op": "largest_community",
             "params": {"passes": q8_passes, "count_type": "Job"}}]
        report = run_pipeline(WorkloadSpec.from_file(
            write_workload(tmp_path, queries=queries)))
        assert len(calls) == len(set(calls)) == runs
        q7, q8 = report.queries[1:]
        assert q8.view_id == "khop:Job:Job:02"
        alone = run_pipeline(WorkloadSpec.from_file(write_workload(
            tmp_path / "alone", queries=[queries[0], queries[2]])))
        assert alone.queries[1].to_dict(False) == q8.to_dict(False)
        if q8_passes == 6:
            counters = [{key: q.to_dict(False)[key]
                         for key in ("raw", "rewritten", "work_ratio")}
                        for q in (q7, q8)]
            assert counters[0] == counters[1]


def op_specs(g, result_types, hops=(1, 2, 4)):
    """Every op from every Job and File, to each of ``result_types``."""
    specs = []
    sources = sorted(g.vertices_of_type("Job")) + sorted(g.vertices_of_type("File"))
    for source in sources:
        for result_type in result_types:
            for h in hops:
                params = {"source": source, "hops": h, "result_type": result_type}
                specs.append(QuerySpec("a", op="ancestors", params=params))
                specs.append(QuerySpec("d", op="descendants", params=params))
                specs.append(QuerySpec("p", op="path_lengths", params={
                    **params, "property": "timestamp"}))
    return specs


class TestWalkOps:
    """Ancestors, descendants and path_lengths run raw and over a k-hop
    connector through one runner; the view side walks the plan's view
    hops from the source, when the source is a vertex of the view."""

    @staticmethod
    def khop_with_plans(g, specs):
        prepared = [_prepare(spec) for spec in specs]
        candidates = build_candidates(prepared, g.schema, degree_summary(g),
                                      g, 95, 10)
        (cand,) = [c for c in candidates
                   if c.view.view_id == "khop:Job:Job:02"]
        view = replace(cand.view,
                       edge_aggregates=_needed_aggregates(cand, prepared))
        return prepared, cand.per_query_plans, materialize(g, view)

    @pytest.mark.parametrize("seed", range(2))
    def test_raw_and_view_answers_agree(self, seed):
        g = random_lineage_dag(seed)
        specs = []
        for spec in op_specs(g, ["Job"], hops=(2, 4)):
            specs.append(replace(spec, name=f"{spec.name}{len(specs)}"))
        prepared, plans, vg = self.khop_with_plans(g, specs)
        assert next(vg.edges())[4].keys() == {"path_count", "timestamp"}
        unviewed = 0
        for pq in prepared:
            source = pq.spec.params["source"]
            if g.vertex_type(source) != "Job":
                # the proxy starts at a Job: no plan answers a File source
                assert pq.spec.name not in plans
                continue
            raw = _run_raw(pq, g)[0]
            view = _run_over_view(pq, plans[pq.spec.name], vg)[0]
            assert raw.multiset_equal(view, rel_tol=1e-9), pq.spec
            if not vg.has_vertex(source):
                assert raw.rows == []
                unviewed += 1
        assert unviewed

    @pytest.mark.parametrize("op", ["descendants", "path_lengths"])
    def test_source_of_another_type_runs_raw_only(self, tmp_path, op):
        params = {"source": "f3", "hops": 4, "result_type": "Job"}
        if op == "path_lengths":
            params["property"] = "timestamp"
        queries = [{"name": "q3", "op": "descendants",
                    "params": {**params, "source": "j2"}},
                   {"name": "qf", "op": op, "params": params}]
        path = write_workload(tmp_path, queries=queries, jobs=40, files=80)
        q3, qf = run_pipeline(WorkloadSpec.from_file(path)).queries
        assert q3.view_id == "khop:Job:Job:02" and q3.results_match
        assert qf.rows == 5
        assert qf.view_id is None and qf.results_match is None

    def test_unknown_source_fails_at_execute(self, tmp_path):
        queries = [{"name": "q2", "op": "ancestors", "params": {
            "source": "nope", "hops": 4, "result_type": "Job"}}]
        spec = WorkloadSpec.from_file(write_workload(tmp_path, queries=queries))
        with pytest.raises(GraphViewsError) as exc:
            run_pipeline(spec)
        assert exc.value.stage == "execute"

    def test_path_lengths_over_path_count_keeps_trail_counts(self, tmp_path):
        # planned over the connector, the op would make it carry path_count
        # as a trail aggregate, overwriting the trail counts q1 reads
        rng = random.Random(4)
        g = random_lineage_dag(4, jobs=20, files=30)
        g = PropertyGraph.build(g.schema, list(g.vertices()), [
            (eid, src, dst, label, {**props, "path_count": rng.randint(1, 3)})
            for eid, src, dst, label, props in g.edges()])
        (tmp_path / "count.query").write_text(
            BLAST.replace("avg(q_j2.cpu_hours)", "count(q_j2)"),
            encoding="utf-8")
        queries = [{"name": "q1", "file": "count.query"},
                   {"name": "q4", "op": "path_lengths", "params": {
                       "source": "j2", "hops": 4, "result_type": "Job",
                       "property": "path_count"}}]
        spec = WorkloadSpec.from_file(write_workload(tmp_path, queries=queries))
        g.export_csv(spec.vertex_file, spec.edge_file)
        spec.schema_file.write_text(g.schema.to_json(), encoding="utf-8")
        q1, q4 = run_pipeline(spec).queries
        assert q1.view_id == "khop:Job:Job:02" and q1.results_match
        assert q4.view_id is None and q4.rows


class TestOpBands:
    """The raw op runners walk only the schema type bands from the
    source's type to ``result_type``. Against the same runners with every
    band open, results must be equal and the work no larger."""

    @staticmethod
    def both_ways(monkeypatch, g, specs):
        def run():
            out = []
            for spec in specs:
                try:
                    out.append(_run_raw(_Prepared(spec, None, None), g))
                except PropertyTypeMismatchError:
                    out.append(None)
            return out

        pruned = run()
        with monkeypatch.context() as m:
            m.setattr(SchemaIndex, "type_bands",
                      lambda self, x, y, lo, hi, labels=None, forward=True:
                      (None,) * (hi + 1))
            unpruned = run()
        expanded = [0, 0]
        for spec, got, want in zip(specs, pruned, unpruned):
            if want is None:
                continue   # see test_pruned_branch_raises_no_type_error
            assert got is not None, spec
            assert got[0].multiset_equal(want[0], rel_tol=1e-9), spec
            assert got[1].edges_expanded <= want[1].edges_expanded, spec
            assert got[1].vertices_touched <= want[1].vertices_touched, spec
            expanded[0] += got[1].edges_expanded
            expanded[1] += want[1].edges_expanded
        return expanded

    @pytest.mark.parametrize("seed", range(3))
    def test_lineage_graphs(self, monkeypatch, seed):
        g = random_lineage_dag(seed)
        for graph in (g, as_cyclic(g)):
            self.both_ways(monkeypatch, graph, op_specs(graph, ["Job", "File"]))

    @pytest.mark.parametrize("seed", range(3))
    def test_clutter_shrinks_the_work(self, monkeypatch, seed):
        g = cluttered_lineage_dag(seed)
        for graph in (g, as_cyclic(g)):
            pruned, unpruned = self.both_ways(
                monkeypatch, graph,
                op_specs(graph, ["Job", "File", "Task", "Machine"]))
            assert pruned < unpruned, seed

    def test_road_grid(self, monkeypatch, tmp_path):
        g = road_5x5(tmp_path)
        specs = [QuerySpec(name, op=op, params={
                     "source": source, "hops": 4, "result_type": "Junction",
                     **({"property": "length"} if op == "path_lengths" else {})})
                 for source in ("r0c0", "r2c2", "r4c1")
                 for name, op in (("a", "ancestors"), ("d", "descendants"),
                                  ("p", "path_lengths"))]
        self.both_ways(monkeypatch, g, specs)

    @pytest.mark.parametrize("seed", range(3))
    def test_pruned_branch_raises_no_type_error(self, monkeypatch, seed):
        # tasks and machines carry no timestamp: path_lengths to a Job
        # used to raise when it reached a SPAWNS edge, and no longer
        # walks there; its values are those of the graph without clutter
        g = cluttered_lineage_dag(seed)
        clean = random_lineage_dag(seed, jobs=12, files=18,
                                   schema=PROVENANCE_SCHEMA)
        for source in sorted(g.vertices_of_type("Job")):
            pq = _Prepared(QuerySpec("p", op="path_lengths", params={
                "source": source, "hops": 4, "result_type": "Job",
                "property": "timestamp"}), None, None)
            got = _run_raw(pq, g)[0]
            assert got.rows == _run_raw(pq, clean)[0].rows
            with monkeypatch.context() as m:
                m.setattr(SchemaIndex, "type_bands",
                          lambda self, x, y, lo, hi, labels=None, forward=True:
                          (None,) * (hi + 1))
                with pytest.raises(PropertyTypeMismatchError):
                    _run_raw(pq, g)



class TestReportDigests:
    """The deterministic report of each benchmark workload shape, at a
    small seeded size, pinned by its digest: every field of it (views,
    plans, rows, work counters) is a fact a change must account for."""

    @pytest.mark.parametrize("shape, digest", [
        ("lineage", "cbfd5f1d10b1"),
        ("provenance", "991e4c0b10c9"),
        ("road", "d3d3be503540"),
    ])
    def test_digest_is_pinned(self, tmp_path, shape, digest):
        path = {"lineage": write_workload,
                "provenance": write_provenance_workload,
                "road": lambda p: write_road_workload(p, 6, 6)}[shape](tmp_path)
        report = run_pipeline(WorkloadSpec.from_file(path))
        got = hashlib.sha256(
            report.to_json(include_timing=False).encode()).hexdigest()[:12]
        assert got == digest, (
            f"the {shape} report digest changed from {digest} to {got}: "
            "CHANGES.md must explain every changed field before the new "
            "digest is pinned here")
