import json

import pytest

from graphviews.errors import GraphViewsError, InvalidParamsError
from graphviews.generate import generate_lineage
from graphviews.pipeline import QuerySpec, WorkloadSpec, run_pipeline

BLAST = ("MATCH (q_j1:Job)-[:WRITES_TO]->(q_f1:File), "
         "(q_f1)-[r*0..8]->(q_f2:File), (q_f2)-[:IS_READ_BY]->(q_j2:Job) "
         "RETURN q_j1.id, avg(q_j2.cpu_hours)")


def write_workload(tmp_path, budget=10 ** 6, seed=0, queries=None, **gen_kw):
    gen_kw.setdefault("jobs", 30)
    gen_kw.setdefault("files", 45)
    ds = generate_lineage(tmp_path, seed, **gen_kw)
    (tmp_path / "q1.query").write_text(BLAST, encoding="utf-8")
    (tmp_path / "q5.query").write_text(
        "MATCH (a)-[]->(b) RETURN count(a)", encoding="utf-8")
    (tmp_path / "q6.query").write_text(
        "MATCH (a:Job) RETURN count(a)", encoding="utf-8")
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
        assert ("timestamp", "max", "min") in entry.view.edge_aggregates


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
