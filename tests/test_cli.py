import json

import pytest

from graphviews.cli import main

from conftest import BLAST_RADIUS_QUERY, LINEAGE_SCHEMA, PROVENANCE_SCHEMA
from test_pipeline import write_road_workload, write_workload


# ``graphviews mine`` and ``graphviews enumerate --max-k 10`` for
# BLAST_RADIUS_QUERY: the query's facts, then each schema's
BLAST_QUERY_FACTS = (
    "queryVertex(q_f1).\n"
    "queryVertex(q_f2).\n"
    "queryVertex(q_j1).\n"
    "queryVertex(q_j2).\n"
    "queryVertexType(q_f1, 'File').\n"
    "queryVertexType(q_f2, 'File').\n"
    "queryVertexType(q_j1, 'Job').\n"
    "queryVertexType(q_j2, 'Job').\n"
    "queryEdge(q_f2, q_j2).\n"
    "queryEdge(q_j1, q_f1).\n"
    "queryEdgeType(q_f2, q_j2, 'IS_READ_BY').\n"
    "queryEdgeType(q_j1, q_f1, 'WRITES_TO').\n"
    "queryVariableLengthPath(q_f1, q_f2, 0, 8).\n"
)
LINEAGE_SCHEMA_FACTS = (
    "schemaVertex('File').\n"
    "schemaVertex('Job').\n"
    "schemaEdge('File', 'Job', 'IS_READ_BY').\n"
    "schemaEdge('Job', 'File', 'WRITES_TO').\n"
)
PROVENANCE_SCHEMA_FACTS = (
    "schemaVertex('File').\n"
    "schemaVertex('Job').\n"
    "schemaVertex('Machine').\n"
    "schemaVertex('Task').\n"
    "schemaEdge('File', 'Job', 'IS_READ_BY').\n"
    "schemaEdge('Job', 'File', 'WRITES_TO').\n"
    "schemaEdge('Job', 'Task', 'SPAWNS').\n"
    "schemaEdge('Task', 'Machine', 'RUNS_ON').\n"
)
BLAST_VIEWS = (
    "kHopConnector:\n"
    "(X='q_j1', Y='q_j2', XTYPE='Job', YTYPE='Job', K=2)\n"
    "(X='q_j1', Y='q_j2', XTYPE='Job', YTYPE='Job', K=4)\n"
    "(X='q_j1', Y='q_j2', XTYPE='Job', YTYPE='Job', K=6)\n"
    "(X='q_j1', Y='q_j2', XTYPE='Job', YTYPE='Job', K=8)\n"
    "(X='q_j1', Y='q_j2', XTYPE='Job', YTYPE='Job', K=10)\n"
    "sameVertexTypeConnector:\n"
    "(X='q_j1', Y='q_j2', TYPE='Job', LO=2, HI=10)\n"
    "vertexInclusion:\n"
    "(TYPES={'File', 'Job'})\n"
)


@pytest.fixture
def dataset(tmp_path, capsys):
    rc = main(["generate", "lineage", "--out", str(tmp_path),
               "--seed", "3", "--jobs", "25", "--files", "40"])
    assert rc == 0
    capsys.readouterr()
    return {
        "--vertices": str(tmp_path / "lineage_vertices.csv"),
        "--edges": str(tmp_path / "lineage_edges.csv"),
        "--schema": str(tmp_path / "lineage_schema.json"),
    }


def graph_flags(dataset):
    return [flag for pair in dataset.items() for flag in pair]


def blast_flags(tmp_path, schema):
    """``--schema`` and ``--query`` files for BLAST_RADIUS_QUERY."""
    schema_file = tmp_path / "schema.json"
    schema_file.write_text(schema.to_json(), encoding="utf-8")
    qfile = tmp_path / "q.query"
    qfile.write_text(BLAST_RADIUS_QUERY, encoding="utf-8")
    return ["--schema", str(schema_file), "--query", str(qfile)]


class TestCommands:
    def test_load_check(self, dataset, capsys):
        assert main(["load-check", *graph_flags(dataset)]) == 0
        out = capsys.readouterr().out
        assert "ok: 65 vertices" in out
        assert "Job: 25" in out

    def test_load_check_invalid_exits_2(self, tmp_path, dataset, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("id,type,props\nx,Ghost,\n", encoding="utf-8")
        dataset["--vertices"] = str(bad)
        assert main(["load-check", *graph_flags(dataset)]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["0", '""2""', "true", "1.5"])
    def test_bad_path_count_exits_2_at_load(self, tmp_path, capsys, bad):
        # the row's line is named, whether or not a walk would cross it
        workload = write_workload(tmp_path)
        edges = tmp_path / "lineage_edges.csv"
        header, first, *rest = edges.read_text(encoding="utf-8").splitlines()
        first = first.rsplit(",", 1)[0] + f',"{{""path_count"": {bad}}}"'
        edges.write_text("\n".join([header, first, *rest]) + "\n",
                         encoding="utf-8")
        flags = ["--vertices", str(tmp_path / "lineage_vertices.csv"),
                 "--edges", str(edges),
                 "--schema", str(tmp_path / "lineage_schema.json")]
        assert main(["load-check", *flags]) == 2
        assert "line 2: edge 'e0': path_count" in capsys.readouterr().err
        assert main(["bench", "--workload", str(workload)]) == 2
        assert "stage 'load': line 2: edge 'e0'" in capsys.readouterr().err

    @pytest.mark.parametrize("schema, schema_facts", [
        (LINEAGE_SCHEMA, LINEAGE_SCHEMA_FACTS),
        (PROVENANCE_SCHEMA, PROVENANCE_SCHEMA_FACTS)],
        ids=["lineage", "provenance"])
    def test_mine_golden_facts(self, tmp_path, capsys, schema, schema_facts):
        assert main(["mine", *blast_flags(tmp_path, schema)]) == 0
        assert capsys.readouterr().out == BLAST_QUERY_FACTS + schema_facts

    @pytest.mark.parametrize("schema", [LINEAGE_SCHEMA, PROVENANCE_SCHEMA],
                             ids=["lineage", "provenance"])
    def test_enumerate_unification_block(self, tmp_path, capsys, schema):
        assert main(["enumerate", *blast_flags(tmp_path, schema),
                     "--max-k", "10"]) == 0
        assert capsys.readouterr().out == BLAST_VIEWS

    def test_estimate_table(self, dataset, capsys):
        assert main(["estimate", *graph_flags(dataset), "--k", "2"]) == 0
        out = capsys.readouterr().out
        assert "est a=50" in out and "est a=95" in out and "est a=100" in out
        assert "exact" in out

    def test_run_raw_query(self, tmp_path, dataset, capsys):
        qfile = tmp_path / "q6.query"
        qfile.write_text("MATCH (a:Job) RETURN count(a)", encoding="utf-8")
        assert main(["run", *graph_flags(dataset), "--query", str(qfile)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("count(a)\n25\n")
        assert "edges_expanded=" in out and "ms=" in out

    def test_syntax_error_exits_2(self, tmp_path, dataset, capsys):
        qfile = tmp_path / "bad.query"
        qfile.write_text("MATCH (a:Job RETURN a", encoding="utf-8")
        assert main(["run", *graph_flags(dataset), "--query", str(qfile)]) == 2

    def test_non_decimal_digit_exits_2(self, tmp_path, dataset, capsys):
        qfile = tmp_path / "bad.query"
        qfile.write_text("MATCH (a:Job)-[*1..\u00b2]->(b) RETURN a",
                         encoding="utf-8")
        assert main(["run", *graph_flags(dataset), "--query", str(qfile)]) == 2
        assert "unexpected character '\u00b2' (at offset 19)" in capsys.readouterr().err

    def test_select_materialize_run_over_view(self, tmp_path, capsys):
        workload = write_workload(tmp_path)
        assert main(["select", "--workload", str(workload)]) == 0
        out = capsys.readouterr().out
        assert "khop:Job:Job:02" in out
        assert "*" in out
        assert main(["materialize", "--workload", str(workload),
                     "--view-id", "khop:Job:Job:02",
                     "--catalog", str(tmp_path / "cat")]) == 0
        capsys.readouterr()
        assert main(["run",
                     "--vertices", str(tmp_path / "lineage_vertices.csv"),
                     "--edges", str(tmp_path / "lineage_edges.csv"),
                     "--schema", str(tmp_path / "lineage_schema.json"),
                     "--query", str(tmp_path / "q1.query"),
                     "--view", "khop:Job:Job:02",
                     "--catalog", str(tmp_path / "cat")]) == 0
        out = capsys.readouterr().out
        assert "edges_expanded=" in out

    def test_run_over_a_catalog_of_old_aggregates_exits_2(self, tmp_path, capsys):
        workload = write_workload(tmp_path)
        assert main(["materialize", "--workload", str(workload),
                     "--view-id", "khop:Job:Job:02",
                     "--catalog", str(tmp_path / "cat")]) == 0
        manifest = tmp_path / "cat" / "manifest.json"
        raw = json.loads(manifest.read_text(encoding="utf-8"))
        # a trail aggregate as a catalog saved before names stored it
        raw["views"][0]["instance"]["edge_aggregates"] = [
            ["timestamp", "max", "min"]]
        manifest.write_text(json.dumps(raw), encoding="utf-8")
        capsys.readouterr()
        assert main(["run",
                     "--vertices", str(tmp_path / "lineage_vertices.csv"),
                     "--edges", str(tmp_path / "lineage_edges.csv"),
                     "--schema", str(tmp_path / "lineage_schema.json"),
                     "--query", str(tmp_path / "q1.query"),
                     "--view", "khop:Job:Job:02",
                     "--catalog", str(tmp_path / "cat")]) == 2
        assert "edge_aggregates" in capsys.readouterr().err

    def test_materialize_cap_exits_3(self, tmp_path, capsys):
        workload = write_workload(tmp_path)
        rc = main(["materialize", "--workload", str(workload),
                   "--view-id", "khop:Job:Job:02",
                   "--catalog", str(tmp_path / "cat"),
                   "--max-view-edges", "1"])
        assert rc == 3
        assert "budget" in capsys.readouterr().err

    def test_bench_writes_report(self, tmp_path, capsys):
        workload = write_workload(tmp_path)
        out_file = tmp_path / "report.json"
        assert main(["bench", "--workload", str(workload),
                     "--out", str(out_file), "--threads", "2"]) == 0
        report = json.loads(out_file.read_text(encoding="utf-8"))
        assert report["selection"]["chosen"]
        assert {q["name"] for q in report["queries"]} == {
            "q1", "q2", "q3", "q4", "q5", "q6", "q7", "q8"}
        table = capsys.readouterr().out
        assert "q1" in table and "match" in table

    def test_bench_referenced_folded_edge_exits_0(self, tmp_path, capsys):
        workload = write_workload(tmp_path, queries=[
            {"name": "q9", "file": "q9.query"}])
        assert main(["bench", "--workload", str(workload)]) == 0
        assert "q9" in capsys.readouterr().out

    @pytest.mark.parametrize("text, match", [
        # khop:File:File:02 held no Job end for the fixed edge; no view
        # is left to plan it, so there is nothing to compare
        ("MATCH (a:Job)-[:WRITES_TO]->(f:File), (f)-[*2..4]->(b:File) "
         "RETURN a.id, f.id, b.id", None),
        # vert:Job dropped the label the path names
        ("MATCH (a:Job)-[:WRITES_TO*1..3]->(b:Job) RETURN count(b)", True)])
    def test_bench_refused_plans_exit_0(self, tmp_path, capsys, text, match):
        (tmp_path / "r.query").write_text(text, encoding="utf-8")
        workload = write_workload(tmp_path, jobs=40, files=80,
                                  queries=[{"name": "r", "file": "r.query"}])
        out = tmp_path / "report.json"
        assert main(["bench", "--workload", str(workload),
                     "--out", str(out)]) == 0
        (query,) = json.loads(out.read_text(encoding="utf-8"))["queries"]
        assert query["results_match"] is match

    def test_bench_400_hop_query_exits_0(self, tmp_path, capsys):
        # its raw cost series passes the largest float
        (tmp_path / "q10.query").write_text(
            "MATCH (a:Job)-[p*1..400]->(b:Job) RETURN a.id, b.id",
            encoding="utf-8")
        workload = write_workload(
            tmp_path, jobs=40, files=80, tasks=400, machines=200,
            queries=[{"name": "q10", "file": "q10.query"}])
        out = tmp_path / "report.json"
        assert main(["bench", "--workload", str(workload),
                     "--out", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        assert "Infinity" not in text and "NaN" not in text
        (query,) = json.loads(text)["queries"]
        assert query["name"] == "q10" and query["results_match"]

    # a JSON list as source or property must not reach a walk, where it
    # raises TypeError, nor an empty or numeric one the execute stage
    @pytest.mark.parametrize("op, params, name", [
        ("label_propagation", {}, "passes"),
        ("label_propagation", {"passes": "six"}, "passes"),
        ("label_propagation", {"passes": 0}, "passes"),
        *[("path_lengths", {"source": "j2", "hops": 4, "result_type": "Job",
                            "property": "timestamp", name: value}, name)
          for name, value in [("source", ["j2"]), ("source", 3),
                              ("source", ""), ("property", ["timestamp"]),
                              ("property", 3), ("property", "")]]])
    def test_bench_bad_op_params_exit_2_at_parse(self, tmp_path, capsys, op,
                                                 params, name):
        workload = write_workload(tmp_path, queries=[
            {"name": "q7", "op": op, "params": params}])
        assert main(["bench", "--workload", str(workload)]) == 2
        err = capsys.readouterr().err
        assert "stage 'parse'" in err and f"param {name!r}" in err

    @pytest.mark.parametrize("field, value, message", [
        ("budget", "abc", "budget must be a number, got 'abc'"),
        ("budget", True, "budget must be a number, got True"),
        ("max_k", "x", "max_k must be an integer, got 'x'"),
        ("max_k", 2.0, "max_k must be an integer, got 2.0"),
        # json writes and reads these as NaN and Infinity
        ("budget", float("nan"), "budget must be finite, got nan"),
        ("budget", float("inf"), "budget must be finite, got inf"),
        ("seed", "x", "seed must be an integer, got 'x'"),
        ("seed", True, "seed must be an integer, got True"),
    ])
    def test_select_bad_workload_numbers_exit_2(self, tmp_path, capsys, field,
                                                value, message):
        workload = write_workload(tmp_path)
        raw = json.loads(workload.read_text(encoding="utf-8"))
        raw[field] = value
        workload.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["select", "--workload", str(workload)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), True])
    def test_select_bad_query_weight_exits_2(self, tmp_path, capsys, value):
        workload = write_workload(tmp_path)
        raw = json.loads(workload.read_text(encoding="utf-8"))
        raw["queries"][0]["weight"] = value
        workload.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["select", "--workload", str(workload)]) == 2
        assert (f"query 'q1': weight must be a finite positive number, "
                f"got {value!r}") in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["select", "bench"])
    @pytest.mark.parametrize("budget", ["nan", "inf"])
    def test_bad_budget_override_exits_2(self, tmp_path, capsys, command,
                                         budget):
        workload = write_workload(tmp_path)
        assert main([command, "--workload", str(workload),
                     "--budget", budget]) == 2
        assert f"budget must be finite, got {budget}" in capsys.readouterr().err

    def test_run_view_without_catalog_exits_2(self, tmp_path, dataset, capsys):
        qfile = tmp_path / "q6.query"
        qfile.write_text("MATCH (a:Job) RETURN count(a)", encoding="utf-8")
        assert main(["run", *graph_flags(dataset), "--query", str(qfile),
                     "--view", "khop:Job:Job:02"]) == 2
        assert "--view needs --catalog" in capsys.readouterr().err

    def test_unknown_view_id_exits_2(self, tmp_path, capsys):
        workload = write_workload(tmp_path)
        rc = main(["materialize", "--workload", str(workload),
                   "--view-id", "nope", "--catalog", str(tmp_path / "cat")])
        assert rc == 2

    def test_select_shows_twins_and_materialize_refuses_them(self, tmp_path,
                                                             capsys):
        workload = write_road_workload(tmp_path, 5, 5)
        assert main(["select", "--workload", str(workload)]) == 0
        out = capsys.readouterr().out.splitlines()
        at = next(i for i, line in enumerate(out)
                  if line.startswith("khop:Junction:Junction:04 "))
        assert out[at + 1] == "  same content as: svtc:Junction:04:04"
        assert not any(line.startswith("svtc:Junction:04:04") for line in out)
        assert main(["materialize", "--workload", str(workload),
                     "--view-id", "svtc:Junction:04:04",
                     "--catalog", str(tmp_path / "cat")]) == 2
        assert "'khop:Junction:Junction:04'" in capsys.readouterr().err
        assert not (tmp_path / "cat").exists()

    def test_generate_determinism_via_cli(self, tmp_path, capsys):
        main(["generate", "power_law", "--out", str(tmp_path / "a"),
              "--seed", "9", "--n", "300"])
        main(["generate", "power_law", "--out", str(tmp_path / "b"),
              "--seed", "9", "--n", "300"])
        a = (tmp_path / "a" / "power_law_edges.csv").read_bytes()
        b = (tmp_path / "b" / "power_law_edges.csv").read_bytes()
        assert a == b
