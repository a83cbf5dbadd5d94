"""Acceptance suite: every criterion runs at its stated tolerance and
prints one pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

Desk-scale datasets stand in for the original multi-billion-edge
workloads; the structural and qualitative targets are asserted exactly as
specified, the engine-specific magnitudes are measured and reported.
"""

import time

import pytest

from graphviews.cli import main
from graphviews.costing import (
    estimate_er,
    estimate_heterogeneous,
    estimate_homogeneous,
    exact_path_count,
)
from graphviews.enumeration import ViewInstance, rewrite_with_view
from graphviews.execution import (
    ExecutionStats,
    execute,
    k_hop_neighborhood,
    path_lengths,
)
from graphviews.generate import generate_lineage, generate_power_law
from graphviews.mining import schema_k_hop_paths
from graphviews.pipeline import WorkloadSpec, run_pipeline
from graphviews.query import parse_query
from graphviews.store import degree_summary, load_graph
from graphviews.views import Candidate, materialize, select_views

from conftest import BLAST_RADIUS_QUERY, LINEAGE_SCHEMA, random_lineage_dag
from test_costing import random_conforming_graph
from test_equivalence import job_table
from test_mining import bipartite_schema, random_schema
from test_pipeline import write_workload
from oracles import enumerate_trails, knapsack_best_value, schema_paths_oracle

import random


def report(num: int, ok: bool, detail: str = ""):
    print(f"\nACCEPTANCE {num:02d}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num}: {detail}"


KHOP2 = ViewInstance(kind="KHopConnector", x="q_j1", y="q_j2",
                     x_type="Job", y_type="Job", k=2)


def test_criterion_01_enumeration_fidelity(tmp_path, capsys):
    started = time.monotonic()
    (tmp_path / "schema.json").write_text(LINEAGE_SCHEMA.to_json(),
                                          encoding="utf-8")
    (tmp_path / "q1.query").write_text(BLAST_RADIUS_QUERY, encoding="utf-8")
    rc = main(["enumerate", "--schema", str(tmp_path / "schema.json"),
               "--query", str(tmp_path / "q1.query"), "--max-k", "10"])
    out = capsys.readouterr().out
    elapsed = time.monotonic() - started
    expected = [
        "(X='q_j1', Y='q_j2', XTYPE='Job', YTYPE='Job', K=2)",
        "(X='q_j1', Y='q_j2', XTYPE='Job', YTYPE='Job', K=4)",
        "(X='q_j1', Y='q_j2', XTYPE='Job', YTYPE='Job', K=6)",
        "(X='q_j1', Y='q_j2', XTYPE='Job', YTYPE='Job', K=8)",
        "(X='q_j1', Y='q_j2', XTYPE='Job', YTYPE='Job', K=10)",
    ]
    khop_lines = [l for l in out.splitlines() if "K=" in l]
    ok = rc == 0 and khop_lines == expected and elapsed < 1.0
    report(1, ok, f"k-hop block verbatim, {elapsed:.3f}s")


def test_criterion_02_schema_path_oracle_equivalence():
    started = time.monotonic()
    mismatches = 0
    for seed in range(200):
        schema = random_schema(seed)
        triples = sorted(schema.edge_types)
        for k in range(1, 7):
            mine = {p.edges for p in schema_k_hop_paths(schema, k)}
            if mine != schema_paths_oracle(triples, k):
                mismatches += 1
    elapsed = time.monotonic() - started
    ok = mismatches == 0 and elapsed < 30.0
    report(2, ok, f"200 schemas x k<=6, {mismatches} mismatches, {elapsed:.1f}s")


def test_criterion_03_bipartite_parity():
    violations = 0
    for seed in range(100):
        schema = bipartite_schema(seed)
        for k in range(1, 8):
            if k % 2 == 1 and any(p.src_type == p.dst_type
                                  for p in schema_k_hop_paths(schema, k)):
                violations += 1
    report(3, violations == 0,
           f"100 bipartite schemas, {violations} odd same-type paths")


def test_criterion_04_estimator_upper_bound():
    violations = []
    for seed in range(100):
        g = random_conforming_graph(seed, max_n=200)
        d = degree_summary(g)
        homogeneous = len(d.per_type) == 1
        for k in (2, 3, 4):
            if homogeneous:
                est = estimate_homogeneous(d, k, 100).estimated_edges
            else:
                est = estimate_heterogeneous(d, k, 100).estimated_edges
            exact = exact_path_count(g, k)
            if est < exact:
                violations.append((seed, k))
    report(4, not violations,
           f"100 graphs x k in 2..4, {len(violations)} violations")


@pytest.fixture(scope="module")
def power_law_metrics(tmp_path_factory):
    root = tmp_path_factory.mktemp("pl")
    rows = []
    for n in (10 ** 3, 10 ** 4):
        for seed in range(50):
            ds = generate_power_law(root, seed, n, stem=f"pl_{n}_{seed}")
            g = load_graph(ds.vertex_file, ds.edge_file, ds.schema)
            d = degree_summary(g)
            rows.append({
                "exact": exact_path_count(g, 2),
                "lo": estimate_homogeneous(d, 2, 50).estimated_edges,
                "hi": estimate_homogeneous(d, 2, 95).estimated_edges,
                "er": estimate_er(g.n, g.m, 2).estimated_edges,
            })
    return rows


def test_criterion_05_estimator_sandwich(power_law_metrics):
    inside = sum(1 for r in power_law_metrics if r["lo"] <= r["exact"] <= r["hi"])
    ok = inside >= 0.8 * len(power_law_metrics)
    report(5, ok, f"exact within [a=50, a=95] on {inside}/100 seeds")


def test_criterion_06_erdos_renyi_underestimates(power_law_metrics):
    under = sum(1 for r in power_law_metrics if r["exact"] >= 10 * r["er"])
    ok = under >= 0.9 * len(power_law_metrics)
    report(6, ok, f"ER undercounts >=10x on {under}/100 seeds")


def test_criterion_07_rewrite_equivalence():
    started = time.monotonic()
    q1 = parse_query(BLAST_RADIUS_QUERY)
    plan = rewrite_with_view(q1, KHOP2, LINEAGE_SCHEMA)
    q4_view = ViewInstance(kind="KHopConnector", x="q_j1", y="q_j2",
                           x_type="Job", y_type="Job", k=2,
                           edge_aggregates=("timestamp",))
    mismatches = 0
    for seed in range(50):
        g = random_lineage_dag(seed, jobs=25, files=40)
        view_g = materialize(g, q4_view)
        view_ids = set(view_g.vertex_ids())
        raw, _ = execute(q1, g)
        rewritten, _ = execute(plan.rewritten, view_g)
        if not raw.multiset_equal(rewritten, rel_tol=1e-9):
            mismatches += 1
        for src in g.vertices_of_type("Job"):
            in_view = src in view_ids
            for direction in ("backward", "forward"):  # Q2, Q3
                raw_set = {v for v in k_hop_neighborhood(g, [src], direction, 4)
                           if g.vertex_type(v) == "Job"}
                view_set = (k_hop_neighborhood(view_g, [src], direction, 2)
                            if in_view else set())
                if raw_set != view_set:
                    mismatches += 1
            raw_pl = {v: x for v, x in path_lengths(g, src, 4, "timestamp").items()
                      if g.vertex_type(v) == "Job"}   # Q4
            view_pl = (path_lengths(view_g, src, 2, "timestamp")
                       if in_view else {})
            if not job_table(raw_pl).multiset_equal(job_table(view_pl),
                                                    rel_tol=1e-9):
                mismatches += 1
    elapsed = time.monotonic() - started
    ok = mismatches == 0 and elapsed < 120.0
    report(7, ok, f"Q1-Q4 on 50 lineage graphs, {mismatches} mismatches, "
                  f"{elapsed:.1f}s")


@pytest.fixture(scope="module")
def provenance_benchmark(tmp_path_factory):
    """Criterion-8 graph: 1e5 vertices, 90% tasks/machines."""
    root = tmp_path_factory.mktemp("prov")
    ds = generate_lineage(root, 0, jobs=3400, files=6600,
                          tasks=60000, machines=30000,
                          readers_per_file=2, consumers_per_producer=2)
    g = load_graph(ds.vertex_file, ds.edge_file, ds.schema)
    from graphviews.enumeration import Predicate
    sparsifier = ViewInstance(
        kind="VertexInclusion",
        predicate=Predicate(types=frozenset({"Job", "File"})))
    sparsified = materialize(g, sparsifier)
    spanner_view = ViewInstance(
        kind="KHopConnector", x="q_j1", y="q_j2",
        x_type="Job", y_type="Job", k=2,
        through_types=frozenset({"Job", "File"}))
    spanner = materialize(g, spanner_view)
    return g, sparsified, spanner, spanner_view


def test_criterion_08_size_reduction(provenance_benchmark):
    g, sparsified, spanner, _ = provenance_benchmark
    task_machine = sum(g.type_counts()[t] for t in ("Task", "Machine"))
    assert g.n == 100000 and task_machine / g.n >= 0.9
    sparsifier_factor = g.m / sparsified.m
    spanner_factor = sparsified.m / spanner.m
    ok = sparsifier_factor >= 5.0 and spanner_factor >= 2.0
    report(8, ok, f"sparsifier {sparsifier_factor:.1f}x (>=5), "
                  f"spanner further {spanner_factor:.1f}x (>=2) on "
                  f"{g.n} vertices / {g.m} edges")


def test_criterion_09_work_reduction(provenance_benchmark):
    g, _, spanner, spanner_view = provenance_benchmark
    q1 = parse_query(BLAST_RADIUS_QUERY.replace(
        "RETURN", "WHERE q_j1.id = 'j0' RETURN"))
    plan = rewrite_with_view(q1, spanner_view, g.schema)
    raw_ms = rew_ms = 0.0
    raw_edges = rew_edges = 0
    match = True
    for _ in range(10):
        stats = ExecutionStats()
        started = time.perf_counter()
        raw, _ = execute(q1, g, stats)
        raw_ms += (time.perf_counter() - started) * 1000
        raw_edges = stats.edges_expanded
        stats = ExecutionStats()
        started = time.perf_counter()
        rewritten, _ = execute(plan.rewritten, spanner, stats)
        rew_ms += (time.perf_counter() - started) * 1000
        rew_edges = stats.edges_expanded
        match = match and raw.multiset_equal(rewritten, rel_tol=1e-9)
    work_ratio = rew_edges / raw_edges
    speedup = raw_ms / rew_ms
    ok = match and work_ratio <= 0.5 and speedup >= 2.0
    report(9, ok, f"edges {rew_edges}/{raw_edges} = {work_ratio:.4f} (<=0.5), "
                  f"speedup {speedup:.1f}x (>=2; engine-scale 13x-50x "
                  f"reported, not asserted)")


def test_criterion_10_knapsack_optimality():
    started = time.monotonic()
    rng = random.Random(0)
    failures = 0
    for trial in range(1000):
        n = rng.randint(1, 20)
        weights = [rng.randint(1, 30) for _ in range(n)]
        values = [float(rng.randint(0, 100)) for _ in range(n)]
        budget = rng.randint(0, sum(weights))
        candidates = [
            Candidate(view=ViewInstance(kind="SameVertexTypeConnector",
                                        x="a", y="b", x_type=f"T{i:02d}",
                                        y_type=f"T{i:02d}", lo=1, hi=1),
                      weight=weights[i], value=values[i])
            for i in range(n)
        ]
        chosen = select_views(candidates, budget)
        got = sum(c.value for c in chosen)
        want = knapsack_best_value(weights, values, budget)
        if abs(got - want) > 1e-9 or sum(c.weight for c in chosen) > budget:
            failures += 1
    elapsed = time.monotonic() - started
    ok = failures == 0 and elapsed < 10.0
    report(10, ok, f"1000 random lists vs exhaustive, {failures} failures, "
                   f"{elapsed:.1f}s")


def test_criterion_11_spanner_construction_oracle():
    mismatches = 0
    for seed in range(100):
        g = random_lineage_dag(seed, jobs=10, files=15)
        assert g.n <= 200
        view_g = materialize(g, KHOP2)
        got = {(s, d): p["path_count"] for _, s, d, _, p in view_g.edges()}
        if got != enumerate_trails(g, "Job", "Job", [2]):
            mismatches += 1
    # hand-encoded lineage figure: both same-type 2-hop views by hand
    from graphviews.store import PropertyGraph
    fig = PropertyGraph.build(
        LINEAGE_SCHEMA,
        vertices=[("j1", "Job", {}), ("j2", "Job", {}), ("j3", "Job", {}),
                  ("f1", "File", {}), ("f2", "File", {}), ("f3", "File", {})],
        edges=[("e1", "j1", "f1", "WRITES_TO", {}),
               ("e2", "f1", "j2", "IS_READ_BY", {}),
               ("e3", "f1", "j3", "IS_READ_BY", {}),
               ("e4", "j2", "f2", "WRITES_TO", {}),
               ("e5", "j3", "f3", "WRITES_TO", {}),
               ("e6", "f2", "j3", "IS_READ_BY", {})],
    )
    job_view = materialize(fig, KHOP2)
    file_view = materialize(
        fig, ViewInstance(kind="KHopConnector", x="a", y="b",
                          x_type="File", y_type="File", k=2))
    hand_ok = (
        {(s, d) for _, s, d, _, _ in job_view.edges()}
        == {("j1", "j2"), ("j1", "j3"), ("j2", "j3")}
        and {(s, d) for _, s, d, _, _ in file_view.edges()}
        == {("f1", "f2"), ("f1", "f3"), ("f2", "f3")}
    )
    ok = mismatches == 0 and hand_ok
    report(11, ok, f"100 random graphs vs trail oracle, {mismatches} "
                   f"mismatches; hand-encoded views {'ok' if hand_ok else 'WRONG'}")


def test_criterion_12_bench_determinism(tmp_path):
    workload = write_workload(tmp_path, seed=7)
    outputs = []
    for threads in (1, 8, 1, 8):
        spec = WorkloadSpec.from_file(workload)
        report_obj = run_pipeline(spec, threads=threads)
        outputs.append(report_obj.to_json(include_timing=False))
    ok = len(set(outputs)) == 1
    report(12, ok, "bench reports byte-identical across runs and "
                   "--threads {1, 8} (timing excluded)")
