"""System-level rewrite equivalence: executing a rewritten query over a
materialized view must return exactly the rows the original returns over
the raw graph. Lineage inputs are acyclic, which is what makes contracted
path multiplicities recoverable from path_count products."""

import pytest

from graphviews.enumeration import (
    ViewInstance,
    enumerate_views,
    rewrite_with_view,
)
from graphviews.errors import RewriteInfeasibleError
from graphviews.execution import (
    execute,
    k_hop_neighborhood,
    path_lengths,
)
from graphviews.generate import generate_road_like
from graphviews.mining import mine_constraints
from graphviews.query import ResultTable, parse_query
from graphviews.store import load_graph
from graphviews.views import materialize

from conftest import (
    BLAST_RADIUS_QUERY,
    LINEAGE_SCHEMA,
    PROVENANCE_SCHEMA,
    random_lineage_dag,
)

KHOP2 = ViewInstance(kind="KHopConnector", x="q_j1", y="q_j2",
                     x_type="Job", y_type="Job", k=2)


def job_table(ids_or_map):
    if isinstance(ids_or_map, dict):
        rows = [(k, float(v)) for k, v in ids_or_map.items()]
        return ResultTable(("vertex", "value"), sorted(rows))
    return ResultTable(("vertex",), sorted((v,) for v in ids_or_map))


class TestBlastRadiusEquivalence:
    @pytest.mark.parametrize("seed", range(12))
    def test_q1_raw_vs_2hop_spanner(self, seed):
        g = random_lineage_dag(seed, jobs=14, files=20)
        q = parse_query(BLAST_RADIUS_QUERY)
        plan = rewrite_with_view(q, KHOP2, LINEAGE_SCHEMA)
        view_g = materialize(g, KHOP2)
        raw, _ = execute(q, g)
        rewritten, _ = execute(plan.rewritten, view_g)
        assert raw.multiset_equal(rewritten, rel_tol=1e-9), seed

    def test_q1_with_sum_and_count(self):
        text = BLAST_RADIUS_QUERY.replace(
            "avg(q_j2.cpu_hours)", "sum(q_j2.cpu_hours), count(q_j2)")
        for seed in range(6):
            g = random_lineage_dag(seed, jobs=12, files=18)
            q = parse_query(text)
            plan = rewrite_with_view(q, KHOP2, LINEAGE_SCHEMA)
            view_g = materialize(g, KHOP2)
            raw, _ = execute(q, g)
            rewritten, _ = execute(plan.rewritten, view_g)
            assert raw.multiset_equal(rewritten, rel_tol=1e-9), seed


class TestEnumeratedInstanceSoundness:
    @pytest.mark.parametrize("seed", range(8))
    def test_every_planable_instance_is_result_preserving(self, seed):
        g = random_lineage_dag(seed, jobs=12, files=16, schema=PROVENANCE_SCHEMA)
        q = parse_query(BLAST_RADIUS_QUERY)
        c = mine_constraints(q, PROVENANCE_SCHEMA)
        raw, _ = execute(q, g)
        plans = 0
        for v in enumerate_views(q, PROVENANCE_SCHEMA, c):
            try:
                plan = rewrite_with_view(q, v, PROVENANCE_SCHEMA)
            except RewriteInfeasibleError:
                continue
            view_g = materialize(g, v)
            rewritten, _ = execute(plan.rewritten, view_g)
            assert raw.multiset_equal(rewritten, rel_tol=1e-9), (seed, v.view_id)
            plans += 1
        assert plans >= 2  # at least the 2-hop connector and the sparsifier

    def test_k4_has_no_plan_for_full_range(self):
        q = parse_query(BLAST_RADIUS_QUERY)
        v = ViewInstance(kind="KHopConnector", x="q_j1", y="q_j2",
                         x_type="Job", y_type="Job", k=4)
        with pytest.raises(RewriteInfeasibleError):
            rewrite_with_view(q, v, LINEAGE_SCHEMA)


class TestOpQueryEquivalence:
    @pytest.mark.parametrize("seed", range(10))
    def test_ancestors_and_descendants_halved_hops(self, seed):
        g = random_lineage_dag(seed, jobs=16, files=22)
        view_g = materialize(g, KHOP2)
        view_ids = set(view_g.vertex_ids())
        for src in g.vertices_of_type("Job"):
            for direction in ("forward", "backward"):
                raw = {v for v in k_hop_neighborhood(g, [src], direction, 4)
                       if g.vertex_type(v) == "Job"}
                if src in view_ids:
                    over_view = k_hop_neighborhood(view_g, [src], direction, 2)
                else:
                    over_view = set()
                assert raw == over_view, (seed, src, direction)

    @pytest.mark.parametrize("seed", range(10))
    def test_path_lengths_minimax_over_spanner(self, seed):
        g = random_lineage_dag(seed, jobs=14, files=20)
        v = ViewInstance(kind="KHopConnector", x="a", y="b",
                         x_type="Job", y_type="Job", k=2,
                         edge_aggregates=("timestamp",))
        view_g = materialize(g, v)
        view_ids = set(view_g.vertex_ids())
        for src in g.vertices_of_type("Job"):
            raw = {vid: val for vid, val in
                   path_lengths(g, src, 4, "timestamp").items()
                   if g.vertex_type(vid) == "Job"}
            if src in view_ids:
                over_view = path_lengths(view_g, src, 2, "timestamp")
            else:
                over_view = {}
            assert job_table(raw).multiset_equal(job_table(over_view),
                                                 rel_tol=1e-9), (seed, src)


class TestSparsifierCountsDiffer:
    def test_q5_differs_on_spanner_matches_on_sparsifier(self):
        from graphviews.enumeration import Predicate
        g = random_lineage_dag(0, jobs=12, files=16, schema=PROVENANCE_SCHEMA)
        q5 = parse_query("MATCH (a)-[]->(b) RETURN count(a)")
        raw, _ = execute(q5, g)
        spanner = materialize(g, KHOP2)
        over_spanner, _ = execute(q5, spanner)
        assert raw.rows != over_spanner.rows  # counts differ by construction
        incl = ViewInstance(
            kind="VertexInclusion",
            predicate=Predicate(types=frozenset(PROVENANCE_SCHEMA.vertex_types)))
        over_identity, _ = execute(q5, materialize(g, incl))
        assert raw.rows == over_identity.rows


class TestCyclicRewrites:
    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "ROADMAP item 1: on a cyclic graph two view hops are two "
        "independent trails, and the rewriter does not refuse such plans"))
    def test_two_view_hops_on_a_cyclic_grid(self, tmp_path):
        # a plan must be refused or sound. Today it is neither: raw gives
        # 41 rows, over the 2-hop view 47 (two hops may reuse a raw edge,
        # and one view edge cannot be taken twice)
        ds = generate_road_like(tmp_path, seed=1, rows=5, cols=5)
        g = load_graph(ds.vertex_file, ds.edge_file, ds.schema)
        assert not g.is_acyclic
        view = ViewInstance(kind="KHopConnector", x="a", y="b",
                            x_type="Junction", y_type="Junction", k=2)
        q = parse_query("MATCH (a:Junction)-[p*4..4]->(b:Junction) "
                        "WHERE a.id = 'r0c0' RETURN b.id")
        try:
            plan = rewrite_with_view(q, view, g.schema)
        except RewriteInfeasibleError:
            return
        raw, _ = execute(q, g)
        rewritten, _ = execute(plan.rewritten, materialize(g, view))
        assert raw.multiset_equal(rewritten)
