"""System-level rewrite equivalence: executing a rewritten query over a
materialized view must return exactly the rows the original returns over
the raw graph. Lineage inputs are acyclic, which is what makes contracted
path multiplicities recoverable from path_count products."""

import random

import pytest

from graphviews.enumeration import (
    Predicate,
    ViewInstance,
    enumerate_views,
    rewrite_with_view,
)
from graphviews.errors import (
    GraphViewsError,
    NameEliminatedButReferencedError,
    RewriteInfeasibleError,
)
from graphviews.execution import (
    execute,
    k_hop_neighborhood,
    path_lengths,
)
from graphviews.generate import generate_lineage
from graphviews.mining import mine_constraints
from graphviews.query import ResultTable, parse_query
from graphviews.store import PropertyGraph, load_graph
from graphviews.views import materialize

from conftest import (
    BLAST_RADIUS_QUERY,
    LINEAGE_SCHEMA,
    PROVENANCE_SCHEMA,
    cluttered_lineage_dag,
    random_lineage_dag,
    road_5x5,
    weighted_lineage_dag,
)
from test_execution import random_lineage_query

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
        g = road_5x5(tmp_path)
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


def with_isolated_vertices(g: PropertyGraph) -> PropertyGraph:
    """``g`` plus one Job and one File with no edge: a zero-length path
    or a second pattern component matches them, and no connector view
    holds them."""
    return PropertyGraph.build(
        g.schema, [*g.vertices(), ("j_lone", "Job", {"cpu_hours": 7}),
                   ("f_lone", "File", {})], list(g.edges()))


def outcome(run):
    """The result table ``run`` gives, or the class of the error it raises."""
    try:
        return run()[0]
    except GraphViewsError as exc:
        return type(exc)


class TestEveryPlanIsSound:
    """Every enumerated view the rewriter plans a seeded random query over
    gives the raw rows (or the raw error), on four acyclic graph
    families. Cyclic graphs are left out: there a plan of two or more
    view hops can reuse a raw edge (``TestCyclicRewrites``)."""

    @pytest.mark.parametrize("seed", range(40))
    def test_random_queries(self, seed):
        rng = random.Random(seed)
        texts = [random_lineage_query(rng) for _ in range(8)]
        plans, unsound = 0, []
        for g in (random_lineage_dag(seed), weighted_lineage_dag(seed),
                  cluttered_lineage_dag(seed),
                  with_isolated_vertices(random_lineage_dag(seed))):
            views = {}
            for text in texts:
                q = parse_query(text)
                raw = outcome(lambda: execute(q, g))
                for v in enumerate_views(q, g.schema, mine_constraints(q, g.schema)):
                    try:
                        plan = rewrite_with_view(q, v, g.schema)
                    except (RewriteInfeasibleError,
                            NameEliminatedButReferencedError):
                        continue
                    plans += 1
                    if v.view_id not in views:
                        views[v.view_id] = materialize(g, v)
                    got = outcome(lambda: execute(plan.rewritten,
                                                  views[v.view_id]))
                    if isinstance(raw, ResultTable):
                        sound = (isinstance(got, ResultTable)
                                 and raw.multiset_equal(got, rel_tol=1e-9))
                    else:
                        sound = got is raw
                    if not sound:
                        unsound.append((text, v.view_id))
        assert plans and not unsound, unsound


def tiny_lineage() -> PropertyGraph:
    """j0 -WRITES_TO-> f0 -IS_READ_BY-> j1, and j2 with no edge."""
    return PropertyGraph.build(
        LINEAGE_SCHEMA, [("j0", "Job", {}), ("j1", "Job", {}), ("j2", "Job", {}),
                         ("f0", "File", {})],
        [("e0", "j0", "f0", "WRITES_TO", {}), ("e1", "f0", "j1", "IS_READ_BY", {})])


def job_connector(kind, **bounds) -> ViewInstance:
    return ViewInstance(kind=kind, x="a", y="b", x_type="Job", y_type="Job",
                        **bounds)


class TestRefusedPlans:
    """Plans the rewriter used to emit, each of which returned other rows
    than the raw query or failed over its view."""

    def test_another_component_is_refused(self):
        # the view graph holds no vertex without a connector edge: c
        # would bind j0 and j1 only
        g = tiny_lineage()
        q = parse_query("MATCH (a:Job)-[*2..2]->(b:Job), (c:Job) RETURN count(c)")
        assert execute(q, g)[0].rows == [(3,)]
        for v in (job_connector("KHopConnector", k=2),
                  job_connector("SameVertexTypeConnector", lo=2, hi=2)):
            with pytest.raises(RewriteInfeasibleError, match="more than"):
                rewrite_with_view(q, v, LINEAGE_SCHEMA)

    def test_an_unfolded_fixed_edge_is_refused(self, tmp_path):
        # the view graph has neither the Job vertices nor WRITES_TO edges
        ds = generate_lineage(tmp_path, 0, jobs=40, files=80)
        g = load_graph(ds.vertex_file, ds.edge_file, ds.schema)
        q = parse_query("MATCH (a:Job)-[:WRITES_TO]->(f:File), (f)-[*2..4]->(b:File) "
                        "RETURN a.id, f.id, b.id")
        assert execute(q, g)[0].rows
        v = ViewInstance(kind="KHopConnector", x="f", y="b", x_type="File",
                         y_type="File", k=2)
        with pytest.raises(RewriteInfeasibleError, match="more than"):
            rewrite_with_view(q, v, ds.schema)

    def test_a_zero_length_path_is_refused(self):
        # j2 reaches itself in zero hops, but is in no connector graph
        g = tiny_lineage()
        q = parse_query("MATCH (a:Job)-[*0..2]->(b:Job) RETURN count(b)")
        assert execute(q, g)[0].rows == [(4,)]
        with pytest.raises(RewriteInfeasibleError, match="zero-length"):
            rewrite_with_view(q, job_connector("KHopConnector", k=2),
                              LINEAGE_SCHEMA)

    def test_a_label_the_filter_drops_is_refused(self):
        g = tiny_lineage()
        q = parse_query("MATCH (a:Job)-[:WRITES_TO*1..3]->(b:Job) RETURN count(b)")
        assert execute(q, g)[0].rows == [(0,)]
        v = ViewInstance(kind="VertexInclusion",
                         predicate=Predicate(types=frozenset({"Job"})))
        with pytest.raises(RewriteInfeasibleError, match="WRITES_TO"):
            rewrite_with_view(q, v, LINEAGE_SCHEMA)
