import json
import random

import pytest

from graphviews.enumeration import CONNECTOR_KINDS, VIEW_KINDS, Predicate, ViewInstance
from graphviews.enumeration import rewrite_with_view
from graphviews.errors import (
    BudgetExceededError,
    CorruptCatalogError,
    DuplicateIdError,
    MalformedRowError,
    MixedTypeAggregationError,
    PropertyTypeMismatchError,
    ValidationError,
)
from graphviews import views
from graphviews.execution import (
    execute,
    label_propagation,
    largest_community,
    path_lengths,
)
from graphviews.mining import SchemaIndex
from graphviews.query import parse_query
from graphviews.store import GraphSchema, PropertyGraph, induced_subgraph, load_graph
from graphviews.views import (
    Candidate,
    ViewCatalog,
    catalog_load,
    catalog_save,
    materialize,
    materialize_sparsifier,
    materialize_spanner,
    query_picks,
    select_views,
)

from conftest import (
    BLAST_RADIUS_QUERY,
    LINEAGE_SCHEMA,
    PROVENANCE_SCHEMA,
    as_cyclic,
    cluttered_lineage_dag,
    random_lineage_dag,
    road_5x5,
    weighted_lineage_dag,
)
from oracles import (
    enumerate_trails,
    has_cycle,
    knapsack_best_subset,
    knapsack_best_value,
)


def view(view_id_weight_value):
    """Candidate with a synthetic distinct view id."""
    vid, weight, value = view_id_weight_value
    # use SameVertexTypeConnector ids as carriers: x_type drives the id
    return Candidate(
        view=ViewInstance(kind="SameVertexTypeConnector", x="a", y="b",
                          x_type=vid, y_type=vid, lo=1, hi=1),
        weight=weight, value=value,
    )


KHOP2 = ViewInstance(kind="KHopConnector", x="q_j1", y="q_j2",
                     x_type="Job", y_type="Job", k=2)


class TestSelectViews:
    def test_documented_example_is_exhaustively_optimal(self):
        # weights/values {(6,30),(3,14),(4,16),(2,9)} at budget 10: the
        # optimum is {w6,w4} with value 46 (verified exhaustively)
        items = [("a", 6, 30.0), ("b", 3, 14.0), ("c", 4, 16.0), ("d", 2, 9.0)]
        assert knapsack_best_value([6, 3, 4, 2], [30, 14, 16, 9], 10) == 46
        chosen = select_views([view(i) for i in items], 10)
        assert sum(c.value for c in chosen) == 46
        assert {c.view.x_type for c in chosen} == {"a", "c"}

    def test_budget_zero(self):
        items = [("a", 1, 5.0)]
        assert select_views([view(i) for i in items], 0) == []

    def test_single_candidate_over_budget(self):
        assert select_views([view(("a", 11, 99.0))], 10) == []

    def test_matches_exhaustive_on_random_lists(self):
        rng = random.Random(1)
        for _ in range(120):
            n = rng.randint(1, 12)
            items = [(f"i{j:02d}", rng.randint(1, 15), float(rng.randint(0, 40)))
                     for j in range(n)]
            budget = rng.randint(0, 40)
            chosen = select_views([view(i) for i in items], budget)
            got = (tuple(sorted(c.view.x_type for c in chosen)),
                   sum(c.value for c in chosen),
                   sum(c.weight for c in chosen))
            want = knapsack_best_subset(items, budget)
            assert got[1] == pytest.approx(want[1]), (items, budget)
            assert got[0] == want[0], (items, budget)

    @pytest.mark.parametrize("scale", [1, 10 ** 5], ids=["small", "large"])
    def test_float_values_match_exhaustive(self, scale):
        # the large scale takes capacities into the millions
        rng = random.Random(7)
        for _ in range(60):
            n = rng.randint(1, 12)
            items = [(f"i{j:02d}", rng.randint(scale, 15 * scale),
                      rng.random() * 50) for j in range(n)]
            budget = rng.randint(0, 40 * scale)
            chosen = select_views([view(i) for i in items], budget)
            ids, value, weight = knapsack_best_subset(items, budget)
            assert tuple(sorted(c.view.x_type for c in chosen)) == ids, (items, budget)
            assert sum(c.value for c in chosen) == pytest.approx(value)
            assert sum(c.weight for c in chosen) == weight

    def test_float_sums_reconstruct_the_optimum(self):
        items = [("v0", 10 ** 6, 0.1), ("v1", 10 ** 6, 0.6),
                 ("v2", 2 * 10 ** 6, 0.2)]
        chosen = select_views([view(i) for i in items], 3 * 10 ** 6)
        assert [c.view.x_type for c in chosen] == ["v1", "v2"]

    def test_large_capacity_tie_break(self):
        # equal value: lower weight wins, then the smaller id tuple
        items = [("d", 10 ** 6, 1.0), ("c", 10 ** 6, 1.0), ("b", 10 ** 6, 1.0),
                 ("a", 2 * 10 ** 6 + 3, 2.0)]
        chosen = select_views([view(i) for i in items], 2 * 10 ** 6 + 5)
        assert [c.view.x_type for c in chosen] == ["b", "c"]

    def test_deterministic_tie_break(self):
        # two identical-value identical-weight options: lexicographically
        # smaller view id wins
        items = [("b", 5, 10.0), ("a", 5, 10.0)]
        chosen = select_views([view(i) for i in items], 5)
        assert [c.view.x_type for c in chosen] == ["a"]

    def test_weight_must_be_positive(self):
        with pytest.raises(ValidationError):
            Candidate(view=KHOP2, weight=0, value=1.0)


def planned(vid, weight, value, **costs):
    """``view`` with a plan cost per query name."""
    cand = view((vid, weight, value))
    cand.plan_costs = costs
    return cand


def ids(chosen):
    return [c.view.x_type for c in chosen]


class TestSelectPicks:
    """Every chosen view with plans is some query's cheapest plan among
    the chosen views; a view that is not is dropped and the knapsack is
    solved again without it."""

    def test_dominated_view_is_dropped(self):
        # both fit; b plans q1 too, at a higher cost, so q1 never runs on it
        cands = [planned("a", 5, 10.0, q1=100.0), planned("b", 5, 10.0, q1=200.0)]
        assert ids(select_views(cands, 10)) == ["a"]

    def test_cost_ties_go_to_the_smaller_id(self):
        cands = [planned("b", 5, 10.0, q1=100.0), planned("a", 5, 10.0, q1=100.0)]
        chosen = select_views(cands, 10)
        assert ids(chosen) == ["a"]
        assert ids(query_picks(chosen).values()) == ["a"]

    def test_freed_budget_is_refilled(self):
        # the knapsack alone takes a and b, then a and c; each time the
        # second is no pick, and the room goes to d, q2's only view
        items = [("a", 5, 10.0), ("b", 5, 9.0), ("c", 5, 8.0), ("d", 5, 1.0)]
        assert ids(select_views([view(i) for i in items], 10)) == ["a", "b"]
        cands = [planned("a", 5, 10.0, q1=1.0), planned("b", 5, 9.0, q1=2.0),
                 planned("c", 5, 8.0, q1=3.0), planned("d", 5, 1.0, q2=1.0)]
        chosen = select_views(cands, 10)
        assert ids(chosen) == ["a", "d"]
        assert {q: c.view.x_type for q, c in query_picks(chosen).items()} == {
            "q1": "a", "q2": "d"}

    def test_a_view_any_query_picks_stays(self):
        # b loses q1 to a but is the cheapest for q2
        cands = [planned("a", 5, 10.0, q1=100.0),
                 planned("b", 5, 10.0, q1=200.0, q2=1.0)]
        chosen = select_views(cands, 10)
        assert ids(chosen) == ["a", "b"]
        assert {q: c.view.x_type for q, c in query_picks(chosen).items()} == {
            "q1": "a", "q2": "b"}

    def test_views_without_plans_keep_the_knapsack(self):
        # plan-less candidates are never dropped, and a view that is the
        # only plan of its own query is always a pick: the plain optimum
        rng = random.Random(11)
        for _ in range(120):
            n = rng.randint(1, 12)
            items = [(f"i{j:02d}", rng.randint(1, 15), float(rng.randint(0, 40)))
                     for j in range(n)]
            budget = rng.randint(0, 40)
            cands = [planned(vid, w, v, **({f"q{vid}": 1.0} if j % 2 else {}))
                     for j, (vid, w, v) in enumerate(items)]
            got = tuple(sorted(ids(select_views(cands, budget))))
            assert got == knapsack_best_subset(items, budget)[0], (items, budget)


class TestMaterializeSpanner:
    def test_toy_lineage_single_edge(self, toy_lineage):
        g = materialize_spanner(toy_lineage, KHOP2)
        assert set(g.vertex_ids()) == {"j1", "j2"}
        edges = list(g.edges())
        assert len(edges) == 1
        _, src, dst, label, props = edges[0]
        assert (src, dst) == ("j1", "j2")
        assert label == "JOB_TO_JOB_2HOP"
        assert props["path_count"] == 1

    def test_vertex_properties_preserved(self, toy_lineage):
        g = materialize_spanner(toy_lineage, KHOP2)
        assert g.vertex_props("j2") == {"cpu_hours": 10}

    def test_no_k_hop_pairs_empty_view(self):
        g = PropertyGraph.build(LINEAGE_SCHEMA, [("j1", "Job", {})], [])
        view_g = materialize_spanner(g, KHOP2)
        assert (view_g.n, view_g.m) == (0, 0)

    def test_hand_encoded_two_type_views(self):
        # data lineage example: two jobs write files read by two other
        # jobs; both same-type 2-hop views computed by hand
        g = PropertyGraph.build(
            LINEAGE_SCHEMA,
            vertices=[("j1", "Job", {}), ("j2", "Job", {}), ("j3", "Job", {}),
                      ("f1", "File", {}), ("f2", "File", {}), ("f3", "File", {})],
            edges=[
                ("e1", "j1", "f1", "WRITES_TO", {}),
                ("e2", "f1", "j2", "IS_READ_BY", {}),
                ("e3", "f1", "j3", "IS_READ_BY", {}),
                ("e4", "j2", "f2", "WRITES_TO", {}),
                ("e5", "j3", "f3", "WRITES_TO", {}),
                ("e6", "f2", "j3", "IS_READ_BY", {}),
            ],
        )
        job_view = materialize_spanner(g, KHOP2)
        job_pairs = {(s, d): p["path_count"] for _, s, d, _, p in job_view.edges()}
        assert job_pairs == {("j1", "j2"): 1, ("j1", "j3"): 1, ("j2", "j3"): 1}
        file_view = materialize_spanner(
            g, ViewInstance(kind="KHopConnector", x="a", y="b",
                            x_type="File", y_type="File", k=2))
        file_pairs = {(s, d): p["path_count"] for _, s, d, _, p in file_view.edges()}
        assert file_pairs == {("f1", "f2"): 1, ("f1", "f3"): 1, ("f2", "f3"): 1}

    def test_path_count_counts_parallel_trails(self):
        g = PropertyGraph.build(
            LINEAGE_SCHEMA,
            vertices=[("j1", "Job", {}), ("j2", "Job", {}),
                      ("f1", "File", {}), ("f2", "File", {})],
            edges=[
                ("e1", "j1", "f1", "WRITES_TO", {}),
                ("e2", "f1", "j2", "IS_READ_BY", {}),
                ("e3", "j1", "f2", "WRITES_TO", {}),
                ("e4", "f2", "j2", "IS_READ_BY", {}),
                ("e5", "f2", "j2", "IS_READ_BY", {}),  # repeated read
            ],
        )
        view_g = materialize_spanner(g, KHOP2)
        (edge,) = list(view_g.edges())
        assert edge[4]["path_count"] == 3

    def test_brute_force_trail_equivalence(self):
        for seed in range(30):
            g = random_lineage_dag(seed, jobs=12, files=18)
            view_g = materialize_spanner(g, KHOP2)
            got = {(s, d): p["path_count"] for _, s, d, _, p in view_g.edges()}
            want = enumerate_trails(g, "Job", "Job", [2])
            assert got == want, seed

    def test_range_connector_contracts_all_lengths(self):
        g = random_lineage_dag(3, jobs=10, files=14)
        v = ViewInstance(kind="SameVertexTypeConnector", x="a", y="b",
                         x_type="Job", y_type="Job", lo=2, hi=4)
        view_g = materialize_spanner(g, v)
        got = {(s, d): p["path_count"] for _, s, d, _, p in view_g.edges()}
        want = enumerate_trails(g, "Job", "Job", [2, 4])  # odd lengths infeasible
        assert got == want

    def test_edge_aggregates_carried(self):
        g = PropertyGraph.build(
            LINEAGE_SCHEMA,
            vertices=[("j1", "Job", {}), ("j2", "Job", {}),
                      ("f1", "File", {}), ("f2", "File", {})],
            edges=[
                ("e1", "j1", "f1", "WRITES_TO", {"ts": 1, "cost": 1}),
                ("e2", "f1", "j2", "IS_READ_BY", {"ts": 9, "cost": 2}),
                ("e3", "j1", "f2", "WRITES_TO", {"ts": 4, "cost": 6}),
                ("e4", "f2", "j2", "IS_READ_BY", {"ts": 5, "cost": 1}),
            ],
        )
        v = ViewInstance(kind="KHopConnector", x="a", y="b",
                         x_type="Job", y_type="Job", k=2,
                         edge_aggregates=("cost", "ts"))
        for graph in (g, as_cyclic(g)):
            (edge,) = list(materialize_spanner(graph, v).edges())
            # ts: max(1,9)=9 and max(4,5)=5, min across trails = 5;
            # cost: max(1,2)=2 and max(6,1)=6, min across trails = 2
            assert edge[4] == {"path_count": 2, "cost": 2, "ts": 5}

    @pytest.mark.parametrize("aggregates", [("path_count",),
                                            ("cost", "path_count")])
    def test_edge_aggregates_never_name_the_trail_count(self, aggregates):
        # an aggregate of that name would overwrite each edge's count
        with pytest.raises(ValidationError, match="path_count"):
            ViewInstance(kind="KHopConnector", x="a", y="b", x_type="Job",
                         y_type="Job", k=2, edge_aggregates=aggregates)

    def test_through_types_composition(self):
        # spanner over the {Job, File} sparsifier: trails must not route
        # through tasks (none can on this schema; the restriction is a
        # no-op but must not change results)
        g = random_lineage_dag(5, schema=PROVENANCE_SCHEMA)
        plain = materialize_spanner(g, KHOP2)
        composed = materialize_spanner(
            g, ViewInstance(kind="KHopConnector", x="a", y="b",
                            x_type="Job", y_type="Job", k=2,
                            through_types=frozenset({"Job", "File"})))
        assert sorted(plain.edges()) == sorted(composed.edges())

    def test_unreachable_end_type_walks_from_no_source(self, monkeypatch):
        g = random_lineage_dag(3)
        # through_types without File leaves no 2-hop Job trail
        assert materialize_spanner(g, ViewInstance(
            kind="KHopConnector", x="a", y="b", x_type="Job", y_type="Job",
            k=2, through_types=frozenset({"Job"}))).m == 0
        # a File reaches a Job only at odd lengths
        walked = []
        monkeypatch.setattr(views, "_walk",
                            lambda *args, **kw: walked.append(args) or {})
        assert materialize_spanner(g, ViewInstance(
            kind="KHopConnector", x="a", y="b", x_type="File", y_type="Job",
            k=2)).m == 0
        assert walked == []

    @pytest.mark.parametrize("seed", range(3))
    def test_bands_do_not_change_views(self, monkeypatch, seed):
        g = cluttered_lineage_dag(seed)
        connectors = [
            KHOP2,
            ViewInstance(kind="SameVertexTypeConnector", x="a", y="b",
                         x_type="File", y_type="File", lo=2, hi=6),
            ViewInstance(kind="SourceToSinkConnector", x="a", y="b",
                         x_type="File", y_type="Machine", lo=1, hi=5),
            ViewInstance(kind="KHopConnector", x="a", y="b",
                         x_type="Job", y_type="Job", k=2,
                         through_types=frozenset({"Job", "File", "Task"})),
        ]
        for graph in (g, as_cyclic(g)):
            pruned = [view_content(materialize_spanner(graph, v))
                      for v in connectors]
            with monkeypatch.context() as m:
                m.setattr(SchemaIndex, "type_bands",
                          lambda self, x, y, lo, hi, labels=None, forward=True:
                          (None,) * (hi + 1))
                unpruned = [view_content(materialize_spanner(graph, v))
                            for v in connectors]
            assert pruned == unpruned
            assert any(view[1] for view in pruned)

    def test_edge_cap(self):
        g = random_lineage_dag(2)
        with pytest.raises(BudgetExceededError):
            materialize_spanner(g, KHOP2, max_edges=1)

    def test_plain_graph_connector_has_no_step(self):
        plain, weighted = random_lineage_dag(5), weighted_lineage_dag(5)
        timestamp = ("timestamp",)
        assert views._connector_semiring(plain, ())[0] is None
        assert views._connector_semiring(weighted, ())[0] is not None
        assert views._connector_semiring(plain, timestamp)[0] is not None

    @pytest.mark.parametrize("cyclic", [False, True])
    def test_edge_cap_fires_as_pairs_fill(self, monkeypatch, cyclic):
        # the cap must stop the scan at the pair past it, not after
        # every source has been walked
        g = random_lineage_dag(2, jobs=40, files=60)
        if cyclic:
            g = as_cyclic(g)
        per_source = {}
        for _, src, _, _, _ in materialize_spanner(g, KHOP2).edges():
            per_source[src] = per_source.get(src, 0) + 1
        sources = sorted(g.vertices_of_type("Job"))
        cap = sum(per_source.values()) // 4
        filled, walks_needed = 0, 0
        for src in sources:
            walks_needed += 1
            filled += per_source.get(src, 0)
            if filled > cap:
                break
        assert walks_needed < len(sources) // 2
        walks = 0
        original = views._walk

        def counted(*args, **kwargs):
            nonlocal walks
            walks += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(views, "_walk", counted)
        with pytest.raises(BudgetExceededError):
            materialize_spanner(g, KHOP2, max_edges=cap)
        assert walks == walks_needed

    def test_edge_cap_exact_boundary(self):
        g = random_lineage_dag(2)
        m = materialize_spanner(g, KHOP2).m
        assert materialize_spanner(g, KHOP2, max_edges=m).m == m
        with pytest.raises(BudgetExceededError):
            materialize_spanner(g, KHOP2, max_edges=m - 1)
        with pytest.raises(BudgetExceededError):
            materialize_spanner(g, KHOP2, max_edges=m - 1, threads=3)

    def test_threads_do_not_change_output(self):
        g = random_lineage_dag(8, jobs=20, files=30)
        single_run = materialize_spanner(g, KHOP2, threads=1)
        multi = materialize_spanner(g, KHOP2, threads=8)
        assert sorted(single_run.edges()) == sorted(multi.edges())
        assert sorted(single_run.vertices()) == sorted(multi.vertices())


    def test_input_path_count_multiplies_trails(self):
        # an edge standing for two contracted paths counts twice, as in
        # execute: Q1 counts 3 raw rows, so the view edges must carry 2 + 1
        g = PropertyGraph.build(
            LINEAGE_SCHEMA,
            vertices=[("j1", "Job", {}), ("j2", "Job", {}), ("j3", "Job", {}),
                      ("f1", "File", {}), ("f2", "File", {})],
            edges=[
                ("e1", "j1", "f1", "WRITES_TO", {"path_count": 2}),
                ("e2", "f1", "j2", "IS_READ_BY", {}),
                ("e3", "j1", "f2", "WRITES_TO", {}),
                ("e4", "f2", "j3", "IS_READ_BY", {}),
            ],
        )
        q = parse_query(BLAST_RADIUS_QUERY.replace("avg(q_j2.cpu_hours)",
                                                   "count(q_j2)"))
        plan = rewrite_with_view(q, KHOP2, LINEAGE_SCHEMA)
        for graph in (g, as_cyclic(g)):
            view_g = materialize_spanner(graph, KHOP2)
            pairs = {(s, d): p["path_count"] for _, s, d, _, p in view_g.edges()}
            assert pairs == {("j1", "j2"): 2, ("j1", "j3"): 1}
            assert execute(q, graph)[0].rows == [("j1", 3)]
            assert execute(plan.rewritten, view_g)[0].rows == [("j1", 3)]


def connector_views():
    """Connectors over the lineage schema, the last two with a trail
    aggregate."""
    return [
        KHOP2,
        ViewInstance(kind="KHopConnector", x="a", y="b",
                     x_type="File", y_type="File", k=2),
        ViewInstance(kind="SameVertexTypeConnector", x="a", y="b",
                     x_type="Job", y_type="Job", lo=2, hi=4),
        ViewInstance(kind="SourceToSinkConnector", x="a", y="b",
                     x_type="Job", y_type="File", lo=1, hi=5),
        ViewInstance(kind="SameEdgeTypeConnector", x="a", y="b",
                     x_type="File", y_type="Job", label="IS_READ_BY",
                     lo=1, hi=1),
        ViewInstance(kind="KHopConnector", x="a", y="b",
                     x_type="Job", y_type="Job", k=2,
                     through_types=frozenset({"Job", "File"})),
        ViewInstance(kind="SameVertexTypeConnector", x="a", y="b",
                     x_type="Job", y_type="Job", lo=2, hi=6,
                     edge_aggregates=("timestamp",)),
        ViewInstance(kind="SourceToSinkConnector", x="a", y="b",
                     x_type="Job", y_type="File", lo=1, hi=5,
                     edge_aggregates=("timestamp",)),
    ]


TWO_PROPERTIES = ViewInstance(kind="SameVertexTypeConnector", x="a", y="b",
                              x_type="Job", y_type="Job", lo=2, hi=6,
                              edge_aggregates=("cost", "timestamp"))


def with_costs(g: PropertyGraph, seed: int) -> PropertyGraph:
    """``g`` with an int ``cost`` on every edge: a second edge property
    for trail aggregates."""
    rng = random.Random(seed)
    return PropertyGraph.build(g.schema, list(g.vertices()), [
        (eid, s, d, label, {**props, "cost": rng.randint(1, 20)})
        for eid, s, d, label, props in g.edges()])


def view_content(view_g):
    return sorted(view_g.vertices()), sorted(view_g.edges())


class TestConnectorSweep:
    """On acyclic inputs the per-source frontier sweep must build the
    same view as the trail search it replaces."""

    @pytest.mark.parametrize("seed", range(8))
    def test_views_match_trail_search(self, seed):
        for g in (with_costs(random_lineage_dag(seed, jobs=12, files=18), seed),
                  with_costs(weighted_lineage_dag(seed, jobs=12, files=18), seed)):
            assert g.is_acyclic
            for v in connector_views() + [TWO_PROPERTIES]:
                assert (view_content(materialize_spanner(g, v))
                        == view_content(materialize_spanner(as_cyclic(g), v))), \
                    (seed, v.view_id, v.edge_aggregates)

    def test_missing_property_off_the_view_is_ignored(self):
        # f2 is read by no job, so the trail j1 -> f2 with no timestamp
        # ends no 2-hop trail and must not fail the view
        g = PropertyGraph.build(
            LINEAGE_SCHEMA,
            vertices=[("j1", "Job", {}), ("j2", "Job", {}),
                      ("f1", "File", {}), ("f2", "File", {})],
            edges=[
                ("e1", "j1", "f1", "WRITES_TO", {"ts": 3}),
                ("e2", "f1", "j2", "IS_READ_BY", {"ts": 4}),
                ("e3", "j1", "f2", "WRITES_TO", {}),
            ],
        )
        v = ViewInstance(kind="KHopConnector", x="a", y="b",
                         x_type="Job", y_type="Job", k=2,
                         edge_aggregates=("ts",))
        for graph in (g, as_cyclic(g)):
            (edge,) = materialize_spanner(graph, v).edges()
            assert edge[4] == {"path_count": 1, "ts": 4}
        reader = PropertyGraph.build(
            LINEAGE_SCHEMA, list(g.vertices()),
            list(g.edges()) + [("e4", "f2", "j2", "IS_READ_BY", {"ts": 1})])
        for graph in (reader, as_cyclic(reader)):
            with pytest.raises(PropertyTypeMismatchError):
                materialize_spanner(graph, v)

    @pytest.mark.parametrize("seed", range(8))
    def test_missing_properties_raise_exactly_when_trail_search_does(self, seed):
        rng = random.Random(seed)
        g = random_lineage_dag(seed, jobs=12, files=18)
        # a missing timestamp and cost, or a cost that is no number
        edges = [(eid, s, d, label, {} if rng.random() < 0.08
                  else {**props, "cost": rng.choice(["high", True])}
                  if rng.random() < 0.04 else props)
                 for eid, s, d, label, props in with_costs(g, seed).edges()]
        g = PropertyGraph.build(LINEAGE_SCHEMA, list(g.vertices()), edges)
        for v in connector_views()[-2:] + [TWO_PROPERTIES]:
            outcomes = []
            for graph in (g, as_cyclic(g)):
                try:
                    outcomes.append(view_content(materialize_spanner(graph, v)))
                except PropertyTypeMismatchError:
                    outcomes.append("raised")
            assert outcomes[0] == outcomes[1], (seed, v.edge_aggregates)


@pytest.fixture
def provenance_toy():
    return PropertyGraph.build(
        PROVENANCE_SCHEMA,
        vertices=[
            ("j1", "Job", {}), ("j2", "Job", {}),
            ("f1", "File", {"dir": "/a", "bytes": 10}),
            ("f2", "File", {"dir": "/a", "bytes": 30}),
            ("f3", "File", {"dir": "/b", "bytes": 5}),
            ("t1", "Task", {}), ("m1", "Machine", {}),
        ],
        edges=[
            ("e1", "j1", "f1", "WRITES_TO", {}),
            ("e2", "f1", "j2", "IS_READ_BY", {}),
            ("e3", "j1", "t1", "SPAWNS", {}),
            ("e4", "t1", "m1", "RUNS_ON", {}),
            ("e5", "j2", "f2", "WRITES_TO", {}),
        ],
    )


def sparsifier_views(schema):
    types, labels = frozenset(schema.vertex_types), schema.labels()
    some_type, some_label = sorted(types)[0], sorted(labels)[0]
    grouped = "Job" if "Job" in types else some_type
    return [
        ViewInstance(kind="VertexInclusion", predicate=Predicate(types=types)),
        ViewInstance(kind="VertexInclusion",
                     predicate=Predicate(types=frozenset({some_type}))),
        ViewInstance(kind="VertexRemoval",
                     predicate=Predicate(types=frozenset({some_type}))),
        ViewInstance(kind="EdgeInclusion", predicate=Predicate(types=labels)),
        ViewInstance(kind="EdgeRemoval",
                     predicate=Predicate(types=frozenset({some_label}))),
        ViewInstance(kind="VertexAggregator", group_key="cpu_hours",
                     predicate=Predicate(types=frozenset({grouped}))),
        ViewInstance(kind="EdgeAggregator", aggregations=(("timestamp", "max"),),
                     predicate=Predicate(types=labels)),
        ViewInstance(kind="SubgraphAggregator",
                     predicate=Predicate(types=frozenset({some_type}))),
    ]


class TestMaterializedAcyclicity:
    """``materialize`` settles the view's acyclic flag, so the first
    query over the view does not pay for it, and the flag is right."""

    def graphs(self, tmp_path):
        return [random_lineage_dag(seed, jobs=12, files=18) for seed in range(3)] \
            + [as_cyclic(random_lineage_dag(3, jobs=12, files=18)),
               road_5x5(tmp_path)]

    def test_flag_set_and_matches_oracle(self, tmp_path):
        kinds = set()
        cyclic_over_dag = []
        for g in self.graphs(tmp_path):
            road = g.schema.vertex_types == {"Junction"}
            connectors = ([ViewInstance(kind="KHopConnector", x="a", y="b",
                                        x_type="Junction", y_type="Junction",
                                        k=k) for k in (2, 3, 4)]
                          if road else connector_views())
            for v in connectors + sparsifier_views(g.schema):
                view_g = materialize(g, v)
                assert view_g._acyclic is not None, v.view_id
                assert view_g._acyclic == (not has_cycle(view_g)), v.view_id
                kinds.add(view_g._acyclic)
                if g.is_acyclic and not view_g._acyclic:
                    cyclic_over_dag.append(v.kind)
        assert kinds == {True, False}
        # contracting jobs of equal cpu_hours closes cycles in a DAG
        assert "VertexAggregator" in cyclic_over_dag

    def test_connector_over_acyclic_base_skips_the_pass(self, monkeypatch):
        g = random_lineage_dag(4)
        assert g.is_acyclic
        calls = []
        original = GraphSchema.types_on_cycles
        monkeypatch.setattr(GraphSchema, "types_on_cycles",
                            lambda self: calls.append(self) or original(self))
        view_g = materialize(g, KHOP2)
        assert view_g._acyclic is True and calls == []


class TestIdentityFilters:
    def test_identity_filters_copy_the_base(self, provenance_toy):
        schema = provenance_toy.schema
        identities = [
            ViewInstance(kind="VertexInclusion",
                         predicate=Predicate(types=schema.vertex_types)),
            ViewInstance(kind="VertexRemoval",
                         predicate=Predicate(types=frozenset())),
            ViewInstance(kind="EdgeInclusion",
                         predicate=Predicate(types=schema.labels())),
            ViewInstance(kind="EdgeRemoval",
                         predicate=Predicate(types=frozenset({"NO_SUCH_LABEL"}))),
        ]
        for v in identities:
            assert v.is_identity(schema), v.view_id
            view_g = materialize(provenance_toy, v)
            assert sorted(view_g.vertices()) == sorted(provenance_toy.vertices())
            assert sorted(view_g.edges()) == sorted(provenance_toy.edges())

    def test_narrowing_filters_are_not_identities(self, provenance_toy):
        schema = provenance_toy.schema
        for v in (ViewInstance(kind="VertexInclusion",
                               predicate=Predicate(types=frozenset({"Job", "File"}))),
                  ViewInstance(kind="EdgeRemoval",
                               predicate=Predicate(types=frozenset({"SPAWNS"})))):
            assert not v.is_identity(schema)

    def test_aggregators_and_property_predicates_are_not_identities(
            self, provenance_toy):
        # they keep the schema, but contract or drop elements
        schema = provenance_toy.schema
        every_type = Predicate(types=schema.vertex_types)
        every_label = Predicate(types=schema.labels())
        views_and_changes = [
            (ViewInstance(kind="VertexAggregator", group_key="dir",
                          predicate=Predicate(types=frozenset({"File"}))), True),
            (ViewInstance(kind="VertexAggregator", group_key="dir",
                          predicate=every_type), None),
            (ViewInstance(kind="EdgeAggregator", predicate=every_label), None),
            (ViewInstance(kind="SubgraphAggregator",
                          predicate=Predicate(types=frozenset({"Job"}))), True),
            (ViewInstance(kind="VertexInclusion", predicate=Predicate(
                types=schema.vertex_types, prop=("bytes", ">", 8))), True),
            (ViewInstance(kind="EdgeRemoval", predicate=Predicate(
                types=frozenset(), prop=("weight", "=", 1))), None),
            (ViewInstance(kind="EdgeInclusion", predicate=Predicate(
                types=schema.labels(), prop=("weight", "=", 1))), True),
        ]
        for v, changes in views_and_changes:
            assert v.view_schema(schema) == schema, v.view_id
            assert not v.is_identity(schema), v.view_id
            if changes:
                view_g = materialize(provenance_toy, v)
                assert ((sorted(view_g.vertices()), sorted(view_g.edges()))
                        != (sorted(provenance_toy.vertices()),
                            sorted(provenance_toy.edges()))), v.view_id


class TestMaterializeSparsifier:
    def test_vertex_inclusion_jobs_and_files(self, provenance_toy):
        v = ViewInstance(kind="VertexInclusion",
                         predicate=Predicate(types=frozenset({"Job", "File"})))
        g = materialize_sparsifier(provenance_toy, v)
        assert set(g.vertex_ids()) == {"j1", "j2", "f1", "f2", "f3"}
        assert {eid for eid, *_ in g.edges()} == {"e1", "e2", "e5"}
        assert g.schema.vertex_types == {"Job", "File"}

    def test_edge_removal_always_false_predicate_is_identity(self, provenance_toy):
        v = ViewInstance(kind="EdgeRemoval",
                         predicate=Predicate(types=frozenset()))
        g = materialize_sparsifier(provenance_toy, v)
        assert g.m == provenance_toy.m
        assert g.n == provenance_toy.n

    def test_vertex_removal_drops_incident_edges(self, provenance_toy):
        v = ViewInstance(kind="VertexRemoval",
                         predicate=Predicate(types=frozenset({"Task"})))
        g = materialize_sparsifier(provenance_toy, v)
        assert "t1" not in g.vertex_ids()
        assert {eid for eid, *_ in g.edges()} == {"e1", "e2", "e5"}

    def test_edge_inclusion(self, provenance_toy):
        v = ViewInstance(kind="EdgeInclusion",
                         predicate=Predicate(types=frozenset({"WRITES_TO"})))
        g = materialize_sparsifier(provenance_toy, v)
        assert {eid for eid, *_ in g.edges()} == {"e1", "e5"}
        assert g.n == provenance_toy.n

    def test_vertex_aggregator_group_by_dir(self, provenance_toy):
        v = ViewInstance(kind="VertexAggregator",
                         predicate=Predicate(types=frozenset({"File"})),
                         group_key="dir", aggregations=(("bytes", "sum"),))
        g = materialize_sparsifier(provenance_toy, v)
        assert g.vertex_props("agg:File:/a") == {"dir": "/a", "bytes": 40}
        assert g.vertex_props("agg:File:/b") == {"dir": "/b", "bytes": 5}
        # independent group-by recomputation
        groups = {}
        for vid, vtype, props in provenance_toy.vertices():
            if vtype == "File":
                groups.setdefault(props["dir"], []).append(props["bytes"])
        assert {d: sum(vs) for d, vs in groups.items()} == {"/a": 40, "/b": 5}
        # edges rewired to supervertices
        assert any(dst == "agg:File:/a" for _, _, dst, _, _ in g.edges())

    def test_mixed_type_aggregation_rejected(self, provenance_toy):
        v = ViewInstance(kind="VertexAggregator",
                         predicate=Predicate(types=frozenset({"Job", "File"})),
                         group_key="dir")
        with pytest.raises(MixedTypeAggregationError):
            materialize_sparsifier(provenance_toy, v)

    def test_edge_aggregator_collapses_parallel_edges(self):
        g = PropertyGraph.build(
            LINEAGE_SCHEMA,
            vertices=[("j1", "Job", {}), ("f1", "File", {})],
            edges=[
                ("e1", "j1", "f1", "WRITES_TO", {"bytes": 5}),
                ("e2", "j1", "f1", "WRITES_TO", {"bytes": 7}),
            ],
        )
        v = ViewInstance(kind="EdgeAggregator",
                         predicate=Predicate(types=frozenset({"WRITES_TO"})),
                         aggregations=(("bytes", "sum"),))
        out = materialize_sparsifier(g, v)
        (edge,) = list(out.edges())
        assert edge[4] == {"member_count": 2, "bytes": 12}

    def test_subgraph_aggregator(self):
        single = GraphSchema.of(["N"], [("N", "N", "L")])
        g = PropertyGraph.build(
            single,
            [(f"v{i}", "N", {"w": i}) for i in range(5)],
            [("e0", "v0", "v1", "L", {}), ("e1", "v1", "v2", "L", {}),
             ("e2", "v3", "v4", "L", {})],
        )
        v = ViewInstance(kind="SubgraphAggregator",
                         predicate=Predicate(types=frozenset({"N"})),
                         aggregations=(("w", "sum"),))
        out = materialize_sparsifier(g, v)
        assert {vid: p for vid, _, p in out.vertices()} == {
            "agg:N:v0": {"member_count": 3, "w": 3},
            "agg:N:v3": {"member_count": 2, "w": 7},
        }
        assert out.m == 0

    def test_aggregator_views_exactly(self):
        # b2 lacks the group key, a carries a self-loop, e3/e4/e5 become
        # parallel edges between the two key groups, x, bytes and tag are
        # carried by some members only (y and z by none), and the
        # subgraph {a, b, c, d} precedes {b2} though its union-find root
        # (d) sorts after b2's
        schema = GraphSchema.of(["N", "M"], [("N", "N", "L"), ("N", "N", "K"),
                                             ("N", "M", "L"), ("M", "N", "L")])
        g = PropertyGraph.build(
            schema,
            [("a", "N", {"g": 1, "w": 2, "x": 5}), ("b", "N", {"g": 1, "w": 3}),
             ("c", "N", {"g": 2, "w": 4, "x": 1.5}), ("d", "N", {"g": 2}),
             ("b2", "N", {"w": 7}), ("m", "M", {})],
            [("e1", "a", "b", "L", {"bytes": 1}), ("e2", "a", "a", "L", {"bytes": 10}),
             ("e3", "b", "c", "L", {"bytes": 2}), ("e4", "a", "d", "L", {"bytes": 3}),
             ("e5", "b", "c", "L", {"bytes": 5, "tag": "p"}),
             ("e6", "c", "m", "L", {}), ("e7", "m", "b2", "L", {}),
             ("e8", "d", "b", "K", {})],
        )
        nodes = Predicate(types=frozenset({"N"}))

        out = materialize_sparsifier(g, ViewInstance(
            kind="VertexAggregator", predicate=nodes, group_key="g",
            aggregations=(("w", "avg"), ("x", "max"), ("y", "count"), ("z", "sum"))))
        assert list(out.vertices()) == [
            ("agg:N:1", "N", {"g": 1, "w": 2.5, "x": 5, "y": 0}),
            ("agg:N:2", "N", {"g": 2, "w": 4.0, "x": 1.5, "y": 0}),
            ("b2", "N", {"w": 7}), ("m", "M", {})]
        assert list(out.edges()) == [
            ("e3", "agg:N:1", "agg:N:2", "L", {"bytes": 2}),
            ("e4", "agg:N:1", "agg:N:2", "L", {"bytes": 3}),
            ("e5", "agg:N:1", "agg:N:2", "L", {"bytes": 5, "tag": "p"}),
            ("e6", "agg:N:2", "m", "L", {}), ("e7", "m", "b2", "L", {}),
            ("e8", "agg:N:2", "agg:N:1", "K", {})]

        out = materialize_sparsifier(g, ViewInstance(
            kind="SubgraphAggregator", predicate=nodes,
            aggregations=(("w", "sum"), ("x", "min"), ("z", "avg"))))
        assert list(out.vertices()) == [
            ("agg:N:a", "N", {"member_count": 4, "w": 9, "x": 1.5}),
            ("agg:N:b2", "N", {"member_count": 1, "w": 7}), ("m", "M", {})]
        assert list(out.edges()) == [("e6", "agg:N:a", "m", "L", {}),
                                     ("e7", "m", "agg:N:b2", "L", {})]

        out = materialize_sparsifier(g, ViewInstance(
            kind="EdgeAggregator", predicate=Predicate(types=frozenset({"L"})),
            aggregations=(("bytes", "sum"), ("tag", "count"), ("z", "max"))))
        assert list(out.vertices()) == list(g.vertices())
        assert list(out.edges()) == [
            ("e8", "d", "b", "K", {}),
            ("eagg000000", "a", "a", "L", {"member_count": 1, "bytes": 10, "tag": 0}),
            ("eagg000001", "a", "b", "L", {"member_count": 1, "bytes": 1, "tag": 0}),
            ("eagg000002", "a", "d", "L", {"member_count": 1, "bytes": 3, "tag": 0}),
            ("eagg000003", "b", "c", "L", {"member_count": 2, "bytes": 7, "tag": 1}),
            ("eagg000004", "c", "m", "L", {"member_count": 1, "tag": 0}),
            ("eagg000005", "m", "b2", "L", {"member_count": 1, "tag": 0})]

    @pytest.mark.parametrize("kind", ["VertexAggregator", "EdgeAggregator",
                                      "SubgraphAggregator"])
    def test_unknown_aggregation_rejected_without_values(self, provenance_toy, kind):
        # no member carries "zzz", so no value ever reaches the function
        v = ViewInstance(kind=kind, predicate=Predicate(types=frozenset({"File"})),
                         group_key="dir", aggregations=(("zzz", "median"),))
        with pytest.raises(ValidationError, match="median"):
            materialize_sparsifier(provenance_toy, v)

    def test_size_law(self, provenance_toy):
        cases = [
            ViewInstance(kind="VertexInclusion",
                         predicate=Predicate(types=frozenset({"Job", "File"}))),
            ViewInstance(kind="EdgeRemoval",
                         predicate=Predicate(types=frozenset({"SPAWNS"}))),
            ViewInstance(kind="VertexAggregator",
                         predicate=Predicate(types=frozenset({"File"})),
                         group_key="dir"),
        ]
        for v in cases:
            out = materialize_sparsifier(provenance_toy, v)
            assert out.n <= provenance_toy.n
            assert out.m <= provenance_toy.m
            assert out.n < provenance_toy.n or out.m < provenance_toy.m


def test_aggregators_keep_self_loops_outside_their_groups():
    # only an edge inside one supervertex is absorbed
    schema = GraphSchema.of(["N", "M"], [("N", "N", "L"), ("M", "M", "L"),
                                         ("N", "M", "L")])
    g = PropertyGraph.build(
        schema, [("a", "N", {"g": 1}), ("b", "N", {"g": 1}), ("m", "M", {})],
        [("e0", "a", "b", "L", {}), ("e1", "m", "m", "L", {}),
         ("e2", "b", "m", "L", {})])
    nodes = Predicate(types=frozenset({"N"}))
    for v in (ViewInstance(kind="VertexAggregator", predicate=nodes, group_key="g"),
              ViewInstance(kind="SubgraphAggregator", predicate=nodes)):
        out = materialize_sparsifier(g, v)
        assert [(eid, src, dst) for eid, src, dst, _, _ in out.edges()] == [
            ("e1", "m", "m"), ("e2", out.vertex_ids()[0], "m")], v.kind


class TestVertexAggregatorIds:
    """Group values that print alike, or compare equal across bool and
    int, still give one supervertex each, with distinct ids."""

    @staticmethod
    def aggregate(values):
        schema = GraphSchema.of(["N"], [("N", "N", "L")])
        g = PropertyGraph.build(
            schema,
            [(f"v{i}", "N", {"g": value, "w": i + 1})
             for i, value in enumerate(values)],
            [("e0", "v0", "v1", "L", {})])
        return materialize_sparsifier(g, ViewInstance(
            kind="VertexAggregator", predicate=Predicate(types=frozenset({"N"})),
            group_key="g", aggregations=(("w", "sum"),)))

    def test_int_and_string_that_print_alike(self):
        out = self.aggregate([1, "1"])
        # groups in repr order: '1' < 1
        assert list(out.vertices()) == [
            ("agg:N:1#1", "N", {"g": "1", "w": 2}),
            ("agg:N:1#2", "N", {"g": 1, "w": 1})]
        assert list(out.edges()) == [("e0", "agg:N:1#2", "agg:N:1#1", "L", {})]

    def test_bool_and_int_stay_apart(self):
        out = self.aggregate([True, 1])
        assert list(out.vertices()) == [
            ("agg:N:1", "N", {"g": 1, "w": 2}),
            ("agg:N:True", "N", {"g": True, "w": 1})]
        assert list(out.edges()) == [("e0", "agg:N:True", "agg:N:1", "L", {})]

    def test_suffix_skips_a_printed_value(self):
        # "1#1" is unique, so "1" and 1 go on to #2 and #3
        out = self.aggregate(["1#1", 1, "1"])
        assert [(vid, props["g"]) for vid, _, props in out.vertices()] == [
            ("agg:N:1#1", "1#1"), ("agg:N:1#2", "1"), ("agg:N:1#3", 1)]


def rebuilt(g: PropertyGraph) -> PropertyGraph:
    """What :meth:`PropertyGraph.build` makes of ``g``'s own tuples."""
    return PropertyGraph.build(g.schema, list(g.vertices()), list(g.edges()))


def assert_same_graph(got: PropertyGraph, want: PropertyGraph, context):
    assert list(got.vertices()) == list(want.vertices()), context
    assert list(got.edges()) == list(want.edges()), context
    assert (got._vindex, got._eindex) == (want._vindex, want._eindex), context
    assert (got._out, got._in) == (want._out, want._in), context
    assert got.type_counts() == want.type_counts(), context
    assert got._path_counts == want._path_counts, context
    assert got.is_acyclic == want.is_acyclic, context


class TestDerivedGraphs:
    """Every materializer derives its view from the base graph's arrays;
    the result must be the graph ``build`` makes of the same tuples."""

    @staticmethod
    def views_for(g: PropertyGraph) -> list[ViewInstance]:
        if g.schema.vertex_types == {"Junction"}:
            prop = "length"
            connectors = [ViewInstance(kind="KHopConnector", x="a", y="b",
                                       x_type="Junction", y_type="Junction", k=k)
                          for k in (2, 4)]
            connectors.append(ViewInstance(
                kind="SameVertexTypeConnector", x="a", y="b",
                x_type="Junction", y_type="Junction", lo=1, hi=3,
                edge_aggregates=("length",)))
        else:
            prop = "timestamp"
            connectors = connector_views()
        return connectors + sparsifier_views(g.schema) + [
            ViewInstance(kind="VertexInclusion",
                         predicate=Predicate(prop=("cpu_hours", "<", 25))),
            ViewInstance(kind="EdgeRemoval", predicate=Predicate(prop=(prop, "<", 5))),
            ViewInstance(kind="EdgeAggregator", aggregations=((prop, "sum"),),
                         predicate=Predicate(prop=(prop, ">", 3))),
        ]

    def test_every_kind_equals_its_build(self, tmp_path):
        dag = random_lineage_dag(3, jobs=12, files=18)
        kinds = set()
        for g in (dag, as_cyclic(dag), weighted_lineage_dag(4, jobs=12, files=18),
                  road_5x5(tmp_path)):
            for v in self.views_for(g):
                view_g = materialize(g, v)
                assert_same_graph(view_g, rebuilt(view_g), v.view_id)
                kinds.add(v.kind)
            count_type = sorted(g.schema.vertex_types)[-1]
            _, community = largest_community(g, label_propagation(g, 3), count_type)
            assert community.n > 1
            assert_same_graph(community, rebuilt(community), "largest_community")
        assert kinds == set(VIEW_KINDS)

    def test_adjacency_in_ascending_string_id_order(self, tmp_path):
        ids = ["e2", "e10", "ve999999", "ve1000000"]
        want = ["e10", "e2", "ve1000000", "ve999999"]
        schema = GraphSchema.of(["N"], [("N", "N", "L")])
        built = PropertyGraph.build(schema, [("a", "N", {}), ("b", "N", {})],
                                    [(eid, "a", "b", "L", {}) for eid in ids])
        (tmp_path / "v.csv").write_text("id,type,props\na,N,\nb,N,\n")
        (tmp_path / "e.csv").write_text(
            "id,src,dst,label,props\n" + "".join(f"{eid},a,b,L,\n" for eid in ids))
        loaded = load_graph(tmp_path / "v.csv", tmp_path / "e.csv", schema)
        created = PropertyGraph.derive(built, schema, [0, 1], [0] * 4, [1] * 4,
                                       [(eid, "L", {}) for eid in ids])
        inherited = PropertyGraph.derive(built, schema, [1, 0], [1] * 4, [0] * 4,
                                         [3, 2, 1, 0])
        for g in (built, loaded, created, inherited):
            a, b = g._vindex["a"], g._vindex["b"]
            assert [g._eids[ei] for ei in g._out[a]] == want
            assert [g._eids[ei] for ei in g._in[b]] == want
            assert [eid for eid, *_ in g.out_edges("a")] == want


def export_bytes(g: PropertyGraph, out) -> tuple[bytes, bytes]:
    out.mkdir()
    g.export_csv(out / "v.csv", out / "e.csv")
    return (out / "v.csv").read_bytes(), (out / "e.csv").read_bytes()


def catalog_bytes(v: ViewInstance, g: PropertyGraph, out) -> dict[str, bytes]:
    catalog = ViewCatalog()
    catalog.add(v, g)
    catalog.entries[v.view_id].created_at = "2000-01-01T00:00:00"
    catalog_save(catalog, out)
    return {f.name: f.read_bytes() for f in sorted(out.iterdir())}


class TestConnectorReadPaths:
    """A connector view hands the store its trail counts as a column and
    keeps only its trail aggregates in its edges' props maps. Every read
    of a view edge must still give what the graph ``build`` makes of the
    view's own tuples gives, where each count is in the props map."""

    @staticmethod
    def graphs(tmp_path):
        dag = random_lineage_dag(3, jobs=12, files=18)
        return [dag, as_cyclic(dag), weighted_lineage_dag(4, jobs=12, files=18),
                road_5x5(tmp_path)]

    def pairs(self, tmp_path):
        """(context, view graph, its rebuilt twin) of every connector of
        ``TestDerivedGraphs.views_for``, with and without aggregates."""
        aggregated = set()
        for gi, g in enumerate(self.graphs(tmp_path)):
            for v in TestDerivedGraphs.views_for(g):
                if v.kind in CONNECTOR_KINDS:
                    view_g = materialize(g, v)
                    assert view_g.m, v.view_id
                    aggregated.add(bool(v.edge_aggregates))
                    yield (gi, v), v, view_g, rebuilt(view_g)
        assert aggregated == {False, True}

    def test_props_reads(self, tmp_path):
        for context, v, view_g, want in self.pairs(tmp_path):
            assert list(view_g.edges()) == list(want.edges()), context
            assert all(p.keys() >= {"path_count", *v.edge_aggregates}
                       for *_, p in view_g.edges()), context
            for eid, *_ in want.edges():
                assert view_g.edge_props(eid) == want.edge_props(eid), context
            for vid in want.vertex_ids():
                assert view_g.out_edges(vid) == want.out_edges(vid), context
                assert view_g.in_edges(vid) == want.in_edges(vid), context
                assert (view_g.out_edges(vid, v.view_label)
                        == want.out_edges(vid, v.view_label)), context

    def test_files(self, tmp_path):
        for i, (context, v, view_g, want) in enumerate(self.pairs(tmp_path)):
            assert (export_bytes(view_g, tmp_path / f"got{i}")
                    == export_bytes(want, tmp_path / f"want{i}")), context
            assert (catalog_bytes(v, view_g, tmp_path / f"gotcat{i}")
                    == catalog_bytes(v, want, tmp_path / f"wantcat{i}")), context

    def test_queries_and_ops(self, tmp_path):
        for context, v, view_g, want in self.pairs(tmp_path):
            shape = f"MATCH (a:{v.x_type})-[r:{v.view_label}]->(b:{v.y_type}) "
            read = ", ".join(f"r.{p}" for p in ("id", "path_count", *v.edge_aggregates))
            for text in [
                    shape + f"RETURN a.id, b.id, {read}",
                    shape + "WHERE r.path_count > 1 RETURN b.id, count(a), sum(r.path_count)"]:
                q = parse_query(text)
                assert execute(q, view_g)[0].rows == execute(q, want)[0].rows, context
            for prop in ("path_count", *v.edge_aggregates):
                for src in want.vertex_ids():
                    assert (path_lengths(view_g, src, 2, prop)
                            == path_lengths(want, src, 2, prop)), (context, prop, src)
            labels = label_propagation(view_g, 3)
            assert labels == label_propagation(want, 3), context
            got = largest_community(view_g, labels, v.y_type)
            expected = largest_community(want, labels, v.y_type)
            assert got[0] == expected[0], context
            assert_same_graph(got[1], expected[1], context)

    def test_subgraphs_and_sparsifiers(self, tmp_path):
        for context, v, view_g, want in self.pairs(tmp_path):
            ids = sorted(want.vertex_ids())
            for keep in (ids[::2], ids[: len(ids) // 2 + 1], ids):
                got = induced_subgraph(view_g, view_g.schema,
                                       [view_g._vindex[x] for x in keep])
                expected = induced_subgraph(want, want.schema,
                                            [want._vindex[x] for x in keep])
                assert_same_graph(got, expected, context)
                assert_same_graph(got, rebuilt(got), context)
            labels = frozenset({v.view_label})
            for sparsifier in (
                    ViewInstance(kind="EdgeRemoval",
                                 predicate=Predicate(prop=("path_count", "<", 2))),
                    ViewInstance(kind="EdgeAggregator",
                                 aggregations=(("path_count", "sum"),),
                                 predicate=Predicate(types=labels))):
                assert_same_graph(materialize_sparsifier(view_g, sparsifier),
                                  materialize_sparsifier(want, sparsifier),
                                  (context, sparsifier.kind))

    def test_a_returned_map_changes_no_other_edge(self, tmp_path):
        for context, v, view_g, want in self.pairs(tmp_path):
            first, src, *_ = next(want.edges())
            view_g.edge_props(first)["path_count"] = 0
            view_g.edge_props(first)["extra"] = 1
            (props,) = [p for eid, _, _, p in view_g.out_edges(src) if eid == first]
            props.clear()
            assert list(view_g.edges())[1:] == list(want.edges())[1:], context
            assert view_g._path_counts == want._path_counts, context


TINY_LINEAGE = [("j1", "Job", {}), ("j2", "Job", {}), ("j3", "Job", {}),
                ("f1", "File", {}), ("f2", "File", {})]
TINY_EDGES = [("e1", "j1", "f1", "WRITES_TO", {"timestamp": 3}),
              ("e2", "f1", "j2", "IS_READ_BY", {"timestamp": 5}),
              ("e3", "j1", "f2", "WRITES_TO", {"timestamp": 4}),
              ("e4", "f2", "j2", "IS_READ_BY", {"timestamp": 9}),
              ("e5", "f1", "j3", "IS_READ_BY", {"timestamp": 1})]


class TestConnectorCatalogFormat:
    """The edge file a catalog holds for a connector view, byte for byte:
    a catalog saved by an earlier version loads with the same counts."""

    @pytest.mark.parametrize("aggregates, rows", [
        ((), ['ve000000,j1,j2,JOB_TO_JOB_2HOP,"{""path_count"": 2}"',
              've000001,j1,j3,JOB_TO_JOB_2HOP,"{""path_count"": 1}"']),
        (("timestamp",),
         ['ve000000,j1,j2,JOB_TO_JOB_2HOP,"{""path_count"": 2, ""timestamp"": 5}"',
          've000001,j1,j3,JOB_TO_JOB_2HOP,"{""path_count"": 1, ""timestamp"": 3}"']),
    ])
    def test_edges_file_bytes(self, tmp_path, aggregates, rows):
        g = PropertyGraph.build(LINEAGE_SCHEMA, TINY_LINEAGE, TINY_EDGES)
        v = ViewInstance(kind="KHopConnector", x="a", y="b", x_type="Job",
                         y_type="Job", k=2, edge_aggregates=aggregates)
        view_g = materialize(g, v)
        saved = catalog_bytes(v, view_g, tmp_path / "cat")
        assert saved["view000_edges.csv"] == "".join(
            row + "\r\n" for row in ["id,src,dst,label,props", *rows]).encode()
        loaded = catalog_load(tmp_path / "cat").entries[v.view_id].graph
        assert loaded._path_counts == view_g._path_counts == [2, 1]
        assert list(loaded.edges()) == list(view_g.edges())


def test_an_aggregate_free_connector_holds_no_map_per_edge(tmp_path):
    g = road_5x5(tmp_path)
    v = ViewInstance(kind="KHopConnector", x="a", y="b",
                     x_type="Junction", y_type="Junction", k=4)
    view_g = materialize(g, v)
    assert view_g.m > 100
    assert len({id(props) for props in view_g._eprops}) <= 1
    assert len(set(view_g._path_counts)) > 1


class TestDerivedGraphChecks:
    """What a derived graph re-checks: created props, vertex ids made by
    the view, and the spanner's cap."""

    def test_overflowing_aggregates_name_the_supervertex_and_superedge(self):
        schema = GraphSchema.of(["N"], [("N", "N", "L")])
        g = PropertyGraph.build(
            schema, [("a", "N", {"g": 1, "w": 1e308}), ("b", "N", {"g": 1, "w": 1e308}),
                     ("c", "N", {})],
            [("e0", "a", "c", "L", {"w": 1e308}), ("e1", "a", "c", "L", {"w": 1e308})])
        nodes = Predicate(types=frozenset({"N"}))
        with pytest.raises(MalformedRowError, match="'agg:N:1'"):
            materialize_sparsifier(g, ViewInstance(
                kind="VertexAggregator", predicate=nodes, group_key="g",
                aggregations=(("w", "sum"),)))
        with pytest.raises(MalformedRowError, match="'eagg000000'"):
            materialize_sparsifier(g, ViewInstance(
                kind="EdgeAggregator", predicate=Predicate(types=frozenset({"L"})),
                aggregations=(("w", "sum"),)))

    def test_supervertex_colliding_with_a_vertex_id(self):
        schema = GraphSchema.of(["N"], [("N", "N", "L")])
        g = PropertyGraph.build(
            schema, [("a", "N", {"g": 1}), ("b", "N", {"g": 1}), ("agg:N:1", "N", {})],
            [("e0", "a", "agg:N:1", "L", {})])
        with pytest.raises(DuplicateIdError, match="'agg:N:1'"):
            materialize_sparsifier(g, ViewInstance(
                kind="VertexAggregator", predicate=Predicate(types=frozenset({"N"})),
                group_key="g"))

    def test_cap_on_a_cyclic_grid(self, tmp_path):
        g = road_5x5(tmp_path)
        v = ViewInstance(kind="KHopConnector", x="a", y="b",
                         x_type="Junction", y_type="Junction", k=4)
        m = materialize_spanner(g, v).m
        assert materialize_spanner(g, v, max_edges=m).m == m
        with pytest.raises(BudgetExceededError):
            materialize_spanner(g, v, max_edges=m - 1)


class TestCatalog:
    def test_round_trip(self, tmp_path, toy_lineage):
        catalog = ViewCatalog()
        catalog.add(KHOP2, materialize_spanner(toy_lineage, KHOP2))
        v2 = ViewInstance(kind="VertexInclusion",
                          predicate=Predicate(types=frozenset({"Job"})))
        catalog.add(v2, materialize_sparsifier(toy_lineage, v2))
        catalog_save(catalog, tmp_path / "cat")
        loaded = catalog_load(tmp_path / "cat")
        assert set(loaded.entries) == set(catalog.entries)
        for vid, entry in catalog.entries.items():
            other = loaded.entries[vid]
            assert other.view == entry.view
            assert sorted(other.graph.edges()) == sorted(entry.graph.edges())
            assert sorted(other.graph.vertices()) == sorted(entry.graph.vertices())
            assert other.actual_edges == entry.actual_edges

    def test_empty_catalog_round_trip(self, tmp_path):
        catalog_save(ViewCatalog(), tmp_path / "cat")
        assert catalog_load(tmp_path / "cat").entries == {}

    def test_missing_file_corrupt(self, tmp_path, toy_lineage):
        catalog = ViewCatalog()
        catalog.add(KHOP2, materialize_spanner(toy_lineage, KHOP2))
        catalog_save(catalog, tmp_path / "cat")
        (tmp_path / "cat" / "view000_edges.csv").unlink()
        with pytest.raises(CorruptCatalogError):
            catalog_load(tmp_path / "cat")

    def test_manifest_id_must_name_its_view(self, tmp_path, toy_lineage):
        catalog = ViewCatalog()
        v = ViewInstance(kind="VertexInclusion",
                         predicate=Predicate(types=frozenset({"Job"})))
        catalog.add(v, materialize_sparsifier(toy_lineage, v))
        catalog_save(catalog, tmp_path / "cat")
        manifest = tmp_path / "cat" / "manifest.json"
        raw = json.loads(manifest.read_text(encoding="utf-8"))
        raw["views"][0]["id"] = "khop:Job:Job:02"
        manifest.write_text(json.dumps(raw), encoding="utf-8")
        with pytest.raises(CorruptCatalogError, match="khop:Job:Job:02"):
            catalog_load(tmp_path / "cat")

    @pytest.mark.parametrize("stored", [[["timestamp", "max", "min"]],
                                        "timestamp", [""], [3], None,
                                        ["path_count"],
                                        ["timestamp", "path_count"]])
    def test_edge_aggregates_must_be_property_names(self, tmp_path, stored):
        # the first is how a catalog saved before aggregates were
        # property names stored them
        g = random_lineage_dag(1, jobs=6, files=9)
        v = ViewInstance(kind="KHopConnector", x="a", y="b", x_type="Job",
                         y_type="Job", k=2, edge_aggregates=("timestamp",))
        catalog = ViewCatalog()
        catalog.add(v, materialize_spanner(g, v))
        catalog_save(catalog, tmp_path / "cat")
        assert catalog_load(tmp_path / "cat").get(v.view_id).view == v
        manifest = tmp_path / "cat" / "manifest.json"
        raw = json.loads(manifest.read_text(encoding="utf-8"))
        assert raw["views"][0]["instance"]["edge_aggregates"] == ["timestamp"]
        raw["views"][0]["instance"]["edge_aggregates"] = stored
        manifest.write_text(json.dumps(raw), encoding="utf-8")
        with pytest.raises(CorruptCatalogError, match="edge_aggregates"):
            catalog_load(tmp_path / "cat")

    @pytest.mark.parametrize("field, stored", [
        ("k", "2"), ("k", 2.5), ("k", True), ("lo", "1"), ("lo", 1.0),
        ("hi", "2"), ("hi", False)])
    def test_hop_fields_must_be_integers(self, tmp_path, toy_lineage, field,
                                         stored):
        catalog = ViewCatalog()
        catalog.add(KHOP2, materialize_spanner(toy_lineage, KHOP2))
        catalog_save(catalog, tmp_path / "cat")
        manifest = tmp_path / "cat" / "manifest.json"
        raw = json.loads(manifest.read_text(encoding="utf-8"))
        raw["views"][0]["instance"][field] = stored
        manifest.write_text(json.dumps(raw), encoding="utf-8")
        with pytest.raises(CorruptCatalogError,
                           match=f"{field} must be an integer"):
            catalog_load(tmp_path / "cat")

    def test_failed_save_keeps_the_earlier_catalog(self, tmp_path,
                                                    toy_lineage, monkeypatch):
        # the new view sorts first, so a save that reused file names
        # would overwrite the earlier view's files before failing
        jobs = ViewInstance(kind="VertexInclusion",
                            predicate=Predicate(types=frozenset({"Job"})))
        earlier = ViewCatalog()
        earlier.add(jobs, materialize_sparsifier(toy_lineage, jobs))
        catalog_save(earlier, tmp_path / "cat")
        manifest = (tmp_path / "cat" / "manifest.json").read_bytes()

        later = ViewCatalog()
        later.add(KHOP2, materialize_spanner(toy_lineage, KHOP2))
        later.add(jobs, earlier.get(jobs.view_id).graph)
        exports = []
        original = PropertyGraph.export_csv

        def fail_second(self, *files):
            exports.append(files)
            if len(exports) == 2:
                raise OSError("disk full")
            return original(self, *files)

        monkeypatch.setattr(PropertyGraph, "export_csv", fail_second)
        with pytest.raises(OSError):
            catalog_save(later, tmp_path / "cat")
        assert len(exports) == 2
        assert (tmp_path / "cat" / "manifest.json").read_bytes() == manifest
        loaded = catalog_load(tmp_path / "cat")
        assert list(loaded.entries) == [jobs.view_id]
        entry = loaded.get(jobs.view_id)
        assert sorted(entry.graph.vertices()) == sorted(
            earlier.get(jobs.view_id).graph.vertices())

        # a save that completes replaces the catalog and leaves only the
        # files its manifest names
        monkeypatch.setattr(PropertyGraph, "export_csv", original)
        catalog_save(later, tmp_path / "cat")
        loaded = catalog_load(tmp_path / "cat")
        assert sorted(loaded.entries) == [KHOP2.view_id, jobs.view_id]
        named = {raw[key] for raw in json.loads(
                     (tmp_path / "cat" / "manifest.json").read_text())["views"]
                 for key in ("vertices", "edges", "schema")}
        left = {f.name for f in (tmp_path / "cat").iterdir()}
        assert left == named | {"manifest.json"}

    def test_bad_manifest_corrupt(self, tmp_path):
        (tmp_path / "cat").mkdir()
        (tmp_path / "cat" / "manifest.json").write_text("{broken", encoding="utf-8")
        with pytest.raises(CorruptCatalogError):
            catalog_load(tmp_path / "cat")
