import gc
import itertools
import math
import operator
import random
import sys
import threading
import tracemalloc

import pytest

from graphviews import execution
from graphviews.enumeration import ViewInstance, rewrite_with_view
from graphviews.errors import (
    BudgetExceededError,
    GraphViewsError,
    MalformedRowError,
    PropertyTypeMismatchError,
    TypeNotInSchemaError,
    ValidationError,
)
from graphviews.execution import (
    ExecutionStats,
    _count_step,
    _match,
    _pinned_ids,
    _sweep,
    _trails,
    _walk,
    execute,
    k_hop_neighborhood,
    label_propagation,
    largest_community,
    path_lengths,
)
from graphviews.generate import generate_lineage, generate_road_like
from graphviews.mining import SchemaIndex
from graphviews.query import _cell_sort_key, _row_sort_key, parse_query
from graphviews.store import GraphSchema, PropertyGraph, load_graph
from graphviews.views import materialize

from conftest import (
    BLAST_RADIUS_QUERY,
    LINEAGE_SCHEMA,
    as_cyclic,
    cluttered_lineage_dag,
    random_lineage_dag,
    road_5x5,
    weighted_lineage_dag,
)
from oracles import (
    bfs_neighborhood, label_propagation_oracle, query_rows, trail_search)

SINGLE = GraphSchema.of(["N"], [("N", "N", "L")])
KHOP2 = ViewInstance(kind="KHopConnector", x="q_j1", y="q_j2",
                     x_type="Job", y_type="Job", k=2)


def _trail_endpoints(g, start: str, lo: int, hi: int, labels, forward: bool,
                     stats: ExecutionStats) -> dict[str, int]:
    """Endpoints reachable by edge-distinct trails of length lo..hi, with
    the summed path_count-weighted trail multiplicity per endpoint: what
    a variable-length step sees, keyed by external id."""
    reached = _walk(g, {g._require(start): 1}, lo, hi, _count_step(g),
                    operator.add, forward=forward,
                    labels=frozenset(labels) if labels else None, stats=stats)
    return {g._vids[v]: count for v, count in reached.items()}


def single(vertices, edges, props=None):
    props = props or {}
    return PropertyGraph.build(
        SINGLE,
        [(v, "N", {}) for v in vertices],
        [(f"e{i}", a, b, "L", props.get((a, b), {}))
         for i, (a, b) in enumerate(edges)],
    )


@pytest.fixture
def toy_ext():
    """j1 -w-> f1 -r-> j2 -w-> f2, cpu_hours(j2)=10."""
    return PropertyGraph.build(
        LINEAGE_SCHEMA,
        vertices=[
            ("j1", "Job", {"cpu_hours": 5}),
            ("j2", "Job", {"cpu_hours": 10}),
            ("f1", "File", {}),
            ("f2", "File", {}),
        ],
        edges=[
            ("e1", "j1", "f1", "WRITES_TO", {"timestamp": 1}),
            ("e2", "f1", "j2", "IS_READ_BY", {"timestamp": 2}),
            ("e3", "j2", "f2", "WRITES_TO", {"timestamp": 3}),
        ],
    )


class TestExecute:
    def test_vertex_count(self, toy_ext):
        table, _ = execute(parse_query("MATCH (a) RETURN count(a)"), toy_ext)
        assert table.rows == [(4,)]

    def test_edge_count(self, toy_ext):
        table, _ = execute(parse_query("MATCH (a)-[]->(b) RETURN count(a)"), toy_ext)
        assert table.rows == [(3,)]

    def test_blast_radius_bounded(self, toy_ext):
        q = parse_query(
            "MATCH (q_j1:Job)-[:WRITES_TO]->(q_f1:File), (q_f1)-[r*0..2]->(q_f2:File), "
            "(q_f2)-[:IS_READ_BY]->(q_j2:Job) RETURN q_j1.id, avg(q_j2.cpu_hours)")
        table, _ = execute(q, toy_ext)
        assert table.rows == [("j1", pytest.approx(10.0))]

    def test_where_filter(self, toy_ext):
        q = parse_query("MATCH (a:Job) WHERE a.cpu_hours > 6 RETURN a.id")
        table, _ = execute(q, toy_ext)
        assert table.rows == [("j2",)]

    def test_missing_property_filters_false(self, toy_ext):
        q = parse_query("MATCH (f:File) WHERE f.nope = 1 RETURN f.id")
        table, _ = execute(q, toy_ext)
        assert table.rows == []

    def test_missing_property_skipped_by_aggregates(self, toy_ext):
        q = parse_query("MATCH (v) RETURN count(v.cpu_hours)")
        table, _ = execute(q, toy_ext)
        assert table.rows == [(2,)]

    def test_grouping_by_non_aggregate_columns(self, toy_ext):
        q = parse_query(
            "MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN j.id, count(f)")
        table, _ = execute(q, toy_ext)
        assert sorted(table.rows) == [("j1", 1), ("j2", 1)]

    def test_order_and_limit(self, toy_ext):
        q = parse_query(
            "MATCH (a:Job) RETURN a.id AS i, a.cpu_hours AS c ORDER BY c DESC LIMIT 1")
        table, _ = execute(q, toy_ext)
        assert table.rows == [("j2", 10)]

    def test_empty_aggregate_conventions(self, toy_ext):
        q = parse_query("MATCH (a:Job) WHERE a.cpu_hours > 99 "
                        "RETURN count(a), sum(a.cpu_hours), avg(a.cpu_hours)")
        table, _ = execute(q, toy_ext)
        assert table.rows == [(0, 0, None)]

    def test_type_not_in_schema(self, toy_ext):
        with pytest.raises(TypeNotInSchemaError):
            execute(parse_query("MATCH (a:Ghost) RETURN a"), toy_ext)
        with pytest.raises(TypeNotInSchemaError):
            execute(parse_query("MATCH (a)-[:GHOST]->(b) RETURN a"), toy_ext)

    def test_ordering_type_mismatch_raises(self, toy_ext):
        q = parse_query("MATCH (a:Job) WHERE a.id > 5 RETURN a")
        with pytest.raises(PropertyTypeMismatchError):
            execute(q, toy_ext)

    def test_trail_no_repeated_edge(self):
        # a<->b two-cycle: trails from a of length <=4 cannot reuse an edge,
        # so (a)-[*4..4]->(a) has no binding
        g = single(["a", "b"], [("a", "b"), ("b", "a")])
        q = parse_query("MATCH (x)-[p*4..4]->(y) RETURN count(x)")
        table, _ = execute(q, g)
        assert table.rows == [(0,)]

    def test_path_count_weights_bindings(self):
        schema = GraphSchema.of(["Job"], [("Job", "Job", "HOP")])
        g = PropertyGraph.build(
            schema,
            [("j1", "Job", {}), ("j2", "Job", {"cpu": 10}), ("j3", "Job", {"cpu": 40})],
            [
                ("s1", "j1", "j2", "HOP", {"path_count": 3}),
                ("s2", "j1", "j3", "HOP", {"path_count": 1}),
            ],
        )
        q = parse_query("MATCH (a:Job)-[r*1..1]->(b:Job) RETURN a.id, count(b)")
        table, _ = execute(q, g)
        assert table.rows == [("j1", 4)]
        q = parse_query("MATCH (a:Job)-[r*1..1]->(b:Job) RETURN a.id, avg(b.cpu)")
        table, _ = execute(q, g)
        assert table.rows == [("j1", pytest.approx((3 * 10 + 40) / 4))]

    def test_stats_counters_monotone_and_deterministic(self, toy_ext):
        q = parse_query("MATCH (a)-[]->(b) RETURN count(a)")
        _, s1 = execute(q, toy_ext)
        _, s2 = execute(q, toy_ext)
        assert s1.edges_expanded == s2.edges_expanded > 0
        assert s1.vertices_touched == s2.vertices_touched > 0

    def test_cartesian_components(self, toy_ext):
        q = parse_query("MATCH (a:Job), (b:File) RETURN count(a)")
        table, _ = execute(q, toy_ext)
        assert table.rows == [(4,)]


class TestKHopNeighborhood:
    def test_forward_from_j1(self, toy_ext):
        assert k_hop_neighborhood(toy_ext, ["j1"], "forward", 4) == {"f1", "j2", "f2"}

    def test_k0_empty(self, toy_ext):
        assert k_hop_neighborhood(toy_ext, ["j1"], "forward", 0) == set()

    def test_backward_no_ancestors(self, toy_ext):
        assert k_hop_neighborhood(toy_ext, ["j1"], "backward", 4) == set()

    def test_backward_ancestors(self, toy_ext):
        assert k_hop_neighborhood(toy_ext, ["f2"], "backward", 2) == {"j2", "f1"}

    def test_hop_cap(self, toy_ext):
        assert k_hop_neighborhood(toy_ext, ["j1"], "forward", 1) == {"f1"}


class TestPathLengths:
    def test_chain(self):
        g = single(["a", "b", "c"], [("a", "b"), ("b", "c")],
                   {("a", "b"): {"ts": 1}, ("b", "c"): {"ts": 5}})
        assert path_lengths(g, "a", 4, "ts") == {"b": 1, "c": 5}

    def test_no_out_edges(self):
        g = single(["a"], [])
        assert path_lengths(g, "a", 4, "ts") == {}

    def test_diamond_min_across_paths(self):
        g = single(
            ["a", "b", "c", "d"],
            [("a", "b"), ("b", "d"), ("a", "c"), ("c", "d")],
            {("a", "b"): {"ts": 3}, ("b", "d"): {"ts": 1},
             ("a", "c"): {"ts": 2}, ("c", "d"): {"ts": 1}},
        )
        result = path_lengths(g, "a", 4, "ts")
        assert result["d"] == 2
        assert result["b"] == 3
        assert result["c"] == 2

    def test_non_numeric_property_raises(self):
        g = single(["a", "b"], [("a", "b")], {("a", "b"): {"ts": "late"}})
        with pytest.raises(PropertyTypeMismatchError):
            path_lengths(g, "a", 2, "ts")


class TestLabelPropagation:
    def test_two_disconnected_edges(self):
        g = single(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
        labels = label_propagation(g, 5)
        assert len(set(labels.values())) == 2
        assert labels["a"] == labels["b"]
        assert labels["c"] == labels["d"]

    def test_complete_graph_converges_to_min_id(self):
        g = single(["v1", "v2", "v3"],
                   [(a, b) for a in ("v1", "v2", "v3")
                    for b in ("v1", "v2", "v3") if a < b])
        labels = label_propagation(g, 1)
        assert set(labels.values()) == {"v1"}

    def test_no_edges(self):
        g = single(["a", "b", "c"], [])
        labels = label_propagation(g, 3)
        assert labels == {"a": "a", "b": "b", "c": "c"}

    def test_deterministic_across_runs(self):
        from conftest import random_lineage_dag
        g = random_lineage_dag(13)
        assert label_propagation(g, 25) == label_propagation(g, 25)


def random_multigraph(seed: int, n: int = 14, m: int = 20) -> PropertyGraph:
    """Seeded single-type graph with self-loops, parallel edges and a
    ``path_count`` of 2 or 3 on some edges; ids v0..v13 are loaded in an
    order that differs from their string order (v10 < v2)."""
    rng = random.Random(seed)
    edges = [(f"v{rng.randrange(n)}", f"v{rng.randrange(n)}") for _ in range(m)]
    weights = {pair: {"path_count": rng.randint(2, 3)}
               for pair in edges if rng.random() < 0.2}
    return single([f"v{i}" for i in range(n)], edges, weights)


class TestLabelPropagationOracle:
    """``label_propagation`` against a restatement of its docstring over
    the public graph API, with string labels."""

    @staticmethod
    def assert_same(g, passes):
        got = label_propagation(g, passes)
        want = label_propagation_oracle(g, passes)
        assert got == want
        assert list(got) == list(want)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("passes", [1, 2, 25])
    def test_seeded_graphs_match_oracle(self, seed, passes):
        for g in differential_dags(seed) + [random_lineage_dag(seed),
                                            weighted_lineage_dag(seed)]:
            self.assert_same(g, passes)
            self.assert_same(as_cyclic(g), passes)
        for k in range(5):
            self.assert_same(random_multigraph(10 * seed + k), passes)

    @pytest.mark.parametrize("passes", [1, 2, 25])
    def test_road_grid_matches_oracle(self, tmp_path, passes):
        self.assert_same(road_5x5(tmp_path), passes)

    def test_string_order_not_load_order(self):
        g = single(["v2", "v10"], [("v2", "v10")])
        labels = label_propagation(g, 1)
        assert list(labels) == ["v10", "v2"]
        assert labels == {"v10": "v10", "v2": "v10"}
        self.assert_same(g, 3)

    def test_isolated_vertex_keeps_its_label(self):
        g = single(["a", "b", "c"], [("a", "c")])
        assert label_propagation(g, 4) == {"a": "a", "b": "b", "c": "a"}

    def test_self_loop_votes_twice(self):
        # z: own 1 + self-loop 2 outvotes the two parallel edges from a
        g = single(["a", "z"], [("a", "z"), ("a", "z"), ("z", "z")])
        assert label_propagation(g, 1) == {"a": "z", "z": "z"}
        self.assert_same(g, 5)

    def test_own_label_ties_with_neighbour(self):
        # one vote each way: the smaller label wins on both ends
        g = single(["b", "a"], [("b", "a")])
        assert label_propagation(g, 1) == {"a": "a", "b": "a"}
        # two distinct neighbours: every label has one vote
        g = single(["c", "d", "b"], [("c", "d"), ("b", "c")])
        assert label_propagation(g, 1) == {"b": "b", "c": "b", "d": "c"}

    def test_path_count_outvotes_two_neighbours(self):
        edges = [("a", "x"), ("a", "x"), ("y", "x")]
        g = single(["a", "x", "y"], edges, {("y", "x"): {"path_count": 3}})
        assert label_propagation(g, 1)["x"] == "y"
        g = single(["a", "x", "y"], edges, {("y", "x"): {"path_count": 2}})
        assert label_propagation(g, 1)["x"] == "a"

    @pytest.mark.parametrize("bad", [0, "2", True, 1.5])
    def test_invalid_path_count_raises_in_both(self, bad):
        # no graph holds a bad count for either to read: build and derive
        # refuse it, so label propagation never meets one
        with pytest.raises(MalformedRowError, match="edge 'e1': path_count"):
            single(["a", "b", "c"], [("a", "b"), ("b", "c")],
                   {("b", "c"): {"path_count": bad}})
        g = single(["a", "b"], [("a", "b")])
        with pytest.raises(MalformedRowError, match="edge 'n0': path_count"):
            PropertyGraph.derive(g, SINGLE, [0, 1], [0, 1], [1, 0],
                                 [0, ("n0", "L", {"path_count": bad})])

    def test_zero_passes_rejected(self):
        g = single(["a", "b"], [("a", "b")])
        with pytest.raises(ValidationError):
            label_propagation(g, 0)
        with pytest.raises(ValidationError):
            label_propagation_oracle(g, 0)

    def test_counters_are_pinned(self):
        # values of the string-keyed implementation this one replaced:
        # every pass run adds n to vertices_touched and 2m to edges_expanded;
        # random_lineage_dag(1) converges after 5 of 25 passes
        for g, passes, counters in ((weighted_lineage_dag(7), 1, (122, 50)),
                                    (weighted_lineage_dag(7), 25, (3050, 1250)),
                                    (random_lineage_dag(1), 25, (690, 250))):
            stats = ExecutionStats()
            label_propagation(g, passes, stats)
            assert (stats.edges_expanded, stats.vertices_touched) == counters


class TestLargestCommunity:
    def test_most_jobs_wins(self, toy_ext):
        labels = {"j1": "x", "f1": "x", "j2": "x", "f2": "y"}
        winner, sub = largest_community(toy_ext, labels, "Job")
        assert winner == "x"
        assert set(sub.vertex_ids()) == {"j1", "f1", "j2"}
        assert sub.m == 2

    def test_single_community(self, toy_ext):
        labels = {v: "only" for v in toy_ext.vertex_ids()}
        winner, sub = largest_community(toy_ext, labels, "Job")
        assert winner == "only"
        assert sub.n == toy_ext.n

    def test_no_count_type_smallest_label_wins(self, toy_ext):
        labels = {"j1": "b", "f1": "b", "j2": "a", "f2": "a"}
        winner, _ = largest_community(toy_ext, labels, "Machine")
        assert winner == "a"


def differential_dags(seed):
    """Seeded acyclic inputs: a plain lineage DAG (with repeated reads)
    and one whose edges carry path_count > 1."""
    return [random_lineage_dag(seed, jobs=12, files=18),
            weighted_lineage_dag(seed, jobs=12, files=18)]


class TestFrontierSweep:
    """On an acyclic graph the frontier sweep must give exactly what the
    edge-distinct trail search gives; on a cyclic one only the trail
    search runs."""

    def test_acyclicity_flag(self):
        assert random_lineage_dag(0).is_acyclic
        assert single([], []).is_acyclic
        assert single(["a", "b"], [("a", "b"), ("a", "b")]).is_acyclic
        assert not single(["a", "b"], [("a", "b"), ("b", "a")]).is_acyclic
        assert not single(["a", "b"], [("a", "b"), ("b", "b")]).is_acyclic

    def test_plain_graphs_pass_counts_through(self):
        # the store keeps the path counts as a column, None when no edge
        # carries one; then the kernels get no per-edge count step to call
        plain, weighted = random_lineage_dag(5), weighted_lineage_dag(5)
        one = single(["a", "b", "c"], [("a", "b"), ("b", "c")],
                     {("b", "c"): {"path_count": 1}})
        assert plain._path_counts is None
        assert max(weighted._path_counts) > 1 and one._path_counts == [1, 1]
        assert _count_step(plain) is None
        assert _count_step(as_cyclic(plain)) is None
        assert _count_step(one) is not None

        def unchanged(count, ei):
            return count

        for kernel in (_sweep, _trails):
            for v in range(plain.n):
                called, passed = ExecutionStats(), ExecutionStats()
                want = kernel(plain, {v: 1}, 0, 6, unchanged, operator.add,
                              stats=called)
                got = kernel(plain, {v: 1}, 0, 6, None, operator.add,
                             stats=passed)
                assert got == want and passed == called, (kernel, v)

    @pytest.mark.parametrize("seed", range(6))
    def test_kernels_agree_on_count_semiring(self, seed):
        for g in differential_dags(seed):
            assert g.is_acyclic
            extend = _count_step(g)
            for v in range(g.n):
                for forward in (True, False):
                    for lo, hi in ((0, 0), (0, 3), (1, 4), (2, 6), (3, 3)):
                        for labels in (None, frozenset({"IS_READ_BY"})):
                            args = (g, {v: 1}, lo, hi, extend, operator.add)
                            kw = dict(forward=forward, labels=labels)
                            sweep = _sweep(*args, **kw, stats=ExecutionStats())
                            dfs = _trails(*args, **kw, stats=ExecutionStats())
                            assert sweep == dfs, (seed, v, forward, lo, hi)

    @pytest.mark.parametrize("seed", range(6))
    def test_trail_endpoints_agree(self, seed):
        for g in differential_dags(seed):
            h = as_cyclic(g)
            swept, searched = ExecutionStats(), ExecutionStats()
            for start in g.vertex_ids():
                for lo, hi in ((0, 8), (2, 4)):
                    for labels in (None, ("WRITES_TO", "IS_READ_BY"), ("WRITES_TO",)):
                        for forward in (True, False):
                            got = _trail_endpoints(g, start, lo, hi, labels,
                                                   forward, swept)
                            want = _trail_endpoints(h, start, lo, hi, labels,
                                                    forward, searched)
                            assert got == want, (seed, start, lo, hi, labels)
            assert swept.edges_expanded <= searched.edges_expanded

    @pytest.mark.parametrize("seed", range(6))
    def test_path_lengths_agree(self, seed):
        for g in differential_dags(seed):
            h = as_cyclic(g)
            for source in g.vertex_ids():
                for k in (1, 3, 6):
                    assert (path_lengths(g, source, k, "timestamp")
                            == path_lengths(h, source, k, "timestamp"))

    @pytest.mark.parametrize("seed", range(6))
    def test_execute_tables_agree(self, seed):
        queries = [
            BLAST_RADIUS_QUERY,
            BLAST_RADIUS_QUERY.replace("avg(q_j2.cpu_hours)",
                                       "count(q_j2), sum(q_j2.cpu_hours)"),
            "MATCH (a:Job)-[p*2..4]->(b:Job) RETURN a.id, b.id",
            "MATCH (a:Job)-[p:WRITES_TO|IS_READ_BY*0..5]->(b) RETURN b.id, count(a)",
            "MATCH (a)-[p:IS_READ_BY*1..1]->(b:Job) RETURN a.id, count(b)",
            "MATCH (a:File)-[p*1..6]->(b:Job) WHERE b.id = 'j11' RETURN a.id",
        ]
        for g in differential_dags(seed):
            h = as_cyclic(g)
            for text in queries:
                q = parse_query(text)
                got, _ = execute(q, g)
                want, _ = execute(q, h)
                assert got.rows == want.rows, (seed, text)

    def test_invalid_path_count_raises_in_both(self, tmp_path):
        # a bad count fails when the graph is built or loaded, with its
        # line, not when a walk of either kernel first crosses it
        edges = [("e1", "a", "b", "L", {}), ("e2", "b", "c", "L", {"path_count": 0})]
        with pytest.raises(MalformedRowError, match="edge 'e2': path_count"):
            PropertyGraph.build(
                SINGLE, [("a", "N", {}), ("b", "N", {}), ("c", "N", {})], edges)
        vertex_file = tmp_path / "v.csv"
        vertex_file.write_text("id,type,props\na,N,\nb,N,\nc,N,\n",
                               encoding="utf-8")
        edge_file = tmp_path / "e.csv"
        edge_file.write_text('id,src,dst,label,props\ne1,a,b,L,\n\n'
                             'e2,b,c,L,"{""path_count"": 0}"\n', encoding="utf-8")
        with pytest.raises(MalformedRowError, match="edge 'e2': path_count") as exc:
            load_graph(vertex_file, edge_file, SINGLE)
        assert exc.value.line == 4

    def test_non_numeric_path_length_raises_in_both(self):
        g = single(["a", "b", "c"], [("a", "b"), ("b", "c")],
                   {("a", "b"): {"ts": 1}, ("b", "c"): {"ts": "late"}})
        for graph in (g, as_cyclic(g)):
            assert path_lengths(graph, "a", 1, "ts") == {"b": 1}
            with pytest.raises(PropertyTypeMismatchError):
                path_lengths(graph, "a", 2, "ts")

    def test_k_hop_matches_breadth_first_reference(self, tmp_path):
        ds = generate_road_like(tmp_path, seed=2, rows=4, cols=5)
        graphs = [load_graph(ds.vertex_file, ds.edge_file, ds.schema)]
        graphs += differential_dags(3)
        for g in graphs:
            for source in g.vertex_ids():
                for direction in ("forward", "backward"):
                    for k in (1, 3, 4):
                        stats = ExecutionStats()
                        got = k_hop_neighborhood(g, [source], direction, k,
                                                 stats)
                        want = bfs_neighborhood(g, [source], direction, k)
                        assert (got, stats.vertices_touched,
                                stats.edges_expanded) == want

    def test_cyclic_road_grid_keeps_trail_semantics(self, tmp_path):
        # counting walks instead of trails here would return more rows
        g = road_5x5(tmp_path)
        assert not g.is_acyclic
        q = parse_query("MATCH (a:Junction)-[p*4..4]->(b:Junction) "
                        "WHERE a.id = 'r0c0' RETURN b.id")
        table, _ = execute(q, g)
        assert len(table.rows) == 41


TWO_LABELS = GraphSchema.of(["N", "M"], [("N", "N", "L"), ("N", "N", "K"),
                                          ("N", "M", "L"), ("M", "N", "L")])


def cyclic_multigraph(seed: int) -> PropertyGraph:
    """A cyclic graph of 2-cycles, parallel edges and a self-loop over two
    types and two labels, about a third of the edges carrying
    path_count."""
    rng = random.Random(seed)
    names = ["a", "b", "c", "d", "m1", "m2"]
    edges = []

    def add(a, b, label):
        props = {"path_count": rng.randint(2, 3)} if rng.random() < 0.3 else {}
        edges.append((f"e{len(edges)}", a, b, label, props))

    for a, b, label in (("a", "b", "L"), ("b", "a", "L"), ("a", "b", "L"),
                        ("c", "c", "K")):
        add(a, b, label)
    for _ in range(8):
        a, b = rng.sample(names, 2)
        if a[0] == "m" and b[0] == "m":
            continue
        label = "K" if a[0] != "m" and b[0] != "m" and rng.random() < 0.4 else "L"
        add(a, b, label)
        if rng.random() < 0.5:
            add(b, a, label)
        if rng.random() < 0.3:
            add(a, b, label)
    return PropertyGraph.build(
        TWO_LABELS, [(v, "M" if v[0] == "m" else "N", {}) for v in names], edges)


class TestTrailCounters:
    """The trail search's results and work counters against a plain
    recursive search: ``vertices_touched`` is the number of trail
    prefixes of 0..hi edges, ``edges_expanded`` the adjacency entries of
    the prefixes shorter than hi that a step may take."""

    @pytest.mark.parametrize("seed", range(4))
    def test_trails_match_the_trail_search_oracle(self, seed):
        g = cyclic_multigraph(seed)
        assert not g.is_acyclic and g._path_counts is not None
        extend = _count_step(g)
        pruned = 0
        for v, (lo, hi), forward, labels, last in itertools.product(
                range(g.n), ((1, 1), (0, 3), (4, 4), (3, 2)), (True, False),
                (None, frozenset("L")), (None, frozenset("N"))):
            allowed = None if last is None else [frozenset("NM")] * hi + [last]
            stats = ExecutionStats()
            got = _trails(g, {v: 1}, lo, hi, extend, operator.add,
                          forward=forward, labels=labels, allowed=allowed,
                          stats=stats)
            ends, prefixes, scanned = trail_search(
                g, g._vids[v], lo, hi, labels, allowed, forward)
            case = (seed, v, lo, hi, forward, labels, last)
            assert {g._vids[w]: x for w, x in got.items()} == ends, case
            assert (stats.vertices_touched, stats.edges_expanded) == (
                prefixes, scanned), case
            if last is not None:
                pruned += ends != trail_search(g, g._vids[v], lo, hi, labels,
                                               None, forward)[0]
        assert pruned   # the last-depth restriction drops some ends


# one label into two types, and one type with two out-labels
MULTI = GraphSchema.of(["A", "B", "C"], [("A", "B", "L"), ("A", "C", "L"),
                                         ("A", "B", "M"), ("B", "A", "L")])


def multi_triple_graph(seed: int, acyclic: bool) -> PropertyGraph:
    """A random graph over ``MULTI`` whose edge ids are shuffled against
    load order, about a third of the edges carrying path_count; acyclic
    when every edge runs forward in one random vertex order."""
    rng = random.Random(seed)
    names = [f"a{i}" for i in range(5)] + [f"b{i}" for i in range(5)] + ["c0", "c1", "c2"]
    rng.shuffle(names)
    kind = {"a": "A", "b": "B", "c": "C"}
    triples = sorted(MULTI.edge_types)
    edges = []
    while len(edges) < 36:
        src_type, dst_type, label = rng.choice(triples)
        src = rng.choice([n for n in names if kind[n[0]] == src_type])
        dst = rng.choice([n for n in names if kind[n[0]] == dst_type])
        if acyclic and names.index(src) > names.index(dst):
            continue
        props = {"path_count": rng.randint(2, 3)} if rng.random() < 0.3 else {}
        edges.append((src, dst, label, props))
    ids = rng.sample(range(100, 100 + len(edges)), len(edges))
    return PropertyGraph.build(
        MULTI, [(n, kind[n[0]], {"w": rng.randint(1, 9)}) for n in names],
        [(f"e{i}", *edge) for i, edge in zip(ids, edges)])


MULTI_QUERIES = [
    # an untyped far end, and a typed one that is one of a label's two
    "MATCH (x:A)-[:L]->(y) RETURN x.id, y.id",
    "MATCH (x:A)-[:L]->(y:B) RETURN x.id, count(y)",
    "MATCH (x:A)-[e]->(y:B) RETURN e.id, y.w",
    "MATCH (x)-[:L]->(y:C) RETURN x.id, count(y)",
    "MATCH (y:B)-[:L]->(x:A)-[:M]->(z) RETURN y.id, z.id",
    # a far end already bound
    "MATCH (x:A)-[:L]->(y:B), (x)-[m:M]->(y) RETURN x.id, m.id",
    "MATCH (x:A)-[:L]->(y:B)-[:L]->(z:A), (z)-[p*1..3]->(y) RETURN x.id, z.id",
    # variable-length steps over some of a type's triples
    "MATCH (x:A)-[p:L*1..3]->(y:B) RETURN x.id, y.id",
    "MATCH (x:A)-[p*1..4]->(y:C) RETURN y.id, count(y)",
    "MATCH (x:B)-[p:L|M*0..4]->(y) RETURN y.id, count(x)",
    "MATCH (x)-[p:M*1..2]->(y:B) RETURN x.id, sum(y.w)",
]

# per depth 0..3; the oracle reads a band at every depth after the first
MULTI_BANDS = [None, [None, frozenset("B"), frozenset("A"), frozenset("BC")],
               [None, frozenset("CA"), frozenset("B"), frozenset("A")],
               [None, frozenset("AB"), frozenset("AB"), frozenset("AB")]]


class TestSelections:
    """The kernels read each step's edges from a selection derived from
    the flat adjacency: on a schema where a label leads into two types
    and a type has two out-labels, they match the plain trail search and
    the matcher matches the recursive oracle, for every label set and
    band, in both directions."""

    @pytest.mark.parametrize("seed", range(4))
    def test_kernels_match_the_trail_search(self, seed):
        dag = multi_triple_graph(seed, acyclic=True)
        assert dag.is_acyclic
        for g in (dag, multi_triple_graph(seed, acyclic=False)):
            extend = _count_step(g)
            for v, (lo, hi), forward, labels, bands in itertools.product(
                    range(g.n), ((1, 1), (0, 3), (2, 3)), (True, False),
                    (None, frozenset(["L"]), frozenset(["M"]),
                     frozenset(["L", "M"])), MULTI_BANDS):
                allowed = None if bands is None else bands[:hi + 1]
                kw = dict(forward=forward, labels=labels, allowed=allowed)
                ends, prefixes, scanned = trail_search(
                    g, g._vids[v], lo, hi, labels, allowed, forward)
                stats = ExecutionStats()
                got = _trails(g, {v: 1}, lo, hi, extend, operator.add, **kw,
                              stats=stats)
                case = (seed, g.is_acyclic, v, lo, hi, forward, labels, bands)
                assert {g._vids[w]: x for w, x in got.items()} == ends, case
                assert (stats.vertices_touched, stats.edges_expanded) == (
                    prefixes, scanned), case
                if g.is_acyclic:
                    got = _sweep(g, {v: 1}, lo, hi, extend, operator.add, **kw,
                                 stats=ExecutionStats())
                    assert {g._vids[w]: x for w, x in got.items()} == ends, case

    @pytest.mark.parametrize("seed", range(4))
    def test_execute_matches_oracle(self, seed):
        dag = multi_triple_graph(seed, acyclic=True)
        for g in (dag, as_cyclic(dag), multi_triple_graph(seed, acyclic=False)):
            for text in MULTI_QUERIES:
                q = parse_query(text)
                table, _ = execute(q, g)
                assert rows_close(table.rows, query_rows(g, q)), (seed, text)

    def test_selections_list_the_edges_a_step_may_take(self):
        g = multi_triple_graph(0, acyclic=False)
        some = (None, frozenset("A"), frozenset("B"), frozenset("BC"),
                frozenset("C"))
        for forward, labels, types, near in itertools.product(
                (True, False), (None, frozenset("L"), frozenset("M")), some,
                some):
            adj, fars = g.step_edges(forward, labels, types, near)
            flat, far = (g._out, g._edst) if forward else (g._in, g._esrc)
            near_at, far_at = (0, 1) if forward else (1, 0)
            picked = [t for t in MULTI.edge_types
                      if (near is None or t[near_at] in near)
                      and (labels is None or t[2] in labels)
                      and (types is None or t[far_at] in types)]
            assert fars == {t[far_at] for t in picked}
            for v, edges in enumerate(adj):
                ids = [g._eids[ei] for ei in edges]
                assert ids == sorted(ids)
                if near is None or g._vtypes[v] in near:
                    assert list(edges) == [
                        ei for ei in flat[v]
                        if (g._elabel[ei] in (labels or MULTI.labels()))
                        and (types is None or g._vtypes[far[ei]] in types)]

    def test_selections_share_the_adjacency_and_each_other(self):
        g = multi_triple_graph(1, acyclic=False)
        fs, step = frozenset, g.step_edges
        assert step(True, None, None, None)[0] is g._out
        assert step(False, fs("LM"), fs("ABC"), None)[0] is g._in
        # B's and C's out-triples are all picked, or they have none
        assert step(True, fs("L"), fs("A"), fs("BC"))[0] is g._out
        partial = step(True, fs("L"), None, fs("A"))[0]
        assert partial is not g._out
        # requests that pick the same triples share one list
        assert step(True, fs("L"), fs("BC"), fs("A"))[0] is partial
        # and so do steps that filter alike, whatever else they pick
        assert step(True, fs("L"), None, fs("AB"))[0] is partial
        only_m = step(True, fs("M"), None, fs("A"))[0]
        assert step(True, fs("M"), fs("B"), fs("A"))[0] is only_m
        assert step(True, None, fs("B"), fs("A"))[0] is not only_m

    def test_a_step_that_picks_nothing_shares_one_empty_list(self):
        # *1..3 from a Job to a Job: the band at depth 3 holds no type
        # that a Job's out-edges lead to, so that step picks no triple
        g = random_lineage_dag(1)
        q = parse_query("MATCH (a:Job)-[*1..3]->(b:Job) RETURN a.id, b.id")
        table, stats = execute(q, g)
        assert len(table.rows) == 39
        assert (stats.edges_expanded, stats.vertices_touched) == (69, 100)
        assert not g._selections
        fs = frozenset
        nothing = g.step_edges(True, fs(["WRITES_TO"]), fs(["Job"]),
                               fs(["Job"]))[0]
        assert len(nothing) == g.n and not any(nothing)
        assert g.step_edges(False, fs(["IS_READ_BY"]), None,
                            fs(["File"]))[0] is nothing
        assert not g._selections

    def test_concurrent_builds_agree(self):
        # the selections of one graph, built from four threads at once
        # with a short switch interval, equal those built alone
        fs = frozenset
        requests = list(itertools.product(
            (True, False), (None, fs("L"), fs("M")), (None, fs("B"), fs("AC")),
            (fs("A"), fs("B"), None)))
        alone = multi_triple_graph(2, acyclic=False)
        want = {request: alone.step_edges(*request) for request in requests}
        g = multi_triple_graph(2, acyclic=False)
        got, errors = [], []

        def build():
            try:
                for request in requests:
                    got.append((request, g.step_edges(*request)))
            except Exception as exc:     # reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and not errors
        assert len(got) == 4 * len(requests)
        for key, (adj, fars) in got:
            assert (list(map(list, adj)), fars) == (
                list(map(list, want[key][0])), want[key][1])

    def test_pinned_blast_radius_scans_half_the_entries(self, tmp_path):
        # j0's out-list holds its SPAWNS entries next to its WRITES_TO
        # ones; scanning whole lists read 248 entries
        ds = generate_lineage(tmp_path, seed=0, jobs=40, files=80, tasks=400,
                              machines=200)
        g = load_graph(ds.vertex_file, ds.edge_file, ds.schema)
        q = parse_query(BLAST_RADIUS_QUERY.replace(
            "RETURN", "WHERE q_j1.id = 'j0' RETURN"))
        table, stats = execute(q, g)
        every, _ = execute(parse_query(BLAST_RADIUS_QUERY), g)
        assert table.rows == [row for row in every.rows if row[0] == "j0"]
        assert table.rows and stats.edges_expanded <= 248 // 2


class TestExpansionCap:
    """Given ``max_expanded``, both kernels raise BudgetExceededError once
    their edges_expanded passes it, and below it change nothing."""

    @pytest.mark.parametrize("kernel", [_sweep, _trails])
    def test_cap_raises_once_passed(self, kernel):
        g = random_lineage_dag(3, jobs=30, files=45)
        seeds = {g._vindex[v]: 1 for v in sorted(g.vertices_of_type("Job"))[:5]}
        whole = ExecutionStats()
        want = kernel(g, seeds, 1, 6, None, operator.add, stats=whole)
        assert whole.edges_expanded > 10
        stats = ExecutionStats()
        assert kernel(g, seeds, 1, 6, None, operator.add,
                      max_expanded=whole.edges_expanded, stats=stats) == want
        assert stats == whole
        with pytest.raises(BudgetExceededError, match="cap of 10 edges"):
            kernel(g, seeds, 1, 6, None, operator.add, max_expanded=10,
                   stats=ExecutionStats())

    def test_cap_stops_trail_enumeration_on_a_grid(self, tmp_path):
        # trails of up to 10 edges from one junction of a 6x6 grid number
        # in the hundreds of thousands
        ds = generate_road_like(tmp_path, seed=1, rows=6, cols=6)
        g = load_graph(ds.vertex_file, ds.edge_file, ds.schema)
        assert not g.is_acyclic
        stats = ExecutionStats()
        with pytest.raises(BudgetExceededError):
            _trails(g, {g._vindex["r2c2"]: 1}, 1, 10, None, operator.add,
                    max_expanded=1000, stats=stats)
        # it stops at the first prefix past the cap
        assert 1000 < stats.edges_expanded <= 1000 + max(map(len, g._out))


class TestPinnedAnchor:
    def test_explicit_id_property_wins_over_vertex_id(self):
        g = PropertyGraph.build(
            SINGLE,
            [("a", "N", {"id": "b"}), ("b", "N", {}), ("c", "N", {"id": "x"}),
             ("x", "N", {"id": "y"})],
            [("e1", "a", "c", "L", {}), ("e2", "b", "c", "L", {}),
             ("e3", "x", "a", "L", {})],
        )
        q = parse_query("MATCH (s)-[]->(t) WHERE s.id = 'b' RETURN t.id")
        # 'a' has id 'b'; 'b' has no id property so its id is 'b'
        table, _ = execute(q, g)
        assert table.rows == [("x",), ("x",)]
        q = parse_query("MATCH (s)-[]->(t) WHERE s.id = 'x' RETURN t.id")
        # 'x' carries id 'y', so no vertex has id 'x'
        assert execute(q, g)[0].rows == []

    def test_pinned_anchor_touches_one_vertex(self, toy_ext):
        q = parse_query("MATCH (a:Job) WHERE a.id = 'j2' RETURN a.id")
        table, stats = execute(q, toy_ext)
        assert table.rows == [("j2",)]
        assert stats.vertices_touched == 1
        q = parse_query("MATCH (a:File) WHERE a.id = 'j2' RETURN a.id")
        assert execute(q, toy_ext)[0].rows == []


# chains the fold takes on a DAG: every aggregate reads one end, and the
# group keys and the filter read only the other
FOLD_QUERIES = [
    # the aggregated end downstream, so the sweep walks in-edges, and
    # upstream, so it walks out-edges
    "MATCH (a:Job)-[*1..4]->(b:Job) RETURN a.id, sum(b.cpu_hours)",
    "MATCH (a:Job)-[*1..4]->(b:Job) RETURN b.id, max(a.cpu_hours)",
    # a zero-length lower bound, then a fixed edge
    "MATCH (f:File)-[*0..3]->(g:File)-[:IS_READ_BY]->(j:Job) "
    "RETURN f.id, min(j.cpu_hours)",
    # two chained paths through a typed middle, into an untyped end whose
    # Files have no cpu_hours
    "MATCH (a:Job)-[:WRITES_TO]->(f), (f)-[*1..2]->(m:Job), (m)-[*0..3]->(b) "
    "RETURN a.id, avg(b.cpu_hours), count(b.cpu_hours), count(b)",
    # a filter on the group end
    "MATCH (a:Job)-[*1..4]->(b:Job) WHERE a.cpu_hours > 20 AND NOT a.id = 'j3' "
    "RETURN a.id, count(b)",
    # every aggregate, grouped by a value many group vertices share
    "MATCH (a:Job)-[:WRITES_TO]->(f:File)-[*0..2]->(g:File)"
    "-[:IS_READ_BY]->(b:Job) RETURN a.cpu_hours, count(b), "
    "sum(b.cpu_hours), avg(b.cpu_hours), max(b.cpu_hours), min(b.cpu_hours)",
    # no group key, the group end itself, and ORDER BY an aggregate
    "MATCH (a:Job)-[*1..3]->(b:Job) RETURN sum(b.cpu_hours), count(b)",
    "MATCH (a:Job)-[p:WRITES_TO|IS_READ_BY*2..4]->(b) RETURN b, count(a)",
    "MATCH (a:Job)-[*1..4]->(b:Job) RETURN a.id AS s, avg(b.cpu_hours) AS x "
    "ORDER BY x DESC LIMIT 4",
    # the path written first: the plan from j still walks the chain
    "MATCH (f:File)-[*0..2]->(h:File), (j:Job)-[:WRITES_TO]->(f) "
    "RETURN h.id, count(j)",
]

ORACLE_QUERIES = [
    *FOLD_QUERIES,
    # two components: a cartesian product
    "MATCH (a:Job)-[:WRITES_TO]->(f:File), (b:Job) WHERE b.cpu_hours > 25 "
    "RETURN a.id, count(b)",
    # a named edge: edge-property filter and e.id projection
    "MATCH (f:File)-[e:IS_READ_BY]->(j:Job) WHERE e.timestamp > 20 "
    "RETURN e.id, j.id",
    # the bound names themselves
    "MATCH (j:Job)-[w:WRITES_TO]->(f) RETURN j, w",
    "MATCH (j:Job)-[w:WRITES_TO]->(f) RETURN j, count(w)",
    # the only typed vertex is the destination, so steps walk in-edges
    "MATCH (a)-[:IS_READ_BY]->(b:Job) RETURN a.id, b.id",
    "MATCH (a)-[p*1..3]->(b:Job) RETURN a.id, count(b)",
    "MATCH (a)-[:WRITES_TO]->(f)-[:IS_READ_BY]->(b:Job) "
    "WHERE NOT a.cpu_hours < 10 OR b.id = 'j3' RETURN a.id, b.id",
    # steps whose far end is already bound
    "MATCH (a:Job)-[:WRITES_TO]->(f:File)-[:IS_READ_BY]->(b:Job), "
    "(a)-[p*2..2]->(b) RETURN a.id, b.id",
    "MATCH (f:File)-[:IS_READ_BY]->(j:Job), (f)-[r:IS_READ_BY]->(j) "
    "RETURN f.id, r.id",
    # pinned anchors, on either end
    "MATCH (a:File)-[p*1..6]->(b:Job) WHERE b.id = 'j7' RETURN a.id",
    BLAST_RADIUS_QUERY.replace("RETURN", "WHERE q_j1.id = 'j2' RETURN"),
    # label alternation, and a zero-length lower bound
    "MATCH (a:Job)-[p:WRITES_TO|IS_READ_BY*0..4]->(b) RETURN b.id, count(a)",
    "MATCH (a:File)-[p:IS_READ_BY*0..0]->(b) RETURN a.id, b.id",
    # every aggregate, weighted by multiplicity
    BLAST_RADIUS_QUERY.replace(
        "avg(q_j2.cpu_hours)",
        "count(q_j2), sum(q_j2.cpu_hours), avg(q_j2.cpu_hours), "
        "max(q_j2.cpu_hours), min(q_j2.cpu_hours)"),
    "MATCH (a:Job)-[p*2..4]->(b:Job) RETURN count(a), sum(b.cpu_hours), "
    "avg(b.cpu_hours), max(b.cpu_hours), min(b.cpu_hours)",
    "MATCH (a:Job) WHERE a.cpu_hours > 99 RETURN count(a), sum(a.cpu_hours), "
    "avg(a.cpu_hours), max(a.cpu_hours), min(a.cpu_hours)",
    # groups keyed by two names, and by values many elements share
    "MATCH (a:Job)-[:WRITES_TO]->(f:File)-[:IS_READ_BY]->(b:Job) "
    "RETURN a.cpu_hours, b.id, count(f)",
    "MATCH (j:Job)-[w:WRITES_TO]->(f) RETURN w.timestamp, count(j)",
    # ordering and limits
    "MATCH (a:Job)-[:WRITES_TO]->(f:File)-[:IS_READ_BY]->(b:Job) "
    "RETURN a.id AS s, count(b) AS n ORDER BY n DESC LIMIT 3",
    "MATCH (a:Job)-[p*1..4]->(b:Job) RETURN b.id AS t, a.cpu_hours AS c "
    "ORDER BY c LIMIT 7",
    # repeated rows, with a LIMIT inside a run of equal rows
    "MATCH (a:Job)-[p*1..4]->(b:Job) RETURN b.id AS t ORDER BY t DESC LIMIT 5",
    # an aggregate before a group key, so the count orders the rows
    "MATCH (a:Job)-[p*1..3]->(b:Job) RETURN count(b) AS n, a.id",
    # ORDER BY an aggregate with ties
    "MATCH (j:Job)-[w:WRITES_TO]->(f) RETURN w.timestamp AS t, count(j) AS n "
    "ORDER BY n DESC LIMIT 4",
    # names no filter or RETURN reads, summed out of the bindings:
    # an unreferenced named edge
    "MATCH (a:Job)-[w:WRITES_TO]->(f:File)-[r:IS_READ_BY]->(b:Job) "
    "RETURN a.id, r.id",
    # dead middle vertices whose bindings carry multiplicity
    "MATCH (a:Job)-[:WRITES_TO]->(f:File)-[:IS_READ_BY]->(m:Job)"
    "-[:WRITES_TO]->(g:File)-[:IS_READ_BY]->(b:Job) "
    "RETURN a.id, count(b), sum(b.cpu_hours), avg(b.cpu_hours)",
    # a component with no referenced name
    "MATCH (a:Job)-[:WRITES_TO]->(f:File), (x:File)-[p*1..2]->(y:File) "
    "RETURN a.id, count(a)",
    # names read only by WHERE
    "MATCH (a:Job)-[:WRITES_TO]->(f:File)-[e:IS_READ_BY]->(b:Job) "
    "WHERE f.id <> 'f3' AND e.timestamp > 10 AND b.cpu_hours > 10 "
    "RETURN a.id, count(a)",
    # a variable-length path whose ends are both dead
    "MATCH (a:Job)-[:WRITES_TO]->(f:File), (f)-[p*1..4]->(h:File), "
    "(h)-[:IS_READ_BY]->(b:Job) RETURN a.id",
    # a non-aggregate RETURN with repeated rows
    "MATCH (a:Job)-[:WRITES_TO]->(f:File)-[p*0..3]->(b:Job) RETURN b.id",
    # variable-length steps whose start is dead after them, so their seeds
    # merge per live prefix: two chained through a dead middle
    "MATCH (j)-[:WRITES_TO]->(f), (f)-[*0..2]->(m), (m)-[*0..2]->(g) "
    "RETURN j.id, count(g)",
    "MATCH (j)-[:WRITES_TO]->(f), (f)-[*0..2]->(m), (m)-[*0..2]->(g), "
    "(g)-[:IS_READ_BY]->(k) RETURN j.id, avg(k.cpu_hours)",
    # a dead start whose far end is already bound (and read by no later
    # step): on a DAG the first matches nothing, the second does
    "MATCH (j)-[:WRITES_TO]->(f), (g)-[:IS_READ_BY]->(j), (f)-[*0..4]->(g) "
    "RETURN j.id, count(j)",
    "MATCH (j:Job)-[:WRITES_TO]->(f), (j)-[*2..4]->(k), (f)-[*0..4]->(k) "
    "RETURN j.id, count(j)",
    # a dead anchor at the first step: one walk from every candidate
    "MATCH (a:File)-[*1..3]->(b:Job) RETURN b.id, count(b)",
    "MATCH (a:File)-[*1..3]->(b) RETURN b.id, count(b)",
]


# numbers equal across types or signs, two ints that round to one float,
# a bool, a string and a missing value; 2**53 + 1 on two vertices
MIXED_VALUES = [1, 1.0, 2 ** 53, 2 ** 53 + 1, float(2 ** 53), 0, 0.0, -0.0,
                -1, True, None, "1", 2.5, 2 ** 53 + 1]


def rows_close(got, want, rel_tol=1e-9):
    """Equal row lists, float cells within ``rel_tol``: a float sum over
    bindings of one key adds value x summed multiplicity, where a binding
    at a time adds the value once per binding."""
    return len(got) == len(want) and all(
        len(a) == len(b) and all(
            math.isclose(x, y, rel_tol=rel_tol)
            if isinstance(x, float) and isinstance(y, float) else x == y
            for x, y in zip(a, b))
        for a, b in zip(got, want))


class TestMatcherOracle:
    """``execute`` against a plain recursive matcher over the public
    graph API, on acyclic graphs (frontier sweep) and on the same graphs
    flagged cyclic (trail search)."""

    @staticmethod
    def graphs(seed):
        for g in (*differential_dags(seed), cluttered_lineage_dag(seed),
                  weighted_lineage_dag(seed)):
            yield g
            yield as_cyclic(g)

    @pytest.mark.parametrize("seed", range(5))
    def test_tables_match_oracle(self, seed):
        for g in self.graphs(seed):
            for text in ORACLE_QUERIES:
                q = parse_query(text)
                table, _ = execute(q, g)
                assert rows_close(table.rows, query_rows(g, q)), (seed, text)

    @pytest.mark.parametrize("seed", range(3))
    def test_unread_names_are_summed_out(self, seed):
        # the blast radius reads only q_j1 and q_j2: one binding per
        # distinct pair, carrying the multiplicity of every binding of
        # the same pattern with all four vertices read
        g = random_lineage_dag(seed)
        q = parse_query(BLAST_RADIUS_QUERY)
        everything = parse_query(BLAST_RADIUS_QUERY.replace(
            "RETURN", "RETURN q_f1.id, q_f2.id, "))
        pairs, slots, _ = _match(q, g, ExecutionStats(), _pinned_ids(q))
        assert sorted(slots) == ["q_j1", "q_j2"]
        bindings, all_slots, _ = _match(everything, g, ExecutionStats(),
                                         _pinned_ids(everything))
        assert sorted(all_slots) == ["q_f1", "q_f2", "q_j1", "q_j2"]
        summed = {}
        for binding, mult in bindings:
            key = tuple(binding[all_slots[n]] for n in ("q_j1", "q_j2"))
            summed[key] = summed.get(key, 0) + mult
        got = {tuple(key[slots[n]] for n in ("q_j1", "q_j2")): mult
               for key, mult in pairs}
        assert len(pairs) == len(got) == len(summed) < len(bindings)
        assert got == summed

    @pytest.mark.parametrize("seed", range(5))
    def test_equal_numbers_order_the_same_from_any_input(self, seed):
        # 1 and 1.0, and 2**53 and 2**53 + 1, are equal as floats; rows of
        # them must not come out in the order their vertices were loaded
        vertices = [(f"v{i}", "N", {} if x is None else {"x": x})
                    for i, x in enumerate(MIXED_VALUES)]
        rng = random.Random(seed)
        q = parse_query("MATCH (a:N) RETURN a.x")
        ordered = parse_query("MATCH (a:N) RETURN a.x AS x ORDER BY x DESC")
        tables = []
        for _ in range(8):
            rng.shuffle(vertices)
            g = PropertyGraph.build(SINGLE, list(vertices), [])
            rows = execute(q, g)[0].rows
            assert rows == query_rows(g, q)
            tables.append(([(type(x), repr(x)) for (x,) in rows],
                           [repr(x) for (x,) in execute(ordered, g)[0].rows]))
        assert all(t == tables[0] for t in tables)
        assert tables[0][1][:6] == ["'1'", "9007199254740993",
                                    "9007199254740993", "9007199254740992.0",
                                    "9007199254740992", "2.5"]
        assert tables[0][0][:3] == [(type(None), "None"), (bool, "True"),
                                    (int, "-1")]
        assert [r for _, r in tables[0][0][3:8]] == ["0", "-0.0", "0.0",
                                                     "1", "1.0"]

    @pytest.mark.parametrize("seed", range(5))
    def test_equal_numbers_with_multiplicity(self, seed):
        # each value is reached from s over one edge of path_count 1-3:
        # every row must sit where sorting the repeated rows puts it
        rng = random.Random(seed)
        counts = [rng.randint(1, 3) for _ in MIXED_VALUES]
        vertices = [("s", "N", {})] + [
            (f"v{i}", "N", {} if x is None else {"x": x})
            for i, x in enumerate(MIXED_VALUES)]
        edges = [(f"e{i}", "s", f"v{i}", "L", {"path_count": n})
                 for i, n in enumerate(counts)]
        repeated = sorted([(x,) for x, n in zip(MIXED_VALUES, counts)
                           for _ in range(n)], key=_row_sort_key)
        ordered = sorted(repeated, key=lambda row: _cell_sort_key(row[0]),
                         reverse=True)[:7]
        cases = [("MATCH (a)-[:L]->(b) RETURN b.x", repeated),
                 ("MATCH (a)-[:L]->(b) RETURN b.x AS x ORDER BY x DESC LIMIT 7",
                  ordered)]
        for _ in range(4):
            rng.shuffle(vertices)
            rng.shuffle(edges)
            g = PropertyGraph.build(SINGLE, list(vertices), list(edges))
            for text, want in cases:
                got = execute(parse_query(text), g)[0].rows
                assert ([(type(x), repr(x)) for (x,) in got]
                        == [(type(x), repr(x)) for (x,) in want]), text

    @pytest.mark.parametrize("values, want", [
        ([True, 1], ["True 1", "1 1"]),
        ([1, 1.0], ["1 1", "1.0 1"]),
        ([-0.0, 0.0], ["-0.0 1", "0.0 1"]),
        ([2 ** 53, float(2 ** 53)], ["9007199254740992 1",
                                     "9007199254740992.0 1"]),
        # two int objects of one value are one group
        ([10 ** 20, int("1" + "0" * 20), 1e20, True],
         ["True 1", "100000000000000000000 2", "1e+20 1"]),
    ])
    def test_equal_group_keys_of_two_types_stay_apart(self, values, want):
        # equal cells that print differently hash alike but are separate
        # groups, in cell order, from either load order
        q = parse_query("MATCH (a:N) RETURN a.x, count(a)")
        for order in (values, values[::-1]):
            g = PropertyGraph.build(
                SINGLE, [(f"v{i}", "N", {"x": x}) for i, x in enumerate(order)], [])
            for rows in (execute(q, g)[0].rows, query_rows(g, q)):
                assert [f"{x!r} {n}" for x, n in rows] == want, order

    @pytest.mark.parametrize("seed", range(3))
    def test_type_mismatch_raises_in_both(self, seed):
        q = parse_query("MATCH (a:Job)-[:WRITES_TO]->(f:File) "
                        "RETURN a.id, sum(f.id)")
        for g in self.graphs(seed):
            with pytest.raises(PropertyTypeMismatchError):
                execute(q, g)
            with pytest.raises(PropertyTypeMismatchError):
                query_rows(g, q)

    def test_counters_are_pinned(self):
        # on the DAG the blast radius folds: one sweep from every q_j2
        # back to the q_j1s; on the copy flagged cyclic the *0..8 step's
        # dead start is summed out: one walk per q_j1, and one IS_READ_BY
        # step per (q_j1, q_f2). Only adjacency entries with the link's
        # label count as expanded
        g = random_lineage_dag(7)
        q = parse_query(BLAST_RADIUS_QUERY)
        for graph, counters in ((g, (99, 91)), (as_cyclic(g), (353, 403))):
            table, stats = execute(q, graph)
            assert len(table.rows) == 9
            assert (stats.edges_expanded, stats.vertices_touched) == counters
        q = parse_query("MATCH (a)-[:WRITES_TO]->(b) RETURN count(b)")
        table, stats = execute(q, g)
        assert table.rows == [(30,)]
        assert (stats.edges_expanded, stats.vertices_touched) == (30, 80)



class TestResultAssembly:
    """Each distinct binding's row is sorted once and repeated by its
    multiplicity only on the way out, up to LIMIT."""

    def test_each_binding_is_sorted_once(self, tmp_path, monkeypatch):
        g = road_5x5(tmp_path)
        q = parse_query("MATCH (a:Junction)-[p*1..4]->(b:Junction) "
                        "WHERE a.id = 'r2c2' RETURN b.id")
        bindings = _match(q, g, ExecutionStats(), _pinned_ids(q))[0]
        calls = []

        def counted(row):
            calls.append(row)
            return _row_sort_key(row)
        monkeypatch.setattr(execution, "_row_sort_key", counted)
        rows = execute(q, g)[0].rows
        assert (len(bindings), len(rows)) == (25, 235)
        assert rows == query_rows(g, q)
        assert len(calls) <= len(bindings)

    def test_limit_stops_the_repetition(self):
        g = single(["s", "t"], [("s", "t")],
                   {("s", "t"): {"path_count": 10 ** 7}})
        q = parse_query("MATCH (a)-[:L]->(b) RETURN b.id LIMIT 3")
        tracemalloc.start()
        try:
            rows = execute(q, g)[0].rows
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows == [("t",)] * 3
        assert peak < 8 * 2 ** 20


# label -> (source type, target type), as in the lineage schema
LINEAGE_LINKS = {"WRITES_TO": ("Job", "File"), "IS_READ_BY": ("File", "Job")}
AGGREGATES = ("count", "sum", "avg", "max", "min")


def random_lineage_query(rng: random.Random) -> str:
    """A random query over the lineage schema: a tree of one to four
    links, each a fixed edge or a ``*L..U`` path (0 <= L <= U <= 4, any
    label, one label or an alternation), sometimes plus a link between
    two names already bound; vertex types dropped at random; RETURN of up
    to two group keys and up to two of the five aggregates, so that most
    middle names are dead; and sometimes ``WHERE x.id = '...'``.
    Aggregates over ``id`` make some queries fail on both sides."""
    types = ["Job"]
    links = []

    def fits(i, want):
        return i == len(types) or types[i] in (None, want)

    def link(here, other):
        fixed = [(label, a, b)
                 for label, (src, dst) in sorted(LINEAGE_LINKS.items())
                 for a, b in ((here, other), (other, here))
                 if fits(a, src) and fits(b, dst)]
        if fixed and rng.random() < 0.5:
            label, a, b = rng.choice(fixed)
            if other == len(types):
                types.append(LINEAGE_LINKS[label][b == other])
            links.append((a, b, f":{label}"))
            return
        lo = rng.choice((0, 0, 1, 1, 2))
        hi = min(4, lo + rng.randint(0, 3))
        labels = rng.choice(("", "", "", ":WRITES_TO|IS_READ_BY",
                             ":WRITES_TO", ":IS_READ_BY"))
        if other == len(types):
            types.append(rng.choice(("Job", "File", None)))
        a, b = (here, other) if rng.random() < 0.7 else (other, here)
        links.append((a, b, f"{labels}*{lo}..{hi}"))

    for _ in range(rng.randint(1, 4)):
        here = rng.randrange(len(types)) if rng.random() < 0.4 else len(types) - 1
        link(here, len(types))
    if len(types) > 2 and rng.random() < 0.2:
        link(*rng.sample(range(len(types)), 2))
    shown = [t if t is not None and rng.random() < 0.75 else None
             for t in types]

    def vertex(i):
        return f"(v{i}:{shown[i]})" if shown[i] else f"(v{i})"

    parts = [f"{vertex(a)}-[{label}]->{vertex(b)}" for a, b, label in links]
    names = [f"v{i}" for i in range(len(types))]
    items = [rng.choice((f"{n}.id", n, f"{n}.cpu_hours"))
             for n in rng.sample(names, rng.randint(0, min(2, len(names))))]
    for _ in range(rng.randint(0 if items else 1, 2)):
        func, n = rng.choice(AGGREGATES), rng.choice(names)
        arg = rng.choice((f"{n}.cpu_hours", f"{n}.cpu_hours", f"{n}.id")
                         if func != "count" else (n, f"{n}.cpu_hours"))
        items.append(f"{func}({arg})")
    items = list(dict.fromkeys(items))   # aliases must be distinct
    where = ""
    if rng.random() < 0.3:
        i = rng.randrange(len(types))
        prefix = {"Job": "j", "File": "f"}.get(types[i]) or rng.choice("jf")
        where = f"WHERE v{i}.id = '{prefix}{rng.randrange(12)}' "
    return f"MATCH {', '.join(parts)} {where}RETURN {', '.join(items)}"


class TestRandomQueriesOracle:
    """``execute`` against the plain recursive matcher on seeded random
    queries over the lineage schema, on every lineage graph family and
    its copy flagged cyclic: equal rows, or a refusal of the same error
    class on both sides."""

    @staticmethod
    def outcome(run):
        try:
            return run(), None
        except GraphViewsError as exc:
            return None, type(exc)

    @pytest.mark.parametrize("seed", range(10))
    def test_engine_matches_oracle(self, seed):
        rng = random.Random(seed)
        texts = [random_lineage_query(rng) for _ in range(12)]
        for g in (random_lineage_dag(seed), weighted_lineage_dag(seed),
                  cluttered_lineage_dag(seed)):
            for graph in (g, as_cyclic(g)):
                for text in texts:
                    q = parse_query(text)
                    got, got_error = self.outcome(
                        lambda: execute(q, graph)[0].rows)
                    want, want_error = self.outcome(
                        lambda: query_rows(graph, q))
                    assert got_error is want_error, (seed, text)
                    if want_error is None:
                        assert rows_close(got, want), (seed, text)


class TestMergedSeeds:
    """A variable-length step whose start is read by no later step and no
    RETURN or WHERE walks once per distinct prefix of the names read
    after it, seeded with the summed multiplicities, not once per
    binding."""

    @staticmethod
    def count_walks(monkeypatch) -> list:
        calls = []
        real = execution._walk

        def walk(*args, **kwargs):
            calls.append(args[1])
            return real(*args, **kwargs)
        monkeypatch.setattr(execution, "_walk", walk)
        return calls

    @pytest.mark.parametrize("seed", range(5))
    def test_blast_radius_walks_once_per_writing_job(self, seed, monkeypatch):
        # on a DAG the blast radius folds into one sweep and calls no
        # walk; a filter on q_j2 keeps it from folding
        g = random_lineage_dag(seed)
        writers = {src for _, src, _, label, _ in g.edges()
                   if label == "WRITES_TO"}
        filtered = BLAST_RADIUS_QUERY.replace(
            "RETURN", "WHERE q_j2.cpu_hours > 10 RETURN")
        calls = self.count_walks(monkeypatch)
        for text, graph, walks in (
                (BLAST_RADIUS_QUERY, g, 0),
                (BLAST_RADIUS_QUERY, as_cyclic(g), len(writers)),
                (filtered, g, len(writers)),
                (filtered, as_cyclic(g), len(writers))):
            q = parse_query(text)
            calls.clear()
            table, _ = execute(q, graph)
            assert len(calls) == walks
            assert rows_close(table.rows, query_rows(graph, q))

    @pytest.mark.parametrize("text", [
        "MATCH (a:File)-[*1..3]->(b:Job) RETURN b.id, count(b)",
        "MATCH (a:File)-[*1..3]->(b) RETURN b.id, count(b)",
    ])
    def test_a_dead_anchor_seeds_one_walk(self, text, monkeypatch):
        # with fewer files than jobs, the anchor is a, which nothing reads
        g = random_lineage_dag(2, jobs=30, files=20)
        q = parse_query(text)
        calls = self.count_walks(monkeypatch)
        for graph in (g, as_cyclic(g)):
            calls.clear()
            table, _ = execute(q, graph)
            assert len(calls) == 1
            assert len(calls[0]) == 20
            assert rows_close(table.rows, query_rows(graph, q))

    def test_unpinned_blast_radius_work_is_bounded(self, tmp_path):
        # on the benchmark's lineage graph: a *0..8 walk per (q_j1, q_f1)
        # scans 441,927 adjacency entries, one per q_j1 235,399, and the
        # fold's one sweep 52,749. Pinned, it still walks from its job,
        # with the counters it had before the fold
        ds = generate_lineage(tmp_path, seed=0, jobs=2000, files=4000)
        g = load_graph(ds.vertex_file, ds.edge_file, ds.schema)
        table, stats = execute(parse_query(BLAST_RADIUS_QUERY), g)
        assert len(table.rows) == 1716
        assert stats.edges_expanded <= 120_000
        rows = dict(table.rows)
        for job, counters in (("j0", (94, 72)), ("j17", (180, 133)),
                              ("j1000", (207, 153)), ("j1999", (1, 3))):
            pinned, stats = execute(parse_query(BLAST_RADIUS_QUERY.replace(
                "RETURN", f"WHERE q_j1.id = '{job}' RETURN")), g)
            assert (stats.edges_expanded, stats.vertices_touched) == counters
            assert rows_close(pinned.rows, [(job, rows[job])] if job in rows
                              else [])


class TestPlan:
    """One planner orders a component's links for the matcher and the
    fold: a link with both ends bound first, then one with one end bound,
    a fixed edge before a path, each kind in query order."""

    QUERY = ("MATCH (a:Job)-[w:WRITES_TO]->(f:File), (f)-[*1..3]->(b:Job), "
             "(f)-[:IS_READ_BY]->(c:Job), (a)-[*1..2]->(c), "
             "(c)-[*1..2]->(d:Job) RETURN a.id, b.id, d.id, w.timestamp")

    def test_step_order_and_what_each_step_knows(self):
        q = parse_query(self.QUERY)
        g = random_lineage_dag(0)
        (names,) = q.components()
        steps = execution._plan(q, g, names, "a")
        # w and the path a->c compete at a, the fixed edge into c and the
        # path f->b at f; then a->c has both ends bound
        assert [(s.here, s.there, s.there_bound) for s in steps] == [
            ("a", "f", False), ("f", "c", False), ("a", "c", True),
            ("f", "b", False), ("c", "d", False)]
        assert all(s.forward for s in steps)
        assert [s.before for s in steps] == [
            {"a"}, {"a", "f", "w"}, {"a", "f", "w", "c"},
            {"a", "f", "w", "c"}, {"a", "f", "w", "c", "b"}]
        w, read_by, a_to_c = steps[:3]
        assert w.link.name == "w" and w.labels == {"WRITES_TO"}
        assert (w.lo, w.hi) == (1, 1)
        assert w.bands == ({"Job"}, {"File"})
        assert read_by.labels == {"IS_READ_BY"}
        assert (a_to_c.lo, a_to_c.hi, a_to_c.labels) == (1, 2, None)
        assert a_to_c.bands == SchemaIndex(g.schema).type_bands(
            "Job", "Job", 1, 2, None, True)
        # from f, the fixed edge is walked against its direction
        first = execution._plan(q, g, names, "f")[0]
        assert (first.link.name, first.forward, first.there) == ("w", False,
                                                                   "a")
        table, _ = execute(q, g)
        assert rows_close(table.rows, query_rows(g, q))

    def test_a_link_that_touches_no_bound_name_fails(self):
        q = parse_query("MATCH (a:Job)-[:WRITES_TO]->(f:File) RETURN a.id")
        with pytest.raises(ValidationError, match="not connected"):
            execution._plan(q, random_lineage_dag(0), ["a", "f", "x"], "x")


class TestFold:
    """A chain whose aggregates read one end and whose group keys and
    filter read the other folds on a DAG into one sweep from the
    aggregated end; any other query, or any cyclic graph, runs on the
    matcher."""

    @pytest.mark.parametrize("seed", range(3))
    def test_fold_shapes_fold_only_on_dags(self, seed):
        for g in TestMatcherOracle.graphs(seed):
            for text in FOLD_QUERIES:
                q = parse_query(text)
                folded = execution._fold(q, g, ExecutionStats(),
                                         _pinned_ids(q))
                assert (folded is None) is not g.is_acyclic, text
                if folded is not None:
                    assert rows_close(folded.rows, query_rows(g, q)), text

    @pytest.mark.parametrize("text", [
        # pinned, filtered on the aggregated end, or a named edge read
        BLAST_RADIUS_QUERY.replace("RETURN", "WHERE q_j1.id = 'j2' RETURN"),
        BLAST_RADIUS_QUERY.replace("RETURN", "WHERE q_j2.cpu_hours > 9 RETURN"),
        "MATCH (a:Job)-[w:WRITES_TO]->(f)-[*1..2]->(b:Job) "
        "RETURN a.id, count(w), sum(b.cpu_hours)",
        # every aggregate reads one named edge, which is no end of the chain
        "MATCH (j:Job)-[w:WRITES_TO]->(f:File)-[*0..2]->(g:File) "
        "RETURN g.id, max(w.timestamp)",
        "MATCH (j:Job)-[w:WRITES_TO]->(f:File)-[*0..2]->(g:File) "
        "RETURN f.id, count(w)",
        # aggregates over both ends, a group key on the middle or on the
        # aggregated end, no aggregate, no variable-length path
        "MATCH (a:Job)-[*1..4]->(b:Job) RETURN sum(a.cpu_hours), count(b)",
        "MATCH (a:Job)-[:WRITES_TO]->(f)-[*1..2]->(b:Job) "
        "RETURN f.id, count(b)",
        "MATCH (a:File)-[*1..3]->(b:Job) RETURN b.id, count(b)",
        "MATCH (a:Job)-[*1..4]->(b:Job) RETURN a.id, b.id",
        "MATCH (a:Job)-[:WRITES_TO]->(f:File)-[:IS_READ_BY]->(b:Job) "
        "RETURN a.id, count(b)",
        # the aggregated end in the middle, a tree, a cycle of links, and
        # two components
        "MATCH (a:Job)-[*1..2]->(m:Job)-[*1..2]->(b:Job) "
        "RETURN a.id, count(m)",
        "MATCH (a:Job)-[*1..2]->(m:Job), (m)-[*1..2]->(b:Job), "
        "(m)-[*1..2]->(c:Job) RETURN a.id, count(b)",
        "MATCH (a:Job)-[:WRITES_TO]->(f:File)-[:IS_READ_BY]->(b:Job), "
        "(a)-[p*2..2]->(b) RETURN a.id, count(b)",
        "MATCH (a:Job)-[*1..2]->(b:Job), (b)-[*1..2]->(a) "
        "RETURN a.id, count(a)",
        "MATCH (a:Job)-[*1..2]->(b:Job), (c:Job) RETURN a.id, count(b)",
    ])
    def test_other_shapes_do_not_fold(self, text):
        g = random_lineage_dag(3)
        q = parse_query(text)
        assert execution._fold(q, g, ExecutionStats(),
                               _pinned_ids(q)) is None
        assert rows_close(execute(q, g)[0].rows, query_rows(g, q))

    @pytest.mark.parametrize("seed", range(4))
    def test_fold_over_a_path_count_view(self, seed):
        # a 2-hop connector's edges carry their trail counts: the fold
        # scales sums, averages and counts by them, and not extremes
        text = BLAST_RADIUS_QUERY.replace(
            "avg(q_j2.cpu_hours)",
            "count(q_j2), sum(q_j2.cpu_hours), avg(q_j2.cpu_hours), "
            "max(q_j2.cpu_hours), min(q_j2.cpu_hours)")
        q = parse_query(text)
        for g in (random_lineage_dag(seed), weighted_lineage_dag(seed)):
            view = materialize(g, KHOP2)
            assert view._path_counts is not None and view.is_acyclic
            rewritten = rewrite_with_view(q, KHOP2, LINEAGE_SCHEMA).rewritten
            folded = execution._fold(rewritten, view, ExecutionStats(),
                                     _pinned_ids(rewritten))
            assert folded is not None
            want = query_rows(g, q)
            assert rows_close(folded.rows, want)
            assert rows_close(folded.rows, query_rows(view, rewritten))
            assert rows_close(execute(rewritten, as_cyclic(view))[0].rows, want)

    @pytest.mark.parametrize("seed", range(3))
    def test_a_fixed_link_sweeps_like_a_one_hop_path(self, seed):
        # an A's L-edges lead to Bs and to Cs: the fixed link, like the
        # *1..1 path, reads only those into a B
        g = multi_triple_graph(seed, acyclic=True)
        text = ("MATCH (z:A)-[{}]->(y:B)-[p*1..2]->(x) "
                "RETURN x.id, max(z.w), sum(z.w)")
        runs = []
        for link in (":L", ":L*1..1"):
            q, stats = parse_query(text.format(link)), ExecutionStats()
            runs.append((execution._fold(q, g, stats, _pinned_ids(q)).rows,
                         stats.edges_expanded, stats.vertices_touched))
            assert rows_close(runs[-1][0], query_rows(g, q))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("seed", range(4))
    def test_equal_extremes_of_two_types_do_not_depend_on_order(self, seed):
        # every job's cpu_hours is 1 or 1.0, 0 or 0.0 or -0.0: max keeps
        # the value last in cell order and min the first, whether the
        # matcher adds them in binding order or the fold merges them in
        # sweep order, raw or over the connector
        rng = random.Random(seed)
        dag = random_lineage_dag(seed)
        choices = rng.choice([[1, 1.0], [0, 0.0, -0.0]])
        g = PropertyGraph.build(
            dag.schema, [(vid, vtype, {"cpu_hours": rng.choice(choices)})
                         if vtype == "Job" else (vid, vtype, props)
                         for vid, vtype, props in dag.vertices()],
            list(dag.edges()))
        q = parse_query(BLAST_RADIUS_QUERY.replace(
            "avg(q_j2.cpu_hours)", "max(q_j2.cpu_hours), min(q_j2.cpu_hours)"))
        view = materialize(g, KHOP2)
        rewritten = rewrite_with_view(q, KHOP2, LINEAGE_SCHEMA).rewritten

        def cells(rows):
            return [[(type(c), repr(c)) for c in row] for row in rows]
        want = cells(query_rows(g, q))
        assert cells(execution._fold(q, g, ExecutionStats(),
                                     _pinned_ids(q)).rows) == want
        assert cells(execute(q, as_cyclic(g))[0].rows) == want
        assert cells(execution._fold(rewritten, view, ExecutionStats(),
                                     _pinned_ids(rewritten)).rows) == want
        assert cells(execute(rewritten, as_cyclic(view))[0].rows) == want

    @staticmethod
    def with_cpu_hours(g, job, value):
        return PropertyGraph.build(
            g.schema, [(vid, vtype, {**props, "cpu_hours": value})
                       if vid == job else (vid, vtype, props)
                       for vid, vtype, props in g.vertices()],
            list(g.edges()))

    @pytest.mark.parametrize("seed", range(3))
    def test_a_value_no_binding_reaches_raises_nothing(self, seed):
        # no file is read by j0, so no q_j1 reaches it as q_j2
        g = self.with_cpu_hours(random_lineage_dag(seed), "j0", "x")
        for text in (BLAST_RADIUS_QUERY,
                     BLAST_RADIUS_QUERY.replace("avg", "max")):
            q = parse_query(text)
            assert execution._fold(q, g, ExecutionStats(),
                                   _pinned_ids(q)) is None
            assert rows_close(execute(q, g)[0].rows, query_rows(g, q))
        # count takes any value, so it folds
        q = parse_query(BLAST_RADIUS_QUERY.replace("avg", "count"))
        folded = execution._fold(q, g, ExecutionStats(), _pinned_ids(q))
        assert folded is not None
        assert folded.rows == query_rows(g, q)

    @pytest.mark.parametrize("seed", range(3))
    def test_a_value_a_binding_reaches_raises_in_both(self, seed):
        dag = random_lineage_dag(seed)
        read = sorted({dst for _, _, dst, label, _ in dag.edges()
                       if label == "IS_READ_BY"})
        g = self.with_cpu_hours(dag, read[0], "x")
        for text in (BLAST_RADIUS_QUERY,
                     BLAST_RADIUS_QUERY.replace("avg", "sum"),
                     BLAST_RADIUS_QUERY.replace("avg", "min")):
            q = parse_query(text)
            with pytest.raises(PropertyTypeMismatchError):
                execute(q, g)
            with pytest.raises(PropertyTypeMismatchError):
                query_rows(g, q)


PRUNING_QUERIES = [
    BLAST_RADIUS_QUERY,
    "MATCH (a:Job)-[p*2..4]->(b:Job) RETURN a.id, b.id",
    # the typed end is pinned, so the path walks in-edges
    "MATCH (a:File)-[p*1..6]->(b:Job) WHERE b.id = 'j11' RETURN a.id",
    "MATCH (a)-[p*1..3]->(b:Job) RETURN a.id, count(b)",
    "MATCH (a:Job)-[p:WRITES_TO|IS_READ_BY*0..4]->(b) RETURN b.id, count(a)",
    "MATCH (a:Job)-[p*1..6]->(f:File) RETURN a.id, count(f)",
    # a path whose far end is already bound
    "MATCH (a:Job)-[:WRITES_TO]->(f:File)-[:IS_READ_BY]->(b:Job), "
    "(a)-[p*2..2]->(b) RETURN a.id, b.id",
]

CLUTTER_QUERIES = PRUNING_QUERIES + [
    "MATCH (a:Job)-[p*1..5]->(m:Machine) RETURN a.id, count(m)",
    # no walk from a Task reaches a Job
    "MATCH (t:Task)-[p*1..3]->(b:Job) RETURN t.id",
    "MATCH (a:File)-[p*0..6]->(b:File) WHERE a.id = 'f3' RETURN b.id",
    # from the pinned machine, back over a task to the files of its job
    "MATCH (f:File)-[p*2..2]->(t:Task), (t)-[:RUNS_ON]->(m:Machine) "
    "WHERE m.id = 'm1' RETURN f.id, t.id",
]

ROAD_QUERIES = [
    "MATCH (a:Junction)-[p*1..4]->(b:Junction) WHERE a.id = 'r0c0' "
    "RETURN b.id",
    "MATCH (a:Junction)-[p*3..3]->(b:Junction) RETURN count(a)",
]


class TestSchemaPruning:
    """Variable-length steps walk only their schema type bands. Against
    the same engine with every band open, rows must be the same multiset
    and the work no larger; on a graph with clutter the work shrinks."""

    @staticmethod
    def both_ways(monkeypatch, g, queries):
        def run():
            return [execute(parse_query(text), g) for text in queries]

        pruned = run()
        with monkeypatch.context() as m:
            m.setattr(SchemaIndex, "type_bands",
                      lambda self, x, y, lo, hi, labels=None, forward=True:
                      (None,) * (hi + 1))
            unpruned = run()
        expanded = [0, 0]
        for text, (got, got_stats), (want, want_stats) in zip(
                queries, pruned, unpruned):
            assert got.multiset_equal(want), text
            assert got_stats.edges_expanded <= want_stats.edges_expanded, text
            assert got_stats.vertices_touched <= want_stats.vertices_touched, text
            expanded[0] += got_stats.edges_expanded
            expanded[1] += want_stats.edges_expanded
        return expanded

    @pytest.mark.parametrize("seed", range(4))
    def test_lineage_families(self, monkeypatch, seed):
        for g in (random_lineage_dag(seed), as_cyclic(random_lineage_dag(seed)),
                  weighted_lineage_dag(seed)):
            self.both_ways(monkeypatch, g, PRUNING_QUERIES)

    @pytest.mark.parametrize("seed", range(4))
    def test_clutter_shrinks_the_work(self, monkeypatch, seed):
        g = cluttered_lineage_dag(seed)
        for graph in (g, as_cyclic(g)):
            pruned, unpruned = self.both_ways(monkeypatch, graph, CLUTTER_QUERIES)
            assert pruned < unpruned, seed
        for text in CLUTTER_QUERIES:
            q = parse_query(text)
            assert execute(q, g)[0].rows == query_rows(g, q), text

    def test_road_grid(self, monkeypatch, tmp_path):
        g = road_5x5(tmp_path)
        assert not g.is_acyclic
        self.both_ways(monkeypatch, g, ROAD_QUERIES)


class TestPinnedConjunct:
    """A pinned anchor's candidates are exactly the vertices its
    ``id = 'literal'`` conjunct holds on, so that conjunct leaves the
    filter; the results must be those of the full filter."""

    GRAPH = PropertyGraph.build(
        SINGLE,
        [("a", "N", {"id": 5, "w": 1}), ("b", "N", {"id": "5", "w": 2}),
         ("c", "N", {"id": True}), ("5", "N", {"w": 3}),
         ("d", "N", {"id": 5.0}), ("e", "N", {"id": "a"}), ("f", "N", {})],
        [("e1", "a", "f", "L", {}), ("e2", "b", "f", "L", {}),
         ("e3", "c", "f", "L", {}), ("e4", "5", "f", "L", {}),
         ("e5", "d", "f", "L", {}), ("e6", "e", "5", "L", {}),
         ("e7", "f", "b", "L", {})],
    )

    @pytest.mark.parametrize("where", [
        "s.id = '5'",
        "s.id = 'True'",
        "s.id = 'true'",
        "s.id = 'c'",          # c's explicit id hides its vertex id
        "s.id = 'f'",          # no explicit id: the vertex id counts
        "s.id = '5' AND s.id = 'a'",
        "s.id = 'a' AND s.id = '5'",
        "s.id = '5' AND s.id = '5'",
        "s.id = '5' AND s.w > 1",
        "(s.id = '5' AND t.id = 'f') AND NOT s.w = 3",
        "s.id = '5' AND t.id = 'b'",
        "s.id = '5' OR s.id = 'a'",
        "NOT s.id = '5'",
        "s.id = 5",
    ])
    def test_matches_the_full_filter(self, where):
        q = parse_query(f"MATCH (s:N)-[:L]->(t:N) WHERE {where} "
                        "RETURN s, t.id")
        assert execute(q, self.GRAPH)[0].rows == query_rows(self.GRAPH, q)

    def test_a_request_leaves_no_garbage(self):
        # nothing a request builds is a reference cycle, so its objects
        # are freed as it returns and never wait for the cyclic collector
        g = random_lineage_dag(1)
        pinned = BLAST_RADIUS_QUERY.replace("RETURN", "WHERE q_j1.id = 'j2' RETURN")
        queries = [parse_query(text) for text in (
            pinned, BLAST_RADIUS_QUERY,
            "MATCH (s:N)-[:L]->(t:N) WHERE s.id = '5' AND s.w > 1 RETURN s")]
        graphs = [g, g, self.GRAPH]
        gc.collect()
        gc.disable()
        try:
            for q, graph in zip(queries, graphs):
                execute(q, graph)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_only_the_anchors_conjunct_leaves(self):
        # t is pinned too but is no anchor: its conjunct still filters
        q = parse_query("MATCH (s:N)-[:L]->(t:N) "
                        "WHERE s.id = '5' AND t.id = 'x' RETURN s")
        assert execute(q, self.GRAPH)[0].rows == []
        q = parse_query("MATCH (s:N)-[:L]->(t:N) WHERE s.id = '5' RETURN s")
        table, stats = execute(q, self.GRAPH)
        assert table.rows == [("5",), ("b",)]
        assert stats.vertices_touched == 2 + 2
