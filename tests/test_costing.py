import random

import pytest

from graphviews.costing import (
    MAX_COST,
    CostReport,
    estimate_er,
    estimate_heterogeneous,
    estimate_homogeneous,
    eval_cost,
    exact_path_count,
)
from graphviews.errors import (
    BudgetExceededError,
    DomainError,
    HeterogeneousInputError,
)
from graphviews.query import parse_query
from graphviews.store import GraphSchema, PropertyGraph, degree_summary

from conftest import BLAST_RADIUS_QUERY, random_lineage_dag
from oracles import count_simple_paths

SINGLE = GraphSchema.of(["N"], [("N", "N", "L")])


def single_type_graph(n, edges):
    return PropertyGraph.build(
        SINGLE,
        [(f"v{i}", "N", {}) for i in range(n)],
        [(f"e{i}", f"v{a}", f"v{b}", "L", {}) for i, (a, b) in enumerate(edges)],
    )


def random_conforming_graph(seed: int, max_n: int = 60) -> PropertyGraph:
    """Random multi-type graph with uniform wiring under a random schema."""
    rng = random.Random(seed)
    n_types = rng.randint(1, 3)
    types = [f"T{i}" for i in range(n_types)]
    triples = set()
    for i in range(rng.randint(1, 5)):
        triples.add((rng.choice(types), rng.choice(types), f"L{i}"))
    schema = GraphSchema.of(types, triples)
    n = rng.randint(5, max_n)
    vertices = [(f"v{i}", rng.choice(types), {}) for i in range(n)]
    by_type = {}
    for vid, vtype, _ in vertices:
        by_type.setdefault(vtype, []).append(vid)
    edges = []
    eid = 0
    for src, dst, label in sorted(triples):
        if src not in by_type or dst not in by_type:
            continue
        for _ in range(rng.randint(0, 2 * n // n_types)):
            edges.append((f"e{eid}", rng.choice(by_type[src]),
                          rng.choice(by_type[dst]), label, {}))
            eid += 1
    return PropertyGraph.build(schema, vertices, edges)


class TestErdosRenyi:
    def test_triangle(self):
        assert estimate_er(3, 3, 2).estimated_edges == pytest.approx(1.0)

    def test_k1_equals_m(self):
        for n, m in [(5, 4), (10, 20), (7, 0)]:
            assert estimate_er(n, m, 1).estimated_edges == pytest.approx(m)

    def test_no_edges(self):
        assert estimate_er(10, 0, 2).estimated_edges == 0

    def test_preconditions(self):
        with pytest.raises(DomainError):
            estimate_er(2, 1, 2)   # n < k+1
        with pytest.raises(DomainError):
            estimate_er(3, 4, 1)   # m > C(n,2)


class TestHomogeneous:
    def test_star_upper_bound_holds(self):
        g = single_type_graph(5, [(0, i) for i in range(1, 5)])
        d = degree_summary(g)
        est = estimate_homogeneous(d, 2, 100)
        assert est.estimated_edges == 80
        assert exact_path_count(g, 2) == 0
        assert est.estimated_edges >= exact_path_count(g, 2)

    def test_constant_degree_any_alpha(self):
        g = single_type_graph(4, [(i, (i + 1) % 4) for i in range(4)])
        d = degree_summary(g)
        for alpha in (50, 90, 95, 100):
            assert estimate_homogeneous(d, 3, alpha).estimated_edges == 4 * 1 ** 3

    def test_k0_is_vertex_count(self):
        g = single_type_graph(6, [])
        d = degree_summary(g)
        assert estimate_homogeneous(d, 0, 100).estimated_edges == 6

    def test_rejects_multi_type(self, toy_lineage):
        d = degree_summary(toy_lineage)
        with pytest.raises(HeterogeneousInputError):
            estimate_homogeneous(d, 2, 95)


class TestHeterogeneous:
    def test_toy_lineage(self, toy_lineage):
        d = degree_summary(toy_lineage)
        est = estimate_heterogeneous(d, 2, 100)
        assert est.estimated_edges == 2 * 1 + 1 * 1

    def test_type_without_outgoing_schema_edges_excluded(self):
        schema = GraphSchema.of(["A", "B"], [("A", "B", "L")])
        g = PropertyGraph.build(
            schema,
            [("a1", "A", {}), ("a2", "A", {}), ("b1", "B", {})],
            [("e1", "a1", "b1", "L", {})],
        )
        d = degree_summary(g)
        # B is not an edge source; only A contributes
        assert estimate_heterogeneous(d, 2, 100).estimated_edges == 2 * 1 ** 2

    def test_single_type_reduces_to_homogeneous(self):
        g = single_type_graph(8, [(i, (i + 3) % 8) for i in range(8)])
        d = degree_summary(g)
        for k in (0, 1, 2, 3):
            assert (estimate_heterogeneous(d, k, 95).estimated_edges
                    == estimate_homogeneous(d, k, 95).estimated_edges)


class TestExactPathCount:
    def test_directed_3_cycle(self):
        g = single_type_graph(3, [(0, 1), (1, 2), (2, 0)])
        assert exact_path_count(g, 2) == 3

    def test_k1_is_edge_count_distinct_endpoints(self):
        for seed in range(5):
            g = random_conforming_graph(seed)
            loops = sum(1 for _, s, d, _, _ in g.edges() if s == d)
            assert exact_path_count(g, 1) == g.m - loops

    def test_closed_forms_match_dfs(self):
        for seed in range(20):
            g = random_conforming_graph(seed, max_n=25)
            for k in (0, 1, 2):
                assert exact_path_count(g, k) == count_simple_paths(g, k), \
                    (seed, k)

    def test_k3_matches_oracle(self):
        for seed in range(10):
            g = random_conforming_graph(seed, max_n=20)
            assert exact_path_count(g, 3) == count_simple_paths(g, 3)

    def test_budget_exceeded(self):
        g = single_type_graph(10, [(a, b) for a in range(10) for b in range(10) if a != b])
        with pytest.raises(BudgetExceededError):
            exact_path_count(g, 4, step_budget=50)


class TestUpperBoundProperty:
    def test_alpha_100_bounds_exact_counts(self):
        violations = []
        for seed in range(40):
            g = random_conforming_graph(seed, max_n=40)
            d = degree_summary(g)
            for k in (2, 3, 4):
                est = estimate_heterogeneous(d, k, 100).estimated_edges
                exact = exact_path_count(g, k)
                if est < exact:
                    violations.append((seed, k, est, exact))
        assert violations == []


class TestEvalCost:
    def test_vertex_count_scan_cost(self, toy_lineage):
        d = degree_summary(toy_lineage)
        q = parse_query("MATCH (a:Job) RETURN count(a)")
        assert eval_cost(q, d) == d.n_of("Job")

    def test_hop_monotonicity(self):
        g = random_lineage_dag(4)
        d = degree_summary(g)
        full = eval_cost(parse_query(BLAST_RADIUS_QUERY), d)
        capped = eval_cost(parse_query(BLAST_RADIUS_QUERY.replace("*0..8", "*0..4")), d)
        assert full > capped

    def test_percentile_monotonicity(self):
        g = random_lineage_dag(9)
        d = degree_summary(g)
        q = parse_query(BLAST_RADIUS_QUERY)
        costs = [eval_cost(q, d, alpha=a) for a in (50, 90, 95, 100)]
        assert costs == sorted(costs)

    def test_deterministic(self):
        g = random_lineage_dag(2)
        d = degree_summary(g)
        q = parse_query(BLAST_RADIUS_QUERY)
        assert eval_cost(q, d) == eval_cost(q, d)

    def test_long_hop_ranges_saturate(self):
        # every vertex of a complete 11-vertex digraph has out-degree 10
        g = single_type_graph(11, [(a, b) for a in range(11)
                                   for b in range(11) if a != b])
        d = degree_summary(g)

        def cost(hops):
            return eval_cost(parse_query(
                f"MATCH (a:N)-[p*1..{hops}]->(b:N) RETURN a.id"), d)

        # finite costs are the plain series, summed as before
        for hops in (3, 300):
            assert cost(hops) == 11 + 11 * sum(10.0 ** i
                                               for i in range(1, hops + 1))
        # 10**308 is finite but 11 times the series is not; 10**400 raises
        assert cost(308) == cost(400) == MAX_COST
        two = parse_query("MATCH (a:N)-[p*1..400]->(b:N), "
                          "(c:N)-[r*1..400]->(e:N) RETURN a.id")
        assert eval_cost(two, d) == MAX_COST


class TestCostReport:
    def test_improvement_and_value(self):
        r = CostReport(creation_cost=10.0, eval_cost_raw=100.0, eval_cost_rewritten=20.0)
        assert r.improvement == pytest.approx(5.0)
        assert r.value == pytest.approx(0.5)
        assert r.improvement > 0
