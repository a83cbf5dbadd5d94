import pytest

from graphviews.errors import (
    DanglingEdgeEndpointError,
    DuplicateIdError,
    MalformedRowError,
    UnknownEdgeTripleError,
    UnknownVertexError,
    UnknownVertexTypeError,
    ValidationError,
)
from graphviews.store import (
    GraphSchema,
    PropertyGraph,
    components,
    degree_summary,
    load_graph,
    nearest_rank,
)

from conftest import LINEAGE_SCHEMA, random_lineage_dag
from oracles import has_cycle


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


VERTS = "id,type,props\nj1,Job,\nj2,Job,\"{\"\"cpu_hours\"\": 10}\"\nf1,File,\n"


class TestLoad:
    def test_minimal_valid_instance(self, tmp_path):
        vf = write(tmp_path / "v.csv", VERTS)
        ef = write(tmp_path / "e.csv",
                   "id,src,dst,label,props\n"
                   "e1,j1,f1,WRITES_TO,\n"
                   "e2,f1,j2,IS_READ_BY,\n")
        g = load_graph(vf, ef, LINEAGE_SCHEMA)
        assert g.n == 3
        assert g.m == 2
        assert g.vertex_type("f1") == "File"
        assert g.vertex_props("j2") == {"cpu_hours": 10}

    def test_files_never_write(self, tmp_path):
        vf = write(tmp_path / "v.csv", VERTS)
        ef = write(tmp_path / "e.csv",
                   "id,src,dst,label,props\ne1,f1,j1,WRITES_TO,\n")
        with pytest.raises(UnknownEdgeTripleError) as exc:
            load_graph(vf, ef, LINEAGE_SCHEMA)
        assert exc.value.line == 2

    def test_empty_edge_file(self, tmp_path):
        vf = write(tmp_path / "v.csv", "id,type,props\nj1,Job,\n")
        ef = write(tmp_path / "e.csv", "id,src,dst,label,props\n")
        g = load_graph(vf, ef, LINEAGE_SCHEMA)
        assert (g.n, g.m) == (1, 0)

    def test_unknown_vertex_type(self, tmp_path):
        vf = write(tmp_path / "v.csv", "id,type,props\nx,Ghost,\n")
        ef = write(tmp_path / "e.csv", "id,src,dst,label,props\n")
        with pytest.raises(UnknownVertexTypeError) as exc:
            load_graph(vf, ef, LINEAGE_SCHEMA)
        assert exc.value.line == 2

    def test_dangling_endpoint(self, tmp_path):
        vf = write(tmp_path / "v.csv", "id,type,props\nj1,Job,\n")
        ef = write(tmp_path / "e.csv",
                   "id,src,dst,label,props\ne1,j1,nope,WRITES_TO,\n")
        with pytest.raises(DanglingEdgeEndpointError):
            load_graph(vf, ef, LINEAGE_SCHEMA)

    def test_duplicate_vertex_id(self, tmp_path):
        vf = write(tmp_path / "v.csv", "id,type,props\nj1,Job,\nj1,Job,\n")
        ef = write(tmp_path / "e.csv", "id,src,dst,label,props\n")
        with pytest.raises(DuplicateIdError) as exc:
            load_graph(vf, ef, LINEAGE_SCHEMA)
        assert exc.value.line == 3

    def test_malformed_row(self, tmp_path):
        vf = write(tmp_path / "v.csv", "id,type,props\nj1,Job\n")
        ef = write(tmp_path / "e.csv", "id,src,dst,label,props\n")
        with pytest.raises(MalformedRowError):
            load_graph(vf, ef, LINEAGE_SCHEMA)

    def test_bad_props_json(self, tmp_path):
        vf = write(tmp_path / "v.csv", "id,type,props\nj1,Job,{broken\n")
        ef = write(tmp_path / "e.csv", "id,src,dst,label,props\n")
        with pytest.raises(MalformedRowError) as exc:
            load_graph(vf, ef, LINEAGE_SCHEMA)
        assert exc.value.line == 2

    def test_multi_edges_permitted(self, tmp_path):
        vf = write(tmp_path / "v.csv", VERTS)
        ef = write(tmp_path / "e.csv",
                   "id,src,dst,label,props\n"
                   "e1,j1,f1,WRITES_TO,\ne2,j1,f1,WRITES_TO,\n")
        g = load_graph(vf, ef, LINEAGE_SCHEMA)
        assert g.m == 2


class TestSchema:
    def test_triple_must_reference_declared_types(self):
        with pytest.raises(ValidationError):
            GraphSchema.of(["A"], [("A", "B", "L")])

    def test_json_round_trip(self):
        s = GraphSchema.from_json(LINEAGE_SCHEMA.to_json())
        assert s == LINEAGE_SCHEMA

    def test_role_types(self, provenance_schema):
        assert provenance_schema.root_types() == frozenset()
        assert provenance_schema.leaf_types() == {"Machine"}
        assert provenance_schema.edge_source_types() == {"Job", "File", "Task"}


class TestDegreeSummary:
    def test_star_graph(self):
        schema = GraphSchema.of(["N"], [("N", "N", "L")])
        g = PropertyGraph.build(
            schema,
            [(f"v{i}", "N", {}) for i in range(5)],
            [(f"e{i}", "v0", f"v{i}", "L", {}) for i in range(1, 5)],
        )
        d = degree_summary(g)
        assert d.n_of("N") == 5
        assert d.deg("N", 100) == 4
        assert d.deg("N", 50) == 0

    def test_constant_out_degree(self):
        schema = GraphSchema.of(["N"], [("N", "N", "L")])
        g = PropertyGraph.build(
            schema,
            [(f"v{i}", "N", {}) for i in range(4)],
            [(f"e{i}", f"v{i}", f"v{(i + 1) % 4}", "L", {}) for i in range(4)],
        )
        d = degree_summary(g)
        for alpha in (50, 90, 95, 100):
            assert d.deg("N", alpha) == 1

    def test_toy_lineage(self, toy_lineage):
        d = degree_summary(toy_lineage)
        assert d.n_of("Job") == 2
        assert d.deg("Job", 100) == 1
        assert d.n_of("File") == 1
        assert d.deg("File", 100) == 1

    def test_counts_sum_to_n(self):
        g = random_lineage_dag(7)
        d = degree_summary(g)
        assert sum(td.vertex_count for td in d.per_type.values()) == g.n

    def test_percentiles_monotone_and_max_exact(self):
        for seed in range(10):
            g = random_lineage_dag(seed)
            d = degree_summary(g)
            for vtype, td in d.per_type.items():
                degs = sorted(len(g.out_edges(v)) for v in g.vertices_of_type(vtype))
                assert td.deg(50) <= td.deg(90) <= td.deg(95) <= td.deg(100)
                assert td.deg(100) == (degs[-1] if degs else 0)
                assert td.vertex_count == len(degs)

    def test_empty_type(self):
        g = PropertyGraph.build(LINEAGE_SCHEMA, [("j1", "Job", {})], [])
        d = degree_summary(g)
        assert d.n_of("File") == 0
        assert d.deg("File", 100) == 0

    def test_nearest_rank(self):
        assert nearest_rank([0, 0, 0, 0, 4], 50) == 0
        assert nearest_rank([0, 0, 0, 0, 4], 100) == 4
        assert nearest_rank([1, 2, 3, 4], 50) == 2
        assert nearest_rank([], 95) == 0


def out_pairs(g, vid, label=None):
    return [(eid, dst) for eid, dst, _, _ in g.out_edges(vid, label)]


class TestOutNeighbors:
    """Outgoing (edge id, neighbour) pairs, through ``out_edges``."""

    def test_star_hub_and_leaf(self):
        schema = GraphSchema.of(["N"], [("N", "N", "L")])
        g = PropertyGraph.build(
            schema,
            [(f"v{i}", "N", {}) for i in range(5)],
            [(f"e{i}", "v0", f"v{i}", "L", {}) for i in range(1, 5)],
        )
        assert len(g.out_edges("v0")) == 4
        assert g.out_edges("v1") == []

    def test_label_filter(self, toy_lineage):
        assert out_pairs(toy_lineage, "j1", "WRITES_TO") == [("e1", "f1")]
        assert toy_lineage.out_edges("j1", "IS_READ_BY") == []

    def test_unknown_vertex(self, toy_lineage):
        with pytest.raises(UnknownVertexError):
            toy_lineage.out_edges("ghost")

    def test_order_is_ascending_edge_id(self):
        schema = GraphSchema.of(["N"], [("N", "N", "L")])
        g = PropertyGraph.build(
            schema,
            [("a", "N", {}), ("b", "N", {}), ("c", "N", {})],
            [("e9", "a", "b", "L", {}), ("e1", "a", "c", "L", {})],
        )
        assert out_pairs(g, "a") == [("e1", "c"), ("e9", "b")]


class TestComponents:
    def test_sorted_groups_in_root_order(self):
        # a link (x, y) hangs x's root under y's, so {a, c} has root a
        # and comes before {b}; eval_cost sums components in this order
        assert components("abc", [("c", "a")]) == [["a", "c"], ["b"]]
        assert components("dcba", [("d", "a"), ("b", "c"), ("a", "c")]) == [
            ["a", "b", "c", "d"]]
        assert components([], []) == []


class TestVertexLookup:
    def test_vertices_with_id_matches_full_scan(self):
        schema = GraphSchema.of(["N", "M"], [("N", "M", "L")])
        g = PropertyGraph.build(
            schema,
            [("a", "N", {"id": "b"}), ("b", "M", {}), ("c", "N", {"id": "a"}),
             ("d", "M", {"id": 7}), ("e", "N", {"id": "b"})],
            [],
        )
        for want in ("a", "b", "c", "d", "e", "7", "ghost"):
            scan = [v for v in g.vertex_ids()
                    if g.vertex_props(v).get("id", v) == want]
            assert g.vertices_with_id(want) == scan, want
        assert g.vertices_with_id("b") == ["a", "b", "e"]


class TestAcyclicity:
    SCHEMA = GraphSchema.of(["A", "B", "C"], [("A", "B", "L"), ("B", "C", "L"),
                                              ("C", "B", "L")])

    def graph(self, edges):
        vertices = [("a", "A", {}), ("b", "B", {}), ("c", "C", {}),
                    ("b2", "B", {})]
        return PropertyGraph.build(
            self.SCHEMA, vertices,
            [(f"e{i}", s, d, "L", {}) for i, (s, d) in enumerate(edges)])

    def test_types_on_schema_cycles(self):
        assert self.SCHEMA.types_on_cycles() == {"B", "C"}
        assert LINEAGE_SCHEMA.types_on_cycles() == {"Job", "File"}

    def test_edges_into_the_cyclic_types(self):
        assert self.graph([("a", "b"), ("b", "c"), ("c", "b2")]).is_acyclic
        assert not self.graph([("a", "b"), ("b", "c"), ("c", "b")]).is_acyclic
        assert self.graph([]).is_acyclic

    def test_matches_cycle_search(self):
        from test_costing import random_conforming_graph
        kinds = set()
        for seed in range(60):
            g = random_conforming_graph(seed, max_n=12)
            assert g.is_acyclic == (not has_cycle(g)), seed
            kinds.add(g.is_acyclic)
        assert kinds == {True, False}


class TestInvariants:
    def test_schema_closure_full_scan(self):
        g = random_lineage_dag(3)
        for _, src, dst, label, _ in g.edges():
            triple = (g.vertex_type(src), g.vertex_type(dst), label)
            assert g.schema.has_triple(*triple)

    def test_reload_idempotence(self, tmp_path):
        g = random_lineage_dag(11)
        vf, ef = tmp_path / "v.csv", tmp_path / "e.csv"
        g.export_csv(vf, ef)
        g2 = load_graph(vf, ef, g.schema)
        assert dict((v, (t, p)) for v, t, p in g.vertices()) == \
            dict((v, (t, p)) for v, t, p in g2.vertices())
        assert sorted(g.edges()) == sorted(g2.edges())

    def test_degree_summary_recount(self):
        g = random_lineage_dag(5)
        d = degree_summary(g)
        for vtype in g.schema.vertex_types:
            vs = g.vertices_of_type(vtype)
            assert d.n_of(vtype) == len(vs)
            assert d.deg(vtype, 100) == max((len(g.out_edges(v)) for v in vs),
                                           default=0)


class TestDerive:
    """``derive`` re-checks what a view adds to a valid base graph."""

    SCHEMA = GraphSchema.of(["N", "M"], [("N", "N", "L"), ("N", "M", "L")])

    def base(self):
        return PropertyGraph.build(
            self.SCHEMA, [("a", "N", {"w": 1}), ("b", "N", {}), ("m", "M", {})],
            [("e0", "a", "b", "L", {"w": 2}), ("e1", "b", "m", "L", {})])

    def test_inherits_ids_labels_and_copies_of_props(self):
        g = self.base()
        view = PropertyGraph.derive(g, self.SCHEMA, [1, ("s", "N", {"x": 3}), 0],
                                    [2, 1], [0, 0], [0, ("n0", "L", {"y": 1.5})])
        assert list(view.vertices()) == [("b", "N", {}), ("s", "N", {"x": 3}),
                                         ("a", "N", {"w": 1})]
        assert list(view.edges()) == [("e0", "a", "b", "L", {"w": 2}),
                                      ("n0", "s", "b", "L", {"y": 1.5})]
        assert view.vertex_props("a") is not g.vertex_props("a")
        assert view.edge_props("e0") is not g.edge_props("e0")
        assert view.type_counts() == {"N": 3, "M": 0}

    def test_vertex_type_outside_the_view_schema(self):
        narrow = GraphSchema.of(["N"], [("N", "N", "L")])
        with pytest.raises(UnknownVertexTypeError, match="'m'"):
            PropertyGraph.derive(self.base(), narrow, [0, 2], [], [], [])

    def test_triple_outside_the_view_schema(self):
        with pytest.raises(UnknownEdgeTripleError, match="'e9'.*\\(M, N, L\\)"):
            PropertyGraph.derive(self.base(), self.SCHEMA, [0, 1, 2], [0, 2],
                                 [1, 0], [0, ("e9", "L", {})])

    def test_duplicate_ids(self):
        g = self.base()
        with pytest.raises(DuplicateIdError, match="vertex id 'a'"):
            PropertyGraph.derive(g, self.SCHEMA, [0, ("a", "N", {})], [], [], [])
        with pytest.raises(DuplicateIdError, match="edge id 'e0'"):
            PropertyGraph.derive(g, self.SCHEMA, [0, 1], [0, 0], [1, 1],
                                 [0, ("e0", "L", {})])

    @pytest.mark.parametrize("props", [{"w": float("inf")}, {"w": [1]}, {"": 1}])
    def test_created_props_are_checked(self, props):
        g = self.base()
        with pytest.raises(MalformedRowError, match="vertex 's'"):
            PropertyGraph.derive(g, self.SCHEMA, [("s", "N", props)], [], [], [])
        with pytest.raises(MalformedRowError, match="edge 'n0'"):
            PropertyGraph.derive(g, self.SCHEMA, [0, 1], [0], [1],
                                 [("n0", "L", props)])
