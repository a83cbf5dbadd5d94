import csv
import random

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
from graphviews.generate import (
    generate_lineage,
    generate_power_law,
    generate_road_like,
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
from oracles import has_cycle, reference_build, reference_load


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


V3 = "id,type,props\nj1,Job,\nj2,Job,\nf1,File,\n"


class TestFirstViolation:
    """The error raised is the one of the lowest row; within a row, the
    column count, the props JSON, the id, the duplicate id, the type or
    the source, the destination and the triple, the props values, then
    an edge's path_count."""

    @pytest.mark.parametrize("vertices, edges, error, text, line", [
        ("id,type,props\n,Ghost,{broken\n", "", MalformedRowError, "bad props JSON", 2),
        ("id,type,props\n,Ghost\n", "", MalformedRowError, "expected 3 columns", 2),
        ("id,type,props\n,Ghost,\n", "", MalformedRowError, "vertex id must be", 2),
        ("id,type,props\nj1,Job,\nj1,Ghost,[1]\n", "", MalformedRowError,
         "must be a JSON object", 3),
        ("id,type,props\nj1,Job,\nj1,Ghost,\n", "", DuplicateIdError, "'j1'", 3),
        ('id,type,props\nx,Ghost,"{""a"": NaN}"\n', "", UnknownVertexTypeError, "'x'", 2),
        ('id,type,props\nj1,Job,"{""a"": NaN}"\n\nx,Ghost,\n', "", MalformedRowError,
         "vertex 'j1': non-finite float property 'a'", 2),
        ('id,type,props\nj1,Job,\n\n\nx,Ghost,\nj2\n', "", UnknownVertexTypeError,
         "'x'", 5),
        ('id,type,props\nx,Ghost,\n', "id,src\n", UnknownVertexTypeError, "'x'", 2),
        (V3, "id,src,dst,label,props\n,nope,nada,X,\n", MalformedRowError,
         "edge id must be", 2),
        (V3, "id,src,dst,label,props\ne1,j1,f1,WRITES_TO,\ne1,nope,f1,X,\n",
         DuplicateIdError, "'e1'", 3),
        (V3, "id,src,dst,label,props\ne1,nope,nada,X,\n", DanglingEdgeEndpointError,
         "source vertex 'nope'", 2),
        (V3, "id,src,dst,label,props\ne1,j1,nada,X,\n", DanglingEdgeEndpointError,
         "destination vertex 'nada'", 2),
        (V3, 'id,src,dst,label,props\ne1,f1,j1,WRITES_TO,"{""a"": NaN}"\n',
         UnknownEdgeTripleError, "(File, Job, WRITES_TO)", 2),
        (V3, 'id,src,dst,label,props\n\ne1,j1,f1,WRITES_TO,"{"""": 1}"\n'
         "e2,nope,f1,WRITES_TO,\n", MalformedRowError, "edge 'e1': property keys", 3),
        (V3, "id,src,dst,label,props\ne1,f1,j1,WRITES_TO,\ne2,j1,f1,{\n",
         UnknownEdgeTripleError, "'e1'", 2),
        ("id,type,props\n", "id,src,dst,label,props\ne1,a,b,L,\n",
         DanglingEdgeEndpointError, "source vertex 'a'", 2),
        (V3, 'id,src,dst,label,props\ne1,j1,f1,WRITES_TO,"{""path_count"": 0}"\n'
         "e1,j1,f1,WRITES_TO,\n", MalformedRowError,
         "edge 'e1': path_count must be a positive integer, got 0", 2),
        (V3, 'id,src,dst,label,props\ne1,j1,f1,WRITES_TO,'
         '"{""path_count"": 1.5, """": 1}"\n', MalformedRowError,
         "edge 'e1': property keys", 2),
        (V3, 'id,src,dst,label,props\ne1,f1,j1,WRITES_TO,"{""path_count"": 0}"\n',
         UnknownEdgeTripleError, "(File, Job, WRITES_TO)", 2),
    ])
    def test_first_violation(self, tmp_path, vertices, edges, error, text, line):
        vf = write(tmp_path / "v.csv", vertices)
        ef = write(tmp_path / "e.csv", edges)
        with pytest.raises(error, match=text.replace("(", r"\(").replace(")", r"\)")) as exc:
            load_graph(vf, ef, LINEAGE_SCHEMA)
        assert type(exc.value) is error
        assert exc.value.line == line


    @pytest.mark.parametrize("ghost", [False, True])
    def test_a_violation_comes_before_an_unreadable_byte(self, tmp_path, ghost):
        rows = "".join(f"v{i},Job,\n" for i in range(2000))
        vf = tmp_path / "v.csv"
        vf.write_bytes(("id,type,props\n" + ("x,Ghost,\n" if ghost else "") + rows
                        ).encode() + b"y,Job,\xff\n")
        ef = write(tmp_path / "e.csv", "id,src,dst,label,props\n")
        with pytest.raises(UnknownVertexTypeError if ghost else UnicodeDecodeError):
            reference_load(vf, ef, LINEAGE_SCHEMA)
        with pytest.raises(UnknownVertexTypeError if ghost else UnicodeDecodeError):
            load_graph(vf, ef, LINEAGE_SCHEMA)

class TestPropsCells:
    @pytest.mark.parametrize("cell, props", [
        ("   ", {}),
        ('" {""a"": 1} "', {"a": 1}),
        ('"{""a"":1,""a"":2}"', {"a": 2}),
        ('"{""a"": 1.5, ""b"": true, ""c"": ""x""}"', {"a": 1.5, "b": True, "c": "x"}),
    ])
    def test_cells_that_parse(self, tmp_path, cell, props):
        vf = write(tmp_path / "v.csv", f"id,type,props\nj1,Job,{cell}\n")
        ef = write(tmp_path / "e.csv", f"id,src,dst,label,props\ne1,j1,j1,L,{cell}\n")
        schema = GraphSchema.of(["Job"], [("Job", "Job", "L")])
        g = load_graph(vf, ef, schema)
        assert g.vertex_props("j1") == props
        assert g.edge_props("e1") == props

    @pytest.mark.parametrize("cell, text", [
        ("[1]", "props must be a JSON object"),
        ('"{""a"": 1}}"', "bad props JSON: Extra data"),
        ('"{""a"": 1"', "bad props JSON: Expecting ',' delimiter"),
    ])
    def test_cells_that_do_not(self, tmp_path, cell, text):
        vf = write(tmp_path / "v.csv", f"id,type,props\nj1,Job,\nj2,Job,{cell}\n")
        ef = write(tmp_path / "e.csv", "id,src,dst,label,props\n")
        with pytest.raises(MalformedRowError, match=text) as exc:
            load_graph(vf, ef, LINEAGE_SCHEMA)
        assert exc.value.line == 3

    @pytest.mark.parametrize("value", ["NaN", "-Infinity", "1e400"])
    def test_non_finite_floats_name_the_row(self, tmp_path, value):
        cell = f'"{{""a"": {value}}}"'
        vf = write(tmp_path / "v.csv", f"id,type,props\nj1,Job,\nj2,Job,{cell}\n")
        ef = write(tmp_path / "e.csv", "id,src,dst,label,props\n")
        with pytest.raises(MalformedRowError, match="vertex 'j2': non-finite") as exc:
            load_graph(vf, ef, LINEAGE_SCHEMA)
        assert exc.value.line == 3
        vf = write(tmp_path / "v.csv", VERTS)
        ef = write(tmp_path / "e.csv", "id,src,dst,label,props\n"
                   f"e1,j1,f1,WRITES_TO,\ne2,j1,f1,WRITES_TO,{cell}\n")
        with pytest.raises(MalformedRowError, match="edge 'e2': non-finite") as exc:
            load_graph(vf, ef, LINEAGE_SCHEMA)
        assert exc.value.line == 3

    def test_types_and_labels_are_interned(self, tmp_path):
        g = random_lineage_dag(2)
        g.export_csv(tmp_path / "v.csv", tmp_path / "e.csv")
        for h in (g, load_graph(tmp_path / "v.csv", tmp_path / "e.csv", g.schema)):
            assert len({id(t) for t in h._vtypes}) == len(set(h._vtypes)) == 2
            assert len({id(x) for x in h._elabel}) == len(set(h._elabel)) == 2


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
            assert triple in g.schema.edge_types

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


    def test_created_counts_are_kept_apart_and_checked(self):
        g = self.base()
        view = PropertyGraph.derive(g, self.SCHEMA, [0, 1], [0, 0], [1, 1],
                                    [("n0", "L", {}), ("n1", "L", {"w": 1})], [2, 3])
        assert list(view.edges()) == [("n0", "a", "b", "L", {"path_count": 2}),
                                      ("n1", "a", "b", "L", {"path_count": 3, "w": 1})]
        assert view._path_counts == [2, 3]
        sub = PropertyGraph.derive(view, self.SCHEMA, [1, 0], [1], [0], [1])
        assert list(sub.edges()) == [("n1", "a", "b", "L", {"path_count": 3, "w": 1})]
        assert sub._path_counts == [3]
        for bad in (0, "2", True, 1.5):
            with pytest.raises(MalformedRowError, match="edge 'n1': path_count"):
                PropertyGraph.derive(g, self.SCHEMA, [0, 1], [0, 0], [1, 1],
                                     [("n0", "L", {}), ("n1", "L", {})], [1, bad])


def columns(g):
    return {"vids": g._vids, "vtypes": g._vtypes, "vprops": g._vprops,
            "eids": g._eids, "esrc": g._esrc, "edst": g._edst,
            "elabel": g._elabel, "eprops": g._eprops}


def outcome(make):
    """The columns ``make`` gives, or the class, message and line of the
    validation error it raises."""
    try:
        made = make()
    except ValidationError as exc:
        return type(exc), exc.args, exc.line
    return made if isinstance(made, dict) else columns(made)


DATASETS = {
    "lineage": lambda out: generate_lineage(out, 0, jobs=8, files=12),
    "provenance": lambda out: generate_lineage(out, 0, jobs=6, files=10, tasks=8,
                                               machines=4, stem="provenance"),
    "road": lambda out: generate_road_like(out, 1, 5, 5),
    "power_law": lambda out: generate_power_law(out, 2, 30),
}

BAD_JSON = ["{broken", '{"a": 1', '{"a": 1}}', '{"a" 1}', "{]", "{'a': 1}",
            '{"a": 1} {"b": 2}']
NOT_AN_OBJECT = ["[1]", "3", '"x"', "null", "true"]
BAD_VALUES = ['{"a": NaN}', '{"a": 1e400}', '{"a": -Infinity}', '{"a": [1]}',
              '{"": 1}', '{"a": null}', '{"a": {"b": 1}}']
# bad as an edge's path_count, which no vertex has
BAD_COUNTS = ['{"path_count": 0}', '{"path_count": "2"}', '{"path_count": true}',
              '{"path_count": 1.5}', '{"a": 1, "path_count": -3}']
GOOD_CELLS = ["  ", ' {"a": 1} ', '{"a":1,"a":2}', '{"a": 1.5}', '{"a": true}',
              "{}", '{"a": "x, \\"y\\"", "b": -2}', '{"a": 1e308}']


class TestIngestMatchesReference:
    """``load_graph`` and ``build`` check all rows in bulk; on seeded
    mutations of valid inputs they must give the columns, or the error
    class, message and line, of the row-by-row reference loader."""

    FAULTS = {"vertices": ["width", "empty id", "duplicate id", "type", "json",
                           "value", "count", "good"],
              "edges": ["width", "empty id", "duplicate id", "endpoint", "triple",
                        "json", "value", "count", "good"]}

    def mutate(self, rng, files, last):
        """One fault in a vertex or edge row; half the time in the row the
        previous fault in that file went to, so rows get two faults."""
        kind = rng.choice(["vertices", "edges"])
        header, rows = files[kind]
        if not rows:
            return
        if kind not in last or rng.random() < 0.5:
            last[kind] = rng.randrange(len(rows))
        row = rows[last[kind]]
        what = rng.choice(self.FAULTS[kind])
        if what == "width":
            if rng.random() < 0.5:
                row.append("x")
            else:
                row.pop(rng.randrange(len(row)))
        elif what == "empty id":
            row[0] = ""
        elif what == "duplicate id":
            row[0] = rng.choice(rows)[0]
        elif what == "type":
            row[1] = "Ghost"
        elif what == "endpoint":
            for at in rng.choice([[1], [2], [1, 2]]):
                row[at] = "nowhere"
        elif what == "triple":
            if rng.random() < 0.5:
                row[1], row[2] = row[2], row[1]
            else:
                row[3] = rng.choice(["NOPE", "WRITES_TO", "IS_READ_BY", "ROAD"])
        else:
            row[-1] = rng.choice({"json": BAD_JSON + NOT_AN_OBJECT,
                                  "value": BAD_VALUES, "count": BAD_COUNTS,
                                  "good": GOOD_CELLS}[what])

    @pytest.mark.parametrize("name", sorted(DATASETS))
    def test_load_graph(self, tmp_path, name):
        ds = DATASETS[name](tmp_path)
        originals = {}
        for kind, path in (("vertices", ds.vertex_file), ("edges", ds.edge_file)):
            with open(path, newline="", encoding="utf-8") as fh:
                header, *rows = csv.reader(fh)
            originals[kind] = (header, rows)
        seen = set()
        for seed in range(150):
            rng = random.Random(seed)
            files = {kind: (header, [list(row) for row in rows])
                     for kind, (header, rows) in originals.items()}
            last = {}
            for _ in range(rng.choice([0, 1, 1, 2, 2, 3])):
                self.mutate(rng, files, last)
            for _ in range(rng.choice([0, 0, 1, 3])):
                header, rows = files[rng.choice(["vertices", "edges"])]
                rows.insert(rng.randrange(len(rows) + 1), [])
            if rng.random() < 0.03:
                kind = rng.choice(["vertices", "edges"])
                files[kind] = (files[kind][0][:-1], files[kind][1])
            vf, ef = tmp_path / "mv.csv", tmp_path / "me.csv"
            for path, (header, rows) in ((vf, files["vertices"]), (ef, files["edges"])):
                with open(path, "w", newline="", encoding="utf-8") as fh:
                    csv.writer(fh, lineterminator="\n").writerows([header, *rows])
            want = outcome(lambda: reference_load(vf, ef, ds.schema))
            got = outcome(lambda: load_graph(vf, ef, ds.schema))
            assert got == want, (name, seed)
            seen.add(want[0] if isinstance(want, tuple) else "ok")
        assert "ok" in seen and MalformedRowError in seen and len(seen) >= 4, seen

    @pytest.mark.parametrize("name", sorted(DATASETS))
    def test_build(self, tmp_path, name):
        ds = DATASETS[name](tmp_path)
        valid = reference_load(ds.vertex_file, ds.edge_file, ds.schema)
        vids = valid["vids"]
        vertices = [list(v) for v in zip(vids, valid["vtypes"], valid["vprops"])]
        edges = [list(e) for e in zip(valid["eids"], [vids[i] for i in valid["esrc"]],
                                      [vids[i] for i in valid["edst"]],
                                      valid["elabel"], valid["eprops"])]
        bad_props = [{"a": float("nan")}, {"a": float("inf")}, {"a": [1]}, {"": 1},
                     {1: 2}, {"a": None}, {"a": 1.5, "b": float("-inf")},
                     {"path_count": 0}, {"path_count": True}, {"path_count": 2.0}]
        good_props = [{"a": 1.5}, {"a": True}, {}, {"a": "x"}]
        seen = set()
        for seed in range(60):
            rng = random.Random(seed)
            vs, es = [list(v) for v in vertices], [list(e) for e in edges]
            r = None
            for _ in range(rng.choice([0, 1, 2, 2, 3])):
                rows = rng.choice([vs, es])
                r = r if r is not None and r < len(rows) and rng.random() < 0.5 \
                    else rng.randrange(len(rows))
                row = rows[r]
                what = rng.choice(["empty id", "duplicate id", "type", "props",
                                   "props", "good"])
                if what == "empty id":
                    row[0] = ""
                elif what == "duplicate id":
                    row[0] = rng.choice(rows)[0]
                elif what == "type" and rows is vs:
                    row[1] = "Ghost"
                elif what == "type":
                    row[rng.choice([1, 2, 3])] = "nowhere"
                else:
                    row[-1] = rng.choice(bad_props if what == "props" else good_props)
            want = outcome(lambda: reference_build(ds.schema, vs, es))
            got = outcome(lambda: PropertyGraph.build(ds.schema, vs, es))
            assert got == want, (name, seed)
            seen.add(want[0] if isinstance(want, tuple) else "ok")
        assert "ok" in seen and MalformedRowError in seen and len(seen) >= 4, seen
