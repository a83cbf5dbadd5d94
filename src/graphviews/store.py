"""In-memory directed typed property graph with schema validation.

Graphs are immutable after construction. Vertex and edge ids are
caller-supplied strings; internally they are mapped to dense integers so
traversal works on arrays. Multi-edges (same source, destination and
label) are permitted.

CSV formats:
    vertices: header ``id,type,props`` where props is a JSON object
        string or empty.
    edges: header ``id,src,dst,label,props``.
Schema JSON:
    ``{"vertex_types": [...], "edge_types": [{"src":..,"dst":..,"label":..}]}``
"""

from __future__ import annotations

import csv
import json
import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, islice
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Mapping

from .errors import (
    DanglingEdgeEndpointError,
    DomainError,
    DuplicateIdError,
    MalformedRowError,
    UnknownEdgeTripleError,
    UnknownVertexError,
    UnknownVertexTypeError,
    ValidationError,
)

PropertyValue = int | float | str | bool
PropertyMap = dict[str, PropertyValue]

PERCENTILE_ALPHAS = (50, 90, 95, 100)

# the number of contracted paths an edge stands for (1 when absent); a
# view given its counts keeps them apart from its maps (PropertyGraph._props)
PATH_COUNT_PROP = "path_count"


def _props_fault(props: PropertyMap) -> str | None:
    """What is wrong with one props map, or None when nothing is."""
    for key, value in props.items():
        if not isinstance(key, str) or not key:
            return "property keys must be non-empty strings"
        if isinstance(value, float):
            if not math.isfinite(value):
                return f"non-finite float property {key!r}"
        elif not isinstance(value, (int, str)):
            return f"property {key!r} must be int, float, string or bool"
    return None


_PLAIN_VALUE_TYPES = frozenset((int, str, bool))


def _bad_props(kind: str, ids: list, maps: list[PropertyMap],
               rows: Iterable[int] | None = None
               ) -> tuple[int, ValidationError] | None:
    """The first of the maps of ``rows`` (default all) whose keys are not
    all non-empty strings or whose values are not all ints, finite
    floats, strings or bools, as (row, error); the maps of other rows
    must be valid already. One scan of the distinct key and value types
    of all maps clears the common case; only when it finds a float or an
    odd key or value are the maps walked one by one."""
    keys = set(chain.from_iterable(maps))
    if ("" not in keys and all(type(k) is str for k in keys)
            and set(map(type, chain.from_iterable(map(dict.values, maps))))
            <= _PLAIN_VALUE_TYPES):
        return None
    for row in range(len(maps)) if rows is None else rows:
        fault = _props_fault(maps[row])
        if fault:
            return row, MalformedRowError(f"{kind} {ids[row]!r}: {fault}")
    return None


def _path_count_column(maps: list[PropertyMap]) -> list[int] | None:
    """The path_count of every edge map (1 where absent), or None when no
    map has one."""
    if any(PATH_COUNT_PROP in props for props in maps):
        return [props.get(PATH_COUNT_PROP, 1) for props in maps]
    return None


def _bad_count(ids: list, counts: list) -> tuple[int, ValidationError] | None:
    """The first count that is not a positive int (bools excluded) as
    (row, error), or None."""
    if set(map(type, counts)) == {int} and min(counts) > 0:
        return None
    row = next(i for i, c in enumerate(counts) if type(c) is not int or c < 1)
    return row, MalformedRowError(f"edge {ids[row]!r}: {PATH_COUNT_PROP} "
                                  f"must be a positive integer, got {counts[row]!r}")


def _created(items: list) -> Iterator[int]:
    """The positions of ``derive``'s created vertices or edges: those
    given as tuples, not as base indexes."""
    return (i for i, x in enumerate(items) if type(x) is not int)


def _index(ids: list, kind: str
           ) -> tuple[dict, tuple[int, ValidationError] | None]:
    """{id: position}, and the first id that repeats an earlier one as
    (row, error), or None."""
    index = dict(zip(ids, range(len(ids))))
    if len(index) == len(ids):
        return index, None
    seen: set = set()
    row = next(i for i, x in enumerate(ids) if x in seen or seen.add(x))
    return index, (row, DuplicateIdError(f"duplicate {kind} id {ids[row]!r}"))


def _empty_id(ids: list, kind: str) -> tuple[int, ValidationError] | None:
    """The first empty id as (row, error), or None."""
    if all(ids):
        return None
    row = next(i for i, x in enumerate(ids) if not x)
    return row, MalformedRowError(f"{kind} id must be non-empty")


def _raise_first(violations, blanks: list[int] | None = None):
    """Raise the violation of the lowest row, and of the first check
    among a row's; ``violations`` holds each check's first (row, error),
    or None, in check order. ``blanks`` counts the rows read before each
    blank line of a CSV file, whose 1-based line numbers the errors then
    carry: the header is line 1."""
    found = [v for v in violations if v]
    if found:
        row, error = min(found, key=itemgetter(0))
        if blanks is not None:
            error.line = row + 2 + bisect_right(blanks, row)
        raise error


@dataclass(frozen=True)
class GraphSchema:
    """Allowed vertex types and (src type, dst type, label) edge triples."""

    vertex_types: frozenset[str]
    edge_types: frozenset[tuple[str, str, str]]
    # what other layers derive from this schema alone, kept with this
    # instance (``mining.schema_index``, the plans of
    # ``enumeration.rewrite_with_view``); not part of equality or hashing
    memo: dict = field(default_factory=dict, init=False, repr=False,
                       compare=False)

    def __post_init__(self):
        for name in self.vertex_types:
            if not name:
                raise ValidationError("vertex type names must be non-empty")
        for src, dst, label in self.edge_types:
            if not label:
                raise ValidationError("edge labels must be non-empty")
            if src not in self.vertex_types or dst not in self.vertex_types:
                raise ValidationError(
                    f"edge triple ({src}, {dst}, {label}) references undeclared vertex type"
                )

    @classmethod
    def of(cls, vertex_types: Iterable[str],
           edge_types: Iterable[tuple[str, str, str]]) -> "GraphSchema":
        return cls(frozenset(vertex_types), frozenset(tuple(t) for t in edge_types))

    def labels(self) -> frozenset[str]:
        return frozenset(label for _, _, label in self.edge_types)

    def edge_source_types(self) -> frozenset[str]:
        """Types that are the source of at least one edge triple."""
        return frozenset(src for src, _, _ in self.edge_types)

    def edge_target_types(self) -> frozenset[str]:
        """Types that are the destination of at least one edge triple."""
        return frozenset(dst for _, dst, _ in self.edge_types)

    def types_on_cycles(self) -> frozenset[str]:
        """Types from which some chain of edge triples leads back to the
        same type. Every vertex on a cycle of a conforming graph has one."""
        succ: dict[str, set[str]] = {}
        for src, dst, _ in self.edge_types:
            succ.setdefault(src, set()).add(dst)
        on_cycle = set()
        for vtype in self.vertex_types:
            seen: set[str] = set()
            stack = list(succ.get(vtype, ()))
            while stack:
                t = stack.pop()
                if t == vtype:
                    on_cycle.add(vtype)
                    break
                if t not in seen:
                    seen.add(t)
                    stack.extend(succ.get(t, ()))
        return frozenset(on_cycle)

    def root_types(self) -> frozenset[str]:
        """Types with no incoming edge triple (sources in the schema graph)."""
        return self.vertex_types - self.edge_target_types()

    def leaf_types(self) -> frozenset[str]:
        """Types with no outgoing edge triple (sinks in the schema graph)."""
        return self.vertex_types - self.edge_source_types()

    def to_json(self) -> str:
        return json.dumps(
            {
                "vertex_types": sorted(self.vertex_types),
                "edge_types": [
                    {"src": s, "dst": d, "label": l}
                    for s, d, l in sorted(self.edge_types)
                ],
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "GraphSchema":
        try:
            raw = json.loads(text)
            vertex_types = raw["vertex_types"]
            edge_types = [(e["src"], e["dst"], e["label"]) for e in raw["edge_types"]]
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise ValidationError(f"malformed schema JSON: {exc}") from exc
        return cls.of(vertex_types, edge_types)

    @classmethod
    def load(cls, path: str | Path) -> "GraphSchema":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))


class PropertyGraph:
    """Directed typed property graph, schema-valid by construction.

    It has three constructors: :meth:`build` validates (id, type, props)
    and (id, src, dst, label, props) tuples, :func:`load_graph` does the
    same for CSV rows, and :meth:`derive` makes a view graph from a
    graph that is already valid, re-checking only what the view adds.
    ``build`` and ``load_graph`` share one validator: they fill the
    column arrays first, then check every row in bulk and raise the
    violation a row-by-row check would meet first.
    Out-adjacency is exposed in ascending external edge id order, which
    makes every traversal deterministic.
    """

    def __init__(self, schema: GraphSchema):
        self.schema = schema
        self._vids: list[str] = []            # internal index -> external id
        self._vindex: dict[str, int] = {}     # external id -> internal index
        self._vtypes: list[str] = []
        self._vprops: list[PropertyMap] = []
        self._eids: list[str] = []
        self._eindex: dict[str, int] = {}
        self._esrc: list[int] = []
        self._edst: list[int] = []
        self._elabel: list[str] = []
        self._eprops: list[PropertyMap] = []
        self._out: list[list[int]] = []       # vertex -> edge internal indexes
        self._in: list[list[int]] = []        # (both set by _seal)
        self._type_counts: dict[str, int] = {}
        self._acyclic: bool | None = None
        self._path_counts: list[int] | None = None   # set by the edge checks
        self._counts_apart = False   # _path_counts holds them, no map does
        self._explicit_ids: dict[PropertyValue, list[int]] | None = None
        # filled on first use by step_edges() and selection()
        self._steps: dict[tuple, tuple[list, frozenset[str]]] = {}
        self._selections: dict[tuple[bool, frozenset, frozenset], list] = {}
        self._no_edges: list | None = None   # the selection of no triple
        self._type_members: dict[str, list[int]] = {}   # type -> vertices

    # -- construction -------------------------------------------------

    def _check_vertices(self, blanks: list[int] | None = None):
        """Index the vertex columns, raising the first violation: the
        lowest row, and in a row an empty id, a duplicate id, an
        undeclared type, then bad props."""
        ids = self._vids
        self._vindex, duplicate = _index(ids, "vertex")
        _raise_first([_empty_id(ids, "vertex"), duplicate, self._undeclared_type(),
                      _bad_props("vertex", ids, self._vprops)], blanks)

    def _check_edges(self, dangling: list[tuple[int, str, str]],
                     blanks: list[int] | None = None):
        """Index the edge columns and their path counts, raising the first
        violation: the lowest row, and in a row an empty id, a duplicate
        id, an unknown source, then destination, a triple not in the
        schema, bad props, then a bad path_count. ``dangling`` lists (row,
        src, dst) of every row with an endpoint not a vertex id (index -1)."""
        ids = self._eids
        self._eindex, duplicate = _index(ids, "edge")
        counts = self._path_counts = _path_count_column(self._eprops)
        unknown_end, limit = None, len(ids)
        if dangling:
            row, src, dst = dangling[0]
            end, name = ("source", src) if self._esrc[row] < 0 else ("destination", dst)
            unknown_end = row, DanglingEdgeEndpointError(
                f"edge {ids[row]!r}: unknown {end} vertex {name!r}")
            limit = row
        _raise_first([_empty_id(ids, "edge"), duplicate, unknown_end,
                      self._unknown_triple(limit),
                      _bad_props("edge", ids, self._eprops),
                      counts and _bad_count(ids, counts)], blanks)

    def _undeclared_type(self) -> tuple[int, ValidationError] | None:
        """The first vertex whose type is not in the schema."""
        undeclared = set(self._vtypes) - self.schema.vertex_types
        if not undeclared:
            return None
        row = next(i for i, t in enumerate(self._vtypes) if t in undeclared)
        return row, UnknownVertexTypeError(
            f"vertex {self._vids[row]!r} has undeclared type {self._vtypes[row]!r}")

    def _unknown_triple(self, limit: int) -> tuple[int, ValidationError] | None:
        """The first of the first ``limit`` edges whose (src type, dst
        type, label) is not in the schema, from one set of the triples.
        The rows from the first with an unknown endpoint on are left out:
        their endpoint index may be -1."""
        vtypes = self._vtypes

        def triples():
            return zip(map(vtypes.__getitem__, islice(self._esrc, limit)),
                       map(vtypes.__getitem__, islice(self._edst, limit)), self._elabel)

        unknown = set(triples()) - self.schema.edge_types
        if not unknown:
            return None
        row, (src, dst, label) = next(
            (i, t) for i, t in enumerate(triples()) if t in unknown)
        return row, UnknownEdgeTripleError(
            f"edge {self._eids[row]!r}: triple ({src}, {dst}, {label}) not in schema")

    def _seal(self):
        """Adjacency lists in ascending external edge id order, from one
        sort of all edges; then the per-type vertex counts."""
        out: list[list[int]] = [[] for _ in self._vids]
        inn: list[list[int]] = [[] for _ in self._vids]
        esrc, edst = self._esrc, self._edst
        for ei in sorted(range(len(self._eids)), key=self._eids.__getitem__):
            out[esrc[ei]].append(ei)
            inn[edst[ei]].append(ei)
        self._out, self._in = out, inn
        self._type_counts = dict(Counter(self._vtypes))

    @classmethod
    def build(cls, schema: GraphSchema,
              vertices: Iterable[tuple[str, str, Mapping[str, object]]],
              edges: Iterable[tuple[str, str, str, str, Mapping[str, object]]],
              ) -> "PropertyGraph":
        """Build and validate a graph from (id, type, props) vertices and
        (id, src, dst, label, props) edges, checked as :func:`load_graph`
        checks CSV rows. Raises on the first violation."""
        g = cls(schema)
        names: dict[str, str] = {}
        for vid, vtype, props in vertices:
            g._vids.append(vid)
            g._vtypes.append(names.setdefault(vtype, vtype))
            g._vprops.append(dict(props))
        g._check_vertices()
        vget = g._vindex.get
        dangling: list[tuple[int, str, str]] = []
        for eid, src, dst, label, props in edges:
            si, di = vget(src, -1), vget(dst, -1)
            if si < 0 or di < 0:
                dangling.append((len(g._eids), src, dst))
            g._eids.append(eid)
            g._esrc.append(si)
            g._edst.append(di)
            g._elabel.append(names.setdefault(label, label))
            g._eprops.append(dict(props))
        g._check_edges(dangling)
        g._seal()
        return g

    @classmethod
    def derive(cls, base: "PropertyGraph", schema: GraphSchema,
               vertices: list, esrc: list[int], edst: list[int],
               edges: list, counts: list[int] | None = None) -> "PropertyGraph":
        """A graph over ``schema`` made from the valid graph ``base``.

        ``vertices`` lists its vertices in order, each a base vertex
        index or a created (id, type, props). Edge ``i`` runs from
        ``vertices[esrc[i]]`` to ``vertices[edst[i]]`` and is ``edges[i]``:
        a base edge index (keeping the base edge's id, label, props and
        path count) or a created (id, label, props) of path count
        ``counts[i]`` when ``counts`` is given. When every edge's count is
        apart from its props (given, or kept apart by ``base``), the graph
        keeps them apart too; otherwise its props maps hold them and
        ``counts`` is not read. It owns the created maps, which edges may
        share. Only created props and counts are checked, as :meth:`build`
        checks them. Every vertex type and each distinct (src type, dst
        type, label) triple must be in ``schema``, and vertex and edge ids
        must be unique. Raises the first violation of the first failing
        check, in that order."""
        g = cls(schema)
        vids, vtypes, vprops = g._vids, g._vtypes, g._vprops
        for x in vertices:
            vid, vtype, props = x if type(x) is not int else (
                base._vids[x], base._vtypes[x], dict(base._vprops[x]))
            vids.append(vid)
            vtypes.append(vtype)
            vprops.append(props)
        apart = g._counts_apart = bool(edges) and all(
            base._counts_apart if type(x) is int else counts is not None for x in edges)
        eids, elabel, eprops = g._eids, g._elabel, g._eprops
        for x in edges:
            # the maps of a graph that keeps counts apart are never handed out
            eid, label, props = x if type(x) is not int else (
                base._eids[x], base._elabel[x],
                base._eprops[x] if apart else dict(base._props(x)))
            eids.append(eid)
            elabel.append(label)
            eprops.append(props)
        g._esrc, g._edst = list(esrc), list(edst)
        g._vindex, duplicate_vertex = _index(vids, "vertex")
        g._eindex, duplicate_edge = _index(eids, "edge")
        column = g._path_counts = (
            [base._path_counts[x] if type(x) is int else counts[i]
             for i, x in enumerate(edges)] if apart else _path_count_column(eprops))
        for violation in (_bad_props("vertex", vids, vprops, _created(vertices)),
                          _bad_props("edge", eids, eprops, _created(edges)),
                          column and _bad_count(eids, column), g._undeclared_type(),
                          duplicate_vertex, duplicate_edge,
                          g._unknown_triple(len(eids))):
            if violation:
                raise violation[1]
        g._seal()
        return g

    # -- inspection ---------------------------------------------------

    @property
    def n(self) -> int:
        return len(self._vids)

    @property
    def m(self) -> int:
        return len(self._eids)

    def vertex_ids(self) -> list[str]:
        return list(self._vids)

    def has_vertex(self, vid: str) -> bool:
        return vid in self._vindex

    def vertex_type(self, vid: str) -> str:
        return self._vtypes[self._require(vid)]

    def vertex_props(self, vid: str) -> PropertyMap:
        return self._vprops[self._require(vid)]

    def vertices_of_type(self, vtype: str) -> list[str]:
        return [vid for vid, t in zip(self._vids, self._vtypes) if t == vtype]

    def vertices_with_id(self, value: str) -> list[str]:
        """Vertices whose ``id`` property equals ``value``, in load order.
        A vertex without an explicit ``id`` property has its vertex id as
        its ``id``. The explicit ones are indexed on first use."""
        if self._explicit_ids is None:
            explicit: dict[PropertyValue, list[int]] = {}
            for i, props in enumerate(self._vprops):
                if "id" in props:
                    explicit.setdefault(props["id"], []).append(i)
            self._explicit_ids = explicit
        hits = list(self._explicit_ids.get(value, ()))
        i = self._vindex.get(value)
        if i is not None and "id" not in self._vprops[i]:
            hits.append(i)
            hits.sort()
        return [self._vids[i] for i in hits]

    @property
    def is_acyclic(self) -> bool:
        """True when the graph has no directed cycle (a self-loop is one).
        Computed on first use, then cached, by Kahn's algorithm run
        backwards, O(n + m), over the vertices whose type lies on a cycle
        of the schema: a cycle of the graph passes through no others."""
        if self._acyclic is None:
            on_cycle = self.schema.types_on_cycles()
            vtypes, inn, esrc = self._vtypes, self._in, self._esrc
            members = [v for v, t in enumerate(vtypes) if t in on_cycle]
            out_degree = [0] * len(vtypes)   # read for members only
            for w in members:
                for ei in inn[w]:
                    out_degree[esrc[ei]] += 1
            ready = [v for v in members if not out_degree[v]]
            removed = 0
            while ready:
                w = ready.pop()
                removed += 1
                for ei in inn[w]:
                    u = esrc[ei]
                    if vtypes[u] in on_cycle:
                        out_degree[u] -= 1
                        if not out_degree[u]:
                            ready.append(u)
            self._acyclic = removed == len(members)
        return self._acyclic

    def step_edges(self, forward: bool, labels: frozenset[str] | None,
                   types: frozenset[str] | None, near: frozenset[str] | None
                   ) -> tuple[list, frozenset[str]]:
        """What a step from a vertex of one of the ``near`` types reads: its
        out-edges (in-edges when not ``forward``) with one of ``labels``
        into a vertex of one of ``types``, None standing for any. Every
        edge's triple is checked at load, so those are exactly the edges
        of the schema triples the step picks. Returns their
        :meth:`selection` and the far-end types of the picked triples: the
        near types of the next step. The answer is kept per request (a few
        references each), since every walk asks once per depth."""
        key = forward, labels, types, near
        found = self._steps.get(key)
        if found is None:
            near_at, far_at = (0, 1) if forward else (1, 0)
            picked = frozenset(t for t in self.schema.edge_types
                               if (near is None or t[near_at] in near)
                               and (labels is None or t[2] in labels)
                               and (types is None or t[far_at] in types))
            found = self._steps[key] = (
                self.selection(forward, picked, near),
                frozenset(t[far_at] for t in picked))
        return found

    def selection(self, forward: bool, picked: frozenset[tuple[str, str, str]],
                  near: frozenset[str] | None) -> list:
        """Per vertex, the internal indexes of its out-edges (in-edges when
        not ``forward``) whose (src type, dst type, label) triple is one of
        ``picked``, in ascending external edge id order, for the vertices
        of the ``near`` types (of any type when None); ``picked`` holds
        triples leaving near types only. A vertex of another type, or of a
        near type whose every triple is picked, keeps its whole list, so
        the selection that filters no type is the adjacency itself. The
        other near types' lists are filtered by (label, far-end type),
        which is the triple since the near type is fixed.

        A selection that filters is built on first use and kept under what
        it filters: the partly picked near types and their picked triples.
        So steps that filter alike share one, and a graph keeps at most one
        per direction and such choice, a bound set by the schema, not the
        queries (on provenance, only Job's out-lists are ever filtered).
        Each costs a list of n entries plus the entries it keeps. A step
        that picks no triple keeps nothing from any near vertex, so it
        reads the one all-empty list the graph shares, in which the other
        vertices keep nothing either. Two threads that build one at once
        build equal lists, and the last one stays."""
        near_at = 0 if forward else 1
        partial = frozenset(t[near_at] for t in self.schema.edge_types
                            if (near is None or t[near_at] in near)
                            and t not in picked)
        if not partial:
            return self._out if forward else self._in
        if not picked:
            if self._no_edges is None:
                self._no_edges = [()] * len(self._vids)
            return self._no_edges
        key = forward, partial, picked.intersection(
            t for t in self.schema.edge_types if t[near_at] in partial)
        found = self._selections.get(key)
        if found is None:
            found = self._selections[key] = self._select(*key)
        return found

    def _select(self, forward: bool, partial: frozenset[str],
                kept: frozenset) -> list:
        flat = self._out if forward else self._in
        near_at, far_at = (0, 1) if forward else (1, 0)
        adj = flat.copy()
        elabel, vtypes = self._elabel, self._vtypes
        far = self._edst if forward else self._esrc
        for vtype in partial:
            pairs = {(t[2], t[far_at]) for t in kept if t[near_at] == vtype}
            labels = {label for label, _ in pairs}
            # the label test first: an entry of another label skips the
            # far end's type, a lookup in two more columns; every empty
            # list is the one shared ()
            for v in self._members(vtype):
                adj[v] = [ei for ei in flat[v] if elabel[ei] in labels
                          and (elabel[ei], vtypes[far[ei]]) in pairs] or ()
        return adj

    def _members(self, vtype: str) -> list[int]:
        """The internal indexes of the vertices of ``vtype``, listed on
        first use and kept."""
        found = self._type_members.get(vtype)
        if found is None:
            found = self._type_members[vtype] = [
                v for v, t in enumerate(self._vtypes) if t == vtype]
        return found

    def type_counts(self) -> dict[str, int]:
        counts = {t: 0 for t in self.schema.vertex_types}
        counts.update(self._type_counts)
        return counts

    def edge_props(self, eid: str) -> PropertyMap:
        return self._props(self._eindex[eid])

    def _props(self, ei: int) -> PropertyMap:
        """Edge ``ei``'s props as public reads give them: a new map with its
        count when counts are kept apart, as edges may share a map then."""
        if self._counts_apart:
            return {PATH_COUNT_PROP: self._path_counts[ei], **self._eprops[ei]}
        return self._eprops[ei]

    def _edge_getter(self, key: str):
        """ei -> edge ei's ``key`` as :meth:`_props` has it, or None."""
        if key == PATH_COUNT_PROP and self._counts_apart:
            return self._path_counts.__getitem__
        eprops = self._eprops
        return lambda ei: eprops[ei].get(key)

    def _require(self, vid: str) -> int:
        if vid not in self._vindex:
            raise UnknownVertexError(f"unknown vertex id {vid!r}")
        return self._vindex[vid]

    def out_edges(self, vid: str, label: str | None = None
                  ) -> list[tuple[str, str, str, PropertyMap]]:
        """Outgoing (edge id, dst id, label, props), ascending edge id."""
        return self._adjacent(self._out, self._edst, vid, label)

    def in_edges(self, vid: str, label: str | None = None
                 ) -> list[tuple[str, str, str, PropertyMap]]:
        """Incoming (edge id, src id, label, props), ascending edge id."""
        return self._adjacent(self._in, self._esrc, vid, label)

    def _adjacent(self, adj: list, far: list[int], vid: str, label: str | None):
        eids, vids, elabel = self._eids, self._vids, self._elabel
        return [(eids[ei], vids[far[ei]], elabel[ei], self._props(ei))
                for ei in adj[self._require(vid)]
                if label is None or elabel[ei] == label]

    def edges(self) -> Iterator[tuple[str, str, str, str, PropertyMap]]:
        """Iterate (edge id, src id, dst id, label, props) in load order."""
        for i, eid in enumerate(self._eids):
            yield (eid, self._vids[self._esrc[i]], self._vids[self._edst[i]],
                   self._elabel[i], self._props(i))

    def vertices(self) -> Iterator[tuple[str, str, PropertyMap]]:
        for i, vid in enumerate(self._vids):
            yield vid, self._vtypes[i], self._vprops[i]

    # -- persistence ---------------------------------------------------

    def export_csv(self, vertex_file: str | Path, edge_file: str | Path):
        """Write the graph back out in the load CSV formats, id-sorted."""
        for path, header, rows in (
                (vertex_file, ["id", "type", "props"], self.vertices()),
                (edge_file, ["id", "src", "dst", "label", "props"], self.edges())):
            with open(path, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(header)
                for *row, props in sorted(rows, key=itemgetter(0)):
                    writer.writerow([*row, json.dumps(props, sort_keys=True)
                                     if props else ""])


def induced_subgraph(g: PropertyGraph, schema: GraphSchema,
                     keep: list[int]) -> PropertyGraph:
    """The graph over ``schema`` of ``g``'s vertices ``keep``, in that
    order, and of the edges between them, in load order."""
    at = [-1] * g.n
    for i, v in enumerate(keep):
        at[v] = i
    esrc, edst, edges = [], [], []
    for ei, (s, d) in enumerate(zip(g._esrc, g._edst)):
        if at[s] >= 0 and at[d] >= 0:
            esrc.append(at[s])
            edst.append(at[d])
            edges.append(ei)
    return PropertyGraph.derive(g, schema, keep, esrc, edst, edges)


def components(names: Iterable[str], links: Iterable[tuple[str, str]]
               ) -> list[list[str]]:
    """Connected components of the undirected graph over ``names`` with
    ``links`` as edges, by union-find: a link (a, b) hangs a's root under
    b's. Each component's names come sorted, the components in the
    order of their roots, which callers that sum per component rely on."""
    parent = {name: name for name in names}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in links:
        parent[find(a)] = find(b)
    groups: dict[str, list[str]] = {}
    for name in parent:
        groups.setdefault(find(name), []).append(name)
    return [sorted(groups[root]) for root in sorted(groups)]


def _parse_props_cell(cell: str, line: int) -> PropertyMap:
    if not cell.strip():
        return {}
    try:
        raw = json.loads(cell)
    except json.JSONDecodeError as exc:
        raise MalformedRowError(f"bad props JSON: {exc}", line=line) from exc
    if not isinstance(raw, dict):
        raise MalformedRowError("props must be a JSON object", line=line)
    return raw


_scan_json = json.decoder.JSONDecoder().scan_once


def _parse_props(cell: str, line: int) -> PropertyMap:
    """The props of a non-empty cell. A cell that is one JSON object from
    its first character to its last goes straight to the JSON scanner
    ``json.loads`` ends up in; any other cell, or one the scanner
    rejects, goes through ``_parse_props_cell`` for its exact result or
    message."""
    if cell[0] == "{" and cell[-1] == "}":
        try:
            props, end = _scan_json(cell, 0)
        except (StopIteration, ValueError):
            pass
        else:
            if end == len(cell):
                return props
    return _parse_props_cell(cell, line)


def _rows(fh, header: list[str], kind: str):
    """(line, row) for the rows of a CSV file after its header."""
    reader = csv.reader(fh)
    found = next(reader, None)
    if found != header:
        raise MalformedRowError(f"bad {kind} header {found!r}", line=1)
    return enumerate(reader, start=2)


# errors that end the read of a CSV file; a violation on a row read
# before one is raised instead, as a row-by-row check would meet it first
_READ_ERRORS = (MalformedRowError, csv.Error, UnicodeDecodeError)


def load_graph(vertex_file: str | Path, edge_file: str | Path,
               schema: GraphSchema) -> PropertyGraph:
    """Load a graph from the CSV formats above, rejecting the whole load on
    the first violation with its 1-based file line number.

    Each file is read in one pass into the graph's columns, then its
    rows are checked in bulk, as :meth:`PropertyGraph.build` checks its
    tuples; the violation raised is the one a row-by-row check would
    meet first. A wrong column count or a bad props cell ends the read.
    Types and labels are interned: one string object per distinct one."""
    g = PropertyGraph(schema)
    names: dict[str, str] = {}
    vids, vtypes, vprops = g._vids, g._vtypes, g._vprops
    blanks: list[int] = []
    with open(vertex_file, newline="", encoding="utf-8") as fh:
        try:
            for line, row in _rows(fh, ["id", "type", "props"], "vertex"):
                if len(row) != 3:
                    if not row:
                        blanks.append(len(vids))
                        continue
                    raise MalformedRowError(f"expected 3 columns, got {len(row)}",
                                            line=line)
                vid, vtype, cell = row
                vprops.append(_parse_props(cell, line) if cell else {})
                vids.append(vid)
                vtypes.append(names.setdefault(vtype, vtype))
        except _READ_ERRORS:
            g._check_vertices(blanks)
            raise
    g._check_vertices(blanks)
    vget = g._vindex.get
    eids, esrc, edst, elabel, eprops = g._eids, g._esrc, g._edst, g._elabel, g._eprops
    blanks = []
    dangling: list[tuple[int, str, str]] = []
    with open(edge_file, newline="", encoding="utf-8") as fh:
        try:
            for line, row in _rows(fh, ["id", "src", "dst", "label", "props"], "edge"):
                if len(row) != 5:
                    if not row:
                        blanks.append(len(eids))
                        continue
                    raise MalformedRowError(f"expected 5 columns, got {len(row)}",
                                            line=line)
                eid, src, dst, label, cell = row
                eprops.append(_parse_props(cell, line) if cell else {})
                si, di = vget(src, -1), vget(dst, -1)
                if si < 0 or di < 0:
                    dangling.append((len(eids), src, dst))
                eids.append(eid)
                esrc.append(si)
                edst.append(di)
                elabel.append(names.setdefault(label, label))
        except _READ_ERRORS:
            g._check_edges(dangling, blanks)
            raise
    g._check_edges(dangling, blanks)
    g._seal()
    return g


@dataclass(frozen=True)
class TypeDegrees:
    """Vertex count and nearest-rank out-degree percentiles for one type."""

    vertex_count: int
    percentiles: dict[int, int] = field(default_factory=dict)

    def deg(self, alpha: int) -> int:
        if alpha not in self.percentiles:
            raise DomainError(f"percentile {alpha} not maintained")
        return self.percentiles[alpha]


@dataclass(frozen=True)
class DegreeSummary:
    """Per-type out-degree distribution summary of one graph.

    Percentiles use the nearest-rank method over the sorted out-degree
    multiset of all vertices of the type, zero-out-degree vertices
    included. ``edge_source_types`` are the types that appear as the
    source of at least one schema edge triple (the estimator's type
    universe).
    """

    per_type: dict[str, TypeDegrees]
    edge_source_types: frozenset[str]
    total_vertices: int

    def types(self) -> list[str]:
        return sorted(self.per_type)

    def n_of(self, vtype: str) -> int:
        td = self.per_type.get(vtype)
        return td.vertex_count if td else 0

    def deg(self, vtype: str, alpha: int) -> int:
        td = self.per_type.get(vtype)
        return td.deg(alpha) if td else 0


def nearest_rank(sorted_values: list[int], alpha: int) -> int:
    """alpha-th percentile by nearest rank; 0 for an empty population."""
    if not sorted_values:
        return 0
    if not 0 < alpha <= 100:
        raise DomainError(f"alpha must be in (0, 100], got {alpha}")
    rank = math.ceil(alpha / 100 * len(sorted_values))
    return sorted_values[rank - 1]


def degree_summary(g: PropertyGraph) -> DegreeSummary:
    """Compute the per-type out-degree summary of ``g``. Deterministic."""
    degs_by_type: dict[str, list[int]] = {t: [] for t in g.schema.vertex_types}
    for vtype, adj in zip(g._vtypes, g._out):
        degs_by_type[vtype].append(len(adj))
    per_type = {}
    for vtype, degs in degs_by_type.items():
        degs.sort()
        per_type[vtype] = TypeDegrees(
            vertex_count=len(degs),
            percentiles={a: nearest_rank(degs, a) for a in PERCENTILE_ALPHAS},
        )
    return DegreeSummary(
        per_type=per_type,
        edge_source_types=g.schema.edge_source_types(),
        total_vertices=g.n,
    )
