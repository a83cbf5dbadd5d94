"""Structural constraint mining over queries and graph schemas.

Explicit facts are read directly off the query pattern and the schema.
Implicit constraints are derived from them: the feasible end-to-end hop
range of each contraction opportunity of a query (folding adjacent fixed
edges into the connector, :func:`mine_constraints`), and the valid k-hop
chains over the schema edge triples. Everything is deterministic and
duplicate-free. What is costly to derive from the schema alone (its
k-hop paths, computed on demand per k, and the type bands of
:meth:`SchemaIndex.type_bands`) is derived once per ``GraphSchema``
instance and kept on it, immutable (:func:`schema_index`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter

from .query import QueryGraph, PatternEdge, VarLengthPath
from .store import GraphSchema

Triple = tuple[str, str, str]  # (src type, dst type, label)


# --------------------------------------------------------------------------
# Facts
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Fact:
    """One mined fact, rendered in ``predicate(arg, ...)`` notation."""

    predicate: str
    args: tuple

    def render(self) -> str:
        parts = []
        for arg in self.args:
            if isinstance(arg, _Quoted):
                parts.append(f"'{arg.text}'")
            else:
                parts.append(str(arg))
        return f"{self.predicate}({', '.join(parts)})."


@dataclass(frozen=True)
class _Quoted:
    """Marks an argument rendered in single quotes (types and labels)."""

    text: str


_PREDICATE_ORDER = {
    "queryVertex": 0,
    "queryVertexType": 1,
    "queryEdge": 2,
    "queryEdgeType": 3,
    "queryVariableLengthPath": 4,
    "schemaVertex": 5,
    "schemaEdge": 6,
}


def sort_facts(facts) -> list[Fact]:
    def key(f: Fact):
        args = tuple(a.text if isinstance(a, _Quoted) else a for a in f.args)
        return (_PREDICATE_ORDER[f.predicate], tuple(map(str, args)))
    return sorted(facts, key=key)


def mine_query_facts(q: QueryGraph) -> set[Fact]:
    """One vertex fact per pattern vertex (plus a type fact when typed),
    edge facts per fixed edge, and one fact per variable-length path."""
    facts: set[Fact] = set()
    for name, vtype in q.pattern_vertices.items():
        facts.add(Fact("queryVertex", (name,)))
        if vtype is not None:
            facts.add(Fact("queryVertexType", (name, _Quoted(vtype))))
    for e in q.pattern_edges:
        facts.add(Fact("queryEdge", (e.src, e.dst)))
        if e.label is not None:
            facts.add(Fact("queryEdgeType", (e.src, e.dst, _Quoted(e.label))))
    for p in q.var_length_paths:
        facts.add(Fact("queryVariableLengthPath",
                       (p.src, p.dst, p.lower, p.upper)))
    return facts


def mine_schema_facts(s: GraphSchema) -> set[Fact]:
    facts = {Fact("schemaVertex", (_Quoted(t),)) for t in s.vertex_types}
    facts.update(Fact("schemaEdge", tuple(map(_Quoted, triple)))
                 for triple in s.edge_types)
    return facts


# --------------------------------------------------------------------------
# Schema k-hop paths
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SchemaPath:
    """A chain of schema edge triples; consecutive triples share types.

    Two paths are distinct iff their full triple sequences differ. A
    triple may repeat within one chain (schema cycles are allowed).
    ``labels`` and ``type_sequence`` (the k + 1 types visited) are
    derived from ``edges`` at construction.
    """

    edges: tuple[Triple, ...]
    labels: tuple[str, ...] = field(init=False, repr=False, compare=False)
    type_sequence: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.edges:
            raise ValueError("schema path must have at least one edge")
        for a, b in zip(self.edges, self.edges[1:]):
            if a[1] != b[0]:
                raise ValueError(f"triples do not chain: {a} then {b}")
        object.__setattr__(self, "labels", tuple(e[2] for e in self.edges))
        object.__setattr__(self, "type_sequence",
                           (self.edges[0][0],) + tuple(e[1] for e in self.edges))

    @property
    def src_type(self) -> str:
        return self.edges[0][0]

    @property
    def dst_type(self) -> str:
        return self.edges[-1][1]

    @property
    def k(self) -> int:
        return len(self.edges)


def schema_k_hop_paths(s: GraphSchema, k: int) -> set[SchemaPath]:
    """Exactly the set of k-length chains over the schema edge triples."""
    if k < 1:
        raise ValueError("k must be >= 1")
    by_src: dict[str, list[Triple]] = {}
    for triple in sorted(s.edge_types):
        by_src.setdefault(triple[0], []).append(triple)
    chains: list[tuple[Triple, ...]] = [(t,) for t in sorted(s.edge_types)]
    for _ in range(k - 1):
        grown: list[tuple[Triple, ...]] = []
        for chain in chains:
            for nxt in by_src.get(chain[-1][1], ()):
                grown.append(chain + (nxt,))
        chains = grown
        if not chains:
            break
    return {SchemaPath(c) for c in chains}


# --------------------------------------------------------------------------
# Query hop bounds
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ConnectorBounds:
    """Feasible end-to-end length range for one contraction opportunity.

    ``src``/``dst`` are the pattern names surviving as connector
    endpoints after folding; ``eliminated`` are the names the contraction
    removes. The label fields give each connector position's required
    labels (read through :meth:`constraint_at`): ``first_label`` and
    ``last_label`` come from a fixed edge folded in at the start or the
    end (None when none is, or when it is unlabelled), ``middle_labels``
    from the variable-length path's label alternation (None for any), and
    ``fixed_labels`` from a fixed-only chain, one label per position (None
    unless every edge of the chain is labelled).
    """

    src: str
    dst: str
    k_min: int
    k_max: int
    path: VarLengthPath | None
    folded_edges: tuple[PatternEdge, ...] = ()
    eliminated: tuple[str, ...] = ()
    first_label: str | None = None
    last_label: str | None = None
    middle_labels: tuple[str, ...] | None = None
    fixed_labels: tuple[str, ...] | None = None  # set for fixed-only chains

    def constraint_at(self, position: int, length: int) -> tuple[str, ...] | None:
        """Allowed labels at 0-based ``position`` of a ``length``-hop
        connector traversal; None means unconstrained."""
        if self.fixed_labels is not None:
            return (self.fixed_labels[position],)
        if position == 0 and self.first_label is not None:
            return (self.first_label,)
        if position == length - 1 and self.last_label is not None:
            return (self.last_label,)
        return self.middle_labels


def _incident_fixed(q: QueryGraph, name: str) -> list[PatternEdge]:
    return [e for e in q.pattern_edges if name in (e.src, e.dst)]


def _incident_paths(q: QueryGraph, name: str) -> list[VarLengthPath]:
    return [p for p in q.var_length_paths if name in (p.src, p.dst)]


def _foldable(q: QueryGraph, endpoint: str, want_incoming: bool,
              referenced: set[str]) -> PatternEdge | None:
    """The single fixed edge foldable into the connector at ``endpoint``,
    or None. ``want_incoming`` selects x->endpoint (path start) versus
    endpoint->y (path end)."""
    if endpoint in referenced:
        return None
    if len(_incident_paths(q, endpoint)) != 1:
        return None
    fixed = _incident_fixed(q, endpoint)
    if len(fixed) != 1:
        return None
    edge = fixed[0]
    if edge.name is not None and edge.name in referenced:
        return None
    if want_incoming:
        if edge.dst != endpoint or edge.src == endpoint:
            return None
    else:
        if edge.src != endpoint or edge.dst == endpoint:
            return None
    return edge


def mine_constraints(q: QueryGraph, referenced: set[str] | None = None
                     ) -> tuple[ConnectorBounds, ...]:
    """Feasible connector length ranges for each variable-length path
    (folding qualifying adjacent fixed edges) and, in fixed-only
    patterns, for each maximal contractible fixed chain. ``referenced``
    is ``q.referenced_names()``, computed here when not given."""
    if referenced is None:
        referenced = q.referenced_names()
    bounds: list[ConnectorBounds] = []
    for p in q.var_length_paths:
        src, dst = p.src, p.dst
        k_min, k_max = p.lower, p.upper
        folded: list[PatternEdge] = []
        eliminated: list[str] = []
        first_label = last_label = None
        head = _foldable(q, p.src, want_incoming=True, referenced=referenced)
        if head is not None:
            src = head.src
            first_label = head.label
            folded.append(head)
            eliminated.append(p.src)
            k_min, k_max = k_min + 1, k_max + 1
        tail = _foldable(q, p.dst, want_incoming=False, referenced=referenced)
        if tail is not None and tail is not head:
            dst = tail.dst
            last_label = tail.label
            folded.append(tail)
            eliminated.append(p.dst)
            k_min, k_max = k_min + 1, k_max + 1
        bounds.append(ConnectorBounds(
            src=src, dst=dst, k_min=k_min, k_max=k_max, path=p,
            folded_edges=tuple(folded), eliminated=tuple(eliminated),
            first_label=first_label, last_label=last_label,
            middle_labels=p.labels,
        ))
    if not q.var_length_paths:
        bounds.extend(_fixed_chain_bounds(q, referenced))
    return tuple(bounds)


def _fixed_chain_bounds(q: QueryGraph, referenced: set[str]
                        ) -> list[ConnectorBounds]:
    """Maximal directed fixed-edge chains whose interior vertices are
    unreferenced, unbranching pass-throughs; chains shorter than 2 edges
    offer nothing to contract."""
    out_by: dict[str, list[PatternEdge]] = {}
    in_by: dict[str, list[PatternEdge]] = {}
    for e in q.pattern_edges:
        out_by.setdefault(e.src, []).append(e)
        in_by.setdefault(e.dst, []).append(e)

    def interior_ok(name: str) -> bool:
        return (name not in referenced
                and len(out_by.get(name, ())) == 1
                and len(in_by.get(name, ())) == 1)

    bounds = []
    for e in q.pattern_edges:
        # chain heads: source vertex is not itself an interior pass-through
        if interior_ok(e.src):
            continue
        chain = [e]
        seen = {e.src}
        cur = e
        while interior_ok(cur.dst) and cur.dst not in seen:
            seen.add(cur.dst)
            nxt = out_by[cur.dst][0]
            chain.append(nxt)
            cur = nxt
        if len(chain) >= 2:
            bounds.append(ConnectorBounds(
                src=chain[0].src, dst=chain[-1].dst,
                k_min=len(chain), k_max=len(chain), path=None,
                folded_edges=tuple(chain),
                eliminated=tuple(c.dst for c in chain[:-1]),
                fixed_labels=tuple(c.label or "" for c in chain)
                if all(c.label for c in chain) else None,
            ))
    return bounds


# --------------------------------------------------------------------------
# Schema index
# --------------------------------------------------------------------------

class SchemaIndex:
    """What is costly to derive from one schema alone: its k-hop paths
    grouped by end types, sorted by triples, and the type bands of
    :meth:`type_bands`. The paths of each k and each band are computed
    the first time they are asked for; every value handed out is a
    frozenset or a tuple."""

    __slots__ = ("schema", "_paths", "_bands")

    def __init__(self, s: GraphSchema):
        self.schema = s
        self._paths: dict[int, dict[tuple[str, str], tuple[SchemaPath, ...]]] = {}
        self._bands: dict[tuple, tuple[frozenset[str] | None, ...]] = {}

    def paths_between(self, src_type: str, dst_type: str, k: int
                      ) -> tuple[SchemaPath, ...]:
        by_ends = self._paths.get(k)
        if by_ends is None:
            grouped: dict[tuple[str, str], list[SchemaPath]] = {}
            for p in sorted(schema_k_hop_paths(self.schema, k),
                            key=attrgetter("edges")):
                grouped.setdefault((p.src_type, p.dst_type), []).append(p)
            by_ends = {ends: tuple(ps) for ends, ps in grouped.items()}
            self._paths[k] = by_ends
        return by_ends.get((src_type, dst_type), ())

    def has_path(self, src_type: str, dst_type: str, k: int) -> bool:
        if k == 0:
            return src_type == dst_type
        return bool(self.paths_between(src_type, dst_type, k))

    def type_bands(self, x_type: str | None, y_type: str | None, lo: int,
                   hi: int, labels: frozenset[str] | None = None,
                   forward: bool = True) -> tuple[frozenset[str] | None, ...]:
        """Per depth d in 0..hi, the types a walk of ``labels`` edges
        (any label when None) from an ``x_type`` vertex may visit at
        depth d and still end at a ``y_type`` vertex within lo..hi edges;
        a None end type stands for any type. ``forward`` False walks the
        edges backwards. A depth is None when the band holds every type
        reachable there, so it prunes nothing; an empty band at depth 0
        means no such walk exists."""
        key = (x_type, y_type, lo, hi, labels, forward)
        bands = self._bands.get(key)
        if bands is None:
            bands = self._bands[key] = self._type_bands(*key)
        return bands

    def _type_bands(self, x_type, y_type, lo, hi, labels, forward):
        every = self.schema.vertex_types
        step: dict[str, set[str]] = {t: set() for t in every}
        for src, dst, label in self.schema.edge_types:
            if labels is None or label in labels:
                if forward:
                    step[src].add(dst)
                else:
                    step[dst].add(src)
        # reach[d]: types at the end of a d-edge walk from x_type;
        # finish[e]: types with an e-edge walk to y_type
        reach = [every if x_type is None else frozenset((x_type,))]
        finish = [every if y_type is None else frozenset((y_type,))]
        for _ in range(hi):
            reach.append(frozenset(w for t in reach[-1] for w in step[t]))
            finish.append(frozenset(t for t in every
                                    if not step[t].isdisjoint(finish[-1])))
        bands = []
        for d in range(hi + 1):
            band = reach[d] & frozenset().union(
                *finish[max(lo - d, 0):hi - d + 1])
            bands.append(None if band == reach[d] else band)
        return tuple(bands)


def schema_index(s: GraphSchema) -> SchemaIndex:
    """The index of ``s``, built on first use and kept on ``s`` itself, so
    it lives as long as that schema object and no longer. Two threads that
    build it at once build equal indexes, and the last one stays."""
    index = s.memo.get(SchemaIndex)
    if index is None:
        index = s.memo[SchemaIndex] = SchemaIndex(s)
    return index
