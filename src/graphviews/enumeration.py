"""Constraint-guided view template instantiation and query rewriting.

Eleven view templates are supported: four connector (path contraction)
kinds and seven sparsifier (filter/aggregate) kinds. Enumeration
instantiates templates against the mined constraints: connector hop
counts must both lie inside the query's feasible connector range and
correspond to at least one schema path between the endpoint types, so
infeasible candidates are never produced.

Rewriting is conservative: a plan is only produced when the rewritten
query provably returns the same rows over the view as the original does
over the raw graph. A connector graph holds only the endpoints of its
contracted trails, so the query must be exactly the contracted path
(no other fixed edge, path or component) and no feasible raw length may
be 0. The checks then cover hop-range coverage (every feasible raw
length must map onto whole view hops), positional label constraints,
and, for multi-hop view traversals, that every qualifying schema path
passes through the endpoint type at each contraction boundary. A vertex
filter must keep every type and label the query names. Instances
that fail these checks raise RewriteInfeasibleError and simply contribute
no plan; soundness is preferred over coverage. A plan is the rewritten
query plus, over a connector, the most view hops its contracted path
takes, which is how far an op walks over the view.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    NameEliminatedButReferencedError,
    RewriteInfeasibleError,
    ValidationError,
)
from .mining import ConnectorBounds, SchemaIndex, mine_constraints, schema_index
from .query import (
    Aggregate,
    QueryGraph,
    ShapeCache,
    VarLengthPath,
    render_query,
    shape_key,
    with_filters,
)
from .store import PATH_COUNT_PROP, GraphSchema, PropertyValue

VIEW_KINDS = (
    "KHopConnector",
    "SameVertexTypeConnector",
    "SameEdgeTypeConnector",
    "SourceToSinkConnector",
    "VertexRemoval",
    "EdgeRemoval",
    "VertexInclusion",
    "EdgeInclusion",
    "VertexAggregator",
    "EdgeAggregator",
    "SubgraphAggregator",
)

CONNECTOR_KINDS = VIEW_KINDS[:4]
FILTER_KINDS = VIEW_KINDS[4:8]

DEFAULT_MAX_K = 10


@dataclass(frozen=True)
class Predicate:
    """Type/label membership test with an optional property comparison."""

    types: frozenset[str] | None = None
    prop: tuple[str, str, PropertyValue] | None = None  # (key, op, literal)

    def matches(self, type_or_label: str, props: dict) -> bool:
        if self.types is not None and type_or_label not in self.types:
            return False
        if self.prop is not None:
            key, op, literal = self.prop
            if key not in props:
                return False
            value = props[key]
            try:
                return _COMPARE[op](value, literal)
            except TypeError:
                return False
        return True


_COMPARE = {
    "=": lambda a, b: a == b,
    "<>": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


@dataclass(frozen=True)
class ViewInstance:
    """One instantiated view template.

    Connector instances bind the query endpoint names (x, y), endpoint
    types, and a hop count ``k`` (KHopConnector) or range ``lo..hi``.
    Sparsifier instances bind a predicate, and aggregators a grouping key
    plus per-property aggregate functions. ``edge_aggregates`` names the
    edge properties connector materialization carries onto view edges,
    each as the minimum across trails of its maximum along each trail
    (what ``path_lengths`` computes), and never ``path_count``, which
    holds each view edge's trail count; ``through_types``
    optionally restricts contraction to trails through the given types,
    which is how a sparsifier-then-spanner pipeline is expressed.
    """

    kind: str
    x: str | None = None
    y: str | None = None
    x_type: str | None = None
    y_type: str | None = None
    k: int | None = None
    lo: int | None = None
    hi: int | None = None
    label: str | None = None
    predicate: Predicate | None = None
    group_key: str | None = None
    aggregations: tuple[tuple[str, str], ...] = ()
    edge_aggregates: tuple[str, ...] = ()
    through_types: frozenset[str] | None = None
    provenance: str = ""

    def __post_init__(self):
        if self.kind not in VIEW_KINDS:
            raise ValidationError(f"unknown view kind {self.kind!r}")
        if PATH_COUNT_PROP in self.edge_aggregates:
            raise ValidationError(
                f"edge_aggregates cannot name {PATH_COUNT_PROP!r}: it holds "
                f"each connector edge's trail count")

    # -- identity -------------------------------------------------------

    @property
    def view_id(self) -> str:
        if self.kind == "KHopConnector":
            return f"khop:{self.x_type}:{self.y_type}:{self.k:02d}"
        if self.kind == "SameVertexTypeConnector":
            return f"svtc:{self.x_type}:{self.lo:02d}:{self.hi:02d}"
        if self.kind == "SameEdgeTypeConnector":
            return f"setc:{self.label}:{self.lo:02d}:{self.hi:02d}"
        if self.kind == "SourceToSinkConnector":
            return f"s2sc:{self.x_type}:{self.y_type}:{self.lo:02d}:{self.hi:02d}"
        parts = [self.kind[:4].lower()]
        if self.predicate and self.predicate.types is not None:
            parts.append("+".join(sorted(self.predicate.types)))
        if self.predicate and self.predicate.prop is not None:
            key, op, literal = self.predicate.prop
            parts.append(f"{key}{op}{literal}")
        if self.group_key:
            parts.append(f"by_{self.group_key}")
        return ":".join(parts)

    @property
    def view_label(self) -> str:
        """Edge label of materialized connector edges."""
        if self.kind == "KHopConnector":
            return f"{self.x_type.upper()}_TO_{self.y_type.upper()}_{self.k}HOP"
        if self.kind == "SameVertexTypeConnector":
            return f"{self.x_type.upper()}_TO_{self.x_type.upper()}_{self.lo}_{self.hi}HOP"
        if self.kind == "SameEdgeTypeConnector":
            return f"{self.label}_PATH_{self.lo}_{self.hi}"
        if self.kind == "SourceToSinkConnector":
            return (f"{self.x_type.upper()}_TO_{self.y_type.upper()}"
                    f"_SRC_SINK_{self.lo}_{self.hi}")
        raise ValidationError(f"{self.kind} has no view label")

    @property
    def lengths(self) -> list[int]:
        """Raw path lengths each view edge contracts."""
        if self.kind == "KHopConnector":
            return [self.k]
        return list(range(self.lo, self.hi + 1))

    @property
    def path_labels(self) -> tuple[str, ...] | None:
        return (self.label,) if self.kind == "SameEdgeTypeConnector" else None

    def view_schema(self, schema: GraphSchema) -> GraphSchema:
        if self.kind in CONNECTOR_KINDS:
            return GraphSchema.of(
                {self.x_type, self.y_type},
                [(self.x_type, self.y_type, self.view_label)],
            )
        if self.kind in ("VertexInclusion", "VertexRemoval"):
            kept = self._kept_types(schema)
            return GraphSchema.of(
                kept, [t for t in schema.edge_types if t[0] in kept and t[1] in kept])
        if self.kind in ("EdgeInclusion", "EdgeRemoval"):
            kept = self._kept_labels(schema)
            return GraphSchema.of(
                schema.vertex_types, [t for t in schema.edge_types if t[2] in kept])
        return schema

    def is_identity(self, schema: GraphSchema) -> bool:
        """True for a type or label filter that keeps all of ``schema``:
        it materializes a copy of the base graph. An aggregator keeps the
        schema but contracts, and a property predicate keeps it but drops
        elements, so neither is an identity."""
        return (self.kind in FILTER_KINDS and self.predicate is not None
                and self.predicate.prop is None
                and self.view_schema(schema) == schema)

    def _kept_types(self, schema: GraphSchema) -> frozenset[str]:
        types = self.predicate.types if self.predicate else None
        if self.kind == "VertexInclusion":
            return types if types is not None else schema.vertex_types
        return schema.vertex_types - (types or frozenset())

    def _kept_labels(self, schema: GraphSchema) -> frozenset[str]:
        labels = self.predicate.types if self.predicate else None
        if self.kind == "EdgeInclusion":
            return labels if labels is not None else schema.labels()
        return schema.labels() - (labels or frozenset())

    def unification(self) -> str:
        """Instance bindings in unification notation for the CLI."""
        if self.kind == "KHopConnector":
            return (f"(X='{self.x}', Y='{self.y}', XTYPE='{self.x_type}', "
                    f"YTYPE='{self.y_type}', K={self.k})")
        if self.kind == "SameVertexTypeConnector":
            return (f"(X='{self.x}', Y='{self.y}', TYPE='{self.x_type}', "
                    f"LO={self.lo}, HI={self.hi})")
        if self.kind == "SameEdgeTypeConnector":
            return (f"(X='{self.x}', Y='{self.y}', LABEL='{self.label}', "
                    f"LO={self.lo}, HI={self.hi})")
        if self.kind == "SourceToSinkConnector":
            return (f"(X='{self.x}', Y='{self.y}', XTYPE='{self.x_type}', "
                    f"YTYPE='{self.y_type}', LO={self.lo}, HI={self.hi})")
        if self.predicate and self.predicate.types is not None:
            arg = "{" + ", ".join(f"'{t}'" for t in sorted(self.predicate.types)) + "}"
            key = "TYPES" if self.kind.startswith("Vertex") or self.kind.startswith("Sub") \
                else "LABELS"
            return f"({key}={arg})"
        return f"(ID='{self.view_id}')"


@dataclass
class RewritePlan:
    """How one query runs over one view with identical results: the
    rewritten query, and over a connector the most view hops its
    contracted path takes (None over a filter)."""

    rewritten: QueryGraph
    view_hops: int | None


# --------------------------------------------------------------------------
# Enumeration
# --------------------------------------------------------------------------

def enumerate_views(q: QueryGraph, s: GraphSchema,
                    hop_bounds: tuple[ConnectorBounds, ...],
                    max_k: int = DEFAULT_MAX_K) -> list[ViewInstance]:
    """All template instances consistent with the query's ``hop_bounds``
    (:func:`mining.mine_constraints`) and the schema, deterministically
    ordered by kind then bindings."""
    provenance = render_query(q)
    index = schema_index(s)
    sources, sinks = s.root_types(), s.leaf_types()
    instances: list[ViewInstance] = []
    projected = set()
    for item in q.projection:
        expr = item.expr.arg if isinstance(item.expr, Aggregate) else item.expr
        projected.add(expr.name)

    for b in hop_bounds:
        x_type = q.pattern_vertices.get(b.src)
        y_type = q.pattern_vertices.get(b.dst)
        if x_type is None or y_type is None:
            continue
        hi = min(b.k_max, max_k)
        if hi < 2:
            continue
        # distinct-type connectors only when both endpoints are projected
        if x_type != y_type and not (b.src in projected and b.dst in projected):
            continue
        # k-hop connectors: one per in-range hop count with a schema path
        for k in range(max(2, b.k_min), hi + 1):
            if index.has_path(x_type, y_type, k):
                instances.append(ViewInstance(
                    kind="KHopConnector", x=b.src, y=b.dst,
                    x_type=x_type, y_type=y_type, k=k,
                    provenance=provenance,
                ))
        lo = max(1, b.k_min)
        feasible = [k for k in range(lo, hi + 1)
                    if index.has_path(x_type, y_type, k)]
        if not feasible:
            continue
        # range connectors contract every feasible length at once
        if x_type == y_type:
            instances.append(ViewInstance(
                kind="SameVertexTypeConnector", x=b.src, y=b.dst,
                x_type=x_type, y_type=y_type, lo=lo, hi=hi,
                provenance=provenance,
            ))
        uniform = _uniform_label(b)
        if uniform is not None:
            label_feasible = [
                k for k in feasible
                if any(set(p.labels) == {uniform}
                       for p in index.paths_between(x_type, y_type, k))
            ]
            if label_feasible:
                instances.append(ViewInstance(
                    kind="SameEdgeTypeConnector", x=b.src, y=b.dst,
                    x_type=x_type, y_type=y_type, lo=lo, hi=hi,
                    label=uniform, provenance=provenance,
                ))
        if x_type in sources and y_type in sinks:
            instances.append(ViewInstance(
                kind="SourceToSinkConnector", x=b.src, y=b.dst,
                x_type=x_type, y_type=y_type, lo=lo, hi=hi,
                provenance=provenance,
            ))

    # inclusion sparsifiers from the types and labels the query touches
    referenced_types = frozenset(
        t for t in q.pattern_vertices.values() if t is not None)
    if referenced_types:
        instances.append(ViewInstance(
            kind="VertexInclusion",
            predicate=Predicate(types=referenced_types),
            provenance=provenance,
        ))
    labels = set()
    fully_labelled = bool(q.pattern_edges or q.var_length_paths)
    for e in q.pattern_edges:
        if e.label is None:
            fully_labelled = False
        else:
            labels.add(e.label)
    for p in q.var_length_paths:
        if p.labels is None:
            fully_labelled = False
        else:
            labels.update(p.labels)
    if fully_labelled and labels:
        instances.append(ViewInstance(
            kind="EdgeInclusion",
            predicate=Predicate(types=frozenset(labels)),
            provenance=provenance,
        ))

    instances.sort(key=lambda v: (VIEW_KINDS.index(v.kind), v.view_id))
    return instances


def _uniform_label(b: ConnectorBounds) -> str | None:
    """The single label every connector position requires, if any."""
    labels = set()
    if b.fixed_labels is not None:
        labels.update(b.fixed_labels)
    else:
        if b.middle_labels is None or len(b.middle_labels) != 1:
            return None
        labels.update(b.middle_labels)
        if b.first_label is not None:
            labels.add(b.first_label)
        if b.last_label is not None:
            labels.add(b.last_label)
    if len(labels) == 1:
        return labels.pop()
    return None


# --------------------------------------------------------------------------
# Rewriting
# --------------------------------------------------------------------------

def rewrite_with_view(q: QueryGraph, v: ViewInstance,
                      schema: GraphSchema) -> RewritePlan:
    """Rewrite ``q`` to run over ``v``'s materialization, or raise.

    Raises NameEliminatedButReferencedError when the contraction would
    eliminate a name the query references, and RewriteInfeasibleError
    when the view cannot reproduce the query's results exactly.

    A rewrite passes the query's filters through unchanged and reads no
    literal value, so plans are kept on ``schema`` (``GraphSchema.memo``)
    by query shape (:func:`query.shape_key`) and view, at most
    ``SHAPE_CACHE_ENTRIES`` of them: a query that differs from an
    earlier one only in literal values gets the earlier plan with its
    own filters. Refusals are not kept; they are worked out every time.
    """
    plans = schema.memo.get(rewrite_with_view)
    if plans is None:
        plans = schema.memo.setdefault(rewrite_with_view, ShapeCache())
    key = (shape_key(q), v)
    known = plans.get(key)
    if known is not None:
        return RewritePlan(with_filters(known.rewritten, q.filters),
                           known.view_hops)
    plan = _rewrite(q, v, schema)
    plans.put(key, RewritePlan(
        with_filters(plan.rewritten, plan.rewritten.filters), plan.view_hops))
    return plan


def _rewrite(q: QueryGraph, v: ViewInstance, schema: GraphSchema) -> RewritePlan:
    if v.kind in CONNECTOR_KINDS:
        return _rewrite_connector(q, v, schema_index(schema))
    if v.kind in ("VertexInclusion", "VertexRemoval"):
        return _rewrite_vertex_filter(q, v, schema_index(schema))
    if v.kind in ("EdgeInclusion", "EdgeRemoval"):
        return _rewrite_edge_filter(q, v, schema)
    raise RewriteInfeasibleError(
        f"{v.kind} views are standalone; no transparent rewrite exists")


def _rewrite_connector(q: QueryGraph, v: ViewInstance,
                       index: SchemaIndex) -> RewritePlan:
    referenced = q.referenced_names()
    bounds = [b for b in mine_constraints(q, referenced)
              if (b.src, b.dst) == (v.x, v.y)]
    if not bounds:
        _diagnose_eliminated_reference(q, v, referenced)
        raise RewriteInfeasibleError(
            f"view endpoints ({v.x}, {v.y}) do not match any contraction "
            f"opportunity of the query")
    b = bounds[0]
    if q.pattern_vertices.get(v.x) != v.x_type or q.pattern_vertices.get(v.y) != v.y_type:
        raise RewriteInfeasibleError("view endpoint types do not match the query")
    # a fixed chain folds its edges, named or not
    overlap = (set(b.eliminated) | {e.name for e in b.folded_edges}) & referenced
    if overlap:
        raise NameEliminatedButReferencedError(
            f"view contracts away referenced name(s) {sorted(overlap)}")
    # the view graph holds the contracted path and nothing else; the
    # folded edges are some of the query's, so equal counts mean all
    if (set(q.pattern_vertices) != {v.x, v.y, *b.eliminated}
            or len(q.pattern_edges) != len(b.folded_edges)
            or q.var_length_paths != ((b.path,) if b.path is not None else ())):
        raise RewriteInfeasibleError(
            "the query matches more than the contracted path, and the view "
            "holds nothing else")

    lo, hi = b.k_min, b.k_max
    feasible = [l for l in range(lo, hi + 1)
                if index.has_path(v.x_type, v.y_type, l)]
    if not feasible:
        raise RewriteInfeasibleError(
            "no schema path matches the query's connector range")
    if feasible[0] == 0:
        raise RewriteInfeasibleError(
            f"a zero-length path matches every {v.x_type} vertex, but the "
            f"view holds only those on a connector edge")

    if v.kind == "KHopConnector":
        a = math.ceil(lo / v.k)
        z = hi // v.k
        if a > z:
            raise RewriteInfeasibleError(
                f"hop range ({lo}, {hi}) maps to an empty range over a "
                f"{v.k}-hop connector")
        if v.x_type == v.y_type:
            covered = {i * v.k for i in range(a, z + 1)}
        else:
            covered = {v.k} if a <= 1 <= z else set()
        if not set(feasible) <= covered:
            raise RewriteInfeasibleError(
                f"{v.k}-hop connector covers raw lengths {sorted(covered)} but "
                f"the query needs {feasible}")
        _check_label_soundness(index, v, b, view_hops=range(a, z + 1))
        _check_boundary_types(index, v, b, feasible)
    else:
        if [l for l in feasible if not (v.lo <= l <= v.hi)]:
            raise RewriteInfeasibleError(
                f"view contracts lengths {v.lo}..{v.hi} but the query needs "
                f"{feasible}")
        view_feasible = [l for l in v.lengths
                         if index.has_path(v.x_type, v.y_type, l)
                         and _labels_possible(index, v, l)]
        if sorted(view_feasible) != sorted(feasible):
            raise RewriteInfeasibleError(
                f"view contracts lengths {view_feasible} but the query needs "
                f"exactly {feasible}")
        a = 0 if lo == 0 else 1
        z = 1
        _check_label_soundness(index, v, b, view_hops=[1])

    return RewritePlan(_build_rewritten(q, v, b, a, z), z)


def _labels_possible(index: SchemaIndex, v: ViewInstance, length: int) -> bool:
    if v.path_labels is None:
        return True
    allowed = set(v.path_labels)
    return any(allowed.issuperset(p.labels)
               for p in index.paths_between(v.x_type, v.y_type, length))


def _diagnose_eliminated_reference(q: QueryGraph, v: ViewInstance,
                                   referenced: set[str]):
    """If folding fails only because of query references, say which."""
    for b in mine_constraints(q, set()):
        if (b.src, b.dst) == (v.x, v.y):
            overlap = set(b.eliminated) & referenced
            if overlap:
                raise NameEliminatedButReferencedError(
                    f"view contracts away referenced name(s) {sorted(overlap)}")


def _check_label_soundness(index: SchemaIndex, v: ViewInstance,
                           b: ConnectorBounds, view_hops) -> None:
    """Every trail the view can produce must satisfy the query's
    positional label constraints; otherwise the view would add rows."""
    path_labels = None if v.path_labels is None else set(v.path_labels)
    for i in view_hops:
        for length in v.lengths:
            segs = [p for p in index.paths_between(v.x_type, v.y_type, length)
                    if path_labels is None or path_labels.issuperset(p.labels)]
            raw_len = i * length
            for seg in segs:
                for slot in range(i):
                    offset = slot * length
                    for t, lab in enumerate(seg.labels):
                        allowed = b.constraint_at(offset + t, raw_len)
                        if allowed is not None and lab not in allowed:
                            raise RewriteInfeasibleError(
                                f"view may contract a trail with label {lab!r} at "
                                f"position {offset + t}, which the query forbids")


def _check_boundary_types(index: SchemaIndex, v: ViewInstance,
                          b: ConnectorBounds, feasible: list[int]) -> None:
    """Raw trails must decompose into K-segments at endpoint-type
    boundaries for multi-hop view traversals to find them."""
    for length in feasible:
        hops = length // v.k
        if hops < 2:
            continue
        for p in index.paths_between(v.x_type, v.y_type, length):
            if not _satisfies_constraints(p, b, length):
                continue
            seq = p.type_sequence
            for j in range(1, hops):
                if seq[j * v.k] != v.x_type:
                    raise RewriteInfeasibleError(
                        f"a {length}-hop trail may cross type {seq[j * v.k]!r} at a "
                        f"contraction boundary; the view cannot represent it")


def _satisfies_constraints(path, b: ConnectorBounds, length: int) -> bool:
    for t, lab in enumerate(path.labels):
        allowed = b.constraint_at(t, length)
        if allowed is not None and lab not in allowed:
            return False
    return True


def _build_rewritten(q: QueryGraph, v: ViewInstance, b: ConnectorBounds,
                     a: int, z: int) -> QueryGraph:
    """``q``, which is exactly the contracted path of ``b``, as a path of
    ``a..z`` view hops between the view's endpoints."""
    eliminated = set(b.eliminated)
    vertices = {name: vtype for name, vtype in q.pattern_vertices.items()
                if name not in eliminated}
    new_path = VarLengthPath(
        src=v.x, dst=v.y, lower=a, upper=z,
        labels=(v.view_label,),
        name=b.path.name if b.path is not None else None,
    )
    return QueryGraph(
        pattern_vertices=vertices,
        pattern_edges=(),
        var_length_paths=(new_path,),
        filters=q.filters,
        projection=q.projection,
        order_by=q.order_by,
        limit=q.limit,
    )


# -- sparsifier rewrites ------------------------------------------------

def _rewrite_vertex_filter(q: QueryGraph, v: ViewInstance,
                           index: SchemaIndex) -> RewritePlan:
    if v.predicate is None or v.predicate.types is None or v.predicate.prop is not None:
        raise RewriteInfeasibleError(
            "only pure type-predicate vertex filters support rewriting")
    schema = index.schema
    kept = v._kept_types(schema)
    pattern_types = set(q.pattern_vertices.values())
    if None in pattern_types and kept != schema.vertex_types:
        raise RewriteInfeasibleError(
            "untyped pattern vertices may bind to filtered-out types")
    if not {t for t in pattern_types if t} <= kept:
        raise RewriteInfeasibleError("query references a filtered-out vertex type")
    named = {e.label for e in q.pattern_edges if e.label is not None}
    named.update(*(p.labels for p in q.var_length_paths if p.labels))
    dropped = named - v.view_schema(schema).labels()
    if dropped:
        raise RewriteInfeasibleError(
            f"query names label(s) {sorted(dropped)} the view drops")
    for p in q.var_length_paths:
        src_t = q.pattern_vertices[p.src]
        dst_t = q.pattern_vertices[p.dst]
        if src_t is None or dst_t is None:
            continue  # identity filter; the untyped check above passed
        for length in range(max(1, p.lower), p.upper + 1):
            for sp in index.paths_between(src_t, dst_t, length):
                if p.labels is not None and not set(sp.labels) <= set(p.labels):
                    continue
                if not kept.issuperset(sp.type_sequence):
                    raise RewriteInfeasibleError(
                        f"a {length}-hop path may route through filtered-out "
                        f"types {sorted(set(sp.type_sequence) - kept)}")
    return RewritePlan(q, None)


def _rewrite_edge_filter(q: QueryGraph, v: ViewInstance,
                         schema: GraphSchema) -> RewritePlan:
    if v.predicate is None or v.predicate.types is None or v.predicate.prop is not None:
        raise RewriteInfeasibleError(
            "only pure label-predicate edge filters support rewriting")
    kept = v._kept_labels(schema)
    for e in q.pattern_edges:
        if e.label is None and kept != schema.labels():
            raise RewriteInfeasibleError("unlabelled edge may match filtered-out labels")
        if e.label is not None and e.label not in kept:
            raise RewriteInfeasibleError(f"query needs filtered-out label {e.label!r}")
    for p in q.var_length_paths:
        if p.labels is None and kept != schema.labels():
            raise RewriteInfeasibleError("unlabelled path may match filtered-out labels")
        if p.labels is not None and not set(p.labels) <= kept:
            raise RewriteInfeasibleError("query path needs filtered-out labels")
    return RewritePlan(q, None)
