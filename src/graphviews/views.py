"""View selection, materialization, and the persistent view catalog.

Selection is exact 0-1 knapsack over integerized weights, solved by one
sparse dynamic program at any budget: over the id-sorted candidates, it
keeps for each suffix only the weights whose best value beats every
lighter weight. Ties break deterministically by higher value, then
lower total weight, then lexicographically smallest view-id tuple
(realised by include-first reconstruction over the id-sorted items).
Each query runs over the chosen view with its cheapest plan; a chosen
view that no query would run over is dropped and the knapsack solved
again without it. Plans are costed before anything is materialized,
over a connector's degree summary sampled by the materializer's own
scan.

Connector materialization contracts edge-distinct trails, per source
with the execution kernels (a frontier sweep on acyclic graphs, a trail
search on cyclic ones).
Traversal is pruned by the schema's type bands (the vertex types at each
depth from which the endpoint type is still reachable in range, as
:meth:`SchemaIndex.type_bands` gives them for execution too), which is
also how a sparsifier-then-spanner pipeline composes: an explicit
``through_types`` binding intersects the bands. The
output is one edge per connected (src, dst) pair, whose ``path_count``
(the contracted trails, each weighted by the product of the path_counts
it crosses) goes to the store as a column, and whose props hold, for
each requested edge property, the minimum across trails of its maximum
along each trail; raw vertex ids and properties are preserved. Views
always materialize from the raw graph, never from other views. Every
materializer works on the graph's internal indices and hands the view
to :meth:`PropertyGraph.derive`.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import os
import re
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from .costing import SizeEstimate
from .enumeration import (
    CONNECTOR_KINDS,
    Predicate,
    RewritePlan,
    ViewInstance,
)
from .errors import (
    BudgetExceededError,
    CorruptCatalogError,
    MixedTypeAggregationError,
    PropertyTypeMismatchError,
    ValidationError,
)
from .execution import ExecutionStats, _aggregate, _count_step, _walk
from .mining import schema_index
from .query import AGGREGATE_FUNCS
from .store import (
    DegreeSummary,
    GraphSchema,
    PERCENTILE_ALPHAS,
    PropertyGraph,
    TypeDegrees,
    components,
    induced_subgraph,
    nearest_rank,
)


# --------------------------------------------------------------------------
# Knapsack selection
# --------------------------------------------------------------------------

@dataclass
class Candidate:
    """One view candidate for selection: weight is its estimated edge
    count, value the summed per-query improvement over creation cost.
    ``plan_costs`` holds the estimated cost of each of its plans, by
    query name. ``twins`` are the ids of connectors with the same
    content that were dropped in its favour."""

    view: ViewInstance
    weight: float
    value: float
    per_query_plans: dict[str, RewritePlan] = field(default_factory=dict)
    plan_costs: dict[str, float] = field(default_factory=dict)
    size_estimate: SizeEstimate | None = None
    twins: list[str] = field(default_factory=list)

    def __post_init__(self):
        if self.weight <= 0:
            raise ValidationError("candidate weight must be positive")
        if self.value < 0:
            raise ValidationError("candidate value must be non-negative")


def select_views(candidates: list[Candidate], budget: float) -> list[Candidate]:
    """Value-maximal subset with total weight <= budget, solved exactly,
    of views that some query runs over: a chosen view with plan costs
    that is no query's pick (:func:`query_picks`) is dropped, and the
    rest are solved again, until every such view is a pick. Views
    without plan costs are kept as the knapsack chose them."""
    if budget < 0:
        raise ValidationError("budget must be non-negative")
    items = sorted(candidates, key=lambda c: c.view.view_id)
    ids = [c.view.view_id for c in items]
    if len(set(ids)) != len(ids):
        raise ValidationError("candidate view ids must be unique")
    capacity = math.floor(budget)
    while True:
        chosen = _solve(items, capacity)
        picked = {c.view.view_id for c in query_picks(chosen).values()}
        idle = {c.view.view_id for c in chosen
                if c.plan_costs and c.view.view_id not in picked}
        if not idle:
            return chosen
        items = [c for c in items if c.view.view_id not in idle]


def query_picks(chosen: list[Candidate]) -> dict[str, Candidate]:
    """The view each query runs over: among ``chosen``, the one with the
    cheapest plan for it (ties by view id)."""
    picks: dict[str, Candidate] = {}
    for cand in chosen:
        for name, cost in cand.plan_costs.items():
            held = picks.get(name)
            if held is None or ((cost, cand.view.view_id)
                                < (held.plan_costs[name], held.view.view_id)):
                picks[name] = cand
    return picks


def _solve(items: list[Candidate], capacity: int) -> list[Candidate]:
    """The exact knapsack over id-sorted ``items``."""
    weights = [math.ceil(c.weight) for c in items]
    values = [c.value for c in items]
    usable = [i for i in range(len(items)) if weights[i] <= capacity]
    if sum(weights[i] for i in usable) <= capacity:
        # everything fits; zero-value items lose the lower-weight tie-break
        return [items[i] for i in usable if values[i] > 0]
    return [items[i] for i in _knapsack(usable, weights, values, capacity)]


def _knapsack(usable, weights, values, capacity) -> list[int]:
    # fronts[p]: weight -> best value of a subset of usable[p:] of that
    # weight, kept only if every lighter weight is worth strictly less
    fronts = [{0: 0.0}]
    for i in reversed(usable):
        w, v, prev = weights[i], values[i], fronts[-1]
        pairs = list(prev.items())
        pairs += [(tw + w, tv + v) for tw, tv in prev.items()
                  if tw <= capacity - w]
        pairs.sort()
        front, best = {}, -1.0
        for tw, tv in pairs:
            if tv > best:
                front[tw] = best = tv
        fronts.append(front)
    fronts.reverse()
    # the heaviest weight kept is the lightest of the best value
    weight = max(fronts[0])
    value = fronts[0][weight]
    # include-first over id-sorted items: lexicographically smallest ids
    take = []
    for pos, i in enumerate(usable):
        rest = fronts[pos + 1].get(weight - weights[i])
        if rest is not None and rest + values[i] == value:
            take.append(i)
            weight, value = weight - weights[i], rest
    return take


# --------------------------------------------------------------------------
# Spanner materialization
# --------------------------------------------------------------------------

# a trail aggregate over an edge whose property is missing or not a number
_NON_NUMERIC = object()


def _connector_semiring(g: PropertyGraph, aggregates):
    """``extend``, ``plus`` and the seed of connector values. Without
    aggregates a value is the path count, a plain int; ``extend`` is None
    when no edge of ``g`` carries a path_count. With aggregates it is a
    tuple of the path count and, per property, the maximum along a trail
    joined by the minimum across trails. Max distributes over min, so
    the frontier sweep folds it exactly. A non-numeric step poisons the
    aggregates of every trail through it; materialization raises only
    when such a trail reaches a view edge."""
    count_step = _count_step(g)
    if not aggregates:
        return count_step, operator.add, 1
    eprops = g._eprops
    along = list(enumerate(aggregates, 1))
    across = range(1, len(aggregates) + 1)

    def extend(value: tuple, ei: int) -> tuple:
        props = eprops[ei]
        out = [value[0] if count_step is None else count_step(value[0], ei)]
        for i, prop in along:
            acc, step = value[i], props.get(prop)
            if (acc is _NON_NUMERIC or isinstance(step, bool)
                    or not isinstance(step, (int, float))):
                out.append(_NON_NUMERIC)
            else:
                out.append(step if acc is None else max(acc, step))
        return tuple(out)

    def plus(a: tuple, b: tuple) -> tuple:
        out = [a[0] + b[0]]
        for i in across:
            x, y = a[i], b[i]
            out.append(_NON_NUMERIC if x is _NON_NUMERIC or y is _NON_NUMERIC
                       else min(x, y))
        return tuple(out)

    return extend, plus, (1,) + (None,) * len(aggregates)


def connector_content(v: ViewInstance) -> tuple:
    """Everything :func:`materialize_spanner` reads of ``v`` but its edge
    label: connectors with equal keys materialize the same edges."""
    return (v.x_type, v.y_type, tuple(v.lengths), v.path_labels,
            v.through_types, v.edge_aggregates)


def _connector_scan(g: PropertyGraph, v: ViewInstance,
                    max_edges: int | None = None,
                    max_expanded: int | None = None):
    """The sources of connector ``v`` over ``g``, in ascending id order,
    and ``scan(chunk)``, which walks from each source of ``chunk`` and
    returns its (end, value) pairs, ends in ascending id order.
    ``max_edges`` caps the pairs all scans find together, as they are
    found; ``max_expanded`` the adjacency entries one scan reads."""
    if v.kind not in CONNECTOR_KINDS:
        raise ValidationError(f"{v.kind} is not a connector view")
    lo, hi = max(min(v.lengths), 1), max(v.lengths)   # lengths are lo..hi
    label_filter = frozenset(v.path_labels) if v.path_labels else None
    allowed = schema_index(g.schema).type_bands(v.x_type, v.y_type, lo, hi,
                                                label_filter)
    if v.through_types is not None:
        allowed = [v.through_types if types is None else types & v.through_types
                   for types in allowed]
    vids, vtypes, y_type = g._vids, g._vtypes, v.y_type
    sources = ([g._vindex[vid] for vid in sorted(g.vertices_of_type(v.x_type))]
               if allowed[0] is None or v.x_type in allowed[0] else [])
    extend, plus, seed = _connector_semiring(g, v.edge_aggregates)
    # numbers the pairs found in all chunks; next() on it is atomic
    filled = itertools.count(1)

    def scan(chunk: list[int]) -> dict[int, list[tuple[int, object]]]:
        found = {}
        stats = ExecutionStats()
        for u in chunk:
            reached = _walk(g, {u: seed}, lo, hi, extend, plus,
                            labels=label_filter, allowed=allowed,
                            max_expanded=max_expanded, stats=stats)
            ends = []
            for w, value in reached.items():
                if vtypes[w] != y_type:
                    continue
                if v.edge_aggregates and _NON_NUMERIC in value:
                    prop = next(prop for prop, agg
                                in zip(v.edge_aggregates, value[1:])
                                if agg is _NON_NUMERIC)
                    raise PropertyTypeMismatchError(
                        f"edge property {prop!r} must be numeric on every "
                        f"contracted edge")
                if max_edges is not None and next(filled) > max_edges:
                    raise BudgetExceededError(
                        f"spanner would materialize more than its cap of "
                        f"{max_edges} edges")
                ends.append(w)
            ends.sort(key=vids.__getitem__)
            found[u] = [(w, reached[w]) for w in ends]
        return found
    return sources, scan


def materialize_spanner(g: PropertyGraph, v: ViewInstance,
                        max_edges: int | None = None,
                        threads: int = 1) -> PropertyGraph:
    """Materialize a connector view over ``g``. One edge per ordered
    (src, dst) pair connected by at least one qualifying trail, counting
    its trails and carrying any requested trail aggregates. ``max_edges``
    is checked as pairs are found: the pair past it raises."""
    sources, scan = _connector_scan(g, v, max_edges=max_edges)
    if threads <= 1 or len(sources) < 2:
        found = scan(sources)
    else:
        chunks = [sources[i::threads] for i in range(threads)]
        found = {}
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for partial in pool.map(scan, chunks):
                found.update(partial)   # each source is in one chunk

    vids = g._vids
    endpoints = {w for pairs in found.values() for w, _ in pairs}
    endpoints.update(u for u, pairs in found.items() if pairs)
    vertices = sorted(endpoints, key=vids.__getitem__)
    at = {x: i for i, x in enumerate(vertices)}
    aggregates, label = v.edge_aggregates, v.view_label
    no_props: dict = {}   # shared by all edges: the store never hands it out
    esrc, edst, edges, counts = [], [], [], []
    for u in sources:   # pairs in ascending (src id, dst id) order
        for w, value in found[u]:
            esrc.append(at[u])
            edst.append(at[w])
            counts.append(value[0] if aggregates else value)
            props = dict(zip(aggregates, value[1:])) if aggregates else no_props
            edges.append((f"ve{len(edges):06d}", label, props))
    return PropertyGraph.derive(g, v.view_schema(g.schema), vertices,
                                esrc, edst, edges, counts)


# --------------------------------------------------------------------------
# Sparsifier materialization
# --------------------------------------------------------------------------

def materialize_sparsifier(g: PropertyGraph, v: ViewInstance) -> PropertyGraph:
    """Materialize a filter or aggregator view over ``g``."""
    for _, func in v.aggregations:
        if func not in AGGREGATE_FUNCS:
            raise ValidationError(f"unknown aggregate function {func!r}")
    if v.kind == "VertexInclusion":
        return _filter_vertices(g, v, keep_matching=True)
    if v.kind == "VertexRemoval":
        return _filter_vertices(g, v, keep_matching=False)
    if v.kind == "EdgeInclusion":
        return _filter_edges(g, v, keep_matching=True)
    if v.kind == "EdgeRemoval":
        return _filter_edges(g, v, keep_matching=False)
    if v.kind == "VertexAggregator":
        return _aggregate_vertices(g, v)
    if v.kind == "EdgeAggregator":
        return _aggregate_edges(g, v)
    if v.kind == "SubgraphAggregator":
        return _aggregate_subgraphs(g, v)
    raise ValidationError(f"{v.kind} is not a sparsifier view")


def _require_predicate(v: ViewInstance) -> Predicate:
    if v.predicate is None:
        raise ValidationError(f"{v.kind} needs a predicate")
    return v.predicate


def _filter_vertices(g, v, keep_matching: bool) -> PropertyGraph:
    pred = _require_predicate(v)
    kept = [i for i, (vtype, props) in enumerate(zip(g._vtypes, g._vprops))
            if pred.matches(vtype, props) == keep_matching]
    return induced_subgraph(g, v.view_schema(g.schema), kept)


def _filter_edges(g, v, keep_matching: bool) -> PropertyGraph:
    pred = _require_predicate(v)
    kept = [ei for ei, label in enumerate(g._elabel)
            if pred.matches(label, g._props(ei)) == keep_matching]
    return PropertyGraph.derive(g, v.view_schema(g.schema), list(range(g.n)),
                                [g._esrc[ei] for ei in kept],
                                [g._edst[ei] for ei in kept], kept)


def _member_type(g, members: list[int]) -> str | None:
    types = {g._vtypes[m] for m in members}
    if len(types) > 1:
        raise MixedTypeAggregationError(
            f"cannot aggregate vertices of different types {sorted(types)}")
    return next(iter(types), None)


def _aggregate_members(aggregations, members: list[dict], props: dict) -> dict:
    """``props`` plus each (property, function) aggregate over the
    members' property maps. A non-count aggregate over members that all
    lack the property is left out, not written as 0."""
    for prop, func in aggregations:
        if func != "count" and not any(prop in m for m in members):
            continue
        algebra = _aggregate(func, lambda m: m.get(prop), 0)
        acc = algebra.start
        for m in members:
            algebra.add(acc, m, 1)
        props[prop] = algebra.result(acc)
    return props


def _contract(g, v: ViewInstance, groups) -> PropertyGraph:
    """Replace the members of each (super id, base props, member
    indices) group by one supervertex of their type, carrying the base
    props and the view's aggregations over them. Other vertices stay;
    edges are rewired onto the supervertices, and dropped when they fall
    inside one."""
    vtypes, vprops = g._vtypes, g._vprops
    at: dict[int, int] = {}   # member -> its supervertex's position
    vertices: list = []
    for super_id, props, members in groups:
        at.update((m, len(vertices)) for m in members)
        vertices.append((super_id, vtypes[members[0]], _aggregate_members(
            v.aggregations, [vprops[m] for m in members], props)))
    pos = []
    for i in range(g.n):
        if i in at:
            pos.append(at[i])
        else:
            pos.append(len(vertices))
            vertices.append(i)
    esrc, edst, edges = [], [], []
    for ei, (s, d) in enumerate(zip(g._esrc, g._edst)):
        if s in at and pos[s] == pos[d]:
            continue  # absorbed into one supervertex
        esrc.append(pos[s])
        edst.append(pos[d])
        edges.append(ei)
    return PropertyGraph.derive(g, g.schema, vertices, esrc, edst, edges)


def _aggregate_vertices(g, v: ViewInstance) -> PropertyGraph:
    pred = _require_predicate(v)
    if not v.group_key:
        raise ValidationError("VertexAggregator needs a group_key")
    matching = [i for i, (vtype, props) in enumerate(zip(g._vtypes, g._vprops))
                if pred.matches(vtype, props)]
    vtype = _member_type(g, matching)
    groups: dict[tuple[bool, object], list[int]] = {}
    for i in matching:
        props = g._vprops[i]
        if v.group_key in props:
            value = props[v.group_key]
            # True == 1 and hashes alike: keep bool groups apart from int ones
            groups.setdefault((isinstance(value, bool), value), []).append(i)
    keys = sorted(groups, key=lambda key: repr(key[1]))
    ids = _group_ids(f"agg:{vtype}:", [value for _, value in keys])
    return _contract(g, v, [(super_id, {v.group_key: key[1]}, groups[key])
                            for super_id, key in zip(ids, keys)])


def _group_ids(prefix: str, values: list) -> list[str]:
    """``prefix`` plus each value as printed. Values that print alike
    (``1`` and ``"1"``) get ``#1``, ``#2``, ... in order instead, skipping
    ids that another value prints as, so every id is distinct."""
    names = [str(value) for value in values]
    printed = Counter(names)
    taken = set(names)
    ids = []
    for name in names:
        if printed[name] > 1:
            suffix = 1
            while f"{name}#{suffix}" in taken:
                suffix += 1
            name = f"{name}#{suffix}"
            taken.add(name)
        ids.append(prefix + name)
    return ids


def _aggregate_edges(g, v: ViewInstance) -> PropertyGraph:
    pred = _require_predicate(v)
    vids = g._vids
    groups: dict[tuple[int, int, str], list[dict]] = {}
    esrc, edst, edges = [], [], []
    for ei, (s, d, label, props) in enumerate(
            zip(g._esrc, g._edst, g._elabel, map(g._props, range(g.m)))):
        if pred.matches(label, props):
            groups.setdefault((s, d, label), []).append(props)
        else:
            esrc.append(s)
            edst.append(d)
            edges.append(ei)
    keys = sorted(groups, key=lambda key: (vids[key[0]], vids[key[1]], key[2]))
    for i, (s, d, label) in enumerate(keys):
        members = groups[(s, d, label)]
        esrc.append(s)
        edst.append(d)
        edges.append((f"eagg{i:06d}", label, _aggregate_members(
            v.aggregations, members, {"member_count": len(members)})))
    return PropertyGraph.derive(g, g.schema, list(range(g.n)), esrc, edst, edges)


def _aggregate_subgraphs(g, v: ViewInstance) -> PropertyGraph:
    pred = _require_predicate(v)
    vids = g._vids
    members = [i for i, (vtype, props) in enumerate(zip(g._vtypes, g._vprops))
               if pred.matches(vtype, props)]
    vtype = _member_type(g, members)
    member_set = set(members)
    links = [(vids[s], vids[d]) for s, d in zip(g._esrc, g._edst)
             if s in member_set and d in member_set]
    # sorted lists of disjoint sorted groups: ordered by smallest member
    groups = sorted(components([vids[i] for i in members], links))
    return _contract(g, v, [(f"agg:{vtype}:{group[0]}",
                             {"member_count": len(group)},
                             [g._vindex[m] for m in group])
                            for group in groups])


def materialize(g: PropertyGraph, v: ViewInstance,
                max_edges: int | None = None, threads: int = 1) -> PropertyGraph:
    """Materialize ``v`` over ``g``, with the view's acyclicity settled
    here rather than by the first query over it."""
    if v.kind not in CONNECTOR_KINDS:
        view_graph = materialize_sparsifier(g, v)
    else:
        view_graph = materialize_spanner(g, v, max_edges=max_edges,
                                         threads=threads)
        if g.is_acyclic:
            # a view edge joins the ends of a trail of >= 1 edges, so it
            # runs forward in any topological order of g
            view_graph._acyclic = True
    view_graph.is_acyclic   # computes and caches the flag when unset
    return view_graph


# --------------------------------------------------------------------------
# Summaries for rewritten-query costing, before anything is materialized
# --------------------------------------------------------------------------

# the sources a connector's sample walks from, id-strided, at most
SAMPLE_SOURCES = 64
# the adjacency entries a sample may read before the estimate stands in
SAMPLE_MAX_EXPANDED = 100_000


def sampled_degree_summary(g: PropertyGraph, v: ViewInstance,
                           raw: DegreeSummary) -> DegreeSummary | None:
    """Degree summary connector ``v`` is expected to have over ``g``, from
    the scan :func:`materialize_spanner` runs, walked from every
    ceil(n / SAMPLE_SOURCES)-th of its n sources in id order: every
    ``x_type`` vertex counts, with the out-degree percentiles of the
    sample. None when the sample reads more than
    SAMPLE_MAX_EXPANDED adjacency entries."""
    sources, scan = _connector_scan(g, v, max_expanded=SAMPLE_MAX_EXPANDED)
    try:
        found = scan(sources[::max(1, -(-len(sources) // SAMPLE_SOURCES))])
    except BudgetExceededError:
        return None
    degrees = sorted(map(len, found.values()))
    return _connector_summary(
        v, raw, {a: nearest_rank(degrees, a) for a in PERCENTILE_ALPHAS})


def view_degree_summary(v: ViewInstance, raw: DegreeSummary,
                        estimated_edges: float) -> DegreeSummary:
    """Degree summary of a connector view of ``estimated_edges`` edges
    spread evenly over its sources: the cost of a connector whose
    sample passes its cap."""
    deg = math.ceil(estimated_edges / max(raw.n_of(v.x_type), 1))
    return _connector_summary(v, raw, dict.fromkeys(PERCENTILE_ALPHAS, deg))


def _connector_summary(v: ViewInstance, raw: DegreeSummary,
                       percentiles: dict[int, int]) -> DegreeSummary:
    """A connector view's summary: every ``x_type`` vertex with the given
    out-degree percentiles, every ``y_type`` vertex with none."""
    per_type = {v.x_type: TypeDegrees(raw.n_of(v.x_type), percentiles)}
    if v.y_type != v.x_type:
        per_type[v.y_type] = TypeDegrees(raw.n_of(v.y_type),
                                         dict.fromkeys(PERCENTILE_ALPHAS, 0))
    return DegreeSummary(
        per_type=per_type,
        edge_source_types=frozenset({v.x_type}),
        total_vertices=sum(td.vertex_count for td in per_type.values()),
    )


def sparsifier_degree_summary(v: ViewInstance, raw: DegreeSummary,
                              schema: GraphSchema) -> DegreeSummary:
    """Summary proxy for a type/label filter view: kept types retain their
    raw distributions, filtered-out types disappear."""
    view_schema = v.view_schema(schema)
    per_type = {t: td for t, td in raw.per_type.items()
                if t in view_schema.vertex_types}
    return DegreeSummary(
        per_type=per_type,
        edge_source_types=view_schema.edge_source_types(),
        total_vertices=sum(td.vertex_count for td in per_type.values()),
    )


# --------------------------------------------------------------------------
# Catalog
# --------------------------------------------------------------------------

@dataclass
class CatalogEntry:
    view: ViewInstance
    graph: PropertyGraph
    actual_edges: int
    created_at: str


@dataclass
class ViewCatalog:
    entries: dict[str, CatalogEntry] = field(default_factory=dict)

    def add(self, view: ViewInstance, graph: PropertyGraph) -> CatalogEntry:
        entry = CatalogEntry(
            view=view, graph=graph, actual_edges=graph.m,
            created_at=time.strftime("%Y-%m-%dT%H:%M:%S"),
        )
        self.entries[view.view_id] = entry
        return entry

    def get(self, view_id: str) -> CatalogEntry:
        if view_id not in self.entries:
            raise ValidationError(f"view {view_id!r} is not in the catalog")
        return self.entries[view_id]


def _instance_to_dict(v: ViewInstance) -> dict:
    out = {
        "kind": v.kind, "x": v.x, "y": v.y, "x_type": v.x_type,
        "y_type": v.y_type, "k": v.k, "lo": v.lo, "hi": v.hi,
        "label": v.label, "group_key": v.group_key,
        "aggregations": [list(a) for a in v.aggregations],
        "edge_aggregates": list(v.edge_aggregates),
        "through_types": sorted(v.through_types) if v.through_types is not None else None,
        "provenance": v.provenance,
        "predicate": None,
    }
    if v.predicate is not None:
        out["predicate"] = {
            "types": sorted(v.predicate.types) if v.predicate.types is not None else None,
            "prop": list(v.predicate.prop) if v.predicate.prop is not None else None,
        }
    return out


def _instance_from_dict(raw: dict) -> ViewInstance:
    edge_aggregates = raw.get("edge_aggregates", [])
    if not isinstance(edge_aggregates, list) or not all(
            isinstance(prop, str) and prop for prop in edge_aggregates):
        raise CorruptCatalogError(
            f"edge_aggregates must be a list of edge property names, "
            f"got {edge_aggregates!r}")
    for field in ("k", "lo", "hi"):   # a bool is no hop count
        if type(raw.get(field, 0)) not in (int, type(None)):
            raise CorruptCatalogError(
                f"{field} must be an integer, got {raw[field]!r}")
    predicate = None
    if raw.get("predicate") is not None:
        p = raw["predicate"]
        predicate = Predicate(
            types=frozenset(p["types"]) if p.get("types") is not None else None,
            prop=tuple(p["prop"]) if p.get("prop") is not None else None,
        )
    return ViewInstance(
        kind=raw["kind"], x=raw.get("x"), y=raw.get("y"),
        x_type=raw.get("x_type"), y_type=raw.get("y_type"),
        k=raw.get("k"), lo=raw.get("lo"), hi=raw.get("hi"),
        label=raw.get("label"), predicate=predicate,
        group_key=raw.get("group_key"),
        aggregations=tuple(tuple(a) for a in raw.get("aggregations", [])),
        edge_aggregates=tuple(edge_aggregates),
        through_types=frozenset(raw["through_types"])
        if raw.get("through_types") is not None else None,
        provenance=raw.get("provenance", ""),
    )


_VIEW_FILE = re.compile(r"view\d{3,}_(vertices\.csv|edges\.csv|schema\.json)")


def _view_files(views: list[dict]) -> set[str]:
    """The file names a manifest's view list refers to that a save may
    have written."""
    names = {raw[key] for raw in views for key in ("vertices", "edges", "schema")}
    return {name for name in names if _VIEW_FILE.fullmatch(name)}


def catalog_save(catalog: ViewCatalog, path: str | Path) -> None:
    """Write the catalog as a manifest plus per-view CSV/schema files.

    View files never overwrite a file the current manifest refers to,
    and the new manifest replaces it in one rename after every view file
    is written, so a save that fails part-way leaves the catalog as it
    was. Files only the old manifest referred to are removed after."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    try:
        old = json.loads((root / "manifest.json").read_text(encoding="utf-8"))
        old_files = _view_files(old["views"])
    except (OSError, ValueError, KeyError, TypeError):
        old_files = set()
    taken = {name.split("_")[0] for name in old_files}
    free_stems = (stem for stem in (f"view{i:03d}" for i in itertools.count())
                  if stem not in taken)
    manifest = {"views": []}
    for view_id in sorted(catalog.entries):
        entry = catalog.entries[view_id]
        stem = next(free_stems)
        entry.graph.export_csv(root / f"{stem}_vertices.csv",
                               root / f"{stem}_edges.csv")
        (root / f"{stem}_schema.json").write_text(
            entry.graph.schema.to_json(), encoding="utf-8")
        manifest["views"].append({
            "id": view_id,
            "instance": _instance_to_dict(entry.view),
            "vertices": f"{stem}_vertices.csv",
            "edges": f"{stem}_edges.csv",
            "schema": f"{stem}_schema.json",
            "actual_edges": entry.actual_edges,
            "created_at": entry.created_at,
        })
    staged = root / "manifest.json.tmp"
    staged.write_text(json.dumps(manifest, indent=2, sort_keys=True),
                      encoding="utf-8")
    os.replace(staged, root / "manifest.json")
    for name in old_files - _view_files(manifest["views"]):
        (root / name).unlink(missing_ok=True)


def catalog_load(path: str | Path) -> ViewCatalog:
    """Load and validate a catalog directory."""
    from .store import load_graph

    root = Path(path)
    manifest_path = root / "manifest.json"
    if not manifest_path.exists():
        raise CorruptCatalogError(f"missing manifest at {manifest_path}")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        views = manifest["views"]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise CorruptCatalogError(f"malformed manifest: {exc}") from exc
    catalog = ViewCatalog()
    for raw in views:
        try:
            view_id = raw["id"]
            schema = GraphSchema.load(root / raw["schema"])
            graph = load_graph(root / raw["vertices"], root / raw["edges"], schema)
            view = _instance_from_dict(raw["instance"])
            stored_id = view.view_id
            entry = CatalogEntry(
                view=view, graph=graph,
                actual_edges=raw["actual_edges"],
                created_at=raw["created_at"],
            )
        except FileNotFoundError as exc:
            raise CorruptCatalogError(f"catalog file missing: {exc}") from exc
        except (KeyError, TypeError, ValidationError) as exc:
            raise CorruptCatalogError(f"catalog entry invalid: {exc}") from exc
        if stored_id != view_id:
            raise CorruptCatalogError(
                f"manifest id {view_id!r} names a {stored_id!r} view")
        if entry.actual_edges != graph.m:
            raise CorruptCatalogError(
                f"view {view_id!r}: manifest says {entry.actual_edges} edges, "
                f"files contain {graph.m}")
        catalog.entries[view_id] = entry
    return catalog
