"""Query evaluation over property graphs.

Pattern matching starts from the most selective typed vertex of each
connected pattern component (a vertex pinned by ``name.id = 'literal'``
is looked up directly) and expands adjacent constraints.
Variable-length paths match edge-distinct trails (vertices may repeat,
edge ids may not, within one path binding).

Trail-shaped work (variable-length paths, ``path_lengths``, connector
materialization) runs on one of two kernels. On an acyclic graph every
walk is a trail, so a level-synchronous frontier sweep folds all walks
of each length at once: (sum, x path_count) for multiplicities, (min,
reducer) for path lengths, O(hops x reachable edges). On a cyclic graph
a trail may not reuse an edge, and a depth-first trail search
enumerates them one by one. ``k_hop_neighborhood`` is a breadth-first
search on either. The work counters follow the kernel: on an acyclic
graph ``vertices_touched`` counts each (depth, vertex) of a frontier
that is expanded and ``edges_expanded`` each adjacency entry it scans;
on a cyclic graph they count trail prefixes and the entries scanned
from them.

An edge may declare that it stands for several parallel contracted paths
through an integer ``path_count`` property (written by connector view
materialization). A binding's multiplicity is the product of the
path_counts of every edge it traverses; aggregate contributions and
result rows are weighted accordingly. Raw edges carry no path_count, so
their multiplicity is 1 and the semantics reduces to plain Cypher-style
row-per-match. This is what makes a query rewritten over a contracted
view return byte-identical result tables on acyclic inputs.

Rows group implicitly by the non-aggregated RETURN columns. A missing
property evaluates to false in WHERE, is skipped by aggregates, and
groups as an empty cell in projections.
"""

from __future__ import annotations

import operator
import time
from dataclasses import dataclass

from .errors import PropertyTypeMismatchError, TypeNotInSchemaError, ValidationError
from .query import (
    Aggregate,
    And,
    Comparison,
    NameRef,
    Not,
    Or,
    PropertyRef,
    QueryGraph,
    ResultTable,
)
from .store import PropertyGraph

PATH_COUNT_PROP = "path_count"


@dataclass
class ExecutionStats:
    """Work counters for one run; deterministic in single-threaded mode."""

    edges_expanded: int = 0
    vertices_touched: int = 0
    wall_ms: float = 0.0


def _path_count(props: dict) -> int:
    pc = props.get(PATH_COUNT_PROP, 1)
    if isinstance(pc, bool) or not isinstance(pc, int) or pc < 1:
        raise PropertyTypeMismatchError(
            f"{PATH_COUNT_PROP} must be a positive integer, got {pc!r}")
    return pc


# --------------------------------------------------------------------------
# Pattern matching
# --------------------------------------------------------------------------

def execute(q: QueryGraph, g: PropertyGraph,
            stats: ExecutionStats | None = None) -> tuple[ResultTable, ExecutionStats]:
    """Evaluate ``q`` over ``g``; returns the result table and stats."""
    if stats is None:
        stats = ExecutionStats()
    started = time.perf_counter()
    _check_types(q, g)
    bindings = _match(q, g, stats)
    bindings = [bm for bm in bindings if _passes_filters(q, g, bm[0])]
    table = _project(q, g, bindings)
    stats.wall_ms += (time.perf_counter() - started) * 1000.0
    return table, stats


def _check_types(q: QueryGraph, g: PropertyGraph):
    for name, vtype in q.pattern_vertices.items():
        if vtype is not None and vtype not in g.schema.vertex_types:
            raise TypeNotInSchemaError(f"vertex type {vtype!r} not in schema")
    labels = g.schema.labels()
    for e in q.pattern_edges:
        if e.label is not None and e.label not in labels:
            raise TypeNotInSchemaError(f"edge label {e.label!r} not in schema")
    for p in q.var_length_paths:
        for label in p.labels or ():
            if label not in labels:
                raise TypeNotInSchemaError(f"edge label {label!r} not in schema")


@dataclass(frozen=True)
class _Constraint:
    index: int
    is_edge: bool
    src: str
    dst: str
    payload: object  # PatternEdge or VarLengthPath


def _match(q: QueryGraph, g: PropertyGraph, stats: ExecutionStats):
    components = _pattern_components(q)
    per_component: list[list[tuple[dict, int]]] = []
    for names in components:
        per_component.append(_match_component(q, g, names, stats))
    # cartesian product across disconnected components
    result = [({}, 1)]
    for rows in per_component:
        merged = []
        for base, base_mult in result:
            for binding, mult in rows:
                combined = dict(base)
                combined.update(binding)
                merged.append((combined, base_mult * mult))
        result = merged
        if not result:
            break
    return result


def _pattern_components(q: QueryGraph) -> list[list[str]]:
    parent = {name: name for name in q.pattern_vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in q.pattern_edges:
        parent[find(e.src)] = find(e.dst)
    for p in q.var_length_paths:
        parent[find(p.src)] = find(p.dst)
    groups: dict[str, list[str]] = {}
    for name in q.pattern_vertices:
        groups.setdefault(find(name), []).append(name)
    return [sorted(groups[root]) for root in sorted(groups)]


def _pinned_ids(q: QueryGraph) -> dict[str, str]:
    """Vertex names pinned by a conjunctive ``name.id = 'literal'``
    filter; used to narrow the anchor scan (the filter itself still runs
    on every binding, so pushdown only prunes, never decides)."""
    pinned: dict[str, str] = {}

    def walk(expr):
        if isinstance(expr, And):
            for child in expr.children:
                walk(child)
        elif (isinstance(expr, Comparison) and expr.op == "="
              and expr.lhs.key == "id"
              and not isinstance(expr.rhs, PropertyRef)
              and isinstance(expr.rhs.value, str)):
            pinned[expr.lhs.name] = expr.rhs.value

    if q.filters is not None:
        walk(q.filters)
    return pinned


def _anchor_of(q: QueryGraph, g: PropertyGraph, names: list[str],
               pinned: dict[str, str]) -> str:
    pinned_here = sorted(n for n in names if n in pinned)
    if pinned_here:
        return pinned_here[0]
    counts = g.type_counts()
    typed = [(counts.get(q.pattern_vertices[n], 0), n) for n in names
             if q.pattern_vertices[n] is not None]
    if typed:
        return min(typed)[1]
    return names[0]


def _match_component(q: QueryGraph, g: PropertyGraph, names: list[str],
                     stats: ExecutionStats) -> list[tuple[dict, int]]:
    constraints = []
    for i, e in enumerate(q.pattern_edges):
        if e.src in names or e.dst in names:
            constraints.append(_Constraint(i, True, e.src, e.dst, e))
    for i, p in enumerate(q.var_length_paths):
        if p.src in names or p.dst in names:
            constraints.append(_Constraint(100 + i, False, p.src, p.dst, p))

    pinned = _pinned_ids(q)
    anchor = _anchor_of(q, g, names, pinned)
    anchor_type = q.pattern_vertices[anchor]
    if anchor in pinned:
        candidates = [v for v in g.vertices_with_id(pinned[anchor])
                      if anchor_type is None or g.vertex_type(v) == anchor_type]
    elif anchor_type is not None:
        candidates = g.vertices_of_type(anchor_type)
    else:
        candidates = g.vertex_ids()

    out: list[tuple[dict, int]] = []
    for start in candidates:
        stats.vertices_touched += 1
        _expand(q, g, {anchor: start}, 1, list(constraints), out, stats)
    return out


def _pick_constraint(constraints: list[_Constraint], bound: set[str]) -> int:
    best = None
    best_key = None
    for idx, c in enumerate(constraints):
        ends_bound = (c.src in bound) + (c.dst in bound)
        if ends_bound == 0:
            continue
        key = (-ends_bound, 0 if c.is_edge else 1, c.index)
        if best_key is None or key < best_key:
            best, best_key = idx, key
    if best is None:
        raise ValidationError("pattern component is not connected")
    return best


def _expand(q, g, binding: dict, mult: int, constraints: list[_Constraint],
            out: list, stats: ExecutionStats):
    if not constraints:
        out.append((binding, mult))
        return
    idx = _pick_constraint(constraints, set(binding))
    c = constraints[idx]
    rest = constraints[:idx] + constraints[idx + 1:]
    if c.is_edge:
        _expand_edge(q, g, binding, mult, c, rest, out, stats)
    else:
        _expand_path(q, g, binding, mult, c, rest, out, stats)


def _type_ok(q, g, name: str, vid: str) -> bool:
    want = q.pattern_vertices[name]
    return want is None or g.vertex_type(vid) == want


def _expand_edge(q, g, binding, mult, c, rest, out, stats):
    e = c.payload
    src_bound = e.src in binding
    if src_bound:
        edges = g.out_edges(binding[e.src], e.label)
        other, other_is_dst = e.dst, True
    else:
        edges = g.in_edges(binding[e.dst], e.label)
        other, other_is_dst = e.src, False
    for eid, neighbor, _, props in edges:
        stats.edges_expanded += 1
        if other in binding:
            if binding[other] != neighbor:
                continue
            new_binding = dict(binding)
        else:
            if not _type_ok(q, g, other, neighbor):
                continue
            stats.vertices_touched += 1
            new_binding = dict(binding)
            new_binding[other] = neighbor
        if e.name is not None:
            new_binding[e.name] = eid
        _expand(q, g, new_binding, mult * _path_count(props), rest, out, stats)


def _expand_path(q, g, binding, mult, c, rest, out, stats):
    p = c.payload
    forward = p.src in binding
    start = binding[p.src] if forward else binding[p.dst]
    other = p.dst if forward else p.src
    reached = _trail_endpoints(g, start, p.lower, p.upper, p.labels,
                               forward, stats)
    for endpoint, path_mult in sorted(reached.items()):
        if other in binding:
            if binding[other] != endpoint:
                continue
            new_binding = dict(binding)
        else:
            if not _type_ok(q, g, other, endpoint):
                continue
            new_binding = dict(binding)
            new_binding[other] = endpoint
        _expand(q, g, new_binding, mult * path_mult, rest, out, stats)


def _trail_endpoints(g, start: str, lo: int, hi: int, labels, forward: bool,
                     stats: ExecutionStats) -> dict[str, int]:
    """Endpoints reachable by edge-distinct trails of length lo..hi, with
    the summed path_count-weighted trail multiplicity per endpoint."""
    reached = _walk(g, {g._require(start): 1}, lo, hi, _count_step(g),
                    operator.add, forward=forward,
                    labels=set(labels) if labels else None, stats=stats)
    return {g._vids[v]: count for v, count in reached.items()}


# --------------------------------------------------------------------------
# Traversal kernels
# --------------------------------------------------------------------------
#
# Both kernels fold a value along every trail of lo..hi edges from the
# seeds and combine the values of all trails that end at the same
# vertex: ``extend(value, edge index)`` is one step along a trail and
# ``plus(a, b)`` joins two trails, a semiring over the trails. The sweep
# folds walks, which are the trails only on an acyclic graph. Both work
# on the graph's internal integer ids and adjacency lists, return
# {vertex index: value}, and count every adjacency entry they scan as
# one expanded edge.

def _count_step(g: PropertyGraph):
    """``extend`` of the count semiring: multiply by the edge's path_count."""
    eprops = g._eprops

    def extend(count: int, ei: int) -> int:
        props = eprops[ei]
        return count * _path_count(props) if PATH_COUNT_PROP in props else count
    return extend


def _walk(g: PropertyGraph, seeds: dict, lo: int, hi: int, extend, plus, *,
          forward: bool = True, labels=None, allowed=None,
          stats: ExecutionStats) -> dict:
    """Fold over every trail of lo..hi edges: one frontier sweep on an
    acyclic graph, where every walk is a trail; edge-distinct trail
    enumeration otherwise."""
    kernel = _sweep if g.is_acyclic else _trails
    return kernel(g, seeds, lo, hi, extend, plus, forward=forward,
                  labels=labels, allowed=allowed, stats=stats)


def _sweep(g: PropertyGraph, seeds: dict, lo: int, hi: int, extend, plus, *,
           forward: bool = True, labels=None, allowed=None, seen=None,
           stats: ExecutionStats) -> dict:
    """Level-synchronous frontier sweep: level d maps every vertex at the
    end of a walk of d edges to ``plus`` over those walks, so the cost is
    O(hi x reachable edges) however many walks there are. Exact for walks
    on any graph; walks are trails only on an acyclic one.

    ``labels`` keeps edges with one of the labels, ``allowed[d]`` vertices
    of one of the types at depth d. A ``seen`` set turns the sweep into a
    breadth-first search: a vertex in it is not entered again, and every
    vertex entered is added to it."""
    adj, far = (g._out, g._edst) if forward else (g._in, g._esrc)
    elabel, vtypes = g._elabel, g._vtypes
    reached = dict(seeds) if lo == 0 else {}
    frontier = seeds
    for depth in range(1, hi + 1):
        types = allowed[depth] if allowed is not None else None
        nxt: dict = {}
        for v, value in frontier.items():
            edges = adj[v]
            stats.vertices_touched += 1
            stats.edges_expanded += len(edges)
            for ei in edges:
                if labels is not None and elabel[ei] not in labels:
                    continue
                w = far[ei]
                if types is not None and vtypes[w] not in types:
                    continue
                if seen is not None:
                    if w in seen:
                        continue
                    seen.add(w)
                x = extend(value, ei)
                nxt[w] = plus(nxt[w], x) if w in nxt else x
        if not nxt:
            break
        if depth >= lo:
            for w, x in nxt.items():
                reached[w] = plus(reached[w], x) if w in reached else x
        frontier = nxt
    return reached


def _trails(g: PropertyGraph, seeds: dict, lo: int, hi: int, extend, plus, *,
            forward: bool = True, labels=None, allowed=None,
            stats: ExecutionStats) -> dict:
    """Depth-first enumeration of edge-distinct trails (vertices may
    repeat), with the arguments (but ``seen``) and result of
    :func:`_sweep`. Its cost
    is O(#trails); on a cyclic graph it is the only exact choice, since
    a walk there may reuse an edge. ``plus`` joins trails in depth-first
    order."""
    adj, far = (g._out, g._edst) if forward else (g._in, g._esrc)
    elabel, vtypes = g._elabel, g._vtypes
    reached: dict = {}
    used: set[int] = set()

    def walk(v: int, depth: int, value):
        stats.vertices_touched += 1
        if depth >= lo:
            reached[v] = plus(reached[v], value) if v in reached else value
        if depth == hi:
            return
        types = allowed[depth + 1] if allowed is not None else None
        edges = adj[v]
        stats.edges_expanded += len(edges)
        for ei in edges:
            if labels is not None and elabel[ei] not in labels:
                continue
            if ei in used:
                continue
            w = far[ei]
            if types is not None and vtypes[w] not in types:
                continue
            x = extend(value, ei)
            used.add(ei)
            walk(w, depth + 1, x)
            used.discard(ei)

    for v, value in seeds.items():
        walk(v, 0, value)
    return reached


# --------------------------------------------------------------------------
# Filters and projection
# --------------------------------------------------------------------------

def _resolve(q, g, binding: dict, name: str, key: str):
    """Property lookup for a bound vertex or edge; ``id`` falls back to
    the element id. Returns None when missing."""
    element = binding[name]
    if name in q.pattern_vertices:
        props = g.vertex_props(element)
    else:
        props = g.edge_props(element)
    if key in props:
        return props[key]
    if key == "id":
        return element
    return None


def _eval_filter(q, g, binding, expr) -> bool:
    if isinstance(expr, And):
        return all(_eval_filter(q, g, binding, child) for child in expr.children)
    if isinstance(expr, Or):
        return any(_eval_filter(q, g, binding, child) for child in expr.children)
    if isinstance(expr, Not):
        return not _eval_filter(q, g, binding, expr.child)
    return _eval_comparison(q, g, binding, expr)


def _eval_comparison(q, g, binding, cmp: Comparison) -> bool:
    lhs = _resolve(q, g, binding, cmp.lhs.name, cmp.lhs.key)
    if isinstance(cmp.rhs, PropertyRef):
        rhs = _resolve(q, g, binding, cmp.rhs.name, cmp.rhs.key)
    else:
        rhs = cmp.rhs.value
    if lhs is None or rhs is None:
        return False
    lhs_num = isinstance(lhs, (int, float)) and not isinstance(lhs, bool)
    rhs_num = isinstance(rhs, (int, float)) and not isinstance(rhs, bool)
    comparable = (lhs_num and rhs_num) or type(lhs) is type(rhs)
    if cmp.op == "=":
        return lhs == rhs if comparable else False
    if cmp.op == "<>":
        return lhs != rhs if comparable else True
    if not comparable:
        raise PropertyTypeMismatchError(
            f"cannot order {type(lhs).__name__} against {type(rhs).__name__}")
    if cmp.op == "<":
        return lhs < rhs
    if cmp.op == "<=":
        return lhs <= rhs
    if cmp.op == ">":
        return lhs > rhs
    return lhs >= rhs


def _passes_filters(q, g, binding) -> bool:
    if q.filters is None:
        return True
    return _eval_filter(q, g, binding, q.filters)


def _eval_projection(q, g, binding, expr):
    if isinstance(expr, NameRef):
        return binding[expr.name]
    return _resolve(q, g, binding, expr.name, expr.key)


def _numeric(value, context: str):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise PropertyTypeMismatchError(
            f"{context} requires a numeric value, got {value!r}")
    return value


class _Accumulator:
    def __init__(self, func: str):
        self.func = func
        self.total = 0
        self.weight = 0
        self.extreme = None

    def add(self, value, mult: int):
        if self.func == "count":
            self.total += mult
            return
        value = _numeric(value, self.func)
        if self.func in ("sum", "avg"):
            self.total += value * mult
            self.weight += mult
        elif self.func == "max":
            self.extreme = value if self.extreme is None else max(self.extreme, value)
        elif self.func == "min":
            self.extreme = value if self.extreme is None else min(self.extreme, value)

    def result(self):
        if self.func == "count":
            return self.total
        if self.func == "sum":
            return self.total
        if self.func == "avg":
            return self.total / self.weight if self.weight else None
        return self.extreme


def _project(q: QueryGraph, g: PropertyGraph, bindings) -> ResultTable:
    columns = tuple(item.alias for item in q.projection)
    group_items = q.group_keys()
    agg_items = q.aggregates()

    if not agg_items:
        rows = []
        for binding, mult in bindings:
            row = tuple(_eval_projection(q, g, binding, i.expr) for i in q.projection)
            rows.extend([row] * mult)
        return _order_and_limit(q, ResultTable(columns, rows))

    groups: dict[tuple, dict[int, _Accumulator]] = {}
    for binding, mult in bindings:
        key = tuple(_eval_projection(q, g, binding, i.expr) for i in group_items)
        if key not in groups:
            groups[key] = {
                idx: _Accumulator(item.expr.func)
                for idx, item in enumerate(q.projection)
                if isinstance(item.expr, Aggregate)
            }
        for idx, acc in groups[key].items():
            agg: Aggregate = q.projection[idx].expr
            if isinstance(agg.arg, NameRef):
                acc.add(binding[agg.arg.name], mult)
            else:
                value = _resolve(q, g, binding, agg.arg.name, agg.arg.key)
                if value is not None:
                    acc.add(value, mult)

    if not groups and not group_items:
        # aggregate over an empty match: count()/sum() are 0, others null
        zeros = {"count": 0, "sum": 0, "avg": None, "max": None, "min": None}
        rows = [tuple(zeros[item.expr.func] for item in q.projection)]
        return _order_and_limit(q, ResultTable(columns, rows))

    rows = []
    for key in groups:
        accs = groups[key]
        row = []
        key_iter = iter(key)
        for idx, item in enumerate(q.projection):
            if isinstance(item.expr, Aggregate):
                row.append(accs[idx].result())
            else:
                row.append(next(key_iter))
        rows.append(tuple(row))
    return _order_and_limit(q, ResultTable(columns, rows))


def _order_and_limit(q: QueryGraph, table: ResultTable) -> ResultTable:
    rows = sorted(table.rows, key=_row_key)
    if q.order_by is not None:
        idx = table.columns.index(q.order_by.alias)
        rows.sort(key=lambda r: _cell_key(r[idx]), reverse=q.order_by.descending)
    if q.limit is not None:
        rows = rows[:q.limit]
    return ResultTable(table.columns, rows)


def _cell_key(value):
    if value is None:
        return (0, "")
    if isinstance(value, bool):
        return (1, value)
    if isinstance(value, (int, float)):
        return (2, float(value))
    return (3, value)


def _row_key(row):
    return tuple(_cell_key(v) for v in row)


# --------------------------------------------------------------------------
# Graph operation primitives
# --------------------------------------------------------------------------

def k_hop_neighborhood(g: PropertyGraph, sources, direction: str, k_max: int,
                       labels=None,
                       stats: ExecutionStats | None = None) -> set[str]:
    """Vertices reachable from the source set in 1..k_max hops.
    direction: 'forward' follows out-edges (descendants), 'backward'
    follows in-edges (ancestors). A breadth-first search on any graph:
    each vertex is expanded once, at its first hop."""
    if direction not in ("forward", "backward"):
        raise ValidationError(f"direction must be forward|backward, got {direction!r}")
    if stats is None:
        stats = ExecutionStats()
    seeds = {g._require(v): True for v in sorted(set(sources))}
    reached = _sweep(g, seeds, 1, k_max, lambda value, ei: value, operator.add,
                     forward=direction == "forward",
                     labels=set(labels) if labels else None,
                     seen=set(seeds), stats=stats)
    return {g._vids[v] for v in reached}


_REDUCERS = {
    "max": max,
    "min": min,
    "sum": operator.add,
}


def path_lengths(g: PropertyGraph, source: str, k_max: int,
                 edge_property: str, reducer: str = "max",
                 stats: ExecutionStats | None = None) -> dict[str, float]:
    """For each vertex reachable by a forward trail of <= k_max edges:
    reduce ``edge_property`` along each trail, then take the minimum
    across trails (a weighted-distance reading). Every reducer is
    monotone, so keeping only the smallest value per vertex and depth is
    exact."""
    if reducer not in _REDUCERS:
        raise ValidationError(f"unknown reducer {reducer!r}")
    if stats is None:
        stats = ExecutionStats()
    combine = _REDUCERS[reducer]
    eprops = g._eprops
    context = f"edge property {edge_property!r}"

    def extend(acc, ei: int):
        value = _numeric(eprops[ei].get(edge_property), context)
        return value if acc is None else combine(acc, value)

    best = _walk(g, {g._require(source): None}, 1, k_max, extend, min,
                 stats=stats)
    return {g._vids[v]: value for v, value in best.items()}


def label_propagation(g: PropertyGraph, passes: int,
                      stats: ExecutionStats | None = None) -> dict[str, str]:
    """Synchronous label propagation. Labels start as vertex ids; each
    pass every vertex adopts the most frequent label among its in- and
    out-neighbors (its own current label casts one vote), ties broken by
    the smallest label. Deterministic."""
    if passes < 1:
        raise ValidationError("passes must be >= 1")
    if stats is None:
        stats = ExecutionStats()
    order = sorted(g.vertex_ids())
    labels = {v: v for v in order}
    neighbors: dict[str, list[tuple[str, int]]] = {v: [] for v in order}
    for _, src, dst, _, props in g.edges():
        weight = _path_count(props)
        neighbors[src].append((dst, weight))
        neighbors[dst].append((src, weight))
    for _ in range(passes):
        updated = {}
        changed = False
        for v in order:
            stats.vertices_touched += 1
            votes: dict[str, int] = {labels[v]: 1}
            for neighbor, weight in neighbors[v]:
                stats.edges_expanded += 1
                lab = labels[neighbor]
                votes[lab] = votes.get(lab, 0) + weight
            best = min(votes.items(), key=lambda kv: (-kv[1], kv[0]))[0]
            updated[v] = best
            changed = changed or best != labels[v]
        labels = updated
        if not changed:
            break
    return labels


def largest_community(g: PropertyGraph, labels: dict[str, str],
                      count_type: str) -> tuple[str, PropertyGraph]:
    """The community with the most ``count_type`` vertices (ties broken by
    the smallest label) as (label, induced subgraph)."""
    missing = [v for v in g.vertex_ids() if v not in labels]
    if missing:
        raise ValidationError(f"labels missing for {len(missing)} vertices")
    counts: dict[str, int] = {}
    for vid in g.vertex_ids():
        lab = labels[vid]
        counts.setdefault(lab, 0)
        if g.vertex_type(vid) == count_type:
            counts[lab] += 1
    winner = min(counts.items(), key=lambda kv: (-kv[1], kv[0]))[0]
    members = {v for v in g.vertex_ids() if labels[v] == winner}
    vertices = [(v, g.vertex_type(v), g.vertex_props(v)) for v in sorted(members)]
    edges = [(eid, src, dst, label, props)
             for eid, src, dst, label, props in g.edges()
             if src in members and dst in members]
    return winner, PropertyGraph.build(g.schema, vertices, edges)
