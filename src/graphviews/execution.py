"""Query evaluation over property graphs.

Pattern matching starts from the most selective typed vertex of each
connected pattern component and expands adjacent constraints. A vertex
pinned by a conjunctive ``name.id = 'literal'`` is looked up directly;
when it anchors its component, its candidates are exactly the vertices
on which that conjunct holds, so the conjunct leaves the filter.
Variable-length paths match edge-distinct trails (vertices may repeat,
edge ids may not, within one path binding). Each one walks only the
vertex types of its schema type bands: the types that can still reach
the declared type of its far end within its length range.

The matcher backtracks through one mutable list of the graph's internal
integer indices: a slot per pattern vertex, and one per named edge that
is read. One planner, ``_plan``, orders a component's links for both
the matcher and the fold and gives each step its labels and type bands.
The order depends only on which names are bound, so each component is
compiled once into a fixed list of steps over the graph's arrays. A
finished binding is keyed by its live names only, those a filter, the
projection or an aggregate reads (``QueryGraph.referenced_names``), and
bindings with one key sum their multiplicities. A name nobody reads is
summed out, as in a factorised representation: a pattern through
unread middle vertices keeps one entry per distinct tuple of its read
names. A variable-length step
whose start no later step and no live name reads sums that start out
before it walks, as eager aggregation does below a join: the steps
before it gather {start: multiplicity} per prefix of the names still
read, and one walk per prefix runs from the summed multiplicities.
Filters and projection compile to getters from a key slot to the
element's properties; external ids are used only for the ``id``
fallback and for returning a bound name itself.

Trail-shaped work (variable-length paths, ``path_lengths``, connector
materialization) runs on one of two kernels. On an acyclic graph every
walk is a trail, so a level-synchronous frontier sweep folds all walks
of each length at once: (sum, x path_count) for multiplicities, (min,
max) for path lengths, O(hops x reachable edges). On a cyclic graph
a trail may not reuse an edge, and a depth-first trail search
enumerates them one by one. ``k_hop_neighborhood`` is a breadth-first
search on either. Each step, fixed or variable-length, reads its
edges from a selection (``PropertyGraph.step_edges``): per vertex, only
the adjacency entries of the schema triples with one of the step's
labels into one of the types of its band, derived from the flat
adjacency lists on first use (on the provenance schema, a Job's step
toward a File never scans its SPAWNS entries). The work counters follow
the kernel: on an acyclic graph ``vertices_touched`` counts each
(depth, vertex) of a frontier that is expanded and ``edges_expanded``
each entry of the triples a step may take that it scans; on a cyclic
graph they count trail prefixes and the entries scanned from them. A
fold counts only its sweeps, fixed edges included; the matcher also
counts its anchors and, per fixed edge, the far ends it binds.

An edge may declare that it stands for several parallel contracted paths
through a positive integer ``path_count`` (each edge of a connector view
has one), read from the column the store checks at load. A
binding's multiplicity is the product of the path_counts of every edge
it traverses; aggregate contributions and result rows are weighted
accordingly. Raw edges carry none, so their multiplicity is 1 and the
semantics reduces to plain Cypher-style row-per-match: a query rewritten
over a contracted view returns byte-identical tables on acyclic inputs.

An aggregate query is folded, not matched, when its one component is a
chain of fixed edges and at least one variable-length path with no
pinned name, every aggregate reads one end of the chain (A), the group
keys and the filter read only the other end (G), so no named edge is
read, and the graph is acyclic, so that the sweep is exact. Every
vertex of A's type is seeded with its group accumulator, as one binding
of multiplicity 1; then each step, from A to G, is one frontier sweep
(a fixed edge is a sweep of one level) whose ``plus`` merges the
accumulators of walks that meet and whose ``extend`` scales their
count, sum and avg slots by an edge's path_count. What a G vertex ends
with is what all of its bindings would add to its group, so the
projection merges it in; this is eager aggregation carried to the start
of the chain, one pass instead of a walk per G vertex. A value on A's
candidates that an aggregate cannot take falls back to the matcher,
which raises only if a binding reaches it.

Rows group implicitly by the non-aggregated RETURN columns. A missing
property evaluates to false in WHERE, is skipped by aggregates, and
groups as an empty cell in projections. Each distinct binding or group
is projected and sorted once, and its row is repeated by its
multiplicity only after ORDER BY, until LIMIT rows are out.
"""

from __future__ import annotations

import operator
import time
from dataclasses import dataclass
from itertools import chain, islice, repeat, starmap
from typing import Callable, NamedTuple

from .errors import (
    BudgetExceededError,
    PropertyTypeMismatchError,
    TypeNotInSchemaError,
    ValidationError,
)
from .mining import schema_index
from .query import (
    Aggregate,
    And,
    Comparison,
    NameRef,
    Not,
    Or,
    PatternEdge,
    PropertyRef,
    QueryGraph,
    ResultTable,
    VarLengthPath,
    _cell_sort_key,
    _expr_names,
    _row_sort_key,
)
from .store import PropertyGraph, induced_subgraph


@dataclass
class ExecutionStats:
    """Work counters for one run; deterministic in single-threaded mode."""

    edges_expanded: int = 0
    vertices_touched: int = 0
    wall_ms: float = 0.0


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
    pinned = _pinned_ids(q)
    table = _fold(q, g, stats, pinned)
    if table is None:
        bindings, slots, settled = _match(q, g, stats, pinned)
        residual = _without(q.filters, settled)
        if residual is not None:
            test = _compile_filter(q, g, slots, residual)
            bindings = [bm for bm in bindings if test(bm[0])]
        table = _project(q, g, slots, bindings)
    stats.wall_ms += (time.perf_counter() - started) * 1000.0
    return table, stats


def _fold_chain(q: QueryGraph, g: PropertyGraph,
                pinned: dict[str, Comparison]):
    """``(G, A, steps)`` when ``q`` folds over ``g``, else None: its one
    component is a chain of fixed edges and at least one variable-length
    path with no name in ``pinned``, every aggregate reads the chain's end
    vertex A, and the group keys and the filter read only the other end
    G, so no named edge is read; ``g`` is acyclic. ``steps`` are
    :func:`_plan`'s from A; the component is a chain from A exactly when
    each step leaves from the far end of the one before and reaches a
    name not yet bound."""
    if not q.var_length_paths or not g.is_acyclic or pinned:
        return None
    ends = {item.expr.arg.name for item in q.aggregates()}
    components = q.components()
    if (len(ends) != 1 or not ends <= q.pattern_vertices.keys()
            or len(components) != 1):
        return None   # not one aggregated vertex, or a product
    (agg_end,) = ends
    steps = _plan(q, g, components[0], agg_end)
    here = agg_end
    for step in steps:
        if step.here != here or step.there_bound:
            return None   # a branch, a cycle, or A in the middle
        here = step.there
    read = {item.expr.name for item in q.group_keys()}
    if q.filters is not None:
        read.update(_expr_names(q.filters))
    if not read <= {here}:
        return None
    return here, agg_end, steps


def _fold(q: QueryGraph, g: PropertyGraph, stats: ExecutionStats,
          pinned: dict[str, Comparison]) -> ResultTable | None:
    """The table of ``q`` from one sweep along its chain from A to G
    (:func:`_fold_chain`), or None when the fold does not apply: every
    vertex of A's type is seeded with its accumulator list (one binding
    of multiplicity 1), each step is a frontier sweep whose ``plus``
    merges the lists of walks meeting at a vertex and whose ``extend``
    scales them by an edge's path_count, and each G vertex reached gives
    the bindings of its group. A value on A's candidates that an
    aggregate cannot take also means None: the matcher raises for it if,
    and only if, a binding reaches it. ``pinned`` is :func:`_pinned_ids`
    of ``q``."""
    chain = _fold_chain(q, g, pinned)
    if chain is None:
        return None
    group_end, agg_end, steps = chain
    folded = algebras, initial = _algebras(q, g, {agg_end: 0})
    add = _each([algebra.add for algebra in algebras])
    types, vtypes = q.pattern_vertices, g._vtypes
    seeds = {}
    try:
        for v in _vertices(g, types[agg_end]):
            acc = seeds[v] = list(initial)
            add(acc, (v,), 1)
    except PropertyTypeMismatchError:
        return None

    merge = _each([algebra.merge for algebra in algebras])

    def plus(acc, other):
        acc = acc.copy()
        merge(acc, other)
        return acc

    extend = None
    counts = g._path_counts
    scales = [algebra.scale for algebra in algebras
              if algebra.scale is not None]
    if counts is not None and scales:
        def extend(acc, ei):
            n = counts[ei]
            if n == 1:
                return acc
            acc = acc.copy()
            for scale in scales:
                scale(acc, n)
            return acc

    frontier = seeds
    for step in steps:
        frontier = _sweep(g, frontier, step.lo, step.hi, extend, plus,
                          forward=step.forward, labels=step.labels,
                          allowed=step.bands, stats=stats)
        want = types[step.there]
        if want is not None:
            frontier = {v: acc for v, acc in frontier.items()
                        if vtypes[v] == want}
    slots = {group_end: 0}
    bindings = [((v,), acc) for v, acc in frontier.items()]
    if q.filters is not None:
        test = _compile_filter(q, g, slots, q.filters)
        bindings = [pair for pair in bindings if test(pair[0])]
    return _project(q, g, slots, bindings, folded)


def _vertices(g: PropertyGraph, vtype: str | None):
    """The internal indexes of the vertices of ``vtype`` (of every vertex
    when None), ascending."""
    return range(g.n) if vtype is None else g._members(vtype)


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


def _match(q: QueryGraph, g: PropertyGraph, stats: ExecutionStats,
           pinned: dict[str, Comparison]
           ) -> tuple[list[tuple[tuple, int]], dict[str, int], list[Comparison]]:
    """Every distinct binding of the live names, those a filter, the
    projection or an aggregate reads, as (key tuple, summed
    multiplicity); the key slot of each live name; and the filter
    conjuncts that hold on every binding because a pinned anchor's
    candidates were looked up by them. Components take consecutive key
    slots, so the cartesian product across them concatenates their keys,
    base-major; a component with no live name gives one ``()`` key
    carrying its total multiplicity. ``pinned`` is :func:`_pinned_ids`
    of ``q``."""
    live = q.referenced_names()
    slots: dict[str, int] = {}
    settled = []
    per_component = []
    for names in q.components():
        layout = names + [e.name for e in q.pattern_edges
                          if e.name in live and e.src in names]
        anchor = _anchor_of(q, g, names, pinned)
        pin = pinned.get(anchor)
        if pin is not None:
            settled.append(pin)
        keyed = [name for name in layout if name in live]
        per_component.append(
            _match_component(q, g, names, layout, keyed, anchor, pin, stats))
        slots.update((name, len(slots)) for name in keyed)
    result = per_component[0]
    for rows in per_component[1:]:
        if not result:
            break
        result = [(base + binding, base_mult * mult)
                  for base, base_mult in result for binding, mult in rows]
    return result, slots, settled


def _pinned_ids(q: QueryGraph) -> dict[str, Comparison]:
    """Each name pinned by a conjunctive ``name.id = 'literal'`` filter,
    mapped to its last such conjunct. A pinned anchor's candidates are
    :meth:`PropertyGraph.vertices_with_id` of the literal, exactly the
    vertices on which that conjunct holds, so pushdown decides it; other
    conjuncts on the name still run on every binding. The conjuncts are
    visited in order from a list, not by a nested recursive function,
    which would be a reference cycle left to the garbage collector on
    every call."""
    pinned: dict[str, Comparison] = {}
    todo = [] if q.filters is None else [q.filters]
    while todo:
        expr = todo.pop()
        if isinstance(expr, And):
            todo.extend(reversed(expr.children))
        elif (isinstance(expr, Comparison) and expr.op == "="
              and expr.lhs.key == "id"
              and not isinstance(expr.rhs, PropertyRef)
              and isinstance(expr.rhs.value, str)):
            pinned[expr.lhs.name] = expr
    return pinned


def _without(expr, settled: list[Comparison]):
    """``expr`` less the conjuncts in ``settled`` (by identity); None when
    nothing is left."""
    if expr is None or any(expr is c for c in settled):
        return None
    if settled and isinstance(expr, And):
        kept = [c for c in (_without(child, settled) for child in expr.children)
                if c is not None]
        if len(kept) < 2:
            return kept[0] if kept else None
        return And(tuple(kept))
    return expr


def _anchor_of(q: QueryGraph, g: PropertyGraph, names: list[str],
               pinned: dict[str, Comparison]) -> str:
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
                     layout: list[str], keyed: list[str], anchor: str,
                     pin: Comparison | None,
                     stats: ExecutionStats) -> list[tuple[tuple, int]]:
    anchor_type = q.pattern_vertices[anchor]
    if pin is None:
        candidates = _vertices(g, anchor_type)
    else:
        candidates = [g._vindex[v] for v in g.vertices_with_id(pin.rhs.value)]
        if anchor_type is not None:
            candidates = [v for v in candidates
                          if g._vtypes[v] == anchor_type]

    out: dict[tuple, int] = {}
    slot = {name: i for i, name in enumerate(layout)}
    first, each, last = _compile_steps(q, g, names, anchor, slot,
                                       [slot[name] for name in keyed], out,
                                       stats)
    binding = [None] * len(layout)
    at = slot[anchor]
    stats.vertices_touched += len(candidates)
    for start in candidates:
        binding[at] = start
        first(binding, 1)
        for flush in each:
            flush()
    for flush in last:
        flush()
    return list(out.items())


class _Step(NamedTuple):
    """One link of a component's plan, walked from the bound name
    ``here`` to ``there``, along the link when ``forward``."""

    link: PatternEdge | VarLengthPath
    forward: bool
    here: str
    there: str
    there_bound: bool         # ``there`` is bound before this step
    before: frozenset[str]    # the names bound before it, named edges too
    labels: frozenset[str] | None   # the labels it may take; None: any
    lo: int
    hi: int
    bands: tuple              # per depth 0..hi, its types; None: any


def _plan(q: QueryGraph, g: PropertyGraph, names: list[str],
          start: str) -> list[_Step]:
    """The steps that match the component of ``names`` from ``start``,
    the one order both the matcher and the fold walk its links in: each
    takes a link with both ends bound while one is left, else one with
    one end bound, a fixed edge before a path, each kind in query order.
    A path's bands are its schema type bands
    (:meth:`SchemaIndex.type_bands`); a fixed edge's are the declared
    types of its two ends."""
    types = q.pattern_vertices
    index = schema_index(g.schema)
    links = [link for link in (*q.pattern_edges, *q.var_length_paths)
             if link.src in names or link.dst in names]
    bound = {start}
    steps = []
    while links:
        ends = [(link.src in bound) + (link.dst in bound) for link in links]
        most = max(ends)
        if not most:
            raise ValidationError("pattern component is not connected")
        link = links.pop(ends.index(most))
        forward = link.src in bound
        here, there = (link.src, link.dst) if forward else (link.dst, link.src)
        if isinstance(link, VarLengthPath):
            labels = frozenset(link.labels) if link.labels else None
            lo, hi = link.lower, link.upper
            bands = index.type_bands(types[here], types[there], lo, hi,
                                     labels, forward)
        else:
            labels = None if link.label is None else frozenset((link.label,))
            lo = hi = 1
            bands = tuple(None if types[name] is None
                          else frozenset((types[name],))
                          for name in (here, there))
        steps.append(_Step(link, forward, here, there, there in bound,
                           frozenset(bound), labels, lo, hi, bands))
        bound.update((here, there))
        if isinstance(link, PatternEdge) and link.name is not None:
            bound.add(link.name)
    return steps


def _compile_steps(q, g, names: list[str], anchor: str, slot: dict[str, int],
                   keep: list[int], out: dict, stats: ExecutionStats):
    """The component's step plan as ``(first, each, last)``: one callable
    ``first(binding, mult)`` and two lists of flushes. Steps follow
    :func:`_plan` from the anchor, each extending the binding and calling
    the next. The last keys the finished binding by its entries at the
    ``keep`` slots, those of the live names, and adds its multiplicity to
    that key's in ``out``.

    A variable-length step whose start slot is not needed after it (it is
    no live name and no end of a later step) and is not its own far end is
    a merge point: its start is summed out before the walk. Its step
    gathers {start vertex: multiplicity} under the binding's prefix, the
    slots bound before the merge point that are needed after it or are
    its bound far end. Its flush runs one walk per buffered prefix,
    seeded with the summed multiplicities, and goes on down the chain.
    Flushes whose prefix holds the anchor are in ``each``, to run after
    each anchor candidate; the others are in ``last``, to run once after
    every candidate, so a dead anchor seeds one walk. Both lists are in
    plan order, so one flush fills later buffers before they run."""
    key_of = _slot_getter(keep, len(slot))
    total = out.get

    def emit(binding: list, mult: int):
        key = key_of(binding)
        out[key] = total(key, 0) + mult

    step = emit
    needed = set(keep)
    each, last = [], []
    for s in reversed(_plan(q, g, names, anchor)):
        start, end = slot[s.here], slot[s.there]
        if not isinstance(s.link, VarLengthPath):
            step = _edge_step(g, s, slot, step, stats)
        else:
            follow = _path_walk(g, s, slot, q.pattern_vertices[s.there],
                                step, stats)
            if start in needed or start == end:
                step = _path_step(start, follow)
            else:
                filled = {slot[name] for name in s.before if name in slot}
                prefix = sorted(filled & (needed | {end}))
                buffer: dict[tuple, dict] = {}
                flushes = each if slot[anchor] in prefix else last
                flushes.append(_flush(prefix, len(slot), buffer, follow))
                step = _gather(prefix, len(slot), start, buffer)
        needed.update((start, end))
    each.reverse()
    last.reverse()
    return step, each, last


def _slot_getter(keep: list[int], width: int):
    """binding list of ``width`` slots -> tuple of its entries at the
    ascending ``keep`` slots."""
    if len(keep) == width:
        return tuple
    if len(keep) > 1:
        return operator.itemgetter(*keep)
    if keep:
        (at,) = keep
        return lambda binding: (binding[at],)
    return lambda binding: ()


def _edge_step(g: PropertyGraph, s: _Step, slot: dict[str, int], nxt,
               stats):
    """The fixed edge of step ``s`` from the vertex in its ``here`` slot,
    in ascending edge id order, over the selection of its labels and
    bands: the far end must equal the ``there`` slot's when that is
    bound, else is bound to it. A bound far end has its declared type
    already, so the selection holds every edge that can reach it. Each
    edge taken multiplies in its ``path_count``."""
    adj, _ = g.step_edges(s.forward, s.labels, s.bands[1], s.bands[0])
    far, counts = (g._edst if s.forward else g._esrc), g._path_counts
    here, there, there_bound = slot[s.here], slot[s.there], s.there_bound
    named = slot.get(s.link.name)

    def step(binding: list, mult: int):
        edges = adj[binding[here]]
        stats.edges_expanded += len(edges)
        touched = 0
        for ei in edges:
            w = far[ei]
            if there_bound:
                if binding[there] != w:
                    continue
            else:
                touched += 1
                binding[there] = w
            if named is not None:
                binding[named] = ei
            nxt(binding, mult if counts is None else mult * counts[ei])
        stats.vertices_touched += touched
    return step


def _path_walk(g: PropertyGraph, s: _Step, slot: dict[str, int], want,
               nxt, stats):
    """``follow(binding, seeds)`` for the variable-length path of step
    ``s``: walk it from ``seeds``, {start vertex: multiplicity}, over its
    labels and within its bands, then extend the binding with every
    trail endpoint of type ``want`` (any when None; the one in the
    ``there`` slot when that is bound), in ascending external id order,
    weighted by its summed trail multiplicity."""
    extend = _count_step(g)
    vids, vtypes, there = g._vids, g._vtypes, slot[s.there]

    def follow(binding: list, seeds: dict):
        reached = _walk(g, seeds, s.lo, s.hi, extend, operator.add,
                        forward=s.forward, labels=s.labels, allowed=s.bands,
                        stats=stats)
        if s.there_bound:
            count = reached.get(binding[there])
            if count is not None:
                nxt(binding, count)
            return
        ends = [w for w in reached if want is None or vtypes[w] == want]
        ends.sort(key=vids.__getitem__)
        for w in ends:
            binding[there] = w
            nxt(binding, reached[w])
    return follow


def _path_step(here: int, follow):
    """One variable-length path from the vertex in slot ``here``, seeded
    with the binding's multiplicity."""
    def step(binding: list, mult: int):
        follow(binding, {binding[here]: mult})
    return step


def _gather(prefix: list[int], width: int, start: int, buffer: dict):
    """A merge point's own step: add the binding's multiplicity to its
    start vertex's in the seeds that ``buffer`` holds under its entries
    at the ``prefix`` slots."""
    prefix_of = _slot_getter(prefix, width)

    def step(binding: list, mult: int):
        key = prefix_of(binding)
        seeds = buffer.get(key)
        v = binding[start]
        if seeds is None:
            buffer[key] = {v: mult}
        else:
            seeds[v] = seeds.get(v, 0) + mult
    return step


def _flush(prefix: list[int], width: int, buffer: dict, follow):
    """A merge point's walks: one ``follow`` per buffered prefix, in the
    order the prefixes were first gathered, from a binding that holds the
    prefix; then the buffer is emptied."""
    binding = [None] * width

    def flush():
        for key, seeds in buffer.items():
            for at, v in zip(prefix, key):
                binding[at] = v
            follow(binding, seeds)
        buffer.clear()
    return flush


# --------------------------------------------------------------------------
# Traversal kernels
# --------------------------------------------------------------------------
#
# Both kernels fold a value along every trail of lo..hi edges from the
# seeds and combine the values of all trails that end at the same
# vertex: ``extend(value, edge index)`` is one step along a trail (None
# when a step leaves the value as it is) and ``plus(a, b)`` joins two
# trails, a semiring over the trails. The sweep
# folds walks, which are the trails only on an acyclic graph. Both work
# on the graph's internal integer ids, return {vertex index: value}, and
# read each step's edges from its selection (``g.step_edges``), so every
# entry they scan is an edge the step may take, and each counts as one
# expanded edge. ``labels`` and the bands of ``allowed`` are frozensets
# (or None). Given ``max_expanded``, they raise BudgetExceededError once
# ``stats.edges_expanded`` passes it.

def _count_step(g: PropertyGraph):
    """``extend`` of the count semiring: multiply by the edge's path_count.
    None on a graph where no edge carries one, so the kernels pass the
    count through without a call per edge."""
    counts = g._path_counts
    if counts is None:
        return None
    return lambda count, ei: count * counts[ei]


def _walk(g: PropertyGraph, seeds: dict, lo: int, hi: int, extend, plus, *,
          forward: bool = True, labels=None, allowed=None,
          max_expanded=None, stats: ExecutionStats) -> dict:
    """Fold over every trail of lo..hi edges: one frontier sweep on an
    acyclic graph, where every walk is a trail; edge-distinct trail
    enumeration otherwise."""
    kernel = _sweep if g.is_acyclic else _trails
    return kernel(g, seeds, lo, hi, extend, plus, forward=forward,
                  labels=labels, allowed=allowed, max_expanded=max_expanded,
                  stats=stats)


def _over_cap(max_expanded: int) -> BudgetExceededError:
    return BudgetExceededError(
        f"walk expanded more than its cap of {max_expanded} edges")


def _sweep(g: PropertyGraph, seeds: dict, lo: int, hi: int, extend, plus, *,
           forward: bool = True, labels=None, allowed=None, seen=None,
           max_expanded=None, stats: ExecutionStats) -> dict:
    """Level-synchronous frontier sweep: level d maps every vertex at the
    end of a walk of d edges to ``plus`` over those walks, so the cost is
    O(hi x reachable edges) however many walks there are. Exact for walks
    on any graph; walks are trails only on an acyclic one.

    ``labels`` keeps edges with one of the labels, ``allowed[d]`` vertices
    of one of the types at depth d (of any type when it is None). A
    ``seen`` set turns the sweep into a breadth-first search: a vertex in
    it is not entered again, and every vertex entered is added to it.
    The cap is checked after each level."""
    far = g._edst if forward else g._esrc
    limit = float("inf") if max_expanded is None else max_expanded
    reached = dict(seeds) if lo == 0 else {}
    frontier = seeds
    near = frozenset(map(g._vtypes.__getitem__, seeds))
    for depth in range(1, hi + 1):
        adj, near = g.step_edges(
            forward, labels, allowed[depth] if allowed is not None else None,
            near)
        nxt: dict = {}
        for v, value in frontier.items():
            edges = adj[v]
            stats.vertices_touched += 1
            stats.edges_expanded += len(edges)
            for ei in edges:
                w = far[ei]
                if seen is not None:
                    if w in seen:
                        continue
                    seen.add(w)
                x = value if extend is None else extend(value, ei)
                nxt[w] = plus(nxt[w], x) if w in nxt else x
        if stats.edges_expanded > limit:
            raise _over_cap(max_expanded)
        if not nxt:
            break
        if depth >= lo:
            for w, x in nxt.items():
                reached[w] = plus(reached[w], x) if w in reached else x
        frontier = nxt
    return reached


def _trails(g: PropertyGraph, seeds: dict, lo: int, hi: int, extend, plus, *,
            forward: bool = True, labels=None, allowed=None,
            max_expanded=None, stats: ExecutionStats) -> dict:
    """Depth-first enumeration of edge-distinct trails (vertices may
    repeat), with the arguments (but ``seen``) and result of
    :func:`_sweep`. Its cost is O(#trails); on a cyclic graph it is the
    only exact choice, since a walk there may reuse an edge. ``plus``
    joins trails in depth-first order.

    The last step is folded: from a prefix of hi - 1 edges, each edge a
    trail may take joins its far end into the result in place, with no
    call and no mark in ``used``, and still counts as one prefix. The
    cap is checked at each prefix, before its edges are followed."""
    far = g._edst if forward else g._esrc
    # adjs[d]: the selection of the step from depth d to d + 1
    adjs = []
    near = frozenset(map(g._vtypes.__getitem__, seeds))
    for d in range(hi):
        adj, near = g.step_edges(
            forward, labels, allowed[d + 1] if allowed is not None else None,
            near)
        adjs.append(adj)
    reached: dict = {}
    used: set[int] = set()
    # prefixes of hi edges end trails of lo..hi edges only when hi >= lo
    last = hi - 1 if hi >= lo else -1
    limit = float("inf") if max_expanded is None else max_expanded

    def walk(v: int, depth: int, value):
        stats.vertices_touched += 1
        if depth >= lo:
            reached[v] = plus(reached[v], value) if v in reached else value
        if depth == hi:
            return
        edges = adjs[depth][v]
        stats.edges_expanded += len(edges)
        if stats.edges_expanded > limit:
            raise _over_cap(max_expanded)
        fold = depth == last
        ends = 0
        for ei in edges:
            if ei in used:
                continue
            w = far[ei]
            x = value if extend is None else extend(value, ei)
            if fold:
                reached[w] = plus(reached[w], x) if w in reached else x
                ends += 1
            else:
                used.add(ei)
                walk(w, depth + 1, x)
                used.discard(ei)
        stats.vertices_touched += ends

    for v, value in seeds.items():
        walk(v, 0, value)
    return reached


# --------------------------------------------------------------------------
# Filters and projection
# --------------------------------------------------------------------------

def _getter(q: QueryGraph, g: PropertyGraph, slots: dict[str, int], ref):
    """``NameRef``: the element's external id. ``PropertyRef``: the
    property, None when missing, except that ``id`` falls back to the
    element id."""
    at = slots[ref.name]
    vertex = ref.name in q.pattern_vertices
    ids = g._vids if vertex else g._eids
    if isinstance(ref, NameRef):
        return lambda binding: ids[binding[at]]
    key, props = ref.key, g._vprops
    # the store reads an edge's property: a view's path_count is a column
    get = None if vertex else g._edge_getter(key)
    if key != "id":
        if vertex:
            return lambda binding: props[binding[at]].get(key)
        return lambda binding: get(binding[at])

    def element_id(binding):   # no property is None
        i = binding[at]
        own = props[i].get("id") if vertex else get(i)
        return ids[i] if own is None else own
    return element_id


def _compile_filter(q, g, slots, expr):
    """A predicate over binding tuples; And/Or short-circuit in order."""
    if isinstance(expr, (And, Or)):
        tests = [_compile_filter(q, g, slots, child) for child in expr.children]
        fold = all if isinstance(expr, And) else any
        return lambda binding: fold(test(binding) for test in tests)
    if isinstance(expr, Not):
        test = _compile_filter(q, g, slots, expr.child)
        return lambda binding: not test(binding)
    lhs, op = _getter(q, g, slots, expr.lhs), expr.op
    if isinstance(expr.rhs, PropertyRef):
        rhs = _getter(q, g, slots, expr.rhs)
        return lambda binding: _compare(lhs(binding), op, rhs(binding))
    value = expr.rhs.value
    return lambda binding: _compare(lhs(binding), op, value)


def _compare(lhs, op: str, rhs) -> bool:
    if lhs is None or rhs is None:
        return False
    lhs_num = isinstance(lhs, (int, float)) and not isinstance(lhs, bool)
    rhs_num = isinstance(rhs, (int, float)) and not isinstance(rhs, bool)
    comparable = (lhs_num and rhs_num) or type(lhs) is type(rhs)
    if op == "=":
        return lhs == rhs if comparable else False
    if op == "<>":
        return lhs != rhs if comparable else True
    if not comparable:
        raise PropertyTypeMismatchError(
            f"cannot order {type(lhs).__name__} against {type(rhs).__name__}")
    if op == "<":
        return lhs < rhs
    if op == "<=":
        return lhs <= rhs
    if op == ">":
        return lhs > rhs
    return lhs >= rhs


_NUMBERS = (int, float)   # exact types; _numeric decides the others


def _numeric(value, context: str):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise PropertyTypeMismatchError(
            f"{context} requires a numeric value, got {value!r}")
    return value


def _tuple_getter(getters):
    """binding -> tuple of every getter's value."""
    if len(getters) == 1:
        (only,) = getters
        return lambda binding: (only(binding),)
    return lambda binding: tuple(get(binding) for get in getters)


class _Algebra(NamedTuple):
    """One aggregate's part of a group's accumulator list."""

    add: Callable      # add(acc, binding, mult): one binding
    merge: Callable    # merge(acc, other): the bindings of another list
    scale: Callable | None   # scale(acc, n): weight each binding by n
    result: Callable   # result(acc): the aggregate's value
    start: list        # its two initial slots


def _aggregate(func: str, get, at: int) -> _Algebra:
    """The algebra of one aggregate whose slots in a group's accumulator
    list hold its running value at ``at`` (a total, or the extreme so
    far) and, for sum and avg, its weight at ``at + 1``. Missing values
    are skipped; count, sum and avg weight each value by the binding's
    multiplicity, so their slots merge by adding and scale by
    multiplying, while min and max merge by picking and do not scale
    (``scale`` is None). Of equal numbers of two types or signs, max
    keeps the one last in cell order and min the first, as in any order
    of adding or merging."""
    weight = at + 1
    if func == "count":
        def add(acc, binding, mult):
            if get(binding) is not None:
                acc[at] += mult
    elif func in ("sum", "avg"):
        def add(acc, binding, mult):
            value = get(binding)
            if value is not None:
                if type(value) not in _NUMBERS:
                    _numeric(value, func)
                acc[at] += value * mult
                acc[weight] += mult
    else:
        beats = operator.gt if func == "max" else operator.lt

        def pick(best, value):
            # of two equal numbers (1 and 1.0, 0.0 and -0.0), the one that
            # _cell_sort_key puts last for max and first for min, so the
            # extreme does not depend on the order values arrive in
            if best is None or beats(value, best) or (
                    value == best
                    and beats(_cell_sort_key(value), _cell_sort_key(best))):
                return value
            return best

        def add(acc, binding, mult):
            value = get(binding)
            if value is not None:
                if type(value) not in _NUMBERS:
                    _numeric(value, func)
                acc[at] = pick(acc[at], value)
    if func in ("max", "min"):
        def merge(acc, other):
            value = other[at]
            if value is not None:
                acc[at] = pick(acc[at], value)
        scale, start = None, [None, 0]
    else:
        def merge(acc, other):
            acc[at] += other[at]
            acc[weight] += other[weight]

        def scale(acc, n):
            acc[at] *= n
            acc[weight] *= n
        start = [0, 0]
    if func == "avg":
        def result(acc):
            return acc[at] / acc[weight] if acc[weight] else None
    else:
        def result(acc):
            return acc[at]
    return _Algebra(add, merge, scale, result, start)


def _algebras(q: QueryGraph, g: PropertyGraph, slots: dict[str, int]
              ) -> tuple[list[_Algebra], list]:
    """The algebra of each aggregate of ``q``, reading bindings of
    ``slots``, and the initial accumulator list of a group."""
    algebras, initial = [], []
    for item in q.aggregates():
        agg: Aggregate = item.expr
        algebra = _aggregate(agg.func, _getter(q, g, slots, agg.arg),
                             len(initial))
        algebras.append(algebra)
        initial += algebra.start
    return algebras, initial


def _each(functions: list[Callable]) -> Callable:
    """One function that calls each of ``functions`` with its arguments."""
    if len(functions) == 1:
        return functions[0]

    def every(*args):
        for function in functions:
            function(*args)
    return every


def _project(q: QueryGraph, g: PropertyGraph, slots: dict[str, int],
             bindings, folded: tuple[list[_Algebra], list] | None = None
             ) -> ResultTable:
    """The result table of (binding, multiplicity) ``bindings``. Without
    an aggregate each binding's row is projected and sorted once, with
    its multiplicity; with one, each group gives one row.
    ``_order_and_limit`` applies ORDER BY, then repeats rows to LIMIT.
    Given the fold's ``folded`` (its algebras and initial list), each
    binding carries an accumulator of theirs in place of a multiplicity,
    and it is merged into its group's."""
    columns = tuple(item.alias for item in q.projection)
    group_items = q.group_keys()
    key_of = (_tuple_getter([_getter(q, g, slots, item.expr)
                             for item in group_items])
              if group_items else lambda binding: ())

    if len(group_items) == len(q.projection):   # no aggregate
        pairs = [(key_of(binding), mult) for binding, mult in bindings]
        pairs.sort(key=lambda pair: _row_sort_key(pair[0]))
        return _order_and_limit(q, columns, pairs)

    if folded is None:
        algebras, initial = _algebras(q, g, slots)
        combine = _each([algebra.add for algebra in algebras])
    else:
        algebras, initial = folded
        merge = _each([algebra.merge for algebra in algebras])

        def combine(acc, binding, other):
            merge(acc, other)
    results = [algebra.result for algebra in algebras]
    # A group is keyed by its cells' sort keys: equal numbers of different
    # types (1, 1.0, True) or signs (0.0, -0.0) hash alike, but the cell
    # order tells them apart, so the groups must too. The cells depend
    # only on the slots the group keys read, so each distinct tuple of
    # those slots finds its group once.
    read = sorted({slots[item.expr.name] for item in group_items})
    read_of = operator.itemgetter(*read) if read else lambda binding: ()
    groups: dict[tuple, tuple[tuple, list]] = {}
    accs: dict = {}
    for binding, mult in bindings:
        at = read_of(binding)
        acc = accs.get(at)
        if acc is None:
            key = key_of(binding)
            acc = accs[at] = groups.setdefault(
                tuple(map(_cell_sort_key, key)), (key, list(initial)))[1]
        combine(acc, binding, mult)

    if not groups and not group_items:
        # aggregate over an empty match: count()/sum() are 0, others null
        groups[()] = ((), list(initial))

    # Distinct groups differ in their cells, so when every group cell comes
    # before the first aggregate the group keys order the rows as
    # _row_sort_key would.
    leading = q.projection[:len(group_items)] == group_items
    rows = []
    for key, acc in map(groups.get, sorted(groups) if leading else groups):
        keys, aggs = iter(key), iter(results)
        rows.append(tuple(next(aggs)(acc) if isinstance(item.expr, Aggregate)
                          else next(keys) for item in q.projection))
    if not leading:
        rows.sort(key=_row_sort_key)
    return _order_and_limit(q, columns, [(row, 1) for row in rows])


def _order_and_limit(q: QueryGraph, columns: tuple[str, ...],
                     pairs: list[tuple[tuple, int]]) -> ResultTable:
    """The table of (row, multiplicity) ``pairs`` given in
    ``_row_sort_key`` order: ORDER BY sorts them stably, then each row is
    repeated by its multiplicity until LIMIT rows are out. Rows with equal
    sort keys are equal, so this is the list that sorting the repeated
    rows gives."""
    if q.order_by is not None:
        idx = columns.index(q.order_by.alias)
        pairs.sort(key=lambda pair: _cell_sort_key(pair[0][idx]),
                   reverse=q.order_by.descending)
    rows = chain.from_iterable(starmap(repeat, pairs))
    return ResultTable(columns, list(islice(rows, q.limit)))


# --------------------------------------------------------------------------
# Graph operation primitives
# --------------------------------------------------------------------------

def k_hop_neighborhood(g: PropertyGraph, sources, direction: str, k_max: int,
                       stats: ExecutionStats | None = None,
                       allowed=None) -> set[str]:
    """Vertices reachable from the source set in 1..k_max hops.
    direction: 'forward' follows out-edges (descendants), 'backward'
    follows in-edges (ancestors). A breadth-first search on any graph:
    each vertex is expanded once, at its first hop. ``allowed`` are type
    bands, as :func:`_sweep` takes them."""
    if direction not in ("forward", "backward"):
        raise ValidationError(f"direction must be forward|backward, got {direction!r}")
    if stats is None:
        stats = ExecutionStats()
    seeds = {g._require(v): True for v in sorted(set(sources))}
    reached = _sweep(g, seeds, 1, k_max, None, operator.add,
                     forward=direction == "forward",
                     allowed=allowed, seen=set(seeds), stats=stats)
    return {g._vids[v] for v in reached}


def path_lengths(g: PropertyGraph, source: str, k_max: int,
                 edge_property: str, stats: ExecutionStats | None = None,
                 allowed=None) -> dict[str, float]:
    """For each vertex reachable by a forward trail of <= k_max edges
    (within the type bands ``allowed``, when given): the minimum across
    trails of the maximum of ``edge_property`` along each, the value a
    connector view's trail aggregate carries. Max is monotone, so
    keeping only the smallest value per vertex and depth is exact."""
    if stats is None:
        stats = ExecutionStats()
    get = g._edge_getter(edge_property)
    context = f"edge property {edge_property!r}"

    def extend(acc, ei: int):
        value = _numeric(get(ei), context)
        return value if acc is None else max(acc, value)

    best = _walk(g, {g._require(source): None}, 1, k_max, extend, min,
                 allowed=allowed, stats=stats)
    return {g._vids[v]: value for v, value in best.items()}


def label_propagation(g: PropertyGraph, passes: int,
                      stats: ExecutionStats | None = None) -> dict[str, str]:
    """Synchronous label propagation. Labels start as vertex ids; each
    pass every vertex adopts the most frequent label among its in- and
    out-neighbors (its own current label casts one vote, an edge casts
    its ``path_count``), ties broken by the smallest label. Deterministic.

    A label is held as the rank of its vertex id in sorted order, so the
    smallest label is the smallest int; ids are read back only for the
    returned {vertex id: label} dict, in ascending vertex id order."""
    if passes < 1:
        raise ValidationError("passes must be >= 1")
    if stats is None:
        stats = ExecutionStats()
    vids = g._vids
    n, m = len(vids), len(g._esrc)
    order = sorted(range(n), key=vids.__getitem__)
    rank = [0] * n
    for r, v in enumerate(order):
        rank[v] = r
    src = list(map(rank.__getitem__, g._esrc))
    dst = list(map(rank.__getitem__, g._edst))
    neighbors: list[list[int]] = [[] for _ in range(n)]
    for s, d in zip(src, dst):
        neighbors[s].append(d)
        neighbors[d].append(s)
    weights: list[list[int] | None] = [None] * n
    if g._path_counts is not None:
        counts: list[list[int]] = [[] for _ in range(n)]
        for s, d, w in zip(src, dst, g._path_counts):
            counts[s].append(w)
            counts[d].append(w)
        # a vertex whose edges all weigh 1 takes the unweighted count
        weights = [ws if max(ws, default=1) > 1 else None for ws in counts]
    labels = list(range(n))
    for _ in range(passes):
        stats.vertices_touched += n
        stats.edges_expanded += 2 * m
        label_of = labels.__getitem__
        updated = []
        adopt = updated.append
        for own, nbs, ws in zip(labels, neighbors, weights):
            if ws is not None:
                votes = {own: 1}
                for lab, w in zip(map(label_of, nbs), ws):
                    votes[lab] = votes.get(lab, 0) + w
            elif len(nbs) == 2:
                a, b = label_of(nbs[0]), label_of(nbs[1])
                if a == b or own == a or own == b:
                    adopt(a if a == b else own)
                else:
                    adopt(min(own, a, b))
                continue
            else:
                labs = [own, *map(label_of, nbs)]
                distinct = len(set(labs))
                if distinct == 1 or distinct == len(labs):
                    adopt(min(labs))    # one label, or one vote each
                    continue
                votes = {}
                for lab in labs:
                    votes[lab] = votes.get(lab, 0) + 1
            # most votes, then the smallest label
            adopt(-max(zip(votes.values(), map(operator.neg, votes)))[1])
        if updated == labels:
            break
        labels = updated
    ids = list(map(vids.__getitem__, order))
    return dict(zip(ids, map(ids.__getitem__, labels)))


def largest_community(g: PropertyGraph, labels: dict[str, str],
                      count_type: str) -> tuple[str, PropertyGraph]:
    """The community with the most ``count_type`` vertices (ties broken by
    the smallest label) as (label, induced subgraph)."""
    vids = g._vids
    missing = [v for v in vids if v not in labels]
    if missing:
        raise ValidationError(f"labels missing for {len(missing)} vertices")
    counts: dict[str, int] = {}
    for vid, vtype in zip(vids, g._vtypes):
        lab = labels[vid]
        counts.setdefault(lab, 0)
        if vtype == count_type:
            counts[lab] += 1
    winner = min(counts.items(), key=lambda kv: (-kv[1], kv[0]))[0]
    members = [v for v, vid in enumerate(vids) if labels[vid] == winner]
    members.sort(key=vids.__getitem__)
    return winner, induced_subgraph(g, g.schema, members)
