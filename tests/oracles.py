"""Independent reference implementations used as test ground truth.

These deliberately do not share code with the package: the schema-path
oracle follows the procedural fix-point formulation (seed single-edge
chains, grow each round at both ends, keep only chains that grew,
deduplicate), the path counter, the trail enumerator and the trail
search with its work counts are plain recursive searches, the
neighborhood oracle is a plain breadth-first search, the query oracle
is a plain recursive backtracking matcher over the public graph API
with one binding per trail, the label-propagation oracle recounts
string-labelled votes edge by edge each pass, the knapsack oracle
enumerates subsets exhaustively, the reference loader validates
each CSV row or build tuple in turn, stopping at the first violation,
and the reference tokenizer scans query text character by character.
"""

from __future__ import annotations

import csv
import itertools
import json
import math

import numpy as np

from graphviews.errors import (
    DanglingEdgeEndpointError, DuplicateIdError, MalformedRowError,
    PropertyTypeMismatchError, QuerySyntaxError, UnknownEdgeTripleError,
    UnknownVertexTypeError, ValidationError)
from graphviews.query import (
    Aggregate, And, Comparison, NameRef, Not, Or, PropertyRef)


def k_hop_schema_paths_procedural(schema_edges, paths, k, curr_k):
    """Fix-point procedural enumeration of k-hop schema paths.

    schema_edges: list of (src, dst, label) triples.
    Call with paths=[] and curr_k=k. Returns a list of chains (lists of
    triples); duplicates removed each round.
    """
    if curr_k == 0:
        return [p for p in paths if len(p) == k]
    if k == curr_k:
        new_paths = [[e] for e in schema_edges]
        return k_hop_schema_paths_procedural(schema_edges, new_paths, k, k - 1)
    new_paths = []
    for path in paths:
        src, dst = path[0][0], path[-1][1]
        for edge in schema_edges:
            if dst == edge[0]:
                new_paths.append(path + [edge])
            if src == edge[1]:
                new_paths.append([edge] + path)
    # duplicate paths removal, then fix-point: keep only chains that grew
    deduped = []
    seen = set()
    for p in new_paths:
        key = tuple(p)
        if key not in seen:
            seen.add(key)
            deduped.append(p)
    paths = [p for p in deduped if len(p) == (k - curr_k + 1)]
    return k_hop_schema_paths_procedural(schema_edges, paths, k, curr_k - 1)


def schema_paths_oracle(schema_edges, k) -> set[tuple]:
    result = k_hop_schema_paths_procedural(list(schema_edges), [], k, k)
    return {tuple(p) for p in result}


def count_simple_paths(g, k) -> int:
    """Count directed k-edge paths with pairwise-distinct vertices by
    exhaustive DFS. Multi-edges count individually."""
    total = 0

    def walk(v, depth, visited):
        nonlocal total
        if depth == k:
            total += 1
            return
        for _, dst, _, _ in g.out_edges(v):
            if dst in visited:
                continue
            visited.add(dst)
            walk(dst, depth + 1, visited)
            visited.discard(dst)

    for vid in g.vertex_ids():
        walk(vid, 0, {vid})
    return total


def enumerate_trails(g, src_type, dst_type, lengths, labels=None):
    """All edge-distinct trails whose length is in ``lengths``, from a
    src_type vertex to a dst_type vertex, optionally label-filtered.
    Returns {(src id, dst id): trail count}."""
    lengths = set(lengths)
    max_len = max(lengths)
    pairs: dict[tuple[str, str], int] = {}

    def walk(start, v, depth, used):
        if depth in lengths and depth > 0 and g.vertex_type(v) == dst_type:
            key = (start, v)
            pairs[key] = pairs.get(key, 0) + 1
        if depth == max_len:
            return
        for eid, dst, label, _ in g.out_edges(v):
            if eid in used:
                continue
            if labels is not None and label not in labels:
                continue
            used.add(eid)
            walk(start, dst, depth + 1, used)
            used.discard(eid)

    for vid in g.vertex_ids():
        if g.vertex_type(vid) == src_type:
            walk(vid, vid, 0, set())
    return pairs


def trail_search(g, start, lo, hi, labels=None, allowed=None, forward=True):
    """Every edge-distinct trail of 0..hi edges from ``start``, one
    recursive call per trail prefix, over the public adjacency. A trail
    steps only over edges with one of ``labels`` (when given) into a
    vertex of one of the types ``allowed[depth]`` (when given). Returns
    ({end id: sum over the trails of lo..hi edges ending there of the
    product of the path_counts it crosses}, the number of prefixes, the
    adjacency entries of the prefixes shorter than hi that a step may
    take: of one of ``labels`` into one of the ``allowed`` types)."""
    ends: dict[str, int] = {}
    prefixes = scanned = 0

    def walk(v, depth, mult, used):
        nonlocal prefixes, scanned
        prefixes += 1
        if depth >= lo:
            ends[v] = ends.get(v, 0) + mult
        if depth == hi:
            return
        adjacency = g.out_edges(v) if forward else g.in_edges(v)
        for eid, w, label, props in adjacency:
            if labels is not None and label not in labels:
                continue
            if allowed is not None and g.vertex_type(w) not in allowed[depth + 1]:
                continue
            scanned += 1
            if eid not in used:
                walk(w, depth + 1, mult * props.get("path_count", 1),
                     used | {eid})

    walk(start, 0, 1, frozenset())
    return ends, prefixes, scanned


def has_cycle(g) -> bool:
    """Whether some vertex reaches itself over one or more edges,
    searched from every vertex in turn."""
    for start in g.vertex_ids():
        stack = [dst for _, dst, _, _ in g.out_edges(start)]
        seen = set()
        while stack:
            v = stack.pop()
            if v == start:
                return True
            if v not in seen:
                seen.add(v)
                stack.extend(dst for _, dst, _, _ in g.out_edges(v))
    return False


def bfs_neighborhood(g, sources, direction, k_max):
    """Vertices 1..k_max hops from ``sources`` by a plain breadth-first
    search over the public adjacency, with the work it did. Returns
    (reached, vertices expanded, adjacency entries scanned); a vertex is
    expanded once, at the first hop that reaches it."""
    frontier = sorted(set(sources))
    seen = set(frontier)
    reached = set()
    expanded = scanned = 0
    for _ in range(k_max):
        nxt = []
        for v in frontier:
            expanded += 1
            edges = g.out_edges(v) if direction == "forward" else g.in_edges(v)
            for _, neighbor, _, _ in edges:
                scanned += 1
                if neighbor not in seen:
                    seen.add(neighbor)
                    reached.add(neighbor)
                    nxt.append(neighbor)
        frontier = nxt
    return reached, expanded, scanned


def label_propagation_oracle(g, passes):
    """Synchronous label propagation as its docstring states it: labels
    start as the vertex ids; each pass every vertex takes the label with
    the most votes, where its own label casts one and each incident edge
    casts ``path_count`` (default 1) for the label at its other end (a
    self-loop, incident twice, casts twice); ties go to the smallest
    label; a pass that changes nothing ends the run. The ``path_count``
    of every edge is checked before the first pass."""
    if passes < 1:
        raise ValidationError("passes must be >= 1")
    links = []
    for _, src, dst, _, props in g.edges():
        weight = props.get("path_count", 1)
        if type(weight) is not int or weight < 1:
            raise PropertyTypeMismatchError(f"path_count {weight!r}")
        links.append((src, dst, weight))
    labels = {v: v for v in sorted(g.vertex_ids())}
    for _ in range(passes):
        votes = {v: {labels[v]: 1} for v in labels}
        for src, dst, weight in links:
            for here, there in ((src, dst), (dst, src)):
                ballot = votes[here]
                ballot[labels[there]] = ballot.get(labels[there], 0) + weight
        updated = {v: min((-n, label) for label, n in votes[v].items())[1]
                   for v in labels}
        if updated == labels:
            break
        labels = updated
    return labels


def knapsack_best_value(weights, values, budget) -> float:
    """Optimal 0-1 knapsack value via exhaustive subset enumeration;
    subset sums built by doubling, so the work is O(2^n) array elements."""
    total_w = np.zeros(1, dtype=np.int64)
    total_v = np.zeros(1, dtype=np.float64)
    for w, v in zip(weights, values):
        total_w = np.concatenate([total_w, total_w + int(w)])
        total_v = np.concatenate([total_v, total_v + float(v)])
    return float(total_v[total_w <= budget].max())


def knapsack_best_subset(items, budget):
    """Exhaustive 0-1 knapsack with the full deterministic tie-break:
    maximise value, then minimise weight, then lexicographically smallest
    id tuple. items: list of (id, weight, value). Pure Python; use only
    for small lists."""
    best_key = None
    best = ((), 0.0, 0.0)
    for r in range(len(items) + 1):
        for combo in itertools.combinations(items, r):
            w = sum(c[1] for c in combo)
            if w > budget:
                continue
            v = sum(c[2] for c in combo)
            ids = tuple(sorted(c[0] for c in combo))
            key = (-v, w, ids)
            if best_key is None or key < best_key:
                best_key = key
                best = (ids, v, w)
    return best


def query_rows(g, q) -> list[tuple]:
    """The result rows of parsed query ``q`` over ``g``, in the order the
    engine returns them. Bindings come from a recursive search over the
    pattern constraints in query order, with one binding per trail of a
    variable-length link and multiplicity the product of the
    ``path_count`` of every edge it traverses."""
    links = [(e, None) for e in q.pattern_edges]
    links += [(None, p) for p in q.var_length_paths]
    bindings = []

    def type_ok(name, vid):
        want = q.pattern_vertices[name]
        return want is None or g.vertex_type(vid) == want

    def extend(binding, name, vid):
        if name in binding:
            return binding if binding[name] == vid else None
        if not type_ok(name, vid):
            return None
        return {**binding, name: vid}

    def trails(start, lo, hi, labels, forward):
        ends = []

        def walk(v, depth, mult, used):
            if depth >= lo:
                ends.append((v, mult))
            if depth == hi:
                return
            adjacent = g.out_edges(v) if forward else g.in_edges(v)
            for eid, other, label, props in adjacent:
                if eid in used or (labels and label not in labels):
                    continue
                used.add(eid)
                walk(other, depth + 1, mult * props.get("path_count", 1), used)
                used.discard(eid)

        walk(start, 0, 1, set())
        return ends

    def solve(binding, mult, i):
        if i == len(links):
            free = [n for n in q.pattern_vertices if n not in binding]
            if not free:
                bindings.append((binding, mult))
                return
            for vid in g.vertex_ids():
                if type_ok(free[0], vid):
                    solve({**binding, free[0]: vid}, mult, i)
            return
        edge, path = links[i]
        src, dst = (edge or path).src, (edge or path).dst
        if src not in binding and dst not in binding:
            for vid in g.vertex_ids():
                if type_ok(src, vid):
                    solve({**binding, src: vid}, mult, i)
            return
        forward = src in binding
        here, there = (src, dst) if forward else (dst, src)
        if edge is not None:
            adjacent = (g.out_edges(binding[here], edge.label) if forward
                        else g.in_edges(binding[here], edge.label))
            for eid, other, _, props in adjacent:
                nxt = extend(binding, there, other)
                if nxt is None:
                    continue
                if edge.name is not None:
                    nxt = {**nxt, edge.name: eid}
                solve(nxt, mult * props.get("path_count", 1), i + 1)
        else:
            for other, trail_mult in trails(binding[here], path.lower,
                                            path.upper, path.labels, forward):
                nxt = extend(binding, there, other)
                if nxt is not None:
                    solve(nxt, mult * trail_mult, i + 1)

    solve({}, 1, 0)

    def value(binding, ref):
        element = binding[ref.name]
        if isinstance(ref, NameRef):
            return element
        if ref.name in q.pattern_vertices:
            props = g.vertex_props(element)
        else:
            props = g.edge_props(element)
        if ref.key in props:
            return props[ref.key]
        return element if ref.key == "id" else None

    def is_number(x):
        return isinstance(x, (int, float)) and not isinstance(x, bool)

    def holds(binding, expr):
        if isinstance(expr, And):
            return all(holds(binding, c) for c in expr.children)
        if isinstance(expr, Or):
            return any(holds(binding, c) for c in expr.children)
        if isinstance(expr, Not):
            return not holds(binding, expr.child)
        assert isinstance(expr, Comparison)
        a = value(binding, expr.lhs)
        b = (value(binding, expr.rhs) if isinstance(expr.rhs, PropertyRef)
             else expr.rhs.value)
        if a is None or b is None:
            return False
        same = (is_number(a) and is_number(b)) or type(a) is type(b)
        if expr.op in ("=", "<>"):
            return (a == b if same else False) == (expr.op == "=")
        if not same:
            raise PropertyTypeMismatchError(f"cannot order {a!r} and {b!r}")
        return {"<": a < b, "<=": a <= b, ">": a > b, ">=": a >= b}[expr.op]

    if q.filters is not None:
        bindings = [(b, m) for b, m in bindings if holds(b, q.filters)]

    def cell_order(v):
        if v is None:
            return (0, "")
        if isinstance(v, bool):
            return (1, v)
        if is_number(v):
            # exact value; then int before float, and -0.0 before 0.0
            return (2, v, type(v) is float, not str(v).startswith("-"))
        return (3, v)

    items = [item.expr for item in q.projection]
    aggs = [x for x in items if isinstance(x, Aggregate)]
    if not aggs:
        rows = [tuple(value(b, x) for x in items) for b, m in bindings
                for _ in range(m)]
    else:
        # keyed by cell order, so equal values of two types stay apart
        groups = {}
        for b, m in bindings:
            key = tuple(value(b, x) for x in items if not isinstance(x, Aggregate))
            groups.setdefault(tuple(map(cell_order, key)), (key, []))[1].append((b, m))
        if not groups and len(aggs) == len(items):
            groups[()] = ((), [])
        rows = []
        for key, members in groups.values():
            cells = iter(key)
            row = []
            for x in items:
                if not isinstance(x, Aggregate):
                    row.append(next(cells))
                    continue
                seen = [(value(b, x.arg), m) for b, m in members]
                seen = [(v, m) for v, m in seen if v is not None]
                if x.func == "count":
                    row.append(sum(m for _, m in seen))
                    continue
                for v, _ in seen:
                    if not is_number(v):
                        raise PropertyTypeMismatchError(f"{x.func} of {v!r}")
                total = sum(v * m for v, m in seen)
                weight = sum(m for _, m in seen)
                if x.func == "sum":
                    row.append(total)
                elif x.func == "avg":
                    row.append(total / weight if weight else None)
                elif not seen:
                    row.append(None)
                else:
                    # of equal numbers, the last in cell order for max
                    # and the first for min
                    pick = max if x.func == "max" else min
                    row.append(pick((v for v, _ in seen), key=cell_order))
            rows.append(tuple(row))

    rows.sort(key=lambda r: [cell_order(v) for v in r])
    if q.order_by is not None:
        at = [item.alias for item in q.projection].index(q.order_by.alias)
        rows.sort(key=lambda r: cell_order(r[at]), reverse=q.order_by.descending)
    if q.limit is not None:
        rows = rows[:q.limit]
    return rows


def _reference_props(props, context, line):
    out = {}
    for key, value in props.items():
        if not isinstance(key, str) or not key:
            raise MalformedRowError(
                f"{context}: property keys must be non-empty strings", line=line)
        if isinstance(value, bool) or isinstance(value, (int, str)):
            out[key] = value
        elif isinstance(value, float):
            if not math.isfinite(value):
                raise MalformedRowError(
                    f"{context}: non-finite float property {key!r}", line=line)
            out[key] = value
        else:
            raise MalformedRowError(
                f"{context}: property {key!r} must be int, float, string or bool",
                line=line)
    return out


def reference_columns(schema, vertices, edges) -> dict[str, list]:
    """The graph columns of (line, id, type, props) vertices and (line,
    id, src, dst, label, props) edges, each checked in turn against the
    rows before it: an empty id, a duplicate id, an undeclared type (or
    an unknown source, an unknown destination, a triple not in the
    schema), then the props, and an edge's path_count (1 when absent)
    must be a positive int. Raises the first violation with its line."""
    cols = {name: [] for name in ("vids", "vtypes", "vprops", "eids", "esrc",
                                  "edst", "elabel", "eprops")}
    vindex, eindex = {}, {}
    for line, vid, vtype, props in vertices:
        if not vid:
            raise MalformedRowError("vertex id must be non-empty", line=line)
        if vid in vindex:
            raise DuplicateIdError(f"duplicate vertex id {vid!r}", line=line)
        if vtype not in schema.vertex_types:
            raise UnknownVertexTypeError(
                f"vertex {vid!r} has undeclared type {vtype!r}", line=line)
        checked = _reference_props(props, f"vertex {vid!r}", line)
        vindex[vid] = len(cols["vids"])
        cols["vids"].append(vid)
        cols["vtypes"].append(vtype)
        cols["vprops"].append(checked)
    for line, eid, src, dst, label, props in edges:
        if not eid:
            raise MalformedRowError("edge id must be non-empty", line=line)
        if eid in eindex:
            raise DuplicateIdError(f"duplicate edge id {eid!r}", line=line)
        for end, name in (("source", src), ("destination", dst)):
            if name not in vindex:
                raise DanglingEdgeEndpointError(
                    f"edge {eid!r}: unknown {end} vertex {name!r}", line=line)
        triple = (cols["vtypes"][vindex[src]], cols["vtypes"][vindex[dst]], label)
        if triple not in schema.edge_types:
            raise UnknownEdgeTripleError(
                f"edge {eid!r}: triple ({triple[0]}, {triple[1]}, {label}) not in schema",
                line=line)
        checked = _reference_props(props, f"edge {eid!r}", line)
        count = checked.get("path_count", 1)
        if type(count) is not int or count < 1:
            raise MalformedRowError(
                f"edge {eid!r}: path_count must be a positive integer, "
                f"got {count!r}", line=line)
        eindex[eid] = len(cols["eids"])
        cols["eids"].append(eid)
        cols["esrc"].append(vindex[src])
        cols["edst"].append(vindex[dst])
        cols["elabel"].append(label)
        cols["eprops"].append(checked)
    return cols


def _reference_rows(path, header, kind):
    """(line, *fields, props) for each non-blank CSV row after the header,
    its column count and props cell checked as it is read."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        found = next(reader, None)
        if found != header:
            raise MalformedRowError(f"bad {kind} header {found!r}", line=1)
        for line, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise MalformedRowError(
                    f"expected {len(header)} columns, got {len(row)}", line=line)
            *fields, cell = row
            props = {}
            if cell.strip():
                try:
                    props = json.loads(cell)
                except json.JSONDecodeError as exc:
                    raise MalformedRowError(f"bad props JSON: {exc}", line=line) from exc
                if not isinstance(props, dict):
                    raise MalformedRowError("props must be a JSON object", line=line)
            yield (line, *fields, props)


def reference_load(vertex_file, edge_file, schema) -> dict[str, list]:
    """``load_graph``'s columns, or its error, by checking row by row."""
    return reference_columns(
        schema, _reference_rows(vertex_file, ["id", "type", "props"], "vertex"),
        _reference_rows(edge_file, ["id", "src", "dst", "label", "props"], "edge"))


def reference_build(schema, vertices, edges) -> dict[str, list]:
    """``PropertyGraph.build``'s columns, or its error, tuple by tuple."""
    return reference_columns(schema, ((None, *v) for v in vertices),
                             ((None, *e) for e in edges))


_REFERENCE_PUNCT = ("<=", ">=", "<>", "..", "(", ")", "[", "]", "-", ">", "<",
                    ":", ",", ".", "*", "=", "|")


def reference_tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, pos) for each query token, then ("end", "", len(text));
    raises the first ``QuerySyntaxError`` from the left. A word starts with
    a letter or '_' and goes on over ``str.isalnum`` characters and '_'. A
    number is a run of ``str.isdigit`` characters, with a fraction only
    when a '.' is followed by a digit; so it also takes non-decimal digits
    such as '²', which the parser rejects (``int('²')`` fails)."""
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
            continue
        if ch.isdigit():
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            if j < n - 1 and text[j] == "." and text[j + 1].isdigit():
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
                tokens.append(("float", text[i:j], i))
            else:
                tokens.append(("int", text[i:j], i))
            i = j
            continue
        if ch == "'":
            j = i + 1
            buf = []
            while j < n and text[j] != "'":
                if text[j] == "\\" and j + 1 < n and text[j + 1] in ("'", "\\"):
                    buf.append(text[j + 1])
                    j += 2
                else:
                    buf.append(text[j])
                    j += 1
            if j >= n:
                raise QuerySyntaxError("unterminated string literal", i)
            tokens.append(("string", "".join(buf), i))
            i = j + 1
            continue
        for punct in _REFERENCE_PUNCT:
            if text.startswith(punct, i):
                tokens.append(("punct", punct, i))
                i += len(punct)
                break
        else:
            raise QuerySyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens
