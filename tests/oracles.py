"""Independent reference implementations used as test ground truth.

These deliberately do not share code with the package: the schema-path
oracle follows the procedural fix-point formulation (seed single-edge
chains, grow each round at both ends, keep only chains that grew,
deduplicate), the path counter and trail enumerator are plain recursive
searches, the neighborhood oracle is a plain breadth-first search, and
the knapsack oracle enumerates subsets exhaustively.
"""

from __future__ import annotations

import itertools

import numpy as np


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


def count_simple_paths(g, k, src_type=None, dst_type=None) -> int:
    """Count directed k-edge paths with pairwise-distinct vertices by
    exhaustive DFS. Multi-edges count individually."""
    total = 0

    def walk(v, depth, visited):
        nonlocal total
        if depth == k:
            if dst_type is None or g.vertex_type(v) == dst_type:
                total += 1
            return
        for _, dst, _, _ in g.out_edges(v):
            if dst in visited:
                continue
            visited.add(dst)
            walk(dst, depth + 1, visited)
            visited.discard(dst)

    for vid in g.vertex_ids():
        if src_type is not None and g.vertex_type(vid) != src_type:
            continue
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


def bfs_neighborhood(g, sources, direction, k_max, labels=None):
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
            for _, neighbor, label, _ in edges:
                scanned += 1
                if labels is not None and label not in labels:
                    continue
                if neighbor not in seen:
                    seen.add(neighbor)
                    reached.add(neighbor)
                    nxt.append(neighbor)
        frontier = nxt
    return reached, expanded, scanned


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
