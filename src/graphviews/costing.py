"""View size estimators, exact path counting, and the query cost proxy.

Three estimators for the number of k-length paths (equivalently, the
edge count of a k-hop connector view):

* Erdos-Renyi:      C(n, k+1) * (m / C(n, 2)) ** k
* homogeneous:      n * deg_alpha ** k            (single vertex type)
* heterogeneous:    sum over edge-source types t of n_t * deg_alpha(t) ** k

``exact_path_count`` counts directed k-edge paths with pairwise-distinct
vertices (multi-edges count individually); it is the estimators' oracle.
Note the deliberate asymmetry with the executor: traversal matches
edge-distinct trails, while these counts are vertex-distinct simple
paths.

``eval_cost`` is a documented stand-in for an engine cost model. For each
connected pattern component it charges the anchor scan plus a geometric
expansion series:

    cost = anchor + anchor * sum(b**i for i = 1..S)

where ``anchor`` is the candidate count of the most selective typed
pattern vertex (total vertex count if none is typed), ``b`` is the
largest alpha-percentile out-degree over edge-source types, and ``S`` is
the number of fixed edges plus the sum of variable-length upper bounds in
the component. It only promises correct ordering: deterministic, and
monotone in hop bounds and in every degree percentile. A cost past the
largest float saturates at ``sys.float_info.max``, so long hop ranges
still get a finite cost, which ties with every other saturated one.
"""

from __future__ import annotations

import operator
import sys
from collections import Counter
from dataclasses import dataclass
from math import comb

from .errors import BudgetExceededError, DomainError, HeterogeneousInputError
from .query import QueryGraph
from .store import DegreeSummary, PropertyGraph

DEFAULT_ALPHA = 95
DEFAULT_STEP_BUDGET = 10 ** 8
MAX_COST = sys.float_info.max


@dataclass(frozen=True)
class SizeEstimate:
    """Estimated edge count of a view, tagged with its estimator."""

    estimated_edges: float
    estimator: str  # ErdosRenyi | HomogeneousPercentile | HeterogeneousPercentile | Exact
    k: int
    alpha: int | None = None

    def __post_init__(self):
        if self.estimated_edges < 0:
            raise DomainError("estimated edge count must be non-negative")
        if self.estimator == "Exact" and self.estimated_edges != int(self.estimated_edges):
            raise DomainError("exact estimates must be integers")


def estimate_er(n: int, m: int, k: int) -> SizeEstimate:
    """Expected k-length simple paths in a uniform random graph."""
    if k < 0:
        raise DomainError("k must be non-negative")
    if n < k + 1:
        raise DomainError(f"need n >= k+1, got n={n}, k={k}")
    if m > comb(n, 2):
        raise DomainError(f"need m <= n(n-1)/2, got m={m}, n={n}")
    if k == 0:
        return SizeEstimate(float(n), "ErdosRenyi", 0)
    value = comb(n, k + 1) * (m / comb(n, 2)) ** k
    return SizeEstimate(value, "ErdosRenyi", k)


def estimate_homogeneous(d: DegreeSummary, k: int, alpha: int) -> SizeEstimate:
    """n * deg_alpha ** k over a single-type summary."""
    if k < 0:
        raise DomainError("k must be non-negative")
    if len(d.per_type) != 1:
        raise HeterogeneousInputError(
            f"homogeneous estimator needs a single-type summary, "
            f"got {sorted(d.per_type)}")
    (vtype,) = d.per_type
    value = d.n_of(vtype) * float(d.deg(vtype, alpha)) ** k
    return SizeEstimate(value, "HomogeneousPercentile", k, alpha)


def estimate_heterogeneous(d: DegreeSummary, k: int, alpha: int) -> SizeEstimate:
    """Per-type sum of n_t * deg_alpha(t) ** k over edge-source types."""
    if k < 0:
        raise DomainError("k must be non-negative")
    value = 0.0
    for vtype in sorted(d.edge_source_types):
        value += d.n_of(vtype) * float(d.deg(vtype, alpha)) ** k
    return SizeEstimate(value, "HeterogeneousPercentile", k, alpha)


def exact_estimate(count: int, k: int) -> SizeEstimate:
    return SizeEstimate(float(count), "Exact", k)


# --------------------------------------------------------------------------
# Exact counting oracle
# --------------------------------------------------------------------------

def exact_path_count(g: PropertyGraph, k: int,
                     step_budget: int = DEFAULT_STEP_BUDGET) -> int:
    """Exact number of directed k-edge paths with pairwise-distinct
    vertices, over the whole graph. Closed forms cover k in {0, 1, 2};
    k >= 3 walks the graph with a budget on the adjacency entries it
    scans."""
    if k < 0:
        raise DomainError("k must be non-negative")
    if k == 0:
        return g.n
    if k == 1:
        return sum(map(operator.ne, g._esrc, g._edst))
    if k == 2:
        return _two_path_count(g)
    return _dfs_path_count(g, k, step_budget)


def _two_path_count(g: PropertyGraph) -> int:
    # sum over midpoints of in*out, minus combinations that revisit the
    # start (u -> v -> u); self-loop edges never participate
    ins, outs = [0] * g.n, [0] * g.n
    pairs = Counter()
    for src, dst in zip(g._esrc, g._edst):
        if src != dst:
            outs[src] += 1
            ins[dst] += 1
            pairs[src, dst] += 1
    back = sum(cnt * pairs.get((dst, src), 0) for (src, dst), cnt in pairs.items())
    return sum(map(operator.mul, ins, outs)) - back


def _dfs_path_count(g: PropertyGraph, k: int, step_budget: int) -> int:
    out, edst = g._out, g._edst
    visited = [False] * g.n
    total = steps = 0

    def walk(v: int, depth: int):
        nonlocal total, steps
        edges = out[v]
        steps += len(edges)
        if steps > step_budget:
            raise BudgetExceededError(
                f"path counting exceeded {step_budget} steps")
        if depth == k - 1:
            total += sum(not visited[edst[ei]] for ei in edges)
            return
        for ei in edges:
            w = edst[ei]
            if not visited[w]:
                visited[w] = True
                walk(w, depth + 1)
                visited[w] = False

    for v in range(g.n):
        visited[v] = True
        walk(v, 0)
        visited[v] = False
    return total


# --------------------------------------------------------------------------
# Query evaluation cost proxy
# --------------------------------------------------------------------------

def eval_cost(q: QueryGraph, d: DegreeSummary, alpha: int = DEFAULT_ALPHA) -> float:
    """Proxy evaluation cost of ``q`` over a graph summarised by ``d``.
    See the module docstring for the formula and its guarantees."""
    branch = max((d.deg(t, alpha) for t in d.edge_source_types), default=0)
    total = 0.0
    for component in q.components():
        typed = [d.n_of(q.pattern_vertices[v]) for v in component
                 if q.pattern_vertices[v] is not None]
        anchor = min(typed) if typed else d.total_vertices
        steps = sum(1 for e in q.pattern_edges
                    if e.src in component or e.dst in component)
        steps += sum(p.upper for p in q.var_length_paths
                     if p.src in component or p.dst in component)
        try:
            expansion = min(sum(float(branch) ** i for i in range(1, steps + 1)),
                            MAX_COST)
        except OverflowError:
            expansion = MAX_COST
        total = min(total + (anchor + anchor * expansion), MAX_COST)
    return total


@dataclass(frozen=True)
class CostReport:
    """Creation cost and evaluation improvement of one view for one query."""

    creation_cost: float
    eval_cost_raw: float
    eval_cost_rewritten: float

    @property
    def improvement(self) -> float:
        return self.eval_cost_raw / max(self.eval_cost_rewritten, 1e-9)

    @property
    def value(self) -> float:
        return self.improvement / max(self.creation_cost, 1e-9)
