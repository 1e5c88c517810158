"""Girth-constrained bipartite templates and coin-flip metric spaces.

A template is a bipartite graph on sides L, R of size n.  Doubling each
left vertex into a plus and a minus copy and routing every template edge
to exactly one of the two copies (a coin flip per edge) yields a graph
on 3n vertices whose truncated shortest-path metric

    d(x, y) = min(s * hops(x, y), T)

is always a metric.  The key structural fact: a plus/minus pair at graph
distance g' forces a cycle of length at most g' in the template, so a
girth-g template keeps every pair lambda+/lambda- at distance at least
min(s*g, T).  Together with the coarse modulus exponent from
:mod:`mdrlab.moduli` these metrics witness coarse dimension lower bounds.

Pruning rule (part of the output contract of :func:`gen_template`): while
the template has a cycle shorter than g, delete the first non-tree edge, in
BFS scan order, from the lowest-index source that still sees such a cycle.
Vertices are numbered left 0..n-1, right n..2n-1, and adjacency lists are
in ascending vertex order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IndexMismatch
from .metric import FiniteMetric, _exact_metric, _hop_distances, build_metric


@dataclass(frozen=True)
class TemplateGraph:
    """Bipartite template: edges join left side {0..n-1} to right side {0..n-1}."""

    n: int
    edges: tuple  # sorted (left, right) pairs
    girth: float  # computed at build time; inf for forests

    @staticmethod
    def build(n: int, edges) -> "TemplateGraph":
        es = sorted({(int(i), int(j)) for i, j in edges})
        for i, j in es:
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge ({i},{j}) outside side size {n}")
        g = _bipartite_girth(n, es)
        return TemplateGraph(n, tuple(es), g)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def density_ratio(self) -> float:
        """|E| / n^(1 + 1/g); reported only, no floor is asserted."""
        if not math.isfinite(self.girth):
            return 0.0
        return self.edge_count / self.n ** (1.0 + 1.0 / self.girth)

    def to_json(self) -> str:
        import json

        return json.dumps(
            {
                "n": self.n,
                "partition": {"L": list(range(self.n)), "R": list(range(self.n))},
                "edges": [list(e) for e in self.edges],
            }
        )

    @staticmethod
    def from_json(text: str) -> "TemplateGraph":
        import json

        obj = json.loads(text)
        return TemplateGraph.build(int(obj["n"]), obj["edges"])


@dataclass(frozen=True)
class SignAssignment:
    """+1/-1 coin flip for every template edge."""

    signs: dict

    def __post_init__(self):
        for v in self.signs.values():
            if v not in (-1, 1):
                raise ValueError("signs must be +1 or -1")

    def of(self, edge) -> int:
        return self.signs[tuple(edge)]


@dataclass(frozen=True)
class SignedMetricParams:
    """Scale s and truncation T of the metric min(s*hops, T); needs T >= s."""

    s: float
    T: float

    def __post_init__(self):
        if not (self.s > 0 and self.T > 0):  # also rejects nan
            raise ValueError("s and T must be positive")
        if self.T < self.s:
            raise ValueError("need T >= s")


def _adjacency_lists(vertices: int, pairs) -> list:
    adj = [[] for _ in range(vertices)]
    for u, v in pairs:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def _cycle_finder(adj: list):
    """Return ``short_cycle(src, bound)``: the first edge, in BFS scan order from
    ``src``, that closes a cycle shorter than ``bound``.

    ``short_cycle`` returns ``(length, v, u)`` for the first scanned non-tree
    edge v-u with depth(v) + depth(u) + 1 < bound, or None.  The tree paths
    from v and u back to ``src`` plus the edge v-u form a closed walk of that
    length, which contains a cycle through v-u, so ``length`` bounds the
    girth from above; it is exact when ``src`` lies on a shortest cycle.
    A vertex u with 2 depth(u) >= bound closes no such cycle: a neighbour v
    has depth(v) >= depth(u) - 1, so depth(v) + depth(u) + 1 >= 2 depth(u).
    The search therefore neither records nor expands such vertices.  ``adj``
    is read at each call, so edges deleted between calls are seen.

    Depth and parent live in per-vertex lists allocated once here; each
    search resets only the vertices it reached, which are its queue.
    """
    depth = [-1] * len(adj)
    parent = [-1] * len(adj)

    def short_cycle(src: int, bound):
        depth[src], parent[src] = 0, -1
        queue = [src]
        try:
            for v in queue:  # the loop also visits vertices appended while it runs
                dv, pv = depth[v], parent[v]
                grow = 2 * dv + 2 < bound
                for u in adj[v]:
                    du = depth[u]
                    if du < 0:
                        if grow:
                            depth[u] = dv + 1
                            parent[u] = v
                            queue.append(u)
                    elif u != pv and dv + du + 1 < bound:
                        return dv + du + 1, v, u
            return None
        finally:
            for v in queue:
                depth[v] = -1

    return short_cycle


def _girth(short_cycle, vertices: int, least: int):
    """Shortest cycle length of the graph behind ``short_cycle``; inf for forests.

    A depth-capped BFS from every vertex, each bounded by the shortest cycle
    found so far (see :func:`_cycle_finder`).  The caller promises that no
    cycle is shorter than ``least``, so the search stops at the first cycle
    of that length.  The result is an ``int`` or ``math.inf``.
    """
    best = math.inf
    for src in range(vertices):
        while hit := short_cycle(src, best):
            best = hit[0]
            if best <= least:
                return best
    return best


def girth(vertices: int, pairs) -> float:
    """Shortest cycle length of a simple undirected graph; inf for forests.

    A depth-capped BFS from every vertex, each bounded by the shortest cycle
    found so far (see :func:`_cycle_finder`); a triangle ends the search.
    The result is an ``int`` or ``math.inf``.
    """
    return _girth(_cycle_finder(_adjacency_lists(vertices, pairs)), vertices, 3)


def _bipartite_girth(n: int, edges) -> float:
    pairs = [(i, n + j) for i, j in edges]
    return girth(2 * n, pairs)


def gen_template(n: int, g: int, seed) -> TemplateGraph:
    """Random template with girth at least g.

    Edges appear independently with probability n^(-1 + 2/g).  Cycles
    shorter than g are then destroyed one edge at a time by the pruning rule
    in the module docstring: the deleted edge is the first non-tree edge, in
    BFS scan order, from the lowest-index source that still sees a cycle
    shorter than g.  That edge lies on a short cycle, so every deletion
    breaks one.  The surviving edge count is reported via ``density_ratio``
    rather than asserted (the achievable density exponent is an open
    combinatorial question).
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if g < 4 or g % 2 != 0:
        raise ValueError("g must be an even integer >= 4 (bipartite cycles are even)")
    rng = np.random.default_rng(seed)
    p = n ** (-1.0 + 2.0 / g)
    edge_set = set()
    for start in range(0, n, 256):  # the same uniform stream, drawn 256 rows at a time
        rows, cols = np.nonzero(rng.random((min(256, n - start), n)) < p)
        edge_set.update(zip((rows + start).tolist(), cols.tolist()))
    adj = _adjacency_lists(2 * n, [(i, n + j) for i, j in sorted(edge_set)])
    # A source is clean when the edges v-u with d(v) + d(u) + 1 < g (d the
    # distance from the source) form a forest; short_cycle finds nothing
    # exactly then.  Deleting edges only raises distances and removes edges,
    # so that subgraph only shrinks and a clean source stays clean.  The scan
    # can therefore resume at the current source instead of vertex 0, and
    # deletes the same edges in the same order as a restart would.
    short_cycle = _cycle_finder(adj)
    for src in range(2 * n):
        while hit := short_cycle(src, g):
            _, v, u = hit
            adj[v].remove(u)
            adj[u].remove(v)
            edge_set.discard((v, u - n) if v < n else (u, v - n))
    # no cycle shorter than g is left, so a g-cycle ends the girth search
    return TemplateGraph(n, tuple(sorted(edge_set)), _girth(short_cycle, 2 * n, g))


def random_signs(template: TemplateGraph, seed) -> SignAssignment:
    rng = np.random.default_rng(seed)
    flips = rng.integers(0, 2, size=template.edge_count) * 2 - 1
    return SignAssignment({e: int(f) for e, f in zip(template.edges, flips)})


def plus_vertex(i: int) -> int:
    return i


def minus_vertex(i: int, n: int) -> int:
    return n + i


def right_vertex(j: int, n: int) -> int:
    return 2 * n + j


def signed_metric(
    template: TemplateGraph, signs: SignAssignment, params: SignedMetricParams
) -> FiniteMetric:
    """Truncated shortest-path metric of the coin-flip graph on 3n points.

    Vertex layout: plus copies 0..n-1, minus copies n..2n-1, right side
    2n..3n-1.  Distances between different components hit the truncation T.

    For a finite T the result is a metric by construction and skips the
    triangle scan of :func:`~mdrlab.metric.build_metric`; the hop limit and
    the floating-point argument are in :func:`mdrlab.metric._hop_distances`.
    An infinite T leaves unreachable pairs at inf, so that matrix is validated.
    """
    n = template.n
    if set(signs.signs.keys()) != set(template.edges):
        raise IndexMismatch("sign assignment must cover exactly the template edges")
    # edge (i, j) joins the plus (sign +1) or minus (sign -1) copy of i to j
    left, right = np.array(template.edges, dtype=int).reshape(-1, 2).T
    sign = np.array([signs.signs[e] for e in template.edges], dtype=int)
    rows = np.where(sign > 0, plus_vertex(left), minus_vertex(left, n))
    cols = right_vertex(right, n)
    d = _hop_distances(3 * n, rows, cols, params.s, params.T)
    return _exact_metric(d) if math.isfinite(params.T) else build_metric(d)


def min_fork_distance(metric: FiniteMetric, n: int) -> float:
    """min over left vertices of d(lambda+, lambda-) in a signed metric."""
    return float(min(metric.dist[plus_vertex(i), minus_vertex(i, n)] for i in range(n)))


def experiment_harness(
    n: int, g: int, s: float, T: float, trials: int, seed, alpha: float = 1.0
) -> list:
    """Sampled-metric survey rows: geometry plus dimension lower bounds.

    Requires the shape condition g <= T/s so the plus/minus separation
    min(s*g, T) = s*g is in force.  Each row records the template edge
    count and girth, the worst plus/minus distance, and the packing and
    simplex dimension lower bounds of the sampled metric at ``alpha``.
    """
    from .metric import doubling_dim_lower_bound, volumetric_lower_bound

    if g > T / s:
        raise ValueError("need g <= T/s")
    params = SignedMetricParams(s, T)
    rng = np.random.default_rng(seed)
    rows = []
    for trial in range(trials):
        t_seed, s_seed = rng.integers(0, 2**63 - 1, size=2)
        template = gen_template(n, g, t_seed)
        signs = random_signs(template, s_seed)
        metric = signed_metric(template, signs, params)
        rows.append(
            {
                "trial": trial,
                "n": n,
                "g": g,
                "s": s,
                "T": T,
                "edges": template.edge_count,
                "girth": template.girth,
                "min_fork_dist": min_fork_distance(metric, n),
                "doubling_lb": doubling_dim_lower_bound(metric, alpha),
                "volumetric_lb": volumetric_lower_bound(3 * n, alpha),
            }
        )
    return rows
