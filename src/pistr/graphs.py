"""Simple undirected graphs, edge labelings, and exact clique covers.

Vertices are 0-based integers internally; file formats and the matrix
constructions translate to 1-based indices at their own boundary.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

import numpy as np

Edge = tuple[int, int]


def edge_key(u: int, v: int) -> Edge:
    """Normalize an unordered vertex pair to (min, max)."""
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Simple graph: no loops, no multi-edges, vertices 0..n_vertices-1."""

    n_vertices: int
    edges: frozenset[Edge]

    def __post_init__(self):
        if self.n_vertices < 0:
            raise ValueError("vertex count must be nonnegative")
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < v < self.n_vertices):
                raise ValueError(f"edge ({u},{v}) out of range or not normalized")

    @classmethod
    def from_edges(cls, n_vertices: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        return cls(n_vertices, frozenset(edge_key(u, v) for u, v in edges))

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        nbrs: list[list[int]] = [[] for _ in range(self.n_vertices)]
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        return tuple(tuple(sorted(a)) for a in nbrs)

    @cached_property
    def components(self) -> tuple[tuple[int, ...], ...]:
        """Connected components as sorted vertex tuples, ordered by smallest
        vertex; one walk over adjacency, shared by every caller."""
        adj = self.adjacency
        seen: set[int] = set()
        comps = []
        for start in range(self.n_vertices):
            if start in seen:
                continue
            comp = {start}
            stack = [start]
            while stack:
                fresh = set(adj[stack.pop()]).difference(comp)
                comp |= fresh
                stack.extend(fresh)
            seen |= comp
            comps.append(tuple(sorted(comp)))
        return tuple(comps)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency[v]

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        return edge_key(u, v) in self.edges

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)


@dataclass(frozen=True)
class EdgeLabeling:
    """Total map from the edges of a graph to labels in {1, ..., strength}."""

    graph: Graph
    labels: Mapping[Edge, int]
    strength: int

    def __post_init__(self):
        if self.strength < 1:
            raise ValueError("strength must be >= 1")
        if set(self.labels) != self.graph.edges:
            raise ValueError("labels must cover exactly the edges of the graph")
        for e, w in self.labels.items():
            if not (1 <= w <= self.strength):
                raise ValueError(f"label {w} on edge {e} outside 1..{self.strength}")

    @classmethod
    def make(cls, graph: Graph, labels: Mapping[tuple[int, int], int],
             strength: int | None = None) -> "EdgeLabeling":
        norm = {edge_key(u, v): int(w) for (u, v), w in labels.items()}
        if strength is None:
            strength = max(norm.values(), default=1)
        return cls(graph, norm, strength)

    def label(self, u: int, v: int) -> int:
        return self.labels[edge_key(u, v)]


@dataclass(frozen=True)
class CliqueCover:
    """Ordered partition of the vertex set into cliques.

    Parts are sorted by size ascending (ties by smallest contained vertex);
    cross_edges lists every graph edge joining two different parts as
    (part_i, part_j, u, v) with part_i < part_j, u in part_i, v in part_j.
    """

    parts: tuple[tuple[int, ...], ...]
    sizes: tuple[int, ...]
    cross_edges: tuple[tuple[int, int, int, int], ...]

    @property
    def n_parts(self) -> int:
        return len(self.parts)


def complete_graph(n: int) -> Graph:
    """K_n on vertices 0..n-1."""
    if n < 1:
        raise ValueError("complete graph needs at least one vertex")
    return Graph(n, frozenset((u, v) for u in range(n) for v in range(u + 1, n)))


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union; g2's vertices are shifted up by g1.n_vertices."""
    off = g1.n_vertices
    shifted = ((u + off, v + off) for u, v in g2.edges)
    return Graph(off + g2.n_vertices, frozenset(itertools.chain(g1.edges, shifted)))


def add_cross_edge(g: Graph, u: int, v: int) -> Graph:
    """Return g plus the edge {u, v}; the edge must be absent and not a loop."""
    if u == v:
        raise ValueError("cannot add a loop")
    if not (0 <= u < g.n_vertices and 0 <= v < g.n_vertices):
        raise ValueError("endpoint out of range")
    e = edge_key(u, v)
    if e in g.edges:
        raise ValueError(f"edge {e} already present")
    return Graph(g.n_vertices, g.edges | {e})


def validate_weighted_adjacency(m: np.ndarray) -> np.ndarray:
    """Check the weighted-adjacency invariants; return m as an int array."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    if not np.issubdtype(m.dtype, np.integer):
        if not np.all(m == m.astype(np.int64)):
            raise ValueError("matrix entries must be integers")
        m = m.astype(np.int64)
    if np.any(np.diagonal(m) != 0):
        raise ValueError("diagonal must be zero")
    if np.any(m < 0):
        raise ValueError("entries must be nonnegative")
    if not np.array_equal(m, m.T):
        raise ValueError("matrix must be symmetric")
    return m


def matrix_to_labeled_graph(m: np.ndarray) -> tuple[Graph, EdgeLabeling]:
    """Positive entries become labeled edges; inverse of labeled_graph_to_matrix."""
    m = validate_weighted_adjacency(m)
    n = m.shape[0]
    labels = {}
    for u in range(n):
        for v in range(u + 1, n):
            if m[u, v] > 0:
                labels[(u, v)] = int(m[u, v])
    g = Graph(n, frozenset(labels))
    return g, EdgeLabeling.make(g, labels)


def labeled_graph_to_matrix(labeling: EdgeLabeling) -> np.ndarray:
    """Weighted adjacency matrix of a labeled graph."""
    n = labeling.graph.n_vertices
    m = np.zeros((n, n), dtype=np.int64)
    for (u, v), w in labeling.labels.items():
        m[u, v] = m[v, u] = w
    return m


def is_connected(g: Graph) -> bool:
    return len(g.components) <= 1


def connected_components(g: Graph) -> list[list[int]]:
    """Components as sorted vertex lists, ordered by smallest vertex."""
    return [list(comp) for comp in g.components]


def has_isolated_vertex_or_edge(g: Graph) -> bool:
    """True if some component is a single vertex or a single edge."""
    return any(len(comp) <= 2 for comp in g.components)  # 2 vertices = 1 edge


def induced_subgraph(g: Graph, vertices: list[int]) -> tuple[Graph, list[int]]:
    """Subgraph on the given vertices, relabeled 0..k-1; returns (sub, old_ids)."""
    old = sorted(vertices)
    index = {v: i for i, v in enumerate(old)}
    edges = [(index[u], index[v]) for u, v in g.edges if u in index and v in index]
    return Graph.from_edges(len(old), edges), old


def clique_cover(g: Graph, k_max: int) -> CliqueCover | None:
    """Minimum clique cover if the minimum is <= k_max, else None.

    Exact: backtracking k-coloring of the complement graph with vertices
    ordered by descending complement degree.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    n = g.n_vertices
    if n == 0:
        return CliqueCover((), (), ())
    comp_adj = _complement_masks(g)
    for k in range(1, k_max + 1):
        classes = _color_graph(comp_adj, k)
        if classes is not None:
            return _cover_from_classes(g, classes)
    return None


def _complement_masks(g: Graph) -> list[int]:
    n = g.n_vertices
    full = (1 << n) - 1
    bits = [1 << u for u in range(n)]
    masks = []
    for v, nbrs in enumerate(g.adjacency):
        m = bits[v]
        for u in nbrs:
            m |= bits[u]
        masks.append(full ^ m)
    return masks


def _color_graph(adj_masks: list[int], k: int) -> list[int] | None:
    """Proper k-coloring as color-class bitmasks, or None. Exact backtracking
    without recursion, trying colors in the same order as a recursive search:
    the vertex at each depth takes the first fitting color from ``first`` on;
    when none fits, the search backs up one depth and resumes after the color
    chosen there."""
    n = len(adj_masks)
    order = sorted(range(n), key=lambda v: (-bin(adj_masks[v]).count("1"), v))
    classes = [0] * k
    color = [0] * n  # color[i] is the color of order[i] while depth > i
    bumped = [False] * n  # whether that color opened a new class
    used = 0
    depth = 0
    first = 0  # the first color to try at this depth
    while depth < n:
        v = order[depth]
        mask = adj_masks[v]
        for c in range(first, min(used + 1, k)):
            if not classes[c] & mask:
                classes[c] |= 1 << v
                color[depth] = c
                bumped[depth] = c == used
                if c == used:
                    used += 1
                depth += 1
                first = 0
                break
        else:
            if depth == 0:
                return None
            depth -= 1
            c = color[depth]
            classes[c] &= ~(1 << order[depth])
            if bumped[depth]:
                used -= 1
            first = c + 1
    return classes


def _cover_from_classes(g: Graph, classes: list[int]) -> CliqueCover:
    parts = []
    for mask in classes:
        verts = tuple(v for v in range(g.n_vertices) if mask >> v & 1)
        if verts:
            parts.append(verts)
    parts.sort(key=lambda p: (len(p), p[0]))
    part_of = [0] * g.n_vertices
    for i, part in enumerate(parts):
        for v in part:
            part_of[v] = i
    cross = []
    for u, nbrs in enumerate(g.adjacency):
        pu = part_of[u]
        for v in nbrs:
            pv = part_of[v]
            if pv != pu and u < v:
                cross.append((pu, pv, u, v) if pu < pv else (pv, pu, v, u))
    cross.sort()
    return CliqueCover(tuple(parts), tuple(len(p) for p in parts), tuple(cross))
