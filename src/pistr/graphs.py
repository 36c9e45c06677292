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

_MASK_BLOCK = 1 << 22  # booleans per block of rows in _complement_masks


def edge_key(u: int, v: int) -> Edge:
    """Normalize an unordered vertex pair to (min, max)."""
    return (u, v) if u < v else (v, u)


class Graph:
    """Simple graph: no loops, no multi-edges, vertices 0..n_vertices-1.

    The public constructor takes the edges as a frozenset of pairs (u, v)
    with u < v and checks them. Graphs the package builds itself (the
    parser, the matrix conversion) hold them as two int arrays instead,
    ``ends``, with u < v in sorted edge order. Each form is derived from the
    other only when it is first read, so neither side pays for the other.
    Graphs are immutable; equality and hashing go by vertex count and edge
    set.
    """

    def __init__(self, n_vertices: int, edges: frozenset[Edge]):
        if n_vertices < 0:
            raise ValueError("vertex count must be nonnegative")
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < v < n_vertices):
                raise ValueError(f"edge ({u},{v}) out of range or not normalized")
        self.__dict__.update(n_vertices=n_vertices, edges=edges)

    @classmethod
    def _from_ends(cls, n_vertices: int, u: np.ndarray, v: np.ndarray,
                   keys: np.ndarray | None = None) -> "Graph":
        """Unchecked: the caller guarantees 0 <= u < v < n_vertices and
        distinct pairs in sorted order, and keys == u * n_vertices + v if
        given."""
        g = cls.__new__(cls)
        g.__dict__.update(n_vertices=n_vertices, ends=(u, v))
        if keys is not None:
            g.__dict__["_keys"] = keys
        return g

    @classmethod
    def from_edges(cls, n_vertices: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        return cls(n_vertices, frozenset(edge_key(u, v) for u, v in edges))

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        if self.n_vertices != other.n_vertices:
            return False
        if "ends" in self.__dict__ and "ends" in other.__dict__:
            return all(map(np.array_equal, self.ends, other.ends))
        return self.edges == other.edges

    def __hash__(self):
        return hash((self.n_vertices, self.edges))

    def __repr__(self):
        return f"Graph(n_vertices={self.n_vertices}, edges={self.edges!r})"

    @cached_property
    def edges(self) -> frozenset[Edge]:
        u, v = self.ends
        return frozenset(zip(u.tolist(), v.tolist()))

    @cached_property
    def ends(self) -> tuple[np.ndarray, np.ndarray]:
        """The edges as two int64 arrays, u < v, in sorted edge order."""
        pairs = np.array(sorted(self.edges), dtype=np.int64).reshape(-1, 2)
        return pairs[:, 0].copy(), pairs[:, 1].copy()

    @cached_property
    def _keys(self) -> np.ndarray:
        """u * n + v for each edge: ascending, one per edge."""
        u, v = self.ends
        return u * self.n_vertices + v

    def edge_index(self, pairs) -> np.ndarray:
        """Positions in ``ends`` of the given vertex pairs, each in either
        order; KeyError for a pair that is not an edge."""
        n, keys = self.n_vertices, self._keys
        want = np.array([a * n + b if a < b else b * n + a for a, b in pairs],
                        dtype=np.int64)
        pos = keys.searchsorted(want)
        hit = keys.take(pos, mode="clip") == want if len(keys) else pos < 0
        if not hit.all():
            raise KeyError(edge_key(*pairs[int(hit.argmin())]))
        return pos

    @cached_property
    def csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Compressed rows (indptr, cells, indices): the neighbours of v are
        indices[indptr[v]:indptr[v + 1]], in ascending order, and cells[k]
        is entry k's position in a flat n x n adjacency matrix."""
        n = self.n_vertices
        u, v = self.ends
        cells = np.concatenate((self._keys, v * n + u))
        cells.sort()
        step = max(n, 1)
        return (cells.searchsorted(np.arange(n + 1, dtype=np.int64) * step),
                cells, cells % step)

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        indptr, _, indices = self.csr
        flat, bounds = indices.tolist(), indptr.tolist()
        return tuple(tuple(flat[lo:hi]) for lo, hi in zip(bounds, bounds[1:]))

    @cached_property
    def components(self) -> tuple[tuple[int, ...], ...]:
        """Connected components as sorted vertex tuples, ordered by smallest
        vertex; one walk over the compressed rows, shared by every caller.
        A walk stops once it holds every vertex not yet placed, so a
        connected graph reads only the rows it needs to reach them all."""
        indptr, _, indices = self.csr
        bounds = indptr.tolist()
        seen: set[int] = set()
        comps = []
        for start in range(self.n_vertices):
            if start in seen:
                continue
            rest = self.n_vertices - len(seen)
            comp = {start}
            stack = [start]
            while stack and len(comp) < rest:
                x = stack.pop()
                fresh = set(indices[bounds[x]:bounds[x + 1]].tolist()).difference(comp)
                comp |= fresh
                stack.extend(fresh)
            seen |= comp
            comps.append(tuple(sorted(comp)))
        return tuple(comps)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency[v]

    def has_edge(self, u: int, v: int) -> bool:
        return edge_key(u, v) in self.edges

    @property
    def n_edges(self) -> int:
        ends = self.__dict__.get("ends")
        return len(self.edges) if ends is None else len(ends[0])

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)


class EdgeLabeling:
    """Total map from the edges of a graph to labels in {1, ..., strength}.

    The public constructor takes a mapping edge -> label and checks it.
    Labelings the package builds hold an array instead, ``values``, aligned
    with ``graph.ends``; int64, or object when a label does not fit. Each
    form is derived from the other when it is first read.
    """

    def __init__(self, graph: Graph, labels: Mapping[Edge, int], strength: int):
        if strength < 1:
            raise ValueError("strength must be >= 1")
        if set(labels) != graph.edges:
            raise ValueError("labels must cover exactly the edges of the graph")
        for e, w in labels.items():
            if not (1 <= w <= strength):
                raise ValueError(f"label {w} on edge {e} outside 1..{strength}")
        self.__dict__.update(graph=graph, labels=labels, strength=strength)

    @classmethod
    def _from_values(cls, graph: Graph, values: np.ndarray, strength: int) -> "EdgeLabeling":
        """Unchecked: values[i] labels edge i of graph.ends, within
        1..strength."""
        labeling = cls.__new__(cls)
        labeling.__dict__.update(graph=graph, values=values, strength=strength)
        return labeling

    @classmethod
    def make(cls, graph: Graph, labels: Mapping[tuple[int, int], int],
             strength: int | None = None) -> "EdgeLabeling":
        norm = {edge_key(u, v): int(w) for (u, v), w in labels.items()}
        if strength is None:
            strength = max(norm.values(), default=1)
        return cls(graph, norm, strength)

    def __setattr__(self, name, value):
        raise AttributeError("EdgeLabeling is immutable")

    def __eq__(self, other):
        if not isinstance(other, EdgeLabeling):
            return NotImplemented
        return ((self.graph, self.labels, self.strength)
                == (other.graph, other.labels, other.strength))

    __hash__ = None

    def __repr__(self):
        return (f"EdgeLabeling(graph={self.graph!r}, labels={self.labels!r}, "
                f"strength={self.strength})")

    @cached_property
    def labels(self) -> dict[Edge, int]:
        u, v = self.graph.ends
        return dict(zip(zip(u.tolist(), v.tolist()), self.values.tolist()))

    @cached_property
    def values(self) -> np.ndarray:
        """The labels as an array aligned with graph.ends."""
        u, v = self.graph.ends
        return label_array([self.labels[e] for e in zip(u.tolist(), v.tolist())])

    def label(self, u: int, v: int) -> int:
        return self.labels[edge_key(u, v)]


def label_array(labels) -> np.ndarray:
    """Labels as an int64 array, or an object array when one is too large."""
    try:
        return np.array(labels, dtype=np.int64)
    except OverflowError:
        return np.array(labels, dtype=object)


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
    u, v = np.triu_indices(n, 1)
    w = m[u, v]
    keep = w > 0
    g = Graph._from_ends(n, u[keep].astype(np.int64), v[keep].astype(np.int64))
    labels = w[keep].astype(np.int64)
    return g, EdgeLabeling._from_values(g, labels, int(labels.max(initial=1)))


def labeled_graph_to_matrix(labeling: EdgeLabeling) -> np.ndarray:
    """Weighted adjacency matrix of a labeled graph."""
    n = labeling.graph.n_vertices
    m = np.zeros((n, n), dtype=np.int64)
    u, v = labeling.graph.ends
    m[u, v] = m[v, u] = labeling.values
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
    ordered by descending complement degree. Two colours are ruled out by a
    breadth-first search instead, whose cost does not depend on how the
    vertices are numbered; the backtracking can take thousands of steps to
    refute them.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    n = g.n_vertices
    if n == 0:
        return CliqueCover((), (), ())
    comp_adj = _complement_masks(g)
    for k in range(1, k_max + 1):
        if k == 2 and not _is_bipartite(comp_adj):
            continue
        classes = _color_graph(comp_adj, k)
        if classes is not None:
            return _cover_from_classes(classes, comp_adj)
    return None


def _complement_masks(g: Graph) -> list[int]:
    """Bitmask of each vertex's non-neighbours (itself excluded), read off
    the compressed rows a block of rows at a time."""
    n = g.n_vertices
    indptr, cells, _ = g.csr
    masks: list[int] = []
    step = max(1, _MASK_BLOCK // n)
    for lo in range(0, n, step):
        hi = min(n, lo + step)
        block = np.ones((hi - lo, n), dtype=bool)
        flat = block.reshape(-1)
        flat[cells[indptr[lo]:indptr[hi]] - lo * n] = False
        flat[lo::n + 1] = False  # (r, lo + r): the vertex itself
        data = np.packbits(block, axis=1, bitorder="little").tobytes()
        width = (n + 7) // 8
        masks += [int.from_bytes(data[i:i + width], "little")
                  for i in range(0, len(data), width)]
    return masks


def _color_graph(adj_masks: list[int], k: int) -> list[int] | None:
    """Proper k-coloring as color-class bitmasks, or None. Exact backtracking
    without recursion, trying colors in the same order as a recursive search:
    the vertex at each depth takes the first fitting color from ``first`` on;
    when none fits, the search backs up one depth and resumes after the color
    chosen there."""
    n = len(adj_masks)
    order = sorted(range(n), key=lambda v: (-adj_masks[v].bit_count(), v))
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


def _is_bipartite(adj_masks: list[int]) -> bool:
    """Whether the graph of the adjacency bitmasks is 2-colourable:
    breadth first from the lowest vertex not yet reached, each layer on the
    other side from the last; an edge inside a side is an odd cycle."""
    sides = [0, 0]
    todo = (1 << len(adj_masks)) - 1
    while todo:
        frontier, side = todo & -todo, 0
        while frontier:
            sides[side] |= frontier
            todo &= ~frontier
            reach = 0
            for v in _bits(frontier):
                reach |= adj_masks[v]
            if reach & sides[side]:
                return False
            frontier, side = reach & todo, 1 - side
    return True


def _bits(mask: int):
    """The positions of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _cover_from_classes(classes: list[int], comp_adj: list[int]) -> CliqueCover:
    """The cover whose parts are the colour classes; the cross edges are
    read off the complement masks, a vertex and a part at a time."""
    parts = sorted((tuple(_bits(mask)) for mask in classes if mask),
                   key=lambda p: (len(p), p[0]))
    part_of = [0] * len(comp_adj)
    for i, part in enumerate(parts):
        for v in part:
            part_of[v] = i
    full = (1 << len(comp_adj)) - 1
    cross = []
    for i, part in enumerate(parts):
        outside = full ^ sum(1 << v for v in part)
        for x in part:
            # neighbours y > x in other parts
            for y in _bits(outside & ~comp_adj[x] & -(2 << x)):
                j = part_of[y]
                cross.append((i, j, x, y) if i < j else (j, i, y, x))
    cross.sort()
    return CliqueCover(tuple(parts), tuple(len(p) for p in parts), tuple(cross))
