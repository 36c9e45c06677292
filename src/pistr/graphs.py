"""Simple undirected graphs, edge labelings, and exact clique covers.

Vertices are 0-based integers internally; file formats and the matrix
constructions translate to 1-based indices at their own boundary.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from numbers import Integral
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

    @cached_property
    def _roots(self) -> np.ndarray:
        """Each vertex's component label, the smallest vertex of its
        component: root labels over ``ends`` by hooking and pointer jumping
        (Shiloach and Vishkin, J. Algorithms 1982). Each round hooks every
        root to the smallest of the smaller roots across its edges, then
        jumps f = f[f] until every vertex points at a root, and keeps only
        the edges that still join two roots."""
        f = np.arange(self.n_vertices)
        u, v = self.ends
        while len(u):
            np.minimum.at(f, np.maximum(u, v), np.minimum(u, v))
            up = f[f]
            while np.count_nonzero(up != f):
                f, up = up, up[up]
            u, v = f[u], f[v]
            keep = u != v
            u, v = u[keep], v[keep]
        return f

    @cached_property
    def components(self) -> tuple[tuple[int, ...], ...]:
        """Connected components as sorted vertex tuples, ordered by smallest
        vertex: the vertices sorted stably by their root label, cut by the
        component sizes."""
        sizes = np.bincount(self._roots)
        ends = np.cumsum(sizes[sizes > 0]).tolist()
        vertices = self._roots.argsort(kind="stable").tolist()
        return tuple(tuple(vertices[a:b]) for a, b in zip([0, *ends], ends))

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
    """Ordered partition of the vertex set into cliques: the parts sorted by
    size ascending, ties by smallest contained vertex, each part's vertices
    ascending. Everything else about the graph is read from the graph."""

    parts: tuple[tuple[int, ...], ...]
    sizes: tuple[int, ...]

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
    """Check the weighted-adjacency invariants; return m as an int64 array,
    or as label_array does when an entry does not fit int64."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    if m.dtype == object or m.dtype == np.uint64:  # entries may pass 2^63 - 1
        if not all(isinstance(x, Integral) for x in m.flat):
            raise ValueError("matrix entries must be integers")
        m = label_array(m.tolist()).reshape(m.shape)
    elif not np.issubdtype(m.dtype, np.integer):
        if not np.all(m == m.astype(np.int64)):
            raise ValueError("matrix entries must be integers")
    if m.dtype != object:
        m = m.astype(np.int64, copy=False)
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
    # flat positions u * n + v of the entries above the diagonal, ascending;
    # the array holds one entry per edge, not one per vertex pair
    keys = np.flatnonzero(np.triu(m > 0, 1)).astype(np.int64, copy=False)
    u, v = np.divmod(keys, max(n, 1))
    g = Graph._from_ends(n, u, v, keys)
    labels = m[u, v]
    return g, EdgeLabeling._from_values(g, labels, int(labels.max(initial=1)))


def labeled_graph_to_matrix(labeling: EdgeLabeling) -> np.ndarray:
    """Weighted adjacency matrix of a labeled graph."""
    n = labeling.graph.n_vertices
    m = np.zeros((n, n), dtype=labeling.values.dtype)
    u, v = labeling.graph.ends
    m[u, v] = m[v, u] = labeling.values
    return m


def is_connected(g: Graph) -> bool:
    return not np.count_nonzero(g._roots)  # every vertex in vertex 0's component


def connected_components(g: Graph) -> list[list[int]]:
    """Components as sorted vertex lists, ordered by smallest vertex."""
    return [list(comp) for comp in g.components]


def has_isolated_vertex_or_edge(g: Graph) -> bool:
    """True if some component is a single vertex or a single edge."""
    by_size = np.bincount(np.bincount(g._roots), minlength=3)  # components per size
    return bool(np.count_nonzero(by_size[1:3]))  # 2 vertices = 1 edge


def closed_twin_classes(n_vertices: int, edges: Iterable[Edge]) -> list[list[int]]:
    """The classes of closed twins with at least two vertices: vertices with
    equal closed neighbourhoods N[v] = N(v) + v, so pairwise adjacent, and
    any permutation of a class is an automorphism. Each class ascending, in
    the order of its smallest vertex."""
    closed = [[v] for v in range(n_vertices)]
    for u, v in edges:
        closed[u].append(v)
        closed[v].append(u)
    classes: dict[tuple[int, ...], list[int]] = {}
    for v, members in enumerate(closed):
        classes.setdefault(tuple(sorted(members)), []).append(v)
    return [c for c in classes.values() if len(c) > 1]


def component_subgraphs(g: Graph) -> list[tuple[Graph, list[int]]]:
    """Each component of g as (its graph on 0..k-1, its vertices in g), in
    the order of connected_components: the edges grouped by component in one
    stable sort, which keeps them sorted, each vertex renumbered by its rank."""
    roots, (u, v) = g._roots, g.ends
    by_root = roots.argsort(kind="stable")  # the vertices component by component
    rank = np.empty_like(by_root)
    rank[by_root] = np.arange(g.n_vertices) - roots[by_root].searchsorted(roots[by_root])
    order = roots[u].argsort(kind="stable")
    # a root is the smallest vertex of its component, so the roots are the
    # vertices that are their own root (np.unique would import numpy.ma)
    heads = np.flatnonzero(roots == np.arange(g.n_vertices))
    cuts = np.cumsum(np.bincount(roots[u], minlength=g.n_vertices)[heads]).tolist()
    u, v = rank[u[order]], rank[v[order]]
    return [(Graph._from_ends(len(comp), u[a:b], v[a:b]), list(comp))
            for comp, a, b in zip(g.components, [0, *cuts], cuts)]


def clique_cover(g: Graph, k_max: int) -> CliqueCover | None:
    """Minimum clique cover if the minimum is <= k_max, else None.

    Exact: a k-colouring of the complement graph for k = 1, 2, ... The
    cliques of a cover with at most k_max parts hold at least the edges of
    n vertices split as evenly as possible into k_max cliques, so a graph
    with fewer edges is refused before any n x n work. Two colours are a
    breadth-first search, whose cost does not depend on how the vertices
    are numbered; every other k is a backtracking search with vertices
    ordered by descending complement degree.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    q, r = divmod(g.n_vertices, k_max)
    # the fewest edges k_max cliques on n vertices hold: parts of q, r of them q + 1
    if g.n_edges < k_max * q * (q - 1) // 2 + r * q:
        return None
    comp_adj = _complement_masks(g)
    for k in range(1, k_max + 1):
        classes = _two_colour(comp_adj) if k == 2 else _color_graph(comp_adj, k)
        if classes is not None:
            parts = sorted((tuple(_bits(mask)) for mask in classes if mask),
                           key=lambda p: (len(p), p[0]))
            return CliqueCover(tuple(parts), tuple(len(p) for p in parts))
    return None


def _complement_masks(g: Graph) -> list[int]:
    """Bitmask of each vertex's non-neighbours (itself excluded), a block of
    rows at a time: row u's cells u * n + v come from the edges' sorted keys,
    a slice found by searchsorted on u, and row v's cells v * n + u from the
    edges whose v lies in the block."""
    n = g.n_vertices
    u, v = g.ends
    keys = g._keys
    masks: list[int] = []
    step = max(1, _MASK_BLOCK // max(n, 1))
    for lo in range(0, n, step):
        hi = min(n, lo + step)
        block = np.ones((hi - lo, n), dtype=bool)
        flat = block.reshape(-1)
        first, last = u.searchsorted((lo, hi))
        flat[keys[first:last] - lo * n] = False
        mine = slice(None) if hi - lo == n else (v >= lo) & (v < hi)
        flat[(v[mine] - lo) * n + u[mine]] = False
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
    order = _order(adj_masks)
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


def _order(adj_masks: list[int]) -> list[int]:
    """The vertices by descending degree, then id: the colourings' order."""
    return sorted(range(len(adj_masks)), key=lambda v: (-adj_masks[v].bit_count(), v))


def _two_colour(adj_masks: list[int]) -> list[int] | None:
    """The classes _color_graph(adj_masks, 2) returns, or None: breadth
    first from each component's first vertex in _order, on side 0, each
    layer on the other side from the last; an edge inside a side is an odd
    cycle. Side 0 for those vertices is the least colouring in that order,
    the one the backtracking finds first."""
    sides = [0, 0]
    todo = (1 << len(adj_masks)) - 1
    for start in _order(adj_masks):
        frontier, side = todo & 1 << start, 0
        while frontier:
            sides[side] |= frontier
            todo &= ~frontier
            reach = 0
            for v in _bits(frontier):
                reach |= adj_masks[v]
            if reach & sides[side]:
                return None
            frontier, side = reach & todo, 1 - side
    return sides


def _bits(mask: int):
    """The positions of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
