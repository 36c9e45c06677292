"""Simple undirected graphs, edge labelings, and exact clique covers.

Vertices are 0-based integers internally; file formats and the matrix
constructions translate to 1-based indices at their own boundary.
"""

from __future__ import annotations

import itertools
import sys
from collections.abc import ItemsView, Mapping, ValuesView
from dataclasses import dataclass
from functools import cached_property
from numbers import Integral
from typing import Iterable

import numpy as np

Edge = tuple[int, int]

_MASK_BLOCK = 1 << 22  # booleans per block of rows in _complement_masks


def edge_key(u: int, v: int) -> Edge:
    """Normalize an unordered vertex pair to (min, max)."""
    return (u, v) if u < v else (v, u)


class Graph:
    """Simple graph: no loops, no multi-edges, vertices 0..n_vertices-1.

    One stored form, ``ends``: two int64 arrays, u < v, in sorted edge
    order. The public constructor reads pairs (u, v), u < v, once into a
    frozenset, checks them and builds ``ends``; the package's own graphs
    (parser, matrix conversion, component split) come from arrays.
    ``edges``, the frozenset, is kept from the constructor or built from
    ``ends`` when first read. Graphs are immutable; equality and hashing
    read only the arrays.
    """

    def __init__(self, n_vertices: int, edges: Iterable[Edge]):
        if not isinstance(n_vertices, Integral):
            raise ValueError(f"vertex count {n_vertices!r} is not an integer")
        if n_vertices < 0:
            raise ValueError("vertex count must be nonnegative")
        if n_vertices >= 1 << 63:  # so every vertex id fits int64 too
            raise ValueError(f"vertex count {n_vertices} does not fit int64")
        n, edges = int(n_vertices), frozenset(edges)
        for u, v in edges:
            if not (type(u) is type(v) is int  # skips the slow ABC test
                    or isinstance(u, Integral) and isinstance(v, Integral)):
                raise ValueError(f"edge ({u},{v}) has a vertex that is not an integer")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < v < n):
                raise ValueError(f"edge ({u},{v}) out of range or not normalized")
        pairs = np.fromiter(itertools.chain.from_iterable(edges), np.int64, 2 * len(edges))
        u, v = pairs.reshape(-1, 2).T
        order = np.lexsort((v, u))  # by u, then v
        self.__dict__.update(n_vertices=n, ends=(u[order], v[order]), edges=edges)

    @classmethod
    def _from_ends(cls, n_vertices: int, u: np.ndarray, v: np.ndarray) -> "Graph":
        """Unchecked: the caller guarantees int64 arrays with
        0 <= u < v < n_vertices and distinct pairs in sorted order."""
        g = cls.__new__(cls)
        g.__dict__.update(n_vertices=n_vertices, ends=(u, v))
        return g

    @classmethod
    def from_edges(cls, n_vertices: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        return cls(n_vertices, frozenset(edge_key(u, v) for u, v in edges))

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.n_vertices == other.n_vertices
                and all(map(np.array_equal, self.ends, other.ends)))

    def __hash__(self):
        return hash((self.n_vertices, *(end.tobytes() for end in self.ends)))

    def __repr__(self):
        return f"Graph(n_vertices={self.n_vertices}, edges={self.edges!r})"

    @cached_property
    def edges(self) -> frozenset[Edge]:
        u, v = self.ends
        return frozenset(zip(u.tolist(), v.tolist()))

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
        return len(self.ends[0])


class EdgeLabeling:
    """Total map from the edges of a graph to labels in {1, ..., strength}.

    One stored form, ``values``: the labels aligned with ``graph.ends``,
    int64, or object when a label does not fit. The public constructor
    checks a mapping edge -> label and reads it into ``values``; the
    package's own labelings come from arrays. ``labels`` is a read-only
    mapping over ``graph.ends`` and ``values`` that stores nothing.
    """

    def __init__(self, graph: Graph, labels: Mapping[Edge, int], strength: int):
        if not isinstance(strength, Integral):
            raise ValueError(f"strength {strength!r} is not an integer")
        if strength < 1:
            raise ValueError("strength must be >= 1")
        if labels.keys() != graph.edges:
            raise ValueError("labels must cover exactly the edges of the graph")
        for e, w in labels.items():
            if not (type(w) is int or isinstance(w, Integral)):
                raise ValueError(f"label {w!r} on edge {e} is not an integer")
            if not (1 <= w <= strength):
                raise ValueError(f"label {w} on edge {e} outside 1..{strength}")
        u, v = graph.ends
        values = label_array([labels[e] for e in zip(u.tolist(), v.tolist())])
        self.__dict__.update(graph=graph, values=values, strength=int(strength))

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
        norm = {edge_key(u, v): w for (u, v), w in labels.items()}
        if strength is None:  # the largest integer label: the constructor names the others
            strength = max((w for w in norm.values() if isinstance(w, Integral)), default=1)
        return cls(graph, norm, strength)

    def __setattr__(self, name, value):
        raise AttributeError("EdgeLabeling is immutable")

    def __eq__(self, other):
        if not isinstance(other, EdgeLabeling):
            return NotImplemented
        return (self.graph == other.graph and self.strength == other.strength
                and np.array_equal(self.values, other.values))

    __hash__ = None

    def __repr__(self):
        return (f"EdgeLabeling(graph={self.graph!r}, labels={self.labels!r}, "
                f"strength={self.strength})")

    @property
    def labels(self) -> Mapping[Edge, int]:
        return _Labels(self.graph, self.values)

    def label(self, u: int, v: int) -> int:
        return self.labels[edge_key(u, v)]


class _Labels(Mapping):
    """Edge (u, v), u < v, to its label as a Python int, in sorted edge
    order: a read-only view over a graph's ``ends`` and the labels aligned
    with them. A lookup is two binary searches; iterating walks the arrays."""

    __slots__ = ("_graph", "_values")

    def __init__(self, graph: Graph, values: np.ndarray):
        self._graph, self._values = graph, values

    def __getitem__(self, edge):
        try:
            a, b = edge
        except (TypeError, ValueError):
            raise KeyError(edge) from None
        if not (isinstance(a, Integral) and isinstance(b, Integral)
                and 0 <= a < b < self._graph.n_vertices):
            raise KeyError(edge)
        u, v = self._graph.ends
        lo, hi = u.searchsorted((a, a + 1))  # the edges of a
        i = lo + v[lo:hi].searchsorted(b)
        if i == hi or v[i] != b:
            raise KeyError(edge)
        return self._values.item(i)

    def __iter__(self):
        u, v = self._graph.ends
        return zip(u.tolist(), v.tolist())

    def __len__(self):
        return len(self._values)

    def values(self):
        return _LabelValues(self)

    def items(self):
        return _LabelItems(self)

    def __repr__(self):
        return repr(dict(self.items()))


class _LabelValues(ValuesView):
    def __iter__(self):
        return iter(self._mapping._values.tolist())

    def __contains__(self, value):
        return value in self._mapping._values.tolist()


class _LabelItems(ItemsView):
    def __iter__(self):
        return zip(self._mapping, self._mapping._values.tolist())


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
    ascending. The parts are all it holds; their sizes are read from them,
    and everything else about the graph from the graph."""

    parts: tuple[tuple[int, ...], ...]

    @cached_property
    def sizes(self) -> tuple[int, ...]:
        return tuple(map(len, self.parts))

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
    # the flat positions u * n + v of the entries above the diagonal,
    # ascending: one array entry per edge, not one per vertex pair
    u, v = np.divmod(np.flatnonzero(np.triu(m > 0, 1)), max(n, 1))
    g = Graph._from_ends(n, u, v)
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


def has_isolated_vertex_or_edge(g: Graph) -> bool:
    """True if some component is a single vertex or a single edge."""
    by_size = np.bincount(np.bincount(g._roots), minlength=3)  # components per size
    return bool(np.count_nonzero(by_size[1:3]))  # 2 vertices = 1 edge


def closed_masks(edges: Iterable[Edge]) -> dict[int, int]:
    """Each vertex with an edge: its closed neighbourhood N[v] = N(v) + v
    as a bit mask. Closed twins are the vertices of equal masks."""
    closed: dict[int, int] = {}
    for u, v in edges:
        closed[u] = closed.get(u, 1 << u) | 1 << v
        closed[v] = closed.get(v, 1 << v) | 1 << u
    return closed


def component_subgraphs(g: Graph) -> list[tuple[Graph, list[int]]]:
    """Each component of g as (its graph on 0..k-1, its vertices in g), in
    the order of g.components: the edges grouped by component in one
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

    Exact: a k-colouring of the complement graph for k = 1, 2, ..., each by
    _colour's search. The cliques of a cover with at most k_max parts hold
    at least the edges of n vertices split as evenly as possible into k_max
    cliques, so a graph with fewer edges is refused before any n x n work.
    Closed twins of g, the vertices of equal complement rows, can always
    share a colour, so only the first of each class is coloured and the rest
    of its class takes its colour. The cover is the colouring the search
    reaches first, which depends on the vertex ids only through _order's
    tie-break.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    q, r = divmod(g.n_vertices, k_max)
    # the fewest edges k_max cliques on n vertices hold: parts of q, r of them q + 1
    if g.n_edges < k_max * q * (q - 1) // 2 + r * q:
        return None
    comp_adj = _complement_masks(g)
    twins: dict[int, int] = {}  # per distinct row, in order, its class of closed twins
    for v in _order(comp_adj):
        twins[comp_adj[v]] = twins.get(comp_adj[v], 0) | 1 << v
    # each class's first vertex in order, its smallest: twins have one degree
    order = [(mask & -mask).bit_length() - 1 for mask in twins.values()]
    for k in range(1, k_max + 1):
        classes = _colour(comp_adj, k, order)
        if classes is not None:
            parts = sorted((tuple(_bits(sum(twins[comp_adj[v]] for v in _bits(mask))))
                            for mask in classes if mask), key=lambda p: (len(p), p[0]))
            return CliqueCover(tuple(parts))
    return None


def _complement_masks(g: Graph) -> list[int]:
    """Bitmask of each vertex's non-neighbours (itself excluded), a block of
    rows at a time: row u's cells u * n + v come from the edges' sorted keys,
    a slice found by searchsorted on u, and row v's cells v * n + u from the
    edges whose v lies in the block."""
    n = g.n_vertices
    u, v = g.ends
    keys = u * n + v  # ascending, one per edge
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


def _colour(adj_masks: list[int], k: int, order: list[int]) -> list[int] | None:
    """Proper k-colouring of the vertices in ``order`` as colour-class
    bitmasks, or None: DSatur (Brelaz, CACM 22, 1979) with forward checking.
    The next vertex is the uncoloured one that the most colours exclude,
    ties to the higher degree, then the lower id (``order`` is _order's, so
    its degree tiers come highest first). It tries the colours in use that
    do not exclude it, then one new colour. A branch ends once some
    uncoloured vertex has all k colours excluded. A vertex that no colour
    excludes starts a component apart from everything coloured: it takes
    colour 0 alone, and a failure below it fails the whole search, since no
    earlier choice reaches that component. One frame per depth, with the
    recursion limit raised by the depth and restored, as in search_labelings."""
    tiers: dict[int, int] = {}  # per degree, highest first, its vertices
    for v in order:
        degree = adj_masks[v].bit_count()
        tiers[degree] = tiers.get(degree, 0) | 1 << v
    classes, near = [0] * k, [0] * k  # per colour: its vertices, their neighbours

    def assign(excluded: list[int], used: int) -> bool | None:
        # excluded[j]: the uncoloured vertices that at least j colours
        # exclude. True when all are coloured, None when the search fails.
        if not excluded[0]:
            return True
        j = min(used, k - 1)
        while not excluded[j]:
            j -= 1
        for tier in tiers.values():
            if pick := excluded[j] & tier:
                break
        bit = pick & -pick
        mask = adj_masks[bit.bit_length() - 1]
        rest = [x & ~bit for x in excluded]
        for c in range(min(used + 1, k) if j else 1):
            fresh = mask & ~near[c]  # the vertices c excludes from now on
            if near[c] & bit or fresh & rest[-1]:
                continue
            rim = near[c]
            classes[c] |= bit
            near[c] = rim | mask
            found = assign([rest[0], *(rest[i] | rest[i - 1] & fresh for i in range(1, k))],
                           used + (c == used))
            if found is not False:
                return found
            classes[c] ^= bit
            near[c] = rim
        return False if j else None

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + len(order))
    try:
        return classes if assign([sum(1 << v for v in order), *[0] * (k - 1)], 0) else None
    finally:
        sys.setrecursionlimit(limit)


def _order(adj_masks: list[int]) -> list[int]:
    """The vertices by descending degree, then id: the colouring's tie-break.
    The sort is stable, so vertices of equal degree keep ascending ids."""
    minus_degree = [-mask.bit_count() for mask in adj_masks]
    return sorted(range(len(adj_masks)), key=minus_degree.__getitem__)


def _bits(mask: int):
    """The positions of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
