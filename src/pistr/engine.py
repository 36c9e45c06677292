"""Constructive strength-3 labelings for connected graphs with clique cover
number at most 3.

The engine computes a minimum clique cover, picks cross edges forming a
spanning tree over the parts, and looks up the construction in one table,
_CATALOG, keyed by the sorted part sizes (and, for the "+2 edges" rows, the
middle part's size and the in-edge pattern). catalog_matrix renders the row
as one weighted adjacency matrix; the graph's vertices are listed in its row
order, the tree edge endpoints where the cross entries name them, and each
edge takes its entry. Every surplus edge meets a zero entry and is labeled
1, which leaves all product degrees unchanged. Shapes outside the catalog go
to a bounded exact search, whose answer is written into a matrix too.
Both matrices hold one byte an entry.

Three rows correct the published catalog, each marked where it stands in
the table and exhaustively verified in the test suite: (4,4,5) with in-edges
at two vertices of the size-5 middle, (4,6,7) and (6,6,7).

Fallback shapes (no catalog row): two parts with sizes summing to at most 6;
three parts with any size below 4, sizes (4,4,m) for m >= 6, or (4,6,6).
"""

from __future__ import annotations

import functools
import itertools
import sys
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from math import comb

import numpy as np

from .graphs import (CliqueCover, Edge, EdgeLabeling, Graph, clique_cover,
                     edge_key, has_isolated_vertex_or_edge, is_connected)
from .matrices import direct_sum, fixed_matrix, named_family, tilde_matrix
from .solver import DEFAULT_BUDGET, BudgetExhausted, SearchPlan, search_labelings
from .verifier import is_product_irregular

PATTERN_NONE = "none"
PATTERN_ONE_EDGE = "one_edge"
PATTERN_SAME = "two_edges_same_vertex"
PATTERN_DIFF = "two_edges_diff_vertices"

_FALLBACK_MAX_FREE_EDGES = 16


class UnsupportedCoverError(ValueError):
    """The graph's clique cover number exceeds 3."""


class ConstructionError(RuntimeError):
    """A labeling the engine built failed verification (a catalog
    transcription or search bug)."""


class FallbackBudgetError(RuntimeError):
    """The fallback search exhausted its budget without a labeling."""


@dataclass(frozen=True)
class DispatchCase:
    """Which construction was applied and how graph vertices align to it."""

    cover_sizes: tuple[int, ...]
    pattern: str
    construction_id: str
    vertex_maps: dict[int, dict[int, int]]
    tree_edges: tuple[Edge, ...]  # the cross edges of the spanning tree, sorted


@dataclass(frozen=True)
class ConstructionOutcome:
    labeling: EdgeLabeling
    strength: int
    source: str  # "theorem" | "search-fallback"
    case_trace: DispatchCase


@dataclass(frozen=True)
class _Tree:
    """Chosen cross edges: a spanning tree over the cover parts."""

    # (part_i, part_j) with part_i < part_j -> (vertex in part_i, vertex in part_j)
    links: dict[tuple[int, int], tuple[int, int]]
    pattern: str
    middle: int | None

    @property
    def edges(self) -> tuple[Edge, ...]:
        return tuple(sorted(edge_key(u, v) for u, v in self.links.values()))


def _choose_tree(g: Graph, cover: CliqueCover) -> _Tree:
    """Spanning tree over the parts: the smallest cross edge of each chosen
    pair of parts, for three parts through the first part joined to both
    others. The parts are cliques, so the graph is connected exactly when
    such a tree exists."""
    k = cover.n_parts
    if k == 1:
        return _Tree({}, PATTERN_NONE, None)
    bit = np.zeros(g.n_vertices, dtype=np.int64)  # 1 << the part of each vertex
    for p, part in enumerate(cover.parts):
        bit[list(part)] = 1 << p
    u, v = g.ends
    pair = bit[u] | bit[v]  # an edge between parts i and j has both bits
    by_pair: dict[tuple[int, int], tuple[int, int]] = {}
    for i, j in itertools.combinations(range(k), 2):
        hit = pair == (1 << i | 1 << j)
        e = int(hit.argmax())  # the first hit, the smallest: g.ends is sorted
        if hit[e]:
            x, y = int(u[e]), int(v[e])
            by_pair[i, j] = (x, y) if bit[x] == 1 << i else (y, x)
    if k == 2 and (0, 1) in by_pair:
        return _Tree(by_pair, PATTERN_ONE_EDGE, None)
    if k == 3:
        for mid in range(3):
            keys = [(min(mid, o), max(mid, o)) for o in range(3) if o != mid]
            if all(key in by_pair for key in keys):
                links = {key: by_pair[key] for key in keys}
                hubs = {links[key][key.index(mid)] for key in keys}
                pattern = PATTERN_SAME if len(hubs) == 1 else PATTERN_DIFF
                return _Tree(links, pattern, mid)
    raise ValueError("graph must be connected")


@dataclass(frozen=True)
class _Row:
    """One catalog construction.

    sizes holds the sorted cover sizes the row applies to, each an exact
    size or a range. Block recipes and cross entries refer to roles: the
    cover parts in order (by size, then smallest vertex), except on the
    "+2 edges" rows (middle set), whose roles are (middle, outer, outer),
    outers in part order. A cross entry (role_a, i, role_b, j, w) puts label
    w on the tree edge joining the two roles, whose endpoints take the
    block-local positions i and j (1-based).
    """

    construction_id: str
    sizes: tuple[int | range, ...]
    blocks: tuple[Callable[[int], np.ndarray], ...]  # part size -> block
    cross: tuple[tuple[int, int, int, int, int], ...] = ()
    middle: int | None = None  # "+2 edges" rows: size of the middle part
    pattern: str | None = None  # "+2 edges" rows: pattern of the tree edges
    source: str = "theorem"


def _from(n: int) -> range:
    return range(n, sys.maxsize)


def _fixed(name: str, lo: int = 0, hi: int | None = None):
    return lambda n: fixed_matrix(name)[lo:hi, lo:hi]


def _const(mat: np.ndarray):
    return lambda n: mat


_A, _B, _C = ((lambda n, w=w: named_family(n, w)) for w in "ABC")
_tA, _tB, _tC = ((lambda n, w=w: tilde_matrix(n, w)) for w in "ABC")

# Product-irregular 3-labeling of two cliques of sizes 3 and 4 joined by one
# edge (block-local position 3 to position 1, weight 2); found by exhausting
# all 3^10 labelings and frozen here for deterministic dispatch, hence its
# source "search-fallback".
_K34_BLOCK3 = np.array([[0, 1, 1], [1, 0, 2], [1, 2, 0]], dtype=np.int64)
_K34_BLOCK4 = np.array([[0, 1, 2, 2], [1, 0, 1, 3], [2, 1, 0, 3], [2, 3, 3, 0]],
                       dtype=np.int64)
_K2 = np.array([[0, 1], [1, 0]], dtype=np.int64)
_K1 = np.zeros((1, 1), dtype=np.int64)
_M666 = tuple(_fixed(f"M666_BLOCK{i}") for i in (1, 2, 3))
_SAME, _DIFF = PATTERN_SAME, PATTERN_DIFF

# The first row that fits a cover wins.
_CATALOG = (
    _Row("T_single", (3,), (_fixed("T"),)),
    _Row("A_single", (_from(4),), (_A,)),
    _Row("K44_edge", (4, 4), (_fixed("K44_EDGE_8x8", 0, 4), _fixed("K44_EDGE_8x8", 4)),
         ((0, 4, 1, 1, 3),)),
    _Row("T5+T5_tilde", (5, 5), (_fixed("T5"), _fixed("T5_TILDE"))),
    _Row("T6+T6_tilde", (6, 6), (_fixed("T6"), _fixed("T6_TILDE"))),
    _Row("A+B", (_from(4), _from(4)), (_A, _B)),
    _Row("T+B", (3, _from(5)), (_fixed("T"), _B)),
    _Row("L", (2, _from(4)), (_const(_K2), _B), ((0, 1, 1, 1, 3),)),
    _Row("L_k1", (1, _from(4)), (_const(_K1), _B), ((0, 1, 1, 1, 3),)),
    _Row("K34_edge_cached", (3, 4), (_const(_K34_BLOCK3), _const(_K34_BLOCK4)),
         ((0, 3, 1, 1, 2),), source="search-fallback"),
    _Row("M666", (6, 6, 6), _M666),
    _Row("M666_minus_row1", (5, 6, 6), (_fixed("M666_BLOCK1", 1), *_M666[1:])),
    # Corrected: T6 + T6_TILDE + B_7 collides at degree 72.
    _Row("A6+M666_3+B7", (6, 6, 7), (_A, _M666[2], _B)),
    # Corrected: A_4 + B_7 + T6_TILDE collides at degree 72.
    _Row("B4+M666_3+B7", (4, 6, 7), (_B, _M666[2], _B)),
    _Row("A4+T5_tilde_mod+B6", (4, 5, 6), (_A, _fixed("T5_TILDE_MOD_456"), _B)),
    _Row("T5+T5_tilde+P6", (5, 5, 6), (_fixed("T5"), _fixed("T5_TILDE"), _fixed("P6"))),
    _Row("A+C+B", (_from(7), _from(7), _from(7)), (_A, _C, _B)),
    _Row("C_small+A+B", (range(4, 7), _from(7), _from(7)), (_C, _A, _B)),
    _Row("T6+T6_tilde+B", (6, 6, _from(8)), (_fixed("T6"), _fixed("T6_TILDE"), _B)),
    _Row("T5+T6_mod+B", (5, 6, _from(7)), (_fixed("T5"), _fixed("T6_MOD_567"), _B)),
    _Row("T5+T5_tilde+B", (5, 5, _from(7)), (_fixed("T5"), _fixed("T5_TILDE"), _B)),
    _Row("A4+B6+B", (4, 6, _from(8)), (_A, _B, _B)),
    _Row("A4+T5_tilde+B", (4, 5, _from(7)), (_A, _fixed("T5_TILDE"), _B)),
    # "+2 edges": tilde blocks plus both tree edges; roles (middle, outer, outer).
    _Row("tilde_555/same_vertex", (5, 5, 5), (_tB, _tA, _tC),
         ((1, 3, 0, 3, 3), (0, 3, 2, 3, 2)), 5, _SAME),
    _Row("tilde_555/diff_vertices", (5, 5, 5), (_tB, _tA, _tC),
         ((1, 3, 0, 3, 3), (0, 1, 2, 3, 2)), 5, _DIFF),
    _Row("tilde_455/same_vertex", (4, 5, 5), (_tB, _tA, _tC),
         ((1, 2, 0, 3, 3), (0, 3, 2, 3, 2)), 5, _SAME),
    _Row("tilde_455/diff_vertices", (4, 5, 5), (_tB, _tA, _tC),
         ((1, 3, 0, 3, 3), (0, 1, 2, 3, 2)), 5, _DIFF),
    _Row("tilde_455/same_vertex", (4, 5, 5), (_tA, _tB, _tC),
         ((0, 2, 1, 3, 2), (0, 2, 2, 3, 2)), 4, _SAME),
    _Row("tilde_455/diff_vertices", (4, 5, 5), (_tA, _tB, _tC),
         ((0, 2, 1, 3, 2), (0, 4, 2, 3, 2)), 4, _DIFF),
    _Row("tilde_445/same_vertex", (4, 4, 5), (_tB, _tA, _tC),
         ((1, 2, 0, 3, 3), (0, 3, 2, 2, 2)), 5, _SAME),
    # Corrected: the size-5 middle plays the C block and the second weight is
    # 2; weight 3 makes the first two rows of the size-5 block collide at
    # degree 81.
    _Row("tilde_445/diff_vertices", (4, 4, 5), (_tC, _tA, _tB),
         ((1, 2, 0, 3, 3), (2, 2, 0, 2, 2)), 5, _DIFF),
    _Row("tilde_445/same_vertex", (4, 4, 5), (_tC, _tA, _tB),
         ((1, 2, 0, 2, 3), (2, 3, 0, 2, 3)), 4, _SAME),
    _Row("tilde_445/diff_vertices", (4, 4, 5), (_tC, _tA, _tB),
         ((1, 2, 0, 2, 3), (2, 3, 0, 1, 3)), 4, _DIFF),
    _Row("tilde_444/same_vertex", (4, 4, 4), (_tC, _tA, _tB),
         ((1, 2, 0, 2, 3), (2, 3, 0, 2, 3)), 4, _SAME),
    _Row("tilde_444/diff_vertices", (4, 4, 4), (_tC, _tA, _tB),
         ((1, 2, 0, 2, 3), (2, 3, 0, 1, 3)), 4, _DIFF),
)


@functools.cache
def _lookup(sizes: tuple[int, ...], middle: int | None = None,
            pattern: str | None = None) -> _Row | None:
    """The first catalog row for these sizes; a "+2 edges" row also needs
    its middle size and pattern, unless middle is None. ValueError unless
    the sizes are sorted ascending: the rows' ranges match them in order.
    Cached: the catalog is fixed."""
    if list(sizes) != sorted(sizes):
        raise ValueError(f"no catalog row for sizes {sizes}: sizes must be sorted ascending")
    for row in _CATALOG:
        if (len(row.sizes) == len(sizes)
                and all(s == k if type(k) is int else s in k
                        for s, k in zip(sizes, row.sizes))
                and (row.middle is None or middle is None
                     or (row.middle, row.pattern) == (middle, pattern))):
            return row
    return None


def theorem_id(sizes: tuple[int, ...]) -> str | None:
    """The theorem-path catalog row for sorted cover sizes, without its
    "+2 edges" pattern suffix; None for the fallback shapes and for the
    search-found (3,4) row. ValueError for unsorted sizes."""
    row = _lookup(tuple(sizes))
    if row is None or row.source != "theorem":
        return None
    return row.construction_id.split("/")[0]


def catalog_matrix(sizes: tuple[int, ...], middle: int | None = None,
                   pattern: str | None = None) -> np.ndarray:
    """The weighted adjacency matrix of the catalog row for sorted cover
    sizes: the row's blocks in its role order, each cross entry at its
    block-local positions, one byte an entry (every entry is in 0..3).
    middle and pattern together pick a "+2 edges" row; without them the
    first row for the sizes is taken. ValueError if the sizes are unsorted
    or no row fits."""
    sizes = tuple(sizes)
    row = _lookup(sizes, middle, pattern)
    if row is None:
        raise ValueError(f"no catalog row for sizes {sizes}")
    orders = list(sizes)
    if row.middle is not None:
        orders.remove(row.middle)
        orders.insert(0, row.middle)
    m = direct_sum([make(n) for make, n in zip(row.blocks, orders)], np.int8)
    offsets = np.cumsum([0, *orders])
    for a, i, b, j, w in row.cross:
        x, y = offsets[a] + i - 1, offsets[b] + j - 1
        m[x, y] = m[y, x] = w
    return m


def _outcome(g: Graph, cover: CliqueCover, tree: _Tree, order, m: np.ndarray,
             s: int, construction_id: str, source: str,
             vertex_maps: dict[int, dict[int, int]]) -> ConstructionOutcome:
    """The labeling of g by the weighted adjacency matrix m, whose row i
    stands for vertex order[i]: each edge takes its entry, 1 where the entry
    is 0. Verified before it is returned, its labels within 1..s and its
    products distinct; every labeling the engine produces ends here."""
    pos = np.empty(g.n_vertices, dtype=np.int64)
    pos[order] = np.arange(g.n_vertices)
    u, v = g.ends
    labels = np.maximum(m[pos[u], pos[v]], 1).astype(np.int64)
    top = int(labels.max(initial=1))
    if top > s:
        raise ConstructionError(
            f"construction {construction_id} has label {top} above its strength {s}")
    labeling = EdgeLabeling._from_values(g, labels, s)
    report = is_product_irregular(labeling)
    if not report.ok:
        raise ConstructionError(
            f"construction {construction_id} failed verification "
            f"(colliding vertices {report.witness})")
    case = DispatchCase(cover.sizes, tree.pattern, construction_id, vertex_maps,
                        tree.edges)
    return ConstructionOutcome(labeling, s, source, case)


def label_cover(g: Graph, cover: CliqueCover,
                budget: int = DEFAULT_BUDGET) -> ConstructionOutcome:
    """The catalog construction for a connected graph and its clique cover
    of at most 3 parts, verified, or the bounded search for shapes without
    a row.

    ValueError unless the cover is one clique_cover could return for g: its
    parts partition the vertices, each ascending and a clique of g, ordered
    by size, then smallest vertex."""
    parts, n = cover.parts, g.n_vertices
    if not all(parts) or sorted(itertools.chain(*parts)) != list(range(n)):
        raise ValueError("cover parts do not partition the vertices")
    if list(map(list, parts)) != sorted(map(sorted, parts), key=lambda p: (len(p), p[0])):
        raise ValueError("cover parts are not each ascending, ordered by size, then "
                         "smallest vertex")
    part_of = np.empty(n, dtype=np.int64)
    part_of[list(itertools.chain(*parts))] = np.repeat(np.arange(len(parts)), cover.sizes)
    u, v = g.ends
    inside = np.bincount(part_of[u][part_of[u] == part_of[v]], minlength=len(parts))
    for p, size in enumerate(cover.sizes):
        if inside[p] != comb(size, 2):
            raise ValueError(f"cover part {parts[p]} is not a clique of the graph")
    if cover.n_parts > 3:
        raise UnsupportedCoverError("clique cover number exceeds 3")
    return _label(g, cover, budget)


def _label(g: Graph, cover: CliqueCover, budget: int) -> ConstructionOutcome:
    """label_cover for a cover known to fit g, of at most 3 parts.

    On a catalog row, g's vertices are listed in the row order of
    catalog_matrix: part by part in role order, each part's tree edge
    endpoints at the positions the row's cross entries name and its other
    vertices in part order. The vertex_maps are read off that order."""
    tree = _choose_tree(g, cover)
    middle = None if tree.middle is None else cover.sizes[tree.middle]
    row = _lookup(cover.sizes, middle, tree.pattern)
    if row is None:
        return _fallback(g, cover, tree, budget)
    roles = tuple(range(cover.n_parts))
    if row.middle is not None:
        roles = (tree.middle, *(p for p in roles if p != tree.middle))
    pins: dict[int, dict[int, int]] = {p: {} for p in roles}  # vertex -> position
    for a, i, b, j, _ in row.cross:
        (pa, i), (pb, j) = sorted(((roles[a], i), (roles[b], j)))
        u, v = tree.links[pa, pb]
        pins[pa][u], pins[pb][v] = i, j
    order, maps = [], {}
    for p in roles:
        part = [v for v in cover.parts[p] if v not in pins[p]]
        for v, i in sorted(pins[p].items(), key=lambda pin: pin[1]):
            part.insert(i - 1, v)
        order += part
        maps[p] = {v: i for i, v in enumerate(part, 1)}
    m = catalog_matrix(cover.sizes, middle, tree.pattern)
    return _outcome(g, cover, tree, order, m, 3, row.construction_id, row.source, maps)


# The fixed blocks a pinned part of size n may take after B<n>, A<n>, C<n>.
_PINNABLE = {5: ("T5", "T5_TILDE", "T5_TILDE_MOD_456"),
             6: ("T6", "T6_TILDE", "M666_BLOCK1", "M666_BLOCK2", "M666_BLOCK3", "P6",
                 "T6_MOD_567")}


def _row_products(block: np.ndarray) -> list[int]:
    """The product of each row's labels, 2^a * 3^b for a twos and b threes:
    exact because every block the fallback may pin is over the labels 1..3."""
    twos = (block == 2).sum(axis=1).tolist()
    threes = (block == 3).sum(axis=1).tolist()
    return [2**a * 3**b for a, b in zip(twos, threes)]


def _fallback_stages(g: Graph, cover: CliqueCover, tree: _Tree
                     ) -> Iterator[tuple[int, dict[int, tuple[str, np.ndarray]], SearchPlan,
                                         list[int] | None]]:
    """The searches of _fallback, in order, as (s, pins, plan, products):
    pins maps each pinned part to its block's name and the block, plan is
    the SearchPlan of the free edges and products each vertex's product of
    pinned labels, None when nothing is pinned.

    The search runs on the spanning graph: the parts plus the tree edges.
    Cliques too large to search are pinned (largest first) until at most 16
    of its edges remain free. A pinned part of size n takes B<n>, A<n>,
    C<n>, then _PINNABLE[n], each block built once, when a combination of
    one name per pinned part first needs it. The stages are (s,
    combination): s = 3, then s = 4, each over every combination, the
    empty one when nothing is pinned."""
    by_size_desc = sorted(range(cover.n_parts), key=lambda p: -cover.sizes[p])
    to_fix: list[int] = []
    free_edges = len(tree.links) + sum(comb(size, 2) for size in cover.sizes)
    for p in by_size_desc:
        if free_edges <= _FALLBACK_MAX_FREE_EDGES or cover.sizes[p] < 4:
            break
        to_fix.append(p)
        free_edges -= comb(cover.sizes[p], 2)
    edges = set(tree.edges)
    for p, part in enumerate(cover.parts):
        if p not in to_fix:
            edges.update(itertools.combinations(sorted(part), 2))
    plan = SearchPlan.of(Graph(g.n_vertices, frozenset(edges)))
    names = [(f"B{n}", f"A{n}", f"C{n}", *_PINNABLE.get(n, ()))
             for n in (cover.sizes[p] for p in to_fix)]
    # (size, name) -> (block, its row products), built on first use
    blocks: dict[tuple[int, str], tuple[np.ndarray, list[int]]] = {}
    for s, combo in itertools.product((3, 4), itertools.product(*names)):
        products = [1] * g.n_vertices if to_fix else None
        for p, name in zip(to_fix, combo):
            n = cover.sizes[p]
            if (n, name) not in blocks:
                mat = (fixed_matrix(name) if name in _PINNABLE.get(n, ())
                       else named_family(n, name[0]))
                blocks[n, name] = mat, _row_products(mat)
            for v, product in zip(cover.parts[p], blocks[n, name][1]):
                products[v] = product
        pins = {p: (name, blocks[cover.sizes[p], name][0]) for p, name in zip(to_fix, combo)}
        yield s, pins, plan, products


def _fallback(g: Graph, cover: CliqueCover, tree: _Tree,
              budget: int) -> ConstructionOutcome:
    """Bounded search for shapes without a catalog row.

    One loop walks the stages of _fallback_stages. Every search runs on one
    SearchPlan of the free edges, where closed twins of equal pinned
    products finish with increasing products (SearchPlan.twins_under, the
    plan's twins when nothing is pinned), and gets what is left of the one
    budget; the first to run out ends the fallback with FallbackBudgetError.
    No s below 3 can succeed: with labels 1 and 2 the n >= 2 products must
    be 2^0 .. 2^(n-1), but the vertex with 2^(n-1) has an edge labeled 2 to
    the vertex with 1. s = 4 suffices for every unpinned spanning graph
    except K2, which has no labeling at all and which construct_labeling
    rejects. The answer is one n x n matrix of one byte an entry, in vertex
    order: the pinned blocks at their parts' rows and columns, the search's
    labels on the free edges.
    """
    used = 0
    for s, pins, plan, products in _fallback_stages(g, cover, tree):
        try:
            sols, nodes = search_labelings(plan, s, products, budget - used)
        except BudgetExhausted as exc:
            raise FallbackBudgetError(
                f"fallback budget exhausted after {used + exc.args[0]} nodes") from None
        used += nodes
        if not sols:
            continue
        note = (f"fixed({','.join(name for name, _ in pins.values())}),s={s}" if pins
                else f"exhaustive(s={s})")
        m = np.zeros((g.n_vertices, g.n_vertices), dtype=np.int8)
        for p, (_, block) in pins.items():
            m[np.ix_(cover.parts[p], cover.parts[p])] = block
        for (x, y), w in sols[0].items():
            m[x, y] = m[y, x] = w
        return _outcome(g, cover, tree, range(g.n_vertices), m, s,
                        f"fallback:{note}", "search-fallback", {})
    raise FallbackBudgetError("fallback search stages exhausted without a labeling")


def construct_labeling(g: Graph, budget: int = DEFAULT_BUDGET) -> ConstructionOutcome:
    """Verified product-irregular labeling of a connected graph with clique
    cover number at most 3; strength 3 on every catalog shape."""
    if has_isolated_vertex_or_edge(g):
        raise ValueError("graph has an isolated vertex or isolated edge")
    if not is_connected(g):
        raise ValueError("graph must be connected")
    cover = clique_cover(g, 3)
    if cover is None:
        raise UnsupportedCoverError("clique cover number exceeds 3")
    return _label(g, cover, budget)
