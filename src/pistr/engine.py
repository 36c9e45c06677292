"""Constructive strength-3 labelings for connected graphs with clique cover
number at most 3.

The engine computes a minimum clique cover, picks cross edges forming a
spanning tree over the parts, and looks up the construction in one table,
_CATALOG, keyed by the sorted part sizes (and, for the "+2 edges" rows, the
middle part's size and the in-edge pattern). Each row gives its blocks and
cross entries; only the selected row's blocks are built, and the vertices
the cross entries name follow from the tree edges. Every surplus edge is
labeled 1, which leaves all product degrees unchanged. Shapes outside the
catalog go to a bounded exact search.

Three rows correct the published catalog, each marked where it stands in
the table and exhaustively verified in the test suite: (4,4,5) with in-edges
at two vertices of the size-5 middle, (4,6,7) and (6,6,7).

Fallback shapes (no catalog row): two parts with sizes summing to at most 6
or sizes (3,4); three parts with any size below 4, sizes (4,4,m) for m >= 6,
or sizes (4,6,6).
"""

from __future__ import annotations

import functools
import itertools
import sys
from collections.abc import Callable
from dataclasses import dataclass
from math import comb

import numpy as np

from .graphs import (CliqueCover, Edge, EdgeLabeling, Graph, clique_cover,
                     edge_key, has_isolated_vertex_or_edge, is_connected)
from .matrices import direct_sum, fixed_matrix, named_family, tilde_matrix
from .solver import DEFAULT_BUDGET, BudgetExhausted, Pinned, search_labelings
from .verifier import is_product_irregular

PATTERN_NONE = "none"
PATTERN_ONE_EDGE = "one_edge"
PATTERN_SAME = "two_edges_same_vertex"
PATTERN_DIFF = "two_edges_diff_vertices"

_FALLBACK_MAX_FREE_EDGES = 16
_FALLBACK_COMBO_CAP = 200
_FALLBACK_SEARCH_BUDGET = 10**7


class UnsupportedCoverError(ValueError):
    """The graph's clique cover number exceeds 3."""


class ConstructionError(RuntimeError):
    """A catalog construction failed verification (transcription bug)."""


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

    def link(self, pa: int, pb: int) -> tuple[int, int]:
        """The tree edge joining parts pa and pb, its endpoint in pa first."""
        if pa < pb:
            return self.links[(pa, pb)]
        v, u = self.links[(pb, pa)]
        return u, v


def _choose_tree(cover: CliqueCover) -> _Tree:
    """Spanning tree over the parts: the smallest cross edge of each chosen
    pair of parts, for three parts through the first part joined to both
    others. The parts are cliques, so the graph is connected exactly when
    such a tree exists."""
    by_pair: dict[tuple[int, int], tuple[int, int]] = {}
    for pi, pj, u, v in cover.cross_edges:
        key = (pi, pj)
        if key not in by_pair or edge_key(u, v) < edge_key(*by_pair[key]):
            by_pair[key] = (u, v)
    k = cover.n_parts
    if k == 1:
        return _Tree({}, PATTERN_NONE, None)
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
    """The first catalog row for these sorted sizes; a "+2 edges" row also
    needs its middle size and pattern, unless middle is None. Cached: the
    catalog is fixed."""
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
    search-found (3,4) row."""
    row = _lookup(tuple(sizes))
    if row is None or row.source != "theorem":
        return None
    return row.construction_id.split("/")[0]


def catalog_matrix(sizes: tuple[int, ...], middle: int | None = None,
                   pattern: str | None = None) -> np.ndarray:
    """The weighted adjacency matrix of the catalog row for sorted cover
    sizes: the row's blocks in its role order, each cross entry at its
    block-local positions. middle and pattern together pick a "+2 edges"
    row; without them the first row for the sizes is taken. ValueError if
    no row fits."""
    sizes = tuple(sizes)
    row = _lookup(sizes, middle, pattern)
    if row is None:
        raise ValueError(f"no catalog row for sizes {sizes}")
    orders = list(sizes)
    if row.middle is not None:
        orders.remove(row.middle)
        orders.insert(0, row.middle)
    m = direct_sum([make(n) for make, n in zip(row.blocks, orders)])
    offsets = np.cumsum([0, *orders])
    for a, i, b, j, w in row.cross:
        x, y = offsets[a] + i - 1, offsets[b] + j - 1
        m[x, y] = m[y, x] = w
    return m


@dataclass(frozen=True)
class _Plan:
    """A catalog row bound to the parts of one cover."""

    construction_id: str
    source: str
    blocks: list[tuple[int, np.ndarray]]
    cross: list[tuple[int, int, int, int, int]]  # (part_a, i, part_b, j, w)


def _plan(cover: CliqueCover, tree: _Tree) -> _Plan | None:
    """Bind the catalog row of this cover and tree to the cover's parts,
    building only that row's blocks; None for shapes without a row."""
    mid = tree.middle
    row = _lookup(cover.sizes, None if mid is None else cover.sizes[mid], tree.pattern)
    if row is None:
        return None
    roles = tuple(range(cover.n_parts))
    if row.middle is not None:
        roles = (mid, *(p for p in roles if p != mid))
    blocks = [(p, make(cover.sizes[p])) for p, make in zip(roles, row.blocks)]
    cross = [(roles[a], i, roles[b], j, w) for a, i, b, j, w in row.cross]
    return _Plan(row.construction_id, row.source, blocks, cross)


def _vertex_maps(cover: CliqueCover, tree: _Tree, plan: _Plan) -> dict[int, dict[int, int]]:
    """Align each part to its block: the tree edge endpoints go to the
    positions the cross entries name, the other vertices fill the free
    positions in part order."""
    pins: dict[int, dict[int, int]] = {p: {} for p, _ in plan.blocks}
    for pa, i, pb, j, _ in plan.cross:
        u, v = tree.link(pa, pb)
        pins[pa][u] = i
        pins[pb][v] = j
    maps = {}
    for part_idx, vmap in pins.items():
        taken = set(vmap.values())
        if len(taken) != len(vmap):
            raise ConstructionError(f"conflicting pins for part {part_idx}: {vmap}")
        part = cover.parts[part_idx]
        free_locals = (i for i in range(1, len(part) + 1) if i not in taken)
        for v in part:
            if v not in vmap:
                vmap[v] = next(free_locals)
        maps[part_idx] = vmap
    return maps


def _block_values(g: Graph, blocks) -> np.ndarray:
    """Labels aligned with g.ends from (vertices, matrix) blocks: an edge
    inside a block's vertices takes its entry, row and column i of the
    matrix standing for the i-th vertex; every other edge, and an edge on a
    zero entry, takes 1."""
    n = g.n_vertices
    owner = list(range(-1, -n - 1, -1))  # outside every block: its own
    row, col = [0] * n, [0] * n  # entry (x, y) is flat[row[x] + col[y]]
    flat = [np.zeros(1, dtype=np.int64)]  # flat[0]: the entry of no block
    start = 1
    for k, (verts, mat) in enumerate(blocks):
        size = len(verts)
        for i, x in enumerate(verts):
            owner[x], row[x], col[x] = k, start + i * size, i
        flat.append(mat.ravel())
        start += size * size
    u, v = g.ends
    owner, row, col = np.array((owner, row, col))
    at = (row[u] + col[v]) * (owner[u] == owner[v])
    return np.maximum(np.concatenate(flat)[at], 1)


def _labeling_from_plan(g: Graph, cover: CliqueCover, tree: _Tree,
                        plan: _Plan) -> tuple[EdgeLabeling, dict]:
    maps = _vertex_maps(cover, tree, plan)
    inv = {p: {i: v for v, i in m.items()} for p, m in maps.items()}
    values = _block_values(g, [([inv[p][i] for i in range(1, mat.shape[0] + 1)], mat)
                               for p, mat in plan.blocks])
    if plan.cross:
        pairs = [(inv[pa][i], inv[pb][j]) for pa, i, pb, j, _ in plan.cross]
        try:
            values[g.edge_index(pairs)] = [w for *_, w in plan.cross]
        except KeyError as exc:
            raise ConstructionError(
                f"cross entry {exc.args[0]} is not an edge of the graph") from None
    return EdgeLabeling._from_values(g, values, 3), maps


def label_cover(g: Graph, cover: CliqueCover,
                budget: int = DEFAULT_BUDGET) -> ConstructionOutcome:
    """The catalog construction for a connected graph and its clique cover
    of at most 3 parts, verified, or the bounded search for shapes without
    a row."""
    tree = _choose_tree(cover)
    plan = _plan(cover, tree)
    if plan is None:
        return _fallback(g, cover, tree, budget)
    labeling, maps = _labeling_from_plan(g, cover, tree, plan)
    report = is_product_irregular(labeling)
    if not report.ok:
        raise ConstructionError(
            f"construction {plan.construction_id} failed verification "
            f"(colliding vertices {report.witness})")
    case = DispatchCase(cover.sizes, tree.pattern, plan.construction_id, maps,
                        tree.edges)
    return ConstructionOutcome(labeling, 3, plan.source, case)


def _catalog(size: int) -> list[tuple[str, np.ndarray]]:
    """Standalone product-irregular block candidates for a fixed clique."""
    if size >= 7:
        return [(f"B{size}", named_family(size, "B")),
                (f"A{size}", named_family(size, "A")),
                (f"C{size}", named_family(size, "C"))]
    if size == 6:
        return ([(f"{w}6", named_family(6, w)) for w in "BAC"]
                + [(name, fixed_matrix(name)) for name in
                   ("T6", "T6_TILDE", "M666_BLOCK1", "M666_BLOCK2",
                    "M666_BLOCK3", "P6", "T6_MOD_567")])
    if size == 5:
        return ([(f"{w}5", named_family(5, w)) for w in "BAC"]
                + [(name, fixed_matrix(name)) for name in
                   ("T5", "T5_TILDE", "T5_TILDE_MOD_456")])
    if size == 4:
        return [(f"{w}4", named_family(4, w)) for w in "BAC"]
    raise ValueError(f"no catalog for size {size}")


def _row_products(mat: np.ndarray) -> list[int]:
    """The exact product of the nonzero entries of each row of mat."""
    products = [1] * len(mat)
    for w in np.unique(mat).tolist():
        if w > 1:
            counts = np.count_nonzero(mat == w, axis=1).tolist()
            products = [x * w**c for x, c in zip(products, counts)]
    return products


def _fallback(g: Graph, cover: CliqueCover, tree: _Tree,
              budget: int) -> ConstructionOutcome:
    """Bounded search for shapes without a catalog row.

    The search runs on the spanning graph: the parts plus the tree edges.
    Cliques too large to search are pinned to catalog blocks (largest first)
    until at most 16 of its edges remain free; those are exhausted at s = 3,
    then s = 4, over the first 200 block combinations. The search sees only
    the free edges and each vertex's product of pinned labels, worked out
    once per combination. Small shapes skip the pinning and are exhausted
    at increasing s directly.
    """
    by_size_desc = sorted(range(cover.n_parts), key=lambda p: -cover.sizes[p])
    to_fix: list[int] = []
    free_edges = len(tree.links) + sum(comb(size, 2) for size in cover.sizes)
    for p in by_size_desc:
        if free_edges <= _FALLBACK_MAX_FREE_EDGES:
            break
        if cover.sizes[p] < 4:
            break
        to_fix.append(p)
        free_edges -= comb(cover.sizes[p], 2)
    edges = set(tree.edges)
    for p, part in enumerate(cover.parts):
        if p not in to_fix:
            edges.update(itertools.combinations(sorted(part), 2))
    free = Graph(g.n_vertices, frozenset(edges))
    used = 0

    def try_search(s, fixed):
        nonlocal used
        try:
            sols, nodes = search_labelings(free, s, fixed=fixed,
                                           budget=min(budget - used,
                                                      _FALLBACK_SEARCH_BUDGET))
        except BudgetExhausted as exc:
            used += exc.args[0] if exc.args else 0
            if used >= budget:
                raise FallbackBudgetError(
                    f"fallback budget exhausted after {used} nodes") from None
            return None
        used += nodes
        return sols[0] if sols else None

    def outcome(found, s, note, blocks=()):
        values = _block_values(g, blocks)
        values[g.edge_index(list(found))] = list(found.values())
        labeling = EdgeLabeling._from_values(g, values, s)
        report = is_product_irregular(labeling)
        if not report.ok:
            raise ConstructionError(f"fallback produced an invalid labeling: {note}")
        case = DispatchCase(cover.sizes, tree.pattern, f"fallback:{note}", {},
                            tree.edges)
        return ConstructionOutcome(labeling, s, "search-fallback", case)

    if not to_fix:
        for s in range(1, max(3, g.n_vertices) + 1):
            found = try_search(s, {})
            if found is not None:
                return outcome(found, s, f"exhaustive(s={s})")
        raise FallbackBudgetError("no labeling found up to the strength cap")

    combos = list(itertools.islice(
        itertools.product(*[_catalog(cover.sizes[p]) for p in to_fix]),
        _FALLBACK_COMBO_CAP))
    pins: list[Pinned | None] = [None] * len(combos)
    rows: dict[tuple[int, str], list[int]] = {}  # (part, block) -> row products
    for s in (3, 4):
        for k, combo in enumerate(combos):
            if pins[k] is None:
                products, pinned = [1] * g.n_vertices, [False] * g.n_vertices
                for p, (name, mat) in zip(to_fix, combo):
                    if (p, name) not in rows:
                        rows[p, name] = _row_products(mat)
                    for v, product in zip(cover.parts[p], rows[p, name]):
                        products[v], pinned[v] = product, True
                pins[k] = Pinned(tuple(products), tuple(pinned))
            found = try_search(s, pins[k])
            if found is not None:
                note = f"fixed({','.join(name for name, _ in combo)}),s={s}"
                blocks = [(cover.parts[p], mat) for p, (_, mat) in zip(to_fix, combo)]
                return outcome(found, s, note, blocks)
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
    return label_cover(g, cover, budget)
