"""Constructive strength-3 labelings for connected graphs with clique cover
number at most 3.

The engine computes a minimum clique cover, picks cross edges forming a
spanning tree over the parts, and dispatches on the sorted part sizes and
the in-edge pattern of the middle part to a catalog construction; every
surplus edge is labeled 1, which leaves all product degrees unchanged.
Shapes outside the catalog go to a bounded exact/randomized search.

Catalog corrections (each exhaustively verified in the test suite):
  - sizes (4,4,5), middle clique of size 5 with in-edges at two different
    vertices: the second injection weight is 2, not 3 (weight 3 makes the
    first two rows of the size-5 block collide at degree 81).
  - sizes (4,6,7): B_4 + M666_BLOCK3 + B_7 (the A_4 + B_7 + T6_TILDE
    assignment collides at degree 72).
  - sizes (6,6,7): A_6 + M666_BLOCK3 + B_7 (T6 + T6_TILDE + B_7 collides
    at degree 72).

Fallback shapes (no catalog row): two parts with sizes summing to at most 6
or sizes (3,4); three parts with any size below 4, sizes (4,4,m) for m >= 6,
or sizes (4,6,6).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from math import comb

import numpy as np

from .graphs import (CliqueCover, Edge, EdgeLabeling, Graph, clique_cover,
                     edge_key, has_isolated_vertex_or_edge, is_connected)
from .matrices import fixed_matrix, named_family, tilde_matrix
from .solver import DEFAULT_BUDGET, BudgetExhausted, search_labelings
from .verifier import is_product_irregular

PATTERN_NONE = "none"
PATTERN_ONE_EDGE = "one_edge"
PATTERN_SAME = "two_edges_same_vertex"
PATTERN_DIFF = "two_edges_diff_vertices"

_FALLBACK_MAX_FREE_EDGES = 16
_FALLBACK_COMBO_CAP = 200
_FALLBACK_RESTARTS = 20
_FALLBACK_RESTART_BUDGET = 10**7


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


@dataclass(frozen=True)
class ConstructionOutcome:
    labeling: EdgeLabeling
    strength: int
    source: str  # "theorem" | "search-fallback"
    case_trace: DispatchCase


@dataclass(frozen=True)
class _Tree:
    """Chosen cross edges: a spanning tree over the cover parts."""

    edges: tuple[Edge, ...]
    pattern: str
    middle: int | None
    # per tree edge: (other_part, vertex_in_other, vertex_in_middle)
    branches: tuple[tuple[int, int, int], ...]


def _choose_tree(g: Graph, cover: CliqueCover) -> _Tree:
    if not is_connected(g):
        raise ValueError("graph must be connected")
    k = cover.n_parts
    if k == 1:
        return _Tree((), PATTERN_NONE, None, ())
    by_pair: dict[tuple[int, int], tuple[int, int]] = {}
    for pi, pj, u, v in cover.cross_edges:
        key = (pi, pj)
        if key not in by_pair or edge_key(u, v) < edge_key(*by_pair[key]):
            by_pair[key] = (u, v)
    if k == 2:
        u, v = by_pair[(0, 1)]
        return _Tree((edge_key(u, v),), PATTERN_ONE_EDGE, None, ())
    for mid in range(3):
        others = [o for o in range(3) if o != mid]
        keys = [tuple(sorted((mid, o))) for o in others]
        if all(key in by_pair for key in keys):
            branches = []
            edges = []
            for o, key in zip(others, keys):
                u, v = by_pair[key]
                if u in cover.parts[mid]:
                    v_mid, v_other = u, v
                else:
                    v_mid, v_other = v, u
                branches.append((o, v_other, v_mid))
                edges.append(edge_key(u, v))
            pattern = PATTERN_SAME if branches[0][2] == branches[1][2] else PATTERN_DIFF
            return _Tree(tuple(edges), pattern, mid, tuple(branches))
    raise ValueError("no spanning tree over the cover parts (graph disconnected?)")


def select_cross_edges(g: Graph, cover: CliqueCover) -> tuple[list[Edge], str]:
    """Deterministic cross-edge choice: one edge for two parts, a two-edge
    spanning tree for three; everything else is surplus."""
    if cover.n_parts not in (2, 3):
        raise ValueError("select_cross_edges needs a cover with 2 or 3 parts")
    tree = _choose_tree(g, cover)
    return list(tree.edges), tree.pattern


@dataclass
class _Plan:
    construction_id: str
    blocks: list[tuple[int, np.ndarray]]
    cross: list[tuple[int, int, int, int, int]]  # (part_a, i, part_b, j, w)
    pins: dict[int, dict[int, int]]


def _vertex_maps(cover: CliqueCover, plan: _Plan) -> dict[int, dict[int, int]]:
    maps = {}
    for part_idx, mat in plan.blocks:
        part = cover.parts[part_idx]
        pins = plan.pins.get(part_idx, {})
        if len(set(pins.values())) != len(pins):
            raise ConstructionError(f"conflicting pins for part {part_idx}: {pins}")
        taken = set(pins.values())
        free_locals = [i for i in range(1, len(part) + 1) if i not in taken]
        vmap = dict(pins)
        for v in part:
            if v not in vmap:
                vmap[v] = free_locals.pop(0)
        maps[part_idx] = vmap
    return maps


def _block_labels(verts: list[int], mat: np.ndarray, labels: dict[Edge, int]) -> None:
    """Write the nonzero upper-triangle entries of mat into labels; row and
    column i of mat stand for vertex verts[i]."""
    rows = mat.tolist()
    for i, u in enumerate(verts):
        for v, w in zip(verts[i + 1:], rows[i][i + 1:]):
            if w:
                labels[(u, v) if u < v else (v, u)] = w


def _labeling_from_plan(g: Graph, cover: CliqueCover, plan: _Plan) -> tuple[EdgeLabeling, dict]:
    maps = _vertex_maps(cover, plan)
    inv = {p: {i: v for v, i in m.items()} for p, m in maps.items()}
    labels: dict[Edge, int] = dict.fromkeys(g.edges, 1)
    for part_idx, mat in plan.blocks:
        local = inv[part_idx]
        _block_labels([local[i] for i in range(1, mat.shape[0] + 1)], mat, labels)
    for pa, i, pb, j, w in plan.cross:
        e = edge_key(inv[pa][i], inv[pb][j])
        if e not in g.edges:
            raise ConstructionError(f"cross entry {e} is not an edge of the graph")
        labels[e] = w
    return EdgeLabeling(g, labels, 3), maps


def _finish(g: Graph, cover: CliqueCover, tree: _Tree, plan: _Plan,
            source: str) -> ConstructionOutcome:
    labeling, maps = _labeling_from_plan(g, cover, plan)
    report = is_product_irregular(labeling)
    if not report.ok:
        raise ConstructionError(
            f"construction {plan.construction_id} failed verification "
            f"(colliding vertices {report.witness})")
    case = DispatchCase(cover.sizes, tree.pattern, plan.construction_id, maps)
    return ConstructionOutcome(labeling, 3, source, case)


def two_clique_theorem_id(sizes: tuple[int, int]) -> str | None:
    """Catalog row for a 2-part cover, or None for the fallback shapes
    {(1,1),(1,2),(1,3),(2,2),(2,3),(3,3),(3,4)}."""
    a, b = sizes
    if a >= 4:
        if sizes == (4, 4):
            return "K44_edge"
        if sizes == (5, 5):
            return "T5+T5_tilde"
        if sizes == (6, 6):
            return "T6+T6_tilde"
        return "A+B"
    if a == 3 and b >= 5:
        return "T+B"
    if a == 2 and b >= 4:
        return "L"
    if a == 1 and b >= 4:
        return "L_k1"
    return None


# Product-irregular 3-labeling of two cliques of sizes 3 and 4 joined by one
# edge (block-local position 3 to position 1, weight 2); found by exhausting
# all 3^10 labelings and frozen here for deterministic dispatch.
_K34_BLOCK3 = np.array([[0, 1, 1], [1, 0, 2], [1, 2, 0]], dtype=np.int64)
_K34_BLOCK4 = np.array([[0, 1, 2, 2], [1, 0, 1, 3], [2, 1, 0, 3], [2, 3, 3, 0]],
                       dtype=np.int64)


def _two_clique_plan(cover: CliqueCover, tree: _Tree) -> _Plan | None:
    a, b = cover.sizes
    case_id = two_clique_theorem_id((a, b))
    u, v = tree.edges[0]
    if v in cover.parts[0]:
        u, v = v, u  # u in the small part, v in the big one
    if case_id == "A+B":
        return _Plan("A+B", [(0, named_family(a, "A")), (1, named_family(b, "B"))], [], {})
    if case_id == "T5+T5_tilde":
        return _Plan(case_id, [(0, fixed_matrix("T5")), (1, fixed_matrix("T5_TILDE"))], [], {})
    if case_id == "T6+T6_tilde":
        return _Plan(case_id, [(0, fixed_matrix("T6")), (1, fixed_matrix("T6_TILDE"))], [], {})
    if case_id == "K44_edge":
        k44 = fixed_matrix("K44_EDGE_8x8")
        return _Plan(case_id, [(0, k44[:4, :4]), (1, k44[4:, 4:])],
                     [(0, 4, 1, 1, 3)], {0: {u: 4}, 1: {v: 1}})
    if case_id == "T+B":
        return _Plan(case_id, [(0, fixed_matrix("T")), (1, named_family(b, "B"))], [], {})
    if case_id == "L":
        two = np.array([[0, 1], [1, 0]], dtype=np.int64)
        return _Plan(case_id, [(0, two), (1, named_family(b, "B"))],
                     [(0, 1, 1, 1, 3)], {0: {u: 1}, 1: {v: 1}})
    if case_id == "L_k1":
        one = np.zeros((1, 1), dtype=np.int64)
        return _Plan(case_id, [(0, one), (1, named_family(b, "B"))],
                     [(0, 1, 1, 1, 3)], {0: {u: 1}, 1: {v: 1}})
    if (a, b) == (3, 4):
        return _Plan("K34_edge_cached", [(0, _K34_BLOCK3), (1, _K34_BLOCK4)],
                     [(0, 3, 1, 1, 2)], {0: {u: 3}, 1: {v: 1}})
    return None


def label_two_cliques(g: Graph, cover: CliqueCover, seed: int = 0,
                      budget: int = DEFAULT_BUDGET) -> ConstructionOutcome:
    """Strength-3 labeling for a connected graph covered by two cliques;
    shapes with total order <= 6 go to the bounded search fallback."""
    if cover.n_parts != 2:
        raise ValueError("label_two_cliques needs a 2-part cover")
    tree = _choose_tree(g, cover)
    plan = _two_clique_plan(cover, tree)
    if plan is None:
        return _fallback(g, cover, tree, seed, budget)
    source = "search-fallback" if plan.construction_id == "K34_edge_cached" else "theorem"
    return _finish(g, cover, tree, plan, source)


def three_clique_theorem_id(sizes: tuple[int, int, int]) -> str | None:
    """Catalog row for sorted 3-part sizes, or None for the fallback shapes
    (any size < 4, (4,4,m>=6), (4,6,6))."""
    s1, s2, s3 = sizes
    if s1 < 4:
        return None
    exact = {
        (6, 6, 6): "M666",
        (5, 6, 6): "M666_minus_row1",
        (6, 6, 7): "A6+M666_3+B7",
        (4, 6, 7): "B4+M666_3+B7",
        (4, 5, 6): "A4+T5_tilde_mod+B6",
        (5, 5, 6): "T5+T5_tilde+P6",
        (5, 5, 5): "tilde_555",
        (4, 5, 5): "tilde_455",
        (4, 4, 5): "tilde_445",
        (4, 4, 4): "tilde_444",
        (4, 6, 6): None,
    }
    if sizes in exact:
        return exact[sizes]
    if s1 >= 7:
        return "A+C+B"
    if s2 >= 7:
        return "C_small+A+B"
    if (s1, s2) == (6, 6):
        return "T6+T6_tilde+B"
    if (s1, s2) == (5, 6):
        return "T5+T6_mod+B"
    if (s1, s2) == (5, 5):
        return "T5+T5_tilde+B"
    if (s1, s2) == (4, 6):
        return "A4+B6+B"
    if (s1, s2) == (4, 5):
        return "A4+T5_tilde+B"
    return None  # (4, 4, m >= 6)


def _three_clique_direct_plan(sizes, case_id) -> _Plan | None:
    s1, s2, s3 = sizes
    A, B, C = (lambda n, w=w: named_family(n, w) for w in "ABC")
    F = fixed_matrix
    # Rows are thunks, so a call builds only the selected row's matrices.
    rows = {
        "A+C+B": lambda: [A(s1), C(s2), B(s3)],
        "C_small+A+B": lambda: [C(s1), A(s2), B(s3)],
        "T6+T6_tilde+B": lambda: [F("T6"), F("T6_TILDE"), B(s3)],
        "A6+M666_3+B7": lambda: [A(6), F("M666_BLOCK3"), B(7)],
        "T5+T6_mod+B": lambda: [F("T5"), F("T6_MOD_567"), B(s3)],
        "T5+T5_tilde+B": lambda: [F("T5"), F("T5_TILDE"), B(s3)],
        "T5+T5_tilde+P6": lambda: [F("T5"), F("T5_TILDE"), F("P6")],
        "A4+B6+B": lambda: [A(4), B(6), B(s3)],
        "B4+M666_3+B7": lambda: [B(4), F("M666_BLOCK3"), B(7)],
        "A4+T5_tilde+B": lambda: [A(4), F("T5_TILDE"), B(s3)],
        "A4+T5_tilde_mod+B6": lambda: [A(4), F("T5_TILDE_MOD_456"), B(6)],
        "M666": lambda: [F("M666_BLOCK1"), F("M666_BLOCK2"), F("M666_BLOCK3")],
        "M666_minus_row1": lambda: [F("M666_BLOCK1")[1:, 1:], F("M666_BLOCK2"),
                                    F("M666_BLOCK3")],
    }
    row = rows.get(case_id)
    if row is None:
        return None
    return _Plan(case_id, list(enumerate(row())), [], {})


def _three_clique_injection_plan(cover: CliqueCover, tree: _Tree,
                                 case_id: str) -> _Plan:
    """The +2edges constructions: tilde direct sums plus two weighted cross
    entries, with clique roles permuted so the middle clique plays the block
    the case requires."""
    sizes = cover.sizes
    mid = tree.middle
    same = tree.pattern == PATTERN_SAME
    branches = {o: (v_other, v_mid) for o, v_other, v_mid in tree.branches}
    outers = sorted(branches)
    mid_size = sizes[mid]
    tag = "same_vertex" if same else "diff_vertices"

    def plan(blocks, cross, pins):
        return _Plan(f"{case_id}/{tag}", blocks, cross, pins)

    if case_id == "tilde_555":
        oa, oc = outers
        va, vma = branches[oa]
        vc, vmc = branches[oc]
        blocks = [(oa, tilde_matrix(5, "A")), (mid, tilde_matrix(5, "B")),
                  (oc, tilde_matrix(5, "C"))]
        if same:
            return plan(blocks, [(oa, 3, mid, 3, 3), (mid, 3, oc, 3, 2)],
                        {oa: {va: 3}, mid: {vma: 3}, oc: {vc: 3}})
        return plan(blocks, [(oa, 3, mid, 3, 3), (mid, 1, oc, 3, 2)],
                    {oa: {va: 3}, mid: {vma: 3, vmc: 1}, oc: {vc: 3}})

    if case_id == "tilde_455":
        if mid_size == 5:
            oa = min(o for o in outers if sizes[o] == 4)
            oc = next(o for o in outers if o != oa)
            va, vma = branches[oa]
            vc, vmc = branches[oc]
            blocks = [(oa, tilde_matrix(4, "A")), (mid, tilde_matrix(5, "B")),
                      (oc, tilde_matrix(5, "C"))]
            if same:
                return plan(blocks, [(oa, 2, mid, 3, 3), (mid, 3, oc, 3, 2)],
                            {oa: {va: 2}, mid: {vma: 3}, oc: {vc: 3}})
            return plan(blocks, [(oa, 3, mid, 3, 3), (mid, 1, oc, 3, 2)],
                        {oa: {va: 3}, mid: {vma: 3, vmc: 1}, oc: {vc: 3}})
        ob, oc = outers  # middle has size 4, both outers size 5
        vb, vmb = branches[ob]
        vc, vmc = branches[oc]
        blocks = [(mid, tilde_matrix(4, "A")), (ob, tilde_matrix(5, "B")),
                  (oc, tilde_matrix(5, "C"))]
        if same:
            return plan(blocks, [(mid, 2, ob, 3, 2), (mid, 2, oc, 3, 2)],
                        {mid: {vmb: 2}, ob: {vb: 3}, oc: {vc: 3}})
        return plan(blocks, [(mid, 2, ob, 3, 2), (mid, 4, oc, 3, 2)],
                    {mid: {vmb: 2, vmc: 4}, ob: {vb: 3}, oc: {vc: 3}})

    if case_id == "tilde_445":
        if mid_size == 5:
            oa, ob = outers  # both size 4
            va, vma = branches[oa]
            vb, vmb = branches[ob]
            if same:
                blocks = [(oa, tilde_matrix(4, "A")), (mid, tilde_matrix(5, "B")),
                          (ob, tilde_matrix(4, "C"))]
                return plan(blocks, [(oa, 2, mid, 3, 3), (mid, 3, ob, 2, 2)],
                            {oa: {va: 2}, mid: {vma: 3}, ob: {vb: 2}})
            # Role swap: the size-5 middle plays the C block; the second
            # injection weight is 2 (weight 3 fails verification).
            blocks = [(oa, tilde_matrix(4, "A")), (ob, tilde_matrix(4, "B")),
                      (mid, tilde_matrix(5, "C"))]
            return plan(blocks, [(oa, 2, mid, 3, 3), (ob, 2, mid, 2, 2)],
                        {oa: {va: 2}, ob: {vb: 2}, mid: {vma: 3, vmb: 2}})
        oa = min(o for o in outers if sizes[o] == 4)
        ob = next(o for o in outers if o != oa)
        va, vma = branches[oa]
        vb, vmb = branches[ob]
        blocks = [(oa, tilde_matrix(4, "A")), (ob, tilde_matrix(5, "B")),
                  (mid, tilde_matrix(4, "C"))]
        if same:
            return plan(blocks, [(oa, 2, mid, 2, 3), (ob, 3, mid, 2, 3)],
                        {oa: {va: 2}, ob: {vb: 3}, mid: {vma: 2}})
        return plan(blocks, [(oa, 2, mid, 2, 3), (ob, 3, mid, 1, 3)],
                    {oa: {va: 2}, ob: {vb: 3}, mid: {vma: 2, vmb: 1}})

    if case_id == "tilde_444":
        oa, ob = outers
        va, vma = branches[oa]
        vb, vmb = branches[ob]
        blocks = [(oa, tilde_matrix(4, "A")), (ob, tilde_matrix(4, "B")),
                  (mid, tilde_matrix(4, "C"))]
        if same:
            return plan(blocks, [(oa, 2, mid, 2, 3), (ob, 3, mid, 2, 3)],
                        {oa: {va: 2}, ob: {vb: 3}, mid: {vma: 2}})
        return plan(blocks, [(oa, 2, mid, 2, 3), (ob, 3, mid, 1, 3)],
                    {oa: {va: 2}, ob: {vb: 3}, mid: {vma: 2, vmb: 1}})

    raise ConstructionError(f"unknown injection case {case_id}")


def label_three_cliques(g: Graph, cover: CliqueCover, seed: int = 0,
                        budget: int = DEFAULT_BUDGET) -> ConstructionOutcome:
    """Strength-3 labeling for a connected graph covered by three cliques;
    residual shapes go to the bounded search fallback."""
    if cover.n_parts != 3:
        raise ValueError("label_three_cliques needs a 3-part cover")
    tree = _choose_tree(g, cover)
    case_id = three_clique_theorem_id(cover.sizes)
    if case_id is None:
        return _fallback(g, cover, tree, seed, budget)
    if case_id.startswith("tilde_"):
        plan = _three_clique_injection_plan(cover, tree, case_id)
    else:
        plan = _three_clique_direct_plan(cover.sizes, case_id)
    return _finish(g, cover, tree, plan, "theorem")


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


def _spanning_graph(g: Graph, cover: CliqueCover, tree: _Tree) -> Graph:
    edges = set(tree.edges)
    for part in cover.parts:
        verts = sorted(part)
        for i, u in enumerate(verts):
            for v in verts[i + 1:]:
                edges.add(edge_key(u, v))
    return Graph(g.n_vertices, frozenset(edges))


def _fixed_labels_for(cover: CliqueCover, part_idx: int, mat: np.ndarray,
                      order: list[int] | None = None) -> dict[Edge, int]:
    labels: dict[Edge, int] = {}
    _block_labels(list(cover.parts[part_idx]) if order is None else order, mat, labels)
    return labels


def _fallback(g: Graph, cover: CliqueCover, tree: _Tree, seed: int,
              budget: int) -> ConstructionOutcome:
    """Bounded search for shapes without a catalog row.

    Cliques too large to search are pinned to catalog blocks (largest first)
    until at most 16 edges remain free; those are exhausted at s = 3, then
    s = 4, over every block combination. Small shapes skip the pinning and
    are exhausted at increasing s directly. A randomized stage (label order
    and block orientation drawn from the seed) is the last resort.
    """
    spanning = _spanning_graph(g, cover, tree)
    by_size_desc = sorted(range(cover.n_parts), key=lambda p: -cover.sizes[p])
    to_fix: list[int] = []
    free_edges = spanning.n_edges
    for p in by_size_desc:
        if free_edges <= _FALLBACK_MAX_FREE_EDGES:
            break
        if cover.sizes[p] < 4:
            break
        to_fix.append(p)
        free_edges -= comb(cover.sizes[p], 2)
    used = 0

    def try_search(s, fixed, label_orders=None):
        nonlocal used
        try:
            sols, nodes = search_labelings(spanning, s, fixed=fixed,
                                           budget=min(budget - used,
                                                      _FALLBACK_RESTART_BUDGET),
                                           label_orders=label_orders)
        except BudgetExhausted as exc:
            used += exc.args[0] if exc.args else 0
            if used >= budget:
                raise FallbackBudgetError(
                    f"fallback budget exhausted after {used} nodes") from None
            return None
        used += nodes
        return sols[0] if sols else None

    def outcome(found, s, note):
        labels = dict.fromkeys(g.edges, 1)
        labels.update(found)
        labeling = EdgeLabeling(g, labels, s)
        report = is_product_irregular(labeling)
        if not report.ok:
            raise ConstructionError(f"fallback produced an invalid labeling: {note}")
        case = DispatchCase(cover.sizes, tree.pattern, f"fallback:{note}", {})
        return ConstructionOutcome(labeling, s, "search-fallback", case)

    if not to_fix:
        for s in range(1, max(3, g.n_vertices) + 1):
            found = try_search(s, {})
            if found is not None:
                return outcome(found, s, f"exhaustive(s={s})")
        raise FallbackBudgetError("no labeling found up to the strength cap")

    combos = itertools.islice(
        itertools.product(*[_catalog(cover.sizes[p]) for p in to_fix]),
        _FALLBACK_COMBO_CAP)
    combo_list = list(combos)
    for s in (3, 4):
        for combo in combo_list:
            fixed = {}
            for p, (name, mat) in zip(to_fix, combo):
                fixed.update(_fixed_labels_for(cover, p, mat))
            found = try_search(s, fixed)
            if found is not None:
                note = f"fixed({','.join(name for name, _ in combo)}),s={s}"
                return outcome(found, s, note)
    rng = random.Random(seed)
    for _ in range(_FALLBACK_RESTARTS):
        combo = [rng.choice(_catalog(cover.sizes[p])) for p in to_fix]
        fixed = {}
        for p, (name, mat) in zip(to_fix, combo):
            order = list(cover.parts[p])
            rng.shuffle(order)
            fixed.update(_fixed_labels_for(cover, p, mat, order))
        n_free = spanning.n_edges - len(fixed)
        s = rng.choice((3, 4))
        orders = [rng.sample(range(1, s + 1), s) for _ in range(n_free)]
        found = try_search(s, fixed, label_orders=orders)
        if found is not None:
            note = f"randomized({','.join(name for name, _ in combo)}),s={s}"
            return outcome(found, s, note)
    raise FallbackBudgetError("fallback search stages exhausted without a labeling")


def construct_labeling(g: Graph, seed: int = 0,
                       budget: int = DEFAULT_BUDGET) -> ConstructionOutcome:
    """Verified product-irregular labeling of a connected graph with clique
    cover number at most 3; strength 3 on every catalog shape."""
    if has_isolated_vertex_or_edge(g):
        raise ValueError("graph has an isolated vertex or isolated edge")
    if not is_connected(g):
        raise ValueError("graph must be connected")
    cover = clique_cover(g, 3)
    if cover is None:
        raise UnsupportedCoverError("clique cover number exceeds 3")
    if cover.n_parts == 1:
        n = g.n_vertices
        tree = _Tree((), PATTERN_NONE, None, ())
        if n >= 4:
            plan = _Plan("A_single", [(0, named_family(n, "A"))], [], {})
        elif n == 3:
            plan = _Plan("T_single", [(0, fixed_matrix("T"))], [], {})
        else:
            raise ValueError("graph too small")  # excluded by the checks above
        return _finish(g, cover, tree, plan, "theorem")
    if cover.n_parts == 2:
        return label_two_cliques(g, cover, seed=seed, budget=budget)
    return label_three_cliques(g, cover, seed=seed, budget=budget)
