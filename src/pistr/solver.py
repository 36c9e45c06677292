"""Exact product irregularity strength by pruned depth-first search.

The search iterates strengths s = 1, 2, ... and for each s explores edge
labelings in an order that completes one vertex at a time, pruning as soon
as two finished vertices share a product degree. Disconnected graphs can
instead be solved per component: each component contributes the set of
product-degree multisets it can realize, and components are combined by
choosing pairwise-disjoint multisets.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .graphs import (Edge, EdgeLabeling, Graph, complete_graph,
                     connected_components, edge_key, has_isolated_vertex_or_edge,
                     induced_subgraph)
from .verifier import ProductDegree

DEFAULT_BUDGET = 10**9


class BudgetExhausted(Exception):
    """DFS node budget ran out before the search finished."""


@dataclass(frozen=True)
class PsResult:
    """Outcome of an exact strength computation.

    value is the exact strength when found, None when no labeling with
    strength <= s_max exists; budget_exhausted distinguishes a truncated
    search from a completed refutation.
    """

    value: int | None
    certificate: EdgeLabeling | None
    nodes_explored: int
    budget_exhausted: bool
    s_max: int

    @property
    def found(self) -> bool:
        return self.value is not None


@dataclass(frozen=True)
class ComponentSignature:
    """A realizable product-degree multiset of one component (all distinct),
    together with one labeling realizing it."""

    degrees: tuple[ProductDegree, ...]
    labeling: EdgeLabeling

    @property
    def degree_values(self) -> tuple[int, ...]:
        return tuple(d.value for d in self.degrees)


def edge_search_order(g: Graph, free_edges=None) -> list[Edge]:
    """Order edges so each vertex's incident edges appear consecutively,
    busiest vertices first; finishing vertices early maximizes pruning."""
    edges = set(g.edges if free_edges is None else free_edges)
    deg = [0] * g.n_vertices
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    vorder = sorted(range(g.n_vertices), key=lambda v: (-deg[v], v))
    pos = {v: i for i, v in enumerate(vorder)}
    order: list[Edge] = []
    seen: set[Edge] = set()
    for v in vorder:
        inc = sorted((e for e in edges if v in e),
                     key=lambda e: pos[e[1] if e[0] == v else e[0]])
        for e in inc:
            if e not in seen:
                seen.add(e)
                order.append(e)
    return order


@dataclass(frozen=True)
class Pinned:
    """Labels fixed outside a search, given by what the search needs of
    them: each vertex's product of fixed labels, and whether it has a fixed
    edge at all. The fixed edges themselves stay out of the search's graph."""

    products: tuple[int, ...]
    pinned: tuple[bool, ...]


def search_labelings(g: Graph, s: int, fixed: dict[Edge, int] | Pinned | None = None,
                     budget: int = DEFAULT_BUDGET, prune: bool = True,
                     collect_all: bool = False):
    """Core DFS over labelings of the free edges with labels 1..s.

    ``fixed`` maps edges of g to fixed labels, every other edge being free;
    or it is a Pinned, and every edge of g is free. Returns (solutions,
    nodes): with collect_all=False, solutions is a list holding at most one
    label map (first found); with collect_all=True it maps each realizable
    degree multiset (sorted value tuple over all vertices) to the first
    label map realizing it. A label map holds the free edges and the edges
    of a fixed dict. Raises BudgetExhausted when the node budget runs out.
    """
    n = g.n_vertices
    if isinstance(fixed, Pinned):
        free = edge_search_order(g)
        prod, pinned = list(fixed.products), fixed.pinned
        fixed = {}
    else:
        fixed = fixed or {}
        free = edge_search_order(g, g.edges.difference(fixed))
        prod = [1] * n
        pinned = [False] * n  # v has a fixed edge
        for (u, v), w in fixed.items():
            prod[u] *= w
            prod[v] *= w
            pinned[u] = pinned[v] = True
    rem = [0] * n
    for u, v in free:
        rem[u] += 1
        rem[v] += 1

    seen: set[int] = set()
    if prune:
        for v in range(n):
            if rem[v] == 0 and pinned[v]:  # every edge of v is fixed
                if prod[v] in seen:
                    return ({} if collect_all else []), 0
                seen.add(prod[v])

    # The free edges come in a fixed order, so whether an edge is the last
    # free edge of its endpoints is known before the search: step d is the
    # edge (a, b) at depth d and how many of a and b it finishes, a first
    # when it finishes one. Without pruning no step finishes a vertex.
    steps: list[tuple[int, int, int]] = []
    for u, v in free:
        rem[u] -= 1
        rem[v] -= 1
        finished = (rem[u] == 0) + (rem[v] == 0) if prune else 0
        steps.append((v, u, 1) if finished == 1 and rem[v] == 0 else (u, v, finished))
    depths = len(steps)
    weights = range(1, s + 1)
    assignment = [0] * depths
    nodes = 0
    found: list[dict[Edge, int]] = []
    sigs: dict[tuple[int, ...], dict[Edge, int]] = {}
    add, discard = seen.add, seen.discard

    def leaf() -> bool:
        if not prune and len(set(prod)) != n:
            return False
        labels = dict(fixed)
        labels.update(zip(free, assignment))
        if collect_all:
            sigs.setdefault(tuple(sorted(prod)), labels)
            return False
        found.append(labels)
        return True

    def walk(depth: int) -> bool:
        # One loop per kind of step. A finished vertex's product must be
        # new, and it stays in seen while the search is below this step.
        nonlocal nodes
        if depth == depths:
            return leaf()
        a, b, finished = steps[depth]
        pa0, pb0 = prod[a], prod[b]
        deeper = depth + 1
        if not finished:
            for w in weights:
                nodes += 1
                if nodes > budget:
                    raise BudgetExhausted
                prod[a], prod[b] = pa0 * w, pb0 * w
                assignment[depth] = w
                if walk(deeper):
                    return True
        elif finished == 1:
            for w in weights:
                nodes += 1
                if nodes > budget:
                    raise BudgetExhausted
                pa = pa0 * w
                if pa in seen:
                    continue
                prod[a], prod[b] = pa, pb0 * w
                add(pa)
                assignment[depth] = w
                if walk(deeper):
                    return True
                discard(pa)
        else:
            for w in weights:
                nodes += 1
                if nodes > budget:
                    raise BudgetExhausted
                pa, pb = pa0 * w, pb0 * w
                if pa in seen or pb in seen or pa == pb:
                    continue
                prod[a], prod[b] = pa, pb
                add(pa)
                add(pb)
                assignment[depth] = w
                if walk(deeper):
                    return True
                discard(pa)
                discard(pb)
        prod[a], prod[b] = pa0, pb0
        return False

    try:
        walk(0)
    except BudgetExhausted:
        raise BudgetExhausted(nodes)
    return (sigs if collect_all else found), nodes


def _check_searchable(g: Graph):
    if g.n_vertices < 2:
        raise ValueError("graph too small: product degrees need incident edges")
    if has_isolated_vertex_or_edge(g):
        raise ValueError("graph has an isolated vertex or isolated edge")


def ps_exact(g: Graph, s_max: int, budget: int = DEFAULT_BUDGET,
             prune: bool = True) -> PsResult:
    """Smallest s <= s_max admitting a product-irregular labeling of g."""
    _check_searchable(g)
    if s_max < 1:
        raise ValueError("s_max must be >= 1")
    total = 0
    for s in range(1, s_max + 1):
        try:
            found, nodes = search_labelings(g, s, budget=budget - total, prune=prune)
        except BudgetExhausted as exc:
            total += exc.args[0] if exc.args else 0
            return PsResult(None, None, total, True, s_max)
        total += nodes
        if found:
            cert = EdgeLabeling(g, found[0], s)
            return PsResult(s, cert, total, False, s_max)
    return PsResult(None, None, total, False, s_max)


def component_signatures(g_component: Graph, s: int,
                         budget: int = DEFAULT_BUDGET) -> list[ComponentSignature]:
    """All distinct internally-valid degree multisets of a connected graph
    with labels <= s, each with one representative labeling."""
    if g_component.n_vertices < 2:
        raise ValueError("component must have at least one edge")
    comps = connected_components(g_component)
    if len(comps) != 1:
        raise ValueError("component_signatures needs a connected graph")
    return _signatures(g_component, s, budget)[0]


def _signatures(g: Graph, s: int, budget: int) -> tuple[list[ComponentSignature], int]:
    """Every realizable degree multiset of g with labels <= s, in sorted
    order, each with its first labeling; and the search's node count."""
    sigs, nodes = search_labelings(g, s, budget=budget, collect_all=True)
    return [ComponentSignature(tuple(ProductDegree.from_value(v) for v in values),
                               EdgeLabeling(g, sigs[values], s))
            for values in sorted(sigs)], nodes


def _combine_signatures(per_component: list[list[tuple[int, int]]],
                        budget: int) -> tuple[list[int] | None, int]:
    """Pick one signature index per component with pairwise-disjoint supports.

    per_component holds (bitmask, index) pairs; components should be ordered
    by ascending set size. Failed partial masks are memoized per level, which
    makes refutation equivalent to level-by-level merging with deduplication.
    """
    k = len(per_component)
    failed: list[set[int]] = [set() for _ in range(k)]
    choice = [0] * k
    nodes = 0

    def pick(level: int, acc: int) -> bool:
        nonlocal nodes
        if level == k:
            return True
        if acc in failed[level]:
            return False
        for mask, idx in per_component[level]:
            nodes += 1
            if nodes > budget:
                raise BudgetExhausted(nodes)
            if mask & acc:
                continue
            choice[level] = idx
            if pick(level + 1, acc | mask):
                return True
        failed[level].add(acc)
        return False

    if pick(0, 0):
        return choice, nodes
    return None, nodes


def ps_exact_disconnected(g: Graph, s_max: int,
                          budget: int = DEFAULT_BUDGET) -> PsResult:
    """Exact strength via per-component signature sets; equivalent to
    ps_exact but far cheaper when components repeat (disjoint clique unions)."""
    _check_searchable(g)
    if s_max < 1:
        raise ValueError("s_max must be >= 1")
    comps = connected_components(g)
    subs = [induced_subgraph(g, c) for c in comps]
    cache: dict[tuple, list[ComponentSignature]] = {}
    total = 0
    for s in range(1, s_max + 1):
        sig_sets: list[list[ComponentSignature]] = []
        feasible = True
        try:
            for sub, _ in subs:
                key = (s, sub.n_vertices, sub.edges)
                if key not in cache:
                    cache[key], nodes = _signatures(sub, s, budget - total)
                    total += nodes
                sig_sets.append(cache[key])
                if not cache[key]:
                    feasible = False
                    break
            if not feasible:
                continue
            values = sorted({v for sigs in sig_sets
                             for sig in sigs for v in sig.degree_values})
            bit = {v: i for i, v in enumerate(values)}
            masked = []
            for sigs in sig_sets:
                entries = []
                for i, sig in enumerate(sigs):
                    m = 0
                    for v in sig.degree_values:
                        m |= 1 << bit[v]
                    entries.append((m, i))
                masked.append(entries)
            comp_order = sorted(range(len(subs)), key=lambda i: len(masked[i]))
            choice, nodes = _combine_signatures([masked[i] for i in comp_order],
                                                budget - total)
            total += nodes
        except BudgetExhausted as exc:
            total += exc.args[0] if exc.args else 0
            return PsResult(None, None, total, True, s_max)
        if choice is None:
            continue
        labels: dict[Edge, int] = {}
        for pos, comp_idx in enumerate(comp_order):
            sig = sig_sets[comp_idx][choice[pos]]
            old = subs[comp_idx][1]
            for (u, v), w in sig.labeling.labels.items():
                labels[edge_key(old[u], old[v])] = w
        cert = EdgeLabeling(g, labels, s)
        return PsResult(s, cert, total, False, s_max)
    return PsResult(None, None, total, False, s_max)


def verify_k4_characterization() -> bool:
    """Exhaust all 3^6 labelings of K_4 and test the characterization via
    the product degree 6 (the exponent pair (1,1)).

    The exact biconditional that holds is: a labeling is product-irregular
    iff exactly one vertex has product degree 6. The forward direction
    (irregular implies a degree-6 vertex exists) is what forces two disjoint
    K_4 blocks to collide at strength 3; the naive converse "a degree-6
    vertex exists implies irregular" is false on 186 of the 729 labelings.
    """
    k4 = complete_graph(4)
    edges = k4.sorted_edges()
    for labels in itertools.product((1, 2, 3), repeat=6):
        prod = [1, 1, 1, 1]
        for (u, v), w in zip(edges, labels):
            prod[u] *= w
            prod[v] *= w
        irregular = len(set(prod)) == 4
        if irregular != (prod.count(6) == 1):
            return False
    return True
