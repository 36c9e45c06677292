"""Exact product irregularity strength by pruned depth-first search.

The search iterates strengths s = 1, 2, ... and for each s explores edge
labelings in an order that completes one vertex at a time, pruning as soon
as two finished vertices share a product degree.

At s <= 2 no graph with an edge has a labeling (two vertices of equal
degree in the graph of edges labeled 2 share a product), so those levels
only count nodes. With no fixed products and pruning on, the count is one
forward pass over the depths (_frontier_count): each distinct state (the
exponents of the vertices' products, the seen exponents) with the number
of paths that reach it, node for node the walk's count. The widest depth
of K5 to K9 holds 72, 450, 2,588, 18,540 and 144,334 states; K8's s = 2
count (21,908,526 nodes) takes 35 to 50 ms on 2 CPUs under Python 3.11.
A depth wider than FRONTIER_CAP states stops the pass, and the count
starts again from zero on a memo of refuted subtrees (_refuted_count), so
K9 and larger cliques take the memo and memory stays bounded.

From s = 3 on, with no fixed products and pruning on, the search breaks
the symmetry of closed twins (vertices with equal closed neighbourhoods):
swapping two of them maps labelings to labelings, so each twin class may
be required to finish with increasing products, in the order the search
finishes them. This is a lex-leader constraint (Crawford et al., KR 1996);
it loses no labeling up to that swap and no degree multiset of collect
mode. It cuts K4+K4 from 83,541 to 3,564 nodes, and K6's collection at
s = 3 from 13M to 1.5M. Searches with fixed products (the engine's) and
prune=False, the unbroken oracle, do not apply it. Before each level
s >= 3, a degree count refutes s with no search when more vertices have
degree <= k than there are products of k labels from 1..s.

Disconnected graphs can instead be solved one component at a time
(ps_exact_disconnected), in one loop over levels, one per component,
fewest edges first. A shape that occurs more than once is collected: the
product-degree multisets it can realize are listed once per strength,
and each of its levels picks one that shares no value with the levels
above. A shape that occurs once is searched against the values those
levels took, in collect mode, or in find mode at the last level. Each
level remembers the sets of taken values it failed with. K6+K3 takes 113
nodes this way, where collecting K6 took 1,488,325; eight triangles still
cost what collecting them did.
"""

from __future__ import annotations

import collections
import itertools
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property

from .graphs import (Edge, EdgeLabeling, Graph, closed_twin_classes, complete_graph,
                     component_subgraphs, edge_key, has_isolated_vertex_or_edge,
                     is_connected)
from .verifier import ProductDegree

DEFAULT_BUDGET = 10**9
# Most distinct states a depth of _frontier_count may hold; past it the
# s <= 2 count goes to the memo (K8's widest depth holds 18,540, K9's
# 144,334).
FRONTIER_CAP = 2**16


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


def edge_search_order(g: Graph) -> list[Edge]:
    """Order edges so each vertex's incident edges appear consecutively,
    busiest vertices first; finishing vertices early maximizes pruning.
    An edge comes at the first of its ends in that vertex order, and there
    by the place of its other end: one sort of the edges."""
    deg = [0] * g.n_vertices
    for u, v in g.edges:
        deg[u] += 1
        deg[v] += 1
    vorder = sorted(range(g.n_vertices), key=lambda v: (-deg[v], v))
    pos = {v: i for i, v in enumerate(vorder)}

    def place(e: Edge) -> tuple[int, int]:
        a, b = pos[e[0]], pos[e[1]]
        return (a, b) if a < b else (b, a)

    return sorted(g.edges, key=place)


@dataclass(frozen=True)
class SearchPlan:
    """What a search of one graph needs at every strength and every set of
    fixed products: its edges in search order, each depth's step, and the
    vertices with no edge in it.

    Step d is the edge (a, b) at depth d and how many of a and b it
    finishes (takes their last edge), a first when it finishes one. The
    free edges come in a fixed order, so that is known before the search.
    """

    n_vertices: int
    edges: tuple[Edge, ...]
    steps: tuple[tuple[int, int, int], ...]
    idle: tuple[int, ...]

    @classmethod
    def of(cls, g: Graph) -> "SearchPlan":
        order = edge_search_order(g)
        rem = [0] * g.n_vertices
        for u, v in order:
            rem[u] += 1
            rem[v] += 1
        idle = tuple(v for v in range(g.n_vertices) if not rem[v])
        steps = []
        for u, v in order:
            rem[u] -= 1
            rem[v] -= 1
            finished = (rem[u] == 0) + (rem[v] == 0)
            steps.append((v, u, 1) if finished == 1 and rem[v] == 0 else (u, v, finished))
        return cls(g.n_vertices, tuple(order), tuple(steps), idle)

    @cached_property
    def twins(self) -> tuple[tuple[tuple[int, int, int], ...], tuple]:
        """The steps and twin bounds of a search with no fixed products,
        where closed twins (graphs.closed_twin_classes) finish with
        increasing products in the order they finish, a before b within a
        step; computed on first use, so searches with fixed products never
        pay for it.

        A step that finishes a vertex after an earlier twin has kind 3
        (finishes one) or 4 (finishes two) in place of 1 or 2, and the
        bound at its depth names that twin: a vertex for kind 3, the pair
        (twin of a, twin of b) for kind 4, None where a vertex has no
        earlier twin. Every other depth holds its step and None.
        """
        twin_class = {v: i for i, c in enumerate(closed_twin_classes(self.n_vertices, self.edges))
                      for v in c}
        last: dict[int, int] = {}  # per class, its vertex that finished last so far

        def after(v: int) -> int | None:
            # v finishes now: its twin that finished last before it
            i = twin_class.get(v)
            if i is None:
                return None
            t = last.get(i)
            last[i] = v
            return t

        steps, bounds = [], []
        for a, b, finished in self.steps:
            bound = None
            if finished == 1:
                bound = after(a)
            elif finished == 2:
                bound = (after(a), after(b))
                if bound == (None, None):
                    bound = None
            steps.append((a, b, finished + 2 if bound is not None else finished))
            bounds.append(bound)
        return tuple(steps), tuple(bounds)


def search_labelings(g: Graph | SearchPlan, s: int, products: list[int] | None = None,
                     budget: int = DEFAULT_BUDGET, prune: bool = True,
                     collect_all: bool = False, taken: Iterable[int] = ()):
    """Core DFS over labelings of the edges of g with labels 1..s.

    g may be given as its SearchPlan, so that calls on one graph build it
    once.
    ``products`` holds each vertex's product of labels fixed outside g; a
    vertex with no edge in g is then finished before the search. Returns
    (solutions, nodes): with collect_all=False, solutions is a list holding
    at most one label map of g's edges (first found); with collect_all=True
    it is a dict from each realizable degree multiset (sorted value tuple
    over all vertices) to the first label tuple that realizes it, in the
    order of the plan's edges.

    ``taken`` holds products already used outside g: with pruning on, no
    vertex of g may finish with one of them. It seeds the set of seen
    products, so a labeling found or collected avoids them.

    A node is one label tried at one edge. Each loop over the labels of an
    edge counts its tries when it ends: s, or w when label w leads to a
    labeling. The budget is checked there, so a search whose count passes
    the budget raises BudgetExhausted(budget + 1), the count at which a
    check on every try would have stopped, after at most depth x s more
    tries than that check would have made.

    At s <= 2 no labeling of a graph with an edge exists. With
    1 <= s <= 2, no products, nothing taken, pruning on and at least one
    edge, the count is computed, not walked: by _frontier_count, or by
    _refuted_count when a depth holds more than FRONTIER_CAP states.

    With no products and pruning on, the walk takes the plan's twins:
    a vertex that finishes after one of its closed twins must take a
    larger product than that twin. Labels below the bound count as tried,
    so the count is that of a search testing the rule at every label.
    Collect mode still finds every multiset; the label tuple kept for one
    may be another than the unbroken search's first.
    """
    plan = g if isinstance(g, SearchPlan) else SearchPlan.of(g)
    n, order, steps = plan.n_vertices, plan.edges, plan.steps
    budget = max(budget, 0)  # a negative budget stops where 0 does
    seen = set(taken)
    if 1 <= s <= 2 and products is None and prune and order and not seen:
        nodes = _frontier_count(plan, s, budget)
        if nodes is None:  # a depth held more than FRONTIER_CAP states
            nodes = _refuted_count(plan, s, budget)
        return ({} if collect_all else []), nodes
    bounds = None  # per depth, the twins that kinds 3 and 4 must pass
    if not prune:  # no step finishes a vertex
        steps = tuple((a, b, 0) for a, b, _ in steps)
    elif products is None:  # closed twins finish with increasing products
        steps, bounds = plan.twins
    prod = [1] * n if products is None else list(products)
    if prune and products is not None:
        for v in plan.idle:  # every edge of v is fixed outside g
            if prod[v] in seen:
                return ({} if collect_all else []), 0
            seen.add(prod[v])

    depths = len(steps)
    weights = range(1, s + 1)
    assignment = [0] * depths
    nodes = 0
    found: list[dict[Edge, int]] = []
    sigs: dict[tuple[int, ...], tuple[int, ...]] = {}
    add, discard = seen.add, seen.discard

    def leaf() -> bool:
        if not prune and len(set(prod)) != n:
            return False
        if collect_all:
            key = tuple(sorted(prod))
            if key not in sigs:
                sigs[key] = tuple(assignment)
            return False
        found.append(dict(zip(order, assignment)))
        return True

    def walk(depth: int, steps=steps, prod=prod, seen=seen, add=add, discard=discard,
             assignment=assignment, weights=weights) -> bool:
        # One loop per kind of step. A finished vertex's product must be
        # new, and it stays in seen while the search is below this step.
        # A step finishing two vertices of equal products fails at every
        # label without a loop. Kinds 3 and 4 are 1 and 2 with a twin
        # bound: the finished vertex's product must pass its earlier twin's,
        # so the loop starts at the first label above it; the labels below
        # are counted as tried. The defaults make the search's state fast
        # locals.
        nonlocal nodes
        if depth == depths:
            return leaf()
        a, b, finished = steps[depth]
        pa0, pb0 = prod[a], prod[b]
        deeper = depth + 1
        if not finished:
            for w in weights:
                prod[a], prod[b] = pa0 * w, pb0 * w
                assignment[depth] = w
                if walk(deeper):
                    return True
        elif finished == 1:
            for w in weights:
                pa = pa0 * w
                if pa in seen:
                    continue
                prod[a], prod[b] = pa, pb0 * w
                add(pa)
                assignment[depth] = w
                if walk(deeper):
                    return True
                discard(pa)
        elif finished == 3:
            for w in range(prod[bounds[depth]] // pa0 + 1, s + 1):
                pa = pa0 * w
                if pa in seen:
                    continue
                prod[a], prod[b] = pa, pb0 * w
                add(pa)
                assignment[depth] = w
                if walk(deeper):
                    return True
                discard(pa)
        else:  # finishes two: 2, or 4 with a twin bound on a, on b or on both
            if finished == 2:
                labels = weights if pa0 != pb0 else ()
            else:
                ta, tb = bounds[depth]
                low = 0 if ta is None else prod[ta] // pa0
                if tb == a:  # b finishes after its twin a: above a at every label
                    ok = pa0 < pb0
                else:
                    ok = pa0 != pb0
                    if tb is not None:
                        low = max(low, prod[tb] // pb0)
                labels = range(low + 1, s + 1) if ok else ()
            for w in labels:
                pa, pb = pa0 * w, pb0 * w
                if pa in seen or pb in seen:
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
        nodes += s
        if nodes > budget:
            raise BudgetExhausted(budget + 1)
        return False

    if walk(0):
        # the loops on the path to the labeling tried labels 1..w each
        nodes += sum(assignment)
        if nodes > budget:
            raise BudgetExhausted(budget + 1)
    return (sigs if collect_all else found), nodes


def _frontier_count(plan: SearchPlan, s: int, budget: int) -> int | None:
    """search_labelings' node count on plan at 1 <= s <= 2 with no
    products, by one pass over the depths; None as soon as a depth holds
    more than FRONTIER_CAP states.

    The walk runs one loop per path that reaches a depth, and each loop
    adds s. The pass keeps, per depth, each distinct state with the number
    of paths that reach it; paths with one state have equal subtrees. A
    state is one packed int: the exponent d of each vertex's product 2^d
    in a field of n.bit_length() bits (cleared when the vertex finishes),
    and above the fields the bitmask of seen exponents. At each depth the
    count grows by s times the paths and the budget is checked: the count
    only grows, so it passes the budget just when the walk's count does.
    """
    n = plan.n_vertices
    width = n.bit_length()  # an exponent is at most the vertex's degree < n
    field = (1 << width) - 1
    top = n * width  # exponent e is seen when bit top + e is set
    two = s == 2
    frontier = {0: 1}
    nodes = 0
    for a, b, finished in plan.steps:
        nodes += s * sum(frontier.values())
        if nodes > budget:
            raise BudgetExhausted(budget + 1)
        if len(frontier) > FRONTIER_CAP:
            return None
        deeper: dict[int, int] = {}
        get = deeper.get
        sa, sb = a * width, b * width
        # One loop per kind of step, as in the walk; label 2 adds 1 to the
        # exponents of a and b.
        if not finished:
            up = (1 << sa) + (1 << sb)
            for st, k in frontier.items():
                deeper[st] = get(st, 0) + k
                if two:
                    st += up
                    deeper[st] = get(st, 0) + k
        elif finished == 1:
            up = 1 << sb
            for st, k in frontier.items():
                e = st >> sa & field
                bit = 1 << top + e
                st -= e << sa
                if not st & bit:
                    t = st | bit
                    deeper[t] = get(t, 0) + k
                if two and not st & bit << 1:
                    t = (st | bit << 1) + up
                    deeper[t] = get(t, 0) + k
        else:
            for st, k in frontier.items():
                ea, eb = st >> sa & field, st >> sb & field
                if ea == eb:
                    continue
                bits = 1 << top + ea | 1 << top + eb
                st -= (ea << sa) + (eb << sb)
                if not st & bits:
                    t = st | bits
                    deeper[t] = get(t, 0) + k
                if two and not st & bits << 1:
                    t = st | bits << 1
                    deeper[t] = get(t, 0) + k
        frontier = deeper
    return nodes


def _refuted_count(plan: SearchPlan, s: int, budget: int) -> int:
    """search_labelings' node count on plan at s <= 2 with no products,
    where a depth of _frontier_count holds more than FRONTIER_CAP states.

    No labeling exists there: a vertex's product is 2^d, d its number of
    edges labeled 2, and the graph of those edges on the n >= 2 vertices
    with an edge has two vertices of equal degree, which share a product.
    The walk never reaches a leaf and only counts. Where a step has just
    finished a vertex, the count of the subtree below is stored under one
    packed int: the seen products as a bitmask (powers of two, so their OR
    is their sum), the products of the vertices with edges both above and
    below, and the depth. A memo hit adds that count; loops add s when they
    end, as the walk does. The running count only grows, so the check
    after every addition raises BudgetExhausted(budget + 1) just when the
    walk would. Each stored state ends one loop run that passed its check,
    so states stored <= loops run <= nodes counted <= budget.
    """
    steps, n, depths = plan.steps, plan.n_vertices, len(plan.steps)
    deg = [0] * n
    for a, b, _ in steps:
        deg[a] += 1
        deg[b] += 1
    left, opens = deg[:], []  # per depth: the vertices begun and not finished
    for a, b, _ in steps:
        opens.append(tuple(v for v in range(n) if 0 < left[v] < deg[v]))
        left[a] -= 1
        left[b] -= 1
    prod = [1] * n
    weights = range(1, s + 1)
    memo: dict[int, int] = {}
    nodes = 0

    def enter(depth: int, seen: int) -> None:
        # The subtree below a step that finished a vertex: its count from
        # the memo, or walked and stored.
        nonlocal nodes
        key = seen
        for v in opens[depth]:
            key = key << n | prod[v]
        key = key * depths + depth
        known = memo.get(key)
        if known is None:
            start = nodes
            walk(depth, seen)
            memo[key] = nodes - start
        else:
            nodes += known
            if nodes > budget:
                raise BudgetExhausted(budget + 1)

    def walk(depth: int, seen: int) -> None:
        # search_labelings' loops, with seen as a bitmask
        nonlocal nodes
        a, b, finished = steps[depth]
        pa0, pb0 = prod[a], prod[b]
        deeper = depth + 1
        if not finished:
            for w in weights:
                prod[a], prod[b] = pa0 * w, pb0 * w
                walk(deeper, seen)
        elif finished == 1:
            for w in weights:
                pa = pa0 * w
                if pa & seen:
                    continue
                prod[a], prod[b] = pa, pb0 * w
                enter(deeper, seen | pa)
        elif pa0 != pb0:
            for w in weights:
                pa, pb = pa0 * w, pb0 * w
                if (pa | pb) & seen:
                    continue
                prod[a], prod[b] = pa, pb
                enter(deeper, seen | pa | pb)
        prod[a], prod[b] = pa0, pb0
        nodes += s
        if nodes > budget:
            raise BudgetExhausted(budget + 1)

    walk(0, 0)
    return nodes


def _degree_count_bound(g: Graph, s_max: int) -> int:
    """The smallest s in 3..s_max at which the degree count does not refute
    g, or s_max + 1 when it refutes every one.

    It refutes s when, for some k, more vertices have degree <= k than
    there are products of k labels from 1..s. A vertex of degree d <= k
    has such a product (label 1 pads it to k labels), and the products of
    a labeling are distinct. The products grow one degree at a time and
    stop once they hold n values, past which no count exceeds them: at
    most n x s products a degree."""
    n = g.n_vertices
    deg = [0] * n
    for u, v in g.edges:
        deg[u] += 1
        deg[v] += 1
    per_degree = collections.Counter(deg)
    at_most = list(itertools.accumulate(per_degree[k] for k in range(max(deg) + 1)))

    def refutes(s: int) -> bool:
        products = {1}  # the products of k labels from 1..s
        for k in range(1, len(at_most)):
            products = {p * w for p in products for w in range(1, s + 1)}
            if at_most[k] > len(products):
                return True
            if len(products) >= n:
                return False
        return False

    return next((s for s in range(3, s_max + 1) if not refutes(s)), s_max + 1)


def _by_strength(g: Graph, s_max: int, budget: int, attempt,
                 prune: bool = True) -> PsResult:
    """The smallest s <= s_max at which attempt(s, budget left) returns a
    label map of g's edges, not None, with the nodes it explored; a search
    that runs out raises BudgetExhausted(budget left + 1). With pruning on,
    the levels from 3 below _degree_count_bound are refuted after 0 nodes."""
    if g.n_vertices < 2:
        raise ValueError("graph too small: product degrees need incident edges")
    if has_isolated_vertex_or_edge(g):
        raise ValueError("graph has an isolated vertex or isolated edge")
    if s_max < 1:
        raise ValueError("s_max must be >= 1")
    lowest = _degree_count_bound(g, s_max) if prune else 3
    total = 0
    for s in range(1, s_max + 1):
        if 3 <= s < lowest:
            continue
        try:
            labels, nodes = attempt(s, budget - total)
        except BudgetExhausted as exc:
            return PsResult(None, None, total + exc.args[0], True, s_max)
        total += nodes
        if labels is not None:
            return PsResult(s, EdgeLabeling(g, labels, s), total, False, s_max)
    return PsResult(None, None, total, False, s_max)


def ps_exact(g: Graph, s_max: int, budget: int = DEFAULT_BUDGET,
             prune: bool = True) -> PsResult:
    """Smallest s <= s_max admitting a product-irregular labeling of g."""
    plan = SearchPlan.of(g)

    def attempt(s: int, left: int):
        found, nodes = search_labelings(plan, s, budget=left, prune=prune)
        return (found[0] if found else None), nodes

    return _by_strength(g, s_max, budget, attempt, prune)


def component_signatures(g_component: Graph, s: int,
                         budget: int = DEFAULT_BUDGET) -> list[ComponentSignature]:
    """All distinct internally-valid degree multisets of a connected graph
    with labels <= s, in sorted order, each with its first labeling."""
    if g_component.n_vertices < 2:
        raise ValueError("component must have at least one edge")
    if not is_connected(g_component):
        raise ValueError("component_signatures needs a connected graph")
    plan = SearchPlan.of(g_component)
    sigs, _ = search_labelings(plan, s, budget=budget, collect_all=True)
    return [ComponentSignature(tuple(ProductDegree.from_value(v) for v in values),
                               EdgeLabeling(g_component, dict(zip(plan.edges, labels)), s))
            for values, labels in sorted(sigs.items())]


def _combine_levels(levels: list, s: int,
                    budget: int) -> tuple[list[tuple[int, ...]] | None, int]:
    """One labeling per level, no product shared between two levels: the
    label tuple of each level in order, or None when there is none, and
    the nodes explored.

    A level is one component, collected or searched. A collected level is
    given as its realizable multisets, (sorted degree values, label tuple)
    pairs, in one list that the levels of one shape share; it picks a
    multiset disjoint from the values taken above it, one node per
    multiset tried. A searched level is given as its SearchPlan and runs
    search_labelings against the values taken above it: in collect mode,
    to pick among the multisets found as a collected level does, or in
    find mode when it is the last level.

    The taken values are one bitmask, a bit per distinct value. A level
    entered with a mask that failed there before backs up at once, with no
    node and no search, so a refutation costs what a level-by-level merge
    of distinct masks would. The path is kept in lists, not in Python
    frames, so any number of levels fits: level i holds the mask acc[i] of
    the values chosen above it and tries its options from index i_next on.
    """
    k = len(levels)
    budget = max(budget, 0)  # a negative budget stops where 0 does
    bit: dict[int, int] = {}  # each value's bit, given when first met

    def masks_of(pairs) -> list[int]:
        # a bit for each value not met before; the values of a multiset are
        # distinct, so their bits sum to its mask
        for v in {v for values, _ in pairs for v in values}.difference(bit):
            bit[v] = 1 << len(bit)
        return [sum(map(bit.__getitem__, values)) for values, _ in pairs]

    collected = {id(lv): lv for lv in levels if not isinstance(lv, SearchPlan)}
    shared = {key: masks_of(lv) for key, lv in collected.items()}
    # per level, its (values, labels) pairs and their masks; a searched
    # level's are set each time it is entered, before they are read
    pairs = list(levels)
    masks = [shared.get(id(lv)) for lv in levels]
    failed: list[set[int]] = [set() for _ in range(k)]
    choice = [0] * k
    acc = [0] * (k + 1)
    nodes = 0
    level, i_next = 0, 0
    try:
        while level < k:
            here, taken = masks[level], acc[level]
            if i_next == 0 and taken in failed[level]:
                here = ()  # entered with a mask that failed before
            elif isinstance(levels[level], SearchPlan):
                if i_next == 0:  # all it finds avoids the taken values
                    last = level == k - 1
                    found, used = search_labelings(
                        levels[level], s, budget=budget - nodes, collect_all=not last,
                        taken=[v for i in range(level) for v in pairs[i][choice[i]][0]])
                    nodes += used
                    # in find mode, the labeling (if any) with no values:
                    # no level below needs them
                    pairs[level] = ([((), tuple(labels.values())) for labels in found] if last
                                    else sorted(found.items()))
                    here = masks[level] = masks_of(pairs[level])
            else:
                while i_next < len(here):
                    nodes += 1
                    if nodes > budget:
                        raise BudgetExhausted
                    if not here[i_next] & taken:
                        break
                    i_next += 1
            if i_next < len(here):  # go down with this choice
                choice[level] = i_next
                acc[level + 1] = taken | here[i_next]
                level, i_next = level + 1, 0
                continue
            failed[level].add(taken)
            if level == 0:
                return None, nodes
            level -= 1  # back up: the level above tries its next choice
            i_next = choice[level] + 1
    except BudgetExhausted:
        raise BudgetExhausted(budget + 1) from None
    return [pairs[i][choice[i]][1] for i in range(k)], nodes


def ps_exact_disconnected(g: Graph, s_max: int,
                          budget: int = DEFAULT_BUDGET) -> PsResult:
    """Exact strength searched one component at a time; the value is
    ps_exact's, found far cheaper when g has several components.

    The components are the levels of _combine_levels. At each s a shape
    (vertex count and edges) of more than one component has its realizable
    degree multisets collected once, and its components pick among them; a
    shape of one component is searched against the values taken by the
    levels above it. Levels go fewest edges first, so that what is
    collected is small and the largest component is searched in find mode:
    the 168 two-component unions of the exact-random benchmark (seed 201)
    take 32 ms this way and 183 ms largest first."""
    levels: list[tuple[tuple, list[int]]] = []  # per component: its shape, its vertices in g
    plans: dict[tuple, SearchPlan] = {}  # per shape
    repeated: list[tuple] = []  # the shapes of more than one component

    def attempt(s: int, left: int):
        if not levels:  # split once _by_strength checked g
            for sub, old in component_subgraphs(g):
                key = (sub.n_vertices, sub.edges)
                if key not in plans:
                    plans[key] = SearchPlan.of(sub)
                levels.append((key, old))
            levels.sort(key=lambda level: (len(level[0][1]), level[0][0]))
            count = collections.Counter(key for key, _ in levels)
            repeated.extend(key for key, k in count.items() if k > 1)
        left = max(left, 0)
        nodes = 0
        collected = {}  # per repeated shape: its (sorted degree values, label tuple) pairs
        try:
            for key in repeated:
                found, used = search_labelings(plans[key], s, budget=left - nodes,
                                               collect_all=True)
                nodes += used
                if not found:
                    return None, nodes
                collected[key] = sorted(found.items())
            picks, used = _combine_levels([collected.get(key) or plans[key] for key, _ in levels],
                                          s, left - nodes)
        except BudgetExhausted:
            raise BudgetExhausted(left + 1) from None
        nodes += used
        if picks is None:
            return None, nodes
        labels: dict[Edge, int] = {}
        for (key, old), pick in zip(levels, picks):
            for (u, v), w in zip(plans[key].edges, pick):
                labels[edge_key(old[u], old[v])] = w
        return labels, nodes

    return _by_strength(g, s_max, budget, attempt)


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
