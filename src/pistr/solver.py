"""Exact product irregularity strength by pruned depth-first search.

The search iterates strengths s = 1, 2, ... and for each s explores edge
labelings in an order that completes one vertex at a time, pruning as soon
as two finished vertices share a product degree.

At s <= 2 no graph on two or more vertices has a labeling: a vertex's
product is 2^d, d its number of edges labeled 2, and the graph of those
edges has two vertices of equal degree, which share a product. So those
levels only count nodes. At s = 1 the walk does so on one path, down to
the second finished vertex. At s = 2, with no fixed products and pruning
on, the count is one forward pass over the depths (_frontier_count):
each distinct state (the exponents of the vertices' products, the seen
exponents) with the number of paths that reach it, node for node the
walk's count. The widest depth of K5 to K9 holds 72, 450, 2,588, 18,540
and 144,334 states. At the first depth wider than FRONTIER_CAP states
the pass stops, and the lemma refutes the level with the nodes counted
up to there, as _degree_count_bound refutes levels with no search: K9
and larger cliques go on to s = 3 with memory bounded.

From s = 3 on, with pruning on, the search breaks the symmetry of
closed twins (vertices with equal closed neighbourhoods) that have equal
fixed products: swapping two of them maps labelings to labelings and
keeps the product multiset, so each such twin class may be required to
finish with increasing products, in the order the search finishes them.
This is a lex-leader constraint (Crawford et al., KR 1996); it loses no
labeling up to that swap and no degree multiset of collect mode. The
rule is one bound per depth (SearchPlan.twins_under): the loop of a
finishing step starts above the earlier twin's product. With no fixed
products all products are equal, so ps_exact and ps_exact_disconnected
break every twin class; prune=False, the unbroken oracle, breaks none.
Before each level s >= 3, a degree count refutes s with no search when
more vertices have degree <= k than there are products of k labels from
1..s.

ps_exact_disconnected solves a graph one component at a time, in one
loop over levels, one per component, fewest edges first; on a connected
graph it is ps_exact node for node. The last level is searched in find
mode against the values the levels above it took. Each level above it
picks one of the product-degree multisets its shape can realize that
shares no value with the levels above, in increasing index order along
the levels of one shape. The collection is lazy: it stops after 1, 2,
4, ... new multisets, and a longer one is made only when every
combination of the shorter ones failed and a level of that shape ran to
the end of its list. Each level remembers the sets of taken values (and
the first index) it failed with.
"""

from __future__ import annotations

import collections
import itertools
import sys
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property

from .graphs import (Edge, EdgeLabeling, Graph, closed_masks, component_subgraphs,
                     edge_key, has_isolated_vertex_or_edge)

DEFAULT_BUDGET = 10**9
# Most distinct states a depth of _frontier_count may hold; a wider depth
# ends the s = 2 count there, so it also decides which s = 2 levels are
# counted in full (K8's widest depth holds 18,540, K9's 144,334).
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
    finishes (takes their last edge): 0, 1 or 2, a first when it finishes
    one. The free edges come in a fixed order, so that is known before
    the search.
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
    def _closed(self) -> dict[int, int]:
        """graphs.closed_masks of the plan's edges, computed on first use:
        closed twins are the vertices of equal masks."""
        return closed_masks(self.edges)

    @cached_property
    def twins(self) -> tuple[int | tuple | None, ...]:
        """twins_under(None), kept: every search without products takes it."""
        return self.twins_under(None)

    def twins_under(self, products: list[int] | None) -> tuple[int | tuple | None, ...]:
        """The twin bound at each depth of a search under these fixed
        products, where closed twins of equal fixed products finish with
        increasing products in the order they finish, a before b within a
        step. The masks are the plan's, computed once; each call keys a
        twin class by mask and product, and with no products by mask alone.

        A step that finishes one vertex after an earlier twin has that twin
        as its bound; a step that finishes two, where a or b has an earlier
        twin, has the pair (twin of a, twin of b), None for a vertex with
        none. Every other depth's bound is None. The steps stay the plan's.
        """
        closed = self._closed
        bounds: list = [None] * len(self.steps)
        if len(set(closed.values())) == len(closed):  # no twins
            return tuple(bounds)
        last: dict = {}  # per class, its vertex that finished last so far
        for depth, (a, b, finished) in enumerate(self.steps):
            if not finished:
                continue
            # each vertex finishing here: its twin that finished last before it
            key = closed[a] if products is None else (closed[a], products[a])
            ta, last[key] = last.get(key), a
            if finished == 1:
                bounds[depth] = ta
                continue
            key = closed[b] if products is None else (closed[b], products[b])
            tb, last[key] = last.get(key), b
            if (ta, tb) != (None, None):
                bounds[depth] = ta, tb
        return tuple(bounds)


def search_labelings(g: Graph | SearchPlan, s: int, products: list[int] | None = None,
                     budget: int = DEFAULT_BUDGET, prune: bool = True,
                     collect_all: bool = False, taken: Iterable[int] = (),
                     stop_after: int | None = None):
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

    ``stop_after`` stops collect mode at its stop_after-th new multiset:
    the dict then holds the first stop_after entries of the whole
    collection, in the order found, with the same label tuples. The
    stopped path's loops count their tries as find mode's do when it
    stops at a labeling, so the count never exceeds the whole run's.

    A node is one label tried at one edge. Each loop over the labels of an
    edge counts its tries when it ends: s, or w when label w leads to a
    labeling or to collect mode's stop. The budget is checked there, so a search whose count passes
    the budget raises BudgetExhausted(budget + 1), the count at which a
    check on every try would have stopped, after at most depth x s more
    tries than that check would have made.

    At s <= 2 no labeling of a graph with an edge exists. At s = 2 with
    no products, nothing taken, pruning on and at least one edge, the
    count is computed, not walked, by _frontier_count: the walk's count,
    or where a depth holds more than FRONTIER_CAP states, the part of it
    up to that depth.

    The walk recurses once per edge. A Python-to-Python call takes no C
    stack (Python 3.11 and later), so the recursion limit, which holds for
    the whole interpreter, is raised by the walk's depth while the walk
    runs and restored after.

    With pruning on, the walk takes the plan's twin bounds
    (SearchPlan.twins_under): a vertex that finishes after one of its
    closed twins of equal fixed product must take a larger product than
    that twin, so its loop starts at the first label above the bound.
    Labels below it count as tried, so the count is that of a search
    testing the rule at every label.
    Collect mode still finds every multiset; the label tuple kept for one
    may be another than the unbroken search's first.
    """
    plan = g if isinstance(g, SearchPlan) else SearchPlan.of(g)
    n, order, steps = plan.n_vertices, plan.edges, plan.steps
    budget = max(budget, 0)  # a negative budget stops where 0 does
    seen = set(taken)
    if s == 2 and products is None and prune and order and not seen:
        return ({} if collect_all else []), _frontier_count(plan, budget)
    if not prune:  # no step finishes a vertex, so no bound is read
        steps, bounds = tuple((a, b, 0) for a, b, _ in steps), None
    else:  # per depth, the twin bound of the vertices it finishes
        bounds = plan.twins if products is None else plan.twins_under(products)
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
                return len(sigs) == stop_after
            return False
        found.append(dict(zip(order, assignment)))
        return True

    def walk(depth: int, steps=steps, bounds=bounds, prod=prod, seen=seen, add=add,
             discard=discard, assignment=assignment, weights=weights) -> bool:
        # One loop per number of vertices the step finishes. A finished
        # vertex's product must be new, and it stays in seen while the
        # search is below this step. A step finishing two vertices of equal
        # products fails at every label without a loop. Where the depth has
        # a twin bound, a finished vertex's product must pass its earlier
        # twin's, so the loop starts at the first label above it; the
        # labels below are counted as tried. The defaults make the search's
        # state fast locals.
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
            t = bounds[depth]
            for w in weights if t is None else range(prod[t] // pa0 + 1, s + 1):
                pa = pa0 * w
                if pa in seen:
                    continue
                prod[a], prod[b] = pa, pb0 * w
                add(pa)
                assignment[depth] = w
                if walk(deeper):
                    return True
                discard(pa)
        else:  # finishes two, with a twin bound on a, on b, on both or on neither
            if bounds[depth] is None:
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

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + depths)
    try:
        done = walk(0)
    finally:
        sys.setrecursionlimit(limit)
    if done:
        # the loops on the path to the labeling tried labels 1..w each
        nodes += sum(assignment)
        if nodes > budget:
            raise BudgetExhausted(budget + 1)
    return (sigs if collect_all else found), nodes


def _frontier_count(plan: SearchPlan, budget: int) -> int:
    """search_labelings' node count on plan at s = 2 with no products, by
    one pass over the depths; at the first depth that holds more than
    FRONTIER_CAP states, the count up to and including it.

    The walk runs one loop per path that reaches a depth, and each loop
    adds 2. The pass keeps, per depth, each distinct state with the number
    of paths that reach it; paths with one state have equal subtrees. A
    state is one packed int: the exponent d of each vertex's product 2^d
    in a field of n.bit_length() bits (cleared when the vertex finishes),
    and above the fields the bitmask of seen exponents. At each depth the
    count grows by twice the paths and the budget is checked: the count
    only grows, so it passes the budget just when the walk's count does.
    """
    n = plan.n_vertices
    width = n.bit_length()  # an exponent is at most the vertex's degree < n
    field = (1 << width) - 1
    top = n * width  # exponent e is seen when bit top + e is set
    frontier = {0: 1}
    nodes = 0
    for a, b, finished in plan.steps:
        nodes += 2 * sum(frontier.values())
        if nodes > budget:
            raise BudgetExhausted(budget + 1)
        if len(frontier) > FRONTIER_CAP:  # no labeling: stop counting
            return nodes
        deeper: dict[int, int] = {}
        get = deeper.get
        sa, sb = a * width, b * width
        # One loop per kind of step, as in the walk; label 2 adds 1 to the
        # exponents of a and b.
        if not finished:
            up = (1 << sa) + (1 << sb)
            for st, k in frontier.items():
                deeper[st] = get(st, 0) + k
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
                if not st & bit << 1:
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
                if not st & bits << 1:
                    t = st | bits << 1
                    deeper[t] = get(t, 0) + k
        frontier = deeper
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


def _combine_levels(levels: list, s: int, budget: int, searched: dict | None = None,
                    ran_out: set | None = None) -> tuple[list[tuple[int, ...]] | None, int]:
    """One labeling per level, no product shared between two levels: the
    label tuple of each level in order, or None when there is none, and
    the nodes explored.

    A level is one component, given as its realizable multisets, (sorted
    degree values, label tuple) pairs, in one list that the levels of one
    shape share; it picks a multiset disjoint from the values taken above
    it, one node per multiset tried. A level right below one with the same
    list picks past that level's pick: levels of one shape are
    interchangeable, so their picks may go in increasing index order. The
    last level may instead be given as its SearchPlan: it is searched in
    find mode against the values taken above it. A list may be the first
    entries of a stopped collection (search_labelings' stop_after):
    ps_exact_disconnected calls again with longer lists when every
    combination failed. ``searched``, when given, keeps the last level's
    result per frozenset of taken values across those calls, so each set
    is searched once; ``ran_out``, when given, gets the index of each level
    that ran to the end of its list, the only levels a longer list helps.

    The taken values are one bitmask, a bit per distinct value. A level
    entered with a (mask, start) pair, start its first index, that failed
    there before backs up at once, with no node and no search, so a
    refutation costs what a level-by-level merge of distinct masks would.
    The path is kept in lists, not in Python frames, so any number of
    levels fits: level i holds the mask acc[i] of the values chosen above
    it and tries its options from index i_next on, starting at start[i].
    """
    k = len(levels)
    budget = max(budget, 0)  # a negative budget stops where 0 does
    searched = {} if searched is None else searched
    plan = levels[-1] if isinstance(levels[-1], SearchPlan) else None
    bit: dict[int, int] = {}  # each value's bit, given when first met

    def masks_of(pairs) -> list[int]:
        # a bit for each value not met before; the values of a multiset are
        # distinct, so their bits sum to its mask
        for v in {v for values, _ in pairs for v in values}.difference(bit):
            bit[v] = 1 << len(bit)
        return [sum(map(bit.__getitem__, values)) for values, _ in pairs]

    lists = {id(lv): lv for lv in levels if lv is not plan}  # each shared list once
    shared = {key: masks_of(lv) for key, lv in lists.items()}
    masks = [shared.get(id(lv)) for lv in levels]  # None for the searched level
    # per level, whether it picks past the level above: the same list
    follows = [i > 0 and lv is levels[i - 1] for i, lv in enumerate(levels)] + [False]
    failed: list[set[tuple[int, int]]] = [set() for _ in range(k)]
    choice = [0] * k
    start = [0] * (k + 1)
    acc = [0] * (k + 1)
    nodes = 0
    level, i_next = 0, 0
    try:
        while level < k:
            here, taken = masks[level], acc[level]
            if i_next == start[level] and (taken, i_next) in failed[level]:
                here = ()  # entered with a mask and start that failed before
            elif here is None:  # the last level: a labeling avoiding the taken values
                values = frozenset(v for i in range(level) for v in levels[i][choice[i]][0])
                if values not in searched:
                    found, used = search_labelings(plan, s, budget=budget - nodes, taken=values)
                    nodes += used
                    searched[values] = tuple(found[0].values()) if found else None
                if searched[values] is not None:
                    return [*(levels[i][choice[i]][1] for i in range(level)),
                            searched[values]], nodes
                here = ()
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
                level += 1
                i_next = start[level] = i_next + 1 if follows[level] else 0
                continue
            failed[level].add((taken, start[level]))
            if ran_out is not None and masks[level] is not None:
                ran_out.add(level)
            if level == 0:
                return None, nodes
            level -= 1  # back up: the level above tries its next choice
            i_next = choice[level] + 1
    except BudgetExhausted:
        raise BudgetExhausted(budget + 1) from None
    return [levels[i][choice[i]][1] for i in range(k)], nodes


def ps_exact_disconnected(g: Graph, s_max: int,
                          budget: int = DEFAULT_BUDGET) -> PsResult:
    """Exact strength searched one component at a time; the value is
    ps_exact's, found far cheaper when g has several components, and with
    ps_exact's count and certificate when it has one.

    The components are the levels of _combine_levels, fewest edges first
    and the components of one shape next to each other, so that what is
    collected is small and the largest component is searched in find mode:
    the 168 two-component unions of the exact-random benchmark (seed 201)
    take 32 ms this way and 183 ms largest first. The last level is
    searched in find mode against the values taken above it. The levels
    above it pick, in increasing index order along the levels of a shape,
    among their shape's degree multisets, collected with no values taken.

    Those are collected lazily, in rounds. In the first round collect mode
    stops after one new multiset of each shape (search_labelings'
    stop_after). A new round starts only when every combination of what is
    held failed; it doubles the stop of each shape whose collection
    stopped short and some level of which ran to the end of its list, and
    collects that shape again from the start, counting its nodes again.
    A shape no level ran out of keeps what it holds: a longer list cannot
    help a level that was never reached or never exhausted. When no shape
    is doubled, the refutation stands. The last level's searches are kept
    across rounds; the memo of failed (mask, start) pairs starts afresh in
    each. So K7+K8 at s = 3 takes K7's first labeling, one pick and a
    search of K8 against its values, 240 nodes."""
    levels: list[tuple[tuple, list[int]]] = []  # per component: its shape, its vertices in g
    plans: dict[tuple, SearchPlan] = {}  # per shape, in the order first met
    for sub, old in component_subgraphs(g):
        key = (sub.n_vertices, sub.edges)
        if key not in plans:
            plans[key] = SearchPlan.of(sub)
        levels.append((key, old))
    first = {key: i for i, key in enumerate(plans)}
    levels.sort(key=lambda level: (len(level[0][1]), level[0][0], first[level[0]]))
    upper = [key for key, _ in levels[:-1]]  # the shapes of the levels above the last

    def attempt(s: int, left: int):
        left = max(left, 0)
        nodes = 0
        collected = {}  # per upper shape: the (sorted degree values, label tuple) pairs held
        searched: dict = {}  # the last level's results, kept across rounds
        stop = dict.fromkeys(upper, 1)  # per upper shape: the stop of its collection
        todo = list(stop)  # the shapes to collect this round
        try:
            while True:
                for key in todo:
                    found, used = search_labelings(plans[key], s, budget=left - nodes,
                                                   collect_all=True, stop_after=stop[key])
                    nodes += used
                    if not found:
                        return None, nodes
                    collected[key] = sorted(found.items())
                ran_out: set[int] = set()
                picks, used = _combine_levels([*(collected[key] for key in upper),
                                               plans[levels[-1][0]]], s,
                                              left - nodes, searched, ran_out)
                nodes += used
                # a longer collection helps only a level that ran to its end
                todo = [key for key in dict.fromkeys(upper[i] for i in sorted(ran_out))
                        if len(collected[key]) == stop[key]]
                if picks is not None or not todo:
                    break
                stop.update((key, 2 * stop[key]) for key in todo)
        except BudgetExhausted:
            raise BudgetExhausted(left + 1) from None
        if picks is None:
            return None, nodes
        labels: dict[Edge, int] = {}
        for (key, old), pick in zip(levels, picks):
            for (u, v), w in zip(plans[key].edges, pick):
                labels[edge_key(old[u], old[v])] = w
        return labels, nodes

    return _by_strength(g, s_max, budget, attempt)
