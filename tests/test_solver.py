import collections
import hashlib
import itertools
import random
import sys
import tracemalloc

import pytest

from pistr import engine, solver
from pistr.graphs import (EdgeLabeling, Graph, add_cross_edge, clique_cover, closed_masks,
                          complete_graph, disjoint_union, edge_key,
                          has_isolated_vertex_or_edge, labeled_graph_to_matrix)
from pistr.solver import (DEFAULT_BUDGET, BudgetExhausted, SearchPlan, edge_search_order,
                          ps_exact, ps_exact_disconnected, search_labelings)
from pistr.verifier import is_product_irregular

from conftest import (brute_products, deadline, extend_with_ones, permute_graph,
                      planted_cover_graph, random_graph_no_isolates,
                      verify_k4_characterization)


def reference_search(g, s, fixed, budget, prune, collect_all, break_twins=False):
    """The labeling search as first written: one loop for every depth, the
    vertices' remaining free edges counted down and up as it goes. With
    break_twins, a vertex that finishes must take a larger product than
    each of its twins that finished before it, u before v on an edge that
    finishes both. Its twins are the vertices with its fixed product and
    its closed neighbourhood (its neighbours and itself) in the graph of
    the free edges."""
    n = g.n_vertices
    free = edge_search_order(Graph(n, g.edges.difference(fixed)))
    fixed_product = [1] * n
    for (u, v), w in fixed.items():
        fixed_product[u] *= w
        fixed_product[v] *= w
    closed = [{v} for v in range(n)]
    for u, v in free:
        closed[u].add(v)
        closed[v].add(u)
    twins = [[y for y in range(n) if y != x and closed[y] == closed[x]
              and fixed_product[y] == fixed_product[x]] if break_twins else []
             for x in range(n)]
    done = set()  # the vertices finished on the current path

    def above_twins(x):
        return all(prod[y] < prod[x] for y in twins[x] if y in done)

    prod, pinned, rem = [1] * n, [False] * n, [0] * n
    for (u, v), w in fixed.items():
        prod[u] *= w
        prod[v] *= w
        pinned[u] = pinned[v] = True
    for u, v in free:
        rem[u] += 1
        rem[v] += 1
    seen = set()
    if prune:
        for v in range(n):
            if rem[v] == 0 and pinned[v]:
                if prod[v] in seen:
                    return ({} if collect_all else []), 0
                seen.add(prod[v])
    assignment = [0] * len(free)
    nodes = 0
    found, sigs = [], {}

    def walk(depth):
        nonlocal nodes
        if depth == len(free):
            if not prune and len(set(prod)) != n:
                return False
            labels = dict(fixed)
            labels.update(zip(free, assignment))
            if collect_all:
                sigs.setdefault(tuple(sorted(prod)), labels)
                return False
            found.append(labels)
            return True
        u, v = free[depth]
        pu0, pv0 = prod[u], prod[v]
        rem[u] -= 1
        rem[v] -= 1
        u_done, v_done = rem[u] == 0, rem[v] == 0
        for w in range(1, s + 1):
            nodes += 1
            if nodes > budget:
                raise BudgetExhausted
            pu, pv = pu0 * w, pv0 * w
            prod[u], prod[v] = pu, pv
            if prune:
                if u_done:
                    if pu in seen or not above_twins(u):
                        continue
                    seen.add(pu)
                    done.add(u)
                if v_done:
                    if pv in seen or not above_twins(v):
                        if u_done:
                            seen.discard(pu)
                            done.discard(u)
                        continue
                    seen.add(pv)
                    done.add(v)
            assignment[depth] = w
            stop = walk(depth + 1)
            if prune:
                if v_done:
                    seen.discard(pv)
                    done.discard(v)
                if u_done:
                    seen.discard(pu)
                    done.discard(u)
            if stop:
                return True
        prod[u], prod[v] = pu0, pv0
        rem[u] += 1
        rem[v] += 1
        return False

    try:
        walk(0)
    except BudgetExhausted:
        raise BudgetExhausted(nodes)
    return (sigs if collect_all else found), nodes


def reference_edge_search_order(g):
    """The edge order as first written: for each vertex, busiest first, a
    scan of every edge for its unplaced incident ones."""
    deg = [0] * g.n_vertices
    for u, v in g.edges:
        deg[u] += 1
        deg[v] += 1
    vorder = sorted(range(g.n_vertices), key=lambda v: (-deg[v], v))
    pos = {v: i for i, v in enumerate(vorder)}
    order, seen = [], set()
    for v in vorder:
        inc = sorted((e for e in g.edges if v in e),
                     key=lambda e: pos[e[1] if e[0] == v else e[0]])
        for e in inc:
            if e not in seen:
                seen.add(e)
                order.append(e)
    return order


def test_edge_search_order_matches_the_reference(rng):
    for _ in range(300):
        n = rng.randint(0, 24)
        p = rng.random()
        g = Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                 if rng.random() < p])
        assert edge_search_order(g) == reference_edge_search_order(g)


def k3_k3_edge():
    return add_cross_edge(disjoint_union(complete_graph(3), complete_graph(3)), 0, 3)


class TestPsExact:
    def test_triangle(self):
        r = ps_exact(complete_graph(3), 4)
        assert r.value == 3
        assert is_product_irregular(r.certificate).ok
        assert not r.budget_exhausted

    def test_two_triangles_with_bridge(self):
        # 2^7 labelings fail at s=2; 32 of the 3^7 labelings at s=3 are
        # product-irregular (independently brute-forced), so the value is 3.
        r = ps_exact(k3_k3_edge(), 5)
        assert r.value == 3
        assert is_product_irregular(r.certificate).ok

    def test_k4_k4_exceeds_three(self):
        g = disjoint_union(complete_graph(4), complete_graph(4))
        r = ps_exact(g, 3)
        assert r.value is None and not r.budget_exhausted
        r4 = ps_exact(g, 4)
        assert r4.value == 4
        assert is_product_irregular(r4.certificate).ok

    def test_budget_exhaustion_is_distinct(self):
        g = disjoint_union(complete_graph(4), complete_graph(4))
        r = ps_exact(g, 3, budget=50)
        assert r.budget_exhausted and r.value is None
        assert r.nodes_explored >= 50

    def test_budget_stop_in_a_deep_walk_restores_the_recursion_limit(self):
        # s <= 2 take 524,375 nodes of K46, so the stop comes inside the
        # s = 3 walk, 1,035 edges deep
        limit = sys.getrecursionlimit()
        r = ps_exact(complete_graph(46), 4, budget=1_500_000)
        assert (r.value, r.nodes_explored, r.budget_exhausted) == (None, 1_500_001, True)
        assert sys.getrecursionlimit() == limit

    def test_certificate_valid_at_higher_strength(self):
        r = ps_exact(complete_graph(4), 4)
        lifted = EdgeLabeling(r.certificate.graph, r.certificate.labels,
                              r.value + 1)
        assert is_product_irregular(lifted).ok

    def test_deterministic_certificates(self):
        g = k3_k3_edge()
        r1, r2 = ps_exact(g, 4), ps_exact(g, 4)
        assert r1.certificate.labels == r2.certificate.labels
        assert r1.nodes_explored == r2.nodes_explored

    def test_rejects_isolated_vertices_and_edges(self):
        with pytest.raises(ValueError, match="^graph too small: product degrees need "
                                             "incident edges$"):
            ps_exact(complete_graph(1), 3)
        with pytest.raises(ValueError, match="^s_max must be >= 1$"):
            ps_exact(complete_graph(3), 0)
        with pytest.raises(ValueError):
            ps_exact(complete_graph(2), 3)
        with pytest.raises(ValueError):
            ps_exact(disjoint_union(complete_graph(1), complete_graph(4)), 3)
        # a star is fine: no isolated vertex, no isolated edge
        assert ps_exact(Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)]), 3).found
        # K46's s = 3 walk is deeper than the default recursion limit, which
        # the walk raises by its depth and restores
        limit = sys.getrecursionlimit()
        for solve, g, nodes in ((ps_exact, complete_graph(46), 2129927),
                                (ps_exact_disconnected, disjoint_union(complete_graph(46),
                                                                       complete_graph(3)),
                                 4523496)):
            with deadline(2):
                r = solve(g, 4)
            assert (r.value, r.nodes_explored) == (3, nodes)
            assert is_product_irregular(r.certificate).ok
            assert sys.getrecursionlimit() == limit

    def test_unpruned_agrees_on_small_graphs(self, rng):
        for _ in range(15):
            g = random_graph_no_isolates(rng, n_min=4, n_max=5, max_edges=8)
            fast = ps_exact(g, 4, prune=True)
            slow = ps_exact(g, 4, prune=False)
            assert fast.value == slow.value

    def test_extension_with_ones_preserves_certificates(self, rng):
        # spanning-subgraph bound: a certificate for H extends to any
        # supergraph on the same vertices by labeling new edges 1
        checked = 0
        while checked < 50:
            g = random_graph_no_isolates(rng, n_min=4, n_max=6)
            missing = [(u, v) for u in range(g.n_vertices)
                       for v in range(u + 1, g.n_vertices) if not g.has_edge(u, v)]
            if not missing:
                continue
            r = ps_exact(g, 5)
            if not r.found:
                continue
            rng.shuffle(missing)
            extended = extend_with_ones(r.certificate, missing[:3])
            assert is_product_irregular(extended).ok
            checked += 1


class TestComponentSignatures:
    """Collect mode: the realizable degree multisets of one component."""

    @staticmethod
    def signatures(g, s):
        return search_labelings(g, s, collect_all=True)[0]

    def test_k2_has_no_signatures(self):
        assert self.signatures(complete_graph(2), 3) == {}
        assert self.signatures(complete_graph(2), 5) == {}
        # nor K9 at s = 2: its count overflows FRONTIER_CAP and stops there
        with deadline(2):
            assert self.signatures(complete_graph(9), 2) == {}

    def test_k3_contains_the_triangle_signature(self):
        assert (2, 3, 6) in self.signatures(complete_graph(3), 3)

    def test_k4_signatures_all_contain_six(self):
        sigs = self.signatures(complete_graph(4), 3)
        assert sigs and all(6 in values for values in sigs)

    def test_representatives_verify(self):
        g = complete_graph(4)
        plan = SearchPlan.of(g)
        for values, labels in self.signatures(plan, 3).items():
            report = is_product_irregular(EdgeLabeling(g, dict(zip(plan.edges, labels)), 3))
            assert report.ok
            assert tuple(sorted(d.value for d in report.degrees)) == values


class TestDisconnectedSolver:
    def test_k5_k5(self):
        g = disjoint_union(complete_graph(5), complete_graph(5))
        r = ps_exact_disconnected(g, 3)
        assert r.value == 3
        assert is_product_irregular(r.certificate).ok

    def test_agrees_with_direct_search(self, rng):
        for _ in range(8):
            a = random_graph_no_isolates(rng, n_min=3, n_max=4)
            b = random_graph_no_isolates(rng, n_min=3, n_max=4)
            g = disjoint_union(a, b)
            r1 = ps_exact(g, 4)
            r2 = ps_exact_disconnected(g, 4)
            assert r1.value == r2.value

    def test_k5_k5_k4_strength_three(self):
        # Explicit certificate exists: label the two 5-cliques to realize
        # degrees {4,8,9,12,24} and {18,27,36,54,81} and the 4-clique to
        # realize {1,2,3,6}; found by exhaustive signature combination.
        g = disjoint_union(disjoint_union(complete_graph(5), complete_graph(5)),
                           complete_graph(4))
        r = ps_exact_disconnected(g, 4)
        assert r.value == 3
        assert is_product_irregular(r.certificate).ok
        assert max(r.certificate.labels.values()) <= 3

    def test_refutation_above_a_large_clique_collects_nothing_of_it(self):
        # K4+K4 has no two disjoint multisets at s = 3 (ps(K4+K4) = 4), so
        # every combination fails at the second K4 level: only K4's
        # collection is extended, and K7, never reached, keeps its first
        # multiset, where collecting it whole takes about 237M nodes.
        with deadline(2):
            r = ps_exact_disconnected(clique_union(4, 4, 7, 8), 3)
        assert (r.value, r.nodes_explored, r.budget_exhausted) == (None, 1_200, False)

    def test_many_components_split_in_one_pass(self):
        # 4,000 disjoint triangles: no labeling up to 4, s = 1 and 2 refuted
        # by one count per distinct component and s = 3 and 4 by the degree
        # count, so the split must not cost components x edges.
        g = Graph.from_edges(12000, [(3 * i + a, 3 * i + b) for i in range(4000)
                                     for a, b in ((0, 1), (0, 2), (1, 2))])
        with deadline(2):
            r = ps_exact_disconnected(g, 4)
        assert (r.value, r.nodes_explored, r.budget_exhausted) == (None, 17, False)

    def test_degree_count_refutes_before_any_search(self):
        # 400 disjoint triangles: 1,200 vertices of degree 2 and 517
        # products of two labels from 1..40, so the degree count refutes
        # every level from 3 to 40 after 0 nodes; s = 1 and 2 count 3 and
        # 14 nodes. Searched, the levels spend the whole budget.
        g = Graph.from_edges(1200, [(3 * i + a, 3 * i + b) for i in range(400)
                                    for a, b in ((0, 1), (0, 2), (1, 2))])
        with deadline(2):
            r = ps_exact_disconnected(g, 40)
        assert (r.value, r.nodes_explored, r.budget_exhausted) == (None, 17, False)
        assert solver._degree_count_bound(g, 100) == 62
        # Two disjoint paths of two edges have four vertices of degree 1
        # and three labels at s = 3: refuted after 0 nodes with pruning on,
        # searched with prune=False, and the answer is the same.
        paths = Graph.from_edges(6, [(0, 1), (0, 2), (3, 4), (3, 5)])
        assert solver._degree_count_bound(paths, 6) == 4
        assert ps_exact(paths, 3).nodes_explored == ps_exact(paths, 2).nodes_explored
        assert (ps_exact(paths, 3, prune=False).nodes_explored
                > ps_exact(paths, 2, prune=False).nodes_explored)
        assert ps_exact(paths, 5).value == ps_exact(paths, 5, prune=False).value == 5

    def test_combine_keeps_no_frame_per_component(self):
        # One single-choice collected level per component, all disjoint:
        # the loop goes 1,500 levels down, past the default recursion limit.
        levels = [[((1000 + i,), (i,))] for i in range(1500)]
        assert solver._combine_levels(levels, 3, DEFAULT_BUDGET) == (
            [(i,) for i in range(1500)], 1500)
        with pytest.raises(BudgetExhausted) as got:
            solver._combine_levels(levels, 3, 1499)
        assert got.value.args == (1500,)
        # the last level clashes with every choice: each level above fails
        # once, and the memo stops the retries
        levels[-1] = [(tuple(range(1000, 2499)), ())]
        assert solver._combine_levels(levels, 3, DEFAULT_BUDGET) == (None, 1500)
        # A searched triangle last, in find mode against the values taken
        # above it.
        k3 = SearchPlan.of(complete_graph(3))
        levels[-1] = [((999,), ())]
        levels.append(k3)
        picks, nodes = solver._combine_levels(levels, 5, DEFAULT_BUDGET)
        last, last_nodes = search_labelings(k3, 5, taken=[*range(1000, 2499), 999])
        assert picks == [*((i,) for i in range(1499)), (), tuple(last[0].values())]
        assert nodes == 1500 + last_nodes
        # At s = 3 a triangle has one multiset, {2, 3, 6}: with 2 taken
        # above, the triangle fails, and so does every level back to the
        # top, each once.
        levels[-2] = [((2,), ())]
        last, last_nodes = search_labelings(k3, 3, taken=[*range(1000, 2498), 2])
        assert last == []
        assert solver._combine_levels(levels, 3, DEFAULT_BUDGET) == (None, 1500 + last_nodes)

    def test_budget_surfaces(self):
        g = disjoint_union(complete_graph(4), complete_graph(4))
        r = ps_exact_disconnected(g, 4, budget=20)
        assert r.budget_exhausted and r.value is None


def clique_union(*sizes):
    g = complete_graph(sizes[0])
    for k in sizes[1:]:
        g = disjoint_union(g, complete_graph(k))
    return g


@pytest.mark.parametrize("solve, sizes, value, nodes", [
    (ps_exact_disconnected, (4, 4), 4, 3_872),
    (ps_exact_disconnected, (5, 5), 3, 1_498),
    (ps_exact_disconnected, (5, 5, 4), 3, 6_579),
    (ps_exact, (4, 4), 4, 3_564),
    (ps_exact, (7,), 3, 483_757),
    (ps_exact, (8,), 3, 21_908_591),
])
def test_node_counts_pinned(solve, sizes, value, nodes):
    # DFS nodes at s_max = 4 as the benchmark reports them: a change to the
    # search order, the pruning or the budget accounting moves them.
    r = solve(clique_union(*sizes), 4)
    assert (r.value, r.nodes_explored, r.budget_exhausted) == (value, nodes, False)


@pytest.mark.parametrize("solve", [ps_exact, ps_exact_disconnected])
def test_budget_stop_at_twenty(solve):
    r = solve(clique_union(4, 4), 4, budget=20)
    assert (r.value, r.nodes_explored, r.budget_exhausted) == (None, 21, True)


def test_budget_stop_counts_every_node():
    # Wherever the budget runs out (an earlier strength, the second
    # component's search, the combination step that ends the run), the
    # result counts every node explored before it and the one that broke it.
    g = clique_union(3, 4)
    full = ps_exact_disconnected(g, 4).nodes_explored
    for budget in [*range(0, full, 199), *range(full - 40, full)]:
        r = ps_exact_disconnected(g, 4, budget=budget)
        assert (r.value, r.nodes_explored, r.budget_exhausted) == (None, budget + 1, True)


def sweep_graphs():
    """Clique shapes with many equal products, then 20 seeded random graphs."""
    graphs = [(f"K{n}", complete_graph(n)) for n in (4, 5, 6)]
    graphs += [("K3+K4+e", add_cross_edge(clique_union(3, 4), 0, 3)),
               ("K4+K4", clique_union(4, 4))]
    rng = random.Random(4242)
    graphs += [(f"random {i}", random_graph_no_isolates(rng, n_min=4, n_max=7, max_edges=9))
               for i in range(20)]
    return graphs


@pytest.mark.parametrize("solve", [ps_exact, ps_exact_disconnected])
def test_budget_sweep(solve):
    # A search counts a loop's tries when the loop ends, so it notices a
    # spent budget late; it must still stop exactly when the unbudgeted run
    # explores more than the budget, and report budget + 1 like a check on
    # every try.
    rng = random.Random(77)
    for name, g in sweep_graphs():
        full = solve(g, 4)
        n = full.nodes_explored
        assert n > 0 and not full.budget_exhausted, name
        for budget in [0, 1, n - 1, n, *(rng.randrange(n) for _ in range(10))]:
            r = solve(g, 4, budget=budget)
            if budget >= n:
                assert r == full, (name, budget)
            else:
                assert (r.value, r.certificate, r.nodes_explored, r.budget_exhausted) == (
                    None, None, budget + 1, True), (name, budget)


def twin_rich_graph(rng):
    """A graph full of closed twins: each vertex of a random graph on 2 to
    4 vertices blown up into a clique of one to three vertices, two cliques
    joined completely where the small graph has an edge."""
    k = rng.randint(2, 4)
    base = Graph.from_edges(k, [(u, v) for u, v in itertools.combinations(range(k), 2)
                                if v == u + 1 or rng.random() < 0.5])
    sizes = [rng.randint(1, 3) for _ in range(k)]
    start = list(itertools.accumulate(sizes, initial=0))
    edges = [e for i in range(k)
             for e in itertools.combinations(range(start[i], start[i + 1]), 2)]
    edges += [(x, y) for u, v in base.edges
              for x in range(start[u], start[u + 1]) for y in range(start[v], start[v + 1])]
    return Graph.from_edges(start[-1], edges)


def test_twin_rule_keeps_every_multiset_and_value():
    # The search lets closed twins of equal fixed products finish only
    # with increasing products: one labeling of each orbit under
    # permutations of such twins. Collect mode must still find every
    # multiset that the reference search without the rule does, each
    # realized by its label tuple, with no products, with products of 1
    # and with a few edges fixed; and ps_exact must give prune=False's
    # values.
    rng = random.Random(2218)
    graphs = [clique_union(3, 3), clique_union(4, 3), clique_union(3, 3, 3),
              complete_graph(5), k3_k3_edge()]
    while len(graphs) < 25:
        g = twin_rich_graph(rng)
        if (g.n_edges <= 9 and not has_isolated_vertex_or_edge(g) and g not in graphs
                and len(set(closed_masks(g.edges).values())) < g.n_vertices):
            graphs.append(g)
    acts_fixed = 0  # graphs where the rule acts with edges fixed
    for g in graphs:
        plan = SearchPlan.of(g)
        assert any(bound is not None for bound in plan.twins)  # the rule acts
        edges = sorted(g.edges)
        fixed = {e: rng.randint(1, 3) for e in rng.sample(edges, rng.randint(1, 2))}
        free, products = free_graph_and_products(g, fixed)
        free_plan = SearchPlan.of(free)
        acts_fixed += any(bound is not None for bound in free_plan.twins_under(products))
        for s in (3, 4):
            whole, _ = reference_search(g, s, {}, 10**9, True, True)
            for given in (None, [1] * g.n_vertices):
                broken, _ = search_labelings(plan, s, given, collect_all=True)
                assert broken.keys() == whole.keys()
                assert_realized(plan, broken, [1] * g.n_vertices)
            whole, _ = reference_search(g, s, fixed, 10**9, True, True)
            broken, _ = search_labelings(free_plan, s, products, collect_all=True)
            assert broken.keys() == whole.keys()
            assert_realized(free_plan, broken, products)
        if g.n_edges <= 9:
            assert ps_exact(g, 4).value == ps_exact(g, 4, prune=False).value
    assert acts_fixed >= 10


def assert_realized(plan, collected, products):
    """Each collected label tuple, on the plan's edges under the fixed
    products, realizes its multiset."""
    for key, labels in collected.items():
        prod = list(products)
        for (u, v), w in zip(plan.edges, labels):
            prod[u] *= w
            prod[v] *= w
        assert tuple(sorted(prod)) == key


def test_fallback_stages_keep_their_verdicts():
    # The engine's fallback breaks closed twins of equal pinned products.
    # On tree-only graphs of its shapes (cliques joined by two tree edges),
    # every stage it runs, up to the first that answers, must find a
    # labeling exactly when the reference search without the rule does;
    # the reference labels the pinned blocks' edges itself.
    rng = random.Random(3030)
    stages = 0
    for sizes in [(1, 3, 3), (2, 2, 3), (3, 3, 3), (3, 4, 4), (4, 4, 6), (4, 4, 9)]:
        for _ in range(9):
            g, _ = permute_graph(rng, planted_cover_graph(rng, sizes))
            cover = clique_cover(g, 3)
            tree = engine._choose_tree(g, cover)
            assert engine._lookup(cover.sizes, cover.sizes[tree.middle], tree.pattern) is None
            for s, pins, plan, products in engine._fallback_stages(g, cover, tree):
                fixed = {}
                for p, (_, block) in pins.items():
                    part = cover.parts[p]
                    for i, j in itertools.combinations(range(len(part)), 2):
                        fixed[part[i], part[j]] = int(block[i, j])
                spanning = Graph(g.n_vertices, frozenset(plan.edges).union(fixed))
                want, _ = reference_search(spanning, s, fixed, 10**9, True, False)
                found, _ = search_labelings(plan, s, products)
                assert bool(found) == bool(want), (sizes, s, pins)
                stages += 1
                if found:
                    break
            else:
                pytest.fail(f"no stage answers {sizes}")
    assert stages >= 54


def connected_graph_with_surplus(rng, n, surplus):
    """A connected graph on n vertices with n + surplus edges: a random tree
    plus random chords."""
    edges = {edge_key(v, rng.randrange(v)) for v in range(1, n)}
    chords = [e for e in itertools.combinations(range(n), 2) if e not in edges]
    edges.update(rng.sample(chords, surplus + 1))
    return Graph.from_edges(n, sorted(edges))


def test_counted_refutation_matches_the_reference():
    # At s <= 2 a graph with m - n >= 9 is counted, not walked: no
    # labeling exists there, and the count and every budget stop must be
    # the reference search's.
    rng = random.Random(919)
    graphs = [complete_graph(6), complete_graph(7)]
    graphs += [connected_graph_with_surplus(rng, rng.randint(8, 10), surplus)
               for surplus in (9, 10, 11, 12) for _ in range(2)]
    for g in graphs:
        assert len(g.edges) - g.n_vertices >= 9
        for s in (1, 2):
            for collect_all in (False, True):
                want = reference_search(g, s, {}, 10**9, True, collect_all)
                assert want == (({} if collect_all else []), want[1])
                assert search_labelings(g, s, collect_all=collect_all) == want
            for budget in sorted(rng.sample(range(want[1]), min(10, want[1]))):
                with pytest.raises(BudgetExhausted) as got:
                    search_labelings(g, s, budget=budget)
                assert got.value.args == (budget + 1,)


def test_counts_match_the_reference_at_every_surplus():
    # The s <= 2 count of a connected graph, at every m - n from 0 to 12,
    # in find and collect mode, and every budget stop must be the reference
    # search's.
    rng = random.Random(2020)
    cases = []
    for surplus in range(13):
        for _ in range(2):
            g = connected_graph_with_surplus(rng, rng.randint(6 if surplus <= 9 else 7, 8),
                                             surplus)
            assert len(g.edges) - g.n_vertices == surplus
            for s in (1, 2):
                want = {collect_all: reference_search(g, s, {}, 10**9, True, collect_all)
                        for collect_all in (False, True)}
                n = want[False][1]
                assert want == {False: ([], n), True: ({}, n)}
                budgets = sorted({*rng.sample(range(n), min(5, n)), n - 1, n})
                cases.append((g, s, want, budgets))
    for g, s, want, budgets in cases:
        for collect_all in (False, True):
            assert search_labelings(g, s, collect_all=collect_all) == want[collect_all]
        for budget in budgets:
            if budget >= want[False][1]:
                assert search_labelings(g, s, budget=budget) == want[False]
                continue
            with pytest.raises(BudgetExhausted) as got:
                search_labelings(g, s, budget=budget)
            assert got.value.args == (budget + 1,)


def test_edge_cases_keep_the_walks_answers():
    # An edgeless graph has its one empty labeling at every s after no
    # node; K3 has none, after no node at s = 0.
    empty = Graph(3, frozenset())
    for s in (0, 1, 2):
        assert search_labelings(empty, s) == ([{}], 0)
        assert search_labelings(empty, s, collect_all=True) == ({(1, 1, 1): ()}, 0)
    k3 = complete_graph(3)
    assert [search_labelings(k3, s) for s in (0, 1, 2)] == [([], 0), ([], 3), ([], 14)]


def test_large_clique_count_is_fast_and_bounded():
    # The s = 2 count of a large clique stops at the first depth wider than
    # FRONTIER_CAP states, with no labeling: depth 17, where the 2^17
    # labelings of the edges above reach 2^17 states, after 2 x (2^18 - 1)
    # nodes.
    # Two depths live at once, of at most FRONTIER_CAP states and twice
    # that; a state is an int key, an int count and a dict slot, under 128
    # bytes. Measured: 7.0, 14.6 and 14.8 MiB.
    for n in (12, 46, 80):
        g = complete_graph(n)
        tracemalloc.start()
        try:
            with deadline(2):
                found, nodes = search_labelings(g, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (found, nodes) == ([], 524286), n
        assert peak < 3 * solver.FRONTIER_CAP * 128, n


def random_connected_graph(rng, n):
    """A connected graph on n vertices: a random tree plus random chords."""
    edges = {edge_key(v, rng.randrange(v)) for v in range(1, n)}
    edges |= {e for e in itertools.combinations(range(n), 2) if rng.random() < 0.4}
    return Graph.from_edges(n, sorted(edges))


def two_component_unions(count, seed):
    """count unions of two different connected graphs of order 3 to 5."""
    rng = random.Random(seed)
    unions = []
    while len(unions) < count:
        a = random_connected_graph(rng, rng.randint(3, 5))
        b = random_connected_graph(rng, rng.randint(3, 5))
        if (a.n_vertices, a.edges) != (b.n_vertices, b.edges):
            budget = rng.choice([DEFAULT_BUDGET, rng.randint(1, 3000)])
            unions.append((disjoint_union(a, b), budget))
    return unions


# sha256 over the 120 lines "value nodes budget_exhausted certificate-sha256"
# of ps_exact_disconnected(g, 4, budget) on two_component_unions(120, 15),
# taken when the smaller component came to be collected lazily, in rounds,
# and the larger one searched against the values of each multiset held.
DISCONNECTED_DIGEST = "077efe908b07eb754c5c15493cf8aabecff50e10d9fc86832cdb0184f7cd4785"


def test_disconnected_results_pinned():
    # About a tenth of the budgets run out, in the smaller component's
    # collection or in the larger one's searches; the counts and the node
    # total say what moved.
    lines, outcomes, nodes = [], collections.Counter(), 0
    for g, budget in two_component_unions(120, 15):
        r = ps_exact_disconnected(g, 4, budget=budget)
        labels = "-" if r.certificate is None else repr(sorted(r.certificate.labels.items()))
        cert = hashlib.sha256(labels.encode()).hexdigest()
        lines.append(f"{r.value} {r.nodes_explored} {r.budget_exhausted} {cert}\n")
        outcomes[r.value, r.budget_exhausted] += 1
        nodes += r.nodes_explored
    assert outcomes == {(3, False): 25, (4, False): 64, (None, False): 21, (None, True): 10}
    assert nodes == 67_183
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == DISCONNECTED_DIGEST


def test_connected_graphs_solved_per_component_as_a_whole():
    # pistr ps solves every graph per component. A connected graph is one
    # level with nothing taken, so the result is ps_exact's field for
    # field, certificate and count included, at the full budget, at 0, at 7
    # and at half the full count.
    rng = random.Random(3131)
    graphs = [complete_graph(n) for n in (3, 4, 5, 6)]
    graphs += [random_connected_graph(rng, rng.randint(4, 9)) for _ in range(150)]
    outcomes = collections.Counter()
    for g in graphs:
        s_max = rng.randint(1, 5)
        half = ps_exact(g, s_max).nodes_explored // 2
        for budget in (DEFAULT_BUDGET, 0, 7, half):
            want = ps_exact(g, s_max, budget)
            assert ps_exact_disconnected(g, s_max, budget) == want, (g, s_max, budget)
            outcomes[want.found, want.budget_exhausted] += 1
    assert min(outcomes.values()) > 50 and len(outcomes) == 3, outcomes


def mixed_unions(count, seed):
    """count unions of 2 to 4 connected graphs of order 3 to 5 with no
    vertex of degree 1 and at most 12 vertices in all, some shapes repeated
    and some not, with their vertices renumbered at random."""
    rng = random.Random(seed)

    def shape():
        while True:
            g = random_connected_graph(rng, rng.randint(3, 5))
            if min(collections.Counter(v for e in g.edges for v in e).values()) >= 2:
                return g

    unions = []
    while len(unions) < count:
        shapes = [shape() for _ in range(rng.randint(2, 4))]
        for i in range(1, len(shapes)):
            if rng.random() < 0.5:
                shapes[i] = shapes[rng.randrange(i)]
        if sum(h.n_vertices for h in shapes) > 12:
            continue
        rng.shuffle(shapes)
        g = shapes[0]
        for h in shapes[1:]:
            g = disjoint_union(g, h)
        unions.append(permute_graph(rng, g)[0])
    return unions


def test_mixed_unions_agree_with_the_whole_search():
    # Every shape above the last level is collected lazily and the last
    # level searched against the values taken above it: the value must be
    # ps_exact's, and the unpruned oracle's where it is cheap; a
    # certificate must give every vertex its own product.
    kinds = collections.Counter()
    for g in mixed_unions(40, 2323):
        r = ps_exact_disconnected(g, 4)
        assert not r.budget_exhausted
        assert r.value == ps_exact(g, 4).value
        if g.n_edges <= 8:
            assert r.value == ps_exact(g, 4, prune=False).value
        if r.found:
            products = brute_products(labeled_graph_to_matrix(r.certificate))
            assert len(set(products)) == g.n_vertices
            assert max(r.certificate.labels.values()) <= r.value
        kinds[r.value] += 1
    assert kinds == {3: 8, 4: 15, None: 17}


def test_repeated_cliques_keep_the_collections_cost():
    # Collected once per strength, the repeated triangles cost no more
    # than collecting them did; searched one at a time, they took 16.9M.
    with deadline(10):
        r = ps_exact_disconnected(clique_union(*[3] * 8), 8)
    assert (r.value, r.budget_exhausted) == (None, False)
    assert r.nodes_explored <= 2_932_656
    for sizes, s_max, value in (([4] * 6, 8, 5), ([5] * 3, 6, 3)):
        r = ps_exact_disconnected(clique_union(*sizes), s_max)
        assert r.value == value
        assert is_product_irregular(r.certificate).ok


def test_repeated_large_cliques_are_collected_lazily():
    # K7 is collected only as far as its first labeling at s = 3 (36
    # nodes), and the second K7 is searched against its values (111):
    # collecting K7 whole took 237,236,672 nodes and 22 s.
    for sizes in ((7, 7), (6, 6), (6, 6, 6)):
        with deadline(2):
            r = ps_exact_disconnected(clique_union(*sizes), 4)
        assert (r.value, r.budget_exhausted) == (3, False), sizes
        assert is_product_irregular(r.certificate).ok, sizes
    assert ps_exact_disconnected(clique_union(7, 7), 4).nodes_explored == 483_869


def test_eight_triangles_node_count_pinned():
    # Rounds of collections stopped at 1, 2, 4, ... multisets, the seven
    # collected triangles picking in increasing index order: 2,932,656
    # nodes when every level picked among the whole collection.
    with deadline(2):
        r = ps_exact_disconnected(clique_union(*[3] * 8), 8)
    assert (r.value, r.nodes_explored, r.budget_exhausted) == (None, 406_648, False)


def test_stopped_collection_is_a_prefix_of_the_whole():
    # Collect mode stopped after k new multisets holds the first k entries
    # of the whole collection, in the order found, each with the same label
    # tuple, and explores no more nodes than the whole run.
    rng = random.Random(2727)
    graphs = [complete_graph(n) for n in (3, 4, 5)]
    graphs += [random_graph_no_isolates(rng, n_min=4, n_max=7, max_edges=10) for _ in range(12)]
    for g in graphs:
        plan = SearchPlan.of(g)
        for s in (3, 4):
            whole, whole_nodes = search_labelings(plan, s, collect_all=True)
            entries = list(whole.items())
            for k in {1, 2, 3, len(entries) // 2 or 1, len(entries), len(entries) + 1}:
                got, nodes = search_labelings(plan, s, collect_all=True, stop_after=k)
                assert list(got.items()) == entries[:k], (g, s, k)
                assert nodes <= whole_nodes, (g, s, k)
                if k > len(entries):
                    assert nodes == whole_nodes


def test_combine_picks_identical_levels_in_order():
    # Three levels share one list: the second picks past the first's pick
    # and the third past the second's, so {1}, {2}, {3} is the only
    # combination tried in that order, after 3 nodes and not 6.
    shared = [((1,), (1,)), ((2,), (2,)), ((3,), (3,))]
    assert solver._combine_levels([shared] * 3, 3, DEFAULT_BUDGET) == (
        [(1,), (2,), (3,)], 3)
    # Equal lists that are not the same list are other shapes: no order.
    assert solver._combine_levels([list(shared) for _ in range(3)], 3, DEFAULT_BUDGET) == (
        [(1,), (2,), (3,)], 6)
    # Four levels over three multisets fail; each level fails once per mask
    # and start, so the refutation ends after the first level's 3 tries,
    # the second's 2 + 1 and the third's 1: 7 nodes.
    assert solver._combine_levels([shared] * 4, 3, DEFAULT_BUDGET) == (None, 7)
    # The set given gets the levels that ran to the end of their list: two
    # levels over one multiset fail, and the third level is never reached.
    ran_out = set()
    assert solver._combine_levels([shared[:1]] * 2 + [shared], 3, DEFAULT_BUDGET,
                                  ran_out=ran_out) == (None, 1)
    assert ran_out == {0, 1}
    # A searched level keeps its result per set of taken values, in the
    # dict given: the second call searches nothing and counts only picks.
    k3 = SearchPlan.of(complete_graph(3))
    searched = {}
    first = solver._combine_levels([shared, k3], 5, DEFAULT_BUDGET, searched)
    assert list(searched) == [frozenset({1})]
    assert solver._combine_levels([shared, k3], 5, DEFAULT_BUDGET, searched) == (
        first[0], 1)
    assert first[1] > 1


def repeated_shape_unions(count, seed):
    """count unions of 2 to 4 copies of one connected graph of order 3 to
    5, plus at most one other, each with no vertex of degree 1 and at most
    12 vertices in all, with their vertices renumbered at random."""
    rng = random.Random(seed)

    def shape():
        while True:
            g = random_connected_graph(rng, rng.randint(3, 5))
            if min(collections.Counter(v for e in g.edges for v in e).values()) >= 2:
                return g

    unions = []
    while len(unions) < count:
        parts = [shape()] * rng.randint(2, 4)
        if rng.random() < 0.5:
            parts.append(shape())
        if sum(h.n_vertices for h in parts) > 12:
            continue
        rng.shuffle(parts)
        g = parts[0]
        for h in parts[1:]:
            g = disjoint_union(g, h)
        unions.append(permute_graph(rng, g)[0])
    return unions


def test_repeated_shape_unions_agree_with_the_whole_search():
    # Repeated shapes are collected lazily and picked in order: the value
    # must be ps_exact's, and a certificate must give every vertex its own
    # product.
    kinds = collections.Counter()
    for g in repeated_shape_unions(40, 2727):
        r = ps_exact_disconnected(g, 5)
        assert not r.budget_exhausted
        assert r.value == ps_exact(g, 5).value
        if r.found:
            products = brute_products(labeled_graph_to_matrix(r.certificate))
            assert len(set(products)) == g.n_vertices
            assert max(r.certificate.labels.values()) <= r.value
        kinds[r.value] += 1
    assert kinds == {3: 4, 4: 11, 5: 14, None: 11}


def strip(labels, fixed):
    """labels without the fixed edges."""
    return {e: w for e, w in labels.items() if e not in fixed}


def label_maps(g, sigs):
    """Collect mode's label tuples of g as label maps of g's edges."""
    edges = SearchPlan.of(g).edges
    return {k: dict(zip(edges, labels)) for k, labels in sigs.items()}


def free_graph_and_products(g, fixed):
    """g without the fixed edges, and each vertex's product of fixed labels."""
    products = [1] * g.n_vertices
    for (u, v), w in fixed.items():
        products[u] *= w
        products[v] *= w
    return Graph(g.n_vertices, g.edges.difference(fixed)), products


class TestSearchCore:
    def test_fixed_labels_respected(self):
        # Edge 0-1 fixed at 2 counts toward the products of 0 and 1.
        g = complete_graph(3)
        free, products = free_graph_and_products(g, {edge_key(0, 1): 2})
        sols, _ = search_labelings(free, 3, products)
        assert sols and set(sols[0]) == free.edges
        labeling = EdgeLabeling(g, {**sols[0], edge_key(0, 1): 2}, 3)
        assert is_product_irregular(labeling).ok

    def test_infeasible_fixed_block_prunes_immediately(self):
        # two fixed components with identical degrees collide at depth zero
        g = disjoint_union(complete_graph(3), complete_graph(3))
        free, products = free_graph_and_products(g, {e: 1 for e in g.edges})
        sols, nodes = search_labelings(free, 3, products)
        assert sols == [] and nodes == 0

    def test_pinned_vertices_colliding_before_the_search(self):
        # Vertices 0 and 3 have every edge fixed, both with product 2; the
        # edge 1-2 stays free, so the collision is found before any node.
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        free, products = free_graph_and_products(g, {(0, 1): 2, (2, 3): 2})
        assert search_labelings(free, 3, products) == ([], 0)
        assert search_labelings(free, 3, products, collect_all=True) == ({}, 0)

    def test_isolated_vertices_are_not_pinned(self):
        # Without products, vertices 4 and 5 have no edges and stay out of
        # the prune, so vertex 0 may share their product 1; with products
        # they are finished before the search, and collide at 1.
        g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3)])
        sols, nodes = search_labelings(g, 3)
        assert nodes > 0 and sols == [{(0, 1): 1, (1, 2): 2, (2, 3): 3}]
        assert search_labelings(g, 3, [1] * 6) == ([], 0)

    def test_matches_the_reference_search(self, rng):
        # Every answer, node count and budget stop of search_labelings is
        # the reference search's, so certificates, fallback labelings and
        # the node counts the budgets are spent by all stay put. The
        # search gets g without the fixed edges plus their products; the
        # reference labels the fixed edges too. With pruning on, closed
        # twins of the free graph with equal fixed products finish in
        # increasing order, against the reference with its own twin rule.
        # With nothing fixed the search also runs without products, where
        # the s = 2 count stays the unbroken walk's.
        for _ in range(40):
            g = random_graph_no_isolates(rng, n_min=4, n_max=7, max_edges=11)
            edges = sorted(g.edges)
            fixed = {e: rng.randint(1, 3) for e in rng.sample(edges, rng.randint(0, 3))}
            free, products = free_graph_and_products(g, fixed)
            for s in (2, 3):
                for prune, collect_all in ((True, False), (True, True), (False, False)):
                    budget = rng.choice([10**9, rng.randint(1, 400)])
                    for given in (products, None) if not fixed else (products,):
                        args = (free, s, given, budget, prune, collect_all)
                        try:
                            want, want_nodes = reference_search(g, s, fixed, budget, prune,
                                                                collect_all,
                                                                given is not None or s >= 3)
                        except BudgetExhausted as exc:
                            with pytest.raises(BudgetExhausted) as got:
                                search_labelings(*args)
                            assert got.value.args == exc.args
                            continue
                        got, nodes = search_labelings(*args)
                        if collect_all:
                            want = {k: strip(sol, fixed) for k, sol in want.items()}
                            got = label_maps(free, got)
                        else:
                            want = [strip(sol, fixed) for sol in want]
                        assert (got, nodes) == (want, want_nodes)
        # Clique components realize each multiset at many leaves, so the
        # first label tuple per multiset is the one that has to be kept;
        # nearly all of their vertices are closed twins.
        for g in (complete_graph(4), complete_graph(5), k3_k3_edge(), clique_union(4, 4)):
            want, want_nodes = reference_search(g, 3, {}, 10**9, True, True, True)
            got, nodes = search_labelings(g, 3, collect_all=True)
            assert (label_maps(g, got), nodes) == (want, want_nodes)
            assert search_labelings(g, 3) == reference_search(g, 3, {}, 10**9, True, False,
                                                              True)

    def test_taken_products_are_avoided(self, rng):
        # With products taken, collect mode finds exactly the multisets of
        # the search without them that share no value with them, and find
        # mode a labeling whenever one of those exists.
        for _ in range(30):
            g = random_graph_no_isolates(rng, n_min=3, n_max=6, max_edges=8)
            plan = SearchPlan.of(g)
            for s in (3, 4):
                every, _ = search_labelings(plan, s, collect_all=True)
                taken = set(rng.sample(range(1, 2 * s * s), rng.randint(1, 6)))
                got, _ = search_labelings(plan, s, collect_all=True, taken=taken)
                assert got.keys() == {key for key in every if taken.isdisjoint(key)}
                found, _ = search_labelings(plan, s, taken=taken)
                assert bool(found) == bool(got)
                if found:
                    report = is_product_irregular(EdgeLabeling(g, found[0], s))
                    assert report.ok and taken.isdisjoint(d.value for d in report.degrees)

    def test_s2_count_is_the_walk_without_the_twin_rule(self):
        # With nothing taken the s = 2 count is computed, as if no twin
        # were broken. With 0 taken, which no product is, the walk runs and
        # breaks the twins of K_n, so it counts fewer nodes.
        for n, counted, walked in ((4, 102, 82), (5, 1070, 566)):
            plan = SearchPlan.of(complete_graph(n))
            assert search_labelings(plan, 2) == ([], counted)
            assert search_labelings(plan, 2, taken=[0]) == ([], walked)

    def test_budget_raises(self):
        # The exception carries the node count, one past the budget.
        g = complete_graph(5)
        with pytest.raises(BudgetExhausted) as exc:
            search_labelings(g, 3, budget=10)
        assert exc.value.args == (11,)


def test_k4_characterization_holds():
    assert verify_k4_characterization()
