import pytest

from pistr.graphs import (EdgeLabeling, Graph, add_cross_edge, complete_graph,
                          disjoint_union, edge_key)
from pistr.solver import (BudgetExhausted, Pinned, component_signatures, ps_exact,
                          ps_exact_disconnected, search_labelings,
                          verify_k4_characterization)
from pistr.verifier import extend_with_ones, is_product_irregular

from conftest import random_graph_no_isolates


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
        with pytest.raises(ValueError):
            ps_exact(complete_graph(2), 3)
        with pytest.raises(ValueError):
            ps_exact(disjoint_union(complete_graph(1), complete_graph(4)), 3)
        # a star is fine: no isolated vertex, no isolated edge
        assert ps_exact(Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)]), 3).found

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
    def test_k2_has_no_signatures(self):
        assert component_signatures(complete_graph(2), 3) == []
        assert component_signatures(complete_graph(2), 5) == []

    def test_k3_contains_the_triangle_signature(self):
        sigs = component_signatures(complete_graph(3), 3)
        assert (2, 3, 6) in {s.degree_values for s in sigs}

    def test_k4_signatures_all_contain_six(self):
        sigs = component_signatures(complete_graph(4), 3)
        assert sigs and all(6 in s.degree_values for s in sigs)

    def test_representatives_verify(self):
        for sig in component_signatures(complete_graph(4), 3):
            report = is_product_irregular(sig.labeling)
            assert report.ok
            assert tuple(sorted(d.value for d in report.degrees)) == \
                sig.degree_values

    def test_requires_connected(self):
        with pytest.raises(ValueError):
            component_signatures(disjoint_union(complete_graph(3),
                                                complete_graph(3)), 3)


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

    def test_budget_surfaces(self):
        g = disjoint_union(complete_graph(4), complete_graph(4))
        r = ps_exact_disconnected(g, 4, budget=20)
        assert r.budget_exhausted and r.value is None


class TestSearchCore:
    def test_fixed_labels_respected(self):
        g = complete_graph(3)
        fixed = {edge_key(0, 1): 1}
        sols, _ = search_labelings(g, 3, fixed=fixed)
        assert sols and sols[0][edge_key(0, 1)] == 1

    def test_infeasible_fixed_block_prunes_immediately(self):
        # two fixed components with identical degrees collide at depth zero
        g = disjoint_union(complete_graph(3), complete_graph(3))
        fixed = {e: 1 for e in g.edges}
        sols, nodes = search_labelings(g, 3, fixed=fixed)
        assert sols == [] and nodes == 0

    def test_pinned_vertices_colliding_before_the_search(self):
        # Vertices 0 and 3 have every edge fixed, both with product 2; the
        # edge 1-2 stays free, so the collision is found before any node.
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        fixed = {(0, 1): 2, (2, 3): 2}
        assert search_labelings(g, 3, fixed=fixed) == ([], 0)
        assert search_labelings(g, 3, fixed=fixed, collect_all=True) == ({}, 0)

    def test_isolated_vertices_are_not_pinned(self):
        # Vertices 4 and 5 have no edges (product 1, like nothing else at
        # depth zero); only vertices with a fixed edge enter the prune.
        g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3)])
        sols, nodes = search_labelings(g, 3, fixed={(0, 1): 2, (2, 3): 3})
        assert nodes > 0 and sols == [{(0, 1): 2, (2, 3): 3, (1, 2): 2}]

    @pytest.mark.parametrize("s", [2, 3])
    def test_pinned_products_search_like_fixed_labels(self, rng, s):
        # Fixing labels as a dict or handing over only their products and
        # pinned vertices explores the same nodes and labels the free edges
        # alike; the Pinned search returns the free edges alone.
        for _ in range(20):
            g = random_graph_no_isolates(rng, n_min=5, n_max=7, max_edges=12)
            edges = sorted(g.edges)
            fixed = {e: rng.randint(1, 3) for e in rng.sample(edges, len(edges) // 2)}
            products, pinned = [1] * g.n_vertices, [False] * g.n_vertices
            for (u, v), w in fixed.items():
                products[u] *= w
                products[v] *= w
                pinned[u] = pinned[v] = True
            free = Graph(g.n_vertices, g.edges.difference(fixed))
            for collect_all in (False, True):
                want, want_nodes = search_labelings(g, s, fixed=fixed,
                                                    collect_all=collect_all)
                got, nodes = search_labelings(free, s, collect_all=collect_all,
                                              fixed=Pinned(tuple(products), tuple(pinned)))
                assert nodes == want_nodes
                if collect_all:
                    assert got == {k: {e: w for e, w in sol.items() if e not in fixed}
                                   for k, sol in want.items()}
                else:
                    assert got == [{e: w for e, w in sol.items() if e not in fixed}
                                   for sol in want]

    def test_budget_raises(self):
        g = complete_graph(5)
        with pytest.raises(BudgetExhausted):
            search_labelings(g, 3, budget=10)


def test_k4_characterization_holds():
    assert verify_k4_characterization()
