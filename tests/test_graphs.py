import collections
import itertools
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from pistr.engine import construct_labeling
from pistr.fileio import emit_graph, parse_graph
from pistr.graphs import (CliqueCover, EdgeLabeling, Graph, add_cross_edge,
                          clique_cover, closed_masks, complete_graph, component_subgraphs,
                          disjoint_union, has_isolated_vertex_or_edge, is_connected,
                          labeled_graph_to_matrix, matrix_to_labeled_graph)
from pistr.graphs import _complement_masks
from pistr.matrices import fixed_matrix, m_matrix
from pistr.verifier import is_product_irregular

from conftest import (complement_of, cycle_complement, deadline, dense_planted_cover,
                      grotzsch_blowup_complement, permute_graph, planted_cover_graph,
                      random_graph_no_isolates, random_labeling)


def brute_min_cover(g: Graph) -> int:
    """Minimum clique-partition size by enumerating all set partitions."""
    def is_clique(part):
        return all(g.has_edge(u, v) for u, v in itertools.combinations(part, 2))

    best = [g.n_vertices]

    def assign(v, parts):
        if len(parts) >= best[0]:
            return
        if v == g.n_vertices:
            best[0] = len(parts)
            return
        for part in parts:
            if all(g.has_edge(v, u) for u in part):
                part.append(v)
                assign(v + 1, parts)
                part.pop()
        parts.append([v])
        assign(v + 1, parts)
        parts.pop()

    assign(0, [])
    return best[0]


def colouring_families(rng) -> list[Graph]:
    """Random graphs, renumbered planted covers, and the complements of
    sparse random graphs, of cycles, of paths and of a cycle beside a path:
    graphs on which the colouring both finds covers and refutes them."""
    graphs = [random_graph_no_isolates(rng, n_min=2, n_max=11) for _ in range(120)]
    graphs += [permute_graph(rng, planted_cover_graph(rng, sizes, extra))[0]
               for sizes, extra in [((1, 4), 0), ((3, 4), 5), ((5, 9), 12),
                                    ((4, 5, 6), 8), ((2, 2, 2), 3)]
               for _ in range(4)]
    for _ in range(300):
        n = rng.randint(1, 12)
        graphs.append(complement_of(n, [e for e in itertools.combinations(range(n), 2)
                                        if rng.random() < 1.5 / n]))
    for n in range(1, 10):
        cycle = [(i, (i + 1) % n) for i in range(n)] if n > 2 else []
        path = [(i, i + 1) for i in range(n - 1)]
        for edges in (cycle, path, cycle + [(u + n, v + n) for u, v in path]):
            graphs.append(complement_of(2 * n, edges))
    return graphs


class TestBuilders:
    def test_complete_graph_sizes(self):
        assert complete_graph(1).n_edges == 0
        assert complete_graph(4).n_edges == 6
        assert complete_graph(7).n_edges == 21

    def test_complete_graph_rejects_zero(self):
        with pytest.raises(ValueError):
            complete_graph(0)

    def test_disjoint_union_counts(self):
        g = disjoint_union(complete_graph(4), complete_graph(4))
        assert (g.n_vertices, g.n_edges) == (8, 12)
        g = disjoint_union(complete_graph(1), complete_graph(4))
        assert (g.n_vertices, g.n_edges) == (5, 6)
        g = disjoint_union(disjoint_union(complete_graph(5), complete_graph(5)),
                           complete_graph(4))
        assert (g.n_vertices, g.n_edges) == (14, 26)

    def test_disjoint_union_offsets_second_block(self):
        g = disjoint_union(complete_graph(2), complete_graph(3))
        assert (0, 1) in g.edges and (2, 3) in g.edges and (2, 4) in g.edges

    def test_add_cross_edge(self):
        g = add_cross_edge(disjoint_union(complete_graph(3), complete_graph(3)), 0, 3)
        assert g.n_edges == 7
        g = add_cross_edge(disjoint_union(complete_graph(2), complete_graph(4)), 0, 2)
        assert g.n_edges == 8

    def test_add_cross_edge_rejects_existing_and_loops(self):
        g = complete_graph(3)
        with pytest.raises(ValueError):
            add_cross_edge(g, 0, 1)
        with pytest.raises(ValueError):
            add_cross_edge(g, 2, 2)
        with pytest.raises(ValueError, match="^endpoint out of range$"):
            add_cross_edge(g, 0, 3)

    def test_graph_invariants(self):
        with pytest.raises(ValueError):
            Graph(3, frozenset({(0, 3)}))
        with pytest.raises(ValueError, match="^vertex count must be nonnegative$"):
            Graph(-1, frozenset())
        with pytest.raises(ValueError):
            Graph(3, frozenset({(1, 1)}))

    @pytest.mark.parametrize("edges,message", [
        ({(1, 1)}, "loop at vertex 1"),
        ({(0, 3)}, "edge (0,3) out of range or not normalized"),
        ({(-1, 2)}, "edge (-1,2) out of range or not normalized"),
        ({(2, 0)}, "edge (2,0) out of range or not normalized"),
    ])
    def test_public_graph_rejects(self, edges, message):
        with pytest.raises(ValueError) as err:
            Graph(3, frozenset(edges))
        assert str(err.value) == message

    @pytest.mark.parametrize("labels,strength,message", [
        ({(0, 1): 1}, 3, "labels must cover exactly the edges of the graph"),
        ({(0, 1): 1, (1, 2): 2, (0, 2): 3}, 3,
         "labels must cover exactly the edges of the graph"),
        ({(0, 1): 1, (1, 2): 4}, 3, "label 4 on edge (1, 2) outside 1..3"),
        ({(0, 1): 0, (1, 2): 1}, 3, "label 0 on edge (0, 1) outside 1..3"),
        ({(0, 1): 1, (1, 2): 1}, 0, "strength must be >= 1"),
    ])
    def test_public_labeling_rejects(self, labels, strength, message):
        path = Graph(3, frozenset({(0, 1), (1, 2)}))
        with pytest.raises(ValueError) as err:
            EdgeLabeling(path, labels, strength)
        assert str(err.value) == message
        with pytest.raises(ValueError) as err:
            EdgeLabeling.make(path, {(v, u): w for (u, v), w in labels.items()}, strength)
        assert str(err.value) == message

    def test_make_takes_the_strength_from_the_labels(self):
        path = Graph(3, frozenset({(0, 1), (1, 2)}))
        assert EdgeLabeling.make(path, {(1, 0): 2, (2, 1): 5}).strength == 5
        with pytest.raises(ValueError):
            EdgeLabeling.make(path, {(1, 0): 2, (2, 1): 0})

    def test_array_backed_graph_matches_the_public_one(self, rng):
        for _ in range(20):
            g = random_graph_no_isolates(rng)
            labeling = EdgeLabeling.make(g, random_labeling(rng, g, s=5))
            h, packed = matrix_to_labeled_graph(labeled_graph_to_matrix(labeling))
            assert "edges" not in h.__dict__  # built from arrays, read lazily
            assert h == g and hash(h) == hash(g) and h.n_edges == g.n_edges
            assert h.components == g.components
            assert h.edges == g.edges and packed.labels == labeling.labels
            assert packed == labeling
            assert [e.tolist() for e in h.ends] == [e.tolist() for e in g.ends]
            with pytest.raises(AttributeError):
                h.n_vertices = 1
            with pytest.raises(AttributeError):
                packed.strength = 1


class TestOneStoredForm:
    """A graph holds its edge arrays and a labeling its label array, built
    once from the checked input; nothing the caller keeps can change them."""

    def test_graph_keeps_no_reference_to_the_callers_set(self):
        edges = {(0, 1), (1, 2)}
        g = Graph(3, edges)
        edges.discard((0, 1))
        edges.add((0, 2))
        assert g.edges == {(0, 1), (1, 2)} and g.n_edges == 2
        assert [e.tolist() for e in g.ends] == [[0, 1], [1, 2]]
        assert g == Graph(3, frozenset({(0, 1), (1, 2)}))

    def test_labeling_keeps_no_reference_to_the_callers_dict(self):
        g = Graph(3, frozenset({(0, 1), (1, 2)}))
        labels = {(0, 1): 1, (1, 2): 2}
        labeling = EdgeLabeling(g, labels, 3)
        labels[0, 1] = 99
        assert labeling.labels == {(0, 1): 1, (1, 2): 2}
        assert labeling.values.tolist() == [1, 2]
        assert emit_graph(g, labeling) == "p 3 2\ne 1 2 1\ne 2 3 2\n"
        with pytest.raises(TypeError):
            labeling.labels[0, 1] = 3  # a read-only view

    @pytest.mark.parametrize("n, edges, message", [
        (3, {(0.5, 2), (0, 1)}, "edge (0.5,2) has a vertex that is not an integer"),
        (3, {(0, 1), (1, 2.0)}, "edge (1,2.0) has a vertex that is not an integer"),
        (3.0, {(0, 1), (1, 2)}, "vertex count 3.0 is not an integer"),
        ("3", {(0, 1)}, "vertex count '3' is not an integer"),
        # a count past int64 is refused before np.fromiter reads the ids
        (2**70, {(0, 2**65)}, f"vertex count {2**70} does not fit int64"),
        (2**64, set(), f"vertex count {2**64} does not fit int64"),
        (2**63, {(0, 1)}, f"vertex count {2**63} does not fit int64"),
    ])
    def test_graph_rejects_non_integers(self, n, edges, message):
        with pytest.raises(ValueError) as err:
            Graph(n, frozenset(edges))
        assert str(err.value) == message

    def test_graph_takes_the_largest_int64_count(self):
        assert Graph(2**63 - 1, {(0, 2**63 - 2)}).ends[1].tolist() == [2**63 - 2]

    @pytest.mark.parametrize("labels, message", [
        ({(1, 0): 2.5}, "label 2.5 on edge (0, 1) is not an integer"),
        ({(0, 1): 2, (1, 2): "3"}, "label '3' on edge (1, 2) is not an integer"),
        ({(0, 1): 0, (1, 2): 2}, "label 0 on edge (0, 1) outside 1..2"),
    ])
    def test_make_names_the_label_not_the_strength(self, labels, message):
        # with no strength given, make takes the largest integer label
        g = Graph(3, {(0, 1), (1, 2)}) if len(labels) == 2 else complete_graph(2)
        with pytest.raises(ValueError) as err:
            EdgeLabeling.make(g, labels)
        assert str(err.value) == message

    @pytest.mark.parametrize("labels, strength, message", [
        ({(0, 1): 2.5}, 3, "label 2.5 on edge (0, 1) is not an integer"),
        ({(0, 1): 2.0}, 3, "label 2.0 on edge (0, 1) is not an integer"),
        ({(0, 1): 2}, 3.0, "strength 3.0 is not an integer"),
    ])
    def test_labeling_rejects_non_integers(self, labels, strength, message):
        k2 = complete_graph(2)
        with pytest.raises(ValueError) as err:
            EdgeLabeling(k2, labels, strength)
        assert str(err.value) == message
        with pytest.raises(ValueError) as err:
            EdgeLabeling.make(k2, {(1, 0): w for w in labels.values()}, strength)
        assert str(err.value) == message

    def test_numpy_integers_accepted(self):
        g = Graph(np.int64(300), {(np.uint8(200), np.int16(299)), (np.int32(0), 1)})
        assert g == Graph(300, frozenset({(0, 1), (200, 299)}))
        assert type(g.n_vertices) is int
        assert [e.tolist() for e in g.ends] == [[0, 200], [1, 299]]
        labeling = EdgeLabeling(g, {(0, 1): np.int64(2), (200, 299): np.uint8(3)},
                                np.int16(3))
        assert labeling.values.tolist() == [2, 3] and labeling.strength == 3
        assert labeling.labels == {(0, 1): 2, (200, 299): 3}

    def test_hand_built_equals_parsed(self, rng):
        for _ in range(20):
            g = random_graph_no_isolates(rng)
            labels = random_labeling(rng, g, s=4)
            labeling = EdgeLabeling(g, labels, max(labels.values()))  # as the parser reads it
            h, parsed = parse_graph(emit_graph(g, labeling))
            assert h == g and hash(h) == hash(g)
            assert parsed == labeling and parsed.labels == labeling.labels
            assert parse_graph(emit_graph(g))[0] == g
        assert len({g, Graph(g.n_vertices, g.edges), h}) == 1


class TestLabelsView:
    """``EdgeLabeling.labels`` reads ``graph.ends`` and ``values`` and stores
    nothing, yet reads as the dict of edge -> label it replaces."""

    WANT = {(0, 1): 3, (0, 4): 1, (1, 2): 2, (3, 4): 2**63}

    def labeling(self) -> EdgeLabeling:
        return EdgeLabeling(Graph(5, frozenset(self.WANT)), self.WANT, 2**63)

    def test_reads_as_a_dict(self):
        labels, want = self.labeling().labels, self.WANT
        assert labels == want and want == labels and not labels != want
        assert labels != {**want, (0, 1): 2} and labels != {(0, 1): 3}
        assert dict(labels) == want and len(labels) == 4 and repr(labels) == repr(want)
        assert (0, 1) in labels and (1, 0) not in labels and labels.get((2, 3)) is None
        assert 2 in labels.values() and 5 not in labels.values()
        assert ((1, 2), 2) in labels.items() and ((1, 2), 3) not in labels.items()
        assert labels.keys() == want.keys()

    def test_iterates_in_sorted_edge_order(self):
        labels, want = self.labeling().labels, self.WANT
        assert list(labels) == list(labels.keys()) == sorted(want)
        assert list(labels.values()) == [want[e] for e in sorted(want)]
        assert list(labels.items()) == sorted(want.items())

    def test_labels_are_exact_python_ints(self):
        labeling = self.labeling()
        assert labeling.values.dtype == object  # 2^63 does not fit int64
        assert labeling.labels[3, 4] == 2**63 and labeling.label(4, 3) == 2**63
        small = EdgeLabeling(Graph(3, {(0, 1), (1, 2)}), {(0, 1): 2, (1, 2): 3}, 3)
        assert small.values.dtype == np.int64
        for lab in (labeling, small):
            assert all(type(w) is int for w in lab.labels.values())
            assert all(type(lab.labels[e]) is int for e in lab.labels)
            assert all(type(w) is int for _, w in lab.labels.items())

    @pytest.mark.parametrize("key", [(1, 0), (4, 3), (0, 2), (2, 2), (2, 3), (-1, 0),
                                     (0, 5), (4, 5), (0, 2**70), (0,), (0, 1, 2),
                                     "01", None, 1])
    def test_absent_or_unnormalized_pair(self, key):
        with pytest.raises(KeyError):
            self.labeling().labels[key]

    def test_numpy_integer_keys(self):
        labels = self.labeling().labels
        assert labels[np.int64(0), np.uint8(1)] == 3 and labels[np.int32(3), 4] == 2**63

    def test_read_only(self):
        labeling = self.labeling()
        with pytest.raises(TypeError):
            labeling.labels[0, 1] = 2
        with pytest.raises(TypeError):
            del labeling.labels[0, 1]
        assert labeling.labels == self.WANT

    def test_rebuilds_a_labeling(self):
        labeling = self.labeling()
        assert EdgeLabeling(labeling.graph, labeling.labels, 2**63) == labeling
        g, packed = matrix_to_labeled_graph(labeled_graph_to_matrix(
            EdgeLabeling(complete_graph(4), dict.fromkeys(complete_graph(4).edges, 2), 2)))
        assert EdgeLabeling(g, packed.labels, packed.strength) == packed

    def test_reading_the_values_copies_nothing_per_edge(self):
        # K448: 100,128 edges with labels 1..3, array-backed
        n = 448
        m = np.triu(np.random.default_rng(448).integers(1, 4, (n, n)), 1)
        _, labeling = matrix_to_labeled_graph(m + m.T)
        edges = labeling.graph.n_edges
        assert edges >= 100_000
        tracemalloc.start()
        try:
            top = max(labeling.labels.values())
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert top == 3
        assert peak < 32 * edges  # the cached dict took 197 B an edge
        assert kept < 4096 and set(vars(labeling)) == {"graph", "values", "strength"}


class TestMatrixConversion:
    def test_t_matrix_to_triangle(self):
        g, labeling = matrix_to_labeled_graph(fixed_matrix("T"))
        assert g.n_vertices == 3 and g.n_edges == 3
        assert labeling.label(0, 1) == 1
        assert labeling.label(0, 2) == 2
        assert labeling.label(1, 2) == 3

    def test_zero_matrix_gives_edgeless_graph(self):
        g, labeling = matrix_to_labeled_graph(np.zeros((4, 4), dtype=int))
        assert g.n_edges == 0 and not labeling.labels

    def test_roundtrip_m7(self):
        m = m_matrix(7, 1, 2, 3)
        _, labeling = matrix_to_labeled_graph(m)
        assert np.array_equal(labeled_graph_to_matrix(labeling), m)

    def test_roundtrip_from_labeling(self, rng):
        for _ in range(20):
            g = random_graph_no_isolates(rng)
            labeling = EdgeLabeling.make(g, random_labeling(rng, g))
            g2, labeling2 = matrix_to_labeled_graph(labeled_graph_to_matrix(labeling))
            assert g2 == g and labeling2.labels == labeling.labels

    def test_invalid_matrices_rejected(self):
        with pytest.raises(ValueError):
            matrix_to_labeled_graph(np.array([[0, 1], [2, 0]]))
        with pytest.raises(ValueError):
            matrix_to_labeled_graph(np.array([[0, -1], [-1, 0]]))
        with pytest.raises(ValueError):
            matrix_to_labeled_graph(np.array([[1, 1], [1, 0]]))


class TestConnectivity:
    def test_is_connected(self):
        g = disjoint_union(complete_graph(4), complete_graph(4))
        assert not is_connected(g)
        assert is_connected(add_cross_edge(g, 0, 4))

    def test_isolated_vertex_or_edge(self):
        assert has_isolated_vertex_or_edge(complete_graph(2))
        assert has_isolated_vertex_or_edge(disjoint_union(complete_graph(1),
                                                          complete_graph(4)))
        assert not has_isolated_vertex_or_edge(complete_graph(3))

    def test_components(self):
        g = disjoint_union(complete_graph(3), complete_graph(2))
        assert g.components == ((0, 1, 2), (3, 4))

    def test_components_cached_and_not_shared(self):
        g = Graph.from_edges(6, [(4, 1), (1, 3), (2, 5)])
        first = g.components
        assert first == ((0,), (1, 3, 4), (2, 5))
        with pytest.raises(AttributeError):
            first[1].append(0)
        assert g.components == ((0,), (1, 3, 4), (2, 5))
        assert g.components is g.components
        assert has_isolated_vertex_or_edge(g) and not is_connected(g)

    def test_components_agree_with_a_search(self, rng):
        for _ in range(30):
            n = rng.randint(1, 12)
            pairs = list(itertools.combinations(range(n), 2))
            g = Graph.from_edges(n, rng.sample(pairs, rng.randint(0, min(n, len(pairs)))))
            comps = g.components
            neighbors = {v: set() for v in range(n)}
            for u, v in g.edges:
                neighbors[u].add(v)
                neighbors[v].add(u)
            assert sorted(v for c in comps for v in c) == list(range(n))
            assert [c[0] for c in comps] == sorted(c[0] for c in comps)
            for comp in comps:
                reached, stack = {comp[0]}, [comp[0]]
                while stack:
                    for u in neighbors[stack.pop()]:
                        if u not in reached:
                            reached.add(u)
                            stack.append(u)
                assert tuple(sorted(reached)) == comp
            assert is_connected(g) == (len(comps) == 1)
            assert has_isolated_vertex_or_edge(g) == any(len(c) <= 2 for c in comps)

    @staticmethod
    def brute_components(n, edges):
        """Components by breadth-first search from each unreached vertex."""
        neighbors = [[] for _ in range(n)]
        for u, v in edges:
            neighbors[u].append(v)
            neighbors[v].append(u)
        comps, reached = [], set()
        for start in range(n):
            if start in reached:
                continue
            comp, queue = {start}, collections.deque([start])
            while queue:
                for w in neighbors[queue.popleft()]:
                    if w not in comp:
                        comp.add(w)
                        queue.append(w)
            reached |= comp
            comps.append(tuple(sorted(comp)))
        return tuple(comps)

    def test_components_agree_with_breadth_first_search(self, rng):
        # many components under a shuffled numbering: isolated vertices,
        # isolated edges, paths and denser pieces, n = 0 and n = 1 included
        for trial in range(400):
            n = trial if trial < 2 else rng.randint(2, 60)
            n_groups = rng.randint(1, max(1, n // 2))
            group = [rng.randrange(n_groups) for _ in range(n)]
            p = rng.choice([0.0, 0.05, 0.2, 0.6])
            edges = [(u, v) for u, v in itertools.combinations(range(n), 2)
                     if group[u] == group[v] and rng.random() < p]
            edges += [(v, v + 1) for v in range(n - 1) if rng.random() < 0.05]
            g = Graph.from_edges(n, edges)
            want = self.brute_components(n, g.edges)
            assert g.components == want
            assert is_connected(g) == (len(want) <= 1)
            assert has_isolated_vertex_or_edge(g) == any(len(c) <= 2 for c in want)
            # the split cuts at the vertices that are their own root: the
            # smallest vertex of each component
            heads = np.flatnonzero(g._roots == np.arange(n)).tolist()
            assert heads == np.unique(g._roots).tolist() == [c[0] for c in want]
            subs = component_subgraphs(g)
            assert [old for _, old in subs] == [list(c) for c in want]
            for sub, old in subs:  # each vertex renumbered by its rank in old
                index = {v: i for i, v in enumerate(old)}
                ref = Graph.from_edges(len(old), [(index[u], index[v]) for u, v in g.edges
                                                  if u in index])
                assert sub.n_vertices == ref.n_vertices
                assert all(map(np.array_equal, sub.ends, ref.ends))

    def test_split_leaves_numpy_ma_unimported(self):
        # np.unique imports numpy.ma on first use under NumPy 2; the split
        # of an exact search must not pay for that import.
        code = ("import sys; sys.path.insert(0, sys.argv[1]); "
                "from pistr.graphs import complete_graph, component_subgraphs, disjoint_union; "
                "component_subgraphs(disjoint_union(complete_graph(4), complete_graph(3))); "
                "print('numpy.ma' in sys.modules)")
        src = Path(__file__).resolve().parents[1] / "src"
        out = subprocess.run([sys.executable, "-c", code, str(src)], capture_output=True,
                             text=True, check=True).stdout
        assert out == "False\n"

    def test_shuffled_path_is_one_component(self):
        def keys_of(a, b, n):
            return np.minimum(a, b) * n + np.maximum(a, b)

        n = 10 ** 5
        order = np.random.default_rng(5).permutation(n)
        a, b = order[:-1], order[1:]
        keys = np.sort(keys_of(a, b, n))
        g = Graph._from_ends(n, *np.divmod(keys, n))
        assert is_connected(g) and not has_isolated_vertex_or_edge(g)
        assert g.components == (tuple(range(n)),)
        # without the middle edge of the path: its two halves
        k = n // 2
        cut = Graph._from_ends(n, *np.divmod(keys[keys != keys_of(a[k], b[k], n)], n))
        halves = order[:k + 1], order[k + 1:]
        assert cut.components == tuple(sorted(tuple(sorted(h.tolist())) for h in halves))
        assert not is_connected(cut) and not has_isolated_vertex_or_edge(cut)



class TestCliqueCover:
    def test_complete_graph_one_part(self):
        cover = clique_cover(complete_graph(6), 3)
        assert cover.sizes == (6,)

    def test_edgeless_graph_needs_n_parts(self):
        g = Graph(5, frozenset())
        assert clique_cover(g, 4) is None
        cover = clique_cover(g, 5)
        assert cover.n_parts == 5

    def test_c5_needs_three_parts(self):
        c5 = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
        assert brute_min_cover(c5) == 3  # independent oracle
        cover = clique_cover(c5, 3)
        assert cover.n_parts == 3

    def test_parts_are_cliques_and_partition(self, rng):
        for _ in range(20):
            g = random_graph_no_isolates(rng, n_min=5, n_max=8)
            cover = clique_cover(g, g.n_vertices)
            seen = set()
            for part in cover.parts:
                for u, v in itertools.combinations(part, 2):
                    assert g.has_edge(u, v)
                seen.update(part)
            assert seen == set(range(g.n_vertices))
            assert cover.sizes == tuple(sorted(cover.sizes))

    def test_matches_brute_force_minimum(self, rng):
        for _ in range(25):
            g = random_graph_no_isolates(rng, n_min=4, n_max=8)
            cover = clique_cover(g, g.n_vertices)
            assert cover.n_parts == brute_min_cover(g)

    def test_all_graphs_on_four_vertices(self):
        pairs = list(itertools.combinations(range(4), 2))
        for bits in range(64):
            edges = [e for i, e in enumerate(pairs) if bits >> i & 1]
            g = Graph.from_edges(4, edges)
            cover = clique_cover(g, 4)
            assert cover.n_parts == brute_min_cover(g)

    def test_cross_edge_inventory(self):
        # the cover is its partition alone; the edge joining the parts is
        # what the graph holds beyond the two cliques
        g = add_cross_edge(disjoint_union(complete_graph(3), complete_graph(4)), 1, 5)
        cover = clique_cover(g, 2)
        assert cover == CliqueCover(((0, 1, 2), (3, 4, 5, 6)))
        inside = {e for part in cover.parts for e in itertools.combinations(part, 2)}
        assert g.edges - inside == {(1, 5)}

    def test_large_complete_graph_needs_no_recursion(self):
        cover = clique_cover(complete_graph(1200), 3)
        assert cover.sizes == (1200,) and cover.parts == (tuple(range(1200)),)

    def test_too_few_edges_refused_before_the_masks(self, monkeypatch):
        # three cliques on 9 vertices hold at least the 9 edges of (3,3,3)
        g = disjoint_union(disjoint_union(complete_graph(3), complete_graph(3)),
                           complete_graph(3))
        assert g.n_edges == 9
        assert clique_cover(g, 3).parts == ((0, 1, 2), (3, 4, 5), (6, 7, 8))
        short = Graph(9, g.edges - {(0, 1)})
        assert brute_min_cover(short) == 4

        def unreachable(g):
            raise AssertionError("complement masks built for a refused graph")

        monkeypatch.setattr("pistr.graphs._complement_masks", unreachable)
        assert clique_cover(short, 3) is None
        assert clique_cover(Graph(10, frozenset()), 9) is None

    def test_refusal_matches_brute_force_for_every_k_max(self):
        pairs = list(itertools.combinations(range(5), 2))
        for bits in range(1 << len(pairs)):
            g = Graph.from_edges(5, [e for i, e in enumerate(pairs) if bits >> i & 1])
            least = brute_min_cover(g)
            for k_max in range(1, 6):
                cover = clique_cover(g, k_max)
                assert (cover is None) == (least > k_max), (bits, k_max)
        with pytest.raises(ValueError, match="^k_max must be >= 1$"):
            clique_cover(complete_graph(3), 0)

    def test_even_cycle_complement_in_time(self):
        # cover number 2; a colouring in one static order took 24 s on this
        # numbering of the 70-cycle, one by saturation reads both parts off
        # the cycle at once
        n = 70
        g = cycle_complement(n, n)
        order = np.random.default_rng(n).permutation(n).tolist()
        with deadline(1):
            cover = clique_cover(g, 3)
            out = construct_labeling(g)
        assert cover.parts == tuple(sorted((tuple(sorted(order[1::2])),
                                            tuple(sorted(order[0::2])))))
        assert out.strength == 3 and is_product_irregular(out.labeling).ok

    def test_colouring_deeper_than_the_default_recursion_limit(self):
        # Three K_550, the first two joined by a perfect matching and vertex
        # 0 joined to the third: 1,101 twin classes, so the 3-colouring of
        # the quotient recurses deeper than the recursion limit, which it
        # raises by its depth and restores.
        m = 550
        edges = [(u, v) for b in range(3) for u, v in
                 itertools.combinations(range(b * m, (b + 1) * m), 2)]
        edges += [(i, m + i) for i in range(m)] + [(0, 2 * m + j) for j in range(m)]
        g = Graph.from_edges(3 * m, edges)
        limit = sys.getrecursionlimit()
        assert len(set(_complement_masks(g))) == 2 * m + 1 > limit
        with deadline(2):
            cover = clique_cover(g, 3)
        assert cover.sizes == (m, m, m)
        assert sys.getrecursionlimit() == limit

    def test_matches_a_brute_force_oracle(self, rng):
        # None exactly when no partition into at most k cliques exists;
        # otherwise cliques that partition the vertices in the fewest parts
        verdicts = collections.Counter()
        for g in colouring_families(rng):
            least = brute_min_cover(g)
            for k in range(1, 5):
                cover = clique_cover(g, k)
                verdicts[cover is None] += 1
                if least > k:
                    assert cover is None, (g, k)
                    continue
                assert cover.n_parts == least, (g, k)
                assert sorted(v for part in cover.parts for v in part) == list(range(g.n_vertices))
                assert all(g.has_edge(u, v) for part in cover.parts
                           for u, v in itertools.combinations(part, 2)), (g, cover)
        assert min(verdicts[True], verdicts[False]) > 400, verdicts

    def test_dense_three_cliques_construct_in_time(self):
        # three K50, each cross pair an edge with probability 0.95: many
        # covers of 3 parts, none planted; a colouring in one static order
        # with no look-ahead ran past 20 s
        g = dense_planted_cover(random.Random(7), (50, 50, 50), 0.95)
        assert g.n_edges == 10798
        with deadline(2):
            out = construct_labeling(g)
        assert (out.strength, out.source, out.case_trace.construction_id) == (3, "theorem", "A+C+B")
        assert is_product_irregular(out.labeling).ok

    def test_dense_planted_cover_in_time(self):
        # K50, K60 and K70, each cross pair an edge with probability 0.9: 3.2 s
        # in one static order with no look-ahead
        g = dense_planted_cover(random.Random(19), (50, 60, 70), 0.9)
        with deadline(2):
            cover = clique_cover(g, 3)
        assert cover.sizes == (50, 60, 70)
        assert all(g.has_edge(u, v) for part in cover.parts
                   for u, v in itertools.combinations(part, 2))

    def test_sparse_complement_refuted_in_time(self):
        # the complement of G(120, 4.4 / 119): one pair of twins (two
        # leaves of one vertex in the sparse graph) and no 3-colouring; a
        # colouring in one static order with no look-ahead ran past 20 s
        rng = random.Random(0)
        n = 120
        g = complement_of(n, [e for e in itertools.combinations(range(n), 2)
                              if rng.random() < 4.4 / (n - 1)])
        assert len(set(_complement_masks(g))) == n - 1
        with deadline(2):
            assert clique_cover(g, 3) is None
        assert clique_cover(g, 4).n_parts == 4

    def test_odd_cycle_beside_many_components_in_time(self):
        # the complement of 40 K_{3,3} and a C5: the C5 refutes 2 colours
        # whatever the K_{3,3} took, so the search does not go back into them
        t = 40
        edges = [(6 * i + a, 6 * i + 3 + b) for i in range(t) for a in range(3) for b in range(3)]
        edges += [(6 * t + i, 6 * t + (i + 1) % 5) for i in range(5)]
        g = complement_of(6 * t + 5, edges)
        with deadline(1):
            cover = clique_cover(g, 3)
        assert cover.n_parts == 3

    @staticmethod
    def twin_rich_graph(rng):
        """A blow-up of a small random graph (each vertex a clique of 1-4
        closed twins, each edge a complete join) plus up to three noise
        edges, the vertices renumbered at random."""
        b = rng.randint(4, 8)
        p = rng.uniform(0.3, 0.8)
        base = [e for e in itertools.combinations(range(b), 2) if rng.random() < p]
        blobs, n = [], 0
        for _ in range(b):
            t = rng.randint(1, 4)
            blobs.append(range(n, n + t))
            n += t
        edges = {e for blob in blobs for e in itertools.combinations(blob, 2)}
        edges |= {(x, y) for i, j in base for x in blobs[i] for y in blobs[j]}
        absent = [e for e in itertools.combinations(range(n), 2) if e not in edges]
        edges |= set(rng.sample(absent, min(len(absent), rng.randint(0, 3))))
        perm = list(range(n))
        rng.shuffle(perm)
        return Graph.from_edges(n, [(perm[u], perm[v]) for u, v in edges])

    def test_closed_twins_share_a_part(self, rng):
        # clique_cover colours one vertex of each class of closed twins and
        # gives the rest of the class its colour, so twins share a part.
        parts_seen = collections.Counter()
        for _ in range(400):
            g = self.twin_rich_graph(rng)
            classes = collections.defaultdict(list)
            for v, mask in closed_masks(g.edges).items():
                classes[mask].append(v)
            for k in (3, 4):
                cover = clique_cover(g, k)
                if cover is None:
                    continue
                parts_seen[cover.n_parts] += 1
                part_of = {v: i for i, part in enumerate(cover.parts) for v in part}
                for twins in classes.values():
                    assert len({part_of[v] for v in twins}) == 1, (g, cover, twins)
        assert min(parts_seen[2], parts_seen[3], parts_seen[4]) > 40, parts_seen

    def test_grotzsch_blowup_covers_its_twin_quotient(self):
        # 88 vertices in 11 classes of 8 closed twins: the backtracking over
        # every vertex refutes 3 parts in exponential time, over one vertex
        # a class at once
        g = grotzsch_blowup_complement(8, seed=5)
        with deadline(1):
            assert clique_cover(g, 3) is None
            cover = clique_cover(g, 4)
        assert cover.n_parts == 4
        assert all(g.has_edge(u, v) for part in cover.parts
                   for u, v in itertools.combinations(part, 2))

    def test_k_max_respected(self):
        c5 = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
        assert clique_cover(c5, 2) is None
