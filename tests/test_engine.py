import hashlib
import itertools
import random

import pytest

from pistr.engine import (PATTERN_DIFF, PATTERN_SAME, UnsupportedCoverError,
                          _choose_tree, construct_labeling, label_cover,
                          theorem_id)
from pistr.fileio import emit_graph
from pistr.graphs import (CliqueCover, Graph, add_cross_edge, clique_cover,
                          complete_graph, disjoint_union, edge_key)
from pistr.verifier import is_product_irregular

from conftest import permute_graph, planted_cover_graph


def cliques_with_edges(sizes, cross):
    """Disjoint cliques plus the given cross edges (global vertex ids)."""
    g = complete_graph(sizes[0])
    for s in sizes[1:]:
        g = disjoint_union(g, complete_graph(s))
    for u, v in cross:
        g = add_cross_edge(g, u, v)
    return g


def tree_of(cover):
    """The tree edges the engine labels, one for two parts and two for
    three, and their pattern; every other cross edge is surplus."""
    tree = _choose_tree(cover)
    return list(tree.edges), tree.pattern


class TestCrossEdgeSelection:
    def test_two_parts_single_choice(self):
        g = cliques_with_edges((3, 4), [(0, 3)])
        cover = clique_cover(g, 2)
        edges, pattern = tree_of(cover)
        assert edges == [(0, 3)] and pattern == "one_edge"

    def test_two_parts_surplus(self):
        cross = [(0, 4), (1, 5), (2, 6), (3, 7), (0, 7)]
        g = cliques_with_edges((4, 4), cross)
        cover = clique_cover(g, 2)
        edges, _ = tree_of(cover)
        assert len(edges) == 1

    def test_three_parts_path_shape_forces_middle(self):
        # parts joined 0-1 and 1-2: part 1 must be the middle
        g = cliques_with_edges((4, 4, 4), [(0, 4), (5, 8)])
        cover = clique_cover(g, 3)
        edges, pattern = tree_of(cover)
        assert sorted(edges) == [(0, 4), (5, 8)]
        assert pattern in (PATTERN_SAME, PATTERN_DIFF)

    def test_pattern_same_vs_diff(self):
        same = cliques_with_edges((4, 4, 4), [(4, 0), (4, 8)])
        cover = clique_cover(same, 3)
        assert tree_of(cover)[1] == PATTERN_SAME
        diff = cliques_with_edges((4, 4, 4), [(4, 0), (5, 8)])
        cover = clique_cover(diff, 3)
        assert tree_of(cover)[1] == PATTERN_DIFF

    def test_deterministic(self):
        g = planted_cover_graph(random.Random(7), (5, 6, 7), extra_cross=6)
        cover = clique_cover(g, 3)
        assert tree_of(cover) == tree_of(cover)

    def test_disconnected_rejected(self):
        g = disjoint_union(complete_graph(4), complete_graph(4))
        cover = clique_cover(g, 2)
        with pytest.raises(ValueError, match="connected"):
            tree_of(cover)
        g = cliques_with_edges((4, 4, 4), [(0, 4)])
        cover = clique_cover(g, 3)
        with pytest.raises(ValueError, match="connected"):
            tree_of(cover)
        with pytest.raises(ValueError, match="connected"):
            label_cover(g, cover)


class TestDispatchTotality:
    def test_two_clique_residual_set(self):
        residual = {(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3), (3, 4)}
        for a in range(1, 31):
            for b in range(a, 31):
                case = theorem_id((a, b))
                assert (case is None) == ((a, b) in residual), (a, b)

    def test_three_clique_residual_set(self):
        for s1 in range(1, 28):
            for s2 in range(s1, 28):
                for s3 in range(s2, 28):
                    sizes = (s1, s2, s3)
                    case = theorem_id(sizes)
                    residual = (s1 < 4 or sizes == (4, 6, 6)
                                or (s1 == 4 and s2 == 4 and s3 >= 6))
                    assert (case is None) == residual, sizes


class TestTwoCliques:
    @pytest.mark.parametrize("sizes,case_id", [
        ((4, 9), "A+B"), ((5, 8), "A+B"), ((5, 5), "T5+T5_tilde"),
        ((6, 6), "T6+T6_tilde"), ((4, 4), "K44_edge"), ((3, 7), "T+B"),
        ((2, 6), "L"), ((1, 7), "L_k1"),
    ])
    def test_theorem_paths(self, sizes, case_id, rng):
        g = planted_cover_graph(rng, sizes, extra_cross=2)
        cover = clique_cover(g, 2)
        if cover.n_parts != 2 or cover.sizes != sizes:
            return  # surplus edges may change the minimum cover
        out = label_cover(g, cover)
        assert out.source == "theorem" and out.strength == 3
        assert out.case_trace.construction_id == case_id
        assert is_product_irregular(out.labeling).ok

    def test_cached_34_construction(self, rng):
        g = planted_cover_graph(rng, (3, 4), extra_cross=1)
        cover = clique_cover(g, 2)
        out = label_cover(g, cover)
        assert out.strength == 3 and out.source == "search-fallback"
        assert out.case_trace.construction_id == "K34_edge_cached"
        assert is_product_irregular(out.labeling).ok

    def test_small_shapes_fall_back(self, rng):
        # two triangles with a bridge admit strength 3 (32 labelings exist)
        g = cliques_with_edges((3, 3), [(0, 3)])
        out = label_cover(g, clique_cover(g, 2))
        assert out.source == "search-fallback" and out.strength == 3
        assert is_product_irregular(out.labeling).ok

    def test_alignment_survives_relabeling(self, rng):
        for sizes in [(2, 5), (1, 6), (4, 4), (3, 4)]:
            for _ in range(5):
                g = planted_cover_graph(rng, sizes, extra_cross=2)
                h, _ = permute_graph(rng, g)
                cover = clique_cover(h, 2)
                if cover.n_parts != 2:
                    continue
                out = label_cover(h, cover)
                assert is_product_irregular(out.labeling).ok


class TestThreeCliques:
    @pytest.mark.parametrize("sizes,case_id", [
        ((7, 8, 9), "A+C+B"), ((4, 8, 9), "C_small+A+B"),
        ((6, 6, 9), "T6+T6_tilde+B"), ((6, 6, 7), "A6+M666_3+B7"),
        ((5, 6, 9), "T5+T6_mod+B"), ((5, 5, 9), "T5+T5_tilde+B"),
        ((5, 5, 6), "T5+T5_tilde+P6"), ((4, 5, 9), "A4+T5_tilde+B"),
        ((4, 6, 9), "A4+B6+B"), ((4, 6, 7), "B4+M666_3+B7"),
        ((4, 5, 6), "A4+T5_tilde_mod+B6"), ((6, 6, 6), "M666"),
        ((5, 6, 6), "M666_minus_row1"),
    ])
    def test_direct_sum_rows(self, sizes, case_id, rng):
        g = planted_cover_graph(rng, sizes, extra_cross=3)
        cover = clique_cover(g, 3)
        if cover.sizes != tuple(sorted(sizes)):
            return
        out = label_cover(g, cover)
        assert out.source == "theorem" and out.strength == 3
        assert out.case_trace.construction_id == case_id
        assert is_product_irregular(out.labeling).ok

    @pytest.mark.parametrize("sizes", [(5, 5, 5), (4, 5, 5), (4, 4, 5), (4, 4, 4)])
    @pytest.mark.parametrize("same_vertex", [True, False])
    def test_injection_rows_both_patterns(self, sizes, same_vertex):
        # force each part in turn to be the middle, with a controlled pattern
        for mid in range(3):
            offs = [sum(sizes[:i]) for i in range(3)]
            others = [o for o in range(3) if o != mid]
            m1 = offs[mid]
            m2 = m1 if same_vertex else m1 + 1
            cross = [(m1, offs[others[0]]), (m2, offs[others[1]])]
            g = cliques_with_edges(sizes, cross)
            cover = clique_cover(g, 3)
            out = label_cover(g, cover)
            assert out.source == "theorem" and out.strength == 3
            tag = "same_vertex" if same_vertex else "diff_vertices"
            assert out.case_trace.construction_id.endswith(tag)
            assert is_product_irregular(out.labeling).ok

    @pytest.mark.parametrize("sizes", [(4, 4, 6), (4, 4, 11), (4, 6, 6), (3, 5, 8)])
    def test_fallback_shapes(self, sizes, rng):
        g = planted_cover_graph(rng, sizes, extra_cross=1)
        cover = clique_cover(g, 3)
        if cover.sizes != tuple(sorted(sizes)):
            return
        out = label_cover(g, cover)
        assert out.source == "search-fallback"
        assert is_product_irregular(out.labeling).ok
        assert out.strength == 3  # all these shapes admit strength 3

    def test_alignment_survives_relabeling(self, rng):
        for sizes in [(5, 5, 5), (4, 4, 5), (4, 5, 5), (4, 4, 4), (5, 6, 6)]:
            for _ in range(4):
                g = planted_cover_graph(rng, sizes, extra_cross=2)
                h, _ = permute_graph(rng, g)
                cover = clique_cover(h, 3)
                if cover.sizes != tuple(sorted(sizes)):
                    continue
                out = label_cover(h, cover)
                assert out.strength == 3
                assert is_product_irregular(out.labeling).ok


class TestConstructLabeling:
    def test_single_cliques(self):
        out = construct_labeling(complete_graph(4))
        assert out.strength == 3 and out.case_trace.construction_id == "A_single"
        out = construct_labeling(complete_graph(3))
        assert out.case_trace.construction_id == "T_single"

    def test_cover_number_four_unsupported(self):
        c7 = Graph.from_edges(7, [(i, (i + 1) % 7) for i in range(7)])
        assert clique_cover(c7, 3) is None
        with pytest.raises(UnsupportedCoverError):
            construct_labeling(c7)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            construct_labeling(complete_graph(2))
        with pytest.raises(ValueError):
            construct_labeling(disjoint_union(complete_graph(4), complete_graph(4)))

    def test_surplus_edges_carry_label_one(self, rng):
        g = planted_cover_graph(rng, (5, 6, 8), extra_cross=6)
        out = construct_labeling(g)
        cover = clique_cover(g, 3)
        chosen, _ = tree_of(cover)
        spanning = set(chosen)
        for part in cover.parts:
            spanning.update(edge_key(u, v)
                            for u, v in itertools.combinations(sorted(part), 2))
        for e in g.edges - spanning:
            assert out.labeling.labels[e] == 1

    def test_surplus_edges_leave_degrees_unchanged(self, rng):
        # degree multiset of the output equals that of the construction
        # alone (the labeling restricted to cliques plus chosen edges)
        from pistr.graphs import EdgeLabeling
        for sizes in [(4, 9), (5, 5, 5), (4, 4, 5), (6, 6, 9)]:
            g = planted_cover_graph(rng, sizes, extra_cross=5)
            cover = clique_cover(g, len(sizes))
            if cover.sizes != tuple(sorted(sizes)):
                continue
            out = construct_labeling(g)
            chosen, _ = tree_of(cover)
            spanning = set(chosen)
            for part in cover.parts:
                spanning.update(
                    edge_key(u, v)
                    for u, v in itertools.combinations(sorted(part), 2))
            sub = Graph(g.n_vertices, frozenset(spanning))
            sub_labeling = EdgeLabeling(
                sub, {e: out.labeling.labels[e] for e in spanning}, 3)
            full = sorted(d.value for d in
                          is_product_irregular(out.labeling).degrees)
            bare = sorted(d.value for d in
                          is_product_irregular(sub_labeling).degrees)
            assert full == bare

    @pytest.mark.parametrize("sizes", [(6,), (4, 9), (3, 3), (5, 6, 8), (4, 4, 9),
                                       (3, 3, 3), (7, 8, 9)])
    def test_tree_edges_span_the_parts(self, rng, sizes):
        g = planted_cover_graph(rng, sizes, extra_cross=3)
        out = construct_labeling(g)
        cover = clique_cover(g, 3)
        tree = out.case_trace.tree_edges
        assert tree == tuple(sorted(tree_of(cover)[0]))
        assert len(tree) == cover.n_parts - 1 and set(tree) <= g.edges
        part = {v: p for p, vertices in enumerate(cover.parts) for v in vertices}
        joined = {frozenset((part[u], part[v])) for u, v in tree}
        assert all(len(pair) == 2 for pair in joined) and len(joined) == len(tree)

    def test_vertex_maps_are_bijections(self, rng):
        g = planted_cover_graph(rng, (4, 5, 9), extra_cross=2)
        out = construct_labeling(g)
        cover = clique_cover(g, 3)
        for part_idx, vmap in out.case_trace.vertex_maps.items():
            part = cover.parts[part_idx]
            assert sorted(vmap) == sorted(part)
            assert sorted(vmap.values()) == list(range(1, len(part) + 1))

    def test_byte_for_byte_determinism(self, rng):
        for sizes in [(4, 9), (5, 5, 5), (4, 4, 9), (3, 3)]:
            g = planted_cover_graph(rng, sizes, extra_cross=2)
            out1 = construct_labeling(g)
            out2 = construct_labeling(g)
            assert emit_graph(g, out1.labeling) == emit_graph(g, out2.labeling)
            assert out1.case_trace == out2.case_trace


def _digest_inputs():
    """Seeded (graph, cover) pairs reaching every catalog row (every middle
    part and both tree-edge patterns for the +2 edges rows) and a few
    fallback shapes. cover None means construct_labeling finds its own.
    clique_cover mostly puts a lone vertex in one part with its neighbour,
    so the L_k1 row is reached through given covers."""
    rng = random.Random(4096)
    inputs = [(complete_graph(n), None) for n in (3, 4, 9)]
    for n in (4, 7):
        x, y = rng.sample(range(n + 1), 2)  # x alone, joined to y in K_n
        rest = tuple(sorted(v for v in range(n + 1) if v != x))
        g = Graph.from_edges(n + 1, [(x, y)] + list(itertools.combinations(rest, 2)))
        cross = ((0, 1, x, y),)
        inputs.append((g, CliqueCover(((x,), rest), (1, n), cross)))
    two = [(1, 4), (1, 7), (2, 4), (2, 6), (3, 5), (3, 7), (4, 4), (4, 9),
           (5, 5), (5, 8), (6, 6), (6, 7), (3, 4), (1, 3), (2, 2), (2, 3), (3, 3)]
    three = [(7, 8, 9), (7, 7, 7), (4, 8, 9), (5, 7, 7), (6, 6, 9), (6, 6, 7),
             (5, 6, 9), (5, 5, 9), (5, 5, 6), (4, 5, 9), (4, 6, 9), (4, 6, 7),
             (4, 5, 6), (6, 6, 6), (5, 6, 6), (4, 4, 6), (4, 6, 6), (3, 5, 8),
             (2, 4, 5), (3, 3, 3)]
    for sizes in two + three:
        for extra in (0, 3):
            g = planted_cover_graph(rng, sizes, extra)
            inputs.append((permute_graph(rng, g)[0], None))
    for sizes in [(5, 5, 5), (4, 5, 5), (4, 4, 5), (4, 4, 4)]:
        offs = [sum(sizes[:i]) for i in range(3)]
        for mid in range(3):
            a, b = (offs[o] + rng.randrange(sizes[o]) for o in range(3) if o != mid)
            for step in (0, 1):
                m1 = offs[mid] + rng.randrange(sizes[mid] - 1)
                g = cliques_with_edges(sizes, [(m1, a), (m1 + step, b)])
                inputs.append((permute_graph(rng, g)[0], None))
        for _ in range(3):
            g = planted_cover_graph(rng, sizes, 4)
            inputs.append((permute_graph(rng, g)[0], None))
    return inputs


# sha256 of the engine's output on _digest_inputs(), taken before the
# catalog moved into one table; any change to a label, construction id,
# source, strength or vertex map changes it.
OUTPUT_DIGEST = "e4783f032eb2b2be515f5296feae0ee662b030f26d40a7263bcc5459ad5fa92d"


def test_output_digest_pinned():
    h = hashlib.sha256()
    ids = set()
    for g, cover in _digest_inputs():
        out = construct_labeling(g) if cover is None else label_cover(g, cover)
        case = out.case_trace
        ids.add(case.construction_id)
        maps = sorted((p, sorted(m.items())) for p, m in case.vertex_maps.items())
        h.update(emit_graph(g, out.labeling).encode())
        h.update(repr((out.strength, out.source, case.cover_sizes, case.pattern,
                       case.construction_id, maps)).encode())
    rows = {"A_single", "T_single", "A+B", "T5+T5_tilde", "T6+T6_tilde",
            "K44_edge", "T+B", "L", "L_k1", "K34_edge_cached", "A+C+B",
            "C_small+A+B", "T6+T6_tilde+B", "A6+M666_3+B7", "T5+T6_mod+B",
            "T5+T5_tilde+B", "T5+T5_tilde+P6", "A4+B6+B", "B4+M666_3+B7",
            "A4+T5_tilde+B", "A4+T5_tilde_mod+B6", "M666", "M666_minus_row1"}
    rows |= {f"tilde_{s}/{t}" for s in ("555", "455", "445", "444")
             for t in ("same_vertex", "diff_vertices")}
    assert rows <= ids, sorted(rows - ids)
    assert sum(i.startswith("fallback:") for i in ids) >= 3
    assert h.hexdigest() == OUTPUT_DIGEST
