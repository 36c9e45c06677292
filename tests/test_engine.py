import collections
import dataclasses
import hashlib
import io
import itertools
import random
import re
import sys
from math import comb

import numpy as np
import pytest

from pistr import engine, fileio
from pistr.cli import main
from pistr.engine import (PATTERN_DIFF, PATTERN_SAME, ConstructionError,
                          FallbackBudgetError, UnsupportedCoverError, _choose_tree,
                          construct_labeling, label_cover, theorem_id)
from pistr.fileio import emit_graph
from pistr.graphs import (CliqueCover, Graph, add_cross_edge, clique_cover,
                          complete_graph, disjoint_union, edge_key)
from pistr.matrices import fixed_matrix, named_family
from pistr.solver import ps_exact
from pistr.verifier import is_product_irregular

from conftest import (brute_products, cycle_complement, permute_graph,
                      planted_cover_graph)


def cliques_with_edges(sizes, cross):
    """Disjoint cliques plus the given cross edges (global vertex ids)."""
    g = complete_graph(sizes[0])
    for s in sizes[1:]:
        g = disjoint_union(g, complete_graph(s))
    for u, v in cross:
        g = add_cross_edge(g, u, v)
    return g


def tree_of(g, cover):
    """The tree edges the engine labels, one for two parts and two for
    three, and their pattern; every other cross edge is surplus."""
    tree = _choose_tree(g, cover)
    return list(tree.edges), tree.pattern


def assert_smallest_cross_edges(g, cover):
    """_choose_tree against the cross edges listed one by one: each chosen
    pair of parts is joined by its smallest edge, endpoints in part order,
    and three parts go through the first middle part joined to both
    others."""
    part = {v: p for p, vertices in enumerate(cover.parts) for v in vertices}
    smallest = {}
    for u, v in sorted(g.edges):
        if part[u] != part[v]:
            key = (part[u], part[v]) if part[u] < part[v] else (part[v], part[u])
            smallest.setdefault(key, (u, v) if key[0] == part[u] else (v, u))
    tree = _choose_tree(g, cover)
    if cover.n_parts == 3:
        mid = next(m for m in range(3)
                   if sum(m in key for key in smallest) == 2)
        assert tree.middle == mid
        smallest = {key: edge for key, edge in smallest.items() if mid in key}
    assert tree.links == smallest
    assert all(type(x) is int for edge in tree.links.values() for x in edge)


class TestCrossEdgeSelection:
    @pytest.mark.parametrize("sizes,extra", [((3, 4), 5), ((5, 9), 12),
                                             ((4, 5, 6), 8), ((6, 7, 7), 20)])
    def test_tree_takes_the_smallest_cross_edge_per_pair(self, rng, sizes, extra):
        for _ in range(5):
            g, _ = permute_graph(rng, planted_cover_graph(rng, sizes, extra))
            cover = clique_cover(g, 3)
            assert cover.n_parts == len(sizes)
            assert_smallest_cross_edges(g, cover)

    def test_tree_on_an_odd_cycle_complement(self):
        # three parts, (41, 130, 130), and 27,259 edges between them
        g = cycle_complement(301, 301)
        cover = clique_cover(g, 3)
        assert cover.n_parts == 3
        assert_smallest_cross_edges(g, cover)

    def test_two_parts_single_choice(self):
        g = cliques_with_edges((3, 4), [(0, 3)])
        cover = clique_cover(g, 2)
        edges, pattern = tree_of(g, cover)
        assert edges == [(0, 3)] and pattern == "one_edge"

    def test_two_parts_surplus(self):
        cross = [(0, 4), (1, 5), (2, 6), (3, 7), (0, 7)]
        g = cliques_with_edges((4, 4), cross)
        cover = clique_cover(g, 2)
        edges, _ = tree_of(g, cover)
        assert len(edges) == 1

    def test_three_parts_path_shape_forces_middle(self):
        # parts joined 0-1 and 1-2: part 1 must be the middle
        g = cliques_with_edges((4, 4, 4), [(0, 4), (5, 8)])
        cover = clique_cover(g, 3)
        edges, pattern = tree_of(g, cover)
        assert sorted(edges) == [(0, 4), (5, 8)]
        assert pattern in (PATTERN_SAME, PATTERN_DIFF)

    def test_pattern_same_vs_diff(self):
        same = cliques_with_edges((4, 4, 4), [(4, 0), (4, 8)])
        cover = clique_cover(same, 3)
        assert tree_of(same, cover)[1] == PATTERN_SAME
        diff = cliques_with_edges((4, 4, 4), [(4, 0), (5, 8)])
        cover = clique_cover(diff, 3)
        assert tree_of(diff, cover)[1] == PATTERN_DIFF

    def test_deterministic(self):
        g = planted_cover_graph(random.Random(7), (5, 6, 7), extra_cross=6)
        cover = clique_cover(g, 3)
        assert tree_of(g, cover) == tree_of(g, cover)

    def test_disconnected_rejected(self):
        g = disjoint_union(complete_graph(4), complete_graph(4))
        cover = clique_cover(g, 2)
        with pytest.raises(ValueError, match="connected"):
            tree_of(g, cover)
        g = cliques_with_edges((4, 4, 4), [(0, 4)])
        cover = clique_cover(g, 3)
        with pytest.raises(ValueError, match="connected"):
            tree_of(g, cover)
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


def spanning_graphs():
    """Every graph the fallback searches with nothing pinned, up to
    isomorphism, with its cover: two or three cliques plus a spanning tree,
    at most 16 edges. Three parts take each size once as the middle part,
    and both tree edges leave one hub vertex or two."""
    two = [(a, b) for a in range(1, 7) for b in range(a, 7)]
    three = list(itertools.combinations_with_replacement(range(1, 7), 3))
    for sizes in two + three:
        if sum(comb(k, 2) for k in sizes) + len(sizes) - 1 > 16:
            continue
        offs = [sum(sizes[:i]) for i in range(len(sizes))]
        parts = tuple(tuple(range(o, o + k)) for o, k in zip(offs, sizes))
        clique_edges = [e for part in parts for e in itertools.combinations(part, 2)]
        for m in sorted({sizes.index(k) for k in sizes}) if len(sizes) == 3 else [0]:
            outers = [o for o in range(len(sizes)) if o != m]
            for hubs in [(0, 0), (0, 1)][:1 + (len(sizes) == 3 and sizes[m] > 1)]:
                tree = [(m, parts[m][h], o, parts[o][0]) for o, h in zip(outers, hubs)]
                g = Graph.from_edges(sum(sizes), clique_edges + [(u, v) for _, u, _, v in tree])
                yield g, CliqueCover(parts)


def test_unpinned_fallback_census():
    # The fallback starts at s = 3 and stops at s = 4: on every spanning
    # graph without a catalog row it returns the exact strength.
    strengths = collections.Counter()
    for g, cover in spanning_graphs():
        if g.n_vertices == 2:  # K2, which construct_labeling rejects
            with pytest.raises(FallbackBudgetError):
                label_cover(g, cover)
            continue
        out = label_cover(g, cover)
        if not out.case_trace.construction_id.startswith("fallback:"):
            continue  # a catalog shape
        s = ps_exact(g, 4).value
        assert out.case_trace.construction_id == f"fallback:exhaustive(s={s})", cover
        assert is_product_irregular(out.labeling).ok
        strengths[s] += 1
    assert strengths == {3: 84, 4: 8}


def record_builds(monkeypatch):
    """The (name, block) of every block the engine builds from here on, in
    build order."""
    built = []

    def family(n, which):
        built.append((f"{which}{n}", named_family(n, which)))
        return built[-1][1]

    def fixed(name):
        built.append((name, fixed_matrix(name)))
        return built[-1][1]

    monkeypatch.setattr(engine, "named_family", family)
    monkeypatch.setattr(engine, "fixed_matrix", fixed)
    return built


def pinned_builds(monkeypatch, size):
    """Every block the fallback may pin on a part of this size, in the order
    it tries them: (3,4,4) and (3,3,size) pin exactly that part, and a
    search that never finds a labeling walks every combination at s = 3
    and at s = 4."""
    built = record_builds(monkeypatch)
    monkeypatch.setattr(engine, "search_labelings", lambda *args: ([], 0))
    sizes = (3, 4, 4) if size == 4 else (3, 3, size)
    with pytest.raises(FallbackBudgetError, match="stages exhausted"):
        construct_labeling(cliques_with_edges(sizes, [(0, 3), (0, 3 + sizes[1])]))
    return built


@pytest.mark.parametrize("size", range(4, 13))
def test_pinned_row_products(monkeypatch, size):
    # The fallback reads a pinned block's row products as 2^a * 3^b, which
    # holds only while every block it may pin is over the labels 1..3.
    for name, block in pinned_builds(monkeypatch, size):
        assert block.min() >= 0 and block.max() <= 3, name
        assert engine._row_products(block) == brute_products(block), name


@pytest.mark.parametrize("size, names", [
    (4, ["B4", "A4", "C4"]),
    (5, ["B5", "A5", "C5", "T5", "T5_TILDE", "T5_TILDE_MOD_456"]),
    (6, ["B6", "A6", "C6", "T6", "T6_TILDE", "M666_BLOCK1", "M666_BLOCK2",
         "M666_BLOCK3", "P6", "T6_MOD_567"]),
    *((n, [f"B{n}", f"A{n}", f"C{n}"]) for n in range(7, 13)),
])
def test_pinned_candidates(monkeypatch, size, names):
    # Each candidate is built once, although both s = 3 and s = 4 try it.
    assert [name for name, _ in pinned_builds(monkeypatch, size)] == names


def test_pinned_blocks_built_on_first_use(monkeypatch):
    # (4,6,6) pins both 6-parts, and the sixth combination answers at
    # s = 3: only the blocks the first six name are built, each once.
    built = record_builds(monkeypatch)
    out = construct_labeling(cliques_with_edges((4, 6, 6), [(0, 4), (0, 10)]))
    assert out.case_trace.construction_id == "fallback:fixed(B6,M666_BLOCK1),s=3"
    assert [name for name, _ in built] == ["B6", "A6", "C6", "T6", "T6_TILDE",
                                           "M666_BLOCK1"]


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

    def test_more_than_three_parts_unsupported(self):
        g = cliques_with_edges((3, 3, 3, 3), [(2, 3), (5, 6), (8, 9)])
        cover = clique_cover(g, 4)
        assert cover.n_parts == 4
        with pytest.raises(UnsupportedCoverError, match="^clique cover number exceeds 3$"):
            label_cover(g, cover)

    @pytest.mark.parametrize("parts, sizes, fault", [
        (((0, 1, 2), (4, 5, 6, 7, 8)), (3, 5), "do not partition"),  # vertex 3 left out
        (((0, 1, 2, 3), (3, 4, 5, 6, 7, 8)), (4, 6), "do not partition"),
        (((0, 2, 1, 3), (4, 5, 6, 7, 8)), (4, 5), "not each ascending"),
        (((0, 1, 2, 3), (), (4, 5, 6, 7, 8)), (4, 0, 5), "do not partition"),  # an empty part
        (((4, 5, 6, 7, 8), (0, 1, 2, 3)), (5, 4), "ordered by size"),
        (((0, 1, 2, 4), (3, 5, 6, 7, 8)), (4, 5), r"\(0, 1, 2, 4\) is not a clique"),
    ])
    def test_cover_must_fit_the_graph(self, parts, sizes, fault):
        g = cliques_with_edges((4, 5), [(0, 4)])
        assert label_cover(g, CliqueCover(((0, 1, 2, 3), (4, 5, 6, 7, 8)))).strength == 3
        assert CliqueCover(parts).sizes == sizes
        with pytest.raises(ValueError, match=fault):
            label_cover(g, CliqueCover(parts))

    @pytest.mark.parametrize("sizes", [(9, 4), (9, 8, 7), (6, 4), (5, 5, 4)])
    def test_unsorted_sizes_rejected(self, sizes):
        # _lookup matches the rows' ranges in order: (9, 4) would take A+B
        # as A_9 + B_4, which collides.
        with pytest.raises(ValueError, match="sorted ascending"):
            engine.catalog_matrix(sizes)
        with pytest.raises(ValueError, match="sorted ascending"):
            theorem_id(sizes)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            construct_labeling(complete_graph(2))
        with pytest.raises(ValueError):
            construct_labeling(disjoint_union(complete_graph(4), complete_graph(4)))

    def test_surplus_edges_carry_label_one(self, rng):
        g = planted_cover_graph(rng, (5, 6, 8), extra_cross=6)
        out = construct_labeling(g)
        cover = clique_cover(g, 3)
        chosen, _ = tree_of(g, cover)
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
            chosen, _ = tree_of(g, cover)
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
        assert tree == tuple(sorted(tree_of(g, cover)[0]))
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


def _wrong_cross_weight(monkeypatch):
    lookup = engine._lookup
    monkeypatch.setattr(engine, "_lookup", lambda *key: dataclasses.replace(
        lookup(*key), cross=((0, 4, 1, 1, 2),)))  # K44_edge has weight 3 there


def _colliding_search(monkeypatch):
    monkeypatch.setattr(engine, "search_labelings", lambda free, *args: (
        [dict.fromkeys(free.edges, 1)], 0))  # every product 1


@pytest.mark.parametrize("break_it, sizes, construction_id", [
    (_wrong_cross_weight, (4, 4), "K44_edge"),
    (_colliding_search, (3, 3), "fallback:exhaustive(s=3)"),
])
def test_verification_guard(monkeypatch, capsys, tmp_path, break_it, sizes, construction_id):
    # Every labeling is verified before it is returned: a catalog row or a
    # search that yields a colliding labeling raises, naming its construction,
    # and the command line reports it as one internal error, exit 2.
    g = cliques_with_edges(sizes, [(0, sizes[0])])
    assert construct_labeling(g).case_trace.construction_id == construction_id
    break_it(monkeypatch)
    with pytest.raises(ConstructionError,
                       match=f"^construction {re.escape(construction_id)} failed verification"):
        construct_labeling(g)
    path = tmp_path / "g.txt"
    path.write_text(emit_graph(g))
    capsys.readouterr()
    assert main(["construct", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith(f"pistr: internal error: ConstructionError: construction "
                          f"{construction_id} failed verification")


def test_strength_guard(monkeypatch):
    # A labeling with a label above the strength it reports is not returned,
    # even when its products are distinct: T with labels 1, 3 and 4
    # (products 4, 3 and 12) under the catalog's strength 3.
    monkeypatch.setattr(engine, "fixed_matrix", lambda name: (
        np.array([[0, 1, 4], [1, 0, 3], [4, 3, 0]]) if name == "T" else fixed_matrix(name)))
    with pytest.raises(ConstructionError,
                       match="^construction T_single has label 4 above its strength 3$"):
        construct_labeling(complete_graph(3))


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
        inputs.append((g, CliqueCover(((x,), rest))))
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
# source, strength or vertex map changes it. Re-pinned when the fallback
# began to break closed twins of equal pinned products: the labels of one
# input, a (2,4,5) cover answered by fallback:fixed(B5),s=3, changed, at
# that id and strength on both sides.
OUTPUT_DIGEST = "34b4b238fbbfad4d4bae920b4729bb0249f412cd0bf953b6523acbf6162fcd77"


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


# sha256 of what construct --json prints on _construct_json_inputs(), taken
# before the document's JSON string was written by emit_graph itself; any
# change to a byte of the output, the document included, changes it.
# Re-pinned with OUTPUT_DIGEST, for the same (2,4,5) input.
CONSTRUCT_JSON_DIGEST = "f631ece301f379c1030ba18375868bdac7f00ded6da0a0a5f3e7e59ca71f6446"


def _construct_json_inputs() -> list[str]:
    """The documents of the _digest_inputs() graphs, then one 3 x 120
    planted cover: short ones for the line loop, long ones for the kernel."""
    graphs = [g for g, _ in _digest_inputs()]
    graphs.append(planted_cover_graph(random.Random(120), (120, 120, 120), 2))
    return [emit_graph(g) for g in graphs]


def test_construct_json_digest_pinned(monkeypatch, capsys):
    docs = _construct_json_inputs()
    assert min(map(len, docs)) < fileio.KERNEL_MIN_CHARS <= max(map(len, docs))
    h = hashlib.sha256()
    for doc in docs:
        monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
        assert main(["construct", "-", "--json"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        h.update(out.encode())
    assert h.hexdigest() == CONSTRUCT_JSON_DIGEST


def _row_id(row):
    return row.construction_id + ("" if row.middle is None else f"@{row.middle}")


def _row_sizes(rng, row):
    """Sorted sizes the catalog resolves to this row: each range at one of
    its four smallest sizes, drawn until the first fitting row is this one."""
    while True:
        sizes = tuple(k if type(k) is int else k.start + rng.randrange(4) for k in row.sizes)
        if list(sizes) == sorted(sizes) and engine._lookup(sizes, row.middle, row.pattern) is row:
            return sizes


def _placed(rng, row, sizes, extra):
    """A numbered graph for the row with its cover: cliques of the sizes,
    tree edges from a middle part (of the row's middle size, with the row's
    pattern) at random endpoints, extra surplus cross edges, every vertex
    renumbered at random."""
    offs = [sum(sizes[:i]) for i in range(len(sizes))]
    parts = [list(range(o, o + k)) for o, k in zip(offs, sizes)]
    edges = [e for part in parts for e in itertools.combinations(part, 2)]
    if len(sizes) > 1:
        mid = 0 if len(sizes) == 2 else rng.choice(
            [p for p, k in enumerate(sizes) if row.middle in (None, k)])
        same = row.pattern != PATTERN_DIFF if row.middle else rng.random() < 0.5
        hubs = rng.sample(parts[mid], 1 if same or len(sizes) == 2 else 2)
        for o, hub in zip((o for o in range(len(sizes)) if o != mid), hubs * 2):
            edges.append((hub, rng.choice(parts[o])))
    cross = [(u, v) for a, b in itertools.combinations(parts, 2) for u in a for v in b
             if (u, v) not in edges]
    edges += rng.sample(cross, min(extra, len(cross)))
    perm = list(range(sum(sizes)))
    rng.shuffle(perm)
    g = Graph.from_edges(len(perm), [(perm[u], perm[v]) for u, v in edges])
    parts = sorted((sorted(perm[v] for v in part) for part in parts),
                   key=lambda p: (len(p), p[0]))
    return g, CliqueCover(tuple(map(tuple, parts)))


@pytest.mark.parametrize("row", engine._CATALOG, ids=_row_id)
def test_labels_agree_with_catalog_matrix(row):
    # Every edge's label is the entry of catalog_matrix at the rows the
    # vertex maps give its ends (blocks in role order, the middle part first
    # on the "+2 edges" rows), or 1 where that entry is 0.
    rng = random.Random(_row_id(row))
    for extra in (0, 0, 0, 2, 4):
        sizes = _row_sizes(rng, row)
        g, cover = _placed(rng, row, sizes, extra)
        out = label_cover(g, cover)
        case = out.case_trace
        part = {v: p for p, vertices in enumerate(cover.parts) for v in vertices}
        roles = list(range(cover.n_parts))
        middle = None
        if cover.n_parts == 3:
            (mid,) = set.intersection(*({part[u], part[v]} for u, v in case.tree_edges))
            middle = cover.sizes[mid]
            if engine._lookup(cover.sizes, middle, case.pattern).middle is not None:
                roles.remove(mid)
                roles.insert(0, mid)
        if extra == 0:
            assert case.construction_id == row.construction_id
            assert row.middle in (None, middle)
        m = engine.catalog_matrix(cover.sizes, middle, case.pattern)
        offset = {p: sum(cover.sizes[q] for q in roles[:k]) for k, p in enumerate(roles)}
        at = {v: offset[p] + i - 1 for p, vmap in case.vertex_maps.items()
              for v, i in vmap.items()}
        assert sorted(at.values()) == list(range(g.n_vertices))
        for (u, v), w in out.labeling.labels.items():
            assert w == max(m[at[u], at[v]], 1), (case.construction_id, u, v)


@pytest.mark.parametrize("sizes, reached", [
    ((4, 5, 5), {"tilde_matrix", "is_product_irregular"}),
    ((4, 5, 6), {"named_family", "fixed_matrix", "is_product_irregular"}),
    ((4, 6, 6), {"named_family", "fixed_matrix", "search_labelings",
                 "is_product_irregular"}),
])
def test_traced_functions_looked_up_at_call_time(monkeypatch, sizes, reached):
    # The benchmark's traced layers wrap these engine module globals; a
    # construction must reach them there, not through names bound earlier.
    calls = collections.Counter()

    def counting(name, func):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)
        return wrapper

    for name in ("named_family", "fixed_matrix", "tilde_matrix",
                 "is_product_irregular", "search_labelings"):
        monkeypatch.setattr(engine, name, counting(name, getattr(engine, name)))
    g = cliques_with_edges(sizes, [(0, sizes[0]), (0, sizes[0] + sizes[1])])
    construct_labeling(g)
    assert set(calls) == reached
