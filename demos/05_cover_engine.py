#!/usr/bin/env python3
"""End-to-end walkthrough of the cover-driven labeling engine.

Given a connected graph whose vertex set splits into at most three cliques,
the engine picks cross edges forming a spanning tree over the parts, maps
each clique onto a catalog matrix (permuting vertices so the chosen edges
land where the construction needs them), labels every surplus edge 1, and
verifies the result before returning it.
"""

import random

from pistr import (clique_cover, complete_graph, construct_labeling,
                   disjoint_union, add_cross_edge, emit_graph,
                   is_product_irregular)


def planted(sizes, extra, seed):
    rng = random.Random(seed)
    g = complete_graph(sizes[0])
    offs = [0]
    for s in sizes[1:]:
        offs.append(g.n_vertices)
        g = disjoint_union(g, complete_graph(s))
    for i in range(len(sizes) - 1):
        g = add_cross_edge(g, offs[i] + rng.randrange(sizes[i]),
                           offs[i + 1] + rng.randrange(sizes[i + 1]))
    added = 0
    while added < extra:
        u, v = rng.randrange(g.n_vertices), rng.randrange(g.n_vertices)
        if u != v and not g.has_edge(u, v):
            g = add_cross_edge(g, u, v)
            added += 1
    return g


g = planted((5, 6, 8), extra=4, seed=11)
print(f"graph: {g.n_vertices} vertices, {g.n_edges} edges")

cover = clique_cover(g, 3)
print(f"cover sizes: {cover.sizes}, cross edges available: "
      f"{len(cover.cross_edges)}")

out = construct_labeling(g)
case = out.case_trace
print(f"\ndispatch: {case.construction_id} "
      f"(source {out.source}, strength {out.strength})")
print(f"spanning-tree pattern: {case.pattern}, edges: "
      + ", ".join(f"{u}-{v}" for u, v in case.tree_edges))
for p, vmap in sorted(case.vertex_maps.items()):
    rows = " ".join(f"{v}->{i}" for v, i in sorted(vmap.items(), key=lambda x: x[1]))
    print(f"  part {p} onto block rows: {rows}")
print(f"verified: {is_product_irregular(out.labeling).ok}")
print("\nlabeled document:")
print(emit_graph(g, out.labeling))

# shapes without a catalog row fall back to bounded exact search
print("fallback example, sizes (4,4,9):")
g = planted((4, 4, 9), extra=2, seed=3)
out = construct_labeling(g)
print(f"  {out.case_trace.construction_id} -> strength {out.strength}, "
      f"verified {is_product_irregular(out.labeling).ok}")

print("\ntwo triangles with a bridge (strength 3 exists, found by search):")
g = planted((3, 3), extra=0, seed=1)
out = construct_labeling(g)
print(f"  {out.case_trace.construction_id} -> strength {out.strength}")
