#!/usr/bin/env python3
"""Exact strength computations at desk scale.

The direct solver runs a pruned depth-first search over edge labelings;
the per-component solver enumerates each component's achievable degree
multisets and combines disjoint ones, which is dramatically cheaper for
unions of cliques. Two folklore reference values turn out to be wrong:
both K3+K3+edge and K5+K5+K4 have strength 3, with certificates below.
"""

from pistr import (add_cross_edge, complete_graph, component_signatures,
                   disjoint_union, emit_graph, is_product_irregular, ps_exact,
                   ps_exact_disconnected, verify_k4_characterization)

print("ps(K_3):")
r = ps_exact(complete_graph(3), 3)
print(f"  value={r.value}, nodes={r.nodes_explored}")

print("\nps(K_3 + K_3 + edge): exhausts strengths 1 and 2, then finds")
g = add_cross_edge(disjoint_union(complete_graph(3), complete_graph(3)), 0, 3)
r = ps_exact(g, 4)
print(f"  value={r.value}, nodes={r.nodes_explored}")
print("  certificate:")
print("  " + emit_graph(g, r.certificate).replace("\n", "\n  ").rstrip())

print("\nps(K_4 + K_4) > 3: every irregular 4-clique needs a degree-6 vertex,")
print("and two disjoint 4-cliques cannot both have one:")
g44 = disjoint_union(complete_graph(4), complete_graph(4))
print(f"  at s_max=3: value={ps_exact(g44, 3).value}")
print(f"  at s_max=4: value={ps_exact(g44, 4).value}")
print(f"  4x4 characterization over all 729 labelings: "
      f"{verify_k4_characterization()}")

print("\nComponent signatures of K_5 at strength 3 (first five):")
sigs = component_signatures(complete_graph(5), 3)
for sig in sigs[:5]:
    print(f"  {sig.degree_values}")
print(f"  ... {len(sigs)} distinct degree multisets in total")

print("\nps(K_5 + K_5 + K_4) one component at a time:")
g = disjoint_union(disjoint_union(complete_graph(5), complete_graph(5)),
                   complete_graph(4))
r = ps_exact_disconnected(g, 4)
print(f"  value={r.value}, nodes={r.nodes_explored}")
degrees = sorted(d.value for d in is_product_irregular(r.certificate).degrees)
print(f"  certificate degrees: {degrees}")
