#!/usr/bin/env python3
"""Strength-3 labelings for unions of two cliques.

A_n + B_m covers almost every size pair; the diagonal pairs (4,4), (5,5),
(6,6) need bespoke matrices, and the very small shapes need one connecting
edge carrying a real label. Run this to see each case and its degrees.
"""

from pistr import catalog_matrix, check_matrix, direct_sum, fixed_matrix, named_family


def show(label, matrix):
    report = check_matrix(matrix)
    degrees = sorted(d.value for d in report.degrees)
    print(f"{label:24s} irregular={report.ok}  degrees={degrees}")


show("A_4 + B_9", direct_sum([named_family(4, "A"), named_family(9, "B")]))
show("A_5 + B_12", direct_sum([named_family(5, "A"), named_family(12, "B")]))

print("\nThe three diagonal exceptions collide:")
for n in (4, 5, 6):
    m = direct_sum([named_family(n, "A"), named_family(n, "B")])
    report = check_matrix(m)
    u, v = report.witness
    print(f"  A_{n} + B_{n}: vertices {u} and {v} share degree "
          f"{report.degrees[u].value}")

print("\n...and their replacements:")
show("T5 + T5_TILDE", direct_sum([fixed_matrix("T5"), fixed_matrix("T5_TILDE")]))
show("T6 + T6_TILDE", direct_sum([fixed_matrix("T6"), fixed_matrix("T6_TILDE")]))
print("(4,4) needs a cross edge; the 8x8 matrix carries it at entry (4,5):")
show("K44 + edge", fixed_matrix("K44_EDGE_8x8"))

print("\nSmall parts lean on the cross edge too:")
print(catalog_matrix((2, 4)))
show("L(4)  [K_2 and K_4]", catalog_matrix((2, 4)))
show("L'(4) [K_1 and K_4]", catalog_matrix((1, 4)))
show("T + B_9 [K_3 case]", direct_sum([fixed_matrix("T"), named_family(9, "B")]))
