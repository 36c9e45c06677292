#!/usr/bin/env python3
"""Strength-3 labelings for unions of three cliques.

Large parts combine named family matrices directly. Once every part has
size 5 or less the plain sums run out of room, and the tilde variants plus
two weighted cross entries (the "injections") take over: each injection
multiplies exactly the two touched vertex degrees by its weight, which is
what separates rows that would otherwise collide.
"""

import json
from pathlib import Path

from pistr import (catalog_matrix, check_matrix, direct_sum, fixed_matrix,
                   named_family, tilde_matrix)
from pistr.engine import PATTERN_DIFF, PATTERN_SAME

print("Triple family sums (B block largest, A block smallest):")
for sizes in [(7, 8, 9), (7, 25, 10), (9, 9, 9)]:
    a, c, b = sorted(sizes)[0], sorted(sizes)[1], sorted(sizes)[2]
    m = direct_sum([named_family(a, "A"), named_family(b, "B"), named_family(c, "C")])
    print(f"  A_{a} + B_{b} + C_{c}: irregular={check_matrix(m).ok}")

print("\nTilde sums alone are NOT product-irregular:")
base = direct_sum([tilde_matrix(5, "A"), tilde_matrix(5, "B"), tilde_matrix(5, "C")])
report = check_matrix(base)
print(f"  tA_5 + tB_5 + tC_5: irregular={report.ok}, witness={report.witness}")

print("\n...until the two injections separate the colliding rows")
print("(the engine's catalog rows, middle block tB_5 first):")
for tag, pattern in [("both in-edges at one vertex", PATTERN_SAME),
                     ("in-edges at different vertices", PATTERN_DIFF)]:
    r = check_matrix(catalog_matrix((5, 5, 5), 5, pattern))
    print(f"  {tag}: irregular={r.ok}, "
          f"degrees={sorted(d.value for d in r.degrees)}")

print("\nThe all-sixes case is a straight sum of three fixed blocks:")
m666 = direct_sum([fixed_matrix(f"M666_BLOCK{i}") for i in (1, 2, 3)])
print(f"  M666: irregular={check_matrix(m666).ok}")
print(f"  M666 minus its degree-1 row (sizes 5,6,6): "
      f"irregular={check_matrix(m666[1:, 1:]).ok}")

# Map where B_n + C_m is product-irregular; the exceptional pairs sit on
# and near the diagonal at small orders.
print("\nB_n + C_m region, 4 <= n,m <= 12 (X = irregular, . = collision):")
print("      " + " ".join(f"{m:2d}" for m in range(4, 13)))
table = {}
for n in range(4, 21):
    row = []
    for m in range(4, 21):
        ok = check_matrix(direct_sum([named_family(n, "B"),
                                      named_family(m, "C")])).ok
        table[f"{n},{m}"] = ok
        if m <= 12:
            row.append(" X" if ok else " .")
    if n <= 12:
        print(f"  n={n:2d}" + " ".join(row))

out = Path(__file__).resolve().parents[1] / "artifacts" / "bn_cm_product_irregularity.json"
if out.exists():
    archived = json.loads(out.read_text())["product_irregular"]
    print(f"\nmatches archived table: {archived == table}")
