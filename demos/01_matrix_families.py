#!/usr/bin/env python3
"""A tour of the M_n(x,y,z) matrix family.

The family places x in the anti-triangular region (column <= n - row + 1),
a single symmetric z at the pivot row k = ceil(n/2) + 1 against the last
column, and y everywhere else off the diagonal. With pairwise coprime
distinct labels every order gives a product-irregular matrix, which is the
engine room behind all the clique-cover constructions.
"""

from pistr import check_matrix, m_matrix, named_family, row_profile

print("M_7 with symbolic sentinels x=5, y=7, z=11:")
print(m_matrix(7, 5, 7, 11))

print("\nRow census (x, y, z counts) per row, order 7:")
for i in range(1, 8):
    profile = row_profile(7, i)
    print(f"  row {i}: type {profile.row_type}, counts {profile.counts}")

print("\nA_7 = M_7(1,2,3) with its product degrees:")
a7 = named_family(7, "A")
print(a7)
report = check_matrix(a7)
print("degrees:", [d.value for d in report.degrees])
print("product-irregular:", report.ok)

print("\nCoprime triples stay product-irregular across orders:")
for triple in [(1, 2, 3), (2, 3, 5), (3, 4, 5), (5, 6, 7)]:
    verdicts = [check_matrix(m_matrix(n, *triple)).ok for n in range(4, 41)]
    print(f"  labels {triple}: orders 4..40 all irregular -> {all(verdicts)}")

print("\nBut distinctness matters; repeated labels can collapse rows:")
m = m_matrix(6, 2, 2, 2)
print(f"  M_6(2,2,2) irregular? {check_matrix(m).ok}")
