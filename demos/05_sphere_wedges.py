"""Homotopy groups of sphere wedges via basic products.

pi_n of a wedge of spheres splits as a sum over Lyndon words in the wedge
letters: a word with letter dimensions d_1..d_w contributes the sphere of
dimension 1 + sum(d_t - 1), and spheres above n drop out.

Run:  python3 demos/05_sphere_wedges.py
"""

from linkhomotopy import (
    HomotopyTable,
    hilton_pi,
    homotopy_table_lookup,
    lyndon_words,
)
from linkhomotopy.homotopy import TableEntry

print("Builtin table lookups (misses stay symbolic, never guessed):")
for n, m in [(3, 3), (4, 3), (6, 3), (5, 2), (3, 5), (7, 3)]:
    value = homotopy_table_lookup(n, m)
    shown = value.render() if value is not None else "unknown"
    print(f"  pi_{n}(S^{m}) = {shown}")

print("\nLyndon words over two letters, lengths up to 3:")
print(f"  {lyndon_words(2, 3)}")

print("\npi_3 of S^2 v S^2: two letters plus one weight-2 bracket ->")
print(f"  {hilton_pi(3, [2, 2]).render()}")

print("\npi_4 of S^2 v S^2: the weight-3 brackets reach S^4 ->")
print(f"  {hilton_pi(4, [2, 2]).render()}")

print("\nMixed dimensions and unknown entries:")
print(f"  pi_6(S^2 v S^2) = {hilton_pi(6, [2, 2]).render(mark_unknown=True)}")

print("\nA user table extends coverage (each entry carries provenance):")
table = HomotopyTable()
table.entries[(6, 2)] = TableEntry(
    homotopy_table_lookup(6, 3), "matches the fibration image", user_supplied=True
)
print(f"  pi_6(S^2 v S^2) = {hilton_pi(6, [2, 2], table).render(mark_unknown=True)}")
