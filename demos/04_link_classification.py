"""Splitting profiles and classification of meridian-intersection quotients.

A link is abstracted to the splitting genus of each of its sublinks.  The
inclusion-exclusion invariants chi2/chi3 read off the homotopy type of the
deletion pushouts, and the classifier turns them into groups.

Run:  python3 demos/04_link_classification.py
"""

from linkhomotopy import (
    build_profile,
    chi2,
    chi3,
    classify_A,
    classify_X3,
    realizability_findings,
    strongly_nonsplittable,
)

hopf = {n: build_profile(n, "hopf") for n in (3, 4, 5, 6)}
print("Fibration-link profiles are strongly nonsplittable:")
print(f"  strongly_nonsplittable(hopf 4) -> {strongly_nonsplittable(hopf[4])}")
print(f"  chi3(hopf 3) = {chi3(hopf[3], 1, 2, 3)}"
      f"   (triple pushout: {classify_X3(hopf[3], 1, 2, 3)})")

print("\nFull classification across strand counts (via the homotopy table):")
for n in (3, 4, 5, 6):
    result = classify_A(hopf[n], (), range(1, n + 1))
    print(f"  {n} strands: {result.main_line()}")

print("\nThe five 3-component cases:")
chain3 = build_profile(3, overrides={
    frozenset(): -1,
    frozenset({1}): 0, frozenset({2}): 0, frozenset({3}): 0,
    frozenset({1, 2}): 0, frozenset({1, 3}): 1, frozenset({2, 3}): 1,
    frozenset({1, 2, 3}): 1,
})
one_split = build_profile(3, overrides={
    frozenset(): -1,
    frozenset({1}): 0, frozenset({2}): 0, frozenset({3}): 0,
    frozenset({1, 2}): 0, frozenset({1, 3}): 0, frozenset({2, 3}): 1,
    frozenset({1, 2, 3}): 0,
})
for label, profile in [
    ("three separate knots", build_profile(3, "trivial")),
    ("linked pair + loose knot", chain3),
    ("brunnian", build_profile(3, "brunnian")),
    ("splits after one deletion", one_split),
    ("strongly nonsplittable", build_profile(3, "hopf")),
]:
    result = classify_A(profile, (), (1, 2, 3))
    print(f"  {label:28} chi3={chi3(profile, 1, 2, 3):>2}  ->  {result.main_line()}")

print("\nTwo-component intersections obey a dichotomy for larger links:")
rings = {frozenset(s): 0
         for r in range(1, 5)
         for s in __import__('itertools').combinations(range(1, 5), r)}
rings[frozenset()] = -1
rings[frozenset({3, 4})] = 1  # two separate rings behind a linked pair
p = build_profile(4, overrides=rings)
result = classify_A(p, (), (1, 2))
print(f"  chi2 = {chi2(p, 1, 2)}  ->  {result.main_line()}")

print("\nThe same profile as a strongly nonsplittable pair over the rings:")
result = classify_A(p, (3, 4), (1, 2))
print(f"  {result.main_line()}")
for note in result.notes:
    print(f"  note: {note}")

print("\nProfiles that no link realizes are flagged:")
impossible = build_profile(3, overrides={
    frozenset(): -1,
    frozenset({1}): 0, frozenset({2}): 0, frozenset({3}): 0,
    frozenset({1, 2}): 1, frozenset({1, 3}): 1, frozenset({2, 3}): 0,
    frozenset({1, 2, 3}): 0,
})
for finding in realizability_findings(impossible):
    print(f"  {finding}")
