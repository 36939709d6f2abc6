"""The simplicial group behind the loop space of the 2-sphere.

Degree n holds the free group on x1..xn, obtained from generators
x1..x_{n+1} with the single relation x1...x_{n+1} = 1.  Moore cycles
(kernels of all faces) represent homotopy classes; the suspension-Hopf
step z -> [s_0 z, s_1 z] climbs one degree and generates the tower words.

Run:  python3 demos/02_loop_space_towers.py
"""

from linkhomotopy import (
    VARIANT_ETA_DEGREE3,
    degeneracy,
    element,
    eta_tower,
    face,
    is_cycle,
    meridian_word,
    print_word,
    symmetric_commutator_sample,
)

z = element(1, "x1")
print("Start from the degree-1 generator and apply degeneracies:")
print(f"  s0 x1 = {degeneracy(0, z)}")
print(f"  s1 x1 = {degeneracy(1, z)}")

print("\nThe tower words (each one is a Moore cycle):")
for k in range(1, 5):
    tower = eta_tower(k)
    print(f"  tower({k}): cycle={is_cycle(tower)}, letters={tower.word.length}")
print(f"\n  tower(2) = {eta_tower(2)}")
print(f"  tower(3) = {eta_tower(3)}")

print("\nFaces kill cycles; on a non-cycle they leave a residue:")
t2 = eta_tower(2)
print(f"  d0 tower(2) = {face(0, t2)}")
print(f"  d1 x1 at degree 2 = {face(1, element(2, 'x1'))}  (not a cycle)")
print(f"  is_cycle(x1 at degree 2) -> {is_cycle(element(2, 'x1'))}")

print("\nA variant spelling of tower(3) circulates; it shares the tower's")
print("lower-central depth but fails the cycle test on the second face:")
print(f"  variant = {VARIANT_ETA_DEGREE3}")
print(f"  is_cycle -> {is_cycle(VARIANT_ETA_DEGREE3)}")
print(f"  d2 residue = {face(2, VARIANT_ETA_DEGREE3).word}")

print("\nSeeded elements of the symmetric commutator subgroup are always cycles:")
for seed in (0, 1, 12345):
    sample = symmetric_commutator_sample(2, seed)
    print(f"  seed {seed:>5}: cycle={is_cycle(sample)}, word={sample.word}")

print("\nMeridian transliteration labels the 4- and 5-strand fibration links:")
print(f"  meridian(4) = {print_word(meridian_word(4).word, letter='a')}")
