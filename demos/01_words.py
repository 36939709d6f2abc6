"""Free-group word calculus: reduction, commutators, substitution maps.

Run:  python3 demos/01_words.py
"""

from linkhomotopy import (
    GeneratorMap,
    commutator,
    generator,
    in_normal_closure,
    parse_word,
    print_word,
    reduce_word,
)

x1, x2, x3 = generator(1), generator(2), generator(3)

print("Words are stored as reduced runs of (generator, exponent) syllables,")
print("so equal group elements are equal values.\n")

raw = [(1, 1), (1, -1), (2, 1), (2, 2)]
print(f"reduce x1 x1^-1 x2 x2^2      -> {print_word(reduce_word(raw))}")

w = commutator(x1 * x2, x1)
print(f"[x1 x2, x1]                  -> {print_word(w)}")
print(f"its inverse                  -> {print_word(~w)}")
print(f"[x1, x2]^3                   -> {print_word(commutator(x1, x2) ** 3)}")

print("\nThe expression grammar accepts brackets, powers and parentheses:")
expr = "[x1, [x2, x3]]^2"
print(f"parse {expr!r:20} -> {print_word(parse_word(expr))}")

print("\nSubstitution homomorphisms implement generator-killing maps;")
print("killing x2 in [x1 x2, x1] collapses it to the identity:")
print(f"  x2 -> 1 applied            -> {print_word(GeneratorMap({2: parse_word('')})(w))}")

print("\nThat is exactly the membership test for the normal closure <<x2>>:")
print(f"  [x1 x2, x1] in <<x2>>?     -> {in_normal_closure(w, 2)}")
print(f"  [x1 x2, x1] in <<x3>>?     -> {in_normal_closure(w, 3)}")
