"""Shared helpers: seeded random data and independent brute-force oracles.

The oracles deliberately avoid the library's reduction and expansion code
paths so that tests compare two separate routes to the same value.
"""

from __future__ import annotations

import random
from typing import Mapping

from linkhomotopy import SimplicialElement, Word, element, reduce_word
from linkhomotopy.links import LinkProfile, build_profile


def random_syllables(
    rng: random.Random,
    max_generator: int,
    max_syllables: int = 8,
    max_exponent: int = 3,
) -> list[tuple[int, int]]:
    exponents = [e for e in range(-max_exponent, max_exponent + 1) if e != 0]
    return [
        (rng.randint(1, max_generator), rng.choice(exponents))
        for _ in range(rng.randint(0, max_syllables))
    ]


def random_word(
    rng: random.Random,
    max_generator: int,
    max_syllables: int = 8,
    max_exponent: int = 3,
) -> Word:
    return reduce_word(random_syllables(rng, max_generator, max_syllables, max_exponent))


def random_element(rng: random.Random, degree: int, max_syllables: int = 6) -> SimplicialElement:
    if degree == 0:
        return element(0, Word())
    return element(degree, random_word(rng, degree, max_syllables, max_exponent=2))


def syllable_text(syllables: list[tuple[int, int]]) -> str:
    """Parser input for a syllable list, unreduced, e.g. ``x2^-1 x2^3 x1``."""
    return " ".join(f"x{gen}^{exp}" for gen, exp in syllables) or "1"


def assert_canonical_word(w: Word) -> None:
    """Rebuilding ``w`` through the checking constructor gives ``w`` back."""
    assert type(w.syllables) is tuple
    assert Word(w.syllables) == w


def assert_canonical_element(e: SimplicialElement) -> None:
    """Rebuilding ``e`` through the checking constructor gives ``e`` back."""
    assert_canonical_word(e.word)
    assert SimplicialElement(e.degree, e.word) == e


def naive_reduce_letters(letters: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Letter-by-letter stack reduction; input and output are single letters
    ``(generator, +1 or -1)``."""
    stack: list[tuple[int, int]] = []
    for gen, sign in letters:
        if stack and stack[-1] == (gen, -sign):
            stack.pop()
        else:
            stack.append((gen, sign))
    return stack


def as_letters(syllables: list[tuple[int, int]]) -> list[tuple[int, int]]:
    letters = []
    for gen, exp in syllables:
        sign = 1 if exp > 0 else -1
        letters.extend([(gen, sign)] * abs(exp))
    return letters


def naive_canonical_letters(
    degree: int, letters: list[tuple[int, int]]
) -> list[tuple[int, int]]:
    """Letters on ``x1..x_{degree+1}`` in canonical form at ``degree``: the
    last generator ``x_{degree+1} = (x1...x_degree)^-1`` is eliminated by
    naive substitution and letter-level reduction."""
    prefix = list(range(1, degree + 1))
    canonical = []
    for j, sign in letters:
        if j == degree + 1:
            # x_{degree+1} = x_degree^-1 ... x1^-1, its inverse x1 ... x_degree
            canonical.extend((g, -sign) for g in (prefix[::-1] if sign > 0 else prefix))
        else:
            canonical.append((j, sign))
    return naive_reduce_letters(canonical)


def naive_structure_map(kind: str, i: int, degree: int, word: Word) -> list[tuple[int, int]]:
    """Letters of ``d_i`` (kind ``"face"``) or ``s_i`` (``"degeneracy"``) of a
    canonical degree-``degree`` word, in canonical form at the target degree.

    Applies the literal generator formulas of the simplicial module's
    docstring letter by letter, then eliminates the target degree's last
    generator with :func:`naive_canonical_letters`.
    """
    target = degree - 1 if kind == "face" else degree + 1
    letters = []
    for j, sign in as_letters(list(word.syllables)):
        if j < i + 1:
            image = [j]
        elif j == i + 1:
            image = [] if kind == "face" else [j, j + 1]
        else:
            image = [j - 1] if kind == "face" else [j + 1]
        letters.extend((g, sign) for g in (image if sign > 0 else reversed(image)))
    return naive_canonical_letters(target, letters)


def oracle_multiply(
    a: Mapping[tuple[int, ...], int], b: Mapping[tuple[int, ...], int], k: int
) -> dict[tuple[int, ...], int]:
    """Product of two term dicts (monomial -> coefficient, as in
    ``MagnusSeries.terms``) truncated at degree ``k``, by direct polynomial
    arithmetic; zero coefficients are dropped."""
    out: dict[tuple[int, ...], int] = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            if len(m1) + len(m2) <= k:
                key = m1 + m2
                out[key] = out.get(key, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def random_profile(rng: random.Random, n: int) -> LinkProfile:
    """A profile satisfying the basic genus constraints, otherwise arbitrary."""
    from itertools import combinations

    overrides: dict[frozenset[int], int] = {frozenset(): -1}
    for r in range(1, n + 1):
        for sub in combinations(range(1, n + 1), r):
            overrides[frozenset(sub)] = 0 if r == 1 else rng.randint(0, r - 1)
    return build_profile(n, overrides=overrides)
