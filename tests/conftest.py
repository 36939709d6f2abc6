"""Shared helpers: seeded random data and independent brute-force oracles.

The oracles deliberately avoid the library's reduction and expansion code
paths so that tests compare two separate routes to the same value.  The
letter-level word oracles are the benchmark's (``perfbench/oracles.py``),
importable from the tests as ``oracles``.
"""

from __future__ import annotations

import copy
import pickle
import random
import sys
from pathlib import Path
from typing import Mapping

import pytest

from linkhomotopy import SimplicialElement, Word, element, reduce_word
from linkhomotopy.links import LinkProfile, build_profile

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

#: A decimal token one digit over the interpreter's int/str conversion
#: limit, and the message every parser gives for it.
LONG_DIGITS = "9" * (sys.get_int_max_str_digits() + 1)
TOO_LONG = (f"the integer has {len(LONG_DIGITS)} digits; "
            f"the limit is {sys.get_int_max_str_digits()}")


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


def assert_frozen_value(value: object, hashable: bool = True) -> None:
    """Copies and pickle round trips give an equal value (with an equal hash
    when ``hashable``), and no field can be assigned or deleted."""
    for copied in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(copied) is type(value)
        assert copied == value
        if hashable:
            assert hash(copied) == hash(value)
    # the fields in order, as class patterns read them
    for name in type(value).__match_args__:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    # a slotted frozen dataclass raised TypeError for a name that is not a
    # field (its generated __setattr__ called a zero-argument super())
    with pytest.raises((AttributeError, TypeError)):
        value.other = 1


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
