"""Independent reference computations for checking the program's outputs.

None of these routines import ``linkhomotopy``: words are plain lists of
letters ``(generator, +1 or -1)`` and every count comes from a closed form,
so a check compares two separate routes to the same value.
"""

from __future__ import annotations

from math import factorial, gcd
from itertools import product

Letter = tuple[int, int]


def letters_of(syllables) -> list[Letter]:
    """Expand ``(generator, exponent)`` syllables into single letters."""
    out: list[Letter] = []
    for gen, exp in syllables:
        out.extend([(gen, 1 if exp > 0 else -1)] * abs(exp))
    return out


def reduce_letters(letters) -> list[Letter]:
    """Free reduction by cancelling adjacent inverse letters on a stack."""
    stack: list[Letter] = []
    for gen, sign in letters:
        if stack and stack[-1] == (gen, -sign):
            stack.pop()
        else:
            stack.append((gen, sign))
    return stack


def inverse_letters(letters) -> list[Letter]:
    return [(gen, -sign) for gen, sign in reversed(letters)]


def print_letters(letters, letter: str = "x") -> str:
    """Render reduced letters in the program's syllable notation."""
    if not letters:
        return "1"
    parts = []
    i = 0
    while i < len(letters):
        gen, sign = letters[i]
        j = i
        while j < len(letters) and letters[j] == (gen, sign):
            j += 1
        exp = sign * (j - i)
        parts.append(f"{letter}{gen}" if exp == 1 else f"{letter}{gen}^{exp}")
        i = j
    return " ".join(parts)


def _substitute(letters, images) -> list[Letter]:
    out: list[Letter] = []
    for gen, sign in letters:
        image = images(gen)
        out.extend(image if sign > 0 else inverse_letters(image))
    return out


def canonical(letters, degree: int) -> list[Letter]:
    """Rewrite ``x_{degree+1}`` as ``(x1 ... x_degree)^-1`` and reduce."""
    last = inverse_letters([(j, 1) for j in range(1, degree + 1)])
    return reduce_letters(_substitute(
        letters, lambda g: last if g == degree + 1 else [(g, 1)]))


def face(i: int, letters, degree: int) -> list[Letter]:
    """``d_i`` from degree ``degree`` to ``degree - 1``, letter by letter."""
    def image(j: int) -> list[Letter]:
        if j < i + 1:
            return [(j, 1)]
        if j == i + 1:
            return []
        return [(j - 1, 1)]
    return canonical(_substitute(letters, image), degree - 1)


def degeneracy(i: int, letters, degree: int) -> list[Letter]:
    """``s_i`` from degree ``degree`` to ``degree + 1``, letter by letter."""
    def image(j: int) -> list[Letter]:
        if j < i + 1:
            return [(j, 1)]
        if j == i + 1:
            return [(j, 1), (j + 1, 1)]
        return [(j + 1, 1)]
    return canonical(_substitute(letters, image), degree + 1)


def is_cycle(letters, degree: int) -> bool:
    return all(not face(i, letters, degree) for i in range(degree + 1))


def magnus_coefficient(letters, monomial) -> int:
    """Coefficient of ``X_{m1} ... X_{mk}`` (distinct indices) in the Magnus
    expansion, by a dynamic program over the letters.

    ``x -> 1 + X`` and ``x^-1 -> 1 - X + X^2 - ...``; with distinct indices a
    letter contributes at most one ``X``, so the state is the length of the
    monomial prefix matched so far.
    """
    k = len(monomial)
    ways = [1] + [0] * k
    for gen, sign in letters:
        for j in range(k - 1, -1, -1):
            if ways[j] and monomial[j] == gen:
                ways[j + 1] += sign * ways[j]
    return ways[k]


def _mobius(n: int) -> int:
    result, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return -result if n > 1 else result


def witt_count(alphabet: int, length: int) -> int:
    """Number of Lyndon words of the given length (Witt's necklace formula)."""
    total = sum(_mobius(d) * alphabet ** (length // d)
                for d in range(1, length + 1) if length % d == 0)
    return total // length


def lyndon_content_count(content) -> int:
    """Lyndon words with ``content[i]`` copies of letter ``i``: the graded
    Witt formula ``(1/L) sum_{d | gcd} mu(d) (L/d)! / prod (a_i/d)!``."""
    length = sum(content)
    g = 0
    for a in content:
        g = gcd(g, a)
    total = 0
    for d in range(1, g + 1):
        if g % d == 0:
            term = factorial(length // d)
            for a in content:
                term //= factorial(a // d)
            total += _mobius(d) * term
    return total // length


def wedge_sphere_dims(n: int, dims) -> dict[int, int]:
    """Sphere dimensions (with multiplicity) that the basic products of a
    wedge of spheres contribute to ``pi_n``: one sphere of dimension
    ``1 + sum a_i (d_i - 1)`` per Lyndon word of content ``a``."""
    counts: dict[int, int] = {}
    for content in product(range(n), repeat=len(dims)):
        if not 1 <= sum(content) <= n - 1:
            continue
        dim = 1 + sum(a * (d - 1) for a, d in zip(content, dims))
        if dim > n:
            continue
        c = lyndon_content_count(content)
        if c:
            counts[dim] = counts.get(dim, 0) + c
    return counts


def nu_chi2(nu, full, i, j) -> int:
    return nu[full - {i, j}] - nu[full - {i}] - nu[full - {j}] + nu[full]


def nu_chi3(nu, full, i, j, k) -> int:
    return (nu[full - {i, j, k}] - nu[full - {i, j}] - nu[full - {i, k}]
            - nu[full - {j, k}] + nu[full - {i}] + nu[full - {j}]
            + nu[full - {k}] - nu[full])


def realizability_violations(nu, size: int) -> int:
    """Count of findings ``realizability_findings`` must report."""
    full = frozenset(range(1, size + 1))
    found = 0
    for i in range(1, size + 1):
        for j in range(i + 1, size + 1):
            for k in range(j + 1, size + 1):
                if nu_chi3(nu, full, i, j, k) < -1:
                    found += 1
    if size == 3 and nu_chi3(nu, full, 1, 2, 3) == 1:
        found += 1
    return found
