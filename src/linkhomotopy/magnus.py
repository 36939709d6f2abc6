"""Truncated Magnus expansion with exact integer coefficients.

Words map into the ring of noncommutative polynomials over indeterminates
``X1, X2, ...`` by substituting ``x_i -> 1 + X_i`` (and the truncated
geometric series for inverses), discarding monomials above a fixed degree.
Monomials are index tuples, coefficients are exact Python integers, and the
expansion of a group element always has constant term 1.

Because the expansion embeds a free group into the power-series ring, the
smallest positive degree with a nonzero coefficient equals the word's depth
in the lower central series; that makes :func:`gamma_class_lower_bound` an
exact certificate.  Deleting every monomial with a repeated index gives the
*reduced* expansion, whose coefficients on distinct-index monomials are the
Milnor-type invariants: a nonzero coefficient certifies nontriviality in
the quotient of the group by the commutators of each meridian closure with
itself, while vanishing up to a truncation certifies nothing.

Expansions are computed densely (Magnus-Karrass-Solitar, ch. 5): on ``r``
generators, degree ``d`` has ``r**d`` slots packed into one exact integer
``sum_i v_i * 2**(B*i)`` (Kronecker substitution), ``sum_{d <= T} r**d``
slots in all (``d <= min(T, r)`` when reduced).  A syllable ``x_a^e`` costs
one shift-and-add of whole blocks per degree and binomial term, at most
``T`` terms however large ``|e|`` is.  As ``|C(e, j)| <= [t^j] (1-t)^-|e|``,
no coefficient of a word of ``E`` letters exceeds ``C(E + T - 1, T)`` in
absolute value; ``B`` is its bit length plus a sign bit, in whole bytes.
The cost follows the slot count, not the nonzero terms, so a short word on
many generators is slower than a sparse product would be.
:func:`mu_coefficient` needs no expansion: one pass over the syllables,
``O(syllables + k)`` for ``k`` indices (Fox 1953).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from math import comb
from typing import Mapping, Sequence

from .simplicial import (
    VARIANT_ETA_DEGREE3,
    VARIANT_ETA_DEGREE4,
    SimplicialElement,
    eta_tower,
    is_cycle,
)
from .words import Word

__all__ = [
    "MagnusSeries",
    "magnus_expand",
    "reduced_expand",
    "gamma_class_lower_bound",
    "mu_coefficient",
    "milnor_invisibility_report",
]

Monomial = tuple[int, ...]

#: Most coefficient slots a dense expansion may hold, ``B / 8`` bytes each; the
#: largest in use, ``eta_tower(5)`` at truncation 7, holds 97,656 of 7 bytes.
_MAX_SLOTS = 2**24


def _has_repeat(monomial: Monomial) -> bool:
    return len(set(monomial)) != len(monomial)


def _format_terms(terms: Mapping[Monomial, int]) -> str:
    if not terms:
        return "0"
    ordered = sorted(terms.items(), key=lambda item: (len(item[0]), item[0]))
    pieces: list[str] = []
    for monomial, coeff in ordered:
        name = "".join(f"X{i}" for i in monomial) if monomial else "1"
        magnitude = abs(coeff)
        body = name if magnitude == 1 and monomial else (
            str(magnitude) if not monomial else f"{magnitude}*{name}"
        )
        if not pieces:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(pieces)


@dataclass(frozen=True)
class MagnusSeries:
    """A degree-truncated noncommutative polynomial with integer coefficients.

    ``terms`` stores no zero coefficients and no monomial above the
    truncation degree; instances compare by truncation and terms.
    """

    truncation: int
    terms: dict[Monomial, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.truncation < 1:
            raise ValueError(f"truncation must be >= 1, got {self.truncation}")
        for monomial, coeff in self.terms.items():
            if coeff == 0:
                raise ValueError("stored zero coefficient")
            if len(monomial) > self.truncation:
                raise ValueError("monomial exceeds truncation degree")

    @property
    def is_one(self) -> bool:
        return self.terms == {(): 1}

    def coefficient(self, monomial: Sequence[int]) -> int:
        return self.terms.get(tuple(monomial), 0)

    def __mul__(self, other: "MagnusSeries") -> "MagnusSeries":
        if not isinstance(other, MagnusSeries):
            return NotImplemented
        if self.truncation != other.truncation:
            raise ValueError("cannot multiply series with different truncations")
        out: dict[Monomial, int] = {}
        for m1, c1 in self.terms.items():
            room = self.truncation - len(m1)
            for m2, c2 in other.terms.items():
                if len(m2) <= room:
                    monomial = m1 + m2
                    out[monomial] = out.get(monomial, 0) + c1 * c2
        return MagnusSeries(self.truncation, {m: c for m, c in out.items() if c})

    def __str__(self) -> str:
        return _format_terms(self.terms)


def _dense_blocks(
    w: Word, truncation: int, reduced: bool
) -> tuple[tuple[int, ...], int, list[int]]:
    """Coefficients of ``w``'s expansion as ``(support, width, blocks)``.

    ``support`` is the sorted tuple of the ``r`` generators of ``w`` and
    ``blocks[d]`` is ``sum_i v_i * 2**(width * i)`` with every ``|v_i| <
    2**(width - 1)``: slot ``i`` is the monomial whose base-``r`` digits of
    ``i``, least significant first, index ``support``.  Reduced blocks stop
    at degree ``min(truncation, r)``, and syllables contribute only ``1 + e
    X``; their repeated-index slots are not the full expansion's.
    """
    if truncation < 1:
        raise ValueError(f"truncation must be >= 1, got {truncation}")
    support = tuple(sorted({index for index, _ in w.syllables}))
    r = len(support)
    if reduced:
        # repeated-index monomials vanish in the reduced ring, so degrees
        # stop at r and x_i^e = (1 + X_i)^e is just 1 + e X_i
        truncation = min(truncation, r)
    # sum_{d <= T} r**d slots, one block per degree; past degree 64 the count
    # is only a lower bound (it is cheap and already above the limit)
    top = min(truncation, 64)
    slots = truncation + 1 if r < 2 else (r ** (top + 1) - 1) // (r - 1)
    if slots > _MAX_SLOTS:
        raise ValueError(
            f"dense Magnus expansion needs {'over ' if top < truncation else ''}"
            f"{slots} coefficient slots ({r} generators, truncation {truncation}); "
            f"the limit is {_MAX_SLOTS}"
        )
    # the coefficient bound C(E + T - 1, T) plus a sign bit, in whole bytes
    bound = comb(w.length + truncation - 1, truncation) if w.syllables else 0
    width = (bound.bit_length() + 8) // 8 * 8
    # ones[m] = sum_{i < m} r**i; X_a^j adds a * (ones[d] - ones[d - j]) to the
    # slot of a degree d - j monomial
    ones = [0]
    for _ in range(truncation):
        ones.append(ones[-1] * r + 1)
    letter = {index: width * a for a, index in enumerate(support)}
    blocks = [1] + [0] * truncation
    descending, ascending = range(truncation, 0, -1), range(1, truncation + 1)
    for index, exponent in w.syllables:
        shift, k = letter[index], abs(exponent)
        # a reduced syllable is 1 + e X_a, a full one (1 + X_a)^e
        coeffs = [comb(k, j) for j in range(min(1 if reduced else k, truncation) + 1)]
        # multiplying reads the old lower blocks, so degrees descend; dividing
        # by (1 + X_a)^k reads the new ones, so they ascend
        degrees = ascending if exponent < 0 and not reduced else descending
        for d in degrees:
            block = blocks[d]
            for j in range(1, min(d, len(coeffs) - 1) + 1):
                term = blocks[d - j] << shift * (ones[d] - ones[d - j])
                term = term if coeffs[j] == 1 else coeffs[j] * term
                block = block + term if exponent > 0 else block - term
            blocks[d] = block
    return support, width, blocks


def _expand(w: Word, truncation: int, reduced: bool) -> MagnusSeries:
    support, width, blocks = _dense_blocks(w, truncation, reduced)
    r, size, half = len(support), width // 8, 1 << (width - 1)
    terms: dict[Monomial, int] = {}
    for d, block in enumerate(blocks):
        if not block:
            continue
        # biased by half, every slot is ``size`` unsigned bytes
        bias = int.from_bytes(half.to_bytes(size, "little") * r**d, "little")
        data = (block + bias).to_bytes(size * r**d, "little")
        # each monomial's byte offset, monomials in lexicographic order
        places = (range(0, size * r ** (k + 1), size * r**k) for k in range(d))
        for monomial, at in zip(product(support, repeat=d), map(sum, product(*places))):
            coeff = int.from_bytes(data[at : at + size], "little") - half
            if coeff and not (reduced and _has_repeat(monomial)):
                terms[monomial] = coeff
    return MagnusSeries(truncation, terms)


def magnus_expand(w: Word, truncation: int) -> MagnusSeries:
    """Expand a word at the given truncation degree.

    Multiplicative (``expand(uv) = expand(u) expand(v)`` truncated) and
    sends the identity to 1.
    """
    return _expand(w, truncation, reduced=False)


def reduced_expand(w: Word, truncation: int) -> MagnusSeries:
    """The Magnus expansion with repeated-index monomials deleted.

    Computed in the dense layout with ``1 + e X_i`` syllables up to degree
    ``min(truncation, r)``, which agrees with filtering the full expansion
    because the deleted monomials form an ideal.  The result is a plain
    :class:`MagnusSeries`, so ``*`` on two reduced expansions multiplies in
    the full ring; expand the product word instead.
    """
    return _expand(w, truncation, reduced=True)


def gamma_class_lower_bound(w: Word, max_degree: int) -> int | None:
    """Exact lower-central-series class of ``w`` up to ``max_degree``.

    Returns the smallest positive degree ``d <= max_degree`` with a nonzero
    Magnus term (the word lies in the d-th term of the series but not the
    next), or ``None`` when all positive terms vanish up to the bound,
    certifying membership in the ``(max_degree + 1)``-st term.  The identity
    word returns ``None`` by convention.
    """
    if max_degree < 1:
        raise ValueError(f"max_degree must be >= 1, got {max_degree}")
    _, _, blocks = _dense_blocks(w, max_degree, reduced=False)
    return next((d for d in range(1, max_degree + 1) if blocks[d]), None)


def mu_coefficient(w: Word, indices: Sequence[int]) -> int:
    """Milnor-type coefficient of the distinct-index monomial ``indices``.

    A nonzero value certifies that ``w`` survives in the quotient by the
    self-commutators of the meridian closures; zero is inconclusive.
    Computed in one pass over the syllables: a distinct-index coefficient
    only sees the ``e X_i`` term of each syllable ``x_i^e``, so it counts
    the weighted ways to pick ``indices`` as a subsequence of the word's
    syllables (the Fox-derivative recursion).
    """
    indices = tuple(indices)
    if not indices:
        raise ValueError("index sequence must be nonempty")
    if any(i < 1 for i in indices):
        raise ValueError("indices must be >= 1")
    if _has_repeat(indices):
        raise ValueError(f"repeated index in {indices}; mu indices must be distinct")
    position = {index: p for p, index in enumerate(indices)}
    # matched[p] is the coefficient of X_{indices[0]} ... X_{indices[p-1]}
    # in the expansion of the prefix read so far
    matched = [1] + [0] * len(indices)
    for index, exponent in w.syllables:
        p = position.get(index)
        if p is not None:
            matched[p + 1] += exponent * matched[p]
    return matched[-1]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'} {self.name}: {self.detail}"


@dataclass(frozen=True)
class InvisibilityReport:
    """Desk check that low-length Milnor-type data cannot see a tower class.

    For the ``link_size``-strand fibration link the relevant class is the
    degree-``(link_size - 1)`` tower cycle; ``checks`` covers that word and
    ``variant_checks`` repeats the battery on the literature's variant word
    when one is defined for this size.
    """

    link_size: int
    checks: tuple[CheckResult, ...]
    variant_checks: tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def lines(self, include_variant: bool = False) -> list[str]:
        out = [check.line() for check in self.checks]
        if include_variant:
            out.extend(f"variant: {check.line()}" for check in self.variant_checks)
        return out


def _invisibility_checks(e: SimplicialElement, n: int) -> tuple[CheckResult, ...]:
    cycle = is_cycle(e)
    bound = gamma_class_lower_bound(e.word, n - 1)
    reduced = reduced_expand(e.word, n - 1)
    return (
        CheckResult(
            "moore cycle",
            cycle,
            "all faces vanish" if cycle else "some face is nontrivial",
        ),
        CheckResult(
            f"lower central class >= {n}",
            bound is None,
            f"no Magnus terms in degrees 1..{n - 1}"
            if bound is None
            else f"nonzero Magnus term in degree {bound}",
        ),
        CheckResult(
            f"reduced expansion trivial below length {n}",
            reduced.is_one,
            "all distinct-index coefficients of length "
            f"< {n} vanish" if reduced.is_one else f"reduced expansion {reduced}",
        ),
    )


def milnor_invisibility_report(n: int) -> InvisibilityReport:
    """Certify that the ``n``-strand tower class is invisible to Milnor data.

    For ``n`` in {4, 5}: the degree-``(n-1)`` tower cycle passes the cycle
    test, sits at lower-central class at least ``n``, and has identically
    trivial reduced expansion at truncation ``n - 1`` -- so no Milnor-type
    coefficient of length below ``n`` can distinguish it from the identity.
    Contrast with the 2-generator commutator at ``n = 3``, which the
    length-2 coefficient detects (see :func:`mu_coefficient`).
    """
    if n not in (4, 5):
        raise ValueError(f"unsupported link size {n}; expected 4 or 5")
    tower = eta_tower(n - 1)
    variant = VARIANT_ETA_DEGREE3 if n == 4 else VARIANT_ETA_DEGREE4
    return InvisibilityReport(
        link_size=n,
        checks=_invisibility_checks(tower, n),
        variant_checks=_invisibility_checks(variant, n),
    )
