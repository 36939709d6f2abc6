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
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    "Monomial",
    "MagnusSeries",
    "magnus_expand",
    "reduced_expand",
    "gamma_class_lower_bound",
    "mu_coefficient",
    "CheckResult",
    "InvisibilityReport",
    "milnor_invisibility_report",
]

Monomial = tuple[int, ...]


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

    @classmethod
    def one(cls, truncation: int) -> "MagnusSeries":
        return cls(truncation, {(): 1})

    @property
    def is_one(self) -> bool:
        return self.terms == {(): 1}

    def coefficient(self, monomial: Sequence[int]) -> int:
        return self.terms.get(tuple(monomial), 0)

    def lowest_positive_degree(self) -> int | None:
        """Smallest degree >= 1 carrying a nonzero term, or None."""
        degrees = [len(m) for m in self.terms if m]
        return min(degrees) if degrees else None

    def __mul__(self, other: "MagnusSeries") -> "MagnusSeries":
        if not isinstance(other, MagnusSeries):
            return NotImplemented
        if self.truncation != other.truncation:
            raise ValueError("cannot multiply series with different truncations")
        product = _convolve(self.terms, other.terms, self.truncation,
                            distinct_only=False)
        return MagnusSeries(self.truncation, product)

    def __str__(self) -> str:
        return _format_terms(self.terms)


def _convolve(
    a: Mapping[Monomial, int],
    b: Mapping[Monomial, int],
    truncation: int,
    distinct_only: bool,
) -> dict[Monomial, int]:
    out: dict[Monomial, int] = {}
    for m1, c1 in a.items():
        room = truncation - len(m1)
        for m2, c2 in b.items():
            if len(m2) > room:
                continue
            monomial = m1 + m2
            if distinct_only and _has_repeat(monomial):
                continue
            value = out.get(monomial, 0) + c1 * c2
            if value:
                out[monomial] = value
            else:
                out.pop(monomial, None)
    return out


def _syllable_terms(index: int, exponent: int, truncation: int) -> dict[Monomial, int]:
    """Expansion of ``x_index ^ exponent`` as ``(1 + X)^exponent`` truncated.

    Uses the generalized binomial recurrence, which is exact for negative
    exponents as well (the alternating geometric series).
    """
    terms: dict[Monomial, int] = {}
    coeff = 1
    for j in range(truncation + 1):
        if coeff:
            terms[(index,) * j] = coeff
        coeff = coeff * (exponent - j) // (j + 1)
    return terms


def _expand(w: Word, truncation: int, distinct_only: bool) -> MagnusSeries:
    if truncation < 1:
        raise ValueError(f"truncation must be >= 1, got {truncation}")
    # repeated-index monomials vanish in the reduced ring, so there
    # x_i^e = (1 + X_i)^e is just 1 + e X_i
    syllable_degree = 1 if distinct_only else truncation
    terms: dict[Monomial, int] = {(): 1}
    for index, exponent in w.syllables:
        terms = _convolve(terms, _syllable_terms(index, exponent, syllable_degree),
                          truncation, distinct_only)
    return MagnusSeries(truncation, terms)


def magnus_expand(w: Word, truncation: int) -> MagnusSeries:
    """Expand a word at the given truncation degree.

    Multiplicative (``expand(uv) = expand(u) expand(v)`` truncated) and
    sends the identity to 1.
    """
    return _expand(w, truncation, distinct_only=False)


def reduced_expand(w: Word, truncation: int) -> MagnusSeries:
    """The Magnus expansion with repeated-index monomials deleted.

    Computed by filtering during the product, which agrees with filtering
    afterwards because the deleted monomials form an ideal.  The result is
    a plain :class:`MagnusSeries`, so ``*`` on two reduced expansions
    multiplies in the full ring; expand the product word instead.
    """
    return _expand(w, truncation, distinct_only=True)


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
    return magnus_expand(w, max_degree).lowest_positive_degree()


def mu_coefficient(w: Word, indices: Sequence[int]) -> int:
    """Milnor-type coefficient of the distinct-index monomial ``indices``.

    A nonzero value certifies that ``w`` survives in the quotient by the
    self-commutators of the meridian closures; zero is inconclusive.
    """
    indices = tuple(indices)
    if not indices:
        raise ValueError("index sequence must be nonempty")
    if any(i < 1 for i in indices):
        raise ValueError("indices must be >= 1")
    if _has_repeat(indices):
        raise ValueError(f"repeated index in {indices}; mu indices must be distinct")
    return reduced_expand(w, len(indices)).coefficient(indices)


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
