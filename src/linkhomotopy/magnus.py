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
generators, degree ``d`` has ``r**d`` slots, ``sum_{d <= T} r**d`` in all,
packed into exact integers ``sum_i v_i * 2**(B*i)`` (Kronecker
substitution).  Slot ``i`` holds ``(g[i_0], ..., g[i_{d-1}])`` for the
word's generators ``g`` in increasing order and the base-``r`` digits
``i_0, i_1, ...`` of ``i``, least significant first; only nonzero fields
are decoded into monomials.  Degree ``d`` is ``r**max(0, d-m)`` chunks of
``r**min(d, m)`` slots, ``m = max(1, T - 2)``, keyed by its last letters.
A syllable ``x_a^e`` costs at most ``T`` binomial terms however large
``|e|`` is: ``X_a^j`` adds each nonzero chunk of degree ``d - j`` onto one
chunk of degree ``d``, as it is unless it is a whole lower degree, shifted
inside it, so a term touches about ``r**(T-1) * (r+1)/(r-1)`` slots, not
``sum_{d <= T} r**d``.  As ``|C(e, j)| <= [t^j] (1-t)^-|e|``, no
coefficient of a word of ``E`` letters exceeds ``C(E + T - 1, T)`` in
absolute value; ``B`` is its bit length plus a sign bit, in whole bytes.
The cost follows the slots of the nonzero chunks, not the nonzero terms, so
a short word on many generators is slower than a sparse product would be.

The deleted monomials form an ideal, and a distinct-index monomial has
degree at most ``r``.  Below ``T = r`` the reduced expansion is the dense
one, filtered (Milnor 1954).  From ``T >= r`` on, it is kept on sets of
generators instead, ``sum_{k <= r} r!/(r-k)!`` slots in all: one packed
integer per set ``S`` holds its ``|S|!`` orderings, the last letter most
significant (an ordering's slot is the rank of its last letter in ``S``
times ``(|S|-1)!`` plus the slot of the rest).  Modulo the ideal,
``(1 + X_a)^e = 1 + e X_a`` for every integer ``e``, and the orderings of
``S`` followed by ``a`` are one run of the block of ``S + {a}``; so a
syllable ``x_a^e`` costs one shift-and-add per nonzero set without ``a``,
at most ``2**(r-1)``.  The reduced coefficients are coefficients of the
full expansion at truncation ``r``, so the same ``B`` holds.  At a low
truncation on a wide support, sets would mean many small shifts where the
dense kernel makes a few whole-block ones, which is why ``T < r`` stays
dense.
:func:`mu_coefficient` needs no expansion: one pass over the syllables,
``O(syllables + k)`` for ``k`` indices (Fox 1953).  Either decoder counts
the letters of the nonzero terms before it builds a monomial; on one
generator they are counted in closed form before any degree is decoded.
"""

from __future__ import annotations

from itertools import accumulate
from math import comb, isqrt, log2
from operator import add, sub
from typing import Iterable, Mapping, Sequence

from . import _Frozen, _unwritable
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

#: Most coefficient slots an expansion may hold, ``B / 8`` bytes each; the
#: largest in use, ``eta_tower(5)`` at 7, holds 97,656 of 7 bytes (a syllable
#: ``x_a^+-1`` touches 22,655), and the largest on sets, ``eta_tower(7)`` at 7,
#: 13,700 of 10.  On sets, ``r <= 10`` fits at any truncation (9,864,101).
_MAX_SLOTS = 2**24

#: Most bytes those slots may take: ``B`` grows with the logarithm of the
#: exponents, so few slots can still be large.  The largest expansion in use
#: takes 683,592 bytes, 21,875 per chunk.
_MAX_BYTES = 2**26

#: Most letters the monomials of an expansion's nonzero terms may hold in all,
#: counted from the nonzero fields before any monomial is built.
_MAX_LETTERS = 2**24


def _has_repeat(monomial: Monomial) -> bool:
    return len(set(monomial)) != len(monomial)


def _format_terms(terms: Mapping[Monomial, int]) -> str:
    if not terms:
        return "0"
    ordered = sorted(terms.items(), key=lambda item: (len(item[0]), item[0]))
    pieces: list[str] = []
    try:
        names = {i: f"X{i}" for i in set().union(*terms)}.__getitem__
        for monomial, coeff in ordered:
            name = "".join(map(names, monomial)) if monomial else "1"
            magnitude = abs(coeff)
            body = name if magnitude == 1 and monomial else (
                str(magnitude) if not monomial else f"{magnitude}*{name}"
            )
            if not pieces:
                pieces.append(body if coeff > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
    except ValueError:  # a coefficient past the int/str digit limit
        raise _unwritable(terms.values()) from None
    return " ".join(pieces)


class MagnusSeries(_Frozen):
    """A degree-truncated noncommutative polynomial with integer coefficients.

    ``terms`` stores no zero coefficients and no monomial above the
    truncation degree, and is a new empty dict when omitted; instances
    compare by truncation and terms.
    """

    __match_args__ = ("truncation", "terms")

    def __init__(self, truncation: int, terms: dict[Monomial, int] | None = None) -> None:
        if terms is None:
            terms = {}
        if truncation < 1:
            raise ValueError(f"truncation must be >= 1, got {truncation}")
        for monomial, coeff in terms.items():
            if coeff == 0:
                raise ValueError("stored zero coefficient")
            if len(monomial) > truncation:
                raise ValueError("monomial exceeds truncation degree")
        self.__dict__.update(truncation=truncation, terms=terms)

    @property
    def is_one(self) -> bool:
        return self.terms == {(): 1}

    def __str__(self) -> str:
        return _format_terms(self.terms)


def _check_bytes(slots: int, bits: int, least: str, layout: str) -> int:
    """The field width for coefficients of ``bits`` bits, after checking
    that ``slots`` fields of it fit :data:`_MAX_BYTES`; ``least`` prefixes
    the sizes in the refusal when ``bits`` is only a lower bound."""
    width = (bits + 8) // 8 * 8  # a sign bit, in whole bytes
    if slots * width // 8 > _MAX_BYTES:
        raise ValueError(
            f"{layout} Magnus expansion needs {least}{slots * width // 8} bytes ({slots} "
            f"coefficient slots of {least}{width} bits); the limit is {_MAX_BYTES}"
        )
    return width


def _check_slots(slots: int, over: bool, r: int, truncation: int, layout: str) -> None:
    if slots > _MAX_SLOTS:
        raise ValueError(
            f"{layout} Magnus expansion needs {'over ' if over else ''}{slots} coefficient "
            f"slots ({r} generators, truncation {truncation}); the limit is {_MAX_SLOTS}"
        )


def _field_width(w: Word, degree: int, slots: int, layout: str) -> int:
    """The width of ``slots`` fields holding coefficients of ``w``'s
    expansion in degrees up to ``degree``, after the byte check."""
    # the coefficient bound C(E + T - 1, T) plus a sign bit, in whole bytes.
    # Computing it exactly takes time that grows with k = min(T, E - 1), so
    # past k = 64 its bit length is first bounded below by C(n, k) >= (n/k)^k,
    # less two bits for rounding, and a width over the limit by that bound is
    # refused before the exact value
    n, k = w.length + degree - 1, min(degree, w.length - 1)
    if k > 64:
        _check_bytes(slots, max(0, int(k * (log2(n) - log2(k))) - 1), "at least ", layout)
    bound = comb(n, degree) if w._syllables else 0
    return _check_bytes(slots, bound.bit_length(), "", layout)


def _nonzero_fields(block: int, count: int, width: int) -> list[tuple[int, int]]:
    """The nonzero fields ``(i, v_i)`` of a block of ``count`` fields, in
    order, skipping each run of ``isqrt(count)`` zero fields in one test."""
    size, half = width // 8, 1 << (width - 1)
    zero = half.to_bytes(size, "little")  # a zero field, biased by half
    data = (block + int.from_bytes(zero * count, "little")).to_bytes(size * count, "little")
    run = zero * isqrt(count)
    return [
        (at // size, int.from_bytes(chunk, "little") - half)
        for start in range(0, len(data), len(run))
        if data[start : start + len(run)] != run  # the last run may be short
        for at in range(start, min(start + len(run), len(data)), size)
        if (chunk := data[at : at + size]) != zero
    ]


def _check_letters(terms: int, letters: int) -> None:
    """Refuse, before any monomial is built, ``terms`` nonzero terms whose
    monomials hold ``letters`` letters in all, past :data:`_MAX_LETTERS`."""
    if letters > _MAX_LETTERS:
        raise ValueError(f"Magnus expansion has {terms} terms of {letters} letters in all; "
                         f"the limit is {_MAX_LETTERS}")


def _dense_blocks(w: Word, truncation: int) -> tuple[tuple[int, ...], int, int, Iterable[list]]:
    """Coefficients of ``w``'s expansion as ``(support, width, m, blocks)``.

    ``support`` is the sorted tuple of the ``r`` generators of ``w``; ``blocks``
    yields the chunks of degrees ``0, 1, ...`` up to ``T`` or the last nonzero
    one, chunk ``c`` of degree ``d`` being ``sum_i v_i * 2**(width * i)`` with
    ``|v_i| < 2**(width - 1)`` the coefficient of slot ``c * r**m + i``.
    """
    if truncation < 1:
        raise ValueError(f"truncation must be >= 1, got {truncation}")
    support = tuple(sorted({index for index, _ in w._syllables}))
    r = len(support)
    # sum_{d <= T} r**d slots; past degree 64 the count is only a lower bound
    # (it is cheap and already above the limit)
    top = min(truncation, 64)
    slots = truncation + 1 if r < 2 else (r ** (top + 1) - 1) // (r - 1)
    _check_slots(slots, top < truncation, r, truncation, "dense")
    width = _field_width(w, truncation, slots, "dense")
    m = max(1, truncation - 2)
    if r < 2:
        # one syllable x^e, or none: degree d's one slot holds C(e, d), yielded
        # as found and none past d = e >= 0, as T may be in the millions
        e = w._syllables[0][1] if r else 0
        steps = range(truncation if e < 0 else min(e, truncation))
        binomials = accumulate(steps, lambda c, d: c * (e - d) // (d + 1), initial=1)
        return support, width, m, ([c] for c in binomials)
    # ones[n] = sum_{i < n} r**i.  X_a^j moves slot s of degree d - j by
    # a * (ones[d] - ones[d - j]) slots, whole chunks of r**m and a shift that
    # stays inside one (nothing when d - j >= m)
    ones = [(r**n - 1) // (r - 1) for n in range(truncation + 1)]
    letter = {index: a for a, index in enumerate(support)}
    blocks = [[1]] + [[0] * r ** max(0, d - m) for d in range(1, truncation + 1)]
    # the moves of each letter and signed k, built once: T <= 23 (slot limit)
    plans: dict[tuple[int, int], list] = {}
    for index, exponent in w._syllables:
        # multiplying by (1 + X_a)^k reads the old lower degrees, so degrees
        # descend; dividing by it reads the new ones, so they ascend
        a, k = letter[index], min(abs(exponent), truncation)
        if (plan := plans.get(key := (a, k if exponent > 0 else -k))) is None:
            plan = plans[key] = [
                (blocks[d], blocks[d - j],
                 *divmod(width * a * (ones[d] - ones[d - j]), width * r**m), j)
                for d in (range(1, truncation + 1) if exponent < 0 else range(truncation, 0, -1))
                for j in range(1, min(d, k) + 1)]
        # the term X_a^j has coefficient C(|e|, j), which is 1 only at j = |e|,
        # and an unshifted move adds the chunk as it is (<< 0 would copy it)
        step, e = add if exponent > 0 else sub, abs(exponent)
        for to, source, hop, shift, j in plan:
            for c, block in enumerate(source, hop):
                if block:
                    block = block if j == e else comb(e, j) * block
                    to[c] = step(to[c], block << shift if shift else block)
    return support, width, m, blocks


def magnus_expand(w: Word, truncation: int) -> MagnusSeries:
    """Expand a word at the given truncation degree.

    Multiplicative (``expand(uv) = expand(u) expand(v)`` truncated) and
    sends the identity to 1.
    """
    support, width, m, blocks = _dense_blocks(w, truncation)
    r = len(support)
    if r == 1:
        # x^e is nonzero in degrees 0..D, D = T for e < 0 and min(e, T) else:
        # counted in closed form, before any degree is decoded
        e = w._syllables[0][1]
        top = truncation if e < 0 else min(e, truncation)
        _check_letters(top + 1, top * (top + 1) // 2)
    # degree d has chunks of r**min(d, m) fields; only the nonzero ones are read
    found = [(d, [(c * r ** min(d, m) + i, coeff) for c, chunk in enumerate(chunks) if chunk
                  for i, coeff in _nonzero_fields(chunk, r ** min(d, m), width)])
             for d, chunks in enumerate(blocks) if any(chunks)]
    _check_letters(sum(len(fields) for _, fields in found),
                   sum(d * len(fields) for d, fields in found))
    terms: dict[Monomial, int] = {}
    for d, fields in found:
        if r == 1:  # one slot per degree, d copies of the generator
            terms[support * d] = fields[0][1]
            continue
        powers = [r**k for k in range(d)]  # slots per step of each digit
        for i, coeff in fields:
            terms[tuple([support[i // power % r] for power in powers])] = coeff
    return MagnusSeries(truncation, terms)


def _reduced_terms(w: Word, support: tuple[int, ...], truncation: int) -> dict[Monomial, int]:
    """The reduced expansion of ``w`` on all distinct-index monomials, one
    block per set of generators (see the module docstring); ``truncation``
    is at least ``r`` and only named in a refusal."""
    r = len(support)
    factorial = [1]
    for k in range(1, r + 1):
        factorial.append(factorial[-1] * k)
    # sum_k C(r, k) * k! fields: the orderings of every set
    slots = sum(factorial[r] // factorial[r - k] for k in range(r + 1))
    _check_slots(slots, False, r, truncation, "reduced")
    width = _field_width(w, r, slots, "reduced")
    # x_a^e is 1 + e X_a modulo repeated indices: each set S without a adds
    # e times its orderings, followed by a, to the run of S + {a} whose last
    # letter has rank rank(a) there.  Sets are bit masks over the support
    steps = {}
    for a, index in enumerate(support):
        bit = 1 << a
        steps[index] = [
            (s, s | bit, width * factorial[s.bit_count()] * (s & (bit - 1)).bit_count())
            for s in range(1 << r)
            if not s & bit
        ]
    blocks = [1] + [0] * ((1 << r) - 1)
    for index, exponent in w._syllables:
        # the targets all hold a and the sources do not: any order will do.
        # Exponents +-1 skip the multiplication (one loop for every exponent
        # costs tower words 5%); a set with no letter below a adds its block
        if exponent == 1:
            for source, target, shift in steps[index]:
                if block := blocks[source]:
                    blocks[target] += block << shift if shift else block
        elif exponent == -1:
            for source, target, shift in steps[index]:
                if block := blocks[source]:
                    blocks[target] -= block << shift if shift else block
        else:
            for source, target, shift in steps[index]:
                if block := blocks[source]:
                    blocks[target] += exponent * (block << shift if shift else block)
    found = [(s, _nonzero_fields(block, factorial[s.bit_count()], width))
             for s, block in enumerate(blocks) if block]
    _check_letters(sum(len(fields) for _, fields in found),
                   sum(s.bit_count() * len(fields) for s, fields in found))
    terms: dict[Monomial, int] = {}
    for s, fields in found:
        members = [index for a, index in enumerate(support) if s >> a & 1]
        for i, coeff in fields:
            # slot i of a set of k + 1 holds the ordering whose last letter
            # has rank i // k! in the set and whose rest has slot i % k!
            left, monomial = members.copy(), []
            for k in range(len(members) - 1, -1, -1):
                rank, i = divmod(i, factorial[k])
                monomial.append(left.pop(rank))
            terms[tuple(reversed(monomial))] = coeff
    return terms


def reduced_expand(w: Word, truncation: int) -> MagnusSeries:
    """The Magnus expansion with repeated-index monomials deleted.

    On the word's ``r`` generators no distinct-index monomial has degree
    above ``r``.  From ``truncation >= r`` on, the expansion is computed on
    sets of generators; below it, it is the dense expansion filtered, as
    the deleted monomials form an ideal.
    """
    if truncation < 1:
        raise ValueError(f"truncation must be >= 1, got {truncation}")
    support = tuple(sorted({index for index, _ in w._syllables}))
    if truncation < len(support):
        terms = magnus_expand(w, truncation).terms
        terms = {m: c for m, c in terms.items() if not _has_repeat(m)}
    else:
        terms = _reduced_terms(w, support, truncation)
    return MagnusSeries(truncation, terms)


def gamma_class_lower_bound(w: Word, max_degree: int) -> int | None:
    """Exact lower-central-series class of ``w`` up to ``max_degree``.

    Returns the smallest positive degree ``d <= max_degree`` with a nonzero
    Magnus term (the word lies in the d-th term of the series but not the
    next), or ``None`` when all positive terms vanish up to the bound,
    certifying membership in the ``(max_degree + 1)``-st term.  The identity
    word returns ``None`` by convention.  When ``max_degree`` is over the
    slot or byte limit, truncations 1, 2, ... are tried while they fit, and
    the limit is raised only if none of them finds a nonzero degree.
    """
    if max_degree < 1:
        raise ValueError(f"max_degree must be >= 1, got {max_degree}")
    try:
        blocks = _dense_blocks(w, max_degree)[3]
    except ValueError as refusal:
        # the identity has no nonzero degree; those below d were zero before
        for d in range(1, max_degree if w._syllables else 1):
            try:
                if any(map(any, list(_dense_blocks(w, d)[3])[1:])):
                    return d
            except ValueError:
                raise refusal from None
        raise
    return next((d for d, chunks in enumerate(blocks) if d and any(chunks)), None)


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
    for index, exponent in w._syllables:
        p = position.get(index)
        if p is not None:
            matched[p + 1] += exponent * matched[p]
    return matched[-1]


class CheckResult(_Frozen):
    __match_args__ = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: str) -> None:
        self.__dict__.update(name=name, passed=passed, detail=detail)

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'} {self.name}: {self.detail}"


class InvisibilityReport(_Frozen):
    """Desk check that low-length Milnor-type data cannot see a tower class.

    For the ``link_size``-strand fibration link the relevant class is the
    degree-``(link_size - 1)`` tower cycle; ``checks`` covers that word and
    ``variant_checks`` repeats the battery on the literature's variant word
    when one is defined for this size.
    """

    __match_args__ = ("link_size", "checks", "variant_checks")

    def __init__(self, link_size: int, checks: tuple[CheckResult, ...],
                 variant_checks: tuple[CheckResult, ...]) -> None:
        self.__dict__.update(link_size=link_size, checks=checks, variant_checks=variant_checks)

    def lines(self, include_variant: bool = False) -> list[str]:
        out = [check.line() for check in self.checks]
        if include_variant:
            out.extend(f"variant: {check.line()}" for check in self.variant_checks)
        return out


def _invisibility_checks(w: Word, cycle: bool, n: int) -> tuple[CheckResult, ...]:
    bound = gamma_class_lower_bound(w, n - 1)
    reduced = reduced_expand(w, n - 1)
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
    # the only use of the simplicial layer here, so that expanding a word
    # does not load it
    from .simplicial import VARIANT_ETA_DEGREE3, VARIANT_ETA_DEGREE4, eta_tower, is_cycle

    if n not in (4, 5):
        raise ValueError(f"unsupported link size {n}; expected 4 or 5")
    tower = eta_tower(n - 1)
    variant = VARIANT_ETA_DEGREE3 if n == 4 else VARIANT_ETA_DEGREE4
    return InvisibilityReport(
        link_size=n,
        checks=_invisibility_checks(tower.word, is_cycle(tower), n),
        variant_checks=_invisibility_checks(variant.word, is_cycle(variant), n),
    )
