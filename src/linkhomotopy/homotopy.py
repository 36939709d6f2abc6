"""Symbolic abelian-group descriptions and homotopy groups of sphere wedges.

Groups that arise as the invariants in this package are described
symbolically (trivial, cyclic, free abelian of finite or countable rank,
unevaluated ``pi_n`` of a sphere or wedge, direct sums, or an opaque
symbolic factor).  A :class:`HomotopyTable` resolves ``pi_n(S^m)`` queries:
below-diagonal and diagonal values follow from connectivity, a handful of
classical entries ship as builtins, and further entries can be loaded from
a text file where every line carries a provenance note; each
:class:`TableEntry` stores that note and whether it came from such a file.
Lookups that miss the table stay symbolic; the package never fabricates a
value.

Every ``pi_n(S^m)`` fact is read through one chain:
:meth:`HomotopyTable.entry` -> :func:`homotopy_table_lookup` (which alone
falls back to :data:`DEFAULT_TABLE`) -> :meth:`PiOfSphere.evaluate` ->
:func:`hilton_pi` and ``links.classify_A``.

:func:`hilton_pi` computes the homotopy group of a wedge of spheres by
summing sphere contributions over basic products, one for every Lyndon
word in letters indexed by the wedge summands; a product of letters with
dimensions ``d_1..d_w`` contributes the sphere of dimension
``1 + sum(d_t - 1)``.  The generator yields only the words whose sphere
fits the query dimension (nothing is generated and then dropped); with
unit weights it is :func:`lyndon_words`.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Iterable, Sequence

__all__ = [
    "GroupDescription",
    "Trivial",
    "Cyclic",
    "FreeAbelian",
    "PiOfSphere",
    "PiOfWedge",
    "DirectSum",
    "direct_sum",
    "SphereWedge",
    "HomotopyTable",
    "DEFAULT_TABLE",
    "homotopy_table_lookup",
    "lyndon_words",
    "hilton_pi",
    "COUNTABLE",
]

#: Rank marker for free abelian groups of countably infinite rank.
COUNTABLE = "countable"


class GroupDescription:
    """Base class for symbolic abelian-group descriptions."""

    @property
    def is_concrete(self) -> bool:
        """True when no unevaluated symbolic part remains."""
        return True

    def evaluate(self, table: "HomotopyTable | None" = None) -> "GroupDescription":
        """Resolve symbolic parts against a homotopy table where possible."""
        return self

    def render(self, mark_unknown: bool = False) -> str:
        raise NotImplementedError

    def __str__(self) -> str:
        return self.render()


@dataclass(frozen=True)
class Trivial(GroupDescription):
    def render(self, mark_unknown: bool = False) -> str:
        return "0"


@dataclass(frozen=True)
class Cyclic(GroupDescription):
    """The finite cyclic group of the given order (>= 2)."""

    order: int

    def __post_init__(self) -> None:
        if self.order < 2:
            raise ValueError(f"cyclic order must be >= 2, got {self.order}")

    def render(self, mark_unknown: bool = False) -> str:
        return f"Z/{self.order}"


@dataclass(frozen=True)
class FreeAbelian(GroupDescription):
    """Free abelian of finite rank >= 1 or countably infinite rank."""

    rank: int | str = 1

    def __post_init__(self) -> None:
        if self.rank != COUNTABLE and (not isinstance(self.rank, int) or self.rank < 1):
            raise ValueError(f"rank must be a positive integer or {COUNTABLE!r}")

    def render(self, mark_unknown: bool = False) -> str:
        if self.rank == COUNTABLE:
            return "Z^(countable)"
        return "Z" if self.rank == 1 else f"Z^{self.rank}"


@dataclass(frozen=True)
class SphereWedge:
    """A finite wedge of spheres with an optional aspherical factor.

    ``dims`` lists sphere dimensions (each >= 2, stored sorted); the factor
    is an opaque description such as ``"K(G(d_{1,2}L),1)"`` and is omitted
    when the corresponding sublink is empty.  An empty wedge with no factor
    is a point.
    """

    dims: tuple[int, ...] = ()
    group_factor: str | None = None

    def __post_init__(self) -> None:
        if any(d < 2 for d in self.dims):
            raise ValueError("sphere dimensions must be >= 2")
        object.__setattr__(self, "dims", tuple(sorted(self.dims)))

    def render(self) -> str:
        parts = ([self.group_factor] if self.group_factor else []) + [
            f"S^{d}" for d in self.dims
        ]
        return " v ".join(parts) if parts else "*"

    def __str__(self) -> str:
        return self.render()


@dataclass(frozen=True)
class PiOfSphere(GroupDescription):
    """Unevaluated ``pi_n(S^m)``."""

    n: int
    m: int

    def __post_init__(self) -> None:
        if self.n < 1 or self.m < 1:
            raise ValueError("sphere homotopy indices must be >= 1")

    @property
    def is_concrete(self) -> bool:
        return False

    def evaluate(self, table: "HomotopyTable | None" = None) -> GroupDescription:
        known = homotopy_table_lookup(self.n, self.m, table)
        return self if known is None else known

    def render(self, mark_unknown: bool = False) -> str:
        text = f"pi_{self.n}(S^{self.m})"
        return f"{text} [unknown]" if mark_unknown else text


@dataclass(frozen=True)
class PiOfWedge(GroupDescription):
    """Unevaluated ``pi_n`` of a wedge of spheres (with optional factor).

    Evaluates through :func:`hilton_pi` when no aspherical factor is
    present; a bare aspherical factor has no higher homotopy, so an empty
    wedge evaluates to the trivial group either way.
    """

    n: int
    wedge: SphereWedge

    @property
    def is_concrete(self) -> bool:
        return False

    def evaluate(self, table: "HomotopyTable | None" = None) -> GroupDescription:
        if not self.wedge.dims:
            return Trivial() if self.n >= 2 else self
        if self.wedge.group_factor is not None:
            return self
        return hilton_pi(self.n, self.wedge.dims, table)

    def render(self, mark_unknown: bool = False) -> str:
        return f"pi_{self.n}({self.wedge.render()})"


@dataclass(frozen=True)
class SymbolicGroup(GroupDescription):
    """An opaque symbolic description that evaluation never touches."""

    text: str

    @property
    def is_concrete(self) -> bool:
        return False

    def render(self, mark_unknown: bool = False) -> str:
        return self.text


@dataclass(frozen=True)
class DirectSum(GroupDescription):
    parts: tuple[GroupDescription, ...]

    @property
    def is_concrete(self) -> bool:
        return all(part.is_concrete for part in self.parts)

    def evaluate(self, table: "HomotopyTable | None" = None) -> GroupDescription:
        return direct_sum(part.evaluate(table) for part in self.parts)

    def render(self, mark_unknown: bool = False) -> str:
        return " + ".join(part.render(mark_unknown) for part in self.parts)


def direct_sum(parts: Iterable[GroupDescription]) -> GroupDescription:
    """Form a direct sum, flattening nested sums and dropping trivial parts."""
    flat: list[GroupDescription] = []
    for part in parts:
        if isinstance(part, DirectSum):
            flat.extend(part.parts)
        elif not isinstance(part, Trivial):
            flat.append(part)
    if not flat:
        return Trivial()
    if len(flat) == 1:
        return flat[0]
    return DirectSum(tuple(flat))


@dataclass(frozen=True)
class TableEntry:
    """A known ``pi_n(S^m)`` with its provenance note; ``user_supplied``
    marks entries loaded by :meth:`HomotopyTable.load_file`."""

    group: GroupDescription
    provenance: str
    user_supplied: bool = False

    def render(self) -> str:
        """The group, with ``[provenance]`` appended for user-supplied entries."""
        text = self.group.render()
        return f"{text} [{self.provenance}]" if self.user_supplied else text


class TableFormatError(ValueError):
    """Malformed homotopy-table file."""


_BUILTIN_ENTRIES: dict[tuple[int, int], TableEntry] = {
    (3, 2): TableEntry(FreeAbelian(1), "builtin"),
    (4, 2): TableEntry(Cyclic(2), "builtin"),
    (5, 2): TableEntry(Cyclic(2), "builtin"),
    (4, 3): TableEntry(Cyclic(2), "builtin"),
    (5, 3): TableEntry(Cyclic(2), "builtin"),
    (6, 3): TableEntry(Cyclic(12), "builtin"),
}


class HomotopyTable:
    """Resolves ``pi_n(S^m)``; misses return ``None`` rather than a guess."""

    def __init__(self) -> None:
        self.entries = dict(_BUILTIN_ENTRIES)

    def entry(self, n: int, m: int) -> TableEntry | None:
        if n < 1 or m < 1:
            raise ValueError("sphere homotopy indices must be >= 1")
        if n < m:
            return TableEntry(Trivial(), "connectivity")
        if n == m:
            return TableEntry(FreeAbelian(1), "top cell degree")
        if m == 1:
            return TableEntry(Trivial(), "contractible universal cover")
        return self.entries.get((n, m))

    def load_file(self, path: str) -> None:
        """Extend the table from a text file.

        Each non-comment line reads ``pi <n> <m> <group> <provenance...>``
        where the group token is ``0``, ``Z``, ``Z/k``, ``Z^k``,
        ``Z^(countable)`` or a ``+``-joined sum of those, and the provenance
        text is mandatory.  A line whose ``(n, m)`` the table already answers
        (a structural index, a builtin or an earlier line) is rejected.
        """
        with open(path, encoding="utf-8") as handle:
            for number, raw in enumerate(handle, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                fields = line.split()
                try:  # each check raises ValueError; the handler names the line
                    if len(fields) < 5 or fields[0] != "pi":
                        raise ValueError("expected 'pi <n> <m> <group> <provenance...>'")
                    if not all(i.removeprefix("-").isdecimal() for i in fields[1:3]):
                        raise ValueError("bad indices")
                    n, m = _decimal(fields[1]), _decimal(fields[2])
                    if n < 1 or m < 1:
                        raise ValueError("indices must be >= 1")
                    if (known := self.entry(n, m)) is not None:
                        raise ValueError(f"pi_{n}(S^{m}) is already given ({known.provenance})"
                                         "; a table file may only add new entries")
                    group = parse_group_token(fields[3])
                except ValueError as exc:
                    raise TableFormatError(f"{path}:{number}: {exc}") from exc
                provenance = " ".join(fields[4:])
                self.entries[(n, m)] = TableEntry(group, provenance, user_supplied=True)


def _decimal(token: str) -> int:
    try:
        return int(token)
    except ValueError:  # "-" and decimal digits fail only over the interpreter's limit
        raise ValueError(f"the integer has {len(token.removeprefix('-'))} digits; the "
                         f"limit is {sys.get_int_max_str_digits()}") from None


def parse_group_token(token: str) -> GroupDescription:
    """Parse a compact group token such as ``Z/12`` or ``Z+Z/2``."""
    parts: list[GroupDescription] = []
    for piece in token.split("+"):
        if piece == "0":
            parts.append(Trivial())
        elif piece == "Z":
            parts.append(FreeAbelian(1))
        elif piece == "Z^(countable)":
            parts.append(FreeAbelian(COUNTABLE))
        elif piece[:2] in ("Z/", "Z^") and piece[2:].removeprefix("-").isdecimal():
            k = _decimal(piece[2:])
            parts.append(Cyclic(k) if piece[1] == "/" else FreeAbelian(k))
        else:
            raise ValueError(f"unrecognized group token {piece!r}")
    return direct_sum(parts)


#: The builtin entries alone; used wherever no table is passed.
DEFAULT_TABLE = HomotopyTable()


def homotopy_table_lookup(
    n: int, m: int, table: HomotopyTable | None = None
) -> GroupDescription | None:
    """Table-backed value of ``pi_n(S^m)``; ``None`` when unknown."""
    found = (table or DEFAULT_TABLE).entry(n, m)
    return None if found is None else found.group


#: Most Lyndon words :func:`_lyndon_words` may generate, each one summand of
#: :func:`hilton_pi`; the largest wedge in use, ``pi_12`` of four 2-spheres,
#: has 526,638.
_MAX_LYNDON_WORDS = 2**22

#: Most letters those words may hold, bounded by their count times the
#: longest word that fits; that wedge's bound is 5,793,018.
_MAX_LYNDON_LETTERS = 2**24


def _lyndon_count(weights: Sequence[int], budget: int) -> int:
    """Number of Lyndon words of total weight <= ``budget`` by the weighted
    Witt formula, stopping at the first weight where it passes
    :data:`_MAX_LYNDON_WORDS`.  With ``N_m`` words of weight ``m``, the
    ``L_d`` Lyndon words of each weight ``d`` satisfy ``sum_{d | m} d L_d =
    sum_i w_i N_{m - w_i}`` (the logarithmic derivative of
    ``1 / (1 - sum_i t^w_i)``).

    Only the weights that carry a Lyndon word are visited, in increasing
    order: the letters' own and the mixed ones, made of two distinct letters
    or more (in sorted order those letters spell a Lyndon word).  So the cost
    follows the count, not ``budget``.  Any other weight is only a power of
    one letter, and its ``N_m`` is the number of letters whose weight
    divides ``m``.
    """
    letters: dict[int, int] = {}  # weight -> number of letters of that weight
    for w in weights:
        if w <= budget:
            letters[w] = letters.get(w, 0) + 1
    singles = sorted(letters)
    terms = [(w, k, k * w) for w, k in letters.items()]
    mixed = {a + b for a in singles for b in singles
             if (a < b or a == b and letters[a] > 1) and a + b <= budget}
    heap = sorted(mixed.union(singles))
    words = {0: 1}
    lyndon: dict[int, int] = {}
    # a mixed weight divides only mixed weights, so it waits at its next multiple
    pending: dict[int, list[int]] = {}
    total = 0
    while heap:
        m = heappop(heap)
        count = weighted = 0
        for w, k, kw in terms:
            n = words.get(m - w)
            if n is None:
                rest = m - w
                if rest < 0:
                    continue
                n = sum(j for v, j in letters.items() if rest % v == 0)
            count += k * n
            weighted += kw * n
        words[m] = count
        # sum_{d | m, d < m} d L_d
        divided = 0
        for d in singles:
            if d >= m:
                break
            if m % d == 0:
                divided += d * lyndon[d]
        for d in pending.pop(m, ()):
            divided += d * lyndon[d]
            pending.setdefault(m + d, []).append(d)
        lyndon[m] = found = (weighted - divided) // m
        total += found
        if total > _MAX_LYNDON_WORDS:
            break
        if m in mixed:
            if m not in letters:
                pending.setdefault(2 * m, []).append(m)
            for w in singles:
                if m + w > budget:
                    break
                if m + w not in mixed:
                    mixed.add(m + w)
                    if m + w not in letters:
                        heappush(heap, m + w)
    return total


def _lyndon_words(weights: Sequence[int], budget: int) -> list[tuple[int, ...]]:
    """Lyndon words over ``0..len(weights)-1`` of total weight <= ``budget``,
    sorted by (length, word): Duval's loop pruned on prefix weight (Cattell,
    Ruskey, Sawada, Serra, Miers 2000).  ``weights`` must be positive and
    nondecreasing, so a letter that does not fit rules out every larger one.
    The loop stops extending a word where the room left falls below the least
    increment step of its letters, and appends whole periods at once, so each
    step costs O(period + next word).  More than :data:`_MAX_LYNDON_WORDS`
    words, or than :data:`_MAX_LYNDON_LETTERS` letters (words times the
    longest that fits), raise ``ValueError`` before any word is generated.
    """
    out: list[tuple[int, ...]] = []
    if not weights or weights[0] > budget:
        return out
    count = _lyndon_count(weights, budget)
    if count > _MAX_LYNDON_WORDS:
        raise ValueError(
            f"Hilton-Milnor splitting needs at least {count} Lyndon words "
            f"({len(weights)} letters, weight <= {budget}); "
            f"the limit is {_MAX_LYNDON_WORDS}"
        )
    # a word of two letters or more holds a letter other than its first
    longest = max(1, (budget - weights[1]) // weights[0] + 1) if len(weights) > 1 else 1
    if count * longest > _MAX_LYNDON_LETTERS:
        raise ValueError(
            f"Hilton-Milnor splitting may need {count * longest} letters "
            f"({count} Lyndon words of up to {longest} letters); "
            f"the limit is {_MAX_LYNDON_LETTERS}"
        )
    # cost of incrementing each letter; the largest letter never fits
    step = [b - a for a, b in zip(weights, weights[1:])] + [budget + 1]
    word, room = [0], budget - weights[0]
    # not `while word`: CPython 3.11 specializes a function only after 8 calls
    # or unconditional backward jumps, and a loop tested at its bottom makes none
    while True:
        out.append(tuple(word))
        # the word is one period of its extension word[p % m] and weighs
        # budget - room.  No position past room < least can be incremented;
        # the cutoff matters once a whole period fits, and all above it go at once
        m, least = len(word), 0
        if 2 * room >= budget:
            least = min(map(step.__getitem__, word))
            whole = (room - least) // (budget - room)
            if whole > 0:
                word *= whole + 1
                room -= whole * (budget - room)
        while weights[word[-m]] + least <= room:
            room -= weights[word[-m]]
            word.append(word[-m])
        while word and step[word[-1]] > room:
            room += weights[word.pop()]
        if not word:
            break
        room -= step[word[-1]]
        word[-1] += 1
    out.sort(key=len)  # stable, and the loop emits lexicographic order
    return out


def lyndon_words(alphabet_size: int, max_length: int) -> list[tuple[int, ...]]:
    """All Lyndon words over ``0..alphabet_size-1`` of length <= max_length,
    sorted by (length, lexicographic) to match the grading of the free Lie
    algebra; the unit-weight case of :func:`hilton_pi`'s generator."""
    return _lyndon_words((1,) * alphabet_size, max_length)


def hilton_pi(
    n: int,
    dims: Sequence[int],
    table: HomotopyTable | None = None,
) -> GroupDescription:
    """``pi_n`` of a wedge of spheres of the given dimensions.

    Sums one sphere contribution per Lyndon word on the wedge letters, where
    letter ``i`` weighs ``d_i - 1``; spheres above dimension ``n`` contribute
    nothing, so only words of weight <= ``n - 1`` (finitely many) are
    generated, and each sphere dimension is evaluated once.  Table misses
    stay in the sum as symbolic ``pi_n(S^m)`` terms.  The result does not
    depend on the order of ``dims``.  A wedge with more than
    :data:`_MAX_LYNDON_WORDS` summands, or a bound of more than
    :data:`_MAX_LYNDON_LETTERS` letters in their words, raises ``ValueError``.
    """
    if n < 2:
        raise ValueError(f"wedge homotopy degree must be >= 2, got {n}")
    if any(d < 2 for d in dims):
        raise ValueError("sphere dimensions must be >= 2")
    weights = sorted(d - 1 for d in dims)
    spheres = [1 + sum(weights[letter] for letter in word)
               for word in _lyndon_words(weights, n - 1)]
    groups = {m: PiOfSphere(n, m).evaluate(table) for m in set(spheres)}
    return direct_sum(groups[m] for m in spheres)
