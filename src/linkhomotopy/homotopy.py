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

from dataclasses import dataclass
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
                if len(fields) < 5 or fields[0] != "pi":
                    raise TableFormatError(
                        f"{path}:{number}: expected 'pi <n> <m> <group> <provenance...>'"
                    )
                try:
                    n, m = int(fields[1]), int(fields[2])
                except ValueError as exc:
                    raise TableFormatError(f"{path}:{number}: bad indices") from exc
                if n < 1 or m < 1:
                    raise TableFormatError(f"{path}:{number}: indices must be >= 1")
                known = self.entry(n, m)
                if known is not None:
                    raise TableFormatError(
                        f"{path}:{number}: pi_{n}(S^{m}) is already given "
                        f"({known.provenance}); a table file may only add new entries"
                    )
                try:
                    group = parse_group_token(fields[3])
                except ValueError as exc:
                    raise TableFormatError(f"{path}:{number}: {exc}") from exc
                provenance = " ".join(fields[4:])
                self.entries[(n, m)] = TableEntry(group, provenance, user_supplied=True)


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
        elif piece.startswith("Z/"):
            parts.append(Cyclic(int(piece[2:])))
        elif piece.startswith("Z^"):
            parts.append(FreeAbelian(int(piece[2:])))
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


def _lyndon_count(weights: Sequence[int], budget: int) -> int:
    """Number of Lyndon words of total weight <= ``budget`` by the weighted
    Witt formula, stopping at the first weight where it passes
    :data:`_MAX_LYNDON_WORDS`.  With ``N_m`` words of weight ``m``, the
    ``L_d`` Lyndon words of each weight ``d`` satisfy ``sum_{d | m} d L_d =
    sum_i w_i N_{m - w_i}`` (the logarithmic derivative of
    ``1 / (1 - sum_i t^w_i)``).
    """
    words = [1] + [0] * budget
    # divided[m] = sum_{d | m, d < m} d L_d
    divided = [0] * (budget + 1)
    total = 0
    for m in range(1, budget + 1):
        count = weighted = 0
        for w in weights:
            if w > m:
                break
            count += words[m - w]
            weighted += w * words[m - w]
        words[m] = count
        lyndon = (weighted - divided[m]) // m
        if lyndon:
            total += lyndon
            if total > _MAX_LYNDON_WORDS:
                break
            for multiple in range(2 * m, budget + 1, m):
                divided[multiple] += m * lyndon
    return total


def _lyndon_words(weights: Sequence[int], budget: int) -> list[tuple[int, ...]]:
    """Lyndon words over ``0..len(weights)-1`` of total weight <= ``budget``,
    sorted by (length, word): Duval's loop pruned on prefix weight (Cattell,
    Ruskey, Sawada, Serra, Miers 2000).  ``weights`` must be positive and
    nondecreasing, so a letter that does not fit rules out every larger one.
    More than :data:`_MAX_LYNDON_WORDS` words raise ``ValueError`` before
    any is generated.
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
    # cost of incrementing each letter; the largest letter never fits
    step = [b - a for a, b in zip(weights, weights[1:])] + [budget + 1]
    word, room = [0], budget - weights[0]
    while word:
        out.append(tuple(word))
        m = len(word)
        while weights[word[-m]] <= room:
            room -= weights[word[-m]]
            word.append(word[-m])
        while word and step[word[-1]] > room:
            room += weights[word.pop()]
        if word:
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
    :data:`_MAX_LYNDON_WORDS` summands raises ``ValueError``.
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
