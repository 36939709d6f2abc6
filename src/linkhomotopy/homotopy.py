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
value.  :class:`Cyclic`, :class:`SphereWedge`, :class:`PiOfSphere`,
:meth:`HomotopyTable.entry`, :func:`hilton_pi` and :func:`lyndon_words`
raise ``TypeError`` for an order, dimension, degree, index or size that
``operator.index`` refuses.

Every ``pi_n(S^m)`` fact is read through one chain:
:meth:`HomotopyTable.entry` -> :meth:`PiOfSphere.evaluate` (which alone
falls back to :data:`DEFAULT_TABLE`) -> :func:`hilton_pi` and
``links.classify_A``.

:func:`hilton_pi` computes the homotopy group of a wedge of spheres by the
Hilton-Milnor splitting: one sphere per basic product, that is per Lyndon
word in letters indexed by the wedge summands, where a product of letters
with dimensions ``d_1..d_w`` contributes the sphere of dimension
``1 + sum(d_t - 1)``.  Only the number of words of each weight matters, and
the weighted Witt formula gives it, so no word is generated;
:func:`lyndon_words` lists the words themselves for an unweighted alphabet.
"""

from __future__ import annotations

from bisect import bisect_right
from heapq import heappop, heappush
from operator import index as _index
from typing import Iterable, Sequence

from . import _decimal, _Frozen

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
    "lyndon_words",
    "hilton_pi",
    "COUNTABLE",
]

#: Rank marker for free abelian groups of countably infinite rank.
COUNTABLE = "countable"


class GroupDescription(_Frozen):
    """Base class for symbolic abelian-group descriptions, which are
    immutable values."""

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


class Trivial(GroupDescription):
    def render(self, mark_unknown: bool = False) -> str:
        return "0"


class Cyclic(GroupDescription):
    """The finite cyclic group of the given order (>= 2)."""

    __match_args__ = ("order",)

    def __init__(self, order: int) -> None:
        if _index(order) < 2:
            raise ValueError(f"cyclic order must be >= 2, got {order}")
        self.__dict__.update(order=order)

    def render(self, mark_unknown: bool = False) -> str:
        return f"Z/{self.order}"


class FreeAbelian(GroupDescription):
    """Free abelian of finite rank >= 1 or countably infinite rank."""

    __match_args__ = ("rank",)

    def __init__(self, rank: int | str = 1) -> None:
        if rank != COUNTABLE and (not isinstance(rank, int) or rank < 1):
            raise ValueError(f"rank must be a positive integer or {COUNTABLE!r}")
        self.__dict__.update(rank=rank)

    def render(self, mark_unknown: bool = False) -> str:
        if self.rank == COUNTABLE:
            return "Z^(countable)"
        return "Z" if self.rank == 1 else f"Z^{self.rank}"


class SphereWedge(_Frozen):
    """A finite wedge of spheres with an optional aspherical factor.

    ``dims`` lists sphere dimensions (each >= 2, stored sorted); the factor
    is an opaque description such as ``"K(G(d_{1,2}L),1)"`` and is omitted
    when the corresponding sublink is empty.  An empty wedge with no factor
    is a point.
    """

    __match_args__ = ("dims", "group_factor")

    def __init__(self, dims: Sequence[int] = (), group_factor: str | None = None) -> None:
        if any(_index(d) < 2 for d in dims):
            raise ValueError("sphere dimensions must be >= 2")
        self.__dict__.update(dims=tuple(sorted(dims)), group_factor=group_factor)

    def render(self) -> str:
        parts = ([self.group_factor] if self.group_factor else []) + [
            f"S^{d}" for d in self.dims
        ]
        return " v ".join(parts) if parts else "*"

    def __str__(self) -> str:
        return self.render()


class PiOfSphere(GroupDescription):
    """Unevaluated ``pi_n(S^m)``."""

    __match_args__ = ("n", "m")

    def __init__(self, n: int, m: int) -> None:
        if _index(n) < 1 or _index(m) < 1:
            raise ValueError("sphere homotopy indices must be >= 1")
        self.__dict__.update(n=n, m=m)

    @property
    def is_concrete(self) -> bool:
        return False

    def evaluate(self, table: "HomotopyTable | None" = None) -> GroupDescription:
        found = (table or DEFAULT_TABLE).entry(self.n, self.m)
        return self if found is None else found.group

    def render(self, mark_unknown: bool = False) -> str:
        text = f"pi_{self.n}(S^{self.m})"
        return f"{text} [unknown]" if mark_unknown else text


class PiOfWedge(GroupDescription):
    """Unevaluated ``pi_n`` of a wedge of spheres (with optional factor).

    Evaluates through :func:`hilton_pi` when no aspherical factor is
    present; a bare aspherical factor has no higher homotopy, so an empty
    wedge evaluates to the trivial group either way.
    """

    __match_args__ = ("n", "wedge")

    def __init__(self, n: int, wedge: SphereWedge) -> None:
        self.__dict__.update(n=n, wedge=wedge)

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


class SymbolicGroup(GroupDescription):
    """An opaque symbolic description that evaluation never touches."""

    __match_args__ = ("text",)

    def __init__(self, text: str) -> None:
        self.__dict__.update(text=text)

    @property
    def is_concrete(self) -> bool:
        return False

    def render(self, mark_unknown: bool = False) -> str:
        return self.text


class DirectSum(GroupDescription):
    __match_args__ = ("parts",)

    def __init__(self, parts: tuple[GroupDescription, ...]) -> None:
        self.__dict__.update(parts=parts)

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


class TableEntry(_Frozen):
    """A known ``pi_n(S^m)`` with its provenance note; ``user_supplied``
    marks entries loaded by :meth:`HomotopyTable.load_file`."""

    __match_args__ = ("group", "provenance", "user_supplied")

    def __init__(self, group: GroupDescription, provenance: str,
                 user_supplied: bool = False) -> None:
        self.__dict__.update(group=group, provenance=provenance, user_supplied=user_supplied)

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
        if _index(n) < 1 or _index(m) < 1:
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
        Loading into :data:`DEFAULT_TABLE` changes every later default
        lookup in the process, so build a new ``HomotopyTable()`` for a
        user table.
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
                    n, m = _decimal(fields[1]), _decimal(fields[2])
                    if n is None or m is None:
                        raise ValueError("bad indices")
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
        elif piece[:2] in ("Z/", "Z^") and (k := _decimal(piece[2:])) is not None:
            parts.append(Cyclic(k) if piece[1] == "/" else FreeAbelian(k))
        else:
            raise ValueError(f"unrecognized group token {piece!r}")
    return direct_sum(parts)


#: The builtin entries alone; used wherever no table is passed.
DEFAULT_TABLE = HomotopyTable()


#: Most Lyndon words :func:`_lyndon_count` may count, each one summand of
#: :func:`hilton_pi` or one word of :func:`lyndon_words`; the largest wedge in
#: use, ``pi_12`` of four 2-spheres, has 526,638.
_MAX_LYNDON_WORDS = 2**22

#: Most weights :func:`_lyndon_count` may visit, each one distinct sphere
#: dimension of :func:`hilton_pi`'s answer.
_MAX_LYNDON_WEIGHTS = 2**16

#: Most letters :func:`lyndon_words` may return, bounded by the number of words
#: times the longest; ``lyndon_words(4, 11)`` needs 5,793,018.
_MAX_LYNDON_LETTERS = 2**24


def _check_splitting(count: int, limit: int, what: str, weights: Sequence[int],
                     budget: int) -> None:
    if count > limit:
        raise ValueError(f"Hilton-Milnor splitting needs at least {count} {what} "
                         f"({len(weights)} letters, weight <= {budget}); the limit is {limit}")


def _lyndon_count(weights: Sequence[int], budget: int) -> dict[int, int]:
    """Number ``L_m`` of Lyndon words of each total weight ``m <= budget`` by
    the weighted Witt formula, keyed by ``m`` in increasing order and holding
    only the weights that carry a word.  With ``N_m`` words of weight ``m``,
    ``sum_{d | m} d L_d = sum_i w_i N_{m - w_i}`` (the logarithmic derivative
    of ``1 / (1 - sum_i t^w_i)``).  More than :data:`_MAX_LYNDON_WORDS` words,
    or than :data:`_MAX_LYNDON_WEIGHTS` weights, raise ``ValueError`` at the
    first weight past the limit; the words are first bounded below by the
    letters and the pairs of distinct letter weights that fit, each pair
    spelling a word of two letters, counted without building their sums, and
    then by the words ``x_a^k x_b`` of a lighter letter's powers before a
    heavier letter, in closed form.

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
    # singles[i + 1:ends[i]] are the heavier weights that fit beside singles[i]
    ends = [bisect_right(singles, budget - a) for a in singles]
    least = sum(letters.values()) + sum(max(0, end - i - 1) for i, end in enumerate(ends))
    _check_splitting(least, _MAX_LYNDON_WORDS, "Lyndon words", weights, budget)
    # each letter a before a heavier b spells x_a^k x_b for k = 1..(cap - b) // a;
    # no weight up to cap can be past the weight limit, so the walk would refuse
    # these words before the weights.  Over the b that fit, with prefix sums of
    # their counts and weights, sum (cap - b) // a >= sum (cap - a + 1 - b) / a
    cap = min(budget, _MAX_LYNDON_WEIGHTS)
    counts, sums = [0], [0]
    for w in singles:
        counts.append(counts[-1] + letters[w])
        sums.append(sums[-1] + letters[w] * w)
    least = counts[bisect_right(singles, cap)]
    for i, a in enumerate(singles):
        end = bisect_right(singles, cap - a)
        if end <= i + 1:
            break
        fit, total = counts[end] - counts[i + 1], sums[end] - sums[i + 1]
        least += letters[a] * max(fit, -((total - fit * (cap - a + 1)) // a))
    _check_splitting(least, _MAX_LYNDON_WORDS, "Lyndon words", weights, budget)
    terms = [(w, letters[w], letters[w] * w) for w in singles]
    mixed = {a + b for i, a in enumerate(singles) for b in singles[i + 1:ends[i]]}
    mixed.update(2 * a for a in singles if letters[a] > 1 and 2 * a <= budget)
    heap = sorted(mixed.union(singles))
    lightest = singles[0] if singles else 0
    words: dict[int, int] = {}
    lyndon: dict[int, int] = {}
    # a mixed weight divides only mixed weights, so it waits at its next multiple
    pending: dict[int, list[int]] = {}
    total = 0
    while heap:
        _check_splitting(len(lyndon) + 1, _MAX_LYNDON_WEIGHTS, "sphere dimensions", weights, budget)
        m = heappop(heap)
        # the letters of weight m, each followed by the empty word (N_0 = 1)
        own = letters.get(m, 0)
        count, weighted = own, own * m
        for w, k, kw in terms:
            rest = m - w
            if rest < lightest:  # N_rest = 0 for 0 < rest < lightest
                break
            n = words.get(rest)
            if n is None:  # only letters as light as rest can divide it
                n = sum(letters[v] for v in singles[:bisect_right(singles, rest)]
                        if rest % v == 0)
            count += k * n
            weighted += kw * n
        words[m] = count
        # sum_{d | m, d < m} d L_d
        divided = 0
        for d in singles:
            if 2 * d > m:
                break
            if m % d == 0:
                divided += d * lyndon[d]
        for d in pending.pop(m, ()):
            divided += d * lyndon[d]
            pending.setdefault(m + d, []).append(d)
        lyndon[m] = found = (weighted - divided) // m
        total += found
        _check_splitting(total, _MAX_LYNDON_WORDS, "Lyndon words", weights, budget)
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
    return lyndon


def lyndon_words(alphabet_size: int, max_length: int) -> list[tuple[int, ...]]:
    """All Lyndon words over ``0..alphabet_size-1`` of length <= max_length,
    sorted by (length, lexicographic) to match the grading of the free Lie
    algebra: Duval's loop (Duval 1988).  More than :data:`_MAX_LYNDON_WORDS`
    words, or than :data:`_MAX_LYNDON_LETTERS` letters (words times
    ``max_length``), raise ``ValueError`` before any word is generated."""
    if _index(alphabet_size) < 1 or _index(max_length) < 1:
        return []
    if alphabet_size == 1:
        return [(0,)]
    count = sum(_lyndon_count((1,) * alphabet_size, max_length).values())
    if count * max_length > _MAX_LYNDON_LETTERS:
        raise ValueError(
            f"lyndon_words may need {count * max_length} letters "
            f"({count} Lyndon words of up to {max_length} letters); "
            f"the limit is {_MAX_LYNDON_LETTERS}"
        )
    out: list[tuple[int, ...]] = []
    last, word = alphabet_size - 1, [0]
    while word:
        out.append(tuple(word))
        # the next word increments the last non-maximal letter of the
        # periodic extension of this one to max_length
        m = len(word)
        while len(word) < max_length:
            word.append(word[-m])
        while word and word[-1] == last:
            word.pop()
        if word:
            word[-1] += 1
    out.sort(key=len)  # stable, and the loop emits lexicographic order
    return out


def hilton_pi(n: int, dims: Sequence[int],
              table: HomotopyTable | None = None) -> GroupDescription:
    """``pi_n`` of a wedge of spheres of the given dimensions.

    By the Hilton-Milnor splitting (Hilton 1955) the group is the sum of one
    ``pi_n(S^(1 + m))`` per basic product of weight ``m``, where letter ``i``
    weighs ``d_i - 1``.  Spheres above dimension ``n`` contribute nothing, so
    only the weights ``m <= n - 1`` count, and :func:`_lyndon_count` gives the
    number of basic products of each; no word is generated.  Each sphere
    dimension is evaluated once, and the summands are listed in increasing
    sphere dimension, so the result does not depend on the order of
    ``dims``.  Table misses stay in the sum as symbolic ``pi_n(S^m)`` terms.
    A wedge with more than :data:`_MAX_LYNDON_WORDS` summands, or more than
    :data:`_MAX_LYNDON_WEIGHTS` distinct sphere dimensions, raises
    ``ValueError``.
    """
    if _index(n) < 2:
        raise ValueError(f"wedge homotopy degree must be >= 2, got {n}")
    if any(_index(d) < 2 for d in dims):
        raise ValueError("sphere dimensions must be >= 2")
    counts = _lyndon_count([d - 1 for d in dims], n - 1)
    return direct_sum(group for m, count in counts.items()
                      for group in [PiOfSphere(n, 1 + m).evaluate(table)] * count)
