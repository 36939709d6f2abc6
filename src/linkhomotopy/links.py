"""Combinatorial link model: splitting profiles and their classification.

A link enters the package only through its *splitting profile*: the map
sending each sublink (subset of component labels ``1..n``) to its splitting
genus, the number of nonsplittable factors in its complete splitting
decomposition minus one.  Conventions: the empty sublink has genus -1, a
single component has genus 0, and a k-component sublink has genus between
0 and k-1.  Accepting a profile is *not* a realizability claim; only the
constraints proved for actual links are enforced (see
:func:`realizability_findings`).  A profile computes its label set, its
splittable sublinks and its :func:`chi2` by label pair from ``nu`` when it
is built, and keeps one kind of answer: :func:`strongly_nonsplittable` by
base sublink (each checked to lie within the profile), so ``nu`` must not
be mutated after construction.  Base answers are kept because every
meridian sublink over one base asks the same superset question; there are
at most ``2^n`` bases, one per entry of ``nu``, so they never outgrow it.

From a profile the module computes the deletion inclusion-exclusion
invariants :func:`chi2` and :func:`chi3`, the homotopy types of the
associated double and triple pushout spaces as sphere wedges, and the
classification of the meridian-intersection quotients -- the intersection
of the normal closures of the chosen meridians modulo the symmetric
commutator subgroup -- in terms of homotopy groups of spheres.
"""

from __future__ import annotations

from itertools import combinations
from typing import Collection, Iterable, Mapping

from . import _decimal, _Frozen
from .homotopy import (
    COUNTABLE,
    FreeAbelian,
    GroupDescription,
    HomotopyTable,
    PiOfSphere,
    PiOfWedge,
    SphereWedge,
    SymbolicGroup,
    Trivial,
    direct_sum,
)

__all__ = [
    "LinkProfile",
    "ProfileError",
    "ProfileFormatError",
    "UnrealizableProfileError",
    "ClassificationResult",
    "build_profile",
    "parse_profile",
    "load_profile",
    "chi2",
    "chi3",
    "delete_component",
    "strongly_nonsplittable",
    "classify_X2",
    "classify_X3",
    "classify_A",
    "realizability_findings",
]

PRESETS = ("hopf", "trivial", "brunnian")

#: Most components a preset profile may have: it assigns a genus to every one
#: of the ``2^n`` sublinks.  The largest profile in use has 8 components.
_MAX_PRESET_COMPONENTS = 12


class ProfileError(ValueError):
    """A splitting profile violates the basic genus constraints."""


class ProfileFormatError(ValueError):
    """Malformed profile file; messages name the source and any line at fault."""


class UnrealizableProfileError(ValueError):
    """A profile contradicts a constraint proved for actual links."""


class LinkProfile(_Frozen):
    """Splitting genus of every sublink of an ``size``-component link.

    ``nu`` maps each subset of ``{1..size}`` (as a frozenset) to its genus.
    Construction validates ``nu`` and computes the label set, the splittable
    sublinks and ``chi2`` by label pair from it; treat instances as
    immutable.  The one answer kept as it is asked is strong
    nonsplittability by base.
    """

    __match_args__ = ("size", "nu")

    def __init__(self, size: int, nu: Mapping[frozenset[int], int]) -> None:
        if size < 1:
            raise ProfileError(f"component count must be >= 1, got {size}")
        count = len(nu)
        # bit lengths first: 2 ** size is formed only where count could match
        # it, or written out below 2**64, which no mapping reaches
        if count.bit_length() != size + 1 or count != 2 ** size:
            expected = 2 ** size if size < 64 else f"2^{size}"
            raise ProfileError(
                f"profile must assign a genus to all {expected} sublinks, got {count}"
            )
        full = frozenset(range(1, size + 1))
        splittable: list[frozenset[int]] = []
        for subset, genus in nu.items():
            if not subset <= full:
                raise ProfileError(f"sublink {set(subset)} is not within 1..{size}")
            if not subset:
                if genus != -1:
                    raise ProfileError("the empty sublink must have genus -1")
            elif len(subset) == 1:
                if genus != 0:
                    raise ProfileError(
                        f"a single component is a knot and must have genus 0, "
                        f"got {genus} on {set(subset)}"
                    )
            elif not 0 <= genus <= len(subset) - 1:
                raise ProfileError(
                    f"genus of {sorted(subset)} must lie in 0..{len(subset) - 1}, "
                    f"got {genus}"
                )
            elif genus > 0:
                splittable.append(subset)
        # splittable sublinks largest first: the full set or a size n-1
        # sublink usually ends a query
        self.__dict__.update(
            size=size, nu=nu, full_set=full,
            _splittable=tuple(sorted(splittable, key=len, reverse=True)),
            _chi2={frozenset(pair): _chi2_within(nu, full, *pair)
                   for pair in combinations(range(1, size + 1), 2)},
            _strong={},
        )

    def genus(self, subset: Iterable[int]) -> int:
        return self.nu[frozenset(subset)]


def _preset_value(kind: str, k: int, n: int) -> int:
    # the genus a preset gives every sublink of k of the n components
    if not k:
        return -1
    if kind == "hopf":
        return 0
    if kind == "trivial":
        return k - 1
    if kind == "brunnian":
        return 0 if k == n else k - 1
    raise ValueError(f"unknown preset {kind!r}; expected one of {PRESETS}")


def build_profile(
    n: int,
    preset: str | None = None,
    overrides: Mapping[frozenset[int], int] | None = None,
) -> LinkProfile:
    """Assemble a profile from an optional preset plus explicit values.

    Presets name profile families: ``hopf``, every sublink nonsplittable
    (genus 0), as for the fibration links; ``trivial``, every sublink splits
    completely; ``brunnian``, the full link is nonsplittable but every
    proper sublink splits completely.  Without a preset the overrides must
    cover all ``2^n`` sublinks.  A preset above ``_MAX_PRESET_COMPONENTS``
    components raises :class:`ProfileError` before any sublink is built.
    """
    nu: dict[frozenset[int], int] = {}
    if preset is not None:
        if n > _MAX_PRESET_COMPONENTS:
            raise ProfileError(
                f"preset profiles have at most {_MAX_PRESET_COMPONENTS} components "
                f"({2 ** _MAX_PRESET_COMPONENTS} sublinks), got {n}"
            )
        nu = {
            frozenset(sub): _preset_value(preset, r, n)
            for r in range(n + 1)
            for sub in combinations(range(1, n + 1), r)
        }
    if overrides:
        nu.update({frozenset(k): v for k, v in overrides.items()})
    return LinkProfile(n, nu)


def _check_labels(p: LinkProfile, labels: tuple[int, ...]) -> None:
    if len(set(labels)) != len(labels):
        raise ValueError(f"labels must be distinct, got {labels}")
    for label in labels:
        if not 1 <= label <= p.size:
            raise ValueError(f"label {label} out of range 1..{p.size}")


def _chi2_within(nu: Mapping[frozenset[int], int], full: frozenset[int], i: int, j: int) -> int:
    return nu[full - {i, j}] - nu[full - {i}] - nu[full - {j}] + nu[full]


def chi2(p: LinkProfile, i: int, j: int) -> int:
    """Genus inclusion-exclusion over deleting components ``i`` and ``j``.

    Symmetric in the two labels.
    """
    _check_labels(p, (i, j))
    return p._chi2[frozenset((i, j))]


def chi3(p: LinkProfile, i: int, j: int, k: int) -> int:
    """Seven-term inclusion-exclusion over deleting three components.

    Equals ``chi2`` of the profile with ``k`` deleted minus ``chi2`` of the
    profile itself, and is invariant under permuting the labels.
    """
    _check_labels(p, (i, j, k))
    return _chi2_within(p.nu, p.full_set - {k}, i, j) - p._chi2[frozenset((i, j))]


def delete_component(p: LinkProfile, k: int) -> LinkProfile:
    """The profile of the sublink with component ``k`` removed.

    Remaining labels above ``k`` shift down by one.
    """
    _check_labels(p, (k,))
    relabel = {s: s if s < k else s - 1 for s in p.full_set}.__getitem__
    nu = {
        frozenset(map(relabel, subset)): genus
        for subset, genus in p.nu.items()
        if k not in subset
    }
    return LinkProfile(p.size - 1, nu)


def strongly_nonsplittable(p: LinkProfile, base: Iterable[int] = ()) -> bool:
    """True when every sublink strictly containing ``base`` is nonsplittable.

    The profile keeps each answer by base, so a base is scanned once however
    often it is asked.  Only bases within the profile are kept (at most
    ``2^n``, one per entry of ``nu``); any other base raises every time.
    """
    base = frozenset(base)
    strong = p._strong.get(base)
    if strong is None:
        if not base <= p.full_set:
            raise ValueError("base sublink is not within the profile's components")
        strong = p._strong[base] = not any(base < s for s in p._splittable)
    return strong


def _deletion_wedge(p: LinkProfile, deleted: Collection[int], chi: int) -> SphereWedge:
    # One sphere of dimension 2 + (|chi| - chi)/2 per unit of |chi|, and the
    # classifying space of the remaining sublink's group, written in deletion
    # notation, while any sublink remains (the deleted labels are distinct).
    labels = ",".join(map(str, sorted(deleted)))
    factor = f"K(G(d_{{{labels}}}L),1)" if len(deleted) < p.size else None
    return SphereWedge(dims=(2 + (abs(chi) - chi) // 2,) * abs(chi), group_factor=factor)


def classify_X2(p: LinkProfile, i: int, j: int) -> SphereWedge:
    """Homotopy type of the double-deletion pushout as a sphere wedge.

    ``chi2 = 0`` gives the aspherical factor alone, ``chi2 = -1`` one
    3-sphere, and ``chi2 > 0`` that many 2-spheres; for two-component
    profiles the factor disappears (the remaining sublink is empty), so
    the nonsplittable case is a bare 3-sphere and the split case a point.
    """
    return _deletion_wedge(p, (i, j), chi2(p, i, j))


def classify_X3(p: LinkProfile, i: int, j: int, k: int) -> SphereWedge:
    """Homotopy type of the triple-deletion pushout as a sphere wedge.

    Raises :class:`UnrealizableProfileError` when ``chi3 < -1``, which no
    actual link can produce.
    """
    chi = chi3(p, i, j, k)
    if chi < -1:
        raise UnrealizableProfileError(
            f"chi3({i},{j},{k}) = {chi} < -1: no link realizes this profile")
    return _deletion_wedge(p, (i, j, k), chi)


class ClassificationResult(_Frozen):
    """Outcome of :func:`classify_A`.

    ``group`` is the most-evaluated description (``None`` when no
    implemented criterion applies), ``symbolic_form`` the pre-evaluation
    description when one exists, ``method`` names the route taken, and
    ``notes`` carry caveats such as the bar-quotient flag.
    """

    __match_args__ = ("group", "symbolic_form", "method", "notes")

    NOT_CLASSIFIED = "not classified by implemented theorems"

    def __init__(self, group: GroupDescription | None, symbolic_form: GroupDescription | None,
                 method: str, notes: tuple[str, ...] = ()) -> None:
        self.__dict__.update(group=group, symbolic_form=symbolic_form, method=method,
                             notes=notes)

    @property
    def classified(self) -> bool:
        return self.group is not None

    def main_line(self) -> str:
        if self.group is None:
            return self.NOT_CLASSIFIED
        if isinstance(self.group, Trivial):
            return "0 (trivial)"
        # a concrete group renders the same with or without the mark
        text = self.group.render(mark_unknown=True)
        if self.group.is_concrete and self.symbolic_form is not None:
            return f"{self.symbolic_form.render()} = {text}"
        return text


def _trivial_result(method: str, *notes: str) -> ClassificationResult:
    return ClassificationResult(Trivial(), None, method, notes)


def _evaluated(symbolic: GroupDescription, table: HomotopyTable | None, method: str,
               *notes: str) -> ClassificationResult:
    return ClassificationResult(symbolic.evaluate(table), symbolic, method, notes)


# Results of the routes whose output depends on nothing but the route; the
# type is frozen and its notes are a tuple, so every call can share them.
_COLLAPSE = "intersection equals the symmetric commutator subgroup"
_TWO_COMPONENT = "two-component meridian intersection"
_PROPER_SUB_INTERSECTION = _trivial_result(
    "strongly nonsplittable pair, proper sub-intersection", _COLLAPSE)
_NONSPLITTABLE_BASE = _trivial_result(
    "strongly nonsplittable pair over a nonsplittable base", _COLLAPSE)
_PAIRWISE_COLLAPSE = _trivial_result(
    _TWO_COMPONENT, "links of at most three components give pairwise collapse")
_TWO_COMPONENT_TRIVIAL = _trivial_result(_TWO_COMPONENT)
_NOT_CLASSIFIED = ClassificationResult(None, None, ClassificationResult.NOT_CLASSIFIED)
# Countable two-component results by (sub, chi2 > 0), which fix them as some
# component lies outside sub; below n^3 entries for n components (chi2 < 2n).
_COUNTABLE: dict[tuple[frozenset[int], int], ClassificationResult] = {}


def classify_A(
    p: LinkProfile,
    l0: Iterable[int],
    sub: Iterable[int],
    table: HomotopyTable | None = None,
) -> ClassificationResult:
    """Classify the meridian-intersection quotient for ``sub`` within ``p``.

    ``sub`` selects the components whose meridian closures are intersected
    (at least two of them); ``l0`` is a disjoint base sublink that is never
    deleted.  The classification quotients the intersection by the
    symmetric commutator subgroup of the closures.  Routes, in order:

    * a strongly nonsplittable pair (every sublink strictly containing
      ``l0`` nonsplittable) is fully classified: proper ``sub`` or a
      nonsplittable nonempty base collapses to the trivial group, an empty
      base gives the ``len(sub)``-th homotopy group of the 3-sphere, and a
      splittable base of genus ``v`` gives the homotopy of a wedge of ``v``
      2-spheres plus a symbolic wedge carrying the base link group;
    * any two-component ``sub`` obeys the dichotomy: trivial unless
      ``chi2 > 0``, in which case free abelian of countable rank (always
      trivial for links of at most three components);
    * a three-component ``sub`` whose complement is exactly ``l0`` is
      classified through the triple pushout, *as the bar-quotient* of the
      intersection (the two agree for 3-component links).

    Anything else returns an explicit not-classified result rather than a
    guess.  Results are immutable and shared wherever they depend on the
    route alone or on ``sub`` and ``chi2``.  The one answer the profile
    keeps, strong nonsplittability by base, stands for the check on the
    base; ``sub`` is checked on every call.
    """
    l0 = frozenset(l0)
    sub = frozenset(sub)
    n = len(sub)
    # a kept answer for l0 stands for its check; on a miss every check runs
    strong = p._strong.get(l0)
    if strong is None or n < 2 or not sub <= p.full_set or not l0.isdisjoint(sub):
        if not l0 <= p.full_set or not sub <= p.full_set:
            raise ValueError("sublinks must be within the profile's components")
        if not l0.isdisjoint(sub):
            raise ValueError("the base sublink and the meridian sublink must be disjoint")
        if n < 2:
            raise ValueError("the meridian sublink needs at least two components")
        strong = strongly_nonsplittable(p, l0)

    # l0 and sub are disjoint within full, so sub is the rest of the link
    # exactly when their sizes add up to the component count
    sub_is_rest = len(l0) + n == p.size
    if strong:
        if not sub_is_rest:
            return _PROPER_SUB_INTERSECTION
        if not l0:
            return _evaluated(PiOfSphere(n, 3), table,
                              "strongly nonsplittable link, full meridian intersection")
        genus = p.nu[l0]
        if genus == 0:
            return _NONSPLITTABLE_BASE
        tail = SymbolicGroup(f"pi_{n}(wedge[m>=1] wedge[{genus}^m] G(L0) smash S^(m+1))")
        return _evaluated(
            direct_sum([PiOfWedge(n, SphereWedge(dims=(2,) * genus)), tail]), table,
            "strongly nonsplittable pair over a splittable base",
            f"contains pi_{n}(S^m) summands with countably infinite "
            f"multiplicity for each 2 <= m <= {n}",
            "G(L0) denotes the base link group, kept symbolic",
        )

    if n == 2:
        if p.size <= 3:
            return _PAIRWISE_COLLAPSE
        chi = p._chi2[sub]
        if chi <= 0:
            return _TWO_COMPONENT_TRIVIAL
        result = _COUNTABLE.get((sub, chi))
        if result is None:
            result = _COUNTABLE[sub, chi] = ClassificationResult(
                FreeAbelian(COUNTABLE), PiOfWedge(2, _deletion_wedge(p, sub, chi)),
                _TWO_COMPONENT, (f"chi2 = {chi} > 0 forces infinite rank",))
        return result

    if n == 3 and sub_is_rest:
        note = ("bar-quotient; for 3-component links it equals the full quotient "
                "(pairwise intersections collapse)" if p.size == 3 else
                "bar-quotient of the meridian intersection; the kernel of the "
                "projection onto it is not determined here")
        return _evaluated(PiOfWedge(3, classify_X3(p, *sorted(sub))), table,
                          "three-component bar-quotient", note)

    return _NOT_CLASSIFIED


def realizability_findings(p: LinkProfile) -> list[str]:
    """Constraint violations that rule out any actual link with this profile.

    Checks the proved bound ``chi3 >= -1`` on every label triple and, for
    three-component profiles, rejects ``chi3 = 1`` (excluded by the full
    case analysis of 3-links).  An empty list does not certify
    realizability.
    """
    findings: list[str] = []
    for i, j, k in combinations(range(1, p.size + 1), 3):
        chi = chi3(p, i, j, k)
        if chi < -1:
            findings.append(f"chi3({i},{j},{k}) = {chi} < -1: unrealizable")
        elif p.size == 3 and chi == 1:
            findings.append("chi3(1,2,3) = 1 is not realized by any 3-component link")
    return findings


def parse_subset_token(token: str, n: int) -> frozenset[int]:
    if token == "empty":
        return frozenset()
    if token == "full":
        return frozenset(range(1, n + 1))
    labels = [_decimal(piece) for piece in token.split(",")]
    if None in labels:
        raise ValueError(f"bad sublink {token!r}")
    if any(not 1 <= s <= n for s in labels):
        raise ValueError(f"sublink {token!r} has labels outside 1..{n}")
    if len(set(labels)) != len(labels):
        raise ValueError(f"sublink {token!r} repeats a label")
    return frozenset(labels)


def parse_profile(text: str, source: str = "<profile>") -> LinkProfile:
    """Parse the line-based profile format.

    ::

        components <n>
        preset <hopf|trivial|brunnian>      # optional, seeds every value
        nu <subset> <integer>               # subset: "empty", "full", "1,3"

    Blank lines and ``#`` comments are ignored.  Malformed lines, duplicate
    ``nu`` lines and unknown directives are rejected with line-numbered
    messages; missing sublinks (when no preset is given) and genus-constraint
    violations come from building the profile, so their messages name only
    ``source``.
    """
    n: int | None = None
    preset: str | None = None
    overrides: dict[frozenset[int], int] = {}
    seen_lines: dict[frozenset[int], int] = {}

    lines = text.splitlines()
    for number, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        directive = fields[0]
        try:  # each check raises ValueError; the handler names the line
            if directive == "components":
                if n is not None:
                    raise ValueError("duplicate 'components' line")
                n = _decimal(fields[1]) if len(fields) == 2 else None
                if n is None or n < 1:
                    raise ValueError("expected 'components <positive integer>'")
            elif directive == "preset":
                if n is None:
                    raise ValueError("'preset' must follow 'components'")
                if preset is not None:
                    raise ValueError("duplicate 'preset' line")
                if len(fields) != 2 or fields[1] not in PRESETS:
                    raise ValueError(f"expected 'preset <{'|'.join(PRESETS)}>'")
                preset = fields[1]
            elif directive == "nu":
                if n is None:
                    raise ValueError("'nu' must follow 'components'")
                if len(fields) != 3:
                    raise ValueError("expected 'nu <subset> <integer>'")
                # 'full' lists all n labels; above the preset limit, 2^n sublinks
                # need more lines than the text has (compared by bit length)
                never_complete = n > _MAX_PRESET_COMPONENTS and n >= len(lines).bit_length()
                if fields[1] == "full" and never_complete:
                    raise ValueError(f"a profile of {n} components needs all 2^{n} "
                                     f"sublinks, and this one has {len(lines)} lines")
                subset = parse_subset_token(fields[1], n)
                if (genus := _decimal(fields[2])) is None:
                    raise ValueError(f"bad genus {fields[2]!r}")
                if subset in seen_lines:
                    raise ValueError(f"duplicate sublink {fields[1]!r} (first given on "
                                     f"line {seen_lines[subset]})")
                seen_lines[subset] = number
                overrides[subset] = genus
            else:
                raise ValueError(f"unknown directive {directive!r}")
        except ValueError as exc:
            raise ProfileFormatError(f"{source}:{number}: {exc}") from exc

    if n is None:
        raise ProfileFormatError(f"{source}: missing 'components' line")
    try:
        return build_profile(n, preset=preset, overrides=overrides)
    except ProfileError as exc:
        raise ProfileFormatError(f"{source}: {exc}") from exc


def load_profile(path: str) -> LinkProfile:
    """Read a profile file; see :func:`parse_profile` for the format."""
    with open(path, encoding="utf-8") as handle:
        return parse_profile(handle.read(), source=path)
