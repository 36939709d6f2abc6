"""``classify_A`` on every (L0, sub) pair: a golden file and a literal oracle.

The golden file ``tests/golden/classify_pairs.txt`` lists, for every pair on
the three presets with 2..5 components and on every ``tests/data/*.lnk``
profile, the base L0, the meridian sublink, ``main_line()``, ``method`` and
``notes``.  Regenerate it with ``PYTHONPATH=src python
tests/test_classify_pairs.py`` only when a classification is meant to
change.  ``chi2`` and the two-component notes, which read the table a
profile computes when it is built, are checked against the benchmark's sum
formula, and so is every value the profile computes then.
"""

from __future__ import annotations

import copy
import pickle
import random
from itertools import combinations
from pathlib import Path

import pytest

from linkhomotopy.homotopy import (
    COUNTABLE,
    FreeAbelian,
    PiOfSphere,
    PiOfWedge,
    SphereWedge,
    SymbolicGroup,
    Trivial,
    direct_sum,
)
from linkhomotopy.links import (
    PRESETS,
    _TWO_COMPONENT_TRIVIAL,
    ClassificationResult,
    LinkProfile,
    build_profile,
    chi2,
    classify_A,
    delete_component,
    load_profile,
    realizability_findings,
    strongly_nonsplittable,
)
from conftest import PERFBENCH, random_profile  # noqa: F401  PERFBENCH puts perfbench/ on sys.path
from oracles import nu_chi2, nu_chi3

TESTS = Path(__file__).parent
GOLDEN = TESTS / "golden" / "classify_pairs.txt"


def _subsets(labels) -> list[frozenset[int]]:
    labels = sorted(labels)
    return [frozenset(c) for r in range(len(labels) + 1) for c in combinations(labels, r)]


def _pairs(n: int) -> list[tuple[frozenset[int], frozenset[int]]]:
    """Every disjoint (L0, sub) with ``|sub| >= 2``, in a fixed order."""
    full = range(1, n + 1)
    return [
        (l0, sub)
        for l0 in _subsets(full)
        for sub in _subsets(set(full) - l0)
        if len(sub) >= 2
    ]


def _token(subset: frozenset[int]) -> str:
    return ",".join(str(s) for s in sorted(subset)) or "empty"


def _golden_profiles() -> list[tuple[str, LinkProfile]]:
    profiles = [
        (f"preset {kind} {n}", build_profile(n, kind))
        for kind in PRESETS
        for n in range(2, 6)
    ]
    for path in sorted((TESTS / "data").glob("*.lnk")):
        profiles.append((f"data {path.name}", load_profile(str(path))))
    return profiles


def render_pairs() -> str:
    lines = []
    for name, p in _golden_profiles():
        lines.append(f"# {name}")
        for l0, sub in _pairs(p.size):
            r = classify_A(p, l0, sub)
            fields = [_token(l0), _token(sub), r.main_line(), r.method, " | ".join(r.notes)]
            lines.append("\t".join(fields))
    return "\n".join(lines) + "\n"


def test_classify_pairs_golden():
    assert render_pairs() == GOLDEN.read_text(encoding="utf-8")


# -- the literal definition, with no cache --------------------------------


def _literally_strong(p: LinkProfile, l0: frozenset[int]) -> bool:
    # every sublink strictly containing l0, read from nu itself
    return all(genus == 0 for s, genus in p.nu.items() if l0 < s)


def _factor(deleted) -> str:
    return "K(G(d_{" + ",".join(str(s) for s in sorted(deleted)) + "}L),1)"


def _oracle_classify(p: LinkProfile, l0, sub) -> ClassificationResult:
    """``classify_A`` spelled out route by route: strong nonsplittability
    from ``nu``, chi from the benchmark's sum formulas and each wedge built
    by hand."""
    l0, sub = frozenset(l0), frozenset(sub)
    full = p.full_set
    n = len(sub)
    if _literally_strong(p, l0):
        collapse = "intersection equals the symmetric commutator subgroup"
        if sub != full - l0:
            return ClassificationResult(
                Trivial(), None,
                "strongly nonsplittable pair, proper sub-intersection", (collapse,),
            )
        if not l0:
            symbolic = PiOfSphere(n, 3)
            return ClassificationResult(
                symbolic.evaluate(None), symbolic,
                "strongly nonsplittable link, full meridian intersection",
            )
        genus = p.nu[l0]
        if genus == 0:
            return ClassificationResult(
                Trivial(), None,
                "strongly nonsplittable pair over a nonsplittable base", (collapse,),
            )
        symbolic = direct_sum([
            PiOfWedge(n, SphereWedge((2,) * genus)),
            SymbolicGroup(f"pi_{n}(wedge[m>=1] wedge[{genus}^m] G(L0) smash S^(m+1))"),
        ])
        return ClassificationResult(
            symbolic.evaluate(None), symbolic,
            "strongly nonsplittable pair over a splittable base",
            (f"contains pi_{n}(S^m) summands with countably infinite multiplicity "
             f"for each 2 <= m <= {n}",
             "G(L0) denotes the base link group, kept symbolic"),
        )
    if n == 2:
        method = "two-component meridian intersection"
        if p.size <= 3:
            return ClassificationResult(
                Trivial(), None, method,
                ("links of at most three components give pairwise collapse",),
            )
        chi = nu_chi2(p.nu, full, *sub)
        if chi <= 0:
            return ClassificationResult(Trivial(), None, method)
        # four or more components: some sublink survives the two deletions
        wedge = SphereWedge((2,) * chi, _factor(sub))
        return ClassificationResult(
            FreeAbelian(COUNTABLE), PiOfWedge(2, wedge), method,
            (f"chi2 = {chi} > 0 forces infinite rank",),
        )
    if n == 3 and l0 == full - sub:
        chi = nu_chi3(p.nu, full, *sub)
        assert chi >= -1  # the profiles here are realizable
        # chi = -1 is one 3-sphere, chi >= 0 that many 2-spheres; the base
        # l0 is what survives the three deletions
        wedge = SphereWedge((3,) if chi == -1 else (2,) * chi, _factor(sub) if l0 else None)
        symbolic = PiOfWedge(3, wedge)
        if p.size == 3:
            note = ("bar-quotient; for 3-component links it equals the full quotient "
                    "(pairwise intersections collapse)")
        else:
            note = ("bar-quotient of the meridian intersection; the kernel of the "
                    "projection onto it is not determined here")
        return ClassificationResult(
            symbolic.evaluate(None), symbolic, "three-component bar-quotient", (note,)
        )
    return ClassificationResult(None, None, ClassificationResult.NOT_CLASSIFIED)


def _memo_profiles(rng: random.Random) -> list[LinkProfile]:
    """Presets with 2..7 components plus random accepted overrides."""
    profiles = []
    for n in range(2, 8):
        multi = [frozenset(s) for r in range(2, n + 1) for s in combinations(range(1, n + 1), r)]
        for kind in PRESETS:
            profiles.append(build_profile(n, kind))
            accepted = 0
            while accepted < 2:
                picks = rng.sample(multi, min(len(multi), rng.randint(1, 4)))
                p = build_profile(n, kind, {s: rng.randint(0, len(s) - 1) for s in picks})
                if not realizability_findings(p):
                    profiles.append(p)
                    accepted += 1
    return profiles


def _fields(r: ClassificationResult):
    return (r.group, r.symbolic_form, r.method, r.notes)


def test_classify_A_matches_literal_definition_in_any_order():
    rng = random.Random(1109)
    profiles = _memo_profiles(rng)
    routes = set()
    for p in profiles:
        fields = set(vars(p))
        pairs = _pairs(p.size)
        rng.shuffle(pairs)
        for l0, sub in pairs:
            expected = _fields(_oracle_classify(p, l0, sub))
            assert _fields(classify_A(p, l0, sub)) == expected, (p.nu, l0, sub)
            assert strongly_nonsplittable(p, l0) == _literally_strong(p, l0)
            routes.add(expected[2])
        # the one kept answer is strong nonsplittability by base
        assert set(vars(p)) == fields and set(p._strong) <= set(p.nu), p.nu
        # a warm cache still refuses a base outside the profile, every time
        outside = (p.size + 1,)
        for _ in range(2):
            with pytest.raises(ValueError):
                strongly_nonsplittable(p, outside)
            with pytest.raises(ValueError):
                classify_A(p, outside, (1, 2))
    assert len(routes) == 7


def test_two_component_results_are_shared_by_pair():
    # the result depends on the pair and chi2 alone: with chi2 > 0 every base
    # that is not strongly nonsplittable, in any profile, gets one instance,
    # and with chi2 <= 0 the shared trivial one
    shared = {}
    for p in _chi2_profiles():
        full = p.full_set
        for i, j in combinations(sorted(full), 2):
            sub = frozenset((i, j))
            if p.size <= 3:
                continue
            chi = nu_chi2(p.nu, full, i, j)
            for l0 in _subsets(full - sub):
                if _literally_strong(p, l0):
                    continue
                result = classify_A(p, l0, sub)
                assert _fields(result) == _fields(_oracle_classify(p, l0, sub)), (p.nu, l0, sub)
                if chi <= 0:
                    assert result is _TWO_COMPONENT_TRIVIAL, (p.nu, l0, sub)
                else:
                    assert shared.setdefault((sub, chi), result) is result, (p.nu, l0, sub)
    assert shared  # some pair reaches chi2 > 0


# -- chi2 by label pair against the sum formula -----------------------------


def _chi2_profiles() -> list[LinkProfile]:
    """Presets with 1..8 components, the data files, 200 random profiles of
    2..6 components, and every profile one deletion away from those."""
    rng = random.Random(2003)
    profiles = [build_profile(n, kind) for kind in PRESETS for n in range(1, 9)]
    profiles += [load_profile(str(path)) for path in sorted((TESTS / "data").glob("*.lnk"))]
    profiles += [random_profile(rng, rng.randint(2, 6)) for _ in range(200)]
    return profiles + [delete_component(p, k) for p in profiles if p.size > 1
                       for k in p.full_set]


def _assert_built_fields(p: LinkProfile) -> None:
    """The values a new profile computes from ``nu``, read again from ``nu``."""
    full = frozenset(range(1, p.size + 1))
    assert p.full_set == full
    splittable = {s for s, genus in p.nu.items() if genus > 0}
    assert len(p._splittable) == len(splittable) and set(p._splittable) == splittable
    sizes = [len(s) for s in p._splittable]
    assert sizes == sorted(sizes, reverse=True), (p.nu, p._splittable)
    assert p._chi2 == {frozenset((i, j)): nu_chi2(p.nu, full, i, j)
                       for i, j in combinations(range(1, p.size + 1), 2)}
    assert p._strong == {}


def test_chi2_and_two_component_notes_match_the_sum_formula():
    infinite = 0
    for p in _chi2_profiles():
        _assert_built_fields(p)
        full = p.full_set
        for i, j in combinations(sorted(full), 2):
            expected = nu_chi2(p.nu, full, i, j)
            assert chi2(p, i, j) == chi2(p, j, i) == expected, (p.nu, i, j)
            sub = frozenset((i, j))
            for l0 in _subsets(full - sub):
                r = classify_A(p, l0, sub)
                if r.method != "two-component meridian intersection" or p.size <= 3:
                    continue
                notes = (f"chi2 = {expected} > 0 forces infinite rank",) if expected > 0 else ()
                assert r.notes == notes, (p.nu, l0, sub)
                infinite += bool(notes)
    assert infinite  # some pair reaches the note


def test_copies_get_new_empty_answer_dicts():
    p = build_profile(5, "trivial")
    for l0, sub in _pairs(p.size):
        classify_A(p, l0, sub)
    assert p._strong
    for q in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        assert q == p and q is not p
        _assert_built_fields(q)
        assert (q.full_set, q._splittable, q._chi2) == (p.full_set, p._splittable, p._chi2)
        classify_A(q, (), (1, 2))
        assert p._strong is not q._strong
        assert list(q._strong) == [frozenset()]


if __name__ == "__main__":
    GOLDEN.write_text(render_pairs(), encoding="utf-8")
