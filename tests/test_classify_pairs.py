"""``classify_A`` on every (L0, sub) pair: a golden file and a literal oracle.

The golden file ``tests/golden/classify_pairs.txt`` lists, for every pair on
the three presets with 2..5 components and on every ``tests/data/*.lnk``
profile, the base L0, the meridian sublink, ``main_line()``, ``method`` and
``notes``.  Regenerate it with ``PYTHONPATH=src python
tests/test_classify_pairs.py`` only when a classification is meant to
change.
"""

from __future__ import annotations

import random
from itertools import combinations
from pathlib import Path

import pytest

from linkhomotopy.homotopy import COUNTABLE, FreeAbelian, PiOfSphere, PiOfWedge, Trivial
from linkhomotopy.links import (
    PRESETS,
    ClassificationResult,
    LinkProfile,
    _bundle_over_splittable_base,
    _three_component_bar_quotient,
    build_profile,
    chi2,
    classify_A,
    classify_X2,
    load_profile,
    preset_profile,
    realizability_findings,
    strongly_nonsplittable,
)

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
        (f"preset {kind} {n}", preset_profile(kind, n))
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


def _oracle_classify(p: LinkProfile, l0, sub) -> ClassificationResult:
    """``classify_A`` with strong nonsplittability decided from ``nu``."""
    l0, sub = frozenset(l0), frozenset(sub)
    full = p.full_set
    if _literally_strong(p, l0):
        collapse = "intersection equals the symmetric commutator subgroup"
        if sub != full - l0:
            return ClassificationResult(
                Trivial(), None,
                "strongly nonsplittable pair, proper sub-intersection", (collapse,),
            )
        if not l0:
            symbolic = PiOfSphere(len(sub), 3)
            return ClassificationResult(
                symbolic.evaluate(None), symbolic,
                "strongly nonsplittable link, full meridian intersection",
            )
        if p.nu[l0] == 0:
            return ClassificationResult(
                Trivial(), None,
                "strongly nonsplittable pair over a nonsplittable base", (collapse,),
            )
        return _bundle_over_splittable_base(p, l0, sub, None)
    if len(sub) == 2:
        method = "two-component meridian intersection"
        if p.size <= 3:
            return ClassificationResult(
                Trivial(), None, method,
                ("links of at most three components give pairwise collapse",),
            )
        i, j = sorted(sub)
        chi = chi2(p, i, j)
        if chi <= 0:
            return ClassificationResult(Trivial(), None, method)
        return ClassificationResult(
            FreeAbelian(COUNTABLE), PiOfWedge(2, classify_X2(p, i, j)), method,
            (f"chi2 = {chi} > 0 forces infinite rank",),
        )
    if len(sub) == 3 and l0 == full - sub:
        return _three_component_bar_quotient(p, sub, None)
    return ClassificationResult(None, None, ClassificationResult.NOT_CLASSIFIED)


def _memo_profiles(rng: random.Random) -> list[LinkProfile]:
    """Presets with 2..7 components plus random accepted overrides."""
    profiles = []
    for n in range(2, 8):
        multi = [frozenset(s) for r in range(2, n + 1) for s in combinations(range(1, n + 1), r)]
        for kind in PRESETS:
            profiles.append(preset_profile(kind, n))
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
        pairs = _pairs(p.size)
        rng.shuffle(pairs)
        for l0, sub in pairs:
            expected = _fields(_oracle_classify(p, l0, sub))
            assert _fields(classify_A(p, l0, sub)) == expected, (p.nu, l0, sub)
            assert strongly_nonsplittable(p, l0) == _literally_strong(p, l0)
            routes.add(expected[2])
        # a warm cache still refuses a base outside the profile, every time
        outside = (p.size + 1,)
        for _ in range(2):
            with pytest.raises(ValueError):
                strongly_nonsplittable(p, outside)
            with pytest.raises(ValueError):
                classify_A(p, outside, (1, 2))
    assert len(routes) == 7


if __name__ == "__main__":
    GOLDEN.write_text(render_pairs(), encoding="utf-8")
