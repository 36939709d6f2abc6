"""Acceptance suite: one test per contracted criterion, exact tolerances.

Every check is exact integer/structural equality (the invariants here are
algebraic identities, so there is nothing to approximate).  Each test
prints a single ``[acceptance] <name>: PASS|FAIL`` line; run with
``pytest tests/test_acceptance.py -v -s`` to see them all.
"""

from __future__ import annotations

import random
from itertools import combinations
from pathlib import Path

from linkhomotopy import (
    COUNTABLE,
    DEFAULT_TABLE,
    VARIANT_ETA_DEGREE3,
    VARIANT_ETA_DEGREE4,
    Cyclic,
    DirectSum,
    FreeAbelian,
    PiOfSphere,
    Trivial,
    chi2,
    chi3,
    classify_A,
    classify_X3,
    commutator,
    degeneracy,
    delete_component,
    eta_tower,
    face,
    gamma_class_lower_bound,
    generator,
    hilton_pi,
    is_cycle,
    magnus_expand,
    mu_coefficient,
    parse_word,
    reduced_expand,
)
from linkhomotopy.cli import main as cli_main
from linkhomotopy.links import build_profile
from conftest import oracle_multiply, random_element, random_profile, random_word

GOLDEN = Path(__file__).parent / "golden"
Z = FreeAbelian(1)


def report(name: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"[acceptance] {name}: {status}")
    assert not failures, f"{name}: " + "; ".join(failures)


def test_criterion_01_simplicial_identities():
    """All face/degeneracy identities hold exactly on 500 seeded random
    words per degree, degrees 1..6."""
    failures: list[str] = []
    rng = random.Random(20240)
    for degree in range(1, 7):
        for _ in range(500):
            e = random_element(rng, degree, max_syllables=5)
            if degree >= 2:
                for j in range(degree + 1):
                    for i in range(j):
                        if face(i, face(j, e)) != face(j - 1, face(i, e)):
                            failures.append(f"dd failed at degree {degree}")
            for i in range(degree + 1):
                for j in range(i, degree + 1):
                    if degeneracy(i, degeneracy(j, e)) != degeneracy(j + 1, degeneracy(i, e)):
                        failures.append(f"ss failed at degree {degree}")
            for j in range(degree + 1):
                for i in range(degree + 2):
                    lhs = face(i, degeneracy(j, e))
                    if i < j:
                        rhs = degeneracy(j - 1, face(i, e))
                    elif i in (j, j + 1):
                        rhs = e
                    else:
                        rhs = degeneracy(j, face(i - 1, e))
                    if lhs != rhs:
                        failures.append(f"ds failed at degree {degree} (i={i}, j={j})")
            if failures:
                break
        if failures:
            break
    report("01 simplicial identities", failures)


def _cli_lines(*argv: str) -> str:
    import io
    from contextlib import redirect_stdout

    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli_main(list(argv))
    assert code == 0, f"cli {argv} exited {code}"
    return buffer.getvalue()


def test_criterion_02a_tower_words_golden():
    """tower(2) is exactly [x1 x2, x1]; towers 2..4 are cycles and match
    the frozen golden outputs (CLI string equality)."""
    failures: list[str] = []
    if eta_tower(2).word != parse_word("[x1*x2, x1]"):
        failures.append("tower(2) != [x1 x2, x1]")
    for k in (2, 3, 4):
        if not is_cycle(eta_tower(k)):
            failures.append(f"tower({k}) is not a cycle")
        got = _cli_lines("hatf", "tower", str(k))
        expected = (GOLDEN / f"tower{k}.txt").read_text()
        if got != expected:
            failures.append(f"tower({k}) golden mismatch")
    for k in (4, 5):
        got = _cli_lines("hatf", "meridian", str(k))
        expected = (GOLDEN / f"meridian{k}.txt").read_text()
        if got != expected:
            failures.append(f"meridian({k}) golden mismatch")
    report("02a tower and meridian words", failures)


def test_criterion_02b_variant_words_pass_cycle_test():
    """Contracted claim: the literature's variant spellings of the degree-3
    and degree-4 tower words also pass the cycle test.

    Direct computation refutes this: the degree-3 variant has
    ``d_2 = [[x1,x2],[x1 x2,x1]] != 1`` and the degree-4 variant fails
    ``d_3`` (see test_simplicial.py, which asserts the computed faces).
    The assertion is kept as contracted, so this test is expected to fail;
    it documents the discrepancy rather than hiding it.
    """
    failures: list[str] = []
    for label, variant in (("degree-3", VARIANT_ETA_DEGREE3),
                           ("degree-4", VARIANT_ETA_DEGREE4)):
        if not is_cycle(variant):
            failures.append(f"{label} variant is not a Moore cycle")
    report("02b variant words cycle test", failures)


def test_criterion_03_invisibility_desk_check():
    """For 4 and 5 strands the tower cycle has no Magnus terms of positive
    degree below the strand count and identically trivial reduced
    expansion at that truncation."""
    failures: list[str] = []
    for n in (4, 5):
        tower = eta_tower(n - 1)
        if not is_cycle(tower):
            failures.append(f"tower({n - 1}) not a cycle")
        if gamma_class_lower_bound(tower.word, n - 1) is not None:
            failures.append(f"tower({n - 1}) has Magnus terms below degree {n}")
        if not reduced_expand(tower.word, n - 1).is_one:
            failures.append(f"tower({n - 1}) has nonzero reduced coefficients")
    report("03 invisibility desk check", failures)


def test_criterion_04_commutator_power_detection():
    """mu([x1,x2]^k, (1,2)) = k for k in -3..3."""
    base = commutator(generator(1), generator(2))
    failures = [
        f"k={k}"
        for k in range(-3, 4)
        if mu_coefficient(base ** k, (1, 2)) != k
    ]
    report("04 commutator power detection", failures)


def test_criterion_05_three_component_catalog():
    """The five 3-component cases reproduce 0, 0, Z^3, 0, Z with the
    expected chi3 values."""
    chain3 = build_profile(3, overrides={
        frozenset(): -1,
        frozenset({1}): 0, frozenset({2}): 0, frozenset({3}): 0,
        frozenset({1, 2}): 0, frozenset({1, 3}): 1, frozenset({2, 3}): 1,
        frozenset({1, 2, 3}): 1,
    })
    one_split = build_profile(3, overrides={
        frozenset(): -1,
        frozenset({1}): 0, frozenset({2}): 0, frozenset({3}): 0,
        frozenset({1, 2}): 0, frozenset({1, 3}): 0, frozenset({2, 3}): 1,
        frozenset({1, 2, 3}): 0,
    })
    cases = [
        ("genus 2", build_profile(3, "trivial"), 0, Trivial()),
        ("genus 1", chain3, 0, Trivial()),
        ("genus 0, chi3 2", build_profile(3, "brunnian"), 2, DirectSum((Z, Z, Z))),
        ("genus 0, chi3 0", one_split, 0, Trivial()),
        ("genus 0, chi3 -1", build_profile(3, "hopf"), -1, Z),
    ]
    failures: list[str] = []
    for label, profile, expected_chi, expected_group in cases:
        got_chi = chi3(profile, 1, 2, 3)
        if got_chi != expected_chi:
            failures.append(f"{label}: chi3 {got_chi} != {expected_chi}")
        got = classify_A(profile, (), (1, 2, 3)).group
        if got != expected_group:
            failures.append(f"{label}: {got} != {expected_group}")
    report("05 three-component catalog", failures)


def test_criterion_06_fibration_links_against_table():
    """Full classification of the fibration-link profiles matches the
    homotopy table: Z, Z/2, Z/2, Z/12 for 3..6 strands."""
    expected = {3: Z, 4: Cyclic(2), 5: Cyclic(2), 6: Cyclic(12)}
    failures: list[str] = []
    for n, group in expected.items():
        result = classify_A(build_profile(n, "hopf"), (), range(1, n + 1))
        if result.group != group:
            failures.append(f"n={n}: {result.group} != {group}")
        if PiOfSphere(n, 3).evaluate() != group:
            failures.append(f"table({n},3) != {group}")
    report("06 fibration links against table", failures)


def test_criterion_07_two_component_dichotomy():
    """Over 200 generated valid profiles with more than three components,
    every 2-sublink classification is trivial or free abelian of countable
    rank, and nontriviality agrees with chi2 > 0."""
    rng = random.Random(90210)
    failures: list[str] = []
    for index in range(200):
        p = random_profile(rng, rng.choice([4, 5]))
        for i, j in combinations(range(1, p.size + 1), 2):
            got = classify_A(p, (), (i, j)).group
            chi = chi2(p, i, j)
            if got == Trivial():
                nontrivial = False
            elif got == FreeAbelian(COUNTABLE):
                nontrivial = True
            else:
                failures.append(f"profile {index}: unexpected group {got}")
                continue
            if nontrivial != (chi > 0):
                failures.append(
                    f"profile {index}: chi2={chi} but nontrivial={nontrivial}"
                )
        if failures:
            break
    report("07 two-component dichotomy", failures)


def test_criterion_08_chi_coherence():
    """chi3 equals chi2-after-deletion minus chi2, is permutation
    invariant, and stays >= -1 on profiles built from the catalog's case
    constructions."""
    rng = random.Random(4711)
    failures: list[str] = []
    for _ in range(150):
        p = random_profile(rng, rng.randint(3, 5))
        i, j, k = rng.sample(range(1, p.size + 1), 3)
        deleted = delete_component(p, k)
        i2, j2 = (i if i < k else i - 1), (j if j < k else j - 1)
        if chi3(p, i, j, k) != chi2(deleted, i2, j2) - chi2(p, i, j):
            failures.append("deletion identity failed")
        values = {
            chi3(p, a, b, c)
            for a, b, c in ((i, j, k), (j, i, k), (k, j, i), (i, k, j), (j, k, i), (k, i, j))
        }
        if len(values) != 1:
            failures.append("permutation invariance failed")
        if failures:
            break

    # case constructions: presets plus the strongly nonsplittable composite
    catalog = [build_profile(n, kind)
               for kind in ("hopf", "trivial", "brunnian") for n in (3, 4, 5, 6)]
    rings = {
        frozenset(s): 0
        for r in range(1, 5) for s in combinations(range(1, 5), r)
    }
    rings[frozenset()] = -1
    rings[frozenset({3, 4})] = 1
    catalog.append(build_profile(4, overrides=rings))
    for p in catalog:
        for i, j, k in combinations(range(1, p.size + 1), 3):
            chi = chi3(p, i, j, k)
            if chi < -1:
                failures.append(f"case construction broke the chi3 bound: {chi}")
            classify_X3(p, i, j, k)  # must not raise
    report("08 chi coherence", failures)


def test_criterion_09_magnus_algebra_suite():
    """Multiplicativity, inverse law, degree-2 antisymmetry, and weight-c
    vanishing below degree c (c <= 5), over >= 500 seeded cases."""
    rng = random.Random(1729)
    failures: list[str] = []

    for _ in range(200):  # multiplicativity
        u = random_word(rng, 3, max_syllables=4, max_exponent=2)
        v = random_word(rng, 3, max_syllables=4, max_exponent=2)
        k = rng.randint(1, 4)
        product_terms = oracle_multiply(magnus_expand(u, k).terms, magnus_expand(v, k).terms, k)
        if magnus_expand(u * v, k).terms != product_terms:
            failures.append("multiplicativity failed")
            break

    for _ in range(150):  # inverse law
        w = random_word(rng, 3, max_syllables=4, max_exponent=2)
        k = rng.randint(1, 4)
        inverse_terms = magnus_expand(w ** -1, k).terms
        if oracle_multiply(magnus_expand(w, k).terms, inverse_terms, k) != {(): 1}:
            failures.append("inverse law failed")
            break

    for _ in range(100):  # degree-2 antisymmetry
        i, j = rng.sample(range(1, 5), 2)
        series = magnus_expand(commutator(generator(i), generator(j)), 2)
        if series.terms.get((i, j), 0) != 1 or series.terms.get((j, i), 0) != -1:
            failures.append("antisymmetry failed")
            break

    def random_commutator(weight: int):
        if weight == 1:
            return generator(rng.randint(1, 4), rng.choice([-1, 1]))
        split = rng.randint(1, weight - 1)
        return commutator(random_commutator(split), random_commutator(weight - split))

    for _ in range(80):  # weight-c commutators vanish below degree c
        weight = rng.randint(2, 5)
        w = random_commutator(weight)
        bound = gamma_class_lower_bound(w, 5)
        if bound is not None and bound < weight:
            failures.append(f"weight-{weight} commutator seen at degree {bound}")
            break

    report("09 magnus algebra suite", failures)


def test_criterion_10_wedge_calculator():
    """pi_3 of a two-sphere wedge is Z^3; singleton wedges agree with the
    table; the result is independent of the dimension order."""
    failures: list[str] = []
    if hilton_pi(3, [2, 2]) != DirectSum((Z, Z, Z)):
        failures.append("pi_3(S^2 v S^2) != Z + Z + Z")
    for n in range(2, 7):
        for m in range(2, n + 1):
            entry = DEFAULT_TABLE.entry(n, m)
            if entry is not None and hilton_pi(n, [m]) != entry.group:
                failures.append(f"singleton mismatch at ({n},{m})")
    rng = random.Random(31415)
    for _ in range(50):
        dims = [rng.randint(2, 4) for _ in range(rng.randint(1, 3))]
        shuffled = dims[:]
        rng.shuffle(shuffled)
        n = rng.randint(2, 5)
        if hilton_pi(n, dims) != hilton_pi(n, shuffled):
            failures.append("order dependence detected")
            break
    report("10 wedge calculator", failures)
