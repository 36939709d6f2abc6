import random
from itertools import combinations, permutations

import pytest

from linkhomotopy import (
    COUNTABLE,
    ClassificationResult,
    Cyclic,
    FreeAbelian,
    LinkProfile,
    PiOfSphere,
    ProfileError,
    ProfileFormatError,
    SphereWedge,
    Trivial,
    UnrealizableProfileError,
    build_profile,
    chi2,
    chi3,
    classify_A,
    classify_X2,
    classify_X3,
    delete_component,
    parse_profile,
    realizability_findings,
    strongly_nonsplittable,
)
from linkhomotopy.links import PRESETS, parse_subset_token
from conftest import LONG_DIGITS, TOO_LONG, random_profile

Z = FreeAbelian(1)


def fs(*labels):
    return frozenset(labels)


# -- Example 4-catalog profiles: every 3-component case ----------------------

CHAIN3 = build_profile(3, overrides={
    fs(): -1, fs(1): 0, fs(2): 0, fs(3): 0,
    fs(1, 2): 0, fs(1, 3): 1, fs(2, 3): 1,
    fs(1, 2, 3): 1,
})  # a linked pair plus one loose knot

ONE_SPLITTING_DELETION = build_profile(3, overrides={
    fs(): -1, fs(1): 0, fs(2): 0, fs(3): 0,
    fs(1, 2): 0, fs(1, 3): 0, fs(2, 3): 1,
    fs(1, 2, 3): 0,
})  # nonsplittable, splits only when component 1 is removed


def test_presets():
    hopf = build_profile(3, "hopf")
    assert all(hopf.nu[s] == 0 for s in hopf.nu if s)
    trivial = build_profile(3, "trivial")
    assert trivial.genus((1, 2, 3)) == 2
    assert trivial.genus((1, 2)) == 1
    assert trivial.genus((2,)) == 0
    brunnian = build_profile(3, "brunnian")
    assert brunnian.genus((1, 2, 3)) == 0
    assert brunnian.genus((1, 2)) == 1
    unknown = r"^unknown preset 'borromean'; expected one of \('hopf', 'trivial', 'brunnian'\)$"
    with pytest.raises(ValueError, match=unknown) as caught:
        build_profile(3, "borromean")
    assert type(caught.value) is ValueError
    # a profile file names only known presets, and says which
    with pytest.raises(ProfileFormatError, match=r"^<profile>:2: expected "
                       r"'preset <hopf\|trivial\|brunnian>'$"):
        parse_profile("components 3\npreset borromean\n")
    for n in (0, -2):
        with pytest.raises(ProfileError, match=f"component count must be >= 1, got {n}"):
            build_profile(n, "hopf")


def test_preset_profile_component_limit(monkeypatch):
    # a preset assigns all 2^n sublinks, so a large n is refused before any
    # sublink's genus is asked for, by build_profile and by a profile file's
    # 'preset' line, with the same text
    assert build_profile(12, "hopf").size == 12

    def never(*args):
        raise AssertionError(f"_preset_value{args} was called")

    monkeypatch.setattr("linkhomotopy.links._preset_value", never)
    for kind in PRESETS:
        for n in (13, 40, 10**9):
            message = rf"^preset profiles have at most 12 components \(4096 sublinks\), got {n}$"
            with pytest.raises(ProfileError, match=message):
                build_profile(n, kind)
            with pytest.raises(ProfileFormatError, match=message.replace("^", "^<profile>: ")):
                parse_profile(f"components {n}\npreset {kind}\n")


@pytest.mark.parametrize("kind", PRESETS)
def test_preset_routes_agree(kind):
    # build_profile and a profile file's 'preset' line build one profile,
    # with its sublinks in one order; so does an override
    for n in range(1, 13):
        full = frozenset(range(1, n + 1))
        routes = [build_profile(n, kind), parse_profile(f"components {n}\npreset {kind}\n")]
        genus = 0 if routes[0].nu[full] else n - 1
        routes += [
            LinkProfile(n, {**routes[0].nu, full: genus}),
            build_profile(n, kind, {full: genus}),
            parse_profile(f"components {n}\npreset {kind}\nnu full {genus}\n"),
        ]
        assert routes[2].genus(full) == genus
        for first, *others in (routes[:2], routes[2:]):
            for p in others:
                assert p == first
                assert list(p.nu) == list(first.nu) and p._splittable == first._splittable


def test_profile_invariants_enforced():
    with pytest.raises(ProfileError):
        build_profile(2, overrides={
            fs(): 0, fs(1): 0, fs(2): 0, fs(1, 2): 0,
        })  # empty sublink must have genus -1
    with pytest.raises(ProfileError):
        build_profile(2, overrides={
            fs(): -1, fs(1): 1, fs(2): 0, fs(1, 2): 0,
        })  # a knot has genus 0
    with pytest.raises(ProfileError):
        build_profile(2, overrides={
            fs(): -1, fs(1): 0, fs(2): 0, fs(1, 2): 2,
        })  # genus bounded by components - 1
    with pytest.raises(ProfileError):
        build_profile(2, overrides={fs(): -1, fs(1): 0})  # missing sublinks
    with pytest.raises(ProfileError):
        build_profile(1, preset="hopf", overrides={fs(5): 0})


def test_chi2_examples():
    assert chi2(build_profile(3, "hopf"), 1, 2) == 0
    assert chi2(build_profile(2, "trivial"), 1, 2) == 0
    assert chi2(build_profile(2, "hopf"), 1, 2) == -1
    with pytest.raises(ValueError):
        chi2(build_profile(3, "hopf"), 1, 1)
    with pytest.raises(ValueError):
        chi2(build_profile(3, "hopf"), 1, 4)


def test_chi2_is_symmetric():
    rng = random.Random(71)
    for _ in range(100):
        p = random_profile(rng, rng.randint(2, 5))
        for i, j in combinations(range(1, p.size + 1), 2):
            assert chi2(p, i, j) == chi2(p, j, i)


def test_chi3_examples():
    assert chi3(build_profile(3, "hopf"), 1, 2, 3) == -1
    assert chi3(build_profile(3, "brunnian"), 1, 2, 3) == 2
    assert chi3(build_profile(3, "trivial"), 1, 2, 3) == 0
    with pytest.raises(ValueError):
        chi3(build_profile(4, "hopf"), 1, 2, 2)


def test_chi3_equals_chi2_after_deletion_minus_chi2():
    rng = random.Random(73)
    for _ in range(100):
        p = random_profile(rng, rng.randint(3, 5))
        for i, j, k in combinations(range(1, p.size + 1), 3):
            deleted = delete_component(p, k)
            # deleting k shifts the labels above it down by one
            i2 = i if i < k else i - 1
            j2 = j if j < k else j - 1
            assert chi3(p, i, j, k) == chi2(deleted, i2, j2) - chi2(p, i, j)


def test_chi3_is_permutation_invariant():
    rng = random.Random(79)
    for _ in range(60):
        p = random_profile(rng, rng.randint(3, 5))
        i, j, k = rng.sample(range(1, p.size + 1), 3)
        values = {chi3(p, *perm) for perm in permutations((i, j, k))}
        assert len(values) == 1


def test_delete_component_relabels():
    assert delete_component(build_profile(4, "hopf"), 2) == build_profile(3, "hopf")
    assert delete_component(build_profile(4, "trivial"), 1) == build_profile(3, "trivial")
    # a brunnian link falls apart after deleting any component
    assert delete_component(build_profile(4, "brunnian"), 3) == build_profile(3, "trivial")
    assert delete_component(CHAIN3, 3).genus((1, 2)) == 0
    # every sublink keeps its genus under the relabelling x -> x + 1 above k
    rng = random.Random(113)
    for _ in range(40):
        p = random_profile(rng, rng.randint(2, 6))
        for k in range(1, p.size + 1):
            d = delete_component(p, k)
            assert d.size == p.size - 1 and len(d.nu) == 2 ** d.size
            for s in d.nu:
                assert d.nu[s] == p.nu[frozenset(x if x < k else x + 1 for x in s)]


def test_strongly_nonsplittable():
    assert strongly_nonsplittable(build_profile(4, "hopf"))
    assert strongly_nonsplittable(build_profile(4, "hopf"), (2, 3))
    assert not strongly_nonsplittable(build_profile(3, "trivial"))
    assert not strongly_nonsplittable(build_profile(3, "brunnian"))
    with pytest.raises(ValueError):
        strongly_nonsplittable(build_profile(3, "hopf"), (5,))
    # every base against the literal definition, on random profiles and on
    # presets with a few splittable overrides (so both answers occur)
    rng = random.Random(127)
    profiles = []
    for n in range(1, 7):
        profiles += [random_profile(rng, n) for _ in range(4)]
        multi = [s for r in range(2, n + 1) for s in combinations(range(1, n + 1), r)]
        for kind in ("hopf", "trivial", "brunnian"):
            picks = rng.sample(multi, min(len(multi), rng.randint(1, 3)))
            profiles.append(build_profile(n, kind, {
                fs(*s): rng.randint(0, len(s) - 1) for s in picks
            }))
    seen = set()
    for p in profiles:
        for base in p.nu:
            expected = all(p.nu[s] == 0 for s in p.nu if base < s)
            assert strongly_nonsplittable(p, base) == expected
            seen.add(expected)
    assert seen == {True, False}


def test_classify_X2_examples():
    assert classify_X2(build_profile(2, "hopf"), 1, 2) == SphereWedge((3,))
    assert classify_X2(build_profile(2, "trivial"), 1, 2) == SphereWedge(())
    chi_three = build_profile(5, overrides={
        **{fs(*s): 0 for r in range(1, 6) for s in combinations(range(1, 6), r)},
        fs(): -1,
        fs(3, 4, 5): 2,
        fs(1, 2, 3, 4, 5): 1,
    })
    assert chi2(chi_three, 1, 2) == 3
    wedge = classify_X2(chi_three, 1, 2)
    assert wedge.dims == (2, 2, 2)
    assert wedge.group_factor == "K(G(d_{1,2}L),1)"
    assert classify_X2(chi_three, 2, 1) == wedge  # labels written in order


def test_classify_X2_shape_matches_chi2():
    # sphere count is |chi2|; dimension 2 exactly when chi2 > 0 and 3
    # exactly when chi2 = -1
    rng = random.Random(101)
    for _ in range(150):
        p = random_profile(rng, rng.randint(2, 5))
        i, j = rng.sample(range(1, p.size + 1), 2)
        chi = chi2(p, i, j)
        wedge = classify_X2(p, i, j)
        assert len(wedge.dims) == abs(chi)
        if chi > 0:
            assert set(wedge.dims) == {2}
        if chi == -1:
            assert wedge.dims == (3,)


def _random_strong_pair(rng, n):
    """A profile strongly nonsplittable over a random proper base sublink."""
    base_size = rng.randint(0, n - 2)
    base = frozenset(rng.sample(range(1, n + 1), base_size))
    overrides = {}
    for r in range(n + 1):
        for sub in combinations(range(1, n + 1), r):
            subset = frozenset(sub)
            if not subset:
                overrides[subset] = -1
            elif base < subset or len(subset) == 1:
                overrides[subset] = 0
            else:
                overrides[subset] = rng.randint(0, len(subset) - 1)
    return build_profile(n, overrides=overrides), base


def test_classify_strong_pairs_collapse_proper_subintersections():
    rng = random.Random(103)
    for _ in range(80):
        n = rng.randint(3, 5)
        p, base = _random_strong_pair(rng, n)
        assert strongly_nonsplittable(p, base)
        rest = sorted(p.full_set - base)
        if len(rest) < 3:
            continue
        size = rng.randint(2, len(rest) - 1)
        sub = rng.sample(rest, size)
        assert classify_A(p, base, sub).group == Trivial()


def test_classify_X3_examples():
    assert classify_X3(build_profile(3, "hopf"), 1, 2, 3) == SphereWedge((3,))
    assert classify_X3(build_profile(3, "brunnian"), 1, 2, 3) == SphereWedge((2, 2))
    assert classify_X3(build_profile(3, "trivial"), 1, 2, 3) == SphereWedge(())
    factor = classify_X3(build_profile(4, "brunnian"), 1, 2, 3).group_factor
    assert factor == "K(G(d_{1,2,3}L),1)"


def test_classify_X3_rejects_unrealizable_profiles():
    bad = build_profile(3, overrides={
        fs(): -1, fs(1): 0, fs(2): 0, fs(3): 0,
        fs(1, 2): 0, fs(1, 3): 0, fs(2, 3): 0,
        fs(1, 2, 3): 2,
    })
    with pytest.raises(UnrealizableProfileError):
        classify_X3(bad, 1, 2, 3)


def test_classify_full_hopf_links():
    for n, expected in [(3, Z), (4, Cyclic(2)), (5, Cyclic(2)), (6, Cyclic(12))]:
        result = classify_A(build_profile(n, "hopf"), (), range(1, n + 1))
        assert result.group == expected
        assert result.symbolic_form == PiOfSphere(n, 3)
    big = classify_A(build_profile(7, "hopf"), (), range(1, 8))
    assert big.group == PiOfSphere(7, 3)
    assert big.main_line() == "pi_7(S^3) [unknown]"


def test_classify_proper_subintersection_is_trivial():
    result = classify_A(build_profile(4, "hopf"), (), (1, 2))
    assert result.group == Trivial()
    result = classify_A(build_profile(5, "hopf"), (5,), (1, 2, 3))
    assert result.group == Trivial()


def test_classify_nonsplittable_base_is_trivial():
    result = classify_A(build_profile(5, "hopf"), (4, 5), (1, 2, 3))
    assert result.group == Trivial()
    assert "nonsplittable base" in result.method


def test_classify_splittable_base_gives_wedge_module():
    # two separate rings (components 3, 4) with two components around them
    overrides = {
        fs(*s): 0 for r in range(1, 5) for s in combinations(range(1, 5), r)
    }
    overrides[fs()] = -1
    overrides[fs(3, 4)] = 1
    p = build_profile(4, overrides=overrides)
    assert strongly_nonsplittable(p, (3, 4))
    result = classify_A(p, (3, 4), (1, 2))
    assert not result.group.is_concrete
    assert "Z" in result.group.render()  # pi_2 of one 2-sphere evaluates
    assert "G(L0)" in result.group.render()
    assert any("countably infinite" in note for note in result.notes)


def test_classify_two_component_dichotomy_small_links_trivial():
    assert classify_A(CHAIN3, (), (1, 2)).group == Trivial()
    assert classify_A(build_profile(3, "brunnian"), (), (2, 3)).group == Trivial()


def test_classify_two_component_dichotomy_large_links():
    # linked pair {1,2} whose removal leaves two separated sublinks
    overrides = {
        fs(*s): 0 for r in range(1, 5) for s in combinations(range(1, 5), r)
    }
    overrides[fs()] = -1
    overrides[fs(3, 4)] = 1
    p = build_profile(4, overrides=overrides)
    result = classify_A(p, (), (1, 2))
    assert chi2(p, 1, 2) == 1
    assert result.group == FreeAbelian(COUNTABLE)
    assert result.main_line().endswith("= Z^(countable)")
    # pairs with chi2 of zero or below stay trivial
    assert chi2(build_profile(4, "trivial"), 1, 2) == 0
    assert classify_A(build_profile(4, "trivial"), (), (1, 2)).group == Trivial()
    assert chi2(build_profile(4, "brunnian"), 1, 2) == -3
    assert classify_A(build_profile(4, "brunnian"), (), (1, 2)).group == Trivial()


def test_classify_three_component_bar_quotient():
    brunnian = classify_A(build_profile(3, "brunnian"), (), (1, 2, 3))
    assert brunnian.group.render() == "Z + Z + Z"
    assert brunnian.main_line() == "pi_3(S^2 v S^2) = Z + Z + Z"
    assert any("equals the full quotient" in note for note in brunnian.notes)

    trivial = classify_A(build_profile(3, "trivial"), (), (1, 2, 3))
    assert trivial.group == Trivial()
    assert trivial.main_line() == "0 (trivial)"

    # four components: the quotient keeps the aspherical factor symbolic
    brunnian4 = classify_A(build_profile(4, "brunnian"), (4,), (1, 2, 3))
    assert not brunnian4.group.is_concrete
    assert any("bar-quotient" in note for note in brunnian4.notes)


def test_classify_chain3_full_is_trivial():
    result = classify_A(CHAIN3, (), (1, 2, 3))
    assert result.group == Trivial()


def test_classify_example_catalog():
    # the five 3-component cases: genus 2; genus 1; genus 0 with chi3 2, 0, -1
    cases = [
        (build_profile(3, "trivial"), 0, "0"),
        (CHAIN3, 0, "0"),
        (build_profile(3, "brunnian"), 2, "Z + Z + Z"),
        (ONE_SPLITTING_DELETION, 0, "0"),
        (build_profile(3, "hopf"), -1, "Z"),
    ]
    for profile, expected_chi, expected_render in cases:
        assert chi3(profile, 1, 2, 3) == expected_chi
        result = classify_A(profile, (), (1, 2, 3))
        assert result.group.render() == expected_render


def test_classify_not_covered_cases_are_marked():
    rng = random.Random(83)
    p = random_profile(rng, 5)
    # |sub| == 3 with the base not equal to the complement
    result = classify_A(p, (), (1, 2, 3))
    if not strongly_nonsplittable(p):
        assert result.group is None
        assert result.main_line() == ClassificationResult.NOT_CLASSIFIED
    # |sub| == 4 has no implemented route without strong nonsplittability
    loose = build_profile(5, "brunnian")
    assert classify_A(loose, (), (1, 2, 3, 4)).group is None


def test_classify_validates_arguments():
    # each refusal, on a fresh profile and again once every base answer is
    # kept, so a kept answer never stands in for a check on sub
    refusals = [
        ((9,), (1, 2), "sublinks must be within"),
        ((1,), (1, 2), "must be disjoint"),
        ((), (1, 9), "sublinks must be within"),
        ((1,), (2, 9), "sublinks must be within"),
        ((), (1,), "at least two components"),
        ((2,), (1,), "at least two components"),
    ]
    for kind in PRESETS:
        p = build_profile(4, kind)
        for warm in (False, True):
            if warm:
                for size in range(3):
                    for l0 in combinations(range(1, 5), size):
                        classify_A(p, l0, p.full_set - set(l0))
                assert len(p._strong) == 11  # every base with a pair over it
            for l0, sub, message in refusals:
                with pytest.raises(ValueError, match=message):
                    classify_A(p, l0, sub)


def test_realizability_findings():
    assert realizability_findings(build_profile(3, "hopf")) == []
    assert realizability_findings(build_profile(5, "brunnian")) == []
    flagged = build_profile(3, overrides={
        fs(): -1, fs(1): 0, fs(2): 0, fs(3): 0,
        fs(1, 2): 1, fs(1, 3): 1, fs(2, 3): 0,
        fs(1, 2, 3): 0,
    })
    assert chi3(flagged, 1, 2, 3) == 1
    assert any("chi3(1,2,3) = 1" in f for f in realizability_findings(flagged))
    impossible = build_profile(3, overrides={
        fs(): -1, fs(1): 0, fs(2): 0, fs(3): 0,
        fs(1, 2): 0, fs(1, 3): 0, fs(2, 3): 0,
        fs(1, 2, 3): 2,
    })
    assert any("< -1" in f for f in realizability_findings(impossible))


def test_parse_profile_with_preset_and_overrides():
    p = parse_profile(
        "components 3\n"
        "preset trivial\n"
        "nu full 0\n"
        "# comment line\n"
        "\n"
        "nu 1,2 1\n"
    )
    assert p.genus((1, 2, 3)) == 0
    assert p.genus((1, 2)) == 1
    assert p.genus((1, 3)) == 1


def test_parse_profile_without_preset_needs_all_sublinks():
    text = (
        "components 2\n"
        "nu empty -1\n"
        "nu 1 0\n"
        "nu 2 0\n"
        "nu full 1\n"
    )
    assert parse_profile(text).genus((1, 2)) == 1
    with pytest.raises(ProfileFormatError, match="all 4 sublinks"):
        parse_profile("components 2\nnu full 1\n")


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("preset hopf\n", "must follow"),
        ("components 2\ncomponents 2\n", "duplicate 'components'"),
        ("components 2\npreset hopf\npreset hopf\n", "duplicate 'preset'"),
        ("components 2\npreset round\n", "expected 'preset"),
        ("components 2\npreset hopf\nnu 1 0\nnu 1 0\n", "duplicate sublink"),
        ("components 2\npreset hopf\nnu 3 0\n", "labels outside"),
        ("components 2\npreset hopf\nnu 1,1 0\n", "repeats a label"),
        ("components 2\npreset hopf\nnu 1 x\n", "bad genus"),
        # int() would also read a leading "+" and underscores
        ("components 2\npreset hopf\nnu 1,2 +1\n", "bad genus '\\+1'"),
        ("components 2\npreset hopf\nnu 1,2 0_1\n", "bad genus '0_1'"),
        ("components 2\npreset hopf\nnu full 5\n", "genus of"),
        ("components 2\nknots 3\n", "unknown directive"),
        ("components zero\n", "positive integer"),
        ("components \u00b2\n", "<profile>:1: expected 'components <positive integer>'"),
        ("", "missing 'components'"),
        (f"components {LONG_DIGITS}\n", f"^<profile>:1: {TOO_LONG}$"),
        (f"components 2\npreset hopf\nnu 1,2 -{LONG_DIGITS}\n", f"^<profile>:3: {TOO_LONG}$"),
        (f"components 2\npreset hopf\nnu 1,{LONG_DIGITS} 0\n", f"^<profile>:3: {TOO_LONG}$"),
    ],
)
def test_parse_profile_error_diagnostics(text, fragment):
    with pytest.raises(ProfileFormatError, match=fragment):
        parse_profile(text)


def test_sublink_labels_are_decimal_digits():
    # int() would read "1_2" as label 12
    assert parse_subset_token("1,12", 12) == frozenset({1, 12})
    for token in ("1_2", "+1", "1, 2", "1,2 "):
        with pytest.raises(ValueError, match="bad sublink"):
            parse_subset_token(token, 12)
    with pytest.raises(ValueError, match="labels outside 1..12"):
        parse_subset_token("-1", 12)


def test_profile_with_a_huge_component_count_is_refused_by_its_size():
    # 2 ** size is never formed: the entry count's bit length already differs
    with pytest.raises(ProfileError, match=r"all 2\^1000000000000 sublinks, got 1$"):
        LinkProfile(10**12, {frozenset(): -1})
    with pytest.raises(ProfileError, match="all 8 sublinks, got 4$"):
        LinkProfile(3, dict(build_profile(2, "hopf").nu))


def test_full_sublink_is_refused_where_no_file_could_be_complete():
    # 'full' would list all n labels; the line count is compared by bit length
    huge = 10**12
    for text, line in ((f"components {huge}\nnu full 0\n", 2),
                       (f"components {huge}\npreset hopf\nnu full 0\n", 3),
                       ("components 13\nnu full 0\n", 2)):
        n = text.split()[1]
        with pytest.raises(ProfileFormatError, match=(
                rf"^<profile>:{line}: a profile of {n} components needs all "
                rf"2\^{n} sublinks, and this one has {line} lines$")):
            parse_profile(text)
    # at the preset limit, or where the text could list every sublink,
    # 'full' is read and the sublink count decides
    with pytest.raises(ProfileFormatError, match="all 4096 sublinks, got 1$"):
        parse_profile("components 12\nnu full 0\n")
    padded = "components 13\nnu full 0\n" + "#\n" * (2**13 - 2)
    with pytest.raises(ProfileFormatError, match="all 8192 sublinks, got 1$"):
        parse_profile(padded)
    with pytest.raises(ProfileFormatError, match=r"^<profile>:2: a profile of 13 "):
        parse_profile(padded[:-2])


def test_parse_profile_reports_line_numbers():
    with pytest.raises(ProfileFormatError, match="<profile>:3"):
        parse_profile("components 2\npreset hopf\nnu 9 0\n")
