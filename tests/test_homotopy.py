import random
from collections import Counter
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkhomotopy import (
    COUNTABLE,
    DEFAULT_TABLE,
    Cyclic,
    DirectSum,
    FreeAbelian,
    HomotopyTable,
    PiOfSphere,
    PiOfWedge,
    SphereWedge,
    Trivial,
    direct_sum,
    hilton_pi,
    lyndon_words,
)
from linkhomotopy.homotopy import (
    _MAX_LYNDON_LETTERS,
    _MAX_LYNDON_WEIGHTS,
    TableEntry,
    TableFormatError,
    _lyndon_count,
    parse_group_token,
)
import oracles
from conftest import LONG_DIGITS, TOO_LONG

Z = FreeAbelian(1)


def test_table_builtin_entries():
    assert PiOfSphere(6, 3).evaluate() == Cyclic(12)
    assert PiOfSphere(4, 3).evaluate() == Cyclic(2)
    assert PiOfSphere(5, 3).evaluate() == Cyclic(2)
    assert PiOfSphere(3, 2).evaluate() == Z
    assert PiOfSphere(4, 2).evaluate() == Cyclic(2)
    assert PiOfSphere(5, 2).evaluate() == Cyclic(2)


def test_table_structural_rules():
    assert PiOfSphere(5, 7).evaluate() == Trivial()
    assert PiOfSphere(4, 4).evaluate() == Z
    assert PiOfSphere(1, 1).evaluate() == Z
    assert PiOfSphere(3, 1).evaluate() == Trivial()


def test_table_miss_returns_none():
    assert DEFAULT_TABLE.entry(7, 3) is None
    assert DEFAULT_TABLE.entry(6, 2) is None
    with pytest.raises(ValueError):
        DEFAULT_TABLE.entry(0, 1)


def test_table_file_loading(tmp_path):
    path = tmp_path / "extra.tab"
    path.write_text(
        "# extension entries\n"
        "pi 7 3 Z/2 classical tables\n"
        "pi 7 4 Z+Z/12 classical tables\n"
        "pi 8 3 Z/2 builtin\n"
        "pi 8 4 Z/2+Z/2 connectivity\n"
    )
    table = HomotopyTable()
    table.load_file(str(path))
    assert PiOfSphere(7, 3).evaluate(table) == Cyclic(2)
    assert PiOfSphere(7, 4).evaluate(table) == direct_sum([Z, Cyclic(12)])
    assert table.entry(7, 3).provenance == "classical tables"
    # every loaded entry is user-supplied, whatever its provenance wording
    for n, m in [(7, 3), (7, 4), (8, 3), (8, 4)]:
        assert table.entry(n, m).user_supplied
    assert table.entry(8, 3).render() == "Z/2 [builtin]"
    assert table.entry(8, 4).render() == "Z/2 + Z/2 [connectivity]"
    # entries this module supplies itself are not
    for n, m in [(6, 3), (3, 5), (4, 4), (3, 1)]:
        assert not table.entry(n, m).user_supplied
    assert table.entry(6, 3).render() == "Z/12"
    # the default table is untouched
    assert DEFAULT_TABLE.entry(7, 3) is None


def test_evaluate_is_the_table_entry(tmp_path):
    path = tmp_path / "sum.tab"
    path.write_text("pi 7 4 Z+Z/12 classical tables\npi 7 3 Z/2 classical tables\n")
    loaded = HomotopyTable()
    loaded.load_file(str(path))
    for table in (DEFAULT_TABLE, loaded):
        misses = 0
        for n in range(1, 13):
            for m in range(1, 13):
                pi = PiOfSphere(n, m)
                entry = table.entry(n, m)
                if entry is None:
                    misses += 1
                    assert pi.evaluate(table) is pi
                else:
                    assert pi.evaluate(table) == entry.group
                if table is DEFAULT_TABLE:
                    assert pi.evaluate() == pi.evaluate(table)
        assert 0 < misses < 144
    assert PiOfSphere(7, 4).evaluate(loaded) == DirectSum((Z, Cyclic(12)))
    assert PiOfSphere(7, 4).evaluate() == PiOfSphere(7, 4)


@pytest.mark.parametrize(
    "content",
    [
        "pi 7 3 Z/2",  # provenance missing
        "pi x 3 Z/2 src",
        "pi 7 3 Q src",
        "pj 7 3 Z/2 src",
        "pi 0 3 Z/2 src",
        # int() would read these as pi_10(S^3) and Z/12
        "pi 1_0 3 Z/2 src",
        "pi 10 3 Z/1_2 src",
        # indices the table already answers: structural, builtin, earlier line
        "pi 3 5 Z/2 wrong",
        "pi 6 3 Z/5 x",
        "pi 7 3 Z/2 first\npi 7 3 Z/2 second",
    ],
)
def test_table_file_rejects_bad_lines(tmp_path, content):
    path = tmp_path / "bad.tab"
    path.write_text(content + "\n")
    with pytest.raises(TableFormatError):
        HomotopyTable().load_file(str(path))


def test_table_file_locates_integers_over_the_digit_limit(tmp_path):
    path = tmp_path / "long.tab"
    for line in (f"pi {LONG_DIGITS} 3 Z/2 src", f"pi 9 {LONG_DIGITS} Z/2 src",
                 f"pi 9 3 Z/{LONG_DIGITS} src"):
        path.write_text(f"# long integers\n{line}\n")
        with pytest.raises(TableFormatError) as info:
            HomotopyTable().load_file(str(path))
        assert str(info.value) == f"{path}:2: {TOO_LONG}"


def test_parse_group_token():
    assert parse_group_token("0") == Trivial()
    assert parse_group_token("Z") == Z
    assert parse_group_token("Z/8") == Cyclic(8)
    assert parse_group_token("Z^3") == FreeAbelian(3)
    assert parse_group_token("Z^(countable)") == FreeAbelian(COUNTABLE)
    with pytest.raises(ValueError):
        parse_group_token("S^2")
    # int() would also read underscores, a leading "+" and blanks
    for token in ("Z/1_2", "Z/+12", "Z/12 ", "Z^1_2", "Z^+2"):
        with pytest.raises(ValueError, match="unrecognized group token"):
            parse_group_token(token)
    with pytest.raises(ValueError, match="cyclic order must be >= 2, got -3"):
        parse_group_token("Z/-3")


def test_renderings():
    assert Trivial().render() == "0"
    assert Cyclic(12).render() == "Z/12"
    assert Z.render() == "Z"
    assert FreeAbelian(3).render() == "Z^3"
    assert FreeAbelian(COUNTABLE).render() == "Z^(countable)"
    assert PiOfSphere(7, 3).render() == "pi_7(S^3)"
    assert PiOfSphere(7, 3).render(mark_unknown=True) == "pi_7(S^3) [unknown]"
    wedge = SphereWedge((2, 2))
    assert wedge.render() == "S^2 v S^2"
    assert SphereWedge((3,), "K(G(d_{1,2}L),1)").render() == "K(G(d_{1,2}L),1) v S^3"
    assert SphereWedge().render() == "*"
    assert PiOfWedge(3, wedge).render() == "pi_3(S^2 v S^2)"


def test_direct_sum_normalization():
    assert direct_sum([]) == Trivial()
    assert direct_sum([Trivial(), Trivial()]) == Trivial()
    assert direct_sum([Z]) == Z
    nested = direct_sum([Z, direct_sum([Cyclic(2), Z]), Trivial()])
    assert nested == DirectSum((Z, Cyclic(2), Z))
    assert nested.render() == "Z + Z/2 + Z"


def test_evaluation():
    assert PiOfSphere(4, 3).evaluate() == Cyclic(2)
    assert PiOfSphere(7, 3).evaluate() == PiOfSphere(7, 3)
    assert PiOfWedge(3, SphereWedge()).evaluate() == Trivial()
    wedge_with_factor = SphereWedge((2,), "K(G,1)")
    assert PiOfWedge(3, wedge_with_factor).evaluate() == PiOfWedge(3, wedge_with_factor)
    assert PiOfWedge(3, SphereWedge((3,))).evaluate() == Z
    summed = DirectSum((PiOfSphere(4, 3), PiOfSphere(4, 4)))
    assert summed.evaluate() == direct_sum([Cyclic(2), Z])
    assert not summed.is_concrete
    assert summed.evaluate().is_concrete


def test_lyndon_word_enumeration():
    words = lyndon_words(2, 4)
    assert words == [
        (0,), (1,),
        (0, 1),
        (0, 0, 1), (0, 1, 1),
        (0, 0, 0, 1), (0, 0, 1, 1), (0, 1, 1, 1),
    ]
    assert lyndon_words(1, 5) == [(0,)]
    assert lyndon_words(0, 3) == []
    assert lyndon_words(3, 0) == []
    # counts by length follow Witt's necklace formula
    for alphabet in range(1, 5):
        by_length = Counter(len(word) for word in lyndon_words(alphabet, 8))
        for length in range(1, 9):
            assert by_length[length] == oracles.witt_count(alphabet, length)


class SphereDimensionTable(HomotopyTable):
    """Gives ``pi_n(S^m)`` as ``Z/m``, so a sum names each summand's sphere."""

    def entry(self, n, m):
        return TableEntry(Cyclic(m), "sphere dimension")


def sphere_dims(n, dims):
    """Sphere dimension of each summand of ``hilton_pi(n, dims)``, in order."""
    group = hilton_pi(n, dims, SphereDimensionTable())
    if isinstance(group, DirectSum):
        return [part.order for part in group.parts]
    return [] if group == Trivial() else [group.order]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(dims=st.lists(st.integers(2, 6), min_size=1, max_size=4), n=st.integers(2, 12))
def test_hilton_summands_by_sphere_dimension(dims, n):
    spheres = sphere_dims(n, dims)
    assert spheres == sorted(spheres)
    assert Counter(spheres) == oracles.wedge_sphere_dims(n, dims)
    assert hilton_pi(n, dims) == direct_sum(PiOfSphere(n, m).evaluate() for m in spheres)


def by_sphere(counts):
    """``_lyndon_count``'s counts keyed by sphere dimension, in its order."""
    return [(1 + weight, count) for weight, count in counts.items()]


def test_lyndon_count_against_graded_witt():
    for k in range(1, 4):
        for dims in combinations_with_replacement(range(2, 7), k):
            weights = sorted(d - 1 for d in dims)
            for n in range(2, 13):
                expected = oracles.wedge_sphere_dims(n, dims)
                assert by_sphere(_lyndon_count(weights, n - 1)) == sorted(expected.items())


def test_lyndon_count_with_gapped_weights():
    # weights with gaps leave weights that only one letter's powers reach,
    # which the count skips, and mixed weights whose multiples it sieves
    for dims in [(2, 9), (4, 6, 6), (2, 21, 22), (6, 8), (3, 3, 14)]:
        weights = sorted(d - 1 for d in dims)
        for n in range(2, 41, 3):
            expected = oracles.wedge_sphere_dims(n, dims)
            assert by_sphere(_lyndon_count(weights, n - 1)) == sorted(expected.items())
            assert Counter(sphere_dims(n, dims)) == expected


def test_lyndon_count_cost_follows_the_count():
    # each would take memory or time in proportion to the budget
    huge = 10**12
    assert _lyndon_count((1, huge - 1), huge - 1) == {1: 1, huge - 1: 1}
    assert _lyndon_count((1,), huge) == {1: 1}
    assert lyndon_words(1, huge) == [(0,)]
    assert _lyndon_count((2, huge + 1), huge) == {2: 1}
    # only the letters' weights and the sums of distinct letters that fit are visited
    assert _lyndon_count((1, huge - 1, huge), huge) == {1: 1, huge - 1: 1, huge: 2}
    assert _lyndon_count((3, huge - 5, huge - 4), huge) == {
        3: 1, huge - 5: 1, huge - 4: 1, huge - 2: 1, huge - 1: 1}
    assert sphere_dims(huge + 1, (2, huge, huge + 1)) == [2, huge, huge + 1, huge + 1]
    assert hilton_pi(10**6, (2,)) == PiOfSphere(10**6, 2).evaluate()
    with pytest.raises(ValueError, match="the limit is 4194304"):
        _lyndon_count((1, 2), huge)
    with pytest.raises(ValueError, match="the limit is 4194304"):
        lyndon_words(2, 10**6)
    with pytest.raises(ValueError, match="the limit is 4194304"):
        hilton_pi(huge, (2, 3))


def test_lyndon_weights_are_budgeted():
    # a light letter far below a heavy one: one word, and one sphere
    # dimension, at each weight from the heavy letter's up to the budget
    heavy = 10**5
    counts = _lyndon_count((1, heavy), heavy + _MAX_LYNDON_WEIGHTS - 2)
    assert len(counts) == _MAX_LYNDON_WEIGHTS
    with pytest.raises(ValueError, match=r"needs at least 65537 sphere dimensions "
                       r"\(2 letters, weight <= 165535\); the limit is 65536"):
        _lyndon_count((1, heavy), heavy + _MAX_LYNDON_WEIGHTS - 1)
    # 10,002 sphere dimensions, each of one summand
    assert len(sphere_dims(20001, (2, 10001))) == 10002


def lyndon_by_definition(weights, budget):
    """(word, weight) for every word over ``0..len(weights)-1`` of weight
    <= ``budget`` that is strictly smaller than each of its proper suffixes,
    sorted by (length, word)."""
    # words as bytes, grouped by (first letter, weight); a letter below the
    # first would start a smaller suffix, so only letters >= it are appended
    letters = [bytes((c,)) for c in range(len(weights))]
    groups = {(c, w): [letters[c]] for c, w in enumerate(weights) if w <= budget}
    found = {}
    for weight in range(budget + 1):
        for first in range(len(weights)):
            words = groups.pop((first, weight), [])
            for v in words:
                for i in range(len(v) - 1, 0, -1):
                    if v >= v[i:]:
                        break
                else:
                    found[v] = weight
            for c in range(first, len(weights)):
                if weight + weights[c] <= budget:
                    groups.setdefault((first, weight + weights[c]), []).extend(
                        [v + letters[c] for v in words])
    ordered = sorted(found)
    ordered.sort(key=len)
    return [(tuple(v), found[v]) for v in ordered]


def test_lyndon_words_against_the_definition():
    # every nondecreasing weight tuple over {1, 2, 3, 5} with up to 3 letters,
    # and gapped ones, at every budget up to the top one
    cases = [(weights, 12) for k in range(1, 4)
             for weights in combinations_with_replacement((1, 2, 3, 5), k)]
    cases += [((1, 1, 4), 14), ((2, 3, 3, 9), 24), ((3, 3, 14), 42), ((1, 9), 30),
              ((2, 21, 22), 60)]
    for weights, top in cases:
        found = lyndon_by_definition(weights, top)
        for budget in range(top + 1):
            counts = Counter(weight for _, weight in found if weight <= budget)
            assert _lyndon_count(weights, budget) == counts
            if set(weights) == {1}:
                expected = [word for word, weight in found if weight <= budget]
                assert lyndon_words(len(weights), budget) == expected, (weights, budget)


def test_lyndon_letters_are_budgeted():
    # 766,150 words of up to 23 letters
    with pytest.raises(ValueError, match=r"^lyndon_words may need 17621450 letters \(766150 "
                       r"Lyndon words of up to 23 letters\); the limit is 16777216$"):
        lyndon_words(2, 23)
    # one letter fewer fits, counted without generating a word
    assert sum(_lyndon_count((1, 1), 22).values()) * 22 == 8831416 <= _MAX_LYNDON_LETTERS
    # the largest wedge in use, pi_12 of four 2-spheres, stays inside it
    assert sum(_lyndon_count((1, 1, 1, 1), 11).values()) * 11 == 5793018


def test_hilton_two_sphere_wedge_degree3():
    assert hilton_pi(3, [2, 2]) == DirectSum((Z, Z, Z))


def test_hilton_two_sphere_wedge_degree4():
    # letters give pi_4(S^2) twice, the weight-2 bracket pi_4(S^3),
    # and the two weight-3 brackets pi_4(S^4)
    assert hilton_pi(4, [2, 2]) == DirectSum((Cyclic(2), Cyclic(2), Cyclic(2), Z, Z))


def test_hilton_singleton_agrees_with_table():
    for n in range(2, 7):
        for m in range(2, n + 1):
            expected = DEFAULT_TABLE.entry(n, m)
            got = hilton_pi(n, [m])
            if expected is None:
                assert got == PiOfSphere(n, m)
            else:
                assert got == expected.group
    assert hilton_pi(5, [5]) == Z


def test_hilton_is_order_independent():
    rng = random.Random(67)
    for _ in range(50):
        dims = [rng.randint(2, 4) for _ in range(rng.randint(1, 3))]
        n = rng.randint(2, 5)
        shuffled = dims[:]
        rng.shuffle(shuffled)
        assert hilton_pi(n, dims) == hilton_pi(n, shuffled)


def test_hilton_keeps_unknown_entries_symbolic():
    got = hilton_pi(7, [3])
    assert got == PiOfSphere(7, 3)
    assert got.render(mark_unknown=True) == "pi_7(S^3) [unknown]"
    mixed = hilton_pi(6, [2, 2])
    assert not mixed.is_concrete  # pi_6(S^2) is not in the builtin table
    assert "[unknown]" in mixed.render(mark_unknown=True)


def test_hilton_validation():
    with pytest.raises(ValueError):
        hilton_pi(1, [2])
    with pytest.raises(ValueError):
        hilton_pi(3, [1])
    # the summand count is checked before any word is generated
    assert sum(_lyndon_count((1, 1, 1, 1), 11).values()) == sum(
        oracles.witt_count(4, length) for length in range(1, 12)
    ) == 526638
    with pytest.raises(ValueError, match="the limit is 4194304"):
        hilton_pi(30, [2, 2, 2])
    with pytest.raises(ValueError, match="the limit is 4194304"):
        lyndon_words(2, 40)
    assert hilton_pi(3, []) == Trivial()
