import random
from itertools import product
from math import comb

import pytest

from linkhomotopy import (
    VARIANT_ETA_DEGREE3,
    VARIANT_ETA_DEGREE4,
    MagnusSeries,
    commutator,
    eta_tower,
    gamma_class_lower_bound,
    generator,
    magnus_expand,
    milnor_invisibility_report,
    mu_coefficient,
    parse_word,
    reduce_word,
    reduced_expand,
)
from conftest import random_syllables, random_word

x1, x2, x3 = generator(1), generator(2), generator(3)


# -- independent oracle: direct polynomial arithmetic on term lists ---------

def oracle_multiply(a, b, k):
    out = {}
    for m1, c1 in a:
        for m2, c2 in b:
            if len(m1) + len(m2) <= k:
                key = m1 + m2
                out[key] = out.get(key, 0) + c1 * c2
    return [(m, c) for m, c in out.items() if c]


def oracle_expand(word, k):
    series = [((), 1)]
    for gen, exp in word.syllables:
        sign = 1 if exp > 0 else -1
        single = [((), 1), ((gen,), sign)]
        if sign < 0:
            # inverse letter: truncated alternating geometric series
            single = [((gen,) * j, (-1) ** j) for j in range(k + 1)]
        for _ in range(abs(exp)):
            series = oracle_multiply(series, single, k)
    return dict(series)


def test_expand_single_generator():
    assert magnus_expand(x1, 2).terms == {(): 1, (1,): 1}


def test_expand_inverse_generator():
    assert magnus_expand(x1 ** -1, 2).terms == {(): 1, (1,): -1, (1, 1): 1}


def test_expand_commutator_matches_oracle():
    w = commutator(x1, x2)
    expected = oracle_expand(w, 2)
    assert expected == {(): 1, (1, 2): 1, (2, 1): -1}
    assert magnus_expand(w, 2).terms == expected


# (generators, words, max syllables, max exponent, max truncation): the
# later families give the dense layout non-contiguous and wide supports,
# exponents up to +-3 and truncations above the support size
WORD_FAMILIES = [
    ((1, 2, 3), 150, 5, 2, 4),
    ((2, 5, 9, 11), 40, 7, 3, 5),
    ((5, 9), 40, 5, 3, 6),
    ((3, 4, 7, 8, 12, 20), 20, 7, 2, 4),
]


def _family_cases(seed):
    rng = random.Random(seed)
    for support, count, max_syllables, max_exponent, max_k in WORD_FAMILIES:
        def word():
            syllables = random_syllables(rng, len(support), max_syllables, max_exponent)
            return reduce_word([(support[g - 1], e) for g, e in syllables])

        for _ in range(count):
            yield word(), rng.randint(1, max_k)
        # every truncation from 1, on the identity and on one random word
        for k in range(1, max_k + 1):
            yield parse_word(""), k
            yield word(), k


def test_expand_matches_oracle_on_random_words():
    for w, k in _family_cases(41):
        assert magnus_expand(w, k).terms == oracle_expand(w, k)


def test_expand_is_multiplicative():
    rng = random.Random(43)
    for _ in range(200):
        u = random_word(rng, 3, max_syllables=4, max_exponent=2)
        v = random_word(rng, 3, max_syllables=4, max_exponent=2)
        k = rng.randint(1, 4)
        assert magnus_expand(u * v, k) == magnus_expand(u, k) * magnus_expand(v, k)


def test_expand_inverse_law():
    rng = random.Random(47)
    for _ in range(150):
        w = random_word(rng, 3, max_syllables=5, max_exponent=2)
        k = rng.randint(1, 4)
        assert (magnus_expand(w, k) * magnus_expand(w ** -1, k)).is_one


def test_expand_constant_term_is_one():
    rng = random.Random(53)
    for _ in range(100):
        w = random_word(rng, 4)
        assert magnus_expand(w, 3).coefficient(()) == 1


def _binomial(e, j):
    """Generalized C(e, j) in closed form, for negative e as well."""
    return comb(e, j) if e >= 0 else (-1) ** j * comb(j - e - 1, j)


def _closed_form(syllables, monomial):
    """Coefficient of ``monomial`` in the product of the syllables'
    ``(1 + X_g)^e``: sum over splits of the monomial into one run of ``g``
    per syllable, each weighted by ``C(e, run length)``."""
    if not syllables:
        return int(not monomial)
    (g, e), rest = syllables[0], syllables[1:]
    total, run = 0, 0
    while True:
        total += _binomial(e, run) * _closed_form(rest, monomial[run:])
        if run == len(monomial) or monomial[run] != g:
            return total
        run += 1


def test_expand_at_the_coefficient_bound():
    # X1^t in (1 + X1)^-k is (-1)^t C(k + t - 1, t), exactly the bound that
    # sizes the packed fields: a field without its sign bit misdecodes it
    # whenever the bound's bit length is a multiple of 8 (k = 200, t = 1)
    for k in (1, 2, 3, 7, 128, 200, 255, 256, 1000, 65535, 10**9):
        for t in range(1, 7):
            expected = {(1,) * j: (-1) ** j * comb(k + j - 1, j) for j in range(t + 1)}
            assert magnus_expand(generator(1, -k), t).terms == expected


def test_expand_large_exponents_in_closed_form():
    # a syllable costs at most t terms per degree however large |e| is; a
    # kernel that repeats a letter |e| times would not finish
    a, b = 99999999, 12345678
    w = parse_word(f"x1^{a} x2^-{a} x1 x3^{b}")
    expected = {}
    for d in range(5):
        for monomial in product((1, 2, 3), repeat=d):
            coeff = _closed_form(w.syllables, monomial)
            if coeff:
                expected[monomial] = coeff
    assert magnus_expand(w, 4).terms == expected
    assert reduced_expand(w, 4).terms == {
        m: c for m, c in expected.items() if len(set(m)) == len(m)
    }
    assert gamma_class_lower_bound(w, 4) == 1


def test_series_validation_and_errors():
    with pytest.raises(ValueError):
        magnus_expand(x1, 0)
    with pytest.raises(ValueError):
        MagnusSeries(2, {(): 1, (1,): 0})
    with pytest.raises(ValueError):
        MagnusSeries(1, {(1, 2): 1})
    with pytest.raises(ValueError):
        magnus_expand(x1, 2) * magnus_expand(x1, 3)
    # past the dense slot limit, raised before anything is allocated
    with pytest.raises(ValueError, match="357913941 coefficient slots"):
        magnus_expand(parse_word("[[x1,x2],[x3,x4]]"), 14)
    twenty = parse_word(" ".join(f"x{i}" for i in range(1, 21)))
    for expand in (magnus_expand, reduced_expand, gamma_class_lower_bound):
        with pytest.raises(ValueError, match="the limit is 16777216"):
            expand(twenty, 8)


def test_gamma_bound_examples():
    assert gamma_class_lower_bound(commutator(x1, x2), 3) == 2
    weight4 = commutator(commutator(x1, x2), commutator(x1, x3))
    assert gamma_class_lower_bound(weight4, 3) is None
    assert gamma_class_lower_bound(x1, 5) == 1
    assert gamma_class_lower_bound(parse_word(""), 4) is None


def _random_commutator_of_weight(rng, weight, max_generator=4):
    if weight == 1:
        return generator(rng.randint(1, max_generator), rng.choice([-1, 1]))
    left_weight = rng.randint(1, weight - 1)
    return commutator(
        _random_commutator_of_weight(rng, left_weight, max_generator),
        _random_commutator_of_weight(rng, weight - left_weight, max_generator),
    )


def test_gamma_bound_respects_commutator_weight():
    rng = random.Random(59)
    for _ in range(150):
        weight = rng.randint(2, 5)
        w = _random_commutator_of_weight(rng, weight)
        bound = gamma_class_lower_bound(w, 5)
        assert bound is None or bound >= weight


def test_reduced_expand_examples():
    assert reduced_expand(x1 ** 2, 3).terms == {(): 1, (1,): 2}
    assert reduced_expand(commutator(x1, x2), 2).terms == {(): 1, (1, 2): 1, (2, 1): -1}
    assert reduced_expand(commutator(x1, x1), 4).is_one


def test_reduced_expand_equals_filtered_full_expansion():
    for w, k in _family_cases(61):
        full = magnus_expand(w, k).terms
        filtered = {m: c for m, c in full.items() if len(set(m)) == len(m)}
        assert reduced_expand(w, k).terms == filtered


def test_mu_coefficient_detects_commutator_powers():
    base = commutator(x1, x2)
    for k in range(-3, 4):
        assert mu_coefficient(base ** k, (1, 2)) == k


def test_mu_coefficient_matches_reduced_expansion():
    # mu has its own pass over the syllables; the reduced expansion is the
    # second route, on words whose support is wider than the index tuple
    rng = random.Random(67)
    for _ in range(150):
        w = random_word(rng, 6, max_syllables=10, max_exponent=3)
        indices = tuple(rng.sample(range(1, 7), rng.randint(1, 4)))
        assert mu_coefficient(w, indices) == reduced_expand(w, len(indices)).coefficient(indices)


def test_mu_coefficient_examples():
    assert mu_coefficient(x3, (1, 2)) == 0
    assert mu_coefficient(commutator(x1, x2), (2, 1)) == -1
    with pytest.raises(ValueError):
        mu_coefficient(x1, (1, 1))
    with pytest.raises(ValueError):
        mu_coefficient(x1, ())


def test_series_rendering():
    assert str(magnus_expand(commutator(x1, x2), 2)) == "1 + X1X2 - X2X1"
    assert str(reduced_expand(x1 ** 2, 3)) == "1 + 2*X1"
    assert str(magnus_expand(parse_word(""), 3)) == "1"
    assert str(magnus_expand(x1 ** -1, 2)) == "1 - X1 + X1X1"


def test_degree2_antisymmetry():
    for i, j in [(1, 2), (2, 3), (1, 3)]:
        series = magnus_expand(commutator(generator(i), generator(j)), 2)
        assert series.coefficient((i, j)) == 1
        assert series.coefficient((j, i)) == -1


def test_invisibility_report_towers_pass():
    for n in (4, 5):
        report = milnor_invisibility_report(n)
        assert report.all_passed
        assert len(report.checks) == 3
        tower = eta_tower(n - 1)
        assert gamma_class_lower_bound(tower.word, n - 1) is None
        assert reduced_expand(tower.word, n - 1).is_one
    with pytest.raises(ValueError):
        milnor_invisibility_report(3)


def test_invisibility_report_variant_checks():
    """The variant words pass the depth and reduced-expansion checks but
    fail the cycle check (they are not Moore cycles)."""
    for n, variant in ((4, VARIANT_ETA_DEGREE3), (5, VARIANT_ETA_DEGREE4)):
        report = milnor_invisibility_report(n)
        by_name = {check.name: check.passed for check in report.variant_checks}
        assert by_name["moore cycle"] is False
        assert by_name[f"lower central class >= {n}"] is True
        assert by_name[f"reduced expansion trivial below length {n}"] is True
        assert gamma_class_lower_bound(variant.word, n - 1) is None
        assert reduced_expand(variant.word, n - 1).is_one


def test_tower5_lies_in_gamma8():
    # all Magnus terms of degrees 1..7 vanish, so eta_tower(5) is in gamma_8
    assert gamma_class_lower_bound(eta_tower(5).word, 7) is None


def test_three_strand_contrast_is_detected():
    # at three strands the length-2 coefficient already sees the class
    assert mu_coefficient(commutator(x1, x2), (1, 2)) == 1
