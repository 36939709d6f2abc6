import random
import time
from itertools import combinations, permutations, product
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
    meridian_word,
    milnor_invisibility_report,
    mu_coefficient,
    parse_word,
    prefix_product,
    reduce_word,
    reduced_expand,
    symmetric_commutator_sample,
)
from linkhomotopy import magnus
from conftest import oracle_multiply, random_syllables, random_word

x1, x2, x3 = generator(1), generator(2), generator(3)


# -- independent oracle: direct polynomial arithmetic on term dicts ---------

def oracle_expand(word, k):
    series = {(): 1}
    for gen, exp in word.syllables:
        sign = 1 if exp > 0 else -1
        single = {(): 1, (gen,): sign}
        if sign < 0:
            # inverse letter: truncated alternating geometric series
            single = {(gen,) * j: (-1) ** j for j in range(k + 1)}
        for _ in range(abs(exp)):
            series = oracle_multiply(series, single, k)
    return series


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
# exponents up to +-6 (the binomial and division paths of every syllable,
# reduced or not) and truncations above the support size
WORD_FAMILIES = [
    ((1, 2, 3), 150, 5, 2, 4),
    ((2, 5, 9, 11), 40, 7, 3, 5),
    ((5, 9), 40, 5, 3, 6),
    ((3, 4, 7, 8, 12, 20), 20, 7, 2, 4),
    ((1, 4, 6), 40, 6, 6, 5),
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
        product_terms = oracle_multiply(magnus_expand(u, k).terms, magnus_expand(v, k).terms, k)
        assert magnus_expand(u * v, k).terms == product_terms


def test_expand_inverse_law():
    rng = random.Random(47)
    for _ in range(150):
        w = random_word(rng, 3, max_syllables=5, max_exponent=2)
        k = rng.randint(1, 4)
        assert oracle_multiply(
            magnus_expand(w, k).terms, magnus_expand(w ** -1, k).terms, k
        ) == {(): 1}


def test_expand_constant_term_is_one():
    rng = random.Random(53)
    for _ in range(100):
        w = random_word(rng, 4)
        assert magnus_expand(w, 3).terms.get((), 0) == 1


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


def test_one_generator_is_the_binomial_series():
    # one syllable x_g^e expands as (1 + X_g)^e in closed form, and only the
    # nonzero degrees are decoded (see BUDGET_CASES in test_cli.py for a
    # truncation in the millions)
    for e in (-3, -1, 1, 2, 5, 10**20):
        for t in (1, 2, 5, 12):
            expected = {(7,) * j: _binomial(e, j) for j in range(t + 1) if _binomial(e, j)}
            assert magnus_expand(generator(7, e), t).terms == expected
            assert gamma_class_lower_bound(generator(7, e), t) == 1
    start = time.process_time()
    assert str(magnus_expand(generator(1, 2), 20_000)) == "1 + 2*X1 + X1X1"
    assert magnus_expand(parse_word(""), 20_000).is_one
    assert gamma_class_lower_bound(generator(1, -1), 20_000) == 1
    assert time.process_time() - start < 1


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
    # past the dense slot limit, raised before anything is allocated
    with pytest.raises(ValueError, match="357913941 coefficient slots"):
        magnus_expand(parse_word("[[x1,x2],[x3,x4]]"), 14)
    twenty = parse_word(" ".join(f"x{i}" for i in range(1, 21)))
    for expand in (magnus_expand, reduced_expand):
        with pytest.raises(ValueError, match="the limit is 16777216"):
            expand(twenty, 8)
    # under the slot limit but over the byte limit: 848-bit fields, since
    # the coefficients grow with the exponent
    huge = parse_word("x1^1000000000000 x2")
    with pytest.raises(ValueError, match="1778384790 bytes .* the limit is 67108864"):
        magnus_expand(huge, 23)
    assert magnus_expand(huge, 2).terms.get((1, 1), 0) == comb(10**12, 2)
    # over either limit, the class is found at the first truncation that
    # shows a nonzero degree; the limit is raised only when none that fits does
    assert gamma_class_lower_bound(twenty, 8) == gamma_class_lower_bound(huge, 23) == 1
    assert gamma_class_lower_bound(commutator(huge, x3), 23) == 2
    weight4 = parse_word(" ".join(
        f"[[[x{i},x{i + 1}],x{i + 2}],x{i + 3}]" for i in range(1, 65, 4)))
    assert gamma_class_lower_bound(weight4, 3) is None
    with pytest.raises(ValueError, match="1090785345 coefficient slots .* truncation 5"):
        gamma_class_lower_bound(weight4, 5)
    with pytest.raises(ValueError, match="100000001 coefficient slots"):
        gamma_class_lower_bound(parse_word(""), 10**8)


def test_tower4_degree8_term_count():
    # degree 8 is kept as 16 chunks of 4**6 slots; every one of its nonzero
    # terms comes back, in slot order (the last letter most significant)
    terms = magnus_expand(eta_tower(4).word, 8).terms
    assert sum(len(m) == 8 for m in terms) == 6144
    assert all(len(m) in (0, 8) for m in terms)
    assert list(terms) == sorted(terms, key=lambda m: (len(m), m[::-1]))


def _chunk_cases():
    # degrees above m = max(1, T - 2) are chunks of r**m slots.  Exponents up
    # to +-9 give terms X_a^j with j up to T, so a degree d above m takes a
    # whole degree d - j < m shifted inside one chunk, degree m unshifted and
    # the chunks of a degree d - j > m, on the multiplying (descending) and
    # the dividing (ascending) pass; each word comes with its inverse, so
    # every letter gets both signs
    exponents = (-9, 8, -7, 9, -5, 6)
    for r in (1, 2, 3, 4):
        support = (2, 3, 5, 8)[:r]
        w = reduce_word([(support[i % r], e) for i, e in enumerate(exponents[: r + 2])])
        for t in (5, 6, 7, 8):
            yield w, t
            yield w ** -1, t
    # exponents +-1 and +-2 take the coefficient-one path on every kind of
    # move; a chunk-to-chunk or degree-m move, and any move by the lowest
    # generator (2 here), adds the chunk unshifted
    for syllables in (((2, 1), (3, -1), (2, -2), (3, 2)),
                      ((2, -1), (5, 2), (2, 1), (3, -2), (2, 2), (5, -1)),
                      ((3, 1), (2, 1), (8, -2), (2, -1), (5, 1), (2, -2), (3, -1), (8, 2))):
        for t in (5, 6, 7, 8):
            yield reduce_word(syllables), t
            yield reduce_word(syllables) ** -1, t
    for t in (5, 6, 7, 8):
        yield parse_word(""), t


def test_chunk_boundaries_match_the_oracles():
    for w, t in _chunk_cases():
        # the closed form (1 + X_g)^e of each syllable, multiplied as dicts
        expected = {(): 1}
        for g, e in w.syllables:
            expected = oracle_multiply(
                expected, {(g,) * j: _binomial(e, j) for j in range(t + 1)}, t)
        assert magnus_expand(w, t).terms == expected
        if t <= 6:
            assert oracle_expand(w, t) == expected
    for t in (4, 5, 6, 7):
        assert gamma_class_lower_bound(eta_tower(3).word, t) == 4
    for t in (5, 6, 7):
        assert gamma_class_lower_bound(eta_tower(4).word, t) is None


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
    # below T = r the reduced expansion is the dense one filtered; from T = r
    # on it is kept on sets of generators, against the dense expansion at
    # truncation r, filtered, on the families, one-generator words and 1
    rng = random.Random(71)
    cases = list(_family_cases(61))
    cases += [(generator(g, e), 1) for g in (1, 4, 9) for e in (1, -1, 2, -6, 10**20)]
    cases += [(random_word(rng, 1, 6, 6), 1) for _ in range(20)] + [(parse_word(""), 1)]
    for w, k in cases:
        r = len({index for index, _ in w.syllables})
        for t in {k, max(r, 1), r + 2}:
            full = magnus_expand(w, min(t, max(r, 1))).terms
            filtered = MagnusSeries(t, {m: c for m, c in full.items() if len(set(m)) == len(m)})
            assert reduced_expand(w, t) == filtered
            assert str(reduced_expand(w, t)) == str(filtered)


def test_reduced_expand_on_eight_generators():
    # 109,601 slots on sets, where the dense layout needs 19,173,961
    eight = parse_word(" ".join(f"x{i}" for i in range(1, 9)))
    with pytest.raises(ValueError, match="dense Magnus expansion needs 19173961"):
        magnus_expand(eight, 8)
    expected = {}
    for mask in range(1 << 8):
        expected[tuple(i + 1 for i in range(8) if mask >> i & 1)] = 1
    assert reduced_expand(eight, 8).terms == expected


def test_reduced_decode_skips_zero_runs():
    # x1 ... x10 has one nonzero ordering per set of generators, 1,024 terms
    # in 9,864,101 slots: the decoder skips runs of zero fields whole (1.5 s
    # of CPU when it read every field)
    start = time.process_time()
    terms = reduced_expand(prefix_product(10), 10).terms
    assert time.process_time() - start < 1
    increasing = [m for k in range(11) for m in combinations(range(1, 11), k)]
    assert terms == dict.fromkeys(increasing, 1)
    # decoded set by set, in the order of their bit masks
    assert list(terms) == sorted(increasing, key=lambda m: sum(1 << i for i in m))
    nine = [m for k in range(1, 10) for m in combinations(range(1, 10), k)]
    assert str(reduced_expand(prefix_product(9), 9)) == " + ".join(
        ["1"] + ["".join(f"X{i}" for i in m) for m in nine])


def test_reduced_expand_refuses_eleven_generators():
    eleven = parse_word(" ".join(f"x{i}" for i in range(1, 12)))
    with pytest.raises(ValueError, match=(
            r"^reduced Magnus expansion needs 108505112 coefficient slots "
            r"\(11 generators, truncation 12\); the limit is 16777216$")):
        reduced_expand(eleven, 12)


def test_reduced_expand_towers_are_trivial():
    # the invisibility corollary at every truncation up to r = k; the dense
    # filter took 12 s of CPU on k = 7, sets take well under one
    start = time.process_time()
    for k in (5, 6, 7):
        assert reduced_expand(eta_tower(k).word, k).is_one
    assert time.process_time() - start < 2


def test_mu_coefficient_matches_every_distinct_index_monomial():
    # the one-monomial Fox pass against the set layout, on every ordering of
    # every set of generators; the products with a random word make the
    # coefficients nonzero, as the cycles alone lie too deep
    rng = random.Random(73)
    for d in (3, 4, 5):
        for _ in range(4):
            e = symmetric_commutator_sample(d, rng.randrange(10**12))
            for w in (e.word, e.word * random_word(rng, d, 8, 3)):
                reduced = reduced_expand(w, d).terms
                seen = 0
                for k in range(1, d + 1):
                    for indices in permutations(range(1, d + 1), k):
                        mu = mu_coefficient(w, indices)
                        assert mu == reduced.get(indices, 0)
                        seen += mu != 0
                assert seen == len(reduced) - 1


def test_letter_budget_refuses_before_decoding(monkeypatch):
    # x1 x2 x3 has 7 dense terms of 9 letters at truncation 2 and 8 reduced
    # terms of 12 letters on sets: either decoder counts them first
    w = parse_word("x1 x2 x3")
    monkeypatch.setattr(magnus, "_MAX_LETTERS", 8)
    for t, terms, letters in ((2, 7, 9), (3, 8, 12)):
        with pytest.raises(ValueError, match=(
                f"^Magnus expansion has {terms} terms of {letters} letters in all; "
                "the limit is 8$")):
            reduced_expand(w, t)
    monkeypatch.setattr(magnus, "_MAX_LETTERS", 12)
    assert len(reduced_expand(w, 3).terms) == 8


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
        reduced = reduced_expand(w, len(indices))
        assert mu_coefficient(w, indices) == reduced.terms.get(indices, 0)


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


def _spelled_letter_by_letter(terms) -> str:
    # the rendering written out: one f-string per letter of each monomial
    if not terms:
        return "0"
    pieces = []
    for monomial, coeff in sorted(terms.items(), key=lambda item: (len(item[0]), item[0])):
        name = "".join(f"X{i}" for i in monomial) if monomial else "1"
        magnitude = abs(coeff)
        if not monomial:
            body = str(magnitude)
        elif magnitude == 1:
            body = name
        else:
            body = f"{magnitude}*{name}"
        sign = ("" if coeff > 0 else "-") if not pieces else ("+ " if coeff > 0 else "- ")
        pieces.append(sign + body)
    return " ".join(pieces)


def test_term_rendering_matches_letter_by_letter_spelling():
    rng = random.Random(2707)
    series = [{}, {(): 1}, {(): -3}, {(12,): 1, (3, 12, 12): -1, (12, 3): 10**30}]
    for _ in range(200):  # repeated and multi-digit indices, any coefficients
        letters = rng.sample([1, 2, 3, 9, 10, 12, 123], rng.randint(1, 4))
        terms = {tuple(rng.choices(letters, k=rng.randint(0, 5))): rng.choice([-1, 1, -7, 12])
                 for _ in range(rng.randint(1, 12))}
        series.append(terms)
    for e in (-3, -1, 2, 7):  # one generator
        series.append(magnus_expand(generator(12, e), 9).terms)
        series.append(reduced_expand(generator(12, e), 4).terms)
    series.append(magnus_expand(parse_word("x12^-2 x3 x12 x10^-1"), 4).terms)
    for terms in series:
        expected = _spelled_letter_by_letter(terms)
        assert magnus._format_terms(terms) == expected
        if terms:
            assert str(MagnusSeries(max(map(len, terms)) or 1, terms)) == expected


def test_degree2_antisymmetry():
    for i, j in [(1, 2), (2, 3), (1, 3)]:
        series = magnus_expand(commutator(generator(i), generator(j)), 2)
        assert series.terms.get((i, j), 0) == 1
        assert series.terms.get((j, i), 0) == -1


def test_invisibility_report_towers_pass():
    for n in (4, 5):
        report = milnor_invisibility_report(n)
        assert all(check.passed for check in report.checks)
        assert len(report.checks) == 3
        tower = eta_tower(n - 1)
        assert gamma_class_lower_bound(tower.word, n - 1) is None
        assert reduced_expand(tower.word, n - 1).is_one
    # the report takes its tower from meridian_word, so both refuse any
    # other size with one text
    for n in (3, 6):
        for refuse in (meridian_word, milnor_invisibility_report):
            with pytest.raises(ValueError) as info:
                refuse(n)
            assert type(info.value) is ValueError
            assert str(info.value) == f"unsupported link size {n}; expected 4 or 5"


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
