import random
import time
from functools import reduce

import pytest

from linkhomotopy import (
    IDENTITY,
    VARIANT_ETA_DEGREE3,
    VARIANT_ETA_DEGREE4,
    GeneratorMap,
    NotACycleError,
    SimplicialElement,
    commutator,
    conjugate,
    degeneracy,
    element,
    eta_tower,
    eta_word,
    face,
    generator,
    in_normal_closure,
    is_cycle,
    is_moore_chain,
    meridian_word,
    parse_word,
    prefix_product,
    reduce_word,
    symmetric_commutator_sample,
)
from linkhomotopy import words
from conftest import (
    assert_canonical_element,
    assert_frozen_value,
    random_element,
    random_syllables,
    random_word,
)
import oracles


def test_element_canonicalizes_last_generator():
    e = element(2, "x3")
    assert e.word == parse_word("x2^-1 x1^-1")
    assert element(3, "x1 x2 x3 x4") .is_identity


def test_element_degree_zero_collapses():
    assert element(0, "x1^5").is_identity


def test_element_rejects_out_of_range_generators():
    with pytest.raises(ValueError):
        element(2, "x4")
    with pytest.raises(ValueError):
        element(0, "x2")


def test_element_serialization():
    assert str(element(2, "[x1 x2, x1]")) == "degree=2; word=x1 x2 x1 x2^-1 x1^-2"
    assert str(element(1, "")) == "degree=1; word=1"


def test_element_value_contract():
    e = element(2, "x3")
    same = SimplicialElement(2, parse_word("x2^-1 x1^-1"))
    assert e == same and hash(e) == hash(same)
    assert e != element(3, e.word) and e != element(2, "x1 x2") and e != e.word
    assert repr(e) == "SimplicialElement(degree=2, word=Word('x2^-1 x1^-1'))"
    assert str(e) == "degree=2; word=x2^-1 x1^-1"
    with pytest.raises(ValueError, match="canonical degree-1 words use only x1..x1"):
        SimplicialElement(1, generator(2))
    with pytest.raises(ValueError, match="degree must be >= 0"):
        SimplicialElement(-1, IDENTITY)
    for value in (e, element(0, ""), eta_tower(3)):
        assert_frozen_value(value)


def test_face_examples():
    t2 = element(2, "[x1 x2, x1]")
    assert face(0, t2).is_identity
    assert face(1, element(1, "x1")).is_identity
    assert face(2, t2).is_identity


def test_face_errors():
    with pytest.raises(ValueError):
        face(3, element(2, "x1"))
    with pytest.raises(ValueError):
        face(-1, element(2, "x1"))
    with pytest.raises(ValueError):
        face(0, element(0, ""))


def test_degeneracy_examples():
    assert degeneracy(0, element(1, "x1")) == element(2, "x1 x2")
    assert degeneracy(1, element(1, "x1")) == element(2, "x1")
    assert degeneracy(0, element(2, "x2")) == element(3, "x3")
    with pytest.raises(ValueError):
        degeneracy(2, element(1, "x1"))


def test_face_and_degeneracy_are_homomorphisms():
    rng = random.Random(3)
    for _ in range(100):
        degree = rng.randint(1, 4)
        a, b = random_element(rng, degree), random_element(rng, degree)
        product = element(degree, a.word * b.word)
        for i in range(degree + 1):
            assert face(i, product).word == (face(i, a).word * face(i, b).word)
            assert degeneracy(i, product).word == (
                degeneracy(i, a).word * degeneracy(i, b).word
            )


def test_face_and_degeneracy_match_letter_oracle():
    rng = random.Random(43)
    for degree in range(7):
        maps = [(degeneracy, oracles.degeneracy)] + ([(face, oracles.face)] if degree else [])
        for _ in range(25):
            # besides a canonical word, one on x1..x_{degree+1} with longer
            # powers, which element rewrites (checked letter by letter too)
            raw = random_syllables(rng, degree + 1, 8, 4)
            rewritten = element(degree, reduce_word(raw))
            assert oracles.letters_of(rewritten.word.syllables) == oracles.canonical(
                oracles.letters_of(raw), degree), raw
            for e in (random_element(rng, degree, max_syllables=8), rewritten):
                letters = oracles.letters_of(e.word.syllables)
                for i in range(degree + 1):
                    for op, oracle in maps:
                        got = oracles.letters_of(op(i, e).word.syllables)
                        assert got == oracle(i, letters, degree), (op.__name__, i, e)
    # words built to cancel across the deleted generator x_{i+1}: d_i takes
    # u x_{i+1}^k u^-1 to 1, popping back to earlier tops, and merges
    # x_{i+2}^a x_{i+1}^b x_{i+2}^c into x_{i+1}^(a+c), or 1 when a + c = 0
    rng = random.Random(44)
    for degree in range(1, 7):
        for _ in range(40):
            i = rng.randrange(degree)
            u = random_word(rng, degree, 6, 2)
            cases = [(u * generator(i + 1, rng.choice((1, -1, 2, -3))) * ~u, True)]
            if i + 2 <= degree:
                a, b = rng.choice((1, -1, 2, -2)), rng.choice((1, -1, 3))
                c = rng.choice((-a, 1, 3))  # a + c = 0 in a third of the cases or more
                merge = generator(i + 2, a) * generator(i + 1, b) * generator(i + 2, c)
                cases += [(merge, a + c == 0), (u * merge * ~u, a + c == 0)]
            for w, trivial in cases:
                e = element(degree, w)
                got = face(i, e)
                letters = oracles.letters_of(e.word.syllables)
                assert oracles.letters_of(got.word.syllables) == oracles.face(
                    i, letters, degree), (i, e)
                assert SimplicialElement(got.degree, got.word) == got
                assert got.is_identity == trivial, (i, e)


def eliminate_by_substitution(degree, w):
    """The second route for the eliminated generator: ``x_{degree+1}`` goes to
    ``(x1...x_degree)^-1`` through :class:`GeneratorMap`."""
    return GeneratorMap({degree + 1: ~prefix_product(degree)})(w)


def test_eliminated_generator_matches_substitution():
    # element(d, w) and d_{d+1} of w at degree d + 1 both rewrite x_{d+1}
    rng = random.Random(22)
    # 2**64 does not fit a tuple repeat count, so it must never build a run
    large = (10 ** 12, -10 ** 12, 2 ** 64, -2 ** 64)
    for degree in range(9):
        last = degree + 1
        cases = [prefix_product(last), prefix_product(degree) * generator(last, 5),
                 generator(last, 2 ** 64) * prefix_product(degree)]
        if last <= 8:
            t = eta_tower(last).word
            cases += [t, t * generator(last, -3) * prefix_product(degree)]  # a non-cycle
        for _ in range(300):
            raw = []
            for _ in range(rng.randint(0, 12)):
                gen = rng.randint(1, last)
                # x_last^e from degree 2 on is |e| runs of degree syllables
                powers = large if gen < last or degree < 2 else (40, -40)
                raw.append((gen, rng.choice((1, -1, 2, -2, 3, -3) + powers)))
            cases.append(reduce_word(raw))
        for w in cases:
            try:
                expected = eliminate_by_substitution(degree, w)
            except ValueError:  # x_last^(2**64) from degree 2 on is over budget
                with pytest.raises(ValueError, match="the image may have"):
                    element(degree, w)
                with pytest.raises(ValueError, match="the image may have"):
                    face(last, element(last, w))
                continue
            got = element(degree, w)
            assert got.word == expected, (degree, w)
            assert_canonical_element(got)
            last_face = face(last, element(last, w))
            assert last_face == got, (degree, w)
            assert_canonical_element(last_face)


def test_elimination_cascades_match_letter_oracle():
    # words dense in x_{n+1}^k: x_{n+1}^k after a tail x_i ... x_n of the
    # prefix product cancels through it, and x_{n+1}^-k = (x1 ... x_n)^k
    # before x_n^-1 ... cancels through the pushes that follow it
    rng = random.Random(28)
    for n in range(1, 7):
        last = n + 1
        run = [(i, 1) for i in range(1, last)]
        for _ in range(150):
            raw = []
            for _ in range(rng.randint(1, 8)):
                k = rng.choice((1, -1, 2, -2, 3))
                raw += rng.choice((
                    [(last, k)],
                    run[rng.randrange(n):] * abs(k) + [(last, abs(k))],
                    [(last, -abs(k))] + [(i, -1) for i in range(n, 0, -1)][: rng.randint(1, n)],
                    [(rng.randint(1, n), k)]))
            w = reduce_word(raw)
            letters = oracles.letters_of(w.syllables)
            got = element(n, w)
            assert oracles.letters_of(got.word.syllables) == oracles.canonical(letters, n), w
            assert_canonical_element(got)
            e = element(last, w)
            assert face(last, e) == got
            assert is_moore_chain(e) == all(
                not oracles.face(i, letters, last) for i in range(1, last + 1)), w
    # the refusal counts what is already built
    with pytest.raises(ValueError) as info:
        element(3, parse_word("x1 x4^1048576"))
    assert str(info.value) == "the image may have 3145729 syllables; the limit is 1048576"


def test_operations_return_canonical_elements():
    # operations skip SimplicialElement's check; rebuilding each result
    # through SimplicialElement(...) confirms that they stay canonical
    rng = random.Random(12)
    for _ in range(200):
        degree = rng.randint(0, 5)
        e = element(degree, random_word(rng, degree + 1, 6, 2))
        results = [e]
        results += [degeneracy(i, e) for i in range(degree + 1)]
        if degree >= 1:
            results += [face(i, e) for i in range(degree + 1)]
            sample = symmetric_commutator_sample(min(degree, 3), rng.randrange(10 ** 6))
            results += [sample, eta_word(sample)]
            results.append(eta_word(element(degree, "")))
        for result in results:
            assert_canonical_element(result)
    for k in range(1, 7):
        assert_canonical_element(eta_tower(k))


def test_moore_chain_examples():
    assert is_moore_chain(element(3, ""))
    assert is_moore_chain(element(1, "x1"))
    assert is_moore_chain(element(2, "[x1 x2, x1]"))
    assert not is_moore_chain(element(2, "x2"))
    # the identity is a chain at any degree without a face built
    start = time.process_time()
    assert is_moore_chain(element(10**6, ""))
    assert time.process_time() - start < 0.5


def test_cycle_examples():
    assert is_cycle(element(2, "[x1 x2, x1]"))
    assert not is_cycle(element(2, "x1"))
    assert is_cycle(element(4, ""))
    assert is_cycle(element(0, ""))


def test_cycle_agrees_with_normal_closure_membership():
    # a degree-n element is a cycle iff its word lies in the normal closure
    # of every presentation generator x1..x_{n+1}
    rng = random.Random(5)
    for _ in range(200):
        degree = rng.randint(1, 4)
        e = random_element(rng, degree)
        in_all = all(in_normal_closure(e.word, i) for i in range(1, degree + 1))
        if in_all:
            # x_{degree+1} is the inverted prefix product; kill it by Tietze
            image = GeneratorMap({degree: ~prefix_product(degree - 1)})(e.word)
            in_all = image.is_identity
        assert is_cycle(e) == in_all


def test_cycle_by_deletion_agrees_with_every_face():
    # second route: every face by letter-level substitution, not by face,
    # which deletes x_{i+1} for i < n just as in_normal_closure does
    def killed_by_faces(e, first):
        letters = oracles.letters_of(e.word.syllables)
        return not any(oracles.face(i, letters, e.degree) for i in range(first, e.degree + 1))

    rng = random.Random(17)
    elements = [random_element(rng, rng.randint(1, 6)) for _ in range(300)]
    for degree in (2, 3, 4, 5):
        for j in range(1, degree + 2):
            elements.append(symmetric_commutator_sample(degree, rng.randrange(10 ** 12)))
            # commuting conjugates of every x_g but x_j: every face but
            # d_{j-1} kills this, and d_{j-1} need not
            entries = [conjugate(generator(g), random_word(rng, degree, 3))
                       for g in range(1, degree + 2) if g != j]
            elements.append(element(degree, reduce(commutator, entries)))
    elements += [eta_tower(k) for k in range(1, 7)]
    elements += [VARIANT_ETA_DEGREE3, VARIANT_ETA_DEGREE4]
    # cycles, chains that d_0 does not kill, and neither
    assert {(is_cycle(e), is_moore_chain(e)) for e in elements} == {
        (True, True), (False, True), (False, False)}
    for e in elements:
        assert is_cycle(e) == killed_by_faces(e, 0)
        assert is_moore_chain(e) == killed_by_faces(e, 1)


def test_simplicial_identities_sample():
    rng = random.Random(9)
    for _ in range(60):
        degree = rng.randint(1, 5)
        e = random_element(rng, degree)
        if degree >= 2:
            for j in range(degree + 1):
                for i in range(j):
                    assert face(i, face(j, e)) == face(j - 1, face(i, e))
        for i in range(degree + 1):
            for j in range(i, degree + 1):
                assert degeneracy(i, degeneracy(j, e)) == degeneracy(j + 1, degeneracy(i, e))
        for j in range(degree + 1):
            for i in range(degree + 2):
                lhs = face(i, degeneracy(j, e))
                if i < j:
                    assert lhs == degeneracy(j - 1, face(i, e))
                elif i in (j, j + 1):
                    assert lhs == e
                else:
                    assert lhs == degeneracy(j, face(i - 1, e))


def test_eta_word_examples():
    assert eta_word(element(1, "x1")) == element(2, "[x1 x2, x1]")
    assert eta_word(element(3, "")).is_identity
    t3 = eta_word(element(2, "[x1 x2, x1]"))
    assert t3 == element(3, "[[x1 x2 x3, x1 x2], [x1 x2 x3, x1]]")


def test_eta_word_rejects_non_cycles():
    with pytest.raises(NotACycleError):
        eta_word(element(2, "x1"))
    with pytest.raises(ValueError):
        eta_word(element(0, ""))


def test_eta_tower_base_and_structure():
    assert eta_tower(1) == element(1, "x1")
    assert eta_tower(2) == element(2, "[x1 x2, x1]")
    p = prefix_product
    expected3 = commutator(commutator(p(3), p(2)), commutator(p(3), p(1)))
    assert eta_tower(3).word == expected3
    expected4 = commutator(
        commutator(commutator(p(4), p(3)), commutator(p(4), p(2))),
        commutator(commutator(p(4), p(3)), commutator(p(4), p(1))),
    )
    assert eta_tower(4).word == expected4
    with pytest.raises(ValueError):
        eta_tower(0)


def test_prefix_product_and_tower_step_syllable_budgets(monkeypatch):
    with pytest.raises(ValueError, match="the prefix product may have 10000000000"):
        prefix_product(10 ** 10)
    # element builds the prefix product only for a word holding x_{degree+1},
    # and a face or degeneracy touches only the generators the word holds
    with pytest.raises(ValueError, match="the prefix product may have 99999999 syllables"):
        element(99999999, "x100000000")
    assert face(0, element(10 ** 6, "x1")).is_identity
    # a degeneracy turns each letter into at most two syllables, so each
    # tower step has at most 8 syllables per letter of the level below
    for k in range(1, 8):
        z = eta_tower(k)
        built = [len(degeneracy(i, z).word.syllables) for i in (0, 1)]
        assert 2 * sum(built) <= 8 * z.word.length
    monkeypatch.setattr(words, "_MAX_SYLLABLES", 8 * eta_tower(3).word.length)
    assert prefix_product(words._MAX_SYLLABLES).max_generator == 224
    assert eta_tower(4).word.length == 120
    monkeypatch.setattr(words, "_MAX_SYLLABLES", 223)
    with pytest.raises(ValueError, match="the prefix product may have 224 syllables"):
        prefix_product(224)
    # d_n rewrites x_n as (x1 ... x_{n-1})^-1 and refuses its runs alike
    with pytest.raises(ValueError, match="the prefix product may have 224 syllables"):
        face(225, element(225, "x225"))
    with pytest.raises(ValueError, match="the tower step may have 224 syllables"):
        eta_tower(4)


def test_eta_towers_are_cycles():
    for k in range(1, 6):
        assert is_cycle(eta_tower(k))


def test_eta_of_cycle_is_cycle():
    for degree, seed in [(1, 4), (2, 0), (2, 1234567), (3, 42), (3, 2 ** 40 + 17)]:
        z = symmetric_commutator_sample(degree, seed)
        assert is_cycle(eta_word(z))


def test_symmetric_commutator_sample_canonical_seed():
    assert symmetric_commutator_sample(2, 0) == element(2, "[[x1, x2], x3]")


def test_symmetric_commutator_sample_degree_one_collapses():
    # the degree-1 group is infinite cyclic, so every commutator dies
    for seed in (0, 1, 99, 10 ** 6):
        assert symmetric_commutator_sample(1, seed).is_identity


def test_symmetric_commutator_samples_are_cycles():
    rng = random.Random(31)
    for degree in (1, 2, 3, 4):
        for _ in range(15):
            seed = rng.randrange(10 ** 12)
            sample = symmetric_commutator_sample(degree, seed)
            assert_canonical_element(sample)
            assert is_cycle(sample)
    with pytest.raises(ValueError):
        symmetric_commutator_sample(0, 1)


def test_meridian_word_transliterates_towers():
    m4 = meridian_word(4)
    assert m4 == eta_tower(3)
    assert m4.word.max_generator <= 4
    text = words.print_word(m4.word, letter="a")
    assert text.startswith("a1 a2 a3 ")
    assert parse_word(text, letter="a") == m4.word
    assert meridian_word(5) == eta_tower(4)
    with pytest.raises(ValueError):
        meridian_word(6)


def test_variant_words_share_depth_but_fail_the_cycle_test():
    """The literature's variant spellings of the degree-3/4 tower words
    (``[a, x2]`` where the mechanical word has ``[a, x1 x2]``) are not Moore
    cycles: one face survives as a nontrivial commutator."""
    assert not is_cycle(VARIANT_ETA_DEGREE3)
    assert not face(2, VARIANT_ETA_DEGREE3).is_identity
    assert face(0, VARIANT_ETA_DEGREE3).is_identity
    assert face(1, VARIANT_ETA_DEGREE3).is_identity
    assert face(3, VARIANT_ETA_DEGREE3).is_identity

    assert not is_cycle(VARIANT_ETA_DEGREE4)
    assert not face(3, VARIANT_ETA_DEGREE4).is_identity
    for i in (0, 1, 2, 4):
        assert face(i, VARIANT_ETA_DEGREE4).is_identity


def test_variant_degree3_failing_face_value():
    # the surviving face is the commutator of [x1,x2] with [x1 x2, x1]
    expected = commutator(
        commutator(generator(1), generator(2)),
        commutator(generator(1) * generator(2), generator(1)),
    )
    assert face(2, VARIANT_ETA_DEGREE3).word == expected
    assert expected != IDENTITY
