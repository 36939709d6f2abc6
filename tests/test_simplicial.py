import random

import pytest

from linkhomotopy import (
    IDENTITY,
    VARIANT_ETA_DEGREE3,
    VARIANT_ETA_DEGREE4,
    GeneratorMap,
    NotACycleError,
    commutator,
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
    symmetric_commutator_sample,
)
from conftest import (
    as_letters,
    assert_canonical_element,
    naive_structure_map,
    random_element,
    random_word,
)


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
    for degree in range(1, 7):
        for _ in range(25):
            e = random_element(rng, degree, max_syllables=8)
            for i in range(degree + 1):
                for kind, op in (("face", face), ("degeneracy", degeneracy)):
                    got = as_letters(list(op(i, e).word.syllables))
                    assert got == naive_structure_map(kind, i, degree, e.word), (kind, i, e)


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
            results.append(eta_word(symmetric_commutator_sample(min(degree, 3),
                                                               rng.randrange(10 ** 6))))
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
            assert is_cycle(symmetric_commutator_sample(degree, seed))
    with pytest.raises(ValueError):
        symmetric_commutator_sample(0, 1)


def test_meridian_word_transliterates_towers():
    m4 = meridian_word(4)
    assert m4.link_size == 4
    assert m4.word == eta_tower(3).word
    assert str(m4).startswith("a1 a2 a3 ")
    assert parse_word(str(m4), letter="a") == m4.word
    assert meridian_word(5).word == eta_tower(4).word
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
