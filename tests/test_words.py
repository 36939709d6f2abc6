import random

import pytest

from linkhomotopy import (
    IDENTITY,
    GeneratorMap,
    Word,
    WordSyntaxError,
    commutator,
    conjugate,
    generator,
    in_normal_closure,
    parse_word,
    print_word,
    reduce_word,
)
from linkhomotopy.words import _MAX_NESTING
from conftest import (
    as_letters,
    assert_canonical_word,
    naive_reduce_letters,
    random_syllables,
    random_word,
    syllable_text,
)

x1, x2, x3 = generator(1), generator(2), generator(3)


def test_reduce_cancels_inverse_pair():
    assert reduce_word([(1, 1), (1, -1), (2, 1)]) == x2


def test_reduce_empty_is_identity():
    assert reduce_word([]) == IDENTITY
    assert IDENTITY.is_identity


def test_reduce_merges_runs():
    # x1 x2 x1 x2^-1 x1^-1 x1^-1 -> x1 x2 x1 x2^-1 x1^-2
    raw = [(1, 1), (2, 1), (1, 1), (2, -1), (1, -1), (1, -1)]
    expected = naive_reduce_letters(as_letters(raw))
    got = reduce_word(raw)
    assert as_letters(list(got.syllables)) == expected
    assert print_word(got) == "x1 x2 x1 x2^-1 x1^-2"


def test_reduce_agrees_with_letter_stack_oracle():
    rng = random.Random(7)
    for _ in range(500):
        raw = random_syllables(rng, max_generator=4)
        got = reduce_word(raw)
        assert as_letters(list(got.syllables)) == naive_reduce_letters(as_letters(raw))
        # idempotent
        assert reduce_word(got.syllables) == got


def test_word_constructor_rejects_unreduced():
    with pytest.raises(ValueError):
        Word(((1, 1), (1, 2)))
    with pytest.raises(ValueError):
        Word(((1, 0),))
    with pytest.raises(ValueError):
        Word(((0, 1),))


def test_operations_return_reduced_words():
    # operations skip Word's check; rebuilding each result through Word(...)
    # confirms that they still build reduced words
    rng = random.Random(11)
    for _ in range(300):
        a, b = random_word(rng, 3), random_word(rng, 3)
        raw, other = random_syllables(rng, 3), random_syllables(rng, 3, 4)
        images = {g: random_word(rng, 3, 3) for g in rng.sample((1, 2, 3), rng.randint(1, 3))}
        text = f"({syllable_text(raw)})^{rng.randint(-2, 2)} [{syllable_text(other)}, x2 x1^-1]"
        results = [
            a * b,
            ~a,
            a ** rng.randint(-3, 3),
            GeneratorMap(images)(a),
            reduce_word(raw),
            parse_word(text),
            generator(rng.randint(1, 3), rng.randint(-2, 2)),
        ]
        for result in results:
            assert_canonical_word(result)


def test_multiply_examples():
    assert x1 * ~x1 == IDENTITY
    assert (x1 * x2) * (~x2 * x3) == x1 * x3
    w = parse_word("x1 x2^-2 x3")
    assert IDENTITY * w == w
    assert w * IDENTITY == w


def test_multiply_associative():
    rng = random.Random(11)
    for _ in range(300):
        u, v, w = (random_word(rng, 3) for _ in range(3))
        assert (u * v) * w == u * (v * w)


def test_invert_examples():
    assert ~(x1 * x2) == parse_word("x2^-1 x1^-1")
    assert ~IDENTITY == IDENTITY
    assert ~parse_word("x1^2 x3^-1") == parse_word("x3 x1^-2")


def test_inverse_laws():
    rng = random.Random(13)
    for _ in range(300):
        w = random_word(rng, 4)
        assert w * ~w == IDENTITY
        assert ~~w == w


def test_power():
    w = parse_word("x1 x2")
    assert w ** 0 == IDENTITY
    assert w ** 3 == parse_word("x1 x2 x1 x2 x1 x2")
    assert w ** -2 == ~w * ~w
    big = 10 ** 30
    assert generator(1) ** big * generator(1) ** (-big) == IDENTITY


def test_commutator_examples():
    assert commutator(x1, x2) == parse_word("x1 x2 x1^-1 x2^-1")
    w = parse_word("x1 x3^-1 x2")
    assert commutator(w, w) == IDENTITY
    assert commutator(x1 * x2, x1) == parse_word("x1 x2 x1 x2^-1 x1^-2")


def test_commutator_antisymmetry():
    rng = random.Random(17)
    for _ in range(200):
        a, b = random_word(rng, 3), random_word(rng, 3)
        assert commutator(a, b) == ~commutator(b, a)


def test_conjugate_examples():
    assert conjugate(x2, x1) == parse_word("x1 x2 x1^-1")
    w = parse_word("x2 x3")
    assert conjugate(w, IDENTITY) == w
    assert conjugate(IDENTITY, w) == IDENTITY


def test_apply_map_examples():
    killed = GeneratorMap({2: IDENTITY})(commutator(x1 * x2, x1))
    assert killed == IDENTITY
    w = parse_word("x1 x2 x1^-2")
    assert GeneratorMap({})(w) == w
    assert GeneratorMap({1: x1 * x2})(~x1) == parse_word("x2^-1 x1^-1")


def test_apply_map_is_homomorphism():
    rng = random.Random(19)
    for _ in range(200):
        mapping = GeneratorMap({
            1: random_word(rng, 3, max_syllables=3),
            3: random_word(rng, 3, max_syllables=3),
        })
        u, v = random_word(rng, 3), random_word(rng, 3)
        assert mapping(u * v) == mapping(u) * mapping(v)


def test_in_normal_closure_examples():
    assert in_normal_closure(commutator(x1 * x2, x1), 2)
    assert in_normal_closure(x1, 1)
    assert not in_normal_closure(x1, 2)
    with pytest.raises(ValueError):
        in_normal_closure(x1, 0)


def test_in_normal_closure_agrees_with_brute_force():
    rng = random.Random(23)
    for _ in range(400):
        w = random_word(rng, 3)
        index = rng.randint(1, 3)
        # oracle: drop the generator's letters, stack-reduce what is left
        survivors = [(g, s) for g, s in as_letters(list(w.syllables)) if g != index]
        assert in_normal_closure(w, index) == (not naive_reduce_letters(survivors))


def test_parse_commutator_expression():
    assert parse_word("[x1*x2, x1]") == parse_word("x1 x2 x1 x2^-1 x1^-2")


def test_parse_cancellation():
    assert parse_word("x1^-1 x1") == IDENTITY


def test_parse_nested_commutator_power_matches_composed_ops():
    # oracle: build the same element through the word operations
    expected = commutator(x1, commutator(x2, x3)) ** 2
    assert parse_word("[x1, [x2, x3]]^2") == expected


def test_parse_separators_and_juxtaposition():
    assert parse_word("x1*x2") == parse_word("x1 x2") == parse_word("x1x2")
    assert parse_word("(x1 x2)^-1") == ~(x1 * x2)
    assert parse_word("  ") == IDENTITY
    assert parse_word("") == IDENTITY


def test_parse_identity_literal():
    assert parse_word("1") == IDENTITY
    assert parse_word("x1 1 x2") == x1 * x2
    assert parse_word("[1, x1]") == IDENTITY


def test_parse_errors_carry_position():
    with pytest.raises(WordSyntaxError) as info:
        parse_word("x1 x0")
    assert info.value.position == 4
    for bad in ("[x1", "[x1 x2]", "(x1", "x1 )", "x^2", "x1^", "y1", "x1]"):
        with pytest.raises(WordSyntaxError):
            parse_word(bad)


def test_parse_nesting_limit():
    depth = _MAX_NESTING
    assert parse_word("(" * depth + "x1" + ")" * depth) == generator(1)
    assert parse_word("(" * (depth - 1) + "[x1, x2]" + ")" * (depth - 1)) == commutator(
        generator(1), generator(2)
    )
    # the limit counts open brackets, not groups seen
    assert parse_word("(x1) " * (depth + 1)) == generator(1) ** (depth + 1)
    for innermost in ("(x1)", "[x1, x2]"):
        with pytest.raises(WordSyntaxError, match="nesting deeper than") as info:
            parse_word("(" * depth + innermost + ")" * depth)
        assert info.value.position == depth


def test_print_parse_round_trip():
    rng = random.Random(29)
    for _ in range(300):
        w = random_word(rng, 4)
        assert parse_word(print_word(w)) == w
    assert print_word(IDENTITY) == "1"


def test_alternate_letter():
    w = parse_word("a1 a2^-1", letter="a")
    assert w == x1 * ~x2
    assert print_word(w, letter="a") == "a1 a2^-1"
