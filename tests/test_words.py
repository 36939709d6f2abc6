import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from linkhomotopy import words
from linkhomotopy.words import _MAX_NESTING
from conftest import (
    LONG_DIGITS,
    TOO_LONG,
    assert_canonical_word,
    assert_frozen_value,
    random_syllables,
    random_word,
    syllable_text,
)
from oracles import letters_of, reduce_letters

x1, x2, x3 = generator(1), generator(2), generator(3)


def test_reduce_cancels_inverse_pair():
    assert reduce_word([(1, 1), (1, -1), (2, 1)]) == x2


def test_reduce_empty_is_identity():
    assert reduce_word([]) == IDENTITY
    assert IDENTITY.is_identity


def test_reduce_merges_runs():
    # x1 x2 x1 x2^-1 x1^-1 x1^-1 -> x1 x2 x1 x2^-1 x1^-2
    raw = [(1, 1), (2, 1), (1, 1), (2, -1), (1, -1), (1, -1)]
    expected = reduce_letters(letters_of(raw))
    got = reduce_word(raw)
    assert letters_of(got.syllables) == expected
    assert print_word(got) == "x1 x2 x1 x2^-1 x1^-2"


def test_reduce_agrees_with_letter_stack_oracle():
    rng = random.Random(7)
    for _ in range(500):
        raw = random_syllables(rng, max_generator=4)
        got = reduce_word(raw)
        assert letters_of(got.syllables) == reduce_letters(letters_of(raw))
        # idempotent
        assert reduce_word(got.syllables) == got


def test_word_constructor_rejects_unreduced():
    with pytest.raises(ValueError):
        Word(((1, 1), (1, 2)))
    with pytest.raises(ValueError):
        Word(((1, 0),))
    with pytest.raises(ValueError):
        Word(((0, 1),))


def test_word_value_contract():
    w = parse_word("x1 x2^-3")
    same = Word(((1, 1), (2, -3)))
    assert w == same == reduce_word([(1, 1), (2, -1), (2, -2)])
    assert hash(w) == hash(same)
    assert w != parse_word("x1 x2^3") and w != IDENTITY and w != w.syllables
    assert (repr(w), str(w)) == ("Word('x1 x2^-3')", "x1 x2^-3")
    assert (repr(IDENTITY), str(IDENTITY)) == ("Word('1')", "1")
    with pytest.raises(ValueError, match="zero exponent"):
        Word(((1, 0),))
    for value in (w, IDENTITY, x1 ** 10**12):
        assert_frozen_value(value)


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


def test_multiply_joins_like_reducing_the_concatenation():
    # rebuilt through Word(...), so the junction-only join must leave a
    # reduced word, equal to reducing both syllable lists end to end
    rng = random.Random(19)
    pairs = [(x1 * x2 ** 2, x2 ** -1 * x3), (x1 * x2, ~x2 * ~x1 * x3)]
    for _ in range(300):
        u, v = random_word(rng, 3), random_word(rng, 3)
        pairs += [(u, v), (u, ~u), (u * v, ~v * u)]
    for u, v in pairs:
        product = Word((u * v).syllables)
        assert product == reduce_word(u.syllables + v.syllables)
    assert x1 * x2 ** 2 * (x2 ** -1 * x3) == parse_word("x1 x2 x3")


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


def _power_bound(w, n):
    """``2|u| + |n||c|`` syllables for ``w = u c u^-1`` with ``c`` cyclically
    reduced (``2|u| + 1`` for a one-syllable ``c``); ``u`` is the longest
    prefix whose conjugate of the middle rebuilds ``w``."""
    s = w.syllables
    u = max(i for i in range(len(s) // 2 + 1)
            if Word(s[:i]) * Word(s[i:len(s) - i]) * ~Word(s[:i]) == w)
    core = len(s) - 2 * u
    return 2 * u + (1 if core == 1 else abs(n) * core)


def test_power_budget_is_the_closed_form_bound(monkeypatch):
    rng = random.Random(61)
    for _ in range(300):
        w = random_word(rng, 3, max_syllables=6, max_exponent=2)
        n = rng.choice([-1, 1]) * rng.randint(1, 6)
        if w.is_identity:
            continue
        monkeypatch.undo()  # the oracle's products run under the real limit
        bound = _power_bound(w, n)
        monkeypatch.setattr(words, "_MAX_SYLLABLES", bound)
        assert len((w ** n).syllables) <= bound
        monkeypatch.setattr(words, "_MAX_SYLLABLES", bound - 1)
        with pytest.raises(ValueError, match=f"the power may have {bound} syllables"):
            w ** n


def test_power_syllable_budget(monkeypatch):
    monkeypatch.setattr(words, "_MAX_SYLLABLES", 100)
    w = parse_word("x1 x2")
    assert len((w ** -50).syllables) == 100
    with pytest.raises(ValueError, match="the power may have 102 syllables; the limit is 100"):
        w ** 51
    # conjugated core: 2|u| + |n||c|
    assert len(((x3 * w * ~x3) ** 49).syllables) == 100
    with pytest.raises(ValueError, match="may have 102 syllables"):
        (x3 * w * ~x3) ** -50
    # a core whose ends share a generator still counts |c| per copy
    with pytest.raises(ValueError, match="may have 102 syllables"):
        parse_word("x1 x2 x1") ** 34


def test_one_syllable_core_powers_at_any_exponent():
    n = 10**12
    start = time.process_time()
    assert generator(1) ** n == Word(((1, n),))
    assert parse_word("(x2 x1 x2^-1)^1000000000000") == Word(((2, 1), (1, n), (2, -1)))
    assert parse_word("(x3 x2 x1 x2^-1 x3^-1)^-1000000000000").syllables[2] == (1, -n)
    with pytest.raises(ValueError, match="the power may have 2000000000000 syllables"):
        parse_word("(x1 x2)^1000000000000")
    with pytest.raises(ValueError, match="the power may have 199999999998 syllables"):
        parse_word("(x1 x2)^-99999999999")
    assert time.process_time() - start < 0.5


def test_commutator_syllable_budget(monkeypatch):
    monkeypatch.setattr(words, "_MAX_SYLLABLES", 100)
    u, v = parse_word("x1 x2") ** 20, parse_word("x3 x4") ** 5
    assert len(commutator(u, v).syllables) == 100
    with pytest.raises(ValueError, match="the commutator may have 102 syllables"):
        commutator(u * x3, v)
    # the parser's brackets go through the same bound
    depth = 5  # [...[x1, x2]..., x2] holds 2^(depth+1) syllables
    text = "[" * depth + "x1" + ", x2]" * depth
    assert len(parse_word(text).syllables) == 2 ** (depth + 1)
    with pytest.raises(ValueError, match="the commutator may have 130 syllables"):
        parse_word("[" + text + ", x2]")


def test_product_syllable_budget(monkeypatch):
    monkeypatch.setattr(words, "_MAX_SYLLABLES", 100)
    u, v = parse_word("x1 x2") ** 30, parse_word("x3 x4") ** 20
    assert len((u * v).syllables) == 100
    with pytest.raises(ValueError, match="the product may have 101 syllables; the limit is 100"):
        u * v * x1
    # the bound is checked before cancelling: u u^-1 is refused, not 1
    with pytest.raises(ValueError, match="the product may have 120 syllables"):
        u * ~u
    # conjugate is two products: g x1 (51 syllables), then g x1 g^-1
    g = parse_word("x3 x4") ** 25
    assert len(conjugate(x1, g * generator(4, -1)).syllables) == 99
    with pytest.raises(ValueError, match="the product may have 101 syllables"):
        conjugate(x1, g)
    # a loop of products, each one under the limit, stops at the limit
    w = IDENTITY
    with pytest.raises(ValueError, match="the product may have 101 syllables"):
        for _ in range(100):
            w = w * x1 * x2
    assert len(w.syllables) == 100


def test_power_of_a_long_conjugate_is_not_a_product():
    # (w x1 w^-1)^3 = w x1^3 w^-1: squaring would pass the product bound,
    # but the power's own bound 2|w| + 1 holds for every partial product
    w = Word(tuple((2 + i % 2, 1) for i in range(2**18)))
    c = w * x1 * ~w
    assert 2 * len(c.syllables) > words._MAX_SYLLABLES
    assert c ** 3 == w * generator(1, 3) * ~w
    assert c ** -3 == w * generator(1, -3) * ~w


def test_generator_map_syllable_budget(monkeypatch):
    monkeypatch.setattr(words, "_MAX_SYLLABLES", 100)
    pair = GeneratorMap({3: parse_word("x1 x2")})
    assert len(pair(parse_word("x3^-50")).syllables) == 100
    with pytest.raises(ValueError, match="the image may have 102 syllables"):
        pair(parse_word("x3^51"))
    # what is already built counts towards the bound
    with pytest.raises(ValueError, match="the image may have 101 syllables"):
        pair(parse_word("x4 x3^50"))
    # single-syllable images take their power in place
    assert GeneratorMap({3: x1})(parse_word("x3^1000000000000")) == Word(((1, 10**12),))


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


def test_commutator_matches_the_product_of_its_factors():
    # the four factors go onto one stack; the operators build the same word
    # through three products and two inverses.  b = a, b = a^-1, identities
    # and factors sharing a prefix or suffix with a make the joins cancel
    # through several syllables
    rng = random.Random(29)
    for _ in range(200):
        a, u = random_word(rng, 3), random_word(rng, 3)
        for b in (random_word(rng, 3), a, ~a, IDENTITY, a * u, u * ~a, ~a * u * a, a ** 2):
            for left, right in ((a, b), (b, a), (IDENTITY, b), (b, IDENTITY)):
                got = commutator(left, right)
                assert got == left * right * ~left * ~right
                assert_canonical_word(got)


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
    outcomes = set()
    for _ in range(400):
        w = random_word(rng, 3)
        index = rng.randint(1, 3)
        if rng.random() < 0.5:
            # a product of conjugates of x_index lies in its normal closure
            w = IDENTITY
            for _ in range(rng.randint(1, 3)):
                w = w * conjugate(generator(index, rng.choice((-2, -1, 1, 2))),
                                  random_word(rng, 3, 4))
        # oracles: drop the generator's letters and stack-reduce what is
        # left; substitute x_index -> 1
        survivors = [(g, s) for g, s in letters_of(w.syllables) if g != index]
        member = not reduce_letters(survivors)
        assert GeneratorMap({index: IDENTITY})(w).is_identity == member
        assert in_normal_closure(w, index) == member
        outcomes.add(member)
    assert outcomes == {True, False}


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
    assert parse_word("(x1 x2)^-0") == IDENTITY
    assert parse_word("x01^+02") == x1**2
    assert parse_word("  ") == IDENTITY
    assert parse_word("") == IDENTITY


def test_parse_identity_literal():
    assert parse_word("1") == IDENTITY
    assert parse_word("x1 1 x2") == x1 * x2
    assert parse_word("[1, x1]") == IDENTITY
    assert parse_word("(1)") == IDENTITY
    assert parse_word("1^-5 x2") == x2
    # digits after '1' or a closing bracket start the next factor
    assert parse_word("11") == IDENTITY
    assert parse_word("(x1)1 x2") == x1 * x2


# every error message: text, message, position (0..len(text))
SYNTAX_ERRORS = [
    ("()", "expected a word", 1),
    ("x^2", "expected a generator index after 'x'", 1),
    ("x1 x0", "generator index must be >= 1", 4),
    ("x1^", "expected an integer", 3),
    ("[x1 x2]", "expected ',' in commutator", 6),
    ("[x1", "expected ',' in commutator", 3),
    ("[x1, x2", "expected ']'", 7),
    ("(x1", "expected ')'", 3),
    ("y1", "unexpected character 'y'", 0),
    ("x1 )", "unexpected character ')'", 3),
    ("x1]", "unexpected character ']'", 2),
    ("(" * (_MAX_NESTING + 1) + "x1" + ")" * (_MAX_NESTING + 1),
     f"nesting deeper than {_MAX_NESTING} levels", _MAX_NESTING),
    # at the first digit of an index or an exponent
    (f"x{LONG_DIGITS}", TOO_LONG, 1),
    (f"x1 x2^-{LONG_DIGITS}", TOO_LONG, 7),
    # a malformed factor after a run of well-formed ones
    ("x1 x2 x3^", "expected an integer", 9),
    ("x1 x2 x0", "generator index must be >= 1", 7),
    ("x1x2^2^3", "unexpected character '^'", 6),
    ("x1*x2 x", "expected a generator index after 'x'", 7),
    (f"x1 x2 x3^{LONG_DIGITS}", TOO_LONG, 9),
    # digits after '1' or a closing bracket, and exponents with no digits
    ("12", "unexpected character '2'", 1),
    ("(x1)2", "unexpected character '2'", 4),
    ("(x1)^", "expected an integer", 5),
    ("1^", "expected an integer", 2),
    ("x1^-", "expected an integer", 4),
    ("[x1, x2]^+", "expected an integer", 10),
    ("(x1) ^2", "unexpected character '^'", 5),
    # a bracket closed by the wrong character, or an empty word
    ("[x1, x2, x3]", "expected ']'", 7),
    ("[x1)", "expected ',' in commutator", 3),
    ("(x1,", "expected ')'", 3),
    ("(,x1)", "expected a word", 1),
    (",", "expected a word", 0),
]


def test_parse_errors_carry_position():
    for text, message, position in SYNTAX_ERRORS:
        with pytest.raises(WordSyntaxError) as info:
            parse_word(text)
        assert str(info.value) == f"{message} (at position {position})"
        assert info.value.position == position


# the grammar's characters, two non-ASCII decimal digits among them
PARSER_ALPHABET = "xa0123456789\u0661\uff12^+-*()[],1 \t"
WORDS = st.lists(st.tuples(st.integers(1, 12), st.integers(-10**20, 10**20))).map(reduce_word)
# besides free text, printed words cut short with a few more characters
TEXTS = st.one_of(st.text(PARSER_ALPHABET, max_size=12),
                  st.builds(lambda w, cut, tail: print_word(w)[:cut] + tail,
                            WORDS, st.integers(0, 30), st.text(PARSER_ALPHABET, max_size=3)))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(text=TEXTS, letter=st.sampled_from("xa"))
def test_parse_error_positions_lie_in_the_text(text, letter):
    try:
        parse_word(text, letter)
    except WordSyntaxError as exc:
        assert 0 <= exc.position <= len(text)


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


@settings(derandomize=True, max_examples=200, deadline=None)
@given(w=WORDS, letter=st.sampled_from("xa"))
def test_print_parse_round_trip(w, letter):
    assert parse_word(print_word(w, letter), letter) == w
    assert print_word(IDENTITY) == "1"


def _power(base):
    """``(text, word)`` with an optional exponent ``^e``, ``|e| <= 3``, on
    the base ``(text, word)``."""
    return st.builds(lambda b, e, plus: (b[0] + "^" + "+" * (plus and e >= 0) + str(e), b[1] ** e),
                     base, st.integers(-3, 3), st.booleans()) | base


SEPARATORS = st.sampled_from(("", " ", "*", " * ", "\t", "  "))


def _juxtapose(factors, separators):
    text, w = factors[0]
    for (piece, factor), sep in zip(factors[1:], separators):
        if not sep and text[-1].isdigit() and piece[0].isdigit():
            sep = " "  # digits would run on into the next factor's
        text, w = text + sep + piece, w * factor
    return text, w


# expression trees: generators, '1', (u)^e, [u, v]^e and juxtaposition,
# each as its text in letter 'x' and the word built by *, ** and commutator
EXPRESSIONS = st.recursive(
    _power(st.integers(0, 4).map(lambda i: (f"x{i}", generator(i)) if i else ("1", IDENTITY))),
    lambda inner: (
        _power(inner.map(lambda u: ("(" + u[0] + ")", u[1])))
        | _power(st.builds(lambda u, sep, v: ("[" + u[0] + sep + v[0] + "]", commutator(u[1], v[1])),
                           inner, st.sampled_from((",", ", ", " ,", ",\t", " * , ")), inner))
        | st.builds(_juxtapose, st.lists(inner, min_size=2, max_size=4),
                    st.lists(SEPARATORS, min_size=3, max_size=3))
    ),
    max_leaves=24,
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(expression=EXPRESSIONS, letter=st.sampled_from("xa"), before=SEPARATORS, after=SEPARATORS)
def test_parse_nested_expressions_match_composed_ops(expression, letter, before, after):
    text, expected = expression
    assert parse_word(before + text.replace("x", letter) + after, letter) == expected


def test_parse_long_flat_word_is_linear():
    # each factor's syllables go onto one stack; multiplying the accumulated
    # word by every factor copies it each time, about 13 s for these letters
    rng = random.Random(31)
    letters = [(rng.randint(1, 3), rng.choice((1, -1))) for _ in range(64_000)]
    text = " ".join(f"x{gen}^{exp}" for gen, exp in letters)
    start = time.process_time()
    w = parse_word(text)
    assert time.process_time() - start < 2.0
    assert w == reduce_word(letters)
    assert len(w.syllables) > 20_000


def test_parse_long_bracketed_word_is_linear():
    # each bracket's power is joined onto the word around it, once
    start = time.process_time()
    w = parse_word("[x1, x2]^2 " * 20_000)
    assert time.process_time() - start < 1.0
    assert w == commutator(x1, x2) ** 40_000


# ASCII, Arabic-Indic and fullwidth decimal digits
DIGIT_SETS = [str.maketrans("0123456789", "".join(chr(zero + i) for i in range(10)))
              for zero in (0x30, 0x660, 0xFF10)]


def _flat_text(rng, syllables, letter):
    """One spelling of ``syllables`` as flat parser input: each index and
    exponent with leading zeros and digits of a random script, ``^+k``, and
    any separator or none between factors."""
    def number(n):
        return ("0" * rng.choice((0, 0, 1, 2)) + str(n)).translate(rng.choice(DIGIT_SETS))

    pieces = [rng.choice(("", " ", "\t"))]
    for gen, exp in syllables:
        pieces.append(letter + number(gen))
        if exp != 1 or rng.random() < 0.3:
            pieces.append("^" + ("-" if exp < 0 else rng.choice(("", "+"))) + number(abs(exp)))
        pieces.append(rng.choice(("", " ", "\t", "*", " * ", "\t ")))
    return "".join(pieces)


def test_flat_texts_match_a_letter_level_reading():
    rng = random.Random(41)
    for _ in range(400):
        letter = rng.choice("xa")
        syllables = [(rng.randint(1, 4), rng.randint(-4, 4)) for _ in range(rng.randint(1, 12))]
        text = _flat_text(rng, syllables, letter)
        w = parse_word(text, letter)
        assert_canonical_word(w)
        assert letters_of(w.syllables) == reduce_letters(letters_of(syllables)), text


def test_alternate_letter():
    w = parse_word("a1 a2^-1", letter="a")
    assert w == x1 * ~x2
    assert print_word(w, letter="a") == "a1 a2^-1"


@pytest.mark.parametrize("letter", ["", "xa", "1", "0", "9", "\u0661", "\uff12", " ", "\t",
                                    "^", "+", "-", "*", "(", ")", "[", "]", ","])
def test_parse_refuses_letters_that_cannot_name_generators(letter):
    # '1' is the identity and '(' opens a bracket: neither names generators
    for text in ("1", "(1", "x1", ""):
        with pytest.raises(ValueError) as info:
            parse_word(text, letter=letter)
        assert type(info.value) is ValueError
        assert str(info.value) == f"cannot name generators by {letter!r}"
