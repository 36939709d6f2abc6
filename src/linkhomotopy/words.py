"""Exact arithmetic with reduced words in a finitely generated free group.

A word is stored as a tuple of syllables ``(generator, exponent)`` where
generators are 1-based integers (``x1, x2, ...``), exponents are nonzero
Python integers, and adjacent syllables never share a generator.  The empty
tuple is the identity.  Every operation reduces its result eagerly, so two
words represent the same group element exactly when they compare equal.

Validation happens where values enter: a direct ``Word(...)`` call checks
the reduction invariant, and :func:`reduce_word`, :func:`generator` and
:func:`parse_word` check generator indices.  Operations (``*``, ``~``,
``**``, :class:`GeneratorMap`) build their already reduced results directly,
without re-checking them; the tests rebuild such results through
``Word(...)`` to confirm the invariant.

Exponents are ordinary Python integers and therefore exact at any size;
overflow cannot occur.  Products and inverses are the operators ``*`` and
``~``; substitution homomorphisms are :class:`GeneratorMap` instances,
called on words.

The module also provides a parser/printer for a small expression grammar::

    word      := factor+
    factor    := base ('^' signed-integer)?
    base      := generator | '1' | '(' word ')' | '[' word ',' word ']'
    generator := 'x' positive-integer

Whitespace and ``'*'`` are interchangeable separators, ``[u, v]`` denotes
the commutator ``u v u^-1 v^-1``, and the literal ``1`` is the identity.
The printer emits the reduced syllable form, e.g.
``"x1 x2 x1 x2^-1 x1^-2"`` (``"1"`` for the identity), which the parser
accepts back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

__all__ = [
    "Word",
    "GeneratorMap",
    "WordSyntaxError",
    "IDENTITY",
    "reduce_word",
    "generator",
    "commutator",
    "conjugate",
    "in_normal_closure",
    "parse_word",
    "print_word",
]

Syllable = tuple[int, int]


def _push(stack: list[Syllable], gen: int, exp: int) -> None:
    """Append one syllable to a reduced syllable stack, cancelling as needed."""
    if exp == 0:
        return
    if stack and stack[-1][0] == gen:
        merged = stack[-1][1] + exp
        stack.pop()
        if merged != 0:
            stack.append((gen, merged))
    else:
        stack.append((gen, exp))


@dataclass(frozen=True)
class Word:
    """A freely reduced word; ``Word()`` is the identity.

    Direct construction checks the reduction invariant and raises
    ``ValueError`` on malformed input; use :func:`reduce_word` to build a
    word from an arbitrary syllable sequence.
    """

    syllables: tuple[Syllable, ...] = ()

    def __post_init__(self) -> None:
        previous = 0
        for syllable in self.syllables:
            gen, exp = syllable
            if gen < 1:
                raise ValueError(f"generator index must be >= 1, got {gen}")
            if exp == 0:
                raise ValueError("zero exponent in word")
            if gen == previous:
                raise ValueError("adjacent syllables share a generator; word is not reduced")
            previous = gen

    @property
    def is_identity(self) -> bool:
        return not self.syllables

    @property
    def length(self) -> int:
        """Number of letters, counting exponent multiplicity."""
        return sum(abs(exp) for _, exp in self.syllables)

    @property
    def max_generator(self) -> int:
        """Largest generator index occurring in the word (0 for the identity)."""
        return max((gen for gen, _ in self.syllables), default=0)

    def __invert__(self) -> "Word":
        return _word(tuple((gen, -exp) for gen, exp in reversed(self.syllables)))

    def __mul__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        stack = list(self.syllables)
        for gen, exp in other.syllables:
            _push(stack, gen, exp)
        return _word(tuple(stack))

    def __pow__(self, n: int) -> "Word":
        if n == 0:
            return Word()
        base = self if n > 0 else ~self
        n = abs(n)
        result = Word()
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __str__(self) -> str:
        return print_word(self)

    def __repr__(self) -> str:
        return f"Word({print_word(self)!r})"


def _word(syllables: tuple[Syllable, ...]) -> Word:
    """A word from syllables already known to be reduced, unchecked."""
    w = object.__new__(Word)
    object.__setattr__(w, "syllables", syllables)
    return w


IDENTITY = Word()


def reduce_word(raw: Iterable[Syllable]) -> Word:
    """Freely reduce an arbitrary syllable sequence.

    Idempotent: reducing an already reduced word returns an equal word.
    """
    stack: list[Syllable] = []
    for gen, exp in raw:
        if gen < 1:
            raise ValueError(f"generator index must be >= 1, got {gen}")
        _push(stack, gen, exp)
    return _word(tuple(stack))


def generator(index: int, exponent: int = 1) -> Word:
    """The word ``x_index ^ exponent`` (identity when the exponent is 0)."""
    if index < 1:
        raise ValueError(f"generator index must be >= 1, got {index}")
    if exponent == 0:
        return Word()
    return _word(((index, exponent),))


def commutator(a: Word, b: Word) -> Word:
    """The commutator ``[a, b] = a b a^-1 b^-1`` (this sign convention is
    used throughout the package)."""
    return a * b * ~a * ~b


def conjugate(w: Word, g: Word) -> Word:
    """The conjugate ``g w g^-1``."""
    return g * w * ~g


@dataclass(frozen=True)
class GeneratorMap:
    """A substitution homomorphism between free groups.

    ``images`` sends a generator index to the image word; indices missing
    from the mapping are fixed (``x_i -> x_i``).  Calling the map, as in
    ``GeneratorMap({2: IDENTITY})(w)``, always returns a reduced word, so
    the homomorphism law holds on the nose.
    """

    images: Mapping[int, Word]

    def __call__(self, w: Word) -> Word:
        stack: list[Syllable] = []
        for gen, exp in w.syllables:
            image = self.images.get(gen)
            if image is None:
                _push(stack, gen, exp)
                continue
            if not image.syllables:
                continue
            if len(image.syllables) == 1:
                # single-syllable images commute with taking powers
                g, e = image.syllables[0]
                _push(stack, g, e * exp)
                continue
            piece = image if exp > 0 else ~image
            for _ in range(abs(exp)):
                for g, e in piece.syllables:
                    _push(stack, g, e)
        return _word(tuple(stack))


def in_normal_closure(w: Word, index: int) -> bool:
    """Decide membership of ``w`` in the normal closure of ``x_index``.

    In a free group a word lies in ``<<x_i>>`` exactly when killing ``x_i``
    reduces it to the identity, so this is an exact decision procedure.
    """
    if index < 1:
        raise ValueError(f"generator index must be >= 1, got {index}")
    return GeneratorMap({index: IDENTITY})(w).is_identity


def print_word(w: Word, letter: str = "x") -> str:
    """Render the reduced syllable form, ``"1"`` for the identity."""
    if w.is_identity:
        return "1"
    parts = []
    for gen, exp in w.syllables:
        parts.append(f"{letter}{gen}" if exp == 1 else f"{letter}{gen}^{exp}")
    return " ".join(parts)


# The parser recurses three frames per bracket level; this keeps deep input
# a syntax error instead of a RecursionError.
_MAX_NESTING = 100


class WordSyntaxError(ValueError):
    """Malformed word expression; carries the 0-based offset of the error."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class _Parser:
    def __init__(self, text: str, letter: str):
        self.text = text
        self.letter = letter
        self.pos = 0
        self.depth = 0

    def error(self, message: str) -> WordSyntaxError:
        return WordSyntaxError(message, self.pos)

    def skip_separators(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t*":
            self.pos += 1

    def expect(self, char: str, message: str) -> None:
        self.skip_separators()
        if self.peek() != char:
            raise self.error(message)
        self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse_integer(self) -> int:
        start = self.pos
        if self.peek() in "+-":
            self.pos += 1
        digits = self.pos
        while self.peek().isdigit():
            self.pos += 1
        if self.pos == digits:
            raise self.error("expected an integer")
        return int(self.text[start:self.pos])

    def parse_generator(self) -> Word:
        self.pos += 1  # the generator letter
        start = self.pos
        while self.peek().isdigit():
            self.pos += 1
        if self.pos == start:
            raise self.error(f"expected a generator index after {self.letter!r}")
        index = int(self.text[start:self.pos])
        if index == 0:
            self.pos = start
            raise self.error("generator index must be >= 1")
        return generator(index)

    def parse_base(self) -> Word:
        ch = self.peek()
        if ch == self.letter:
            return self.parse_generator()
        if ch == "1":
            self.pos += 1
            return Word()
        if ch in ("(", "["):
            if self.depth == _MAX_NESTING:
                raise self.error(f"nesting deeper than {_MAX_NESTING} levels")
            self.depth += 1
            self.pos += 1
            inner = self.parse_word()
            if ch == "[":
                self.expect(",", "expected ',' in commutator")
                inner = commutator(inner, self.parse_word())
                self.expect("]", "expected ']'")
            else:
                self.expect(")", "expected ')'")
            self.depth -= 1
            return inner
        if ch == "":
            raise self.error("unexpected end of input")
        raise self.error(f"unexpected character {ch!r}")

    def parse_factor(self) -> Word:
        base = self.parse_base()
        if self.peek() == "^":
            self.pos += 1
            return base ** self.parse_integer()
        return base

    def parse_word(self) -> Word:
        result = Word()
        count = 0
        while True:
            self.skip_separators()
            if self.peek() in ("", ")", "]", ","):
                break
            result = result * self.parse_factor()
            count += 1
        if count == 0:
            raise self.error("expected a word")
        return result


def parse_word(text: str, letter: str = "x") -> Word:
    """Parse a word expression; an empty or all-separator string parses to
    the identity so that ``"1"``-producing pipelines round-trip.

    Raises :class:`WordSyntaxError` with the offending position on malformed
    input, including a generator index of 0 and brackets nested deeper than
    ``_MAX_NESTING`` levels.
    """
    parser = _Parser(text, letter)
    parser.skip_separators()
    if parser.peek() == "":
        return Word()
    word = parser.parse_word()
    parser.skip_separators()
    if parser.peek() != "":
        raise parser.error(f"unexpected character {parser.peek()!r}")
    return word
