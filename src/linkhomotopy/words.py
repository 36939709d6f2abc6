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

import re
import sys
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

#: Most syllables a power, commutator, substitution, prefix product, tower
#: step or parsed word may build, checked from a closed-form bound before
#: building; the largest word in use, ``eta_tower(7)``, has 8,062.
_MAX_SYLLABLES = 2**20


def _check_syllables(bound: int, what: str) -> None:
    if bound > _MAX_SYLLABLES:
        raise ValueError(
            f"{what} may have {bound} syllables; the limit is {_MAX_SYLLABLES}"
        )


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


def _join(stack: list[Syllable], syllables: tuple[Syllable, ...]) -> None:
    """Append reduced ``syllables`` to the reduced ``stack``: only where the
    two meet can syllables cancel or merge."""
    j = 0
    while stack and j < len(syllables) and stack[-1][0] == syllables[j][0]:
        gen, exp = syllables[j]
        exp += stack.pop()[1]
        j += 1
        if exp:
            stack.append((gen, exp))
    stack.extend(syllables[j:])


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
        _join(stack, other.syllables)
        return _word(tuple(stack))

    def __pow__(self, n: int) -> "Word":
        if n == 0:
            return Word()
        s = self.syllables
        if abs(n) * len(s) > _MAX_SYLLABLES:
            # self = u c u^-1 with c cyclically reduced: u c^n u^-1, and a
            # one-syllable c takes its power in place
            u = 0
            while s[u][0] == s[-1 - u][0] and s[u][1] == -s[-1 - u][1]:
                u += 1
            core = len(s) - 2 * u
            _check_syllables(2 * u + (1 if core == 1 else abs(n) * core), "the power")
        if len(s) == 1:
            return _word(((s[0][0], s[0][1] * n),))
        base = self if n > 0 else ~self
        n = abs(n)
        result = Word()
        while True:
            if n & 1:
                result = result * base
            n >>= 1
            if not n:
                return result
            base = base * base

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
    _check_syllables(2 * (len(a.syllables) + len(b.syllables)), "the commutator")
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
            bound = len(stack) + abs(exp) * len(image.syllables)
            if bound > _MAX_SYLLABLES:  # compared here, as this runs per syllable
                _check_syllables(bound, "the image")
            piece = image if exp > 0 else ~image
            for _ in range(abs(exp)):
                for g, e in piece.syllables:
                    _push(stack, g, e)
        return _word(tuple(stack))


def in_normal_closure(w: Word, index: int) -> bool:
    """Decide membership of ``w`` in the normal closure of ``x_index``.

    In a free group a word lies in ``<<x_i>>`` exactly when killing ``x_i``
    reduces it to the identity, so this is an exact decision procedure.  One
    pass deletes the ``x_i`` syllables and cancels the rest on a stack.
    """
    if index < 1:
        raise ValueError(f"generator index must be >= 1, got {index}")
    stack: list[Syllable] = []
    top = 0  # the generator of stack[-1], 0 for an empty stack
    for syllable in w.syllables:
        gen = syllable[0]
        if gen == index:
            continue
        if gen != top:
            stack.append(syllable)
            top = gen
            continue
        exp = stack.pop()[1] + syllable[1]
        if exp:
            stack.append((gen, exp))
        else:
            top = stack[-1][0] if stack else 0
    return not stack


def print_word(w: Word, letter: str = "x") -> str:
    """Render the reduced syllable form, ``"1"`` for the identity."""
    if w.is_identity:
        return "1"
    parts = []
    for gen, exp in w.syllables:
        parts.append(f"{letter}{gen}" if exp == 1 else f"{letter}{gen}^{exp}")
    return " ".join(parts)


# The parser recurses two frames per bracket level (``_Parser.word`` and
# ``_Parser.bracket``); this keeps deep input a syntax error instead of a
# RecursionError.
_MAX_NESTING = 100

_SEPARATORS = re.compile(r"[ \t*]*")
_INDEX = re.compile(r"\d*")  # after the generator letter
_EXPONENT = re.compile(r"\^[+-]?(\d*)")
_WORD_ENDS = ("", ")", "]", ",")


class WordSyntaxError(ValueError):
    """Malformed word expression; carries the 0-based offset of the error."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _integer(token: str, position: int) -> int:
    try:
        return int(token)
    except ValueError:  # a sign and decimal digits fail only over the interpreter's limit
        raise WordSyntaxError(f"the integer has {len(token.lstrip('+-'))} digits; the "
                              f"limit is {sys.get_int_max_str_digits()}", position) from None


class _Parser:
    def __init__(self, text: str, letter: str):
        self.text = text
        self.letter = letter
        self.pos = 0
        self.depth = 0

    def skip(self) -> str:
        """Skip separators; return the next character, ``""`` at the end."""
        self.pos = _SEPARATORS.match(self.text, self.pos).end()
        return self.text[self.pos:self.pos + 1]

    def exponent(self) -> int:
        """A ``^`` and signed integer right after a base, else 1."""
        m = _EXPONENT.match(self.text, self.pos)
        if m is None:
            return 1
        if not m[1]:
            raise WordSyntaxError("expected an integer", m.start(1))
        self.pos = m.end()
        return _integer(m[0][1:], m.start(1))

    def word(self) -> Word:
        """Factors up to ``)``, ``]``, ``,`` or the end, on one stack, so
        each syllable is pushed once; a generator factor is pushed as its
        syllable."""
        stack: list[Syllable] = []
        ch = self.skip()
        if ch in _WORD_ENDS:
            raise WordSyntaxError("expected a word", self.pos)
        while ch not in _WORD_ENDS:
            if ch == self.letter:
                digits = _INDEX.match(self.text, self.pos + 1)
                if not digits[0]:
                    raise WordSyntaxError(
                        f"expected a generator index after {self.letter!r}", digits.start())
                index = _integer(digits[0], digits.start())
                if index == 0:
                    raise WordSyntaxError("generator index must be >= 1", digits.start())
                self.pos = digits.end()
                exp = self.exponent()
                if exp and len(stack) >= _MAX_SYLLABLES:  # compared inline, per syllable
                    _check_syllables(len(stack) + 1, "the word")
                _push(stack, index, exp)
            elif ch == "1":
                self.pos += 1
                self.exponent()  # every power of the identity is the identity
            elif ch in ("(", "["):
                factor = (self.bracket(ch) ** self.exponent()).syllables
                _check_syllables(len(stack) + len(factor), "the word")
                _join(stack, factor)
            else:
                raise WordSyntaxError(f"unexpected character {ch!r}", self.pos)
            ch = self.skip()
        return _word(tuple(stack))

    def bracket(self, ch: str) -> Word:
        """``(w)`` or ``[u, v]``, from its opening bracket ``ch``."""
        if self.depth == _MAX_NESTING:
            raise WordSyntaxError(f"nesting deeper than {_MAX_NESTING} levels", self.pos)
        self.depth += 1
        self.pos += 1
        inner = self.word()
        if ch == "[":
            self.close(",", "expected ',' in commutator")
            inner = commutator(inner, self.word())
            self.close("]", "expected ']'")
        else:
            self.close(")", "expected ')'")
        self.depth -= 1
        return inner

    def close(self, char: str, message: str) -> None:
        # word() has stopped on the next character, past any separators
        if not self.text.startswith(char, self.pos):
            raise WordSyntaxError(message, self.pos)
        self.pos += 1


def parse_word(text: str, letter: str = "x") -> Word:
    """Parse a word expression; an empty or all-separator string parses to
    the identity so that ``"1"``-producing pipelines round-trip.

    ``letter`` is the one character that names generators (``"x"`` reads
    ``x1 x2``, ``"a"`` reads ``a1 a2``).  Raises :class:`WordSyntaxError`
    with the offending position, in ``0..len(text)``, on malformed input,
    including a generator index of 0, an integer over the interpreter's
    int/str digit limit (at its first digit) and brackets nested deeper
    than ``_MAX_NESTING`` levels.
    """
    parser = _Parser(text, letter)
    if not parser.skip():
        return IDENTITY
    word = parser.word()
    if parser.pos < len(text):
        raise WordSyntaxError(f"unexpected character {text[parser.pos]!r}", parser.pos)
    return word
