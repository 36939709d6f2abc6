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
The parser reads a generator factor in one regular-expression match, onto
one reduced stack; a malformed one is read again on the token path, so its
error keeps its position.  The printer emits the reduced syllable form,
e.g. ``"x1 x2 x1 x2^-1 x1^-2"`` (``"1"`` for the identity), which the
parser accepts back.
"""

from __future__ import annotations

import re
from typing import Iterable, Mapping, NoReturn

from . import _decimal, _Frozen, _unwritable

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
        try:
            count = f"{bound}"
        except ValueError:  # past the int/str digit limit: a power of ten
            # below 2^(bits - 1) <= bound, as 0.30102 < log10(2)
            count = f"over 10^{(bound.bit_length() - 1) * 30102 // 100000}"
        raise ValueError(f"{what} may have {count} syllables; the limit is {_MAX_SYLLABLES}")


def _push(stack: list[Syllable], gen: int, exp: int) -> None:
    """Append one syllable to a reduced syllable stack, cancelling as needed."""
    if not exp:
        return
    if stack and stack[-1][0] == gen:
        if exp := stack.pop()[1] + exp:
            stack.append((gen, exp))
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


class Word(_Frozen):
    """A freely reduced word; ``Word()`` is the identity.

    Direct construction checks the reduction invariant and raises
    ``ValueError`` on malformed input; use :func:`reduce_word` to build a
    word from an arbitrary syllable sequence.
    """

    __slots__ = __match_args__ = ("syllables",)

    def __init__(self, syllables: tuple[Syllable, ...] = ()) -> None:
        previous = 0
        for syllable in syllables:
            gen, exp = syllable
            if gen < 1:
                raise ValueError(f"generator index must be >= 1, got {gen}")
            if exp == 0:
                raise ValueError("zero exponent in word")
            if gen == previous:
                raise ValueError("adjacent syllables share a generator; word is not reduced")
            previous = gen
        _set_syllables(self, syllables)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.syllables == other.syllables
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.syllables,))

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
        return _word(tuple([(gen, -exp) for gen, exp in reversed(self.syllables)]))

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


_set_syllables = Word.__dict__["syllables"].__set__


def _word(syllables: tuple[Syllable, ...]) -> Word:
    """A word from syllables already known to be reduced, unchecked: the
    field is written through its slot's descriptor, past the frozen
    ``__setattr__`` and the checks of ``__init__``."""
    w = object.__new__(Word)
    _set_syllables(w, syllables)
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
    stack = list(a.syllables)  # the four reduced factors, joined on one stack
    for factor in (b, ~a, ~b):
        _join(stack, factor.syllables)
    return _word(tuple(stack))


def conjugate(w: Word, g: Word) -> Word:
    """The conjugate ``g w g^-1``."""
    return g * w * ~g


class GeneratorMap(_Frozen):
    """A substitution homomorphism between free groups.

    ``images`` sends a generator index to the image word; indices missing
    from the mapping are fixed (``x_i -> x_i``).  Calling the map, as in
    ``GeneratorMap({2: IDENTITY})(w)``, always returns a reduced word, so
    the homomorphism law holds on the nose.
    """

    __match_args__ = ("images",)

    def __init__(self, images: Mapping[int, Word]) -> None:
        self.__dict__.update(images=images)

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
        elif exp := stack.pop()[1] + syllable[1]:
            stack.append((gen, exp))
        else:
            top = stack[-1][0] if stack else 0
    return not stack


def print_word(w: Word, letter: str = "x") -> str:
    """Render the reduced syllable form, ``"1"`` for the identity."""
    if w.is_identity:
        return "1"
    parts = []
    try:
        for gen, exp in w.syllables:
            parts.append(f"{letter}{gen}" if exp == 1 else f"{letter}{gen}^{exp}")
    except ValueError:  # an exponent past the int/str digit limit
        raise _unwritable(exp for _, exp in w.syllables) from None
    return " ".join(parts)


# The parser recurses two frames per bracket level (``_Parser.word`` and
# ``_Parser.bracket``); this keeps deep input a syntax error instead of a
# RecursionError.
_MAX_NESTING = 100

_SEPARATORS = re.compile(r"[ \t*]*")
_EXPONENT = re.compile(r"\^([+-]?)(\d*)")
_FACTOR = re.compile(r"(.)(\d*)(?:\^([+-]?\d*))?[ \t*]*", re.S)
_WORD_ENDS = ("", ")", "]", ",")


class WordSyntaxError(ValueError):
    """Malformed word expression; carries the 0-based offset of the error."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _integer(digits: str, position: int) -> int:
    try:
        return _decimal(digits)
    except ValueError as exc:  # over the digit limit, located at the first digit
        raise WordSyntaxError(str(exc), position) from None


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
        if not m[2]:
            raise WordSyntaxError("expected an integer", m.start(2))
        self.pos = m.end()
        exp = _integer(m[2], m.start(2))
        return -exp if m[1] == "-" else exp

    def word(self) -> Word:
        """Factors up to ``)``, ``]``, ``,`` or the end, on one stack, so
        each syllable is pushed once; a run of generator factors is read one
        match of :data:`_FACTOR` a factor, separators included."""
        stack: list[Syllable] = []
        ch = self.skip()
        if ch in _WORD_ENDS:
            raise WordSyntaxError("expected a word", self.pos)
        text, letter = self.text, self.letter
        while ch not in _WORD_ENDS:
            if ch == letter:
                pos = self.pos
                while (m := _FACTOR.match(text, pos)) and m[1] == letter:
                    try:
                        gen, exp = int(m[2]), 1 if m[3] is None else int(m[3])
                    except ValueError:  # no digits, or over the digit limit
                        gen = 0
                    if not gen:
                        self.refuse(m)
                    pos = m.end()
                    if exp and len(stack) >= _MAX_SYLLABLES:  # compared inline, per syllable
                        _check_syllables(len(stack) + 1, "the word")
                    _push(stack, gen, exp)
                self.pos = pos
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

    def refuse(self, m: re.Match) -> NoReturn:
        """Raise the token path's error for the malformed generator factor ``m``."""
        if not m[2]:
            raise WordSyntaxError(f"expected a generator index after {self.letter!r}", m.start(2))
        if not _integer(m[2], m.start(2)):
            raise WordSyntaxError("generator index must be >= 1", m.start(2))
        self.pos = m.end(2)
        self.exponent()  # the exponent is malformed, so this raises

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
    if not text.strip(" \t*"):  # nothing but separators
        return IDENTITY
    parser = _Parser(text, letter)
    word = parser.word()
    if parser.pos < len(text):
        raise WordSyntaxError(f"unexpected character {text[parser.pos]!r}", parser.pos)
    return word
