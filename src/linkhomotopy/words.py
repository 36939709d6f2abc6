"""Exact arithmetic with reduced words in a finitely generated free group.

A word is stored as a tuple of syllables ``(generator, exponent)`` where
generators are 1-based integers (``x1, x2, ...``), exponents are nonzero
Python integers, and adjacent syllables never share a generator.  The empty
tuple is the identity.  Every operation reduces its result eagerly, so two
words represent the same group element exactly when they compare equal.

Validation happens where values enter: a direct ``Word(...)`` call checks
the reduction invariant, and :func:`reduce_word`, :func:`generator` and
:func:`parse_word` check generator indices.  ``Word(...)``, :func:`reduce_word`
and :func:`generator` raise ``TypeError`` for an index or exponent that
``operator.index`` refuses, and :func:`in_normal_closure` for such an
index.  Operations (``*``, ``~``, ``**``,
:class:`GeneratorMap`) build their already reduced results directly, without
re-checking them; the tests rebuild such results through ``Word(...)`` to
confirm the invariant.

Exponents are ordinary Python integers and therefore exact at any size;
overflow cannot occur.  Products and inverses are the operators ``*`` and
``~``; ``w ** n`` splits ``w = u c u^-1``, ``c`` cyclically reduced, and
builds ``u c^n u^-1`` in one step from ``|n|`` copies of ``c``.
Substitution homomorphisms are :class:`GeneratorMap` instances, called on
words.

The module also provides a parser/printer for a small expression grammar::

    word      := factor+
    factor    := base ('^' signed-integer)?
    base      := generator | '1' | '(' word ')' | '[' word ',' word ']'
    generator := 'x' positive-integer

Whitespace and ``'*'`` are interchangeable separators, ``[u, v]`` denotes
the commutator ``u v u^-1 v^-1``, and the literal ``1`` is the identity.
The parser reads each factor, malformed ones too, in one regular-expression
match, and keeps the words around open brackets on an explicit stack.  The
printer emits the reduced syllable form, e.g. ``"x1 x2 x1 x2^-1 x1^-2"``
(``"1"`` for the identity), which the parser reads back with the same
letter; both refuse a letter that could not be read back.
"""

from __future__ import annotations

import re
from operator import attrgetter, index as _index
from typing import Iterable, Mapping

from . import _decimal, _Frozen, _unwritable, _Value

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

#: Most syllables a product, power, commutator, substitution, prefix product,
#: tower step or parsed word may build, checked from a closed-form bound
#: before building; the largest word in use, ``eta_tower(7)``, has 8,062.
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


class Word(_Value):
    """A freely reduced word; ``Word()`` is the identity.

    Direct construction checks the reduction invariant and raises
    ``ValueError`` on malformed input (``TypeError`` on a non-integer); use
    :func:`reduce_word` to build a word from an arbitrary syllable sequence.
    ``syllables`` is a read-only property over the private ``_syllables`` slot.
    """

    __slots__ = ("_syllables",)
    __match_args__ = ("syllables",)

    def __init__(self, syllables: tuple[Syllable, ...] = ()) -> None:
        previous = 0
        for syllable in syllables:
            gen, exp = syllable
            if _index(gen) < 1:
                raise ValueError(f"generator index must be >= 1, got {gen}")
            if _index(exp) == 0:
                raise ValueError("zero exponent in word")
            if gen == previous:
                raise ValueError("adjacent syllables share a generator; word is not reduced")
            previous = gen
        self._syllables = syllables

    syllables = property(attrgetter("_syllables"), doc="The reduced syllables, a tuple.")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._syllables == other._syllables
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._syllables,))

    @property
    def is_identity(self) -> bool:
        return not self._syllables

    @property
    def length(self) -> int:
        """Number of letters, counting exponent multiplicity."""
        return sum(abs(exp) for _, exp in self._syllables)

    @property
    def max_generator(self) -> int:
        """Largest generator index occurring in the word (0 for the identity)."""
        return max((gen for gen, _ in self._syllables), default=0)

    def __invert__(self) -> "Word":
        return _word(tuple([(gen, -exp) for gen, exp in reversed(self._syllables)]))

    def __mul__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        _check_syllables(len(self._syllables) + len(other._syllables), "the product")
        stack = list(self._syllables)
        _join(stack, other._syllables)
        return _word(tuple(stack))

    def __pow__(self, n: int) -> "Word":
        if not isinstance(n, int):
            return NotImplemented
        s = self._syllables
        if not (n and s):
            return IDENTITY
        # s = u c u^-1 with c cyclically reduced: u c^n u^-1, and a
        # one-syllable c takes its power in place
        u = 0
        while s[u][0] == s[-1 - u][0] and s[u][1] == -s[-1 - u][1]:
            u += 1
        c = s[u:len(s) - u] if u else s
        if (bound := 2 * u + (1 if len(c) == 1 else abs(n) * len(c))) > _MAX_SYLLABLES:
            _check_syllables(bound, "the power")
        if n < 0 and len(c) > 1:  # (u c u^-1)^-1 = u c^-1 u^-1
            c, n = tuple([(gen, -exp) for gen, exp in reversed(c)]), -n
        if len(c) == 1:
            power = ((c[0][0], c[0][1] * n),)
        elif c[0][0] != c[-1][0]:
            power = c * n
        else:  # the ends merge, never to exponent 0, as u stopped there
            power = c[:-1] + (((c[0][0], c[0][1] + c[-1][1]),) + c[1:-1]) * (n - 1) + c[-1:]
        return _word(s[:u] + power + s[len(s) - u:] if u else power)

    def __str__(self) -> str:
        return print_word(self)

    def __repr__(self) -> str:
        return f"Word({print_word(self)!r})"


def _word(syllables: tuple[Syllable, ...]) -> Word:
    """A word from syllables already known to be reduced, unchecked: one
    object and one plain slot store, past the checks of ``__init__``."""
    w = object.__new__(Word)
    w._syllables = syllables
    return w


IDENTITY = Word()


def reduce_word(raw: Iterable[Syllable]) -> Word:
    """Freely reduce an arbitrary syllable sequence.

    Idempotent: reducing an already reduced word returns an equal word.
    """
    stack: list[Syllable] = []
    for gen, exp in raw:
        if _index(gen) < 1:
            raise ValueError(f"generator index must be >= 1, got {gen}")
        _push(stack, gen, _index(exp))
    return _word(tuple(stack))


def generator(index: int, exponent: int = 1) -> Word:
    """The word ``x_index ^ exponent`` (identity when the exponent is 0)."""
    if _index(index) < 1:
        raise ValueError(f"generator index must be >= 1, got {index}")
    if _index(exponent) == 0:
        return Word()
    return _word(((index, exponent),))


def commutator(a: Word, b: Word) -> Word:
    """The commutator ``[a, b] = a b a^-1 b^-1`` (this sign convention is
    used throughout the package)."""
    _check_syllables(2 * (len(a._syllables) + len(b._syllables)), "the commutator")
    stack = list(a._syllables)  # the four reduced factors, joined on one stack
    for factor in (b, ~a, ~b):
        _join(stack, factor._syllables)
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
        for gen, exp in w._syllables:
            image = self.images.get(gen)
            if image is not None and len(image._syllables) > 1:
                bound = len(stack) + abs(exp) * len(image._syllables)
                if bound > _MAX_SYLLABLES:  # compared here, as this runs per syllable
                    _check_syllables(bound, "the image")
            _join(stack, ((gen, exp),) if image is None else (image ** exp)._syllables)
        return _word(tuple(stack))


def in_normal_closure(w: Word, index: int) -> bool:
    """Decide membership of ``w`` in the normal closure of ``x_index``.

    In a free group a word lies in ``<<x_i>>`` exactly when killing ``x_i``
    reduces it to the identity, so this is an exact decision procedure.  One
    pass deletes the ``x_i`` syllables and cancels the rest on a stack.
    """
    if _index(index) < 1:
        raise ValueError(f"generator index must be >= 1, got {index}")
    stack: list[Syllable] = []
    top = 0  # the generator of stack[-1], 0 for an empty stack
    for syllable in w._syllables:
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


def _check_letter(letter: str) -> None:
    if len(letter) != 1 or letter.isdecimal() or letter in " \t^+-*()[],":
        raise ValueError(f"cannot name generators by {letter!r}")


def print_word(w: Word, letter: str = "x") -> str:
    """Render the reduced syllable form, ``"1"`` for the identity."""
    _check_letter(letter)
    if w.is_identity:
        return "1"
    parts = []
    try:
        for gen, exp in w._syllables:
            parts.append(f"{letter}{gen}" if exp == 1 else f"{letter}{gen}^{exp}")
    except ValueError:  # an exponent past the int/str digit limit
        raise _unwritable(exp for _, exp in w._syllables) from None
    return " ".join(parts)


#: Most brackets that may be open at once; deeper input is a syntax error.
_MAX_NESTING = 100

#: One factor and the separators after it: any character but ``1`` and the
#: brackets and comma (group 1) with its index digits (group 2), or ``1`` or
#: a closing bracket (group 3), then an optional exponent (group 4); or an
#: opening bracket or comma (group 5) alone; or the end of the text.
_FACTOR = re.compile(r"(?:([^1()\[\],])(\d*)|([1)\]]))(?:\^([+-]?\d*))?[ \t*]*|([(\[,])[ \t*]*|\Z")


class WordSyntaxError(ValueError):
    """Malformed word expression; carries the 0-based offset of the error."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _integer(token: str, position: int, missing: str = "expected an integer") -> int:
    """The integer an index or a signed exponent spells, ``token`` starting
    at ``position`` in the text.  Raises ``missing`` when it has no digits,
    and the digit limit's message over that limit, at its first digit; so
    a factor that ``int`` refuses is reported from the groups read once."""
    digits = token.lstrip("+-")
    position += len(token) - len(digits)
    if not digits:
        raise WordSyntaxError(missing, position)
    try:
        value = _decimal(digits)
    except ValueError as exc:
        raise WordSyntaxError(str(exc), position) from None
    return -value if token[0] == "-" else value


def parse_word(text: str, letter: str = "x") -> Word:
    """Parse a word expression; an empty or all-separator string parses to
    the identity so that ``"1"``-producing pipelines round-trip.

    ``letter`` is the one character that names generators (``"x"`` reads
    ``x1 x2``, ``"a"`` reads ``a1 a2``); any other string, a decimal digit,
    a separator or a character of the grammar raises ``ValueError``.
    Raises :class:`WordSyntaxError` with the offending position, in
    ``0..len(text)``, on malformed input, including a generator index of 0,
    an integer over the interpreter's int/str digit limit (at its first
    digit) and more than ``_MAX_NESTING`` open brackets.

    One loop reads the text, one match of :data:`_FACTOR` a factor, and
    pushes each syllable once, onto the innermost open word.  An opening
    bracket keeps the word around it on an explicit stack until its closing
    bracket joins the bracket's power onto that word.
    """
    _check_letter(letter)
    if not text.strip(" \t*"):  # nothing but separators
        return IDENTITY
    stack: list[Syllable] = []  # the innermost open word
    # per open bracket: the character that may end its word, the word
    # around it and, once a commutator has read its ',', its left word
    brackets: list[tuple[str, list[Syllable], Word | None]] = []
    start = pos = len(text) - len(text.lstrip(" \t*"))  # where the innermost word starts
    while True:
        m = _FACTOR.match(text, pos)
        if (ch := m[1]) == letter:
            digits, power = m[2], m[4]
            try:
                gen, exp = int(digits), 1 if power is None else int(power)
            except ValueError:  # no digits, or over the digit limit
                gen = 0
            if not gen:
                if not _integer(digits, m.start(2), f"expected a generator index after {letter!r}"):
                    raise WordSyntaxError("generator index must be >= 1", m.start(2))
                _integer(power, m.start(4))  # the exponent is malformed, so this raises
            if exp and len(stack) >= _MAX_SYLLABLES:  # compared inline, per syllable
                _check_syllables(len(stack) + 1, "the word")
            _push(stack, gen, exp)
            pos = m.end()
            continue
        if ch is not None:
            raise WordSyntaxError(f"unexpected character {ch!r}", pos)
        ch = m[3] or m[5] or ""  # "" at the end of the text
        if ch == "1":
            if m[4] is not None:
                _integer(m[4], m.start(4))  # every power of the identity is the identity
            pos = m.end()
            continue
        if ch == "(" or ch == "[":
            if len(brackets) == _MAX_NESTING:
                raise WordSyntaxError(f"nesting deeper than {_MAX_NESTING} levels", pos)
            brackets.append((")" if ch == "(" else ",", stack, None))
            stack = []
            start = pos = m.end()
            continue
        # ch ends the innermost word: ',', ')', ']' or the end of the text
        if pos == start:
            raise WordSyntaxError("expected a word", pos)
        if not brackets:
            if ch:
                raise WordSyntaxError(f"unexpected character {ch!r}", pos)
            return _word(tuple(stack))
        end, outer, left = brackets.pop()
        inner = _word(tuple(stack)) if left is None else commutator(left, _word(tuple(stack)))
        if ch != end:
            raise WordSyntaxError(f"expected {end!r}" + " in commutator" * (end == ","), pos)
        if ch == ",":
            brackets.append(("]", outer, inner))
            stack = []
            start = pos = m.end()
            continue
        if m[4] is not None:
            inner **= _integer(m[4], m.start(4))
        _check_syllables(len(outer) + len(inner._syllables), "the word")
        _join(outer, inner._syllables)
        stack = outer
        pos = m.end()
