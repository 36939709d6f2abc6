"""The degreewise-free simplicial group modelling loops on the 2-sphere.

Degree ``n`` holds the group on generators ``x1 ... x_{n+1}`` subject to the
single relation ``x1 x2 ... x_{n+1} = 1``.  Eliminating the last generator
via ``x_{n+1} = (x1 ... x_n)^-1`` makes the group free of rank ``n``; every
element is stored in that canonical form, so equality of elements is
structural equality of reduced words.  Degree 0 is the trivial group.

Faces and degeneracies act on generators by

    d_i x_j = x_j (j < i+1),   1 (j = i+1),          x_{j-1} (j > i+1)
    s_i x_j = x_j (j < i+1),   x_j x_{j+1} (j = i+1), x_{j+1} (j > i+1)

for ``0 <= i <= n``.  Each face and degeneracy is one pass over a word's
syllables whose image is already canonical in the target degree, except
``d_n``, which fixes ``x_n``, the generator eliminated one degree down; it
rewrites ``x_n`` in the same pass, as :func:`element` does.  The
kernel of ``d_i`` is the normal closure of ``x_{i+1}``, the Moore chains
are the intersection of the kernels of ``d_1..d_n``, and the Moore cycles
additionally lie in ``Ker d_0``.  The homology of the Moore complex
computes the homotopy groups of the loop space of the 2-sphere, and the
suspension-Hopf composition acts on cycles by ``z -> [s_0 z, s_1 z]``;
iterating it from the degree-1 generator yields the tower words returned
by :func:`eta_tower`.

Validation happens where values enter: a direct ``SimplicialElement(...)``
call checks the degree and the canonical generator range, :func:`element`
checks its input word's range, and :func:`eta_word` checks that its input
is a cycle.  Faces, degeneracies, the elimination of the last generator and
the tower step build their canonical results directly, in one unchecked
step; the tests rebuild such results through ``SimplicialElement(...)`` to
confirm the invariant.  An element keeps its degree and syllables in two
private slots behind read-only properties, and ``word`` wraps the syllables
in a :class:`Word` each time it is read, so faces, degeneracies and the
elimination build no ``Word``: one object and two plain slot stores.
Element equality is structural on ``(degree, syllables)``.
"""

from __future__ import annotations

from math import factorial
from operator import attrgetter

from . import _Value
from .words import (
    Syllable,
    Word,
    _check_syllables,
    _join,
    _word,
    commutator,
    conjugate,
    generator,
    in_normal_closure,
    parse_word,
    print_word,
    reduce_word,
)

__all__ = [
    "SimplicialElement",
    "NotACycleError",
    "element",
    "prefix_product",
    "face",
    "degeneracy",
    "is_moore_chain",
    "is_cycle",
    "eta_word",
    "eta_tower",
    "symmetric_commutator_sample",
    "meridian_word",
    "VARIANT_ETA_DEGREE3",
    "VARIANT_ETA_DEGREE4",
]


class NotACycleError(ValueError):
    """A Moore-cycle precondition failed."""


class SimplicialElement(_Value):
    """An element of the degree-``degree`` group, in canonical form.

    The element holds its degree and its reduced syllables, using only
    generators ``x1..x_degree``, in private slots; ``degree`` and ``word``
    are read-only properties, and ``word`` wraps the syllables in a
    :class:`Word` on each read.  Construct through :func:`element`, which
    rewrites ``x_{degree+1}`` away.
    """

    __slots__ = ("_degree", "_syllables")
    __match_args__ = ("degree", "word")

    def __init__(self, degree: int, word: Word) -> None:
        if degree < 0:
            raise ValueError(f"degree must be >= 0, got {degree}")
        if word.max_generator > degree:
            raise ValueError(
                f"word uses x{word.max_generator} but canonical degree-"
                f"{degree} words use only x1..x{degree}"
            )
        self._degree = degree
        self._syllables = word._syllables

    degree = property(attrgetter("_degree"), doc="The simplicial degree.")

    @property
    def word(self) -> Word:
        return _word(self._syllables)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._degree == other._degree and self._syllables == other._syllables
        return NotImplemented

    def __hash__(self) -> int:
        # hash((degree, word)), as Word hashes as hash((syllables,))
        return hash((self._degree, (self._syllables,)))

    @property
    def is_identity(self) -> bool:
        return not self._syllables

    def __str__(self) -> str:
        return f"degree={self.degree}; word={print_word(self.word)}"


def _element(degree: int, syllables: tuple[Syllable, ...]) -> SimplicialElement:
    """An element from syllables already reduced and canonical at
    ``degree``, unchecked: one object and two plain slot stores, past the
    checks of ``__init__``; no :class:`Word` is built until ``word`` is
    read."""
    e = object.__new__(SimplicialElement)
    e._degree = degree
    e._syllables = syllables
    return e


def prefix_product(k: int) -> Word:
    """The word ``x1 x2 ... xk`` (identity for ``k = 0``)."""
    _check_syllables(k, "the prefix product")
    return _word(tuple((i, 1) for i in range(1, k + 1)))


def _eliminate(degree: int, syllables: tuple[Syllable, ...]) -> tuple[Syllable, ...]:
    """``syllables`` on ``x1..x_{degree+1}`` with ``x_{degree+1}`` rewritten
    as ``(x1...x_degree)^-1``, reduced, in one pass.

    A power ``x_{degree+1}^e`` is joined as ``|e|`` copies of the run
    ``x_degree^-1 ... x1^-1`` (or of its inverse), which are reduced from
    degree 2 on, and other syllables are pushed inline; at degree 1, where
    ``x2 = x1^-1``, it is ``x1`` to an exponent sum, and at degree 0 the
    identity.  Syllables without ``x_{degree+1}`` are returned as they are,
    so only a word that holds it builds the two runs.
    """
    last = degree + 1
    for start, (gen, _) in enumerate(syllables):
        if gen == last:
            break
    else:
        return syllables
    if degree < 2:
        total = sum(exp if gen == 1 else -exp for gen, exp in syllables) if degree else 0
        return ((1, total),) if total else ()
    _check_syllables(degree, "the prefix product")
    # (x1 ... x_degree)^-1 and x1 ... x_degree, indexed by exp < 0
    runs = (tuple([(i, -1) for i in range(degree, 0, -1)]),
            tuple([(i, 1) for i in range(1, last)]))
    stack: list[Syllable] = list(syllables[:start])
    top = stack[-1][0] if stack else 0  # the generator of stack[-1], 0 for none
    for syllable in syllables[start:]:
        gen, exp = syllable
        if gen == last:
            _check_syllables(len(stack) + abs(exp) * degree, "the image")
            _join(stack, runs[exp < 0] * abs(exp))
            top = stack[-1][0] if stack else 0
        elif gen != top:
            stack.append(syllable)
            top = gen
        elif exp := stack.pop()[1] + exp:
            stack.append((gen, exp))
        else:
            top = stack[-1][0] if stack else 0
    return tuple(stack)


def element(degree: int, word: Word | str) -> SimplicialElement:
    """Build an element at ``degree``, rewriting into canonical form.

    ``word`` may use generators up to ``x_{degree+1}``; the last one is
    rewritten as ``(x1...x_degree)^-1`` in one pass that reduces as it
    goes.  At degree 0 every element collapses to the identity.
    """
    if isinstance(word, str):
        word = parse_word(word)
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    top = word.max_generator
    if top > degree + 1:
        raise ValueError(
            f"word uses x{top}; degree-{degree} elements allow at most x{degree + 1}"
        )
    return _element(degree, _eliminate(degree, word._syllables))


def face(i: int, e: SimplicialElement) -> SimplicialElement:
    """The ``i``-th face, a homomorphism from degree ``n`` to ``n - 1``.

    ``d_i`` for ``i < n`` deletes ``x_{i+1}`` and relabels the generators
    above it; ``d_n`` keeps every generator, and rewrites ``x_n``, the one
    eliminated at degree ``n - 1``, as :func:`element` does.
    """
    n = e._degree
    if n == 0:
        raise ValueError("degree-0 elements have no faces")
    if not 0 <= i <= n:
        raise ValueError(f"face index {i} out of range 0..{n}")
    if i == n:
        return _element(n - 1, _eliminate(n - 1, e._syllables))
    # delete, relabel and cancel in one pass, as in_normal_closure does;
    # top is the generator of stack[-1], 0 for an empty stack
    j, top = i + 1, 0
    stack: list[Syllable] = []
    for syllable in e._syllables:
        gen, exp = syllable
        if gen > j:
            gen -= 1
            syllable = (gen, exp)
        elif gen == j:
            continue
        if gen != top:
            stack.append(syllable)
            top = gen
        elif exp := stack.pop()[1] + exp:
            stack.append((gen, exp))
        else:
            top = stack[-1][0] if stack else 0
    return _element(n - 1, tuple(stack))


def degeneracy(i: int, e: SimplicialElement) -> SimplicialElement:
    """The ``i``-th degeneracy, a homomorphism from degree ``n`` to ``n + 1``."""
    n = e._degree
    if not 0 <= i <= n:
        raise ValueError(f"degeneracy index {i} out of range 0..{n}")
    j = i + 1
    # the relabelling is injective and x_j^e is written out as alternating
    # x_j, x_{j+1} letters, so no two neighbours share a generator
    out: list[Syllable] = []
    for syllable in e._syllables:
        gen, exp = syllable
        if gen < j:
            out.append(syllable)
        elif gen > j:
            out.append((gen + 1, exp))
        else:
            _check_syllables(len(out) + 2 * abs(exp), "the image")
            pair = ((j, 1), (j + 1, 1)) if exp > 0 else ((j + 1, -1), (j, -1))
            out.extend(pair * abs(exp))
    return _element(n + 1, tuple(out))


def is_moore_chain(e: SimplicialElement) -> bool:
    """True when faces 1..n all kill the element.

    For ``i < n``, ``d_i`` deletes ``x_{i+1}`` and relabels the other
    generators injectively, so it kills the element exactly when deleting
    ``x_{i+1}`` reduces the word to 1 (:func:`in_normal_closure`, no face
    built).  A word other than the identity fails at the first generator it
    lacks, so the loop never runs past its length, and the identity needs
    no loop.  ``d_n``, which rewrites ``x_n``, is tested on its syllables.
    """
    n, w = e._degree, e.word
    return e.is_identity or (
        all(in_normal_closure(w, a) for a in range(2, n + 1))
        and not _eliminate(n - 1, e._syllables)
    )


def is_cycle(e: SimplicialElement) -> bool:
    """True when every face (0..n) kills the element: ``d_0`` deletes
    ``x1``, and :func:`is_moore_chain` checks the rest.

    Equivalently the element lies in the normal closure of each generator
    ``x1..x_{n+1}`` of the degree-``n`` group.
    """
    return in_normal_closure(e.word, 1) and is_moore_chain(e)


def eta_word(z: SimplicialElement) -> SimplicialElement:
    """One suspension-Hopf step on a Moore cycle: ``z -> [s_0 z, s_1 z]``.

    The result is again a cycle, one degree up.  Raises
    :class:`NotACycleError` on non-cycle input.
    """
    if z.degree < 1:
        raise ValueError("eta_word needs degree >= 1")
    if not is_cycle(z):
        raise NotACycleError(f"not a Moore cycle: {z}")
    return _eta_step(z)


def _eta_step(z: SimplicialElement) -> SimplicialElement:
    """``[s_0 z, s_1 z]`` for a cycle ``z`` of degree >= 1, unchecked."""
    # a degeneracy turns each letter into at most two syllables, so the
    # commutator has at most eight per letter of z; checked before building
    _check_syllables(8 * sum(abs(exp) for _, exp in z._syllables), "the tower step")
    word = commutator(degeneracy(0, z).word, degeneracy(1, z).word)
    return _element(z._degree + 1, word._syllables)


def eta_tower(k: int) -> SimplicialElement:
    """The degree-``k`` iterated tower word.

    ``eta_tower(1)`` is ``x1`` (the degree-1 generator) and each further
    level applies the step of :func:`eta_word`; the result represents the
    k-fold Hopf-composite in the k-th homotopy group of the loop space.
    No level is re-tested as a cycle: ``x1`` is one, and the step maps
    cycles to cycles.  Each step checks the syllable budget before it
    builds, so ``k >= 11`` raises ``ValueError``.
    """
    if k < 1:
        raise ValueError(f"tower degree must be >= 1, got {k}")
    e = element(1, generator(1))
    for _ in range(k - 1):
        e = _eta_step(e)
    return e


def _nth_permutation(count: int, index: int) -> list[int]:
    """The ``index``-th permutation of ``0..count-1`` in factorial order."""
    pool = list(range(count))
    out = []
    remaining = factorial(count)
    index %= remaining
    while pool:
        remaining //= len(pool)
        pick, index = divmod(index, remaining)
        out.append(pool.pop(pick))
    return out


_CONJUGATOR_EXPONENTS = (1, -1, 2, -2)
_MAX_CONJUGATOR_SYLLABLES = 4


def _decode_conjugator(index: int, degree: int) -> Word:
    """Deterministically map an integer to a short conjugator word.

    Enumerates words of at most four syllables over ``x1..x_degree`` with
    exponents in ``{1, -1, 2, -2}``; index 0 is the identity.
    """
    choices = len(_CONJUGATOR_EXPONENTS) * degree
    syllables = []
    while index > 0 and len(syllables) < _MAX_CONJUGATOR_SYLLABLES:
        index -= 1
        code = index % choices
        index //= choices
        syllables.append((code // 4 + 1, _CONJUGATOR_EXPONENTS[code % 4]))
    return reduce_word(syllables)


def _conjugator_count(degree: int) -> int:
    choices = len(_CONJUGATOR_EXPONENTS) * degree
    return sum(choices ** length for length in range(_MAX_CONJUGATOR_SYLLABLES + 1))


def symmetric_commutator_sample(degree: int, seed: int) -> SimplicialElement:
    """A seeded element of the symmetric commutator subgroup of the kernels.

    Decodes ``seed`` (any nonnegative integer) into a permutation ``s`` of
    the face indices ``0..degree`` plus an exponent sign and a bounded
    conjugator per entry, then forms the left-normed iterated commutator

        [[g_0, g_1], ..., g_degree],   g_j = c_j x_{s(j)+1}^(+-1) c_j^-1.

    Each entry lies in ``Ker d_{s(j)}``, so the output is always a Moore
    cycle (a boundary, in fact).  Seed 0 gives the identity permutation
    with trivial conjugators, e.g. ``[[x1, x2], x3]`` at degree 2.
    """
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    entries = degree + 1
    seed, perm_index = seed // factorial(entries), seed % factorial(entries)
    perm = _nth_permutation(entries, perm_index)
    xlast = ~prefix_product(degree)  # canonical form of x_{degree+1}
    word: Word | None = None
    conj_count = _conjugator_count(degree)
    for j in range(entries):
        seed, sign_bit = seed // 2, seed % 2
        seed, conj_index = seed // conj_count, seed % conj_count
        kernel_gen = perm[j] + 1
        core = xlast if kernel_gen == degree + 1 else generator(kernel_gen)
        if sign_bit:
            core = ~core
        entry = conjugate(core, _decode_conjugator(conj_index, degree))
        word = entry if word is None else commutator(word, entry)
    assert word is not None
    return _element(degree, word._syllables)


def meridian_word(k: int) -> SimplicialElement:
    """The tower element labelling the ``k``-strand fibration link.

    The meridians ``a1..ak`` project isomorphically onto the sphere-group
    generators, so its word printed with letter ``a`` is the link's meridian
    word.  Supported sizes are 4 and 5, the first links whose labelling
    classes are the Hopf classes of order two.
    """
    if k not in (4, 5):
        raise ValueError(f"unsupported link size {k}; expected 4 or 5")
    return eta_tower(k - 1)


#: Variant of the degree-3 tower word with ``[a, x2]`` as the first inner
#: factor in place of the mechanical ``[a, x1 x2]`` (``a = x1 x2 x3``).  This
#: form circulates in the literature; it shares the tower word's
#: lower-central depth and trivial reduced expansion, but it is *not* a
#: Moore cycle (its second face is a nontrivial commutator).
VARIANT_ETA_DEGREE3 = element(3, "[[x1 x2 x3, x2], [x1 x2 x3, x1]]")

#: Degree-4 analogue of :data:`VARIANT_ETA_DEGREE3`, read with balanced
#: brackets: ``[[[a,x3],[a,x2]], [[a,x2 x3],[a,x1]]]`` for ``a = x1x2x3x4``.
#: Like the degree-3 variant it fails the cycle test (third face).
VARIANT_ETA_DEGREE4 = element(
    4,
    "[[[x1 x2 x3 x4, x3], [x1 x2 x3 x4, x2]],"
    " [[x1 x2 x3 x4, x2 x3], [x1 x2 x3 x4, x1]]]",
)
