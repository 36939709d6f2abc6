"""The value contract of every immutable type in the package: equality by
class and fields, hashing, the ``repr`` text, copies and pickle round trips,
frozen fields, defaults, and the messages of direct-construction checks and
of the public functions' argument checks."""

from operator import mul

import pytest

from linkhomotopy import (
    COUNTABLE,
    IDENTITY,
    ClassificationResult,
    Cyclic,
    DirectSum,
    FreeAbelian,
    GeneratorMap,
    LinkProfile,
    MagnusSeries,
    PiOfSphere,
    PiOfWedge,
    ProfileError,
    ProfileFormatError,
    SimplicialElement,
    SphereWedge,
    Trivial,
    Word,
    build_profile,
    element,
    gamma_class_lower_bound,
    generator,
    mu_coefficient,
    parse_profile,
    reduce_word,
    reduced_expand,
    symmetric_commutator_sample,
)
from linkhomotopy.homotopy import SymbolicGroup, TableEntry
from linkhomotopy.magnus import CheckResult, InvisibilityReport
from conftest import assert_frozen_value

X1 = generator(1)
PASS = CheckResult("moore cycle", True, "all faces vanish")
HOPF2 = build_profile(2, "hopf")

# name: (value, an equal value built apart, a value of the same class that
# differs in one field or None, the exact repr, whether it hashes)
VALUES = {
    "Word": (Word(((1, 1), (2, -3))), Word(((1, 1), (2, -3))), X1,
             "Word('x1 x2^-3')", True),
    "GeneratorMap": (GeneratorMap({2: IDENTITY}), GeneratorMap({2: Word()}),
                     GeneratorMap({2: X1}), "GeneratorMap(images={2: Word('1')})", False),
    "SimplicialElement": (
        SimplicialElement(2, Word(((2, -1), (1, -1)))),
        SimplicialElement(degree=2, word=Word(((2, -1), (1, -1)))),
        SimplicialElement(3, Word(((2, -1), (1, -1)))),
        "SimplicialElement(degree=2, word=Word('x2^-1 x1^-1'))", True),
    "MagnusSeries": (MagnusSeries(2, {(): 1, (1, 2): 1}),
                     MagnusSeries(truncation=2, terms={(): 1, (1, 2): 1}),
                     MagnusSeries(3, {(): 1, (1, 2): 1}),
                     "MagnusSeries(truncation=2, terms={(): 1, (1, 2): 1})", False),
    "CheckResult": (PASS, CheckResult(name="moore cycle", passed=True,
                                      detail="all faces vanish"),
                    CheckResult("moore cycle", False, "all faces vanish"),
                    "CheckResult(name='moore cycle', passed=True, detail='all faces vanish')",
                    True),
    "InvisibilityReport": (
        InvisibilityReport(4, (PASS,), ()),
        InvisibilityReport(link_size=4, checks=(PASS,), variant_checks=()),
        InvisibilityReport(4, (PASS,), (PASS,)),
        "InvisibilityReport(link_size=4, checks=(CheckResult(name='moore cycle', "
        "passed=True, detail='all faces vanish'),), variant_checks=())", True),
    "Trivial": (Trivial(), Trivial(), None, "Trivial()", True),
    "Cyclic": (Cyclic(12), Cyclic(order=12), Cyclic(2), "Cyclic(order=12)", True),
    "FreeAbelian": (FreeAbelian(COUNTABLE), FreeAbelian(rank="countable"), FreeAbelian(),
                    "FreeAbelian(rank='countable')", True),
    "SphereWedge": (SphereWedge((3, 2), "K"), SphereWedge(dims=(2, 3), group_factor="K"),
                    SphereWedge((2, 3)), "SphereWedge(dims=(2, 3), group_factor='K')", True),
    "PiOfSphere": (PiOfSphere(6, 3), PiOfSphere(n=6, m=3), PiOfSphere(6, 2),
                   "PiOfSphere(n=6, m=3)", True),
    "PiOfWedge": (PiOfWedge(3, SphereWedge((2, 2))), PiOfWedge(n=3, wedge=SphereWedge((2, 2))),
                  PiOfWedge(3, SphereWedge((2,))),
                  "PiOfWedge(n=3, wedge=SphereWedge(dims=(2, 2), group_factor=None))", True),
    "SymbolicGroup": (SymbolicGroup("G"), SymbolicGroup(text="G"), SymbolicGroup("H"),
                      "SymbolicGroup(text='G')", True),
    "DirectSum": (DirectSum((Cyclic(2), FreeAbelian())),
                  DirectSum(parts=(Cyclic(2), FreeAbelian(1))), DirectSum((Cyclic(2),)),
                  "DirectSum(parts=(Cyclic(order=2), FreeAbelian(rank=1)))", True),
    "TableEntry": (TableEntry(Cyclic(2), "builtin"),
                   TableEntry(group=Cyclic(2), provenance="builtin", user_supplied=False),
                   TableEntry(Cyclic(2), "builtin", True),
                   "TableEntry(group=Cyclic(order=2), provenance='builtin', "
                   "user_supplied=False)", True),
    "LinkProfile": (HOPF2, LinkProfile(size=2, nu=dict(HOPF2.nu)),
                    build_profile(2, "trivial"),
                    "LinkProfile(size=2, nu={frozenset(): -1, frozenset({1}): 0, "
                    "frozenset({2}): 0, frozenset({1, 2}): 0})", False),
    "ClassificationResult": (
        ClassificationResult(Trivial(), None, "route", ("note",)),
        ClassificationResult(group=Trivial(), symbolic_form=None, method="route",
                             notes=("note",)),
        ClassificationResult(Trivial(), None, "route"),
        "ClassificationResult(group=Trivial(), symbolic_form=None, method='route', "
        "notes=('note',))", True),
}


class Twin:
    """Another class whose instances carry the same field values."""

    def __init__(self, value):
        self.__match_args__ = type(value).__match_args__
        for name in self.__match_args__:
            setattr(self, name, getattr(value, name))


@pytest.mark.parametrize("name", VALUES)
def test_value_contract(name):
    value, same, other, text, hashable = VALUES[name]
    assert type(value).__name__ == name
    assert value == same and not value != same
    assert value != other and not value == other
    twin = Twin(value)
    assert value.__eq__(twin) is NotImplemented
    assert value != twin and twin != value
    if hashable:
        assert hash(value) == hash(same)
    else:
        with pytest.raises(TypeError):
            hash(value)
    assert repr(value) == text
    assert_frozen_value(value, hashable)


def test_value_defaults():
    assert Word() == IDENTITY and Word().syllables == ()
    assert MagnusSeries(3).terms == {}
    assert MagnusSeries(3).terms is not MagnusSeries(3).terms
    assert FreeAbelian() == FreeAbelian(1)
    assert (SphereWedge().dims, SphereWedge().group_factor) == ((), None)
    assert TableEntry(Trivial(), "x").user_supplied is False
    assert ClassificationResult(None, None, "m").notes == ()
    # the wedge stores its dimensions sorted, whatever order they came in
    assert SphereWedge([4, 2, 3]).dims == (2, 3, 4)


NU_HOPF2 = dict(HOPF2.nu)

# (constructor, arguments, exception type, exact message)
REFUSALS = [
    (Word, (((0, 1),),), ValueError, "generator index must be >= 1, got 0"),
    (Word, (((1, 0),),), ValueError, "zero exponent in word"),
    (Word, (((1, 1), (1, 2)),), ValueError,
     "adjacent syllables share a generator; word is not reduced"),
    (SimplicialElement, (-1, IDENTITY), ValueError, "degree must be >= 0, got -1"),
    (SimplicialElement, (1, generator(2)), ValueError,
     "word uses x2 but canonical degree-1 words use only x1..x1"),
    (MagnusSeries, (0,), ValueError, "truncation must be >= 1, got 0"),
    (MagnusSeries, (2, {(1,): 0}), ValueError, "stored zero coefficient"),
    (MagnusSeries, (1, {(1, 2): 1}), ValueError, "monomial exceeds truncation degree"),
    (Cyclic, (1,), ValueError, "cyclic order must be >= 2, got 1"),
    (FreeAbelian, (0,), ValueError, "rank must be a positive integer or 'countable'"),
    (FreeAbelian, ("many",), ValueError, "rank must be a positive integer or 'countable'"),
    (SphereWedge, ((2, 1),), ValueError, "sphere dimensions must be >= 2"),
    (PiOfSphere, (0, 2), ValueError, "sphere homotopy indices must be >= 1"),
    (LinkProfile, (0, {}), ProfileError, "component count must be >= 1, got 0"),
    (LinkProfile, (2, {frozenset(): -1}), ProfileError,
     "profile must assign a genus to all 4 sublinks, got 1"),
    (LinkProfile, (2, {**NU_HOPF2, frozenset({1, 2}): 0, frozenset({3}): 0}), ProfileError,
     "profile must assign a genus to all 4 sublinks, got 5"),
    (LinkProfile, (1, {frozenset(): -1, frozenset({2}): 0}), ProfileError,
     "sublink {2} is not within 1..1"),
    (LinkProfile, (2, {**NU_HOPF2, frozenset(): 0}), ProfileError,
     "the empty sublink must have genus -1"),
    (LinkProfile, (2, {**NU_HOPF2, frozenset({1}): 1}), ProfileError,
     "a single component is a knot and must have genus 0, got 1 on {1}"),
    (LinkProfile, (2, {**NU_HOPF2, frozenset({1, 2}): 2}), ProfileError,
     "genus of [1, 2] must lie in 0..1, got 2"),
]


@pytest.mark.parametrize("make, args, error, message", REFUSALS,
                         ids=[f"{row[0].__name__}-{i}" for i, row in enumerate(REFUSALS)])
def test_value_refusals(make, args, error, message):
    with pytest.raises(error) as refused:
        make(*args)
    assert type(refused.value) is error
    assert str(refused.value) == message


# (function, arguments, exception type, exact message): argument checks of
# the public functions, the profile parser's line-numbered refusals, a
# product with a non-word, powers with a non-integer exponent and words
# with a non-integer index or exponent
NOT_INT = "'float' object cannot be interpreted as an integer"
CALL_REFUSALS = [
    (gamma_class_lower_bound, (X1, 0), ValueError, "max_degree must be >= 1, got 0"),
    (reduced_expand, (X1, 0), ValueError, "truncation must be >= 1, got 0"),
    (mu_coefficient, (X1, (0, 1)), ValueError, "indices must be >= 1"),
    (symmetric_commutator_sample, (2, -1), ValueError, "seed must be nonnegative"),
    (reduce_word, ([(0, 1)],), ValueError, "generator index must be >= 1, got 0"),
    (generator, (0,), ValueError, "generator index must be >= 1, got 0"),
    (element, (-1, "1"), ValueError, "degree must be >= 0, got -1"),
    (parse_profile, ("nu empty -1\n",), ProfileFormatError,
     "<profile>:1: 'nu' must follow 'components'"),
    (parse_profile, ("components 1\nnu empty\n",), ProfileFormatError,
     "<profile>:2: expected 'nu <subset> <integer>'"),
    (mul, (X1, 3), TypeError, "unsupported operand type(s) for *: 'Word' and 'int'"),
    (pow, (X1, 1.5), TypeError, "unsupported operand type(s) for ** or pow(): 'Word' and 'float'"),
    (pow, (Word(((2, 1), (1, 1), (2, -1))), 2.0), TypeError,
     "unsupported operand type(s) for ** or pow(): 'Word' and 'float'"),
    (Word, (((1, 1.5),),), TypeError, NOT_INT),
    (Word, (((1.5, 1),),), TypeError, NOT_INT),
    (reduce_word, ([(1, 1.5)],), TypeError, NOT_INT),
    (generator, (1, 1.5), TypeError, NOT_INT),
    (generator, (1.5,), TypeError, NOT_INT),
    (reduced_expand, (IDENTITY, 0), ValueError, "truncation must be >= 1, got 0"),
    (reduced_expand, (Word(((1, 1), (2, 1), (3, 1))), -5), ValueError,
     "truncation must be >= 1, got -5"),
]


@pytest.mark.parametrize("call, args, error, message", CALL_REFUSALS,
                         ids=[f"{row[0].__name__}-{i}" for i, row in enumerate(CALL_REFUSALS)])
def test_call_refusals(call, args, error, message):
    with pytest.raises(error) as refused:
        call(*args)
    assert type(refused.value) is error
    assert str(refused.value) == message


def test_numpy_integers_still_build_words():
    np = pytest.importorskip("numpy")
    one, two = np.int64(1), np.int64(2)
    for word in (Word(((one, two),)), reduce_word([(one, two)]), generator(one, two)):
        assert word == Word(((1, 2),))
        assert str(word) == "x1^2"


SLOTTED = (Word, SimplicialElement)


def test_slotted_values_keep_object_setattr():
    # their constructors write the private slots with plain stores, which
    # a Python-level __setattr__ in the class's MRO would slow down
    for cls in SLOTTED:
        assert cls.__setattr__ is object.__setattr__
        assert cls.__delattr__ is object.__delattr__
    e = VALUES["SimplicialElement"][0]
    assert e.word.__reduce__() == (Word, (e.word.syllables,))
    assert e.__reduce__() == (SimplicialElement, (e.degree, e.word))
    for value in (e.word, e):
        assert not hasattr(value, "__dict__")
        for name in type(value).__match_args__:
            with pytest.raises(AttributeError):
                setattr(value, name, getattr(value, name))
            with pytest.raises(AttributeError):
                delattr(value, name)
        with pytest.raises(AttributeError):
            value.other = 1
    assert (e.degree, e.word) == (2, Word(((2, -1), (1, -1))))


@pytest.mark.parametrize("name", [name for name, row in VALUES.items()
                                  if type(row[0]) not in SLOTTED])
def test_dict_backed_values_refuse_writes(name):
    value = VALUES[name][0]
    for field in (*type(value).__match_args__, "other"):
        with pytest.raises(AttributeError) as refused:
            setattr(value, field, None)
        assert str(refused.value) == f"cannot assign to field {field!r}"
        with pytest.raises(AttributeError) as refused:
            delattr(value, field)
        assert str(refused.value) == f"cannot delete field {field!r}"
    assert value == VALUES[name][1]
