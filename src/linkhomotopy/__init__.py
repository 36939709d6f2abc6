"""Exact symbolic computation around meridian subgroups of link groups.

Four layers:

* :mod:`linkhomotopy.words` -- reduced words in free groups, commutators,
  substitution homomorphisms, normal-closure membership, and a small
  expression grammar;
* :mod:`linkhomotopy.simplicial` -- the degreewise-free simplicial group
  modelling loops on the 2-sphere, with faces, degeneracies, Moore cycles,
  the suspension-Hopf tower words, and their meridian transliterations;
* :mod:`linkhomotopy.magnus` -- truncated Magnus expansion over exact
  integers, lower-central-series certificates, and Milnor-type
  coefficients;
* :mod:`linkhomotopy.links` / :mod:`linkhomotopy.homotopy` -- splitting
  profiles, deletion inclusion-exclusion invariants, classification of
  meridian-intersection quotients, and homotopy groups of sphere wedges.

The package re-exports each layer module's ``__all__``; that list is the
one place a name is made public at package level.  The re-export is lazy
(PEP 562): importing the package, or one layer, loads no other layer;
looking up a submodule name loads just that module; and the first
package-level lookup of any other name (attribute access,
``dir`` or ``from linkhomotopy import *``) imports all five layers and
copies their public names into the package.  The command-line front end
lives in :mod:`linkhomotopy.cli` (also exposed as ``python -m
linkhomotopy``) and imports only the layers a subcommand uses.
"""

import sys as _sys
from importlib import import_module as _import_module
from typing import Iterable as _Iterable

__version__ = "0.1.0"

_LAYERS = ("homotopy", "links", "magnus", "simplicial", "words")


def _decimal(token: str) -> int | None:
    """The integer an optional ``-`` and decimal digits spell, else ``None``;
    the one reader of every integer token in words, files and arguments.
    Raises ``ValueError`` over the interpreter's int/str digit limit."""
    digits = token.removeprefix("-")
    if not digits.isdecimal():
        return None
    try:
        return int(token)
    except ValueError:  # "-" and decimal digits fail only over the limit
        raise ValueError(f"the integer has {len(digits)} digits; the "
                         f"limit is {_sys.get_int_max_str_digits()}") from None


def _unwritable(values: _Iterable[int]) -> ValueError:
    """The error for output that ``str`` could not write: it names the
    largest of ``values`` by its number of decimal digits, past the
    interpreter's int/str digit limit.  Built only once writing has failed,
    so output within the limit costs nothing more."""
    top = max(map(abs, values))
    # 2^(b - 1) <= top < 2^b puts top's digits at one of two counts
    digits = int((top.bit_length() - 1) * 0.30102999566398120) + 1
    if top >= 10**digits:
        digits += 1
    return ValueError(f"an integer in the output has {digits} digits; the "
                      f"limit is {_sys.get_int_max_str_digits()}")


class _Value:
    """Base of the package's immutable values.

    A subclass names its fields once, in order, in ``__match_args__`` (which
    class patterns read too).  Values are equal when they have the same
    class and equal fields, hash by their fields (so a value holding a dict
    does not hash), print as ``Name(field=value, ...)``, and copy and pickle
    by calling the class on their fields.

    ``Word`` and ``SimplicialElement`` derive from it directly, spell out
    ``__eq__`` and ``__hash__`` for speed, and keep their fields in private
    slots behind read-only properties.  Only their constructors write the
    slots, with plain stores, as every face and degeneracy builds an
    element: that takes about 0.19 us, against 0.32 us with stores through
    the slots' descriptors past a Python-level ``__setattr__``.  The one
    exception is the Moore-cycle answer a ``SimplicialElement`` remembers,
    which ``is_cycle`` stores and which is not a field.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return self.__class__, self._fields()


class _Frozen(_Value):
    """A value whose ``__init__`` checks its arguments and writes its fields
    through ``self.__dict__``; assigning or deleting an attribute raises."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def _export_layers() -> None:
    for name in _LAYERS:
        layer = _import_module(f".{name}", __name__)
        globals().update((public, getattr(layer, public)) for public in layer.__all__)


def __getattr__(name: str):
    if name in _LAYERS or name == "cli":
        return _import_module(f".{name}", __name__)
    _export_layers()
    # ``import *`` asks for ``__all__`` first; missing, it falls back to
    # the namespace just filled, as an eager package would
    if name in globals():
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    _export_layers()
    return list(globals())
