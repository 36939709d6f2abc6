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
