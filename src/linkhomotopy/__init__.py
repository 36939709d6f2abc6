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
one place a name is made public at package level.  The command-line front
end lives in :mod:`linkhomotopy.cli` (also exposed as ``python -m
linkhomotopy``).
"""

from .homotopy import *
from .links import *
from .magnus import *
from .simplicial import *
from .words import *

__version__ = "0.1.0"
