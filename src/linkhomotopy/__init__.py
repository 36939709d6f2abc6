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

The command-line front end lives in :mod:`linkhomotopy.cli` (also exposed
as ``python -m linkhomotopy``).
"""

from .homotopy import (
    COUNTABLE,
    DEFAULT_TABLE,
    Cyclic,
    DirectSum,
    FreeAbelian,
    GroupDescription,
    HomotopyTable,
    PiOfSphere,
    PiOfWedge,
    SphereWedge,
    SymbolicGroup,
    Trivial,
    direct_sum,
    hilton_pi,
    homotopy_table_lookup,
    lyndon_words,
)
from .links import (
    ClassificationResult,
    LinkProfile,
    ProfileError,
    ProfileFormatError,
    UnrealizableProfileError,
    build_profile,
    chi2,
    chi3,
    classify_A,
    classify_X2,
    classify_X3,
    delete_component,
    load_profile,
    parse_profile,
    preset_profile,
    realizability_findings,
    strongly_nonsplittable,
)
from .magnus import (
    InvisibilityReport,
    MagnusSeries,
    gamma_class_lower_bound,
    magnus_expand,
    milnor_invisibility_report,
    mu_coefficient,
    reduced_expand,
)
from .simplicial import (
    VARIANT_ETA_DEGREE3,
    VARIANT_ETA_DEGREE4,
    MeridianWord,
    NotACycleError,
    SimplicialElement,
    degeneracy,
    element,
    eta_tower,
    eta_word,
    face,
    is_cycle,
    is_moore_chain,
    meridian_word,
    prefix_product,
    symmetric_commutator_sample,
)
from .words import (
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

__version__ = "0.1.0"
