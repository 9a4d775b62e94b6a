"""Exact tools for Shi, Ish and nested difference arrangements.

Everything here is exact rational arithmetic, never floats.  The kernels
run on integers where they can: nests as integer numerators over one
denominator, hyperplanes as coprime integer forms, the gains of the
difference hyperplanes ``x_i - x_j = c`` as integer numerators over one
denominator per arrangement, flats as gain-graph partitions (a block
and an integer offset per coordinate over that denominator), polynomial
coefficients as ``int`` unless they are not integral, and chambers as
integer difference-bound matrices.  Flats, nests and chamber witnesses
are written from their integers by ``exactmath``, which writes every
rational and equation of an answer.  :class:`fractions.Fraction`
appears where non-integral values are computed or read: polynomial
coefficients and Saito constants.
"""

from .arrangement import (
    Arrangement,
    Graph,
    Hyperplane,
    NestSpec,
    build_deleted,
    build_n_ish,
    build_named,
    cone,
    from_spec,
    ish_nest,
    n_from_graph,
)
from .chambers import (
    Chamber,
    canonical_chamber,
    distance_poly,
    enumerate_chambers,
    ish_base_chamber,
    wallcross_expected,
)
from .errors import CapacityError
from .exactmath import MultiPoly, UniPoly
from .freeness import (
    Derivation,
    FreenessVerdict,
    NonFreeWitness,
    basis_derivations,
    decide_free,
    derivation_str,
    factored_basis,
    factored_saito_constant,
    is_log_derivation,
    is_nest,
    nest_exponents,
    saito_constant,
    saito_verify,
    verify_nonfree_witness,
)
from .graphs import analyze_graph, survey
from .lattice import char_poly, is_supersolvable, nest_modular_chain
from .rooks import graph_char_poly, nest_char_poly, rook_numbers, spec_char_poly

__version__ = "0.1.0"

__all__ = [
    "Arrangement",
    "CapacityError",
    "Chamber",
    "Derivation",
    "FreenessVerdict",
    "Graph",
    "Hyperplane",
    "MultiPoly",
    "NestSpec",
    "NonFreeWitness",
    "UniPoly",
    "analyze_graph",
    "basis_derivations",
    "build_deleted",
    "build_n_ish",
    "build_named",
    "canonical_chamber",
    "char_poly",
    "cone",
    "decide_free",
    "derivation_str",
    "distance_poly",
    "enumerate_chambers",
    "factored_basis",
    "factored_saito_constant",
    "from_spec",
    "graph_char_poly",
    "is_log_derivation",
    "is_nest",
    "is_supersolvable",
    "ish_base_chamber",
    "ish_nest",
    "n_from_graph",
    "nest_char_poly",
    "nest_exponents",
    "nest_modular_chain",
    "rook_numbers",
    "saito_constant",
    "saito_verify",
    "spec_char_poly",
    "survey",
    "verify_nonfree_witness",
    "wallcross_expected",
]
