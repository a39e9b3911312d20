"""Exact involutive Upsilon invariants for staircase knot Floer complexes.

The package models finitely generated bifiltered chain complexes over F2,
builds staircase complexes for L-space knots and their mirrors, folds the
bifiltration, forms the involutive mapping cone, reduces it (generically or
in closed form), and computes the classic, folded, upper and lower Upsilon
functions together with the V0 invariants -- all in exact rational
arithmetic.
"""

from .complexes import (BifilteredComplex, FiltrationMode, Generator,
                        ValidationReport, direct_sum, dumps_complex,
                        homology_rank, loads_complex, validate)
from .involutive import ChainMap, fold, fold_map, mapping_cone, staircase_involution
from .plfunction import PLFunction
from .reduction import (ClosedFormOutput, ReductionResult,
                        closed_form_cone_reduction, essential_signature,
                        materialize_closed_form, reduce_bifiltered, strip_acyclic)
from .staircase import (Pointing, Sign, StaircaseClass, StaircaseSpec, classify,
                        mirror, staircase_from_steps, steps_from_torus_knot,
                        unknot_complex)
from .upsilon import (UpsilonVariant, involutive_cone, slope_bound_check,
                      tower_upsilon, upsilon, upsilon_pair_from_cone,
                      v0_invariants)
from .verify import run_verify

__version__ = "0.1.0"

__all__ = [
    "BifilteredComplex", "ChainMap", "ClosedFormOutput",
    "FiltrationMode", "Generator", "PLFunction", "Pointing",
    "ReductionResult", "Sign", "StaircaseClass", "StaircaseSpec",
    "UpsilonVariant", "ValidationReport", "classify",
    "closed_form_cone_reduction", "direct_sum", "dumps_complex",
    "essential_signature", "fold", "fold_map", "homology_rank",
    "involutive_cone", "loads_complex", "mapping_cone",
    "materialize_closed_form", "mirror", "reduce_bifiltered",
    "run_verify", "slope_bound_check", "staircase_from_steps",
    "staircase_involution", "steps_from_torus_knot", "strip_acyclic",
    "tower_upsilon", "unknot_complex", "upsilon", "upsilon_pair_from_cone",
    "v0_invariants", "validate",
]
