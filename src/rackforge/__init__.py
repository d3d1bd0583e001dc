"""Racks of p-cycle classes: classification, witness search, cohomology.

The package decides whether the conjugacy class of p-cycles in an
alternating group of degree p or p+1 is of type D, exhibits verified
witness pairs or proves their absence by exhaustion, identifies the
subgroup two p-cycles generate against a fixed case list, and computes
second rack cohomology of small racks over the integers.
"""

from .perm import (
    Permutation,
    compose,
    conjugate,
    format_cycles,
    parse_cycles,
)
from .numth import (
    cyclotomic_decompositions,
    cyclotomic_primes_below,
    is_prime,
    jacobi,
    prime_power_decompose,
    primes_below,
)
from .gf import FieldSpec, make_field, primitive_element
from .groups import (
    PermGroup,
    alternating_conjugate,
    alternating_group,
    build_bsgs,
    conjugacy_class_list,
    conjugacy_orbit_contains,
    symmetric_group,
)
from .constructions import (
    NaturalClass,
    ProjectivePointIndex,
    affine_frobenius_group,
    class_elements,
    natural_class,
    order_p_class_reps,
    projective_points,
    psl_order,
    psl_permutation_group,
    seeded_conjugates,
)
from .rack import (
    FiniteRack,
    TypeDResult,
    TypeDWitness,
    class_rack,
    conjugation_rack,
    maximal_abelian_subrack_through,
    subrack_closure,
    type_d_pair,
    validate_rack,
)
from .homology import (
    HomologyResult,
    IntegerMatrix,
    boundary_matrices,
    second_homology,
    smith_normal_form,
)
from .classify import (
    CensusReport,
    ClassVerdict,
    FwCase,
    SearchOutcome,
    SquareCheckReport,
    classify_class,
    fw_identify,
    lemma_square_check,
    subrack_census,
    symmetric_group_witness,
    witness_search,
)
from .acceptance import CRITERIA, CriterionResult, run_all, run_criterion

__version__ = "0.1.0"

__all__ = [
    "Permutation",
    "compose",
    "conjugate",
    "format_cycles",
    "parse_cycles",
    "cyclotomic_decompositions",
    "cyclotomic_primes_below",
    "is_prime",
    "jacobi",
    "prime_power_decompose",
    "primes_below",
    "FieldSpec",
    "make_field",
    "primitive_element",
    "PermGroup",
    "alternating_conjugate",
    "alternating_group",
    "build_bsgs",
    "conjugacy_class_list",
    "conjugacy_orbit_contains",
    "symmetric_group",
    "NaturalClass",
    "ProjectivePointIndex",
    "affine_frobenius_group",
    "class_elements",
    "natural_class",
    "order_p_class_reps",
    "projective_points",
    "psl_order",
    "psl_permutation_group",
    "seeded_conjugates",
    "FiniteRack",
    "TypeDResult",
    "TypeDWitness",
    "class_rack",
    "conjugation_rack",
    "maximal_abelian_subrack_through",
    "subrack_closure",
    "type_d_pair",
    "validate_rack",
    "HomologyResult",
    "IntegerMatrix",
    "boundary_matrices",
    "second_homology",
    "smith_normal_form",
    "CensusReport",
    "ClassVerdict",
    "FwCase",
    "SearchOutcome",
    "SquareCheckReport",
    "classify_class",
    "fw_identify",
    "lemma_square_check",
    "subrack_census",
    "symmetric_group_witness",
    "witness_search",
    "CRITERIA",
    "CriterionResult",
    "run_all",
    "run_criterion",
    "__version__",
]
