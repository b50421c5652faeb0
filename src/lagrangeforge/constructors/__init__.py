"""Family-by-family Lagrangian constructors.

Each builder returns a verified :class:`~lagrangeforge.lagrangian.Lagrangian`
for its target dynamics (verification can be disabled through
:class:`BuilderOptions`).  The *_variant builders are deliberate negative
controls that construct plausible but wrong Lagrangians; they skip
verification so the universal checker can be shown catching them.
"""
from .common import BuilderOptions, DEFAULT_OPTIONS
from .composed import (
    MultiSuite,
    build_composed_invariant,
    compose_invariant,
    build_exponential_family,
    log_velocity_lagrangian,
    multi_lagrangian_suite,
)
from .power import (
    build_generalized_kinetic,
    build_monomial,
    build_power_damping,
    closure_defect,
    generalized_kinetic_rhs,
    monomial_admissibility_defect,
    monomial_rhs,
    n_parameter_lagrangian,
    power_damping_rhs,
)
from .radical import (
    affine_rhs,
    build_radical,
    build_radical_equal,
    build_radical_linear,
    radical_equal_rhs,
    radical_forward_rhs,
)
from .reciprocal import (
    a_from_bc,
    build_reciprocal,
    build_reciprocal_autonomous,
    build_reciprocal_linear,
    build_reciprocal_linear_variant,
    build_reciprocal_nu2,
    build_reciprocal_nu2_variant,
    c_from_ab,
    constraint_defect,
    reciprocal_forward_rhs,
    reciprocal_linear_rhs,
)
from .standard import (
    StandardCoeffs,
    admissibility_defect,
    build_standard,
    standard_hamiltonian,
)

__all__ = [
    "BuilderOptions",
    "DEFAULT_OPTIONS",
    "MultiSuite",
    "StandardCoeffs",
    "a_from_bc",
    "admissibility_defect",
    "affine_rhs",
    "build_composed_invariant",
    "compose_invariant",
    "build_exponential_family",
    "build_generalized_kinetic",
    "build_monomial",
    "build_power_damping",
    "build_radical",
    "build_radical_equal",
    "build_radical_linear",
    "build_reciprocal",
    "build_reciprocal_autonomous",
    "build_reciprocal_linear",
    "build_reciprocal_linear_variant",
    "build_reciprocal_nu2",
    "build_reciprocal_nu2_variant",
    "build_standard",
    "c_from_ab",
    "closure_defect",
    "constraint_defect",
    "generalized_kinetic_rhs",
    "log_velocity_lagrangian",
    "monomial_admissibility_defect",
    "monomial_rhs",
    "multi_lagrangian_suite",
    "n_parameter_lagrangian",
    "power_damping_rhs",
    "radical_equal_rhs",
    "radical_forward_rhs",
    "reciprocal_forward_rhs",
    "reciprocal_linear_rhs",
    "standard_hamiltonian",
]
