"""Operator-valued gauge transformations of a box-quantized transverse field.

The package verifies, at desk scale, that commuting the exponent of the
electric-dipole gauge unitary with field operators produces c-numbers with the
expected closed forms: the equal-time A-E commutator kernel, static
dipole-dipole interaction energies, the classical dipole field separating the
two pictures' electric-field operators, and (for a line-integral generator)
the Coulomb field of a point charge.  Exact bosonic operator algebra, a
truncated-Fock oracle, and a JSON-driven CLI harness round out the toolkit.
"""

from .coulomb_path import (
    ChargePath,
    commutator_line_integral,
    coulomb_field,
    dipole_kernel,
    line_integral_endpoint,
    path_independence_residual,
    path_residual,
    staircase_path,
    straight_path,
)
from .errors import (
    BchOrderViolationError,
    ConfigError,
    DegenerateSeparationError,
    OracleTooLargeError,
    PathSingularityError,
)
from .field_modes import (
    FieldCoefficients,
    ModeLattice,
    analytic_dipole_tensor,
    as_vec3,
    build_mode_lattice,
    commutator_ae_modesum,
    electric_field_coeffs,
    regulator_weights,
    transverse_projectors,
    vector_potential_coeffs,
)
from .gauge_dipole import (
    Dipole,
    DipoleConfig,
    TransformReport,
    build_gm_generator,
    build_y_generator,
    e_dip_field,
    epsilon_dip,
    epsilon_dip_from_commutator,
    epsilon_self_regularized,
    field_component_generator,
    field_shift,
    field_shift_from_commutator,
    pair_energies_from_commutator,
    pairwise_interaction,
    transform_report,
)
from .operator_algebra import (
    FockOracleConfig,
    OperatorPolynomial,
    adjoint_action,
    commutator,
    fock_adjoint_oracle,
    fock_matrix,
    is_central,
    time_derivative_conjugation,
)
from .units import NATURAL, UnitSystem

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # units
    "UnitSystem",
    "NATURAL",
    # errors
    "BchOrderViolationError",
    "ConfigError",
    "DegenerateSeparationError",
    "OracleTooLargeError",
    "PathSingularityError",
    # field modes
    "ModeLattice",
    "FieldCoefficients",
    "as_vec3",
    "build_mode_lattice",
    "transverse_projectors",
    "regulator_weights",
    "vector_potential_coeffs",
    "electric_field_coeffs",
    "commutator_ae_modesum",
    "analytic_dipole_tensor",
    # operator algebra
    "OperatorPolynomial",
    "commutator",
    "is_central",
    "adjoint_action",
    "time_derivative_conjugation",
    "FockOracleConfig",
    "fock_matrix",
    "fock_adjoint_oracle",
    # gauge dipole
    "Dipole",
    "DipoleConfig",
    "TransformReport",
    "build_gm_generator",
    "build_y_generator",
    "field_component_generator",
    "epsilon_dip",
    "pairwise_interaction",
    "epsilon_dip_from_commutator",
    "pair_energies_from_commutator",
    "epsilon_self_regularized",
    "e_dip_field",
    "field_shift",
    "field_shift_from_commutator",
    "transform_report",
    # coulomb path
    "ChargePath",
    "straight_path",
    "staircase_path",
    "coulomb_field",
    "dipole_kernel",
    "commutator_line_integral",
    "line_integral_endpoint",
    "path_residual",
    "path_independence_residual",
]
