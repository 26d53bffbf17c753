"""Operator-valued gauge transformations of a box-quantized transverse field.

The package verifies, at desk scale, that commuting the exponent of the
electric-dipole gauge unitary with field operators produces c-numbers with the
expected closed forms: the equal-time A-E commutator kernel, static
dipole-dipole interaction energies, the classical dipole field separating the
two pictures' electric-field operators, and (for a line-integral generator)
the Coulomb field of a point charge.  Exact bosonic operator algebra, a
truncated-Fock oracle, and a JSON-driven CLI harness round out the toolkit.
"""

from . import coulomb_path, errors, field_modes, gauge_dipole, operator_algebra, units
from .coulomb_path import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .field_modes import *  # noqa: F401,F403
from .gauge_dipole import *  # noqa: F401,F403
from .operator_algebra import *  # noqa: F401,F403
from .units import *  # noqa: F401,F403

__version__ = "0.1.0"

# each public name is listed once, in its module's __all__
__all__ = [
    "__version__",
    *units.__all__,
    *errors.__all__,
    *field_modes.__all__,
    *operator_algebra.__all__,
    *gauge_dipole.__all__,
    *coulomb_path.__all__,
]
