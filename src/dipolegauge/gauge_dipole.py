"""Multi-dipole gauge generators and the static interactions they induce.

The unitary that moves a collection of point dipoles from minimal coupling to
the electric-dipole picture has exponent X = -(i/hbar) sum_q d_q . A(R_q); its
time derivative Y = +(i/hbar) sum_q d_q . E(R_q) closes with X on a pure
scalar commutator, so conjugation identities from
:mod:`dipolegauge.operator_algebra` apply exactly.  Extracting that scalar per
dipole pair yields the static dipole-dipole energy; its q = q' diagonal is the
regulator-dependent self energy; and commuting X with a field component gives
the classical dipole field by which the two pictures' electric-field operators
differ.

Each wavevector index k of the lattice contributes three bosonic channels, and
the flat operator-mode index used in every polynomial here is
``3 * k + channel`` with channel in {0, 1, 2}.

Dipole moments are classical 3-vectors throughout: the derivation only relies
on the A-E commutator being a c-number, so fixing the moments as parameters
preserves every implemented identity while keeping the algebra finite.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateSeparationError
from .field_modes import (
    ModeLattice,
    _box_sum,
    _dipole_tensor,
    _half_modes,
    _read_only,
    as_vec3,
    commutator_ae_modesum,
    electric_field_coeffs,
    regulator_weights,
    vector_potential_coeffs,
)
from .operator_algebra import OperatorPolynomial
from .units import NATURAL, UnitSystem

__all__ = [
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
]


@dataclass(frozen=True, eq=False)
class Dipole:
    """Point dipole: position and classical moment vector."""

    position: np.ndarray
    moment: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "position", _frozen_vec(self.position, "position"))
        object.__setattr__(self, "moment", _frozen_vec(self.moment, "moment"))


def _frozen_vec(value, name: str) -> np.ndarray:
    return _read_only(as_vec3(value, name).copy())


@dataclass(frozen=True, eq=False)
class DipoleConfig:
    """Ordered collection of dipoles plus the unit system they live in.

    All pairwise separations must be strictly positive; coincident dipoles
    raise DegenerateSeparationError naming the offending pair.
    """

    dipoles: tuple[Dipole, ...]
    units: UnitSystem = NATURAL

    def __post_init__(self):
        dipoles = tuple(self.dipoles)
        for entry in dipoles:
            if not isinstance(entry, Dipole):
                raise ValueError(f"expected a Dipole, got {type(entry).__name__}")
        if not isinstance(self.units, UnitSystem):
            raise ValueError("units must be a UnitSystem instance")
        for i in range(len(dipoles)):
            for j in range(i):
                gap = np.linalg.norm(dipoles[i].position - dipoles[j].position)
                if gap == 0.0:
                    raise DegenerateSeparationError(
                        f"dipoles {j} and {i} coincide at {dipoles[i].position}"
                    )
        object.__setattr__(self, "dipoles", dipoles)

    def __len__(self) -> int:
        return len(self.dipoles)


@dataclass(frozen=True)
class TransformReport:
    """Static terms produced by the dipole gauge transformation.

    ``pair_energies`` maps (q, qp) with q > qp to the closed-form interaction
    energy; ``total_interaction`` is their sum.  ``self_energy`` is the sum of
    regularized per-dipole self terms at ``regulator_sigma`` and is None when
    no regulator was supplied; it diverges like 1/sigma^3 as the regulator is
    removed, so it is only ever reported together with its sigma.
    """

    pair_energies: dict[tuple[int, int], float]
    total_interaction: float
    self_energy: float | None
    regulator_sigma: float | None

    def to_dict(self) -> dict:
        """JSON-ready form; pair keys become 'q,qp' strings."""
        return {
            "pair_energies": {
                f"{q},{qp}": value for (q, qp), value in self.pair_energies.items()
            },
            "total_interaction": self.total_interaction,
            "self_energy": self.self_energy,
            "regulator_sigma": self.regulator_sigma,
        }


def _require_matching_units(config: DipoleConfig, lattice: ModeLattice) -> None:
    if config.units != lattice.units:
        raise ValueError(
            "dipole config and mode lattice carry different unit systems; "
            "build both from the same UnitSystem"
        )


def _degree_one_from_arrays(ann: np.ndarray, cre: np.ndarray) -> OperatorPolynomial:
    # raveling (M, 3) arrays in C order realizes the 3*k + channel convention;
    # degree_one drops the exact zeros
    return OperatorPolynomial.degree_one(
        dict(enumerate(ann.ravel().tolist())), dict(enumerate(cre.ravel().tolist()))
    )


def _dipole_form(config: DipoleConfig, lattice: ModeLattice, field_coeffs, phase):
    """(M, 3) ann/cre arrays of (phase / hbar) sum_q d_q . F(R_q)."""
    if len(config) == 0:
        raise ValueError("cannot build a generator from an empty dipole config")
    _require_matching_units(config, lattice)
    ann = 0.0
    for dip in config.dipoles:
        coeffs = field_coeffs(lattice, dip.position)
        ann = ann + np.einsum("j,kjm->km", dip.moment, coeffs)
    # the moments are real, so the contracted creation block is conj(ann)
    scale = phase / config.units.hbar
    return scale * ann, scale * np.conj(ann)


def build_gm_generator(config: DipoleConfig, lattice: ModeLattice) -> OperatorPolynomial:
    """Exponent X = -(i/hbar) sum_q d_q . A(R_q) of the dipole gauge unitary.

    Returns a degree-1 polynomial over the lattice channels with an
    anti-Hermitian coefficient pattern (creation coefficient equals minus the
    conjugate of its annihilation partner).
    """
    return _degree_one_from_arrays(
        *_dipole_form(config, lattice, vector_potential_coeffs, -1j)
    )


def build_y_generator(config: DipoleConfig, lattice: ModeLattice) -> OperatorPolynomial:
    """Time derivative Y = +(i/hbar) sum_q d_q . E(R_q) of the gauge exponent.

    Mode by mode each coefficient equals (+/- i omega) times the corresponding
    coefficient of -X, since the electric field is minus the time derivative
    of the vector potential.
    """
    return _degree_one_from_arrays(
        *_dipole_form(config, lattice, electric_field_coeffs, 1j)
    )


def field_component_generator(
    lattice: ModeLattice, r, component: int, sigma: float = 0.0
) -> OperatorPolynomial:
    """Electric-field component E_j(r) as a degree-1 polynomial over lattice channels.

    With sigma > 0 every coefficient carries the Gaussian regulator weight, so
    commuting the result against the unweighted gauge exponent reproduces the
    regulated commutator kernel exactly once.
    """
    if component not in (0, 1, 2):
        raise ValueError(f"component must be 0, 1 or 2, got {component}")
    coeffs = electric_field_coeffs(lattice, r)[:, component]
    ann = regulator_weights(lattice, sigma)[:, None] * coeffs
    return _degree_one_from_arrays(ann, np.conj(ann))


def epsilon_dip(R, d, dp, units: UnitSystem = NATURAL) -> float:
    """Static interaction energy of moments d and dp separated by R.

    (1 / (4 pi eps0 |R|^3)) (d . dp - 3 (d . Rhat)(dp . Rhat)); symmetric
    under swapping the two dipoles together with R -> -R, and under swapping
    the moments alone.
    """
    core = _dipole_tensor(as_vec3(R, "R"), "dipole pair energy at zero separation")
    return float(
        as_vec3(d, "d") @ core @ as_vec3(dp, "dp") / (4.0 * np.pi * units.epsilon0)
    )


def e_dip_field(R, d, units: UnitSystem = NATURAL) -> np.ndarray:
    """Electrostatic field of a point dipole d at displacement R from it.

    -(1 / (4 pi eps0 |R|^3)) (d - 3 (d . Rhat) Rhat).
    """
    R = as_vec3(R, "R")
    core = _dipole_tensor(R, "dipole field evaluated at the dipole itself")
    return -(core @ as_vec3(d, "d")) / (4.0 * np.pi * units.epsilon0)


def pairwise_interaction(config: DipoleConfig) -> TransformReport:
    """Closed-form pair energies for all q > qp, assembled into a report.

    The self-energy slots are left empty; :func:`transform_report` fills them.
    All pairs contract one stacked closed form, as :func:`epsilon_dip` does.
    """
    moments = np.array([dip.moment for dip in config.dipoles]).reshape(-1, 3)
    positions = np.array([dip.position for dip in config.dipoles]).reshape(-1, 3)
    q, qp = np.tril_indices(len(config), -1)
    cores = _dipole_tensor(
        positions[q] - positions[qp], "dipole pair energy at zero separation"
    )
    energies = np.einsum("pj,pjl,pl->p", moments[q], cores, moments[qp]) / (
        4.0 * np.pi * config.units.epsilon0
    )
    pair_energies = dict(zip(zip(q.tolist(), qp.tolist()), energies.tolist()))
    return TransformReport(
        pair_energies=pair_energies,
        total_interaction=float(sum(pair_energies.values())),
        self_energy=None,
        regulator_sigma=None,
    )


def epsilon_dip_from_commutator(
    q: int, qp: int, config: DipoleConfig, lattice: ModeLattice, sigma: float
) -> float:
    """Pair energy (q, qp) from the mode-sum kernel K = -i hbar S_N(R_q - R_qp).

    The scalar [X, Y] holds each unordered pair twice, as d_q^T K d_qp and
    its equal transpose, times -i hbar / 2, so one pair's energy is
    -(i/hbar) d_q^T K d_qp = -d_q^T S_N d_qp, real up to rounding.  Valid
    within the window sigma << separation << box length; for every pair at
    once use :func:`pair_energies_from_commutator`.
    """
    _require_matching_units(config, lattice)
    n = len(config)
    if not (0 <= q < n and 0 <= qp < n):
        raise ValueError(f"dipole indices ({q}, {qp}) out of range for {n} dipoles")
    if q == qp:
        raise ValueError(
            "the q = qp diagonal is the self energy; use epsilon_self_regularized"
        )
    dq, dqp = config.dipoles[q], config.dipoles[qp]
    kernel = commutator_ae_modesum(lattice, dq.position, dqp.position, sigma)
    value = (-1j / config.units.hbar) * (dq.moment @ kernel @ dqp.moment)
    return float(value.real)


# bytes of one complex (n, modes, 3) block per chunk, about 800 modes for 27
# dipoles: the blocks of all 117648 modes at N = 24 at once take about 320 MB,
# and chunks from 300 KB to 8 MB ran equally fast
_GRAM_CHUNK_BYTES = 2**20


def pair_energies_from_commutator(
    config: DipoleConfig, lattice: ModeLattice, sigma: float
) -> dict[tuple[int, int], float]:
    """Every pair energy of :func:`epsilon_dip_from_commutator` from one Gram matrix.

    P_k = 1 - khat khat^T is idempotent, so -d_q^T S_N(R_q - R_p) d_p is
    -(2 / (eps0 V)) G[q, p] with G = Re(V V^H) over the flattened (mode,
    channel) axis of V[q, k, :] = sqrt(w_k) e^{i k . R_q} P_k d_q on the first
    M // 2 modes.  G is accumulated over chunks of modes, as the cosine and
    sine parts of V, and hbar never enters.

    Returns a dict keyed (q, qp) with q > qp, in the order of
    :attr:`TransformReport.pair_energies`; empty for fewer than two dipoles.
    Values match the per-pair route to summation-order rounding.
    """
    _require_matching_units(config, lattice)
    kvecs, khat, weights = _half_modes(lattice, sigma)
    n = len(config)
    if n < 2:
        return {}
    moments = np.array([dip.moment for dip in config.dipoles])
    positions = np.array([dip.position for dip in config.dipoles])
    root_w = np.sqrt(weights)
    chunk = max(1, _GRAM_CHUNK_BYTES // (3 * n * 16))
    gram = np.zeros((n, n))
    for start in range(0, len(kvecs), chunk):
        window = slice(start, start + chunk)
        unit = khat[window]
        # (n, m, 3) transverse parts P_k d_q
        transverse = moments[:, None, :] - (moments @ unit.T)[:, :, None] * unit
        phase = positions @ kvecs[window].T
        for part in (np.cos(phase), np.sin(phase)):
            block = ((root_w[window] * part)[:, :, None] * transverse).reshape(n, -1)
            gram += block @ block.T
    u = lattice.units
    return {
        (q, qp): float(-2.0 * gram[q, qp] / (u.epsilon0 * lattice.volume))
        for q in range(n)
        for qp in range(q)
    }


def epsilon_self_regularized(d, lattice: ModeLattice, sigma: float) -> float:
    """Regulator-dependent self energy -(1/2) d^T S_N(0) d of one dipole moment.

    The q = qp diagonal of the commutator-route interaction.  Finite for any
    sigma > 0 and divergent like 1/sigma^3 as sigma -> 0, which is the
    mode-sum form of the unregulated singularity.
    """
    d = as_vec3(d, "d")
    return float(-0.5 * d @ _box_sum(lattice, np.zeros((1, 3)), sigma)[0] @ d)


def _field_point(config: DipoleConfig, R) -> np.ndarray:
    R = as_vec3(R, "R")
    for idx, dip in enumerate(config.dipoles):
        if float(np.linalg.norm(R - dip.position)) == 0.0:
            raise DegenerateSeparationError(
                f"field point {R} coincides with dipole {idx}"
            )
    return R


def field_shift(config: DipoleConfig, R) -> np.ndarray:
    """Classical field sum_q e_dip_field(R - R_q, d_q) separating the two pictures.

    This is the c-number by which the untransformed electric-field operator
    exceeds the transformed one at R.
    """
    R = _field_point(config, R)
    total = np.zeros(3)
    for dip in config.dipoles:
        total += e_dip_field(R - dip.position, dip.moment, config.units)
    return total


def field_shift_from_commutator(
    config: DipoleConfig, lattice: ModeLattice, R, sigma: float
) -> np.ndarray:
    """Mode-sum route to :func:`field_shift`: sum_q S_N(R_q - R) d_q.

    [X, E(R)] is the transformed minus the original field component and the
    shift is its negation; with the A-E kernel -i hbar S_N and
    X = -(i/hbar) sum_q d_q . A(R_q), hbar cancels and the shift is the box
    sum contracted with every moment.  Commuting :func:`build_gm_generator`
    with :func:`field_component_generator` is an independent route to the
    same scalars.  Agreement with the closed form holds in the same validity
    window as the commutator kernel itself.
    """
    _require_matching_units(config, lattice)
    R = _field_point(config, R)
    moments = np.array([dip.moment for dip in config.dipoles]).reshape(-1, 3)
    offsets = np.array([dip.position - R for dip in config.dipoles]).reshape(-1, 3)
    return np.einsum("qjl,ql->j", _box_sum(lattice, offsets, sigma), moments)


def transform_report(
    config: DipoleConfig, lattice: ModeLattice, sigma: float
) -> TransformReport:
    """Assemble pair energies, total, and regularized self energy into one report.

    The summed :func:`epsilon_self_regularized` is -(1/2) tr(S_N(0) D) with
    D = sum_q d_q d_q^T, one box sum for all dipoles.
    """
    _require_matching_units(config, lattice)
    moments = np.array([dip.moment for dip in config.dipoles]).reshape(-1, 3)
    at_zero = _box_sum(lattice, np.zeros((1, 3)), sigma)[0]
    self_energy = -0.5 * np.sum(at_zero * (moments.T @ moments))
    base = pairwise_interaction(config)
    return replace(base, self_energy=float(self_energy), regulator_sigma=float(sigma))
