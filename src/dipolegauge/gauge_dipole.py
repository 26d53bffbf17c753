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
    _half_modes,
    _read_only,
    _separation,
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
    R = as_vec3(R, "R")
    d = as_vec3(d, "d")
    dp = as_vec3(dp, "dp")
    dist = _separation(R, "dipole pair energy at zero separation")
    rhat = R / dist
    return float(
        (d @ dp - 3.0 * (d @ rhat) * (dp @ rhat))
        / (4.0 * np.pi * units.epsilon0 * dist**3)
    )


def e_dip_field(R, d, units: UnitSystem = NATURAL) -> np.ndarray:
    """Electrostatic field of a point dipole d at displacement R from it.

    -(1 / (4 pi eps0 |R|^3)) (d - 3 (d . Rhat) Rhat).
    """
    R = as_vec3(R, "R")
    d = as_vec3(d, "d")
    dist = _separation(R, "dipole field evaluated at the dipole itself")
    rhat = R / dist
    return -(d - 3.0 * (d @ rhat) * rhat) / (4.0 * np.pi * units.epsilon0 * dist**3)


def pairwise_interaction(config: DipoleConfig) -> TransformReport:
    """Closed-form pair energies for all q > qp, assembled into a report.

    The self-energy slots are left empty; :func:`transform_report` fills them
    when a lattice and regulator are available.
    """
    pair_energies: dict[tuple[int, int], float] = {}
    for q in range(len(config)):
        for qp in range(q):
            dq, dqp = config.dipoles[q], config.dipoles[qp]
            pair_energies[(q, qp)] = epsilon_dip(
                dq.position - dqp.position, dq.moment, dqp.moment, config.units
            )
    return TransformReport(
        pair_energies=pair_energies,
        total_interaction=float(sum(pair_energies.values())),
        self_energy=None,
        regulator_sigma=None,
    )


def epsilon_dip_from_commutator(
    q: int, qp: int, config: DipoleConfig, lattice: ModeLattice, sigma: float
) -> float:
    """Pair energy (q, qp) extracted from the mode-sum commutator kernel.

    The scalar [X, Y] collects, for each unordered dipole pair, two ordered
    contributions d_q^T K d_qp and d_qp^T K^T d_q with K the equal-time A-E
    commutator tensor of the separation; K is symmetric and even in the
    separation, so the two are equal.  The energy bookkeeping multiplies the
    ordered double sum by -i hbar / 2, and the net single-pair factor
    -i/hbar * d_q^T K d_qp is applied here in one place.  The result is real
    up to rounding because K is purely imaginary.

    Valid within the window sigma << separation << box length; compare
    against :func:`epsilon_dip` to judge convergence.  For every pair at once
    use :func:`pair_energies_from_commutator`.
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

    With P_k = 1 - khat khat^T idempotent and cos(k . (R_q - R_p)) =
    Re(e^{i k . R_q} e^{-i k . R_p}), the per-pair contraction
    -(1 / (eps0 V)) sum_k w_k cos(k . (R_q - R_p)) d_q^T P_k d_p is
    -G[q, p] / (eps0 V) with G = Re(V V^H) over the flattened (mode, channel)
    axis of V[q, k, :] = sqrt(w_k) e^{i k . R_q} P_k d_q.  G is accumulated
    over chunks of modes, as the cosine and sine parts of V, so no (M, 3, 3)
    projector stack is built; hbar cancels and never enters.  The summand is
    even in k, so G runs over the first M // 2 modes and is doubled.

    Returns a dict keyed (q, qp) with q > qp, in the order of
    :attr:`TransformReport.pair_energies`; empty for fewer than two dipoles.
    Values match the per-pair route to summation-order rounding and repeat
    bit for bit for a fixed BLAS thread count.
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
    """Regulator-dependent self energy of one dipole moment.

    The q = qp diagonal of the commutator-route interaction, evaluated with
    the Gaussian-regulated kernel at zero separation:
    -(1 / (2 eps0 V)) sum_k w_k (|d|^2 - (d . khat)^2).  Finite for any
    sigma > 0 and divergent like 1/sigma^3 as sigma -> 0, which is the
    mode-sum form of the unregulated singularity.  The summand is even in k,
    so the sum runs over the first M // 2 modes and is doubled.
    """
    d = as_vec3(d, "d")
    _, khat, weights = _half_modes(lattice, sigma)
    transverse_dd = float(d @ d) - (khat @ d) ** 2
    u = lattice.units
    return float(-1.0 / (u.epsilon0 * lattice.volume) * np.sum(weights * transverse_dd))


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
    """Mode-sum route to :func:`field_shift` via the gauge-exponent commutator.

    [X, E(R)] is the transformed minus the original field component and the
    shift is its negation.  With X = -(i/hbar) sum_q d_q . A(R_q) and every
    [A_l(R_q), E_j(R)] the c-number K_q[l, j] of
    ``commutator_ae_modesum(lattice, R_q, R, sigma)``, the shift is
    (i/hbar) sum_q d_q . K_q = (1 / (eps0 V)) sum_k w_k P_k s_k with
    s_k = sum_q cos(k . (R_q - R)) d_q, contracted for every dipole in one
    pass over the first M // 2 modes and doubled (the summand is even in k).
    No operator or coefficient tensor is built, hbar cancels, and no absolute
    cut applies.  Commuting :func:`build_gm_generator` with
    :func:`field_component_generator` is an independent route to the same
    scalars.  Agreement with the closed form holds in the same validity
    window as the commutator kernel itself.
    """
    _require_matching_units(config, lattice)
    kvecs, khat, weights = _half_modes(lattice, sigma)
    R = _field_point(config, R)
    moments = np.array([dip.moment for dip in config.dipoles]).reshape(-1, 3)
    offsets = np.array([dip.position - R for dip in config.dipoles]).reshape(-1, 3)
    # (M // 2, 3) rows w_k s_k, then sum_k P_k w_k s_k
    weighted = weights[:, None] * (np.cos(kvecs @ offsets.T) @ moments)
    total = np.sum(weighted, axis=0) - khat.T @ np.sum(khat * weighted, axis=1)
    return 2.0 / (lattice.units.epsilon0 * lattice.volume) * total


def transform_report(
    config: DipoleConfig, lattice: ModeLattice, sigma: float
) -> TransformReport:
    """Assemble pair energies, total, and regularized self energy into one report.

    The summed :func:`epsilon_self_regularized` is linear in
    D = sum_q d_q d_q^T, so it takes one mode pass for all dipoles:
    (1 / (2 eps0 V)) sum_k w_k (khat^T D khat - tr D), even in k and so
    summed over the first M // 2 modes and doubled.
    """
    _require_matching_units(config, lattice)
    _, khat, weights = _half_modes(lattice, sigma)
    base = pairwise_interaction(config)
    moments = np.array([dip.moment for dip in config.dipoles]).reshape(-1, 3)
    dd = moments.T @ moments
    longitudinal_dd = np.sum((khat @ dd) * khat, axis=1)
    scale = 1.0 / (lattice.units.epsilon0 * lattice.volume)
    self_energy = scale * np.sum(weights * (longitudinal_dd - np.trace(dd)))
    return replace(base, self_energy=float(self_energy), regulator_sigma=float(sigma))
