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

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DegenerateSeparationError
from .field_modes import (
    ModeLattice,
    _box_sum,
    _chunk_len,
    _dipole_tensor,
    _norm2,
    _read_only,
    _regulated_axis,
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

    Every route reads the geometry derived here once, as read-only arrays:
    ``positions`` and ``moments`` (n, 3); ``pairs``, the rows (q, qp) with
    q > qp in row-major order (1, 0), (2, 0), (2, 1), ...; and ``separations``
    |R_q - R_qp| per pair, all strictly positive.  Coincident dipoles raise
    DegenerateSeparationError naming the first such pair.
    """

    dipoles: tuple[Dipole, ...]
    units: UnitSystem = NATURAL
    positions: np.ndarray = field(init=False, repr=False)
    moments: np.ndarray = field(init=False, repr=False)
    pairs: np.ndarray = field(init=False, repr=False)
    separations: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        dipoles = tuple(self.dipoles)
        for entry in dipoles:
            if not isinstance(entry, Dipole):
                raise ValueError(f"expected a Dipole, got {type(entry).__name__}")
        if not isinstance(self.units, UnitSystem):
            raise ValueError("units must be a UnitSystem instance")
        positions = np.array([dip.position for dip in dipoles]).reshape(-1, 3)
        pairs = np.stack(np.tril_indices(len(dipoles), -1), axis=1)
        separations = _norm2(positions[pairs[:, 0]] - positions[pairs[:, 1]])
        coincident = np.flatnonzero(separations == 0.0)
        if coincident.size:
            q, qp = pairs[coincident[0]]
            raise DegenerateSeparationError(
                f"dipoles {qp} and {q} coincide at {positions[q]}"
            )
        moments = np.array([dip.moment for dip in dipoles]).reshape(-1, 3)
        object.__setattr__(self, "dipoles", dipoles)
        object.__setattr__(self, "positions", _read_only(positions))
        object.__setattr__(self, "moments", _read_only(moments))
        object.__setattr__(self, "pairs", _read_only(pairs))
        object.__setattr__(self, "separations", _read_only(separations))

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
    for position, moment in zip(config.positions, config.moments):
        coeffs = field_coeffs(lattice, position)
        ann = ann + np.einsum("j,kjm->km", moment, coeffs)
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
    moments, positions = config.moments, config.positions
    q, qp = config.pairs.T
    cores = _dipole_tensor(
        positions[q] - positions[qp], "dipole pair energy at zero separation"
    )
    energies = np.einsum("pj,pjl,pl->p", moments[q], cores, moments[qp]) / (
        4.0 * np.pi * config.units.epsilon0
    )
    pair_energies = dict(zip(map(tuple, config.pairs.tolist()), energies.tolist()))
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
    positions, moments = config.positions, config.moments
    kernel = commutator_ae_modesum(lattice, positions[q], positions[qp], sigma)
    value = (-1j / config.units.hbar) * (moments[q] @ kernel @ moments[qp])
    return float(value.real)


def pair_energies_from_commutator(
    config: DipoleConfig, lattice: ModeLattice, sigma: float
) -> dict[tuple[int, int], float]:
    """Every pair energy of :func:`epsilon_dip_from_commutator` from one Gram matrix.

    -d_q^T S_N(R_q - R_p) d_p is -(2 / (eps0 V)) G[q, p] with
    G[q, p] = sum_k w_k cos(k . (R_q - R_p)) d_q^T P_k d_p over the first
    M // 2 modes.  P_k = 1 - khat khat^T is symmetric and idempotent, so
    d_q^T P_k d_p = d_q . d_p - (khat . d_q)(khat . d_p) and

        G = D o Re(E W E^H) - Re(A W A^H),

    with D = d d^T, o the elementwise product, W = diag(w_k),
    E[q, k] = e^{i k . R_q} and A[q, k] = (khat . d_q) E[q, k].  Each
    product is accumulated over chunks of modes as the real (n, 2 modes)
    block of the cosine and sine parts of sqrt(w) E or sqrt(w) A.  Both
    factor over the axes: sqrt(w) E is gathered from per-axis factors
    e^{-(sigma k_a)^2 / 2} e^{i k_a R_qa}, 3 (2 N + 1) complex exponentials
    per dipole, and khat = k / |k| from the per-axis wavenumbers, by the
    ordering invariant of :class:`ModeLattice`; hbar never enters.

    Returns a dict keyed by the rows of ``config.pairs``, in their order;
    empty for fewer than two dipoles.
    Values match the per-pair route to summation-order rounding.
    """
    _require_matching_units(config, lattice)
    axis = _regulated_axis(lattice, sigma)
    n = len(config)
    if n < 2:
        return {}
    moments = config.moments
    # (n, 2N + 1) per-axis factors e^{-(sigma k_a)^2 / 2} e^{i k_a R_qa}
    fx, fy, fz = np.exp(-0.5 * (axis * sigma) ** 2) * np.exp(
        1j * (config.positions.T[:, :, None] * axis)
    )
    labels = (len(axis),) * 3
    half = lattice.num_modes // 2
    # two complex (n, modes) buffers serve every chunk, the waves and one
    # gathered per-axis factor, so no chunk allocates them; mode "clip" lets
    # np.take write straight into them (every label is in range)
    chunk = _chunk_len(2 * n * 16)
    buffers = np.empty((2, n, chunk), complex)
    plain = np.zeros((n, n))
    projected = np.zeros((n, n))
    for start in range(0, half, chunk):
        stop = min(start + chunk, half)
        ix, iy, iz = np.unravel_index(np.arange(start, stop), labels)
        kvecs = np.stack([axis[ix], axis[iy], axis[iz]])
        khat = kvecs / np.sqrt(np.sum(kvecs * kvecs, axis=0))
        waves, factor = buffers[:, :, : stop - start]
        np.take(fx, ix, axis=1, out=waves, mode="clip")
        waves *= np.take(fy, iy, axis=1, out=factor, mode="clip")
        waves *= np.take(fz, iz, axis=1, out=factor, mode="clip")
        # viewed as real, each complex column is a (cos, sin) column pair
        block = waves.view(float)
        plain += block @ block.T
        waves *= moments @ khat  # block now views sqrt(w) A
        projected += block @ block.T
    gram = (moments @ moments.T) * plain - projected
    q, qp = config.pairs.T
    energies = -2.0 * gram[q, qp] / (lattice.units.epsilon0 * lattice.volume)
    return dict(zip(map(tuple, config.pairs.tolist()), energies.tolist()))


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
    coincident = np.flatnonzero(_norm2(R - config.positions) == 0.0)
    if coincident.size:
        raise DegenerateSeparationError(
            f"field point {R} coincides with dipole {coincident[0]}"
        )
    return R


def field_shift(config: DipoleConfig, R) -> np.ndarray:
    """Classical field sum_q e_dip_field(R - R_q, d_q) separating the two pictures.

    This is the c-number by which the untransformed electric-field operator
    exceeds the transformed one at R.
    """
    R = _field_point(config, R)
    total = np.zeros(3)
    for position, moment in zip(config.positions, config.moments):
        total += e_dip_field(R - position, moment, config.units)
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
    sums = _box_sum(lattice, config.positions - R, sigma)
    return np.einsum("qjl,ql->j", sums, config.moments)


def transform_report(
    config: DipoleConfig, lattice: ModeLattice, sigma: float
) -> TransformReport:
    """Assemble pair energies, total, and regularized self energy into one report.

    The summed :func:`epsilon_self_regularized` is -(1/2) tr(S_N(0) D) with
    D = sum_q d_q d_q^T, one box sum for all dipoles.
    """
    _require_matching_units(config, lattice)
    at_zero = _box_sum(lattice, np.zeros((1, 3)), sigma)[0]
    self_energy = -0.5 * np.sum(at_zero * (config.moments.T @ config.moments))
    base = pairwise_interaction(config)
    return replace(base, self_energy=float(self_energy), regulator_sigma=float(sigma))
