"""Plane-wave mode expansions in a periodic box and the equal-time A-E commutator.

The transverse vector potential and electric field are expanded over the
discrete wavevectors of a cubic box with periodic boundary conditions.  Each
wavevector carries three bosonic channels whose vector coefficients are the
columns of the transverse projector 1 - khat khat^T; the longitudinal
combination of the three channels then has an identically zero coefficient, so
the two physical polarizations are represented without ever choosing a basis
for them.  Summing coefficient products over modes gives the equal-time
commutator of the two fields, which converges (away from contact) to the
closed-form dipole-kernel tensor provided by :func:`analytic_dipole_tensor`.

Every regulated mode sum of the library (the A-E commutator kernel, the pair
energies, the self energy and the field shift) has a summand even in k: the
cosine of k times a separation, the projector 1 - khat khat^T and the Gaussian
weight all are.  The lattice stores -k of mode i at index M - 1 - i, so these
sums run over the representative half, the first M // 2 modes, and double the
result, which is exact.  The lattice itself keeps all M modes, because every
operator mode is needed by the coefficient blocks and the exact-algebra
generators built on them.

All functions here are pure and treat their array inputs as immutable.  Mode
sums are numpy reductions and small BLAS matrix products (the khat contraction
of :func:`commutator_ae_modesum`, the pair Gram matrix of
:func:`dipolegauge.gauge_dipole.pair_energies_from_commutator`), so repeated
calls produce bit-identical results for a fixed BLAS thread count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSeparationError
from .units import NATURAL, UnitSystem

__all__ = [
    "ModeLattice",
    "as_vec3",
    "build_mode_lattice",
    "transverse_projectors",
    "regulator_weights",
    "vector_potential_coeffs",
    "electric_field_coeffs",
    "commutator_ae_modesum",
    "analytic_dipole_tensor",
]


def as_vec3(value, name: str = "vector") -> np.ndarray:
    """Coerce to a finite float 3-vector, raising ValueError otherwise."""
    arr = np.asarray(value, dtype=float)
    if arr.shape != (3,):
        raise ValueError(f"{name} must be a 3-vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must have finite components, got {arr}")
    return arr


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _separation(rho: np.ndarray, message: str) -> float:
    """|rho|; the one zero-separation rule of the closed forms and the kernel."""
    dist = float(np.linalg.norm(rho))
    if dist == 0.0:
        raise DegenerateSeparationError(message)
    return dist


@dataclass(frozen=True, eq=False)
class ModeLattice:
    """Nonzero wavevectors k = 2 pi n / L of a periodic cube of side L.

    The integer labels n = k L / (2 pi) range over max|n_i| <= half_extent
    with n = 0 excluded (the zero mode has no transverse content); only k is
    stored.  Modes are ordered lexicographically in (n_x, n_y, n_z) and the
    arrays are read-only, so any sum over modes is reproducible bit for bit.
    The number of modes M is even, and mode M - 1 - i is the negation of
    mode i: ``kvecs[M // 2:]`` equals the negated, reversed first half exactly
    and ``knorm[M // 2:]`` equals the reversed first half, which lets every
    mode sum even in k run over the first M // 2 modes.

    Attributes
    ----------
    box_length : float
        Side length L of the quantization box.
    half_extent : int
        Largest |n_i| kept in each direction.
    units : UnitSystem
        Constants used by every field amplitude built on this lattice.
    kvecs : (M, 3) float array
        Wavevectors 2 pi n / L.
    knorm : (M,) float array
        |k| per mode.
    omega : (M,) float array, property
        Dispersion c |k| per mode, computed on each access.
    """

    box_length: float
    half_extent: int
    units: UnitSystem
    kvecs: np.ndarray
    knorm: np.ndarray

    @property
    def num_modes(self) -> int:
        return self.kvecs.shape[0]

    @property
    def volume(self) -> float:
        return self.box_length**3

    @property
    def omega(self) -> np.ndarray:
        return self.units.c * self.knorm

    def __repr__(self):
        return (
            f"ModeLattice(box_length={self.box_length}, "
            f"half_extent={self.half_extent}, num_modes={self.num_modes})"
        )


def build_mode_lattice(
    box_length: float, half_extent: int, units: UnitSystem = NATURAL
) -> ModeLattice:
    """Enumerate the (2 half_extent + 1)^3 - 1 nonzero modes of the box.

    Parameters
    ----------
    box_length : float
        Side length of the periodic cube, > 0.
    half_extent : int
        Per-axis cutoff on the integer labels, >= 1.
    units : UnitSystem, optional
        Constants attached to the lattice; natural units by default.
    """
    if not (box_length > 0.0) or not np.isfinite(box_length):
        raise ValueError(f"box_length must be finite and positive, got {box_length}")
    if (
        isinstance(half_extent, bool)
        or not isinstance(half_extent, (int, np.integer))
        or half_extent < 1
    ):
        raise ValueError(f"half_extent must be an integer >= 1, got {half_extent}")
    if not isinstance(units, UnitSystem):
        raise ValueError("units must be a UnitSystem instance")

    axis = (2.0 * np.pi / box_length) * np.arange(-half_extent, half_extent + 1)
    # an 'ij' meshgrid flattened in C order is lexicographic in (n_x, n_y, n_z);
    # the zero mode is the middle row
    grid = np.meshgrid(axis, axis, axis, indexing="ij", copy=False)
    kvecs = np.stack(grid, axis=-1).reshape(-1, 3)
    kvecs = np.delete(kvecs, len(kvecs) // 2, axis=0)
    return ModeLattice(
        box_length=float(box_length),
        half_extent=int(half_extent),
        units=units,
        kvecs=_read_only(kvecs),
        knorm=_read_only(np.linalg.norm(kvecs, axis=1)),
    )


def transverse_projectors(lattice: ModeLattice) -> np.ndarray:
    """Projectors 1 - khat khat^T for every mode, shape (M, 3, 3).

    Only the coefficient builders (``_field_coeffs``) and the tests'
    full-lattice oracles use the stack; the mode sums contract khat directly.
    """
    khat = lattice.kvecs / lattice.knorm[:, None]
    return np.eye(3)[None, :, :] - khat[:, :, None] * khat[:, None, :]


def regulator_weights(lattice: ModeLattice, sigma: float) -> np.ndarray:
    """Gaussian damping exp(-(|k| sigma)^2) per mode; sigma = 0 disables it.

    The weight smears point evaluations over a region of size sigma, which is
    what lets a finite cubic mode sum approximate the rotation-invariant
    continuum limit.
    """
    if sigma < 0.0 or not np.isfinite(sigma):
        raise ValueError(f"sigma must be finite and >= 0, got {sigma}")
    return _gaussian_weights(lattice.knorm, sigma)


def _gaussian_weights(knorm: np.ndarray, sigma: float) -> np.ndarray:
    return np.exp(-((knorm * sigma) ** 2))


def _half_modes(lattice: ModeLattice, sigma: float):
    """Wavevectors, unit vectors and regulator weights of the first M // 2 modes.

    Mode M - 1 - i is the negation of mode i (see :class:`ModeLattice`), so a
    mode sum whose summand is even in k equals twice its sum over these rows.
    This is the one rule of every regulated mode sum: sigma finite and > 0.
    """
    if not (sigma > 0.0) or not np.isfinite(sigma):
        raise ValueError(f"regulated mode sums need a finite sigma > 0, got {sigma}")
    half = lattice.num_modes // 2
    kvecs = lattice.kvecs[:half]
    knorm = lattice.knorm[:half]
    return kvecs, kvecs / knorm[:, None], _gaussian_weights(knorm, sigma)


def _field_amplitudes(lattice: ModeLattice) -> np.ndarray:
    u = lattice.units
    return np.sqrt(u.hbar / (2.0 * u.epsilon0 * lattice.omega * lattice.volume))


def _field_coeffs(lattice: ModeLattice, r, factor) -> np.ndarray:
    """Per-mode amplitude times ``factor`` exp(i k . r), times the transverse
    projector columns, as the (M, 3, 3) annihilation block of a field at r."""
    r = as_vec3(r, "r")
    amp = _field_amplitudes(lattice)
    proj = transverse_projectors(lattice)
    return (factor * amp * np.exp(1j * (lattice.kvecs @ r)))[:, None, None] * proj


def vector_potential_coeffs(lattice: ModeLattice, r) -> np.ndarray:
    """Annihilation coefficients ``ann`` of the transverse vector potential at r.

    Field component j is the sum over modes k and channels m of
    ``ann[k, j, m] a_{k m} + conj(ann[k, j, m]) a_{k m}^dag``, so the operator
    is Hermitian by construction.  Per mode ``ann`` is sqrt(hbar / (2 eps0
    omega V)) exp(i k . r) times the transverse projector, whose columns are
    transverse to k.  Returns an (M, 3, 3) complex array.
    """
    return _field_coeffs(lattice, r, 1.0)


def electric_field_coeffs(lattice: ModeLattice, r) -> np.ndarray:
    """Annihilation coefficients of the transverse electric field at r.

    Relative to :func:`vector_potential_coeffs` each annihilation coefficient
    is multiplied by i omega (so each creation coefficient by -i omega), which
    is minus the free-field time derivative of the potential.
    """
    return _field_coeffs(lattice, r, 1j * lattice.omega)


def commutator_ae_modesum(lattice: ModeLattice, R, Rp, sigma: float) -> np.ndarray:
    """Equal-time commutator tensor [A_j(R), E_l(R')] summed over box modes.

    Contracting the coefficient blocks with the canonical commutation
    relations leaves, per mode, the purely imaginary tensor
    ``-i (hbar / (eps0 V)) cos(k . (R - R')) (1 - khat khat^T)``, damped here
    by the Gaussian regulator weight for ``sigma``.  The summand is even in
    k, so the sum runs over the first M // 2 modes and is doubled.  Within
    the window sigma << |R - R'| << box_length the sum approaches
    :func:`analytic_dipole_tensor` of the separation.

    Parameters
    ----------
    lattice : ModeLattice
    R, Rp : 3-vectors
        Evaluation points of the two fields; must not coincide.
    sigma : float
        Regulator length, finite and > 0.

    Returns
    -------
    (3, 3) complex array, purely imaginary and symmetric up to rounding.
    """
    R = as_vec3(R, "R")
    Rp = as_vec3(Rp, "Rp")
    rho = R - Rp
    _separation(
        rho,
        "commutator evaluated at coincident points; the contact term is "
        "not represented by this mode sum",
    )
    kvecs, khat, weights = _half_modes(lattice, sigma)
    weights = weights * np.cos(kvecs @ rho)
    # sum_k w_k (1 - khat khat^T) without the (M, 3, 3) projector stack
    tensor = np.sum(weights) * np.eye(3) - khat.T @ (weights[:, None] * khat)
    u = lattice.units
    return -2j * (u.hbar / (u.epsilon0 * lattice.volume)) * tensor


def analytic_dipole_tensor(rho, units: UnitSystem = NATURAL) -> np.ndarray:
    """Closed-form continuum limit of the equal-time A-E commutator.

    For separation rho != 0 this is
    ``i hbar / (4 pi eps0 |rho|^3) (delta_jl - 3 rhohat_j rhohat_l)``;
    the delta-function contact term at rho = 0 is outside its domain.
    """
    rho = as_vec3(rho, "rho")
    dist = _separation(rho, "analytic commutator tensor is singular at zero separation")
    rhohat = rho / dist
    core = np.eye(3) - 3.0 * np.outer(rhohat, rhohat)
    return 1j * units.hbar / (4.0 * np.pi * units.epsilon0 * dist**3) * core
