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

Every regulated mode sum runs over the first M // 2 modes of ``_half_modes``,
exact because the summand is even in k and mode M - 1 - i is -k_i.  The box
sum S_N(rho) = (2 / (eps0 V)) sum_k w_k cos(k . rho) (1 - khat khat^T) is
formed only by ``_box_sum``: the A-E kernel is -i hbar S_N(rho), the field
shift sum_q S_N(R_q - R) d_q, the self energy -(1/2) d^T S_N(0) d.  The pair
energies -d_q^T S_N(R_q - R_p) d_p of all pairs come instead from one Gram
matrix (:func:`dipolegauge.gauge_dipole.pair_energies_from_commutator`), in
the split form d_q . d_p - (khat . d_q)(khat . d_p) with e^{i k . R} gathered
from per-axis phase factors over ``_axis_wavenumbers``; tests hold it to the
per-pair ``_box_sum`` route.  The closed-form limit
(delta - 3 rhohat rhohat^T) / |rho|^3 is formed only by ``_dipole_tensor``.

All functions here are pure and treat their array inputs as immutable.  Mode
sums are numpy reductions and small BLAS matrix products (the khat contraction
of ``_box_sum``, the two Gram products per chunk of modes of the pair
energies), so repeated calls produce bit-identical results for a fixed BLAS
thread count.
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


def _norm2(x: np.ndarray) -> np.ndarray:
    """Row-wise 2-norm, equal bit for bit to np.linalg.norm of each row."""
    return np.sqrt(np.vecdot(x, x))


def _separation(rho: np.ndarray, message: str):
    """|rho| per 3-vector of rho; the one zero-separation rule of the library."""
    dist = _norm2(rho)
    if np.any(dist == 0.0):
        raise DegenerateSeparationError(message)
    return dist


def _dipole_tensor(rho: np.ndarray, message: str) -> np.ndarray:
    """(delta - 3 rhohat rhohat^T) / |rho|^3 per 3-vector of rho, shape (..., 3, 3).

    The one closed form of the library, with the bits of the single-vector
    formula: |rho| as np.linalg.norm forms it, |rho|^3 by the C library's pow.
    """
    dist = _separation(rho, message)
    rhohat = rho / dist[..., None]
    cube = np.array([d**3 for d in dist.ravel().tolist()]).reshape(dist.shape)
    outer = rhohat[..., :, None] * rhohat[..., None, :]
    return (np.eye(3) - 3.0 * outer) / cube[..., None, None]


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
    mode sum even in k run over the first M // 2 modes.  Half-mode i < M // 2
    has the labels ``np.unravel_index(i, (2 N + 1,) * 3)`` minus N, with
    N = half_extent, so component a of ``kvecs[i]`` is, bit for bit, entry
    ``unravel_index(i)[a]`` of the per-axis wavenumbers 2 pi n / L
    (``_axis_wavenumbers``); the pair Gram gathers e^{i k . R} from per-axis
    phase factors by this rule.

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

    axis = _axis_wavenumbers(float(box_length), int(half_extent))
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


def _axis_wavenumbers(box_length: float, half_extent: int) -> np.ndarray:
    """Per-axis wavenumbers 2 pi n / L for n = -half_extent .. half_extent.

    Every component of every lattice wavevector is one of these values, bit
    for bit; see the ordering invariant of :class:`ModeLattice`.
    """
    return (2.0 * np.pi / box_length) * np.arange(-half_extent, half_extent + 1)


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


def _box_sum(lattice: ModeLattice, offsets: np.ndarray, sigma: float) -> np.ndarray:
    """S_N(rho) for each row rho of the (n, 3) offsets, shape (n, 3, 3).

    Rows are summed one at a time, so a stack gives the bits of its row
    calls, and sum_k c_k khat khat^T is one (3, M // 2) x (M // 2, 3) product
    without an (M, 3, 3) projector stack.
    """
    kvecs, khat, weights = _half_modes(lattice, sigma)
    tensors = np.empty((len(offsets), 3, 3))
    for row, rho in zip(tensors, offsets):
        c = weights * np.cos(kvecs @ rho)
        row[...] = np.sum(c) * np.eye(3) - khat.T @ (c[:, None] * khat)
    return 2.0 / (lattice.units.epsilon0 * lattice.volume) * tensors


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
    relations gives -i hbar S_N(R - R'), the Gaussian-regulated box sum.
    Within the window sigma << |R - R'| << box_length it approaches
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
    rho = as_vec3(R, "R") - as_vec3(Rp, "Rp")
    _separation(
        rho,
        "commutator evaluated at coincident points; the contact term is "
        "not represented by this mode sum",
    )
    return -1j * lattice.units.hbar * _box_sum(lattice, rho[None], sigma)[0]


def analytic_dipole_tensor(rho, units: UnitSystem = NATURAL) -> np.ndarray:
    """Closed-form continuum limit of the equal-time A-E commutator.

    For separation rho != 0 this is
    ``i hbar / (4 pi eps0 |rho|^3) (delta_jl - 3 rhohat_j rhohat_l)``;
    the delta-function contact term at rho = 0 is outside its domain.
    """
    core = _dipole_tensor(
        as_vec3(rho, "rho"), "analytic commutator tensor is singular at zero separation"
    )
    return 1j * units.hbar / (4.0 * np.pi * units.epsilon0) * core
