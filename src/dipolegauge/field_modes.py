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

Every regulated mode sum factors its Gaussian weight and its phase over the
three axes and reads only the per-axis wavenumbers kappa_m = 2 pi m / L
(``_axis_wavenumbers``), never the (M, 3) wavevectors.  ``_box_sum`` alone
forms the box sum S_N(rho) = (1 / (eps0 V)) sum_{n != 0} w_k cos(k . rho)
(1 - khat khat^T): the A-E kernel is -i hbar S_N(rho), the field shift
sum_q S_N(R_q - R) d_q, the self energy -(1/2) d^T S_N(0) d.  The pair
energies of all pairs come from one Gram matrix over the first M // 2 modes
(:func:`dipolegauge.gauge_dipole.pair_energies_from_commutator`); tests hold
it to the per-pair ``_box_sum`` route.  ``_dipole_tensor`` alone forms the
closed-form limit (delta - 3 rhohat rhohat^T) / |rho|^3.

All functions here are pure and treat their array inputs as immutable.  Mode
sums are numpy reductions and small BLAS matrix products (the kappa
contractions of ``_box_sum``, the two Gram products per chunk of modes of the
pair energies), so repeated calls produce bit-identical results for a fixed
BLAS thread count.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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
    with n = 0 excluded (the zero mode has no transverse content).  Only L,
    N = half_extent and the units are stored; ``kvecs`` and ``knorm`` are
    built, read-only, on first access.  Modes are ordered lexicographically in
    (n_x, n_y, n_z), so any sum over modes is reproducible bit for bit.  The
    number of modes M is even, and mode M - 1 - i is the negation of mode i:
    ``kvecs[M // 2:]`` equals the negated, reversed first half exactly and
    ``knorm[M // 2:]`` equals the reversed first half.  Mode i < M // 2 has
    the labels ``np.unravel_index(i, (2 N + 1,) * 3)`` minus N, so component a
    of ``kvecs[i]`` is, bit for bit, entry ``unravel_index(i)[a]`` of the
    per-axis wavenumbers (``_axis_wavenumbers``); the pair Gram gathers its
    half modes by this rule.

    Attributes
    ----------
    box_length : float
        Side length L of the quantization box.
    half_extent : int
        Largest |n_i| kept in each direction.
    units : UnitSystem
        Constants used by every field amplitude built on this lattice.
    num_modes : int, property
        M = (2 N + 1)^3 - 1, without building any array.
    kvecs : (M, 3) float array, cached property
        Wavevectors 2 pi n / L.
    knorm : (M,) float array, cached property
        |k| per mode.
    omega : (M,) float array, property
        Dispersion c |k| per mode, computed on each access.
    """

    box_length: float
    half_extent: int
    units: UnitSystem

    @property
    def num_modes(self) -> int:
        return (2 * self.half_extent + 1) ** 3 - 1

    @property
    def volume(self) -> float:
        return self.box_length**3

    @cached_property
    def kvecs(self) -> np.ndarray:
        axis = _axis_wavenumbers(self.box_length, self.half_extent)
        # an 'ij' meshgrid flattened in C order is lexicographic in (n_x, n_y, n_z);
        # the zero mode is the middle row
        grid = np.meshgrid(axis, axis, axis, indexing="ij", copy=False)
        kvecs = np.stack(grid, axis=-1).reshape(-1, 3)
        return _read_only(np.delete(kvecs, len(kvecs) // 2, axis=0))

    @cached_property
    def knorm(self) -> np.ndarray:
        return _read_only(np.linalg.norm(self.kvecs, axis=1))

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
    """The (2 half_extent + 1)^3 - 1 nonzero modes of the box.

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
    return ModeLattice(float(box_length), int(half_extent), units)


def _axis_wavenumbers(box_length: float, half_extent: int) -> np.ndarray:
    """Per-axis wavenumbers 2 pi n / L for n = -half_extent .. half_extent.

    Every component of every lattice wavevector is one of these values, bit
    for bit; see the ordering invariant of :class:`ModeLattice`.
    """
    return (2.0 * np.pi / box_length) * np.arange(-half_extent, half_extent + 1)


def transverse_projectors(lattice: ModeLattice) -> np.ndarray:
    """Projectors 1 - khat khat^T for every mode, shape (M, 3, 3).

    Only the coefficient builders (``_field_coeffs``) and the tests'
    full-lattice oracles use the stack; the mode sums contract khat directly,
    gathered from the per-axis wavenumbers.
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
    return np.exp(-((lattice.knorm * sigma) ** 2))


# bytes of the buffers one chunk of a mode sum reuses: the box sum's slab of
# n_x planes (3 planes at N = 48), or the pair Gram's waves and gathered factor
# (1213 modes for 27 dipoles).  Budgets of 0.5 to 1 MB ran fastest for both at
# N = 24 and 48; 0.25, 2 and 4 MB ran 10-30% slower, and larger chunks raise
# peak memory
_CHUNK_BYTES = 2**20


def _chunk_len(row_bytes: int) -> int:
    """How many rows of ``row_bytes`` bytes one chunk holds; at least 1."""
    return max(1, _CHUNK_BYTES // row_bytes)


def _regulated_axis(lattice: ModeLattice, sigma: float) -> np.ndarray:
    """Per-axis wavenumbers of a regulated mode sum, after its sigma rule.

    This is the one rule of every regulated mode sum: sigma finite and > 0.
    """
    if not (sigma > 0.0) or not np.isfinite(sigma):
        raise ValueError(f"regulated mode sums need a finite sigma > 0, got {sigma}")
    return _axis_wavenumbers(lattice.box_length, lattice.half_extent)


def _box_sum(lattice: ModeLattice, offsets: np.ndarray, sigma: float) -> np.ndarray:
    """S_N(rho) for each row rho of the (n, 3) offsets, shape (n, 3, 3).

    Over the whole cube of labels, c_n = w_n cos(k . rho) is Re(f_x f_y f_z)
    with per-axis factors f_a[m] = e^{-(sigma kappa_m)^2} e^{i kappa_m rho_a}.
    With h = c / k^2 (0 at the zero mode), c (1 - khat khat^T) is
    h (k^2 1 - k k^T): entry (a, b) sums h times -kappa_a kappa_b, and the
    diagonal entry (a, a) sums h times the other two kappa^2, which keeps the
    diagonal free of the cancellation of sum c against sum c khat_a^2.  Each
    sum comes from partial sums of h over the other axes, built in slabs of
    n_x planes of at most ``_CHUNK_BYTES``.  Rows are summed one at a time, so
    a stack gives the bits of its row calls.
    """
    axis = _regulated_axis(lattice, sigma)
    n = lattice.half_extent
    side = len(axis)
    square = axis * axis
    gauss = np.exp(-((axis * sigma) ** 2))
    plane = square[:, None] + square
    # every slab of every row reuses three buffers of whole n_x planes (k^2,
    # the complex products c and h), so no slab allocates
    slab = min(side, _chunk_len(32 * side * side))
    k2_buffer, h_buffer = np.empty((2, slab, side, side))
    c_buffer = np.empty((slab, side, side), complex)
    tensors = np.empty((len(offsets), 3, 3))
    for row, rho in zip(tensors, offsets):
        fx, fy, fz = gauss * np.exp(1j * (rho[:, None] * axis))
        fyz = fy[:, None] * fz
        h_xy, h_xz, h_yz = np.empty((side, side)), np.empty((side, side)), 0.0
        for start in range(0, side, slab):
            stop = min(start + slab, side)
            planes = slice(0, stop - start)
            k2 = np.add(square[start:stop, None, None], plane, out=k2_buffer[planes])
            if start <= n < stop:
                k2[n - start, n, n] = np.inf
            c = np.multiply(fx[start:stop, None, None], fyz, out=c_buffer[planes])
            h = np.divide(c.real, k2, out=h_buffer[planes])
            h_xy[start:stop] = h.sum(axis=2)
            h_xz[start:stop] = h.sum(axis=1)
            h_yz = h_yz + h.sum(axis=0)
        xy, xz, yz = (axis @ part @ axis for part in (h_xy, h_xz, h_yz))
        x2 = square @ h_xy.sum(axis=1)
        y2 = h_xy.sum(axis=0) @ square
        z2 = h_xz.sum(axis=0) @ square
        row[...] = [[y2 + z2, -xy, -xz], [-xy, x2 + z2, -yz], [-xz, -yz, x2 + y2]]
    return tensors / (lattice.units.epsilon0 * lattice.volume)


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
