"""Line-integral gauge generator of a point charge and Coulomb-field recovery.

For a charge q the gauge exponent is a line integral of the vector potential
from the origin out to a distant endpoint.  Commuting it with an
electric-field component turns the integrand into the closed-form equal-time
kernel, whose dimensionless core ``(delta - 3 rhohat rhohat^T) / rho^3`` is
exactly the Jacobian of rho / rho^3.  The integral therefore telescopes: its
value depends only on the path endpoints, and as the far endpoint recedes it
approaches minus the Coulomb field of the charge, the endpoint term decaying
like one over the endpoint distance squared.

Both evaluation routes are provided: adaptive quadrature of the kernel along
the polyline, and the exact endpoint antiderivative that serves as its test
oracle.  All functions are pure; segment quadratures are accumulated in path
order, so results are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSeparationError, PathSingularityError
from .field_modes import as_vec3
from .units import NATURAL, UnitSystem

__all__ = [
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


@dataclass(frozen=True, eq=False)
class ChargePath:
    """Polyline from the origin to a distant endpoint, carrying a point charge.

    The finite final vertex stands in for a path running out to infinity; the
    truncation error of every derived quantity scales like one over its
    distance squared.
    """

    vertices: np.ndarray
    charge: float

    def __post_init__(self):
        vertices = np.asarray(self.vertices, dtype=float)
        if vertices.ndim != 2 or vertices.shape[1] != 3 or vertices.shape[0] < 2:
            raise ValueError(
                f"vertices must be an (n >= 2, 3) array, got shape {vertices.shape}"
            )
        if not np.all(np.isfinite(vertices)):
            raise ValueError("path vertices must be finite")
        if np.any(vertices[0] != 0.0):
            raise ValueError(f"path must start at the origin, got {vertices[0]}")
        seg_lengths = np.linalg.norm(np.diff(vertices, axis=0), axis=1)
        if np.any(seg_lengths == 0.0):
            idx = int(np.flatnonzero(seg_lengths == 0.0)[0])
            raise ValueError(f"consecutive vertices {idx} and {idx + 1} coincide")
        charge = float(self.charge)
        if not np.isfinite(charge):
            raise ValueError(f"charge must be finite, got {charge}")
        vertices = vertices.copy()
        vertices.flags.writeable = False
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "charge", charge)

    @property
    def num_segments(self) -> int:
        return self.vertices.shape[0] - 1


def _reference_endpoint(r, endpoint_factor: float) -> np.ndarray:
    """Far endpoint -endpoint_factor * r shared by both reference paths."""
    r = as_vec3(r, "r")
    if float(np.linalg.norm(r)) == 0.0:
        raise DegenerateSeparationError("cannot aim a reference path at r = 0")
    if not (endpoint_factor > 0.0):
        raise ValueError(f"endpoint_factor must be > 0, got {endpoint_factor}")
    return -endpoint_factor * r


def straight_path(r, endpoint_factor: float = 200.0, charge: float = 1.0) -> ChargePath:
    """Single-segment path from the origin to endpoint_factor * |r| along -rhat.

    Walking away from the field point keeps the whole path at distance >= |r|
    from it, so no exclusion radius is ever approached.
    """
    endpoint = _reference_endpoint(r, endpoint_factor)
    return ChargePath(vertices=np.array([[0.0, 0.0, 0.0], endpoint]), charge=charge)


def staircase_path(r, endpoint_factor: float = 200.0, charge: float = 1.0) -> ChargePath:
    """Axis-aligned staircase from the origin to the same endpoint as straight_path.

    One leg per nonzero endpoint component, in x, y, z order.  Useful as the
    partner in path-independence checks: same endpoints, different interior.
    """
    endpoint = _reference_endpoint(r, endpoint_factor)
    vertices = [np.zeros(3)]
    current = np.zeros(3)
    for axis in range(3):
        if endpoint[axis] != 0.0:
            current = current.copy()
            current[axis] = endpoint[axis]
            vertices.append(current)
    return ChargePath(vertices=np.array(vertices), charge=charge)


def coulomb_field(r, q: float, units: UnitSystem = NATURAL) -> np.ndarray:
    """Electrostatic field (q / (4 pi eps0)) r / |r|^3 of a point charge at the origin."""
    r = as_vec3(r, "r")
    dist = float(np.linalg.norm(r))
    if dist == 0.0:
        raise DegenerateSeparationError("Coulomb field evaluated at the charge")
    return (float(q) / (4.0 * np.pi * units.epsilon0 * dist**3)) * r


def dipole_kernel(rho) -> np.ndarray:
    """Jacobian matrix of rho / |rho|^3, i.e. (delta - 3 rhohat rhohat^T) / |rho|^3.

    This dimensionless core is what the line-integral integrand contracts with
    the path element; being a gradient is exactly why the integral telescopes.
    """
    rho = as_vec3(rho, "rho")
    dist = float(np.linalg.norm(rho))
    if dist == 0.0:
        raise DegenerateSeparationError("kernel is singular at zero separation")
    rhohat = rho / dist
    return (np.eye(3) - 3.0 * np.outer(rhohat, rhohat)) / dist**3


def _segment_clearance(a: np.ndarray, b: np.ndarray, r: np.ndarray) -> float:
    seg = b - a
    length_sq = float(seg @ seg)
    t = float(np.clip(((r - a) @ seg) / length_sq, 0.0, 1.0))
    return float(np.linalg.norm(a + t * seg - r))


def _check_clearance(path: ChargePath, r: np.ndarray, exclusion_radius: float) -> None:
    for i in range(path.num_segments):
        clearance = _segment_clearance(path.vertices[i], path.vertices[i + 1], r)
        if clearance <= exclusion_radius:
            raise PathSingularityError(
                f"segment {i} passes within {clearance:.3e} of the field point "
                f"(exclusion radius {exclusion_radius:.3e})",
                segment_index=i,
            )


def commutator_line_integral(
    path: ChargePath,
    r,
    units: UnitSystem = NATURAL,
    *,
    exclusion_radius: float | None = None,
    quad_epsrel: float = 1e-9,
) -> np.ndarray:
    """Commutator of the line-integral gauge exponent with the field at r.

    Integrates -(q / (4 pi eps0)) dipole_kernel(s - r) . ds along the polyline
    by adaptive quadrature, one segment at a time in path order.  The expected
    value is minus the Coulomb field of the charge, short of the endpoint
    truncation term.

    The result is also the c-number correction, transformed minus original
    field operator at r.  Field operators conjugate by the full adjoint, so
    the correction is the single commutator with weight one (not the
    factor-1/2 flow average of the time-derivative identity); as it cancels
    the Coulomb field, the transformed picture's field is purely transverse.

    The charge prefactor is applied outside the quadrature, so the result is
    exactly linear in q.

    Parameters
    ----------
    path : ChargePath
    r : 3-vector
        Field point; |r| > 0 and the path must stay clear of it.
    units : UnitSystem, optional
    exclusion_radius : float, optional
        Minimum allowed distance between path and field point; defaults to
        1e-6 * |r|.  Violations raise PathSingularityError carrying the
        segment index.
    quad_epsrel : float, optional
        Per-segment relative quadrature tolerance.
    """
    r = as_vec3(r, "r")
    dist = float(np.linalg.norm(r))
    if dist == 0.0:
        raise DegenerateSeparationError("field point must be away from the origin")
    if exclusion_radius is None:
        exclusion_radius = 1e-6 * dist
    _check_clearance(path, r, exclusion_radius)
    if path.charge == 0.0:
        return np.zeros(3)
    # Deferred: scipy.integrate dominates import time; only coulomb-path uses it.
    from scipy.integrate import quad_vec

    total = np.zeros(3)
    for i in range(path.num_segments):
        a = path.vertices[i]
        seg = path.vertices[i + 1] - a

        def integrand(u, a=a, seg=seg):
            return dipole_kernel(a + u * seg - r) @ seg

        value, _ = quad_vec(integrand, 0.0, 1.0, epsrel=quad_epsrel, epsabs=1e-14)
        total += value
    return -path.charge / (4.0 * np.pi * units.epsilon0) * total


def line_integral_endpoint(
    path: ChargePath, r, units: UnitSystem = NATURAL
) -> np.ndarray:
    """Exact value of the line integral from the antiderivative at the endpoints.

    The integrand is the total differential of rho / |rho|^3, so the whole
    polyline contributes F(last vertex) - F(origin) with
    F(s) = (s - r) / |s - r|^3.  This closed form is the oracle against which
    the quadrature route is tested.
    """
    r = as_vec3(r, "r")
    if float(np.linalg.norm(r)) == 0.0:
        raise DegenerateSeparationError("field point must be away from the origin")
    ends = []
    for vertex in (path.vertices[0], path.vertices[-1]):
        rho = vertex - r
        dist = float(np.linalg.norm(rho))
        if dist == 0.0:
            raise DegenerateSeparationError("path endpoint coincides with field point")
        ends.append(rho / dist**3)
    return -path.charge / (4.0 * np.pi * units.epsilon0) * (ends[1] - ends[0])


def path_residual(
    first: np.ndarray, second: np.ndarray, r, charge: float, units: UnitSystem = NATURAL
) -> float:
    """Max-norm difference of two line integrals at r, normalized by |E_c(r)|.

    Zero for a zero charge, whose line integrals vanish identically.
    """
    if charge == 0.0:
        return 0.0
    scale = float(np.linalg.norm(coulomb_field(r, charge, units)))
    return float(np.max(np.abs(first - second)) / scale)


def path_independence_residual(
    path1: ChargePath,
    path2: ChargePath,
    r,
    units: UnitSystem = NATURAL,
    *,
    exclusion_radius: float | None = None,
    quad_epsrel: float = 1e-9,
) -> float:
    """Max-norm difference of the two line integrals, normalized by |E_c(r)|.

    Both paths must carry the same charge.  Paths sharing their far endpoint
    should agree to quadrature accuracy regardless of interior shape; paths
    with different endpoint distances differ by the analytic endpoint terms.
    """
    if path1.charge != path2.charge:
        raise ValueError(
            f"paths carry different charges ({path1.charge} vs {path2.charge})"
        )
    first = commutator_line_integral(
        path1, r, units, exclusion_radius=exclusion_radius, quad_epsrel=quad_epsrel
    )
    second = commutator_line_integral(
        path2, r, units, exclusion_radius=exclusion_radius, quad_epsrel=quad_epsrel
    )
    return path_residual(first, second, r, path1.charge, units)
