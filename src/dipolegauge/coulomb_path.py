"""Line-integral gauge generator of a point charge and Coulomb-field recovery.

For a charge q the gauge exponent is a line integral of the vector potential
from the origin out to a distant endpoint.  Commuting it with an
electric-field component turns the integrand into the closed-form equal-time
kernel, whose dimensionless core ``(delta - 3 rhohat rhohat^T) / rho^3`` is
exactly the Jacobian of rho / rho^3.  The integral therefore telescopes: its
value depends only on the path endpoints, and as the far endpoint recedes it
approaches minus the Coulomb field of the charge, the endpoint term decaying
like one over the endpoint distance squared.

Both evaluation routes are provided: quadrature of the kernel along the
polyline, and the exact endpoint antiderivative that serves as its test
oracle.  The quadrature is one fixed Gauss-Legendre rule per segment, in the
angle seen from the field point or in a sinh map about the segment's
closest point to it (``_segment_integrals``).  It has no tolerance and no
stop, so it is scale-free.  All functions are pure; segment integrals are
summed in path order, so results are deterministic.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSeparationError, PathSingularityError
from .field_modes import _dipole_tensor, _norm2, _read_only, _separation, as_vec3
from .units import NATURAL, UnitSystem

__all__ = [
    "ChargePath",
    "straight_path",
    "staircase_path",
    "coulomb_field",
    "dipole_kernel",
    "commutator_line_integral",
    "commutator_line_integrals",
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
        # compared, not subtracted or squared, so no vertex can overflow here
        coincide = np.flatnonzero(np.all(vertices[1:] == vertices[:-1], axis=1))
        if coincide.size:
            idx = int(coincide[0])
            raise ValueError(f"consecutive vertices {idx} and {idx + 1} coincide")
        charge = float(self.charge)
        if not np.isfinite(charge):
            raise ValueError(f"charge must be finite, got {charge}")
        object.__setattr__(self, "vertices", _read_only(vertices.copy()))
        object.__setattr__(self, "charge", charge)

    @property
    def num_segments(self) -> int:
        return self.vertices.shape[0] - 1


def _reference_endpoint(r, endpoint_factor: float) -> np.ndarray:
    """Far endpoint -endpoint_factor * r shared by both reference paths."""
    r = as_vec3(r, "r")
    _separation(r, "cannot aim a reference path at r = 0")
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
    dist = _separation(r, "Coulomb field evaluated at the charge")
    # three divisions rather than |r|^3, which leaves the float range first
    return (float(q) / (4.0 * np.pi * units.epsilon0)) * (r / dist / dist / dist)


def dipole_kernel(rho) -> np.ndarray:
    """Jacobian matrix of rho / |rho|^3, i.e. (delta - 3 rhohat rhohat^T) / |rho|^3.

    This dimensionless core is what the line-integral integrand contracts with
    the path element; being a gradient is exactly why the integral telescopes.

    rho is one 3-vector or a stack of them, shape (..., 3); the result has
    shape (..., 3, 3), with the bits of the single-vector formula.
    """
    rho = np.asarray(rho, dtype=float)
    if rho.ndim == 0 or rho.shape[-1] != 3:
        raise ValueError(
            f"rho must be a 3-vector or a stack of them, got shape {rho.shape}"
        )
    if not np.all(np.isfinite(rho)):
        raise ValueError(f"rho must have finite components, got {rho}")
    return _dipole_tensor(rho, "kernel is singular at zero separation")


_NODES = 32  # Gauss-Legendre nodes per segment
# segments per kernel call: 32 keep the rule's temporaries near 0.5 MiB and
# take as long as one call for all 240 segments of a 72-job batch
_BLOCK = 32


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the _NODES-point Gauss-Legendre rule on [-1, 1]."""
    # imported here: only the coulomb-path quadrature needs numpy.polynomial
    from numpy.polynomial.legendre import leggauss

    nodes, weights = leggauss(_NODES)
    return _read_only(nodes), _read_only(weights)


def _segment_integrals(starts: np.ndarray, dirs: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Integral over u in [0, 1] of dipole_kernel(a + u d - r) @ d per row.

    Row j has segment start a = starts[j], direction d = dirs[j] and field
    point r = points[j]; the result has shape (n, 3).  Along the unit vector
    e = d / |d|, the separation from r is rho = f + tau e, where f is the
    foot of r on the segment's line, at distance h, and tau runs from
    tau0 = (a - r) . e to tau0 + |d|.  The integral is that of
    dipole_kernel(rho) @ e over tau, by the _NODES-point Gauss-Legendre rule
    in one of two variables:

    - tau = h tan(theta) when the foot lies in the segment (tau0 <= 0 <=
      tau0 + |d|), which makes the integrand a trigonometric polynomial of
      degree 3 in theta;
    - otherwise w with tau = sign(tau0) (e^w - (h/2)^2 e^-w): the sinh map
      tau = h sinh(v) shifted by w = v + log(h/2), so that h = 0 gives the
      log map |tau| = e^w, and dtau/dw = |rho|.

    All nodes of a row go to dipole_kernel in one call with those of up to
    _BLOCK - 1 other rows; no row's value depends on the others.
    """
    if len(starts) > _BLOCK:
        return np.concatenate([
            _segment_integrals(*(x[s : s + _BLOCK] for x in (starts, dirs, points)))
            for s in range(0, len(starts), _BLOCK)
        ])
    nodes, weights = _gauss_legendre()
    length = _norm2(dirs)
    along = dirs / length[:, None]
    tau0 = np.vecdot(starts - points, along)
    tau1 = tau0 + length
    foot = starts - points - tau0[:, None] * along
    h = _norm2(foot)
    inside = (tau0 <= 0.0) & (tau1 >= 0.0)
    # each row's limits in its variable; a row's other variable is computed
    # too, which stays finite since h > 0 wherever the foot is inside
    lo, hi = (
        np.where(inside, np.arctan2(t, h), np.log(0.5 * (np.abs(t) + np.hypot(t, h))))
        for t in (tau0, tau1)
    )
    half = 0.5 * (hi - lo)
    x = (0.5 * (lo + hi))[:, None] + half[:, None] * nodes
    inside, h, sign = inside[:, None], h[:, None], np.sign(tau0)[:, None]
    tan = np.tan(x)
    grow = np.exp(x)
    shrink = 0.5 * h * (0.5 * h / grow)
    tau = np.where(inside, h * tan, sign * (grow - shrink))
    jacobian = np.where(inside, h + h * tan * tan, sign * (grow + shrink))
    rho = foot[:, None, :] + tau[..., None] * along[:, None, :]
    values = (dipole_kernel(rho) @ along[:, None, :, None])[..., 0]
    return half[:, None] * np.einsum("jk,jka->ja", weights * jacobian, values)


def commutator_line_integral(
    path: ChargePath,
    r,
    units: UnitSystem = NATURAL,
    *,
    exclusion_radius: float | None = None,
) -> np.ndarray:
    """Commutator of the line-integral gauge exponent with the field at r.

    Integrates -(q / (4 pi eps0)) dipole_kernel(s - r) . ds along the polyline,
    each segment by one fixed 32-node Gauss-Legendre rule and summed in path
    order.  The rule's variable is chosen per segment about its closest point
    to r: the angle seen from r when that point lies in the segment, else a
    sinh map about it (a log map for a segment on a line through r).  The
    job is integrated in units of |r|, and the rule has no tolerance, so the
    result is covariant in length.  The expected value is minus the Coulomb
    field of the charge, short of the endpoint truncation term.  This is
    ``commutator_line_integrals`` of the one job (path, r).

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
    """
    (value,) = commutator_line_integrals([(path, r)], units, exclusion_radius=exclusion_radius)
    return value


def commutator_line_integrals(
    jobs,
    units: UnitSystem = NATURAL,
    *,
    exclusion_radius: float | None = None,
) -> list[np.ndarray]:
    """``commutator_line_integral(path, r, ...)`` of every (path, r) job.

    Every job is checked first, in order, so the first invalid one raises
    before any quadrature.  The jobs' segments are stacked in units of each
    job's |r|, and one pass over the stack finds every segment's clearance
    from its field point.  The rule then integrates the segments of all
    charged jobs from the same stack; each result equals the one-job call's
    bit for bit.
    """
    jobs = list(jobs)
    points, rejected = [], None
    for _, r in jobs:
        try:
            points.append(as_vec3(r, "r"))
        except ValueError as error:
            rejected = error  # raised once the jobs before it are checked
            break
    points = np.reshape(points, (-1, 3))
    dists = _norm2(points)
    origin = np.flatnonzero(dists == 0.0)
    if origin.size:
        rejected = DegenerateSeparationError("field point must be away from the origin")
        points, dists = points[: origin[0]], dists[: origin[0]]
    paths = [path for path, _ in jobs[: len(points)]]
    counts = np.array([path.num_segments for path in paths], dtype=int)
    job_of = np.repeat(np.arange(len(paths)), counts)
    if paths:
        # the kernel has degree -3 in length and ds degree 1, so a job's
        # integral is |r|^-2 times that of the job in units of |r|, whose
        # distances are of order 1
        scale = dists[job_of, None]
        starts = np.concatenate([path.vertices[:-1] for path in paths]) / scale
        segs = np.concatenate([np.diff(path.vertices, axis=0) for path in paths]) / scale
        seg_points = points[job_of] / scale
        # each segment's point nearest its field point
        t = np.clip(np.vecdot(seg_points - starts, segs) / np.vecdot(segs, segs), 0.0, 1.0)
        clearances = _norm2(starts + t[:, None] * segs - seg_points)
        radii = 1e-6 * dists if exclusion_radius is None else np.full(len(paths), exclusion_radius)
        close = np.flatnonzero(clearances <= (radii / dists)[job_of])
        if close.size:
            row, job = int(close[0]), int(job_of[close[0]])
            i = row - int(np.sum(counts[:job]))
            raise PathSingularityError(
                f"segment {i} passes within {clearances[row] * dists[job]:.3e} of the "
                f"field point (exclusion radius {radii[job]:.3e})",
                segment_index=i,
            )
    if rejected is not None:
        raise rejected
    results = [np.zeros(3) for _ in paths]
    charged = np.array([path.charge != 0.0 for path in paths], dtype=bool)
    if not charged.any():
        return results
    rows = charged[job_of]
    values = _segment_integrals(starts[rows], segs[rows], seg_points[rows])
    kept = counts[charged]
    totals = np.add.reduceat(values, np.cumsum(kept) - kept, axis=0)
    for j, total in zip(np.flatnonzero(charged).tolist(), totals):
        prefactor = -paths[j].charge / (4.0 * np.pi * units.epsilon0)
        results[j] = prefactor * (total / dists[j] / dists[j])
    return results


def line_integral_endpoint(
    path: ChargePath, r, units: UnitSystem = NATURAL
) -> np.ndarray:
    """Exact value of the line integral from the antiderivative at the endpoints.

    The integrand is the total differential of rho / |rho|^3, so the whole
    polyline contributes F(last vertex) - F(origin) with
    F(s) = (s - r) / |s - r|^3.  This closed form is the oracle against which
    the quadrature route is tested.  F is formed in units of |r|, as the
    quadrature works, dividing by |rho| three times rather than cubing it.
    """
    r = as_vec3(r, "r")
    dist = _separation(r, "field point must be away from the origin")
    ends = []
    for vertex in (path.vertices[0], path.vertices[-1]):
        rho = (vertex - r) / dist
        rho_dist = _separation(rho, "path endpoint coincides with field point")
        ends.append(rho / rho_dist / rho_dist / rho_dist)
    prefactor = -path.charge / (4.0 * np.pi * units.epsilon0)
    return prefactor * ((ends[1] - ends[0]) / dist / dist)


def path_residual(
    first: np.ndarray, second: np.ndarray, r, charge: float, units: UnitSystem = NATURAL
) -> float:
    """Max-norm difference of two line integrals at r, normalized by |E_c(r)|.

    Zero for a zero charge, whose line integrals vanish identically.  |E_c| is
    math.hypot of the field, which neither over- nor underflows where the
    squares of its components would.
    """
    if charge == 0.0:
        return 0.0
    scale = math.hypot(*coulomb_field(r, charge, units).tolist())
    return float(np.max(np.abs(first - second)) / scale)


def path_independence_residual(
    path1: ChargePath,
    path2: ChargePath,
    r,
    units: UnitSystem = NATURAL,
    *,
    exclusion_radius: float | None = None,
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
    first, second = commutator_line_integrals(
        [(path1, r), (path2, r)], units, exclusion_radius=exclusion_radius
    )
    return path_residual(first, second, r, path1.charge, units)
