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
oracle.  The quadrature is QUADPACK's globally adaptive Gauss-Kronrod
21-point (GK21) rule with the bisection order and stop rule of scipy's
adaptive vector quadrature (scipy.integrate), reproduced in numpy.  Every
segment integral of a batch of (path, field point) jobs runs that loop on its
own, but all advance in lockstep, so each round's nodes of all of them go to
the kernel in one call, while every result equals scipy's bit for bit.  All
functions are pure; segment quadratures are accumulated in path order, so
results are deterministic.
"""

from __future__ import annotations

import heapq
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import PathSingularityError
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
        seg_lengths = np.linalg.norm(np.diff(vertices, axis=0), axis=1)
        if np.any(seg_lengths == 0.0):
            idx = int(np.flatnonzero(seg_lengths == 0.0)[0])
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
    return (float(q) / (4.0 * np.pi * units.epsilon0 * dist**3)) * r


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


# QUADPACK's Gauss-Kronrod 21-point rule on [-1, 1] (Piessens et al. 1983),
# symmetric about 0: the Kronrod nodes from the right end to the centre, their
# weights, and the weights of the embedded 10-point Gauss rule, whose nodes
# are the odd-indexed Kronrod nodes.
_GK21_RIGHT_NODES = np.array([
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
    0.0,
])
_GK21_RIGHT_KRONROD = np.array([
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077958109831074,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_GK21_RIGHT_GAUSS = np.array([
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])
_GK21_NODES = np.concatenate([_GK21_RIGHT_NODES, -_GK21_RIGHT_NODES[-2::-1]])
_GK21_KRONROD_WEIGHTS = np.concatenate(
    [_GK21_RIGHT_KRONROD, _GK21_RIGHT_KRONROD[-2::-1]]
)
_GK21_GAUSS_WEIGHTS = np.concatenate([_GK21_RIGHT_GAUSS, _GK21_RIGHT_GAUSS[::-1]])
_QUAD_EPSABS = 1e-14
_QUAD_LIMIT = 10000  # most subintervals before the loop gives up
_QUAD_BATCH = 128  # most subintervals bisected per round
_QUAD_ROWS = 4096  # most subintervals in one _gk21 call of a batch


def _node_sum(weights: np.ndarray, values: np.ndarray) -> np.ndarray:
    """sum_i weights[i] * values[:, i], added from 0.0 in node order."""
    terms = weights[:, None] * values
    padded = np.concatenate([np.zeros_like(terms[:, :1]), terms], axis=1)
    return np.add.accumulate(padded, axis=1)[:, -1]


def _gk21(lo: np.ndarray, hi: np.ndarray, integrand):
    """GK21 integral, error and rounding-error estimates on each [lo[j], hi[j]].

    All 21 nodes of every interval go to the integrand in one call, as an
    (n, 21) array; it returns (n, 21, 3).  The error estimate is QUADPACK's:
    the Kronrod-Gauss difference rescaled by the integral of the deviation
    from the mean, and never below the rounding error.
    """
    centre = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    values = integrand(centre[:, None] + half[:, None] * _GK21_NODES)
    kronrod = _node_sum(_GK21_KRONROD_WEIGHTS, values)
    gauss = _node_sum(_GK21_GAUSS_WEIGHTS, values[:, 1::2])
    abs_sum = _node_sum(_GK21_KRONROD_WEIGHTS, np.abs(values))
    deviation = np.abs(values - (kronrod / 2.0)[:, None])
    dev_sum = _node_sum(_GK21_KRONROD_WEIGHTS, deviation)
    diffs = _norm2((kronrod - gauss) * half[:, None]).tolist()
    devs = _norm2(dev_sum * half[:, None]).tolist()
    rounds = _norm2((50 * sys.float_info.epsilon * half)[:, None] * abs_sum).tolist()
    errs = []
    # scalar float arithmetic: the C library's pow, as QUADPACK's loop uses
    for err, dev, rnd in zip(diffs, devs, rounds):
        if dev != 0 and err != 0:
            err = dev * min(1.0, (200 * err / dev) ** 1.5)
        if rnd > sys.float_info.min:
            err = max(err, rnd)
        errs.append(err)
    return half[:, None] * kronrod, errs, rounds


class _AdaptiveIntegral:
    """One integral's state in scipy.integrate's adaptive loop over [0, 1].

    Subintervals sit in a heap keyed (-error, lo, hi), their GK21 values in
    ``estimates``.  ``pop`` and ``push`` are the two halves of one round of
    that loop, split so that the subintervals of many integrals can be
    evaluated in between by one ``_gk21`` call.
    """

    def __init__(self, value: np.ndarray, error: float, rounding: float):
        self.total = value.copy()
        self.global_error, self.rounding_error = error, rounding
        self.estimates = {(0.0, 1.0): value}
        self.heap = [(-error, 0.0, 1.0)]

    def pop(self, epsrel: float) -> list:
        """Up to _QUAD_BATCH of the worst subintervals, as (error, lo, hi,
        estimate), while their summed error stays within the global error
        less tol / 8."""
        tol = max(_QUAD_EPSABS, epsrel * _norm2(self.total))
        popped = []
        err_sum = 0.0
        while self.heap and len(popped) < _QUAD_BATCH:
            if popped and err_sum > self.global_error - tol / 8:
                break
            neg_err, lo, hi = heapq.heappop(self.heap)
            # keys are unique while midpoints fall strictly inside their
            # intervals; the rounding-error stop comes long before that fails
            popped.append((-neg_err, lo, hi, self.estimates.pop((lo, hi))))
            err_sum += -neg_err
        return popped

    def push(self, popped, halves, epsrel: float) -> bool:
        """Replace each popped subinterval by its halves, in pop order.

        ``halves[k]`` is (c, left, left_err, left_rounding, right, right_err,
        right_rounding) for the halves [lo, c] and [c, hi] of ``popped[k]``.
        Returns whether the loop goes on: it stops when the global error is
        below tol / 8 with at least two subintervals, or below the
        accumulated rounding error, or is no longer finite, or the heap holds
        _QUAD_LIMIT subintervals.
        """
        heap, estimates = self.heap, self.estimates
        for (old_err, a, b, old), half in zip(popped, halves):
            c, left, left_err, left_rnd, right, right_err, right_rnd = half
            self.total += left + right - old
            self.global_error += left_err + right_err - old_err
            self.rounding_error += left_rnd + right_rnd
            estimates[(a, c)] = left
            estimates[(c, b)] = right
            heapq.heappush(heap, (-left_err, a, c))
            heapq.heappush(heap, (-right_err, c, b))
        if len(heap) >= 2:
            tol = max(_QUAD_EPSABS, epsrel * _norm2(self.total))
            if self.global_error < tol / 8 or self.global_error < self.rounding_error:
                return False
        if not (math.isfinite(self.global_error) and math.isfinite(self.rounding_error)):
            return False
        return len(heap) < _QUAD_LIMIT


def _segment_integrals(
    starts: np.ndarray, dirs: np.ndarray, points: np.ndarray, epsrel: float
) -> np.ndarray:
    """Integral over u in [0, 1] of dipole_kernel(a + u d - r) @ d per row.

    Row j has segment start a = starts[j], direction d = dirs[j] and field
    point r = points[j]; the result has shape (n, 3).  Each row runs the loop
    of scipy.integrate's adaptive vector quadrature for a finite interval
    with the GK21 rule, norm='2', epsabs=_QUAD_EPSABS and limit=_QUAD_LIMIT,
    step for step, so its value is scipy's to the last bit.  The rows advance
    in lockstep: each round, the subintervals that every live row bisects go
    to ``_gk21`` together, at most _QUAD_ROWS to a call.  The GK21 arithmetic
    of a subinterval does not depend on the others evaluated with it, so
    this changes no bit of any row.
    """

    def evaluate(rows, lo, hi):
        values, errs, rounds = [], [], []
        for s in range(0, len(lo), _QUAD_ROWS):
            part = slice(s, s + _QUAD_ROWS)
            a, d, r = (x[rows[part], None] for x in (starts, dirs, points))

            def integrand(u, a=a, d=d, r=r):
                return (dipole_kernel(a + u[..., None] * d - r) @ d[..., None])[..., 0]

            part_values, part_errs, part_rounds = _gk21(lo[part], hi[part], integrand)
            values.append(part_values)
            errs += part_errs
            rounds += part_rounds
        return np.concatenate(values), errs, rounds

    count = len(starts)
    first, errs, rounds = evaluate(np.arange(count), np.zeros(count), np.ones(count))
    quads = [_AdaptiveIntegral(first[j], errs[j], rounds[j]) for j in range(count)]
    live = list(range(count))
    while live:
        popped = [quads[j].pop(epsrel) for j in live]
        rows = np.repeat(live, [len(p) for p in popped])
        lo = np.array([p[1] for batch in popped for p in batch])
        hi = np.array([p[2] for batch in popped for p in batch])
        mid = 0.5 * (lo + hi)
        n = len(lo)
        values, errs, rounds = evaluate(
            np.concatenate([rows, rows]),
            np.concatenate([lo, mid]),
            np.concatenate([mid, hi]),
        )
        halves = list(zip(
            mid.tolist(), values[:n], errs[:n], rounds[:n], values[n:], errs[n:], rounds[n:]
        ))
        still_live = []
        start = 0
        for j, batch in zip(live, popped):
            stop = start + len(batch)
            if quads[j].push(batch, halves[start:stop], epsrel):
                still_live.append(j)
            start = stop
        live = still_live
    return np.array([q.total for q in quads])


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
    by adaptive GK21 quadrature, each segment on its own and summed in path
    order.  Each segment stops by the rule of scipy.integrate's adaptive
    vector quadrature (global error below tol / 8 with
    tol = max(1e-14, quad_epsrel |integral|), or below the accumulated
    rounding error), and its value equals scipy's with norm='2',
    epsabs=1e-14 and epsrel=quad_epsrel bit for bit.  The expected value is
    minus the Coulomb field of the charge, short of the endpoint truncation
    term.  This is ``commutator_line_integrals`` of the one job (path, r).

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
    (value,) = commutator_line_integrals(
        [(path, r)], units, exclusion_radius=exclusion_radius, quad_epsrel=quad_epsrel
    )
    return value


def commutator_line_integrals(
    jobs,
    units: UnitSystem = NATURAL,
    *,
    exclusion_radius: float | None = None,
    quad_epsrel: float = 1e-9,
) -> list[np.ndarray]:
    """``commutator_line_integral(path, r, ...)`` of every (path, r) job.

    Every job is checked first, in order, so the first invalid one raises
    before any quadrature.  The segment integrals of all jobs then advance
    in lockstep and share each adaptive round's kernel call, rather than
    making one call per segment and round; each result equals the one-job
    call bit for bit.
    """
    checked = []
    for path, r in jobs:
        r = as_vec3(r, "r")
        dist = _separation(r, "field point must be away from the origin")
        radius = 1e-6 * dist if exclusion_radius is None else exclusion_radius
        _check_clearance(path, r, radius)
        checked.append((path, r))
    # the segments of every charged job, in job then path order
    integrated = [(path, r) for path, r in checked if path.charge != 0.0]
    if integrated:
        starts = np.concatenate([path.vertices[:-1] for path, _ in integrated])
        dirs = np.concatenate([np.diff(path.vertices, axis=0) for path, _ in integrated])
        points = np.concatenate(
            [np.broadcast_to(r, (path.num_segments, 3)) for path, r in integrated]
        )
        segment_values = iter(_segment_integrals(starts, dirs, points, quad_epsrel))
    results = []
    for path, _ in checked:
        if path.charge == 0.0:
            results.append(np.zeros(3))
            continue
        total = np.zeros(3)
        for _ in range(path.num_segments):
            total += next(segment_values)
        results.append(-path.charge / (4.0 * np.pi * units.epsilon0) * total)
    return results


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
    _separation(r, "field point must be away from the origin")
    ends = []
    for vertex in (path.vertices[0], path.vertices[-1]):
        rho = vertex - r
        dist = _separation(rho, "path endpoint coincides with field point")
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
    first, second = commutator_line_integrals(
        [(path1, r), (path2, r)],
        units,
        exclusion_radius=exclusion_radius,
        quad_epsrel=quad_epsrel,
    )
    return path_residual(first, second, r, path1.charge, units)
