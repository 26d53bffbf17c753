import importlib.util
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dipolegauge import (
    ChargePath,
    DegenerateSeparationError,
    PathSingularityError,
    UnitSystem,
    commutator_line_integral,
    commutator_line_integrals,
    coulomb_field,
    coulomb_path,
    dipole_kernel,
    e_dip_field,
    line_integral_endpoint,
    path_independence_residual,
    staircase_path,
    straight_path,
)

R_PROBE = np.array([0.6, -0.8, 1.2])
REPO = Path(__file__).resolve().parents[1]


# --- path construction ------------------------------------------------------


def test_charge_path_validation():
    ok = ChargePath(vertices=[[0, 0, 0], [1.0, 0, 0]], charge=2.0)
    assert ok.vertices.shape == (2, 3)
    with pytest.raises(ValueError, match="origin"):
        ChargePath(vertices=[[0.1, 0, 0], [1.0, 0, 0]], charge=1.0)
    with pytest.raises(ValueError):
        ChargePath(vertices=[[0, 0, 0]], charge=1.0)
    with pytest.raises(ValueError, match="consecutive"):
        ChargePath(vertices=[[0, 0, 0], [1, 0, 0], [1, 0, 0]], charge=1.0)
    with pytest.raises(ValueError):
        ChargePath(vertices=[[0, 0, 0], [np.inf, 0, 0]], charge=1.0)
    with pytest.raises(ValueError):
        ChargePath(vertices=[[0, 0, 0], [1, 0, 0]], charge=np.nan)


def test_path_builders():
    straight = straight_path(R_PROBE, endpoint_factor=50.0, charge=1.5)
    assert straight.vertices.shape == (2, 3)
    assert_allclose(straight.vertices[0], 0.0)
    assert_allclose(straight.vertices[1], -50.0 * R_PROBE)
    assert straight.charge == 1.5

    stair = staircase_path(R_PROBE, endpoint_factor=50.0, charge=1.5)
    assert_allclose(stair.vertices[-1], -50.0 * R_PROBE)
    # axis-aligned legs: each segment moves along exactly one axis
    deltas = np.diff(stair.vertices, axis=0)
    assert np.all((np.abs(deltas) > 0).sum(axis=1) == 1)

    # zero components are skipped rather than emitted as degenerate legs
    flat = staircase_path([0.3, 0.0, 0.4], endpoint_factor=10.0)
    assert flat.vertices.shape[0] == 3


# --- closed-form pieces -----------------------------------------------------


def test_coulomb_field_values():
    assert_allclose(
        coulomb_field([0, 0, 2.0], 1.0), [0, 0, 1 / (16 * np.pi)], atol=1e-16
    )
    assert_allclose(
        coulomb_field([0, 0, 2.0], -1.0), [0, 0, -1 / (16 * np.pi)], atol=1e-16
    )
    near = coulomb_field([0, 0, 1.0], 1.0)
    far = coulomb_field([0, 0, 2.0], 1.0)
    assert_allclose(far, near / 4.0, rtol=1e-14)
    u = UnitSystem(epsilon0=2.0)
    assert_allclose(coulomb_field([0, 0, 2.0], 1.0, u), [0, 0, 1 / (32 * np.pi)])


def test_dipole_kernel_structure(rng):
    for _ in range(10):
        rho = rng.normal(size=3)
        kern = dipole_kernel(rho)
        assert_allclose(kern, kern.T, atol=1e-14)
        assert abs(np.trace(kern)) < 1e-12 * np.abs(kern).max()


def test_dipole_kernel_is_gradient_of_coulomb_profile(rng):
    # dipole_kernel(rho) must equal the Jacobian of rho / |rho|^3
    def profile(rho):
        return rho / np.linalg.norm(rho) ** 3

    for _ in range(20):
        rho = rng.normal(size=3)
        rho *= 1.0 / np.linalg.norm(rho) * rng.uniform(0.5, 2.0)
        h = 1e-5 * np.linalg.norm(rho)
        jac = np.zeros((3, 3))
        for axis in range(3):
            step = np.zeros(3)
            step[axis] = h
            jac[:, axis] = (profile(rho + step) - profile(rho - step)) / (2 * h)
        kern = dipole_kernel(rho)
        assert np.abs(kern - jac).max() < 1e-6 * np.abs(kern).max()


def _single_row_kernel(rho):
    # dipole_kernel as it was before it took stacks: one row, float norm and pow
    dist = float(np.linalg.norm(rho))
    rhohat = rho / dist
    return (np.eye(3) - 3.0 * np.outer(rhohat, rhohat)) / dist**3


def test_dipole_kernel_stack_equals_row_calls(rng):
    rho = rng.normal(size=(4, 5, 3)) * 10.0 ** rng.uniform(-3, 2, size=(4, 5, 1))
    stacked = dipole_kernel(rho)
    assert stacked.shape == (4, 5, 3, 3)
    for idx in np.ndindex(4, 5):
        row = dipole_kernel(rho[idx])
        assert row.shape == (3, 3)
        assert np.array_equal(stacked[idx], row)
        assert np.array_equal(row, _single_row_kernel(rho[idx]))
    assert dipole_kernel(rho[0]).shape == (5, 3, 3)


def test_dipole_kernel_rejects_zero_rows_and_bad_shapes(rng):
    rho = rng.normal(size=(6, 3))
    rho[4] = 0.0
    with pytest.raises(DegenerateSeparationError, match="zero separation"):
        dipole_kernel(rho)
    with pytest.raises(DegenerateSeparationError):
        dipole_kernel([0.0, 0.0, 0.0])
    for shape in [(), (2,), (4,), (5, 2), (3, 0)]:
        with pytest.raises(ValueError, match="3-vector"):
            dipole_kernel(np.ones(shape))
    with pytest.raises(ValueError, match="finite"):
        dipole_kernel([[1.0, 0.0, 0.0], [np.nan, 1.0, 0.0]])


# --- the line integral ------------------------------------------------------


def test_quad_matches_endpoint_formula():
    for builder in (straight_path, staircase_path):
        path = builder(R_PROBE, endpoint_factor=50.0)
        quad = commutator_line_integral(path, R_PROBE)
        closed = line_integral_endpoint(path, R_PROBE)
        scale = np.linalg.norm(closed)
        assert np.linalg.norm(quad - closed) < 1e-12 * scale


EPS = np.finfo(float).eps


def _clearance(path, r):
    # the path's least distance from r
    starts, segs = path.vertices[:-1], np.diff(path.vertices, axis=0)
    t = np.clip(np.vecdot(r - starts, segs) / np.vecdot(segs, segs), 0.0, 1.0)
    return np.min(np.linalg.norm(starts + t[:, None] * segs - r, axis=1))


def _rounding_unit(path, r):
    # the integrand peaks near |q| / (4 pi eps0 d^2) at the path's least
    # distance d from r, and the integral is a sum of such terms that cancel
    # down to the endpoint values, so any quadrature of the kernel along the
    # path is off by some multiple of eps times that peak
    return EPS * abs(path.charge) / (4.0 * np.pi) / _clearance(path, r) ** 2


def _quad_vec_line_integral(path, r):
    # the line integral by scipy's adaptive quad_vec at epsrel 1e-12, one
    # scalar node per kernel call, segment by segment in path order, in units
    # of |r| as the library integrates it
    from scipy.integrate import quad_vec

    dist = np.linalg.norm(r)
    r_scaled = r / dist
    total = np.zeros(3)
    for i in range(path.num_segments):
        a = path.vertices[i] / dist
        seg = (path.vertices[i + 1] - path.vertices[i]) / dist

        def integrand(u, a=a, seg=seg):
            return _single_row_kernel(a + u * seg - r_scaled) @ seg

        value, _ = quad_vec(integrand, 0.0, 1.0, epsrel=1e-12, epsabs=0.0)
        total += value
    return -path.charge / (4.0 * np.pi * UnitSystem().epsilon0) * (total / dist / dist)


def _quadrature_cases(seed):
    # segments passing their field point at 1e-3..1 with lengths 0.05..200,
    # both reference paths, and a three-leg path
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(4):
        length = 10.0 ** rng.uniform(np.log10(0.05), np.log10(200.0))
        clearance = 10.0 ** rng.uniform(-3.0, 0.0)
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        normal = np.cross(direction, rng.normal(size=3))
        normal /= np.linalg.norm(normal)
        end = length * direction
        r = rng.uniform(0.0, 1.0) * end + clearance * normal
        cases.append((ChargePath(vertices=[np.zeros(3), end], charge=1.7), r))
    r = rng.normal(size=3)
    cases.append((straight_path(r, endpoint_factor=40.0, charge=-0.6), r))
    cases.append((staircase_path(r, endpoint_factor=40.0, charge=-0.6), r))
    corners = np.vstack([np.zeros(3), rng.uniform(-3.0, 3.0, size=(3, 3))])
    r = rng.uniform(-3.0, 3.0, size=3)
    cases.append((ChargePath(vertices=corners, charge=2.5), r))
    return cases


@pytest.mark.parametrize("seed", range(4))
def test_quadrature_matches_quad_vec_and_endpoint_formula(seed, monkeypatch):
    # bounds in units of _rounding_unit: over seeds 0..3 the rule measured at
    # most 12 from the endpoint formula and quad_vec at most 412, on near
    # pass-bys
    cases = _quadrature_cases(seed)
    singles = [commutator_line_integral(path, r) for path, r in cases]
    for (path, r), computed in zip(cases, singles):
        unit = _rounding_unit(path, r)
        closed = line_integral_endpoint(path, r)
        assert np.max(np.abs(computed - closed)) <= 64 * unit
        assert np.max(np.abs(computed - _quad_vec_line_integral(path, r))) <= 1024 * unit
    # the batch gives each job's bits, whichever segments share a kernel call
    for block in (None, 3):
        if block is not None:
            monkeypatch.setattr(coulomb_path, "_BLOCK", block)
        batch = commutator_line_integrals(cases)
        assert len(batch) == len(cases)
        for computed, single in zip(batch, singles):
            assert np.array_equal(computed, single)


# (foot, segment length) for the foot of r on the segment's line before the
# segment, after it, inside it and exactly at each end
SWEEP_FEET = {
    "before": (-1.5, 199.5),
    "after": (201.0, 199.5),
    "inside": (3.0, 10.0),
    "at-start": (0.0, 10.0),
    "at-end": (10.0, 10.0),
}
SWEEP = [
    (place, height)
    for place, (foot, length) in SWEEP_FEET.items()
    for height in [0.0, 1e-12, 1e-6, 1e-3, 0.1, 1.0]
    # h = 0 with the foot on the segment runs the path through r
    if height > 0.0 or not 0.0 <= foot <= length
]


@pytest.mark.parametrize("place, height", SWEEP, ids=[f"{p}-h{h:g}" for p, h in SWEEP])
def test_rule_across_the_closest_approach(place, height):
    # the segment from the origin to (0, 0, length) and r = (height, 0, foot):
    # the foot of r on the segment's line is (0, 0, foot), at h = height, so
    # h / |rho| runs from exactly radial (h = 0) to 1.  A foot on the segment
    # takes the angle variable, one off it the sinh map, a log map at h = 0.
    # Measured in _rounding_unit: at most 94 (after, h = 0.1), and 2.1e-14
    # of the value off the segment or at its ends.  With the foot inside,
    # the unit grows like 1 / h^2 whatever the route: 2.5e-3 of the value at
    # h = 1e-6, where the integrand peaks near 1e12 times it
    foot, length = SWEEP_FEET[place]
    r = np.array([height, 0.0, foot])
    path = ChargePath(vertices=[[0.0, 0.0, 0.0], [0.0, 0.0, length]], charge=1.3)
    computed = commutator_line_integral(path, r, exclusion_radius=0.5 * height or None)
    closed = line_integral_endpoint(path, r)
    deviation = np.max(np.abs(computed - closed))
    assert deviation <= 256 * _rounding_unit(path, r)
    if place != "inside":
        assert deviation <= 1e-13 * np.max(np.abs(closed))


def test_quadrature_never_calls_the_endpoint_formula(monkeypatch):
    # the route stays independent of the antiderivative it is checked by
    def forbidden(*args, **kwargs):
        raise AssertionError("line_integral_endpoint called")

    cases = _quadrature_cases(0)
    expected = [line_integral_endpoint(path, r) for path, r in cases]
    monkeypatch.setattr(coulomb_path, "line_integral_endpoint", forbidden)
    for (path, r), computed, closed in zip(cases, commutator_line_integrals(cases), expected):
        assert np.max(np.abs(computed - closed)) <= 64 * _rounding_unit(path, r)


def _oracle_mix_coulomb_jobs(monkeypatch, seed):
    # the (path, point) jobs of the coulomb-path run in the benchmark's
    # oracle-mix workload, in the order the CLI batches them
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", REPO / "bench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the file executes
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    (cfg,) = [
        inv.config for inv in workloads.generate("oracle-mix", seed)
        if inv.command == "coulomb-path"
    ]
    paths = [ChargePath(vertices=p["vertices"], charge=1.0) for p in cfg["charge_paths"]]
    points = [np.array(point) for point in cfg["field_points"]]
    return [(path, point) for path in paths for point in points], cfg["exclusion_radius"]


def test_oracle_mix_batch_peak_memory(monkeypatch):
    # 72 jobs, 240 segments: the adaptive loop this rule replaced peaked at
    # 3.06 MiB here, the rule at 0.46 MiB, its kernel called on 32 segments
    # at a time
    jobs, radius = _oracle_mix_coulomb_jobs(monkeypatch, 0)
    assert sum(path.num_segments for path, _ in jobs) == 240
    commutator_line_integrals(jobs, exclusion_radius=radius)  # loads the rule's nodes
    tracemalloc.start()
    try:
        values = commutator_line_integrals(jobs, exclusion_radius=radius)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20
    for (path, r), computed in zip(jobs, values):
        closed = line_integral_endpoint(path, r)
        assert np.max(np.abs(computed - closed)) <= 1e-13 * np.linalg.norm(coulomb_field(r, 1.0))


def test_recovery_of_coulomb_field():
    e_c = coulomb_field(R_PROBE, 1.0)
    for builder in (straight_path, staircase_path):
        path = builder(R_PROBE, endpoint_factor=200.0)
        recovered = -commutator_line_integral(path, R_PROBE)
        dev = np.linalg.norm(recovered - e_c) / np.linalg.norm(e_c)
        assert dev < 1e-3


def test_endpoint_error_scales_with_factor_squared():
    e_c = coulomb_field(R_PROBE, 1.0)

    def deviation(factor):
        path = straight_path(R_PROBE, endpoint_factor=factor)
        recovered = -line_integral_endpoint(path, R_PROBE)
        return np.linalg.norm(recovered - e_c)

    ratio = deviation(100.0) / deviation(200.0)
    assert 3.0 < ratio < 5.0


def test_charge_linearity_is_exact():
    path1 = straight_path(R_PROBE, endpoint_factor=50.0, charge=1.0)
    path2 = straight_path(R_PROBE, endpoint_factor=50.0, charge=2.0)
    val1 = commutator_line_integral(path1, R_PROBE)
    val2 = commutator_line_integral(path2, R_PROBE)
    assert np.array_equal(val2, 2.0 * val1)


def test_zero_charge_short_circuits():
    path = straight_path(R_PROBE, endpoint_factor=50.0, charge=0.0)
    assert np.array_equal(commutator_line_integral(path, R_PROBE), np.zeros(3))
    # clearance checks still run for a neutral path
    bad = ChargePath(vertices=[[0, 0, 0], 2.0 * R_PROBE], charge=0.0)
    with pytest.raises(PathSingularityError):
        commutator_line_integral(bad, R_PROBE)


def test_correction_cancels_coulomb_field():
    # the full-adjoint correction approaches -E_c even at a modest endpoint
    path = straight_path(R_PROBE, endpoint_factor=50.0)
    corr = commutator_line_integral(path, R_PROBE)
    e_c = coulomb_field(R_PROBE, 1.0)
    assert np.linalg.norm(corr + e_c) / np.linalg.norm(e_c) < 5e-4


# --- path independence ------------------------------------------------------


def test_identical_paths_zero_residual():
    path = straight_path(R_PROBE, endpoint_factor=50.0)
    assert path_independence_residual(path, path, R_PROBE) == 0.0


def test_straight_vs_staircase_residual():
    straight = straight_path(R_PROBE, endpoint_factor=200.0)
    stair = staircase_path(R_PROBE, endpoint_factor=200.0)
    assert path_independence_residual(straight, stair, R_PROBE) < 1e-6


def test_interior_reshaping_does_not_matter(rng):
    # fifty random reshapings of the interior, endpoints pinned: the integral
    # depends on the endpoints alone
    endpoint = -50.0 * R_PROBE
    reference = straight_path(R_PROBE, endpoint_factor=50.0)
    for _ in range(50):
        n_interior = rng.integers(1, 4)
        interior = [
            endpoint * rng.uniform(0.2, 0.8)
            + np.array(
                [
                    -rng.uniform(1.0, 10.0) * np.sign(R_PROBE[0]),
                    -rng.uniform(1.0, 10.0) * np.sign(R_PROBE[1]),
                    -rng.uniform(1.0, 10.0) * np.sign(R_PROBE[2]),
                ]
            )
            for _ in range(n_interior)
        ]
        wiggly = ChargePath(
            vertices=np.vstack([np.zeros(3)] + interior + [endpoint]), charge=1.0
        )
        residual = path_independence_residual(reference, wiggly, R_PROBE)
        assert residual < 1e-6


def test_different_endpoints_leave_endpoint_residual():
    # paths ending at different removal points differ by exactly the
    # endpoint-formula difference
    p100 = straight_path(R_PROBE, endpoint_factor=100.0)
    p200 = straight_path(R_PROBE, endpoint_factor=200.0)
    residual = path_independence_residual(p100, p200, R_PROBE)
    diff = line_integral_endpoint(p100, R_PROBE) - line_integral_endpoint(
        p200, R_PROBE
    )
    expected = np.linalg.norm(diff, ord=np.inf) / np.linalg.norm(
        coulomb_field(R_PROBE, 1.0)
    )
    assert_allclose(residual, expected, rtol=1e-4)


def test_charge_mismatch_rejected():
    p1 = straight_path(R_PROBE, endpoint_factor=50.0, charge=1.0)
    p2 = straight_path(R_PROBE, endpoint_factor=50.0, charge=2.0)
    with pytest.raises(ValueError, match="charge"):
        path_independence_residual(p1, p2, R_PROBE)


# --- singularity handling ---------------------------------------------------


def test_path_through_field_point_rejected():
    r = np.array([0.0, 0.0, 2.0])
    bad = ChargePath(vertices=[[0, 0, 0], [0, 0, 4.0]], charge=1.0)
    with pytest.raises(PathSingularityError) as excinfo:
        commutator_line_integral(bad, r)
    assert excinfo.value.segment_index == 0


def test_exclusion_radius_is_honored():
    r = np.array([0.0, 0.0, 2.0])
    # a path passing within 0.01 of r
    near = ChargePath(vertices=[[0, 0, 0], [0.01, 0, 4.0]], charge=1.0)
    with pytest.raises(PathSingularityError):
        commutator_line_integral(near, r, exclusion_radius=0.05)
    value = commutator_line_integral(near, r, exclusion_radius=1e-4)
    assert np.all(np.isfinite(value))


def test_first_segment_within_radius_is_named():
    # segment 0 passes at 2 from r, segments 1 and 2 at 1
    r = np.array([0.0, 0.0, 2.0])
    stairs = ChargePath(vertices=[[0, 0, 0], [1, 0, 0], [1, 0, 3], [0, 0, 3]], charge=1.0)
    with pytest.raises(PathSingularityError, match="segment 1 ") as excinfo:
        commutator_line_integral(stairs, r, exclusion_radius=1.5)
    assert excinfo.value.segment_index == 1


def test_clearance_equal_to_radius_is_rejected():
    # the foot of r on segment 1 is (1, 0, 2), exactly 1 away
    r = np.array([0.0, 0.0, 2.0])
    path = ChargePath(vertices=[[0, 0, 0], [1, 0, 0], [1, 0, 4]], charge=1.0)
    with pytest.raises(PathSingularityError) as excinfo:
        commutator_line_integral(path, r, exclusion_radius=1.0)
    assert excinfo.value.segment_index == 1
    value = commutator_line_integral(path, r, exclusion_radius=np.nextafter(1.0, 0.0))
    assert np.all(np.isfinite(value))


def test_zero_charge_job_checked_before_quadrature(monkeypatch):
    calls = []
    monkeypatch.setattr(coulomb_path, "_segment_integrals", lambda *a: calls.append(a))
    good = straight_path(R_PROBE, endpoint_factor=50.0)
    bad = ChargePath(vertices=[[0, 0, 0], 2.0 * R_PROBE], charge=0.0)
    with pytest.raises(PathSingularityError):
        commutator_line_integrals([(good, R_PROBE), (bad, R_PROBE)])
    assert calls == []


@pytest.mark.parametrize(
    "bad, error",
    [
        ([0.0, 0.0, 0.0], DegenerateSeparationError),
        ([np.nan, 0.0, 1.0], ValueError),
        (2.0 * R_PROBE, PathSingularityError),
    ],
    ids=["origin", "malformed", "on-path"],
)
def test_first_invalid_job_raises(bad, error):
    # the jobs are checked in one pass, but the first invalid job still
    # raises: a job at the origin, a malformed point or a path through r
    # ahead of a job whose segment 1 is too close, and not behind it
    r = np.array([0.0, 0.0, 2.0])
    close = ChargePath(vertices=[[0, 0, 0], [1, 0, 0], [1, 0, 4]], charge=1.0)
    through = ChargePath(vertices=[[0, 0, 0], 4.0 * R_PROBE], charge=1.0)
    good = straight_path(R_PROBE, endpoint_factor=50.0)
    path = through if error is PathSingularityError else good
    jobs = [(good, R_PROBE), (path, bad), (close, r)]
    with pytest.raises(error) as excinfo:
        commutator_line_integrals(jobs, exclusion_radius=1.0)
    if error is PathSingularityError:
        assert excinfo.value.segment_index == 0
    with pytest.raises(PathSingularityError, match="segment 1 passes within 1.000e[+]00 ") as excinfo:
        commutator_line_integrals([jobs[0], jobs[2], jobs[1]], exclusion_radius=1.0)
    assert excinfo.value.segment_index == 1


# --- consistency with the dipole field --------------------------------------


def test_segment_derivative_matches_dipole_field(rng):
    # moving charge q by ds changes the Coulomb field at r by the field of a
    # dipole -q ds located at the charge
    for _ in range(20):
        s = rng.normal(size=3) * 2.0
        r = rng.normal(size=3)
        if np.linalg.norm(r - s) < 0.5:
            continue
        q = rng.uniform(0.5, 2.0)
        u_hat = rng.normal(size=3)
        u_hat /= np.linalg.norm(u_hat)
        h = 1e-6 * np.linalg.norm(r - s)
        fd = (
            coulomb_field(r - (s + h * u_hat), q)
            - coulomb_field(r - (s - h * u_hat), q)
        ) / (2 * h)
        dip = e_dip_field(r - s, -q * u_hat)
        assert np.abs(dip + fd).max() < 1e-5 * np.abs(fd).max()
