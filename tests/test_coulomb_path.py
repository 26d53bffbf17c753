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


def _quad_vec_line_integral(path, r, epsrel):
    # the line integral as computed with scipy's quad_vec, one scalar node per
    # kernel call, segment by segment in path order
    from scipy.integrate import quad_vec

    total = np.zeros(3)
    for i in range(path.num_segments):
        a = path.vertices[i]
        seg = path.vertices[i + 1] - a

        def integrand(u, a=a, seg=seg):
            return _single_row_kernel(a + u * seg - r) @ seg

        value, _ = quad_vec(integrand, 0.0, 1.0, epsrel=epsrel, epsabs=1e-14)
        total += value
    return -path.charge / (4.0 * np.pi * UnitSystem().epsilon0) * total


@pytest.mark.parametrize("epsrel", [1e-6, 1e-9, 1e-12, 1e-16])
def test_quadrature_equals_quad_vec_bit_for_bit(epsrel, monkeypatch):
    # clearances 1e-3..1 and lengths 0.05..200; epsrel = 1e-16 ends by the
    # rounding-error stop rather than the tolerance
    rng = np.random.default_rng(int(-np.log10(epsrel)))
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
    expected = [_quad_vec_line_integral(path, r, epsrel) for path, r in cases]
    for (path, r), want in zip(cases, expected):
        computed = commutator_line_integral(path, r, quad_epsrel=epsrel)
        assert np.array_equal(computed, want)
    # all cases in one batch, every segment integral advancing in lockstep,
    # with each round's subintervals in one kernel call and in calls of 5
    for rows in (None, 5):
        if rows is not None:
            monkeypatch.setattr(coulomb_path, "_QUAD_ROWS", rows)
        batch = commutator_line_integrals(cases, quad_epsrel=epsrel)
        assert len(batch) == len(cases)
        for computed, want in zip(batch, expected):
            assert np.array_equal(computed, want)


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
