import itertools
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import dblquad

from dipolegauge import (
    DegenerateSeparationError,
    analytic_dipole_tensor,
    build_mode_lattice,
    commutator_ae_modesum,
    commutator_line_integral,
    coulomb_field,
    e_dip_field,
    electric_field_coeffs,
    epsilon_dip,
    line_integral_endpoint,
    regulator_weights,
    straight_path,
    transverse_projectors,
    vector_potential_coeffs,
    UnitSystem,
)
from dipolegauge.coulomb_path import dipole_kernel
from dipolegauge.field_modes import _box_sum, _dipole_tensor, as_vec3


# --- lattice construction ---------------------------------------------------


def _labels(lat):
    # the lattice stores only k; its integer labels are n = k L / (2 pi)
    scaled = lat.kvecs * (lat.box_length / (2 * np.pi))
    labels = np.rint(scaled)
    assert np.max(np.abs(scaled - labels)) <= 1e-12
    return labels.astype(int)


def test_mode_count_and_zero_exclusion():
    lat = build_mode_lattice(1.0, 2)
    assert lat.num_modes == 5**3 - 1
    labels = _labels(lat)
    assert not np.any(np.all(labels == 0, axis=1))
    expected = set(itertools.product(range(-2, 3), repeat=3)) - {(0, 0, 0)}
    assert {tuple(n) for n in labels} == expected


def test_lexicographic_ordering():
    lat = build_mode_lattice(2.0, 2)
    rows = [tuple(n) for n in _labels(lat)]
    assert rows == sorted(rows)
    assert rows[0] == (-2, -2, -2)


def test_wavevectors_and_dispersion():
    lat = build_mode_lattice(2.0, 1, UnitSystem(c=3.0))
    assert_allclose(lat.kvecs, 2 * np.pi / 2.0 * _labels(lat))
    assert_allclose(lat.omega, 3.0 * lat.knorm)


@pytest.mark.parametrize("extent", [1, 2, 8, 24, 48])
@pytest.mark.parametrize("box", [1.0, 2.0, 0.37, 1e-3, 7.5])
def test_lattice_matches_integer_grid_construction(box, extent):
    # bit for bit the lattice built from integer labels: (2 pi / L) * n over
    # the lexicographic 'ij' grid of n with n = 0 masked out
    rng = np.arange(-extent, extent + 1)
    n = np.array(np.meshgrid(rng, rng, rng, indexing="ij")).reshape(3, -1).T
    n = n[np.any(n != 0, axis=1)]
    kvecs = (2.0 * np.pi / box) * n.astype(float)
    lat = build_mode_lattice(box, extent)
    assert np.array_equal(lat.kvecs, kvecs)
    assert np.array_equal(lat.knorm, np.linalg.norm(kvecs, axis=1))


def test_arrays_read_only():
    lat = build_mode_lattice(1.0, 1)
    with pytest.raises(ValueError):
        lat.kvecs[0, 0] = 5.0


def test_modes_pair_with_their_negations():
    # mode M - 1 - i is -k of mode i, bit for bit: the even mode sums run over
    # the first half and double it
    for extent in (1, 2, 8, 24):
        lat = build_mode_lattice(1.0, extent)
        half = lat.num_modes // 2
        assert lat.num_modes == 2 * half
        labels = _labels(lat)
        assert np.array_equal(labels[half:], -labels[:half][::-1])
        assert np.array_equal(lat.kvecs[half:], -lat.kvecs[:half][::-1])
        assert np.array_equal(lat.knorm[half:], lat.knorm[:half][::-1])


# True is an int to isinstance, and would silently build the N = 1 lattice
@pytest.mark.parametrize(
    "args", [(0.0, 4), (-1.0, 4), (1.0, 0), (1.0, 2.5), (1.0, True)]
)
def test_invalid_lattice_args(args):
    with pytest.raises(ValueError):
        build_mode_lattice(*args)


def test_as_vec3_rejects_bad_shapes():
    with pytest.raises(ValueError):
        as_vec3([1.0, 2.0])
    with pytest.raises(ValueError):
        as_vec3([1.0, 2.0, float("nan")])


# --- projectors and regulator ----------------------------------------------


def test_projectors_are_transverse_projections():
    lat = build_mode_lattice(1.0, 2)
    proj = transverse_projectors(lat)
    khat = lat.kvecs / lat.knorm[:, None]
    assert_allclose(np.einsum("kij,kjl->kil", proj, proj), proj, atol=1e-14)
    assert_allclose(proj, np.swapaxes(proj, 1, 2), atol=1e-15)
    assert_allclose(np.einsum("kij,kj->ki", proj, khat), 0.0, atol=1e-14)


def test_regulator_weights():
    lat = build_mode_lattice(1.0, 2)
    # exp(-0) is exactly 1, so sigma = 0 leaves every mode unweighted
    assert np.array_equal(regulator_weights(lat, 0.0), np.ones(lat.num_modes))
    w = regulator_weights(lat, 0.05)
    assert_allclose(w, np.exp(-((lat.knorm * 0.05) ** 2)))
    with pytest.raises(ValueError):
        regulator_weights(lat, -0.1)


# --- field coefficients -----------------------------------------------------


def test_vector_potential_amplitude_single_mode():
    units = UnitSystem(hbar=2.0, epsilon0 = 0.5, c=1.5)
    lat = build_mode_lattice(2.0, 1, units)
    coeffs = vector_potential_coeffs(lat, [0.1, -0.2, 0.3])
    k_idx = 5  # some arbitrary mode
    expected_amp = np.sqrt(
        units.hbar / (2 * units.epsilon0 * lat.omega[k_idx] * lat.volume)
    )
    phase = np.exp(1j * lat.kvecs[k_idx] @ np.array([0.1, -0.2, 0.3]))
    proj = transverse_projectors(lat)[k_idx]
    assert_allclose(coeffs[k_idx], expected_amp * phase * proj, rtol=1e-13)


def test_coefficient_columns_are_transverse(rng):
    # k_j ann[k, j, m] = 0 for every mode and channel, relative to the
    # largest |k| times the largest coefficient
    lat = build_mode_lattice(1.0, 2)
    r = rng.uniform(-0.4, 0.4, 3)
    kscale = float(np.max(lat.knorm))
    for build in (vector_potential_coeffs, electric_field_coeffs):
        ann = build(lat, r)
        assert ann.shape == (lat.num_modes, 3, 3)
        trans = np.max(np.abs(np.einsum("kj,kjm->km", lat.kvecs, ann)))
        assert trans <= 1e-12 * kscale * np.max(np.abs(ann))


def test_electric_field_is_i_omega_times_potential(rng):
    lat = build_mode_lattice(1.0, 2)
    r = rng.uniform(-0.4, 0.4, 3)
    factor = (1j * lat.omega)[:, None, None]
    ann_e = electric_field_coeffs(lat, r)
    assert_allclose(ann_e, factor * vector_potential_coeffs(lat, r), rtol=1e-13)


# --- closed-form tensor -----------------------------------------------------


def test_analytic_tensor_axis_values():
    t = analytic_dipole_tensor([0.0, 0.0, 1.0])
    expected = 1j / (4 * np.pi) * np.diag([1.0, 1.0, -2.0])
    assert_allclose(t, expected, atol=1e-15)


def test_analytic_tensor_scaling_and_symmetry(rng):
    rho = rng.normal(size=3)
    t1 = analytic_dipole_tensor(rho)
    t2 = analytic_dipole_tensor(2 * rho)
    assert_allclose(t2, t1 / 8.0, rtol=1e-12)
    assert_allclose(t1, t1.T, atol=1e-15)
    assert_allclose(analytic_dipole_tensor(-rho), t1, atol=1e-15)


def test_analytic_tensor_units():
    u = UnitSystem(hbar=3.0, epsilon0=2.0)
    t = analytic_dipole_tensor([0.0, 0.0, 1.0], u)
    assert_allclose(t, 1j * 3.0 / 2.0 / (4 * np.pi) * np.diag([1, 1, -2]), atol=1e-15)


def test_analytic_tensor_degenerate():
    with pytest.raises(DegenerateSeparationError):
        analytic_dipole_tensor([0.0, 0.0, 0.0])


_ORIGIN = np.zeros(3)
_AWAY = np.array([0.0, 0.0, 0.1])
_D = np.array([1.0, 0.0, 0.0])
_PATH = straight_path(_AWAY)
_LAT = build_mode_lattice(1.0, 1)


# every closed form, the mode-sum kernel and the path routes share one
# zero-separation rule, and each keeps its own message
@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: commutator_ae_modesum(_LAT, _AWAY, _AWAY, 0.1),
            "commutator evaluated at coincident points; the contact term is "
            "not represented by this mode sum",
        ),
        (
            lambda: analytic_dipole_tensor(_ORIGIN),
            "analytic commutator tensor is singular at zero separation",
        ),
        (lambda: epsilon_dip(_ORIGIN, _D, _D), "dipole pair energy at zero separation"),
        (
            lambda: e_dip_field(_ORIGIN, _D),
            "dipole field evaluated at the dipole itself",
        ),
        (lambda: straight_path(_ORIGIN), "cannot aim a reference path at r = 0"),
        (lambda: coulomb_field(_ORIGIN, 1.0), "Coulomb field evaluated at the charge"),
        (
            lambda: commutator_line_integral(_PATH, _ORIGIN),
            "field point must be away from the origin",
        ),
        (
            lambda: line_integral_endpoint(_PATH, _ORIGIN),
            "field point must be away from the origin",
        ),
        (
            lambda: line_integral_endpoint(_PATH, _PATH.vertices[-1]),
            "path endpoint coincides with field point",
        ),
    ],
    ids=[
        "commutator_ae_modesum",
        "analytic_dipole_tensor",
        "epsilon_dip",
        "e_dip_field",
        "reference_endpoint",
        "coulomb_field",
        "commutator_line_integral",
        "line_integral_endpoint-field_point",
        "line_integral_endpoint-path_endpoint",
    ],
)
def test_zero_separation_sites_raise_their_message(call, message):
    with pytest.raises(DegenerateSeparationError, match=f"^{re.escape(message)}$"):
        call()


# --- mode-sum commutator ----------------------------------------------------


def test_modesum_properties(lattice8, rng):
    rho = np.array([0.11, -0.07, 0.13])
    c = commutator_ae_modesum(lattice8, rho, np.zeros(3), 0.04)
    # purely imaginary and symmetric
    assert np.max(np.abs(c.real)) < 1e-12 * np.max(np.abs(c.imag))
    assert_allclose(c, c.T, rtol=1e-12)
    # even in the separation
    c_flip = commutator_ae_modesum(lattice8, -rho, np.zeros(3), 0.04)
    assert_allclose(c_flip, c, rtol=1e-13)
    # depends only on the difference of the two points
    shift = rng.uniform(-0.2, 0.2, 3)
    c_shift = commutator_ae_modesum(lattice8, rho + shift, shift, 0.04)
    assert_allclose(c_shift, c, rtol=1e-10)


def test_modesum_matches_projector_contraction(lattice8, monkeypatch):
    # the khat contraction must equal the explicit sum over the (M, 3, 3)
    # projector stack, which it no longer builds
    import dipolegauge.field_modes as field_modes

    R, Rp, sigma = [0.13, -0.05, 0.2], [-0.02, 0.04, 0.01], 0.04
    weights = regulator_weights(lattice8, sigma) * np.cos(
        lattice8.kvecs @ (np.array(R) - np.array(Rp))
    )
    explicit = -1j * np.einsum("k,kjl->jl", weights, transverse_projectors(lattice8))

    def forbidden(lattice):
        raise AssertionError("projector stack built")

    monkeypatch.setattr(field_modes, "transverse_projectors", forbidden)
    got = commutator_ae_modesum(lattice8, R, Rp, sigma)
    assert_allclose(got, explicit, rtol=1e-12, atol=1e-12 * np.max(np.abs(explicit)))


def test_modesum_degenerate_and_bad_sigma(lattice8):
    with pytest.raises(DegenerateSeparationError):
        commutator_ae_modesum(lattice8, [0.1, 0.2, 0.3], [0.1, 0.2, 0.3], 0.02)
    with pytest.raises(ValueError):
        commutator_ae_modesum(lattice8, [0.1, 0.0, 0.0], [0.0, 0.0, 0.0], 0.0)


def test_modesum_matches_continuum_quadrature(lattice24):
    # independent oracle: isotropic continuum integral of the same regulated
    # integrand, evaluated by adaptive 2d quadrature
    rho, sigma = 0.1, 0.1 / 6.0
    kmax = 10.0 / sigma

    def integrand(u, k):
        return k * k * (1 - u * u) * np.cos(k * rho * u) * np.exp(-((k * sigma) ** 2))

    integral, _ = dblquad(integrand, 0.0, kmax, -1.0, 1.0, epsabs=1e-10, epsrel=1e-10)
    continuum_zz = -integral / (4 * np.pi**2)
    lattice_zz = commutator_ae_modesum(
        lattice24, [0.0, 0.0, rho], np.zeros(3), sigma
    ).imag[2, 2]
    assert_allclose(lattice_zz, continuum_zz, rtol=5e-3)


def test_modesum_converges_toward_closed_form():
    # sigma = rho/6 keeps the smearing bias below the truncation error, so
    # refining the lattice drives the mode sum onto the closed form
    rho = np.array([0.0, 0.0, 0.15])
    sigma = 0.15 / 6.0
    ref = analytic_dipole_tensor(rho).imag

    def max_rel(extent):
        lat = build_mode_lattice(1.0, extent)
        got = commutator_ae_modesum(lat, rho, np.zeros(3), sigma).imag
        mask = ref != 0
        return np.max(np.abs(got[mask] - ref[mask]) / np.abs(ref[mask]))

    coarse, fine = max_rel(8), max_rel(16)
    assert fine < coarse
    assert fine < 0.05


# --- the one box sum and the one closed form --------------------------------


def test_box_sum_stack_equals_row_calls(lattice8, rng):
    offsets = rng.uniform(-0.4, 0.4, size=(5, 3))
    offsets[2] = 0.0
    stacked = _box_sum(lattice8, offsets, 0.04)
    assert stacked.shape == (5, 3, 3)
    for row, offset in zip(stacked, offsets):
        assert np.array_equal(row, _box_sum(lattice8, offset[None], 0.04)[0])
    assert _box_sum(lattice8, offsets[:0], 0.04).shape == (0, 3, 3)


@pytest.mark.parametrize(
    "hbar, eps0, c",
    [(1e-34, 1.0, 1.0), (1.0, 8.85e-12, 1.0), (1.0, 1.0, 3e8), (2.0, 0.5, 7.0)],
)
def test_box_sum_unit_covariance(rng, hbar, eps0, c):
    # S_N carries 1 / eps0 and nothing of hbar or c
    offsets = rng.uniform(-0.4, 0.4, size=(3, 3))
    natural = _box_sum(build_mode_lattice(1.0, 4), offsets, 0.05)
    scaled = _box_sum(
        build_mode_lattice(1.0, 4, UnitSystem(hbar=hbar, epsilon0=eps0, c=c)),
        offsets,
        0.05,
    )
    atol = 1e-14 * np.max(np.abs(natural))
    assert_allclose(eps0 * scaled, natural, rtol=1e-14, atol=atol)


def test_closed_forms_contract_the_one_tensor(rng):
    u = UnitSystem(hbar=2.0, epsilon0=0.3)
    for _ in range(20):
        R, d, dp = rng.normal(size=(3, 3))
        core = _dipole_tensor(R, "unused")
        assert np.array_equal(dipole_kernel(R), core)
        unit = 4.0 * np.pi * u.epsilon0
        tensor = analytic_dipole_tensor(R, u)
        assert_allclose(tensor, 1j * u.hbar / unit * core, rtol=1e-15)
        assert_allclose(e_dip_field(R, d, u), -(core @ d) / unit, rtol=1e-15)
        energy = epsilon_dip(R, d, dp, u)
        assert energy == pytest.approx(d @ core @ dp / unit, rel=1e-15)
