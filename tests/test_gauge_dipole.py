import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from dipolegauge import (
    DegenerateSeparationError,
    Dipole,
    DipoleConfig,
    OperatorPolynomial,
    UnitSystem,
    build_gm_generator,
    build_mode_lattice,
    build_y_generator,
    commutator,
    commutator_ae_modesum,
    e_dip_field,
    epsilon_dip,
    epsilon_dip_from_commutator,
    epsilon_self_regularized,
    field_component_generator,
    field_shift,
    field_shift_from_commutator,
    is_central,
    pair_energies_from_commutator,
    pairwise_interaction,
    transform_report,
    vector_potential_coeffs,
)
from conftest import full_lattice_sums, random_rotation


def two_dipole_config(d1, d2, separation=(0.0, 0.0, 0.1)):
    return DipoleConfig(
        dipoles=(
            Dipole(np.zeros(3), np.asarray(d1, dtype=float)),
            Dipole(np.asarray(separation, dtype=float), np.asarray(d2, dtype=float)),
        )
    )


# --- closed forms -----------------------------------------------------------


def test_epsilon_dip_reference_values():
    assert_allclose(
        epsilon_dip([0, 0, 1.0], [1, 0, 0], [1, 0, 0]), 1 / (4 * np.pi), rtol=1e-14
    )
    assert_allclose(
        epsilon_dip([0, 0, 1.0], [0, 0, 1], [0, 0, 1]), -1 / (2 * np.pi), rtol=1e-14
    )
    near = epsilon_dip([0, 0, 1.0], [1, 0, 0], [1, 0, 0])
    far = epsilon_dip([0, 0, 2.0], [1, 0, 0], [1, 0, 0])
    assert_allclose(far, near / 8.0, rtol=1e-14)


def test_epsilon_dip_symmetries(rng):
    for _ in range(25):
        R = rng.normal(size=3)
        d, dp = rng.normal(size=3), rng.normal(size=3)
        base = epsilon_dip(R, d, dp)
        assert_allclose(epsilon_dip(-R, dp, d), base, rtol=1e-12, atol=1e-12)
        assert_allclose(epsilon_dip(R, dp, d), base, rtol=1e-12, atol=1e-12)
        rot = random_rotation(rng)
        assert_allclose(
            epsilon_dip(rot @ R, rot @ d, rot @ dp), base, rtol=1e-11, atol=1e-11
        )


def test_epsilon_dip_bilinear(rng):
    R = rng.normal(size=3)
    d, dp, e = rng.normal(size=3), rng.normal(size=3), rng.normal(size=3)
    assert_allclose(
        epsilon_dip(R, 2.0 * d + e, dp),
        2.0 * epsilon_dip(R, d, dp) + epsilon_dip(R, e, dp),
        rtol=1e-12,
    )
    assert_allclose(
        epsilon_dip(R, d, 3.0 * dp), 3.0 * epsilon_dip(R, d, dp), rtol=1e-12
    )


def test_epsilon_dip_units_and_degenerate():
    u = UnitSystem(epsilon0=4.0)
    assert_allclose(
        epsilon_dip([0, 0, 1.0], [1, 0, 0], [1, 0, 0], u), 1 / (16 * np.pi), rtol=1e-14
    )
    with pytest.raises(DegenerateSeparationError):
        epsilon_dip([0, 0, 0.0], [1, 0, 0], [1, 0, 0])


def test_e_dip_field_reference_values():
    assert_allclose(
        e_dip_field([0, 0, 1.0], [0, 0, 1.0]), [0, 0, 1 / (2 * np.pi)], atol=1e-15
    )
    assert_allclose(
        e_dip_field([0, 0, 1.0], [1.0, 0, 0]), [-1 / (4 * np.pi), 0, 0], atol=1e-15
    )
    with pytest.raises(DegenerateSeparationError):
        e_dip_field([0.0, 0.0, 0.0], [1, 0, 0])


def test_energy_field_identity(rng):
    # epsilon_dip(R, d, dp) = -d . e_dip_field(R, dp)
    for _ in range(100):
        R = rng.normal(size=3)
        d, dp = rng.normal(size=3), rng.normal(size=3)
        lhs = epsilon_dip(R, d, dp)
        rhs = -d @ e_dip_field(R, dp)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


# --- dipole configs and reports ---------------------------------------------


def test_dipole_config_rejects_coincident():
    with pytest.raises(DegenerateSeparationError, match="0 and 2"):
        DipoleConfig(
            dipoles=(
                Dipole([0, 0, 0], [1, 0, 0]),
                Dipole([1, 0, 0], [1, 0, 0]),
                Dipole([0, 0, 0], [0, 1, 0]),
            )
        )
    # two coincident pairs, (2, 1) and (3, 0): the first in row-major order
    # is named, (2, 1), where column-major order would reach (3, 0) first
    a, b = [0.1, 0.2, 0.3], [0.4, 0.5, 0.6]
    dipoles = tuple(Dipole(r, [1.0, 0.0, 0.0]) for r in (a, b, b, a))
    with pytest.raises(DegenerateSeparationError, match="dipoles 1 and 2 coincide"):
        DipoleConfig(dipoles)


@pytest.mark.parametrize("count", [0, 1, 2, 5])
def test_one_pair_order(lattice4, count):
    # DipoleConfig forms the pair order once; every pair-keyed route uses it
    rng = np.random.default_rng(60 + count)
    cfg = DipoleConfig(
        dipoles=tuple(
            Dipole(rng.normal(size=3) * 10.0 ** rng.uniform(-3, 3), rng.normal(size=3))
            for _ in range(count)
        )
    )
    pairs = [tuple(pair) for pair in cfg.pairs.tolist()]
    assert pairs == [(q, qp) for q in range(count) for qp in range(q)]
    assert pairs == list(pairwise_interaction(cfg).pair_energies)
    assert pairs == list(pair_energies_from_commutator(cfg, lattice4, 0.04))
    positions = [dip.position for dip in cfg.dipoles]
    for (q, qp), gap in zip(pairs, cfg.separations.tolist()):
        assert gap == np.linalg.norm(positions[q] - positions[qp])
    assert_array_equal(cfg.positions, np.reshape(positions, (-1, 3)))
    assert_array_equal(
        cfg.moments, np.reshape([dip.moment for dip in cfg.dipoles], (-1, 3))
    )
    assert cfg.positions.shape == cfg.moments.shape == (count, 3)
    assert cfg.pairs.shape == (len(pairs), 2)
    assert cfg.separations.shape == (len(pairs),)
    for stored in (cfg.positions, cfg.moments, cfg.pairs, cfg.separations):
        assert not stored.flags.writeable


def test_pairwise_interaction_counts_and_values():
    single = pairwise_interaction(
        DipoleConfig(dipoles=(Dipole([0, 0, 0], [1, 0, 0]),))
    )
    assert single.pair_energies == {}
    assert single.total_interaction == 0.0

    pair = pairwise_interaction(two_dipole_config([1, 0, 0], [1, 0, 0], (0, 0, 1.0)))
    assert set(pair.pair_energies) == {(1, 0)}
    assert_allclose(pair.pair_energies[(1, 0)], 1 / (4 * np.pi), rtol=1e-14)

    # three collinear transverse dipoles at unit spacing
    chain = pairwise_interaction(
        DipoleConfig(
            dipoles=(
                Dipole([0, 0, 0.0], [1, 0, 0]),
                Dipole([0, 0, 1.0], [1, 0, 0]),
                Dipole([0, 0, 2.0], [1, 0, 0]),
            )
        )
    )
    assert len(chain.pair_energies) == 3
    assert_allclose(
        chain.total_interaction, (1 + 1 + 1 / 8) / (4 * np.pi), rtol=1e-13
    )
    assert_allclose(
        chain.total_interaction, sum(chain.pair_energies.values()), rtol=1e-15
    )


def test_transform_report_composition(lattice4, lattice8):
    cfg = two_dipole_config([1, 0, 0], [1, 0, 0], (0, 0, 0.1))
    report = transform_report(cfg, lattice8, 0.05)
    assert report.regulator_sigma == 0.05
    expected_self = 2 * epsilon_self_regularized([1, 0, 0], lattice8, 0.05)
    assert_allclose(report.self_energy, expected_self, rtol=1e-13)
    assert report.pair_energies == pairwise_interaction(cfg).pair_energies
    serialized = report.to_dict()
    assert serialized["pair_energies"] == {"1,0": report.pair_energies[(1, 0)]}
    # seeded non-parallel moments, where a transposed D = sum_q d_q d_q^T would
    # not match the per-dipole oracle
    for count in (3, 4, 5, 6):
        cfg = random_config(np.random.default_rng(700 + count), count)
        for lattice, sigma in ((lattice4, 0.04), (lattice8, 0.05), (lattice8, 0.3)):
            report = transform_report(cfg, lattice, sigma)
            expected_self = sum(
                epsilon_self_regularized(dip.moment, lattice, sigma)
                for dip in cfg.dipoles
            )
            assert_allclose(report.self_energy, expected_self, rtol=1e-13)


def test_transform_report_empty_config(lattice8):
    report = transform_report(DipoleConfig(dipoles=()), lattice8, 0.05)
    assert report.pair_energies == {}
    assert report.total_interaction == 0.0
    assert report.self_energy == 0.0


def test_transform_report_validates_sigma(lattice8):
    with pytest.raises(ValueError):
        transform_report(DipoleConfig(dipoles=()), lattice8, 0.0)


def test_unit_system_mismatch_rejected(lattice8):
    cfg = DipoleConfig(
        dipoles=(Dipole([0, 0, 0], [1, 0, 0]),), units=UnitSystem(hbar=2.0)
    )
    with pytest.raises(ValueError, match="unit"):
        build_gm_generator(cfg, lattice8)


# --- generators -------------------------------------------------------------


def test_zero_moment_gives_zero_generator(lattice4):
    cfg = DipoleConfig(dipoles=(Dipole([0.1, 0.0, 0.0], [0, 0, 0]),))
    assert build_gm_generator(cfg, lattice4).is_zero
    assert build_y_generator(cfg, lattice4).is_zero


def test_empty_config_rejected(lattice4):
    with pytest.raises(ValueError):
        build_gm_generator(DipoleConfig(dipoles=()), lattice4)
    with pytest.raises(ValueError):
        build_y_generator(DipoleConfig(dipoles=()), lattice4)


def test_generators_anti_hermitian(lattice4, rng):
    cfg = two_dipole_config(rng.normal(size=3), rng.normal(size=3))
    assert build_gm_generator(cfg, lattice4).is_anti_hermitian()
    assert build_y_generator(cfg, lattice4).is_anti_hermitian()


def test_generator_linearity_in_dipoles(lattice4, rng):
    d1, d2 = rng.normal(size=3), rng.normal(size=3)
    cfg_both = two_dipole_config(d1, d2)
    cfg_a = DipoleConfig(dipoles=(Dipole(np.zeros(3), d1),))
    cfg_b = DipoleConfig(dipoles=(Dipole([0.0, 0.0, 0.1], d2),))
    combined = build_gm_generator(cfg_both, lattice4)
    summed = build_gm_generator(cfg_a, lattice4) + build_gm_generator(cfg_b, lattice4)
    assert (combined - summed).max_coeff() < 1e-12 * combined.max_coeff()


def test_y_is_mode_wise_derivative_of_x(lattice4, rng):
    # per operator mode: Y annihilation coeff = i omega * (-X annihilation
    # coeff) and Y creation coeff = -i omega * (-X creation coeff)
    cfg = two_dipole_config(rng.normal(size=3), rng.normal(size=3))
    x = build_gm_generator(cfg, lattice4)
    y = build_y_generator(cfg, lattice4)
    assert set(y.terms) == set(x.terms)
    # the flat operator mode is 3 * k + channel: each annihilation term of X
    # sits at its (k, channel) entry of -(i/hbar) sum_q d_q . A(R_q)
    x_ann = (-1j / cfg.units.hbar) * sum(
        np.einsum(
            "j,kjm->km", dip.moment, vector_potential_coeffs(lattice4, dip.position)
        )
        for dip in cfg.dipoles
    )
    residual = channel_residual = 0.0
    for (cre, ann), coeff in x.terms.items():
        flat = (cre or ann)[0]
        omega = lattice4.omega[flat // 3]
        factor = 1j * omega if ann else -1j * omega
        residual = max(residual, abs(y.terms[(cre, ann)] - factor * (-coeff)))
        if ann:
            entry = x_ann[flat // 3, flat % 3]
            channel_residual = max(channel_residual, abs(coeff - entry))
    assert residual < 1e-12 * y.max_coeff()
    assert channel_residual < 1e-12 * x.max_coeff()


def test_centrality_three_dipoles_n8(lattice8, rng):
    cfg = DipoleConfig(
        dipoles=tuple(
            Dipole(rng.uniform(-0.3, 0.3, 3), rng.normal(size=3)) for _ in range(3)
        )
    )
    x = build_gm_generator(cfg, lattice8)
    y = build_y_generator(cfg, lattice8)
    central = commutator(x, y)
    assert is_central(central)
    assert commutator(x, central).is_zero


# --- commutator-route energies ----------------------------------------------


def test_pair_route_bookkeeping_pinned(lattice8, rng):
    # the ordered double sum carries -i hbar / 2 and two equal ordered terms;
    # the implementation must equal that literal bookkeeping
    cfg = two_dipole_config(rng.normal(size=3), rng.normal(size=3))
    sigma = 0.02
    d0, d1 = cfg.dipoles[0].moment, cfg.dipoles[1].moment
    r0, r1 = cfg.dipoles[0].position, cfg.dipoles[1].position
    hbar = cfg.units.hbar
    k_10 = commutator_ae_modesum(lattice8, r1, r0, sigma)
    k_01 = commutator_ae_modesum(lattice8, r0, r1, sigma)
    ordered_sum = (d1 @ k_10 @ d0) + (d0 @ k_01 @ d1)
    literal = float(np.real(-1j * hbar * 0.5 * ordered_sum / hbar**2))
    route = epsilon_dip_from_commutator(1, 0, cfg, lattice8, sigma)
    assert_allclose(route, literal, rtol=1e-12)


def test_pair_route_from_scalar_commutator(lattice4, rng):
    # [X, Y] evaluated by the operator algebra must reproduce the same
    # bookkeeping: scalar = (2/ hbar^2) sum over ordered pairs including
    # self terms; cross-check the unordered-pair extraction for two dipoles
    cfg = two_dipole_config(rng.normal(size=3), rng.normal(size=3))
    x = build_gm_generator(cfg, lattice4)
    y = build_y_generator(cfg, lattice4)
    scalar = commutator(x, y).scalar_part
    total = 0.0 + 0.0j
    for p in cfg.dipoles:
        for q in cfg.dipoles:
            rho = p.position - q.position
            if np.linalg.norm(rho) == 0.0:
                kernel = commutator_ae_modesum_zero_sep(lattice4)
            else:
                kernel = commutator_ae_modesum(lattice4, p.position, q.position, 1e-12)
            total += p.moment @ kernel @ q.moment
    assert_allclose(scalar, total, rtol=1e-9)


def commutator_ae_modesum_zero_sep(lattice):
    # unregulated coincident-point kernel, for the self terms of [X, Y]
    from dipolegauge.field_modes import transverse_projectors

    proj = transverse_projectors(lattice)
    u = lattice.units
    return -1j * (u.hbar / (u.epsilon0 * lattice.volume)) * np.einsum("kjl->jl", proj)


def test_pair_route_symmetry_and_errors(lattice8, rng):
    cfg = two_dipole_config(rng.normal(size=3), rng.normal(size=3))
    sigma = 0.02
    forward = epsilon_dip_from_commutator(1, 0, cfg, lattice8, sigma)
    backward = epsilon_dip_from_commutator(0, 1, cfg, lattice8, sigma)
    assert_allclose(forward, backward, rtol=1e-12)
    with pytest.raises(ValueError, match="self"):
        epsilon_dip_from_commutator(1, 1, cfg, lattice8, sigma)
    with pytest.raises(ValueError, match="range"):
        epsilon_dip_from_commutator(0, 5, cfg, lattice8, sigma)


def test_pair_route_zero_moment(lattice8):
    cfg = two_dipole_config([0.0, 0.0, 0.0], [1.0, 0.0, 0.0])
    assert epsilon_dip_from_commutator(1, 0, cfg, lattice8, 0.02) == 0.0


def test_pair_route_matches_closed_form(lattice24):
    cfg = two_dipole_config([1.0, 0.0, 0.0], [1.0, 0.0, 0.0], (0.0, 0.0, 0.1))
    closed = epsilon_dip([0.0, 0.0, 0.1], [1, 0, 0], [1, 0, 0])
    route = epsilon_dip_from_commutator(1, 0, cfg, lattice24, 0.1 / 6)
    assert abs(route - closed) / abs(closed) < 0.02


# --- batched pair route -------------------------------------------------------


def random_config(rng, count):
    return DipoleConfig(
        dipoles=tuple(
            Dipole(rng.uniform(-0.3, 0.3, 3), rng.normal(size=3)) for _ in range(count)
        )
    )


def _assert_matches_per_pair_route(cfg, lattice, sigma, keys=None):
    batched = pair_energies_from_commutator(cfg, lattice, sigma)
    assert list(batched) == list(pairwise_interaction(cfg).pair_energies)
    keys = list(batched) if keys is None else keys
    per_pair = {
        key: epsilon_dip_from_commutator(*key, cfg, lattice, sigma) for key in keys
    }
    scale = max(abs(value) for value in per_pair.values())
    compared = [key for key, value in per_pair.items() if abs(value) > 1e-10 * scale]
    assert compared
    assert_allclose(
        [batched[key] for key in compared],
        [per_pair[key] for key in compared],
        rtol=1e-10,
    )


@pytest.mark.parametrize("lattice_name", ["lattice4", "lattice8"])
@pytest.mark.parametrize("sigma", [0.02, 0.04, 0.3])
@pytest.mark.parametrize("count", [2, 3, 4, 5, 6])
def test_pair_energies_batched_matches_per_pair_route(
    request, lattice_name, sigma, count
):
    lattice = request.getfixturevalue(lattice_name)
    rng = np.random.default_rng(1000 * count + int(100 * sigma) + lattice.half_extent)
    _assert_matches_per_pair_route(random_config(rng, count), lattice, sigma)


@pytest.mark.parametrize("half_extent", [1, 3])
@pytest.mark.parametrize("sigma", [0.1, 0.5])
def test_pair_energies_batched_off_unit_box(half_extent, sigma):
    # L = 2.5, and positions negative or beyond L: the per-axis phase factors
    # must hold for any wavenumber spacing and any position, not only [0, L)
    lattice = build_mode_lattice(2.5, half_extent)
    rng = np.random.default_rng(60 + 10 * half_extent + int(10 * sigma))
    positions = [[-0.7, 0.2, 3.1], [2.9, -1.4, 0.3], [-3.3, -2.6, 5.2]]
    positions += [rng.uniform(-6.0, 8.5, 3) for _ in range(3)]
    cfg = DipoleConfig(tuple(Dipole(r, rng.normal(size=3)) for r in positions))
    _assert_matches_per_pair_route(cfg, lattice, sigma)


def test_pair_energies_batched_at_workload_scale(lattice24):
    # 27 dipoles at N = 24 run the Gram in many chunks of modes with an
    # uneven tail; a jittered 3 x 3 x 3 cluster with sigma = min gap / 6
    rng = np.random.default_rng(27)
    grid = np.stack(np.meshgrid(*[np.arange(3)] * 3, indexing="ij"), -1).reshape(-1, 3)
    positions = 0.35 + 0.12 * grid + rng.uniform(-0.02, 0.02, (27, 3))
    cfg = DipoleConfig(tuple(Dipole(r, rng.normal(size=3)) for r in positions))
    gaps = np.linalg.norm(positions[:, None] - positions[None, :], axis=-1)
    sigma = gaps[np.tril_indices(27, -1)].min() / 6.0
    keys = list(pairwise_interaction(cfg).pair_energies)
    sampled = [keys[i] for i in sorted(rng.choice(len(keys), 24, replace=False))]
    _assert_matches_per_pair_route(cfg, lattice24, sigma, sampled)


def test_pair_energies_batched_chunking_is_invisible(lattice8, rng, monkeypatch):
    import dipolegauge.field_modes as field_modes

    cfg = random_config(rng, 4)
    whole = pair_energies_from_commutator(cfg, lattice8, 0.04)
    # 1 byte leaves one mode per chunk; 5000 bytes about 26 modes, uneven tail
    for budget in (1, 5000):
        monkeypatch.setattr(field_modes, "_CHUNK_BYTES", budget)
        chunked = pair_energies_from_commutator(cfg, lattice8, 0.04)
        assert list(chunked) == list(whole)
        assert_allclose(list(chunked.values()), list(whole.values()), rtol=1e-12)


def test_pair_energies_batched_edge_cases(lattice4, lattice8, rng):
    cfg = DipoleConfig(
        dipoles=(
            Dipole([0.0, 0.0, 0.0], [0.0, 0.0, 0.0]),
            Dipole([0.0, 0.0, 0.1], [1.0, 0.0, 0.0]),
            Dipole([0.1, 0.0, 0.0], [0.0, 1.0, 1.0]),
        )
    )
    batched = pair_energies_from_commutator(cfg, lattice8, 0.02)
    assert batched[(1, 0)] == 0.0 and batched[(2, 0)] == 0.0
    assert batched[(2, 1)] != 0.0
    lone = DipoleConfig(dipoles=(Dipole([0.1, 0.0, 0.0], [1.0, 0.0, 0.0]),))
    assert pair_energies_from_commutator(lone, lattice8, 0.02) == {}
    assert pair_energies_from_commutator(DipoleConfig(dipoles=()), lattice8, 0.02) == {}
    # repeatable bit for bit
    cfg = random_config(rng, 5)
    assert pair_energies_from_commutator(cfg, lattice4, 0.04) == (
        pair_energies_from_commutator(cfg, lattice4, 0.04)
    )


@pytest.mark.parametrize(
    "lattice_name, sigma, scales",
    [
        ("lattice4", 0.04, None),
        ("lattice8", 0.03, None),
        ("lattice8", 0.3, None),
        ("rescaled", 0.04, (1e-34, 1e-11, 1e8, 1e-16)),
    ],
)
def test_half_lattice_routes_match_full_lattice_oracle(
    request, lattice_name, sigma, scales
):
    # every even mode sum runs over half of the lattice; the oracle sums over
    # all M modes and shares no code with it
    units, moment_scale = UnitSystem(), 1.0
    if scales is not None:
        hbar, eps0, c, moment_scale = scales
        units = UnitSystem(hbar=hbar, epsilon0=eps0, c=c)
        lattice = build_mode_lattice(1.0, 4, units)
    else:
        lattice = request.getfixturevalue(lattice_name)
    rng = np.random.default_rng(900 + lattice.half_extent + int(100 * sigma))
    cfg = DipoleConfig(
        dipoles=tuple(
            Dipole(rng.uniform(-0.3, 0.3, 3), moment_scale * rng.normal(size=3))
            for _ in range(4)
        ),
        units=units,
    )
    positions = np.array([dip.position for dip in cfg.dipoles])
    moments = np.array([dip.moment for dip in cfg.dipoles])
    point = rng.uniform(-0.3, 0.3, 3)
    inv_eps_v = 1.0 / (units.epsilon0 * lattice.volume)

    def check(got, want):
        want = np.asarray(want)
        atol = 1e-12 * np.max(np.abs(want))
        assert_allclose(got, want, rtol=1e-12, atol=atol)

    kernel = full_lattice_sums(lattice, [positions[1] - positions[0]], sigma)[0]
    check(
        commutator_ae_modesum(lattice, positions[1], positions[0], sigma),
        -1j * units.hbar * inv_eps_v * kernel,
    )

    pair_sums = full_lattice_sums(
        lattice, (positions[:, None] - positions[None, :]).reshape(-1, 3), sigma
    ).reshape(4, 4, 3, 3)
    oracle = {
        (q, p): -inv_eps_v * moments[q] @ pair_sums[q, p] @ moments[p]
        for q in range(4)
        for p in range(q)
    }
    batched = pair_energies_from_commutator(cfg, lattice, sigma)
    assert list(batched) == list(oracle)
    check(list(batched.values()), list(oracle.values()))

    self_terms = [
        -0.5 * inv_eps_v * moments[q] @ pair_sums[q, q] @ moments[q] for q in range(4)
    ]
    check(
        [epsilon_self_regularized(d, lattice, sigma) for d in moments], self_terms
    )
    check(transform_report(cfg, lattice, sigma).self_energy, sum(self_terms))

    shift_sums = full_lattice_sums(lattice, positions - point, sigma)
    check(
        field_shift_from_commutator(cfg, lattice, point, sigma),
        inv_eps_v * np.einsum("njl,nl->j", shift_sums, moments),
    )


@pytest.mark.parametrize("sigma", [0.0, -0.02, float("nan"), float("inf")])
def test_pair_energies_batched_rejects_bad_sigma(lattice4, sigma):
    # one sigma rule for every regulated route
    cfg = two_dipole_config([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    routes = [
        lambda: commutator_ae_modesum(lattice4, [0.1, 0.0, 0.0], np.zeros(3), sigma),
        lambda: pair_energies_from_commutator(cfg, lattice4, sigma),
        lambda: epsilon_dip_from_commutator(1, 0, cfg, lattice4, sigma),
        lambda: epsilon_self_regularized([1.0, 0.0, 0.0], lattice4, sigma),
        lambda: transform_report(cfg, lattice4, sigma),
        lambda: field_shift_from_commutator(cfg, lattice4, [0.2, 0.1, -0.1], sigma),
        # no pair to sum over: sigma is still checked
        lambda: pair_energies_from_commutator(DipoleConfig(()), lattice4, sigma),
        lambda: pair_energies_from_commutator(
            DipoleConfig(cfg.dipoles[:1]), lattice4, sigma
        ),
    ]
    for route in routes:
        with pytest.raises(ValueError, match="sigma"):
            route()


def test_pair_energies_batched_rejects_unit_mismatch(lattice4):
    cfg = DipoleConfig(
        dipoles=two_dipole_config([1, 0, 0], [0, 1, 0]).dipoles,
        units=UnitSystem(epsilon0=2.0),
    )
    with pytest.raises(ValueError, match="unit"):
        pair_energies_from_commutator(cfg, lattice4, 0.04)
    with pytest.raises(ValueError, match="unit"):
        epsilon_dip_from_commutator(1, 0, cfg, lattice4, 0.04)


def _scaled_setup(units, moment_scale):
    # the same three dipoles and field point on every call
    rng = np.random.default_rng(77)
    cfg = DipoleConfig(
        dipoles=tuple(
            Dipole(rng.uniform(-0.3, 0.3, 3), moment_scale * rng.normal(size=3))
            for _ in range(3)
        ),
        units=units,
    )
    return cfg, build_mode_lattice(1.0, 4, units), rng.uniform(-0.3, 0.3, 3)


def _route_to_closed_ratios(units, moment_scale):
    cfg, lattice, _ = _scaled_setup(units, moment_scale)
    batched = pair_energies_from_commutator(cfg, lattice, 0.04)
    closed = pairwise_interaction(cfg).pair_energies
    return np.array([batched[key] / closed[key] for key in closed])


def _field_shift_ratios(units, moment_scale):
    cfg, lattice, point = _scaled_setup(units, moment_scale)
    return field_shift_from_commutator(cfg, lattice, point, 0.04) / field_shift(
        cfg, point
    )


@functools.cache  # the natural-units reference is the same on every example
def _dict_route_ratios(units, moment_scale):
    # criterion 03's [X, Y] scalar and the exact-algebra field shift, each
    # over its closed form; hbar [X, Y] is an energy, as the pair sum is
    cfg, lattice, point = _scaled_setup(units, moment_scale)
    x = build_gm_generator(cfg, lattice)
    central = commutator(x, build_y_generator(cfg, lattice))
    assert is_central(central)
    closed = pairwise_interaction(cfg).total_interaction
    pairs = units.hbar * central.scalar_part.imag / closed
    fields = [field_component_generator(lattice, point, j, 0.04) for j in range(3)]
    shift = [-commutator(x, field).scalar_part.real for field in fields]
    return np.array([pairs, *(shift / field_shift(cfg, point))])


def _assert_unit_covariant(ratios, hbar_exp, eps0_exp, c_exp, moment_exp):
    # no absolute cut may decide the result: a route/closed ratio is a pure
    # number of the geometry, whatever hbar, eps0, c and the moments are
    natural = ratios(UnitSystem(), 1.0)
    units = UnitSystem(hbar=10.0**hbar_exp, epsilon0=10.0**eps0_exp, c=10.0**c_exp)
    assert_allclose(ratios(units, 10.0**moment_exp), natural, rtol=1e-12)


_COVARIANCE_SETTINGS = settings(
    max_examples=30, deadline=None, derandomize=True, database=None
)
_EXPONENTS = dict(
    hbar_exp=st.integers(-34, 34),
    eps0_exp=st.integers(-12, 12),
    c_exp=st.integers(-8, 8),
    moment_exp=st.integers(-16, 16),
)


@_COVARIANCE_SETTINGS
@given(**_EXPONENTS)
@example(hbar_exp=-34, eps0_exp=0, c_exp=0, moment_exp=-16)
@example(hbar_exp=-34, eps0_exp=-11, c_exp=8, moment_exp=-16)
def test_pair_energies_batched_unit_covariance(hbar_exp, eps0_exp, c_exp, moment_exp):
    _assert_unit_covariant(
        _route_to_closed_ratios, hbar_exp, eps0_exp, c_exp, moment_exp
    )


@_COVARIANCE_SETTINGS
@given(**_EXPONENTS)
@example(hbar_exp=-34, eps0_exp=0, c_exp=0, moment_exp=0)
@example(hbar_exp=0, eps0_exp=0, c_exp=0, moment_exp=-16)
@example(hbar_exp=-34, eps0_exp=-11, c_exp=8, moment_exp=-16)
def test_field_shift_unit_covariance(hbar_exp, eps0_exp, c_exp, moment_exp):
    _assert_unit_covariant(_field_shift_ratios, hbar_exp, eps0_exp, c_exp, moment_exp)


# the exact algebra costs about 0.15 s per scale, against milliseconds for
# the kernel routes above
@settings(_COVARIANCE_SETTINGS, max_examples=5)
@given(**_EXPONENTS)
@example(hbar_exp=-34, eps0_exp=0, c_exp=0, moment_exp=0)
@example(hbar_exp=0, eps0_exp=0, c_exp=0, moment_exp=-16)
@example(hbar_exp=-34, eps0_exp=-11, c_exp=8, moment_exp=-16)
def test_dict_route_unit_covariance(hbar_exp, eps0_exp, c_exp, moment_exp):
    _assert_unit_covariant(_dict_route_ratios, hbar_exp, eps0_exp, c_exp, moment_exp)


# --- self energy ------------------------------------------------------------


def test_self_energy_properties(lattice8):
    d = np.array([0.3, -1.0, 0.7])
    base = epsilon_self_regularized(d, lattice8, 0.05)
    assert base < 0.0
    assert_allclose(
        epsilon_self_regularized(2.0 * d, lattice8, 0.05), 4.0 * base, rtol=1e-13
    )
    assert epsilon_self_regularized([0.0, 0.0, 0.0], lattice8, 0.05) == 0.0
    # tightening the regulator deepens the self energy
    assert epsilon_self_regularized(d, lattice8, 0.025) < base
    with pytest.raises(ValueError):
        epsilon_self_regularized(d, lattice8, 0.0)


# --- field shift ------------------------------------------------------------


def test_field_shift_closed_form(rng):
    assert_allclose(field_shift(DipoleConfig(dipoles=()), [0.3, 0.0, 0.0]), 0.0)
    d = rng.normal(size=3)
    single = DipoleConfig(dipoles=(Dipole([0.05, 0.0, 0.0], d),))
    pt = np.array([0.3, 0.1, -0.2])
    assert_allclose(
        field_shift(single, pt), e_dip_field(pt - [0.05, 0.0, 0.0], d), rtol=1e-13
    )
    with pytest.raises(DegenerateSeparationError, match="dipole 0"):
        field_shift(single, [0.05, 0.0, 0.0])


def test_field_shift_route_degenerate_point(lattice8):
    cfg = two_dipole_config([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    with pytest.raises(DegenerateSeparationError):
        field_shift_from_commutator(cfg, lattice8, [0.0, 0.0, 0.1], 0.03)


def test_field_component_generator_regulated(lattice4):
    from dipolegauge.field_modes import regulator_weights

    gen = field_component_generator(lattice4, [0.1, 0.0, 0.0], 1, sigma=0.05)
    gen_bare = field_component_generator(lattice4, [0.1, 0.0, 0.0], 1)
    assert len(gen) == len(gen_bare)
    weights = regulator_weights(lattice4, 0.05)
    residual = 0.0
    for key, coeff in gen_bare.terms.items():
        cre, ann = key
        flat = (cre or ann)[0]
        expected = weights[flat // 3] * coeff
        residual = max(residual, abs(gen.terms[key] - expected))
    assert residual < 1e-14 * gen_bare.max_coeff()
    with pytest.raises(ValueError):
        field_component_generator(lattice4, [0.1, 0.0, 0.0], 4)


# --- kernel field-shift route against the dict polynomials -----------------


@pytest.mark.parametrize("lattice_name", ["lattice4", "lattice8"])
@pytest.mark.parametrize("sigma", [0.0, 0.03, 0.3])
@pytest.mark.parametrize("count", [1, 2, 3])
def test_field_shift_dense_matches_dict_route(request, lattice_name, sigma, count):
    # the exact operator-algebra commutator of the dict generators is an
    # independent route to the same scalars; sigma = 0.3 damps most
    # regulated field coefficients by many orders of magnitude
    lattice = request.getfixturevalue(lattice_name)
    rng = np.random.default_rng(1000 * count + int(100 * sigma) + lattice.half_extent)
    cfg = DipoleConfig(
        dipoles=tuple(
            Dipole(rng.uniform(-0.3, 0.3, 3), rng.normal(size=3)) for _ in range(count)
        )
    )
    pt = rng.uniform(-0.3, 0.3, 3)
    x = build_gm_generator(cfg, lattice)
    exact = np.zeros(3)
    for component in range(3):
        field_gen = field_component_generator(lattice, pt, component, sigma)
        central = commutator(x, field_gen)
        assert is_central(central)
        exact[component] = -central.scalar_part.real
    if sigma == 0.0:
        # the unregulated dict commutator is still central, but the kernel
        # route is a regulated sum only
        with pytest.raises(ValueError, match="sigma"):
            field_shift_from_commutator(cfg, lattice, pt, sigma)
        return
    route = field_shift_from_commutator(cfg, lattice, pt, sigma)
    # a component that cancels to rounding carries no relative accuracy
    compared = np.abs(exact) > 1e-10 * np.max(np.abs(exact))
    assert compared.any()
    assert_allclose(route[compared], exact[compared], rtol=1e-12)


def test_field_shift_route_builds_no_dict_polynomials(lattice4, monkeypatch):
    import dipolegauge.field_modes as field_modes
    import dipolegauge.gauge_dipole as gauge_dipole
    import dipolegauge.operator_algebra as operator_algebra

    def forbid(what):
        def forbidden(*args, **kwargs):
            raise AssertionError(f"{what} built on the kernel route")

        return forbidden

    monkeypatch.setattr(operator_algebra, "commutator", forbid("dict polynomial"))
    monkeypatch.setattr(OperatorPolynomial, "__init__", forbid("dict polynomial"))
    monkeypatch.setattr(
        OperatorPolynomial, "_from_canonical", classmethod(forbid("dict polynomial"))
    )
    for name in ("transverse_projectors", "vector_potential_coeffs", "electric_field_coeffs"):
        for module in (field_modes, gauge_dipole):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbid("coefficient tensor"))
    cfg = two_dipole_config([1.0, 0.0, 0.0], [0.0, 0.0, 1.0])
    # every patch bites on the routes that build operands
    with pytest.raises(AssertionError, match="dict polynomial"):
        OperatorPolynomial.degree_one({0: 1.0}, {})
    with pytest.raises(AssertionError, match="coefficient tensor"):
        build_gm_generator(cfg, lattice4)
    with pytest.raises(AssertionError, match="coefficient tensor"):
        field_component_generator(lattice4, [0.2, 0.1, -0.1], 0, 0.03)
    with pytest.raises(AssertionError, match="coefficient tensor"):
        field_modes._field_coeffs(lattice4, np.zeros(3), 1.0)
    shift = field_shift_from_commutator(cfg, lattice4, [0.2, 0.1, -0.1], 0.03)
    assert np.all(np.isfinite(shift)) and np.any(shift != 0.0)
