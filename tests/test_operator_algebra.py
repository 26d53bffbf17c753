import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from dipolegauge import (
    BchOrderViolationError,
    FockOracleConfig,
    OperatorPolynomial,
    OracleTooLargeError,
    adjoint_action,
    commutator,
    fock_adjoint_oracle,
    fock_adjoint_oracle_scan,
    fock_matrix,
    is_central,
    time_derivative_conjugation,
)
from dipolegauge.operator_algebra import FOCK_DIM_CAP, _apply, _diagonals, _exp_action

OP = OperatorPolynomial


def a(mode=0):
    return OP.annihilation(mode)


def ad(mode=0):
    return OP.creation(mode)


# --- canonical form ---------------------------------------------------------


def test_normal_ordering_single_contraction():
    # a a^dag = a^dag a + 1
    prod = a() * ad()
    assert prod == ad() * a() + OP.scalar(1.0)


def test_unsorted_keys_are_canonicalized():
    p = OP({((2, 1), (5, 3)): 2.0})
    assert ((1, 2), (3, 5)) in p.terms


def test_duplicate_keys_merge_and_prune():
    p = OP({((1, 0), ()): 1.0, ((0, 1), ()): -1.0})
    assert p.is_zero
    # an exact zero is dropped; a tiny nonzero coefficient is structure
    assert OP({((), (0,)): 0.0}).is_zero
    assert OP({((), (0,)): 1e-16}).terms == {((), (0,)): 1e-16}


def test_degree_and_scalars():
    assert OP.zero().degree == 0
    assert OP.scalar(3.0).degree == 0
    assert (ad() * ad() * a()).degree == 3
    assert is_central(OP.scalar(2 + 1j))
    assert is_central(OP.zero())
    assert not is_central(a())
    assert OP.scalar(2 + 1j).scalar_part == 2 + 1j


def test_negative_mode_rejected():
    with pytest.raises(ValueError):
        OP({((), (-1,)): 1.0})


def test_degree_one_bulk_constructor():
    p = OP.degree_one({0: 1.0j, 2: 2.0}, {1: -3.0})
    assert p == 1j * a(0) + 2.0 * a(2) - 3.0 * ad(1)
    assert OP.degree_one({0: 0.0}, {1: 0j}).is_zero
    assert OP.degree_one({0: 1e-16}, {}) == 1e-16 * a(0)


def test_arithmetic_and_dagger():
    p = 2.0 * ad() + (1 - 1j) * a(1)
    q = p - p
    assert q.is_zero
    assert (-p) + p == OP.zero()
    assert p.dagger() == 2.0 * a() + (1 + 1j) * ad(1)
    assert (p.dagger().dagger()) == p


def test_anti_hermitian_pattern():
    x = 0.5j * (a() + ad())
    assert x.is_anti_hermitian()
    assert not (a() + 2.0 * ad()).is_anti_hermitian()
    assert OP.zero().is_anti_hermitian()
    # the tolerance scales with the polynomial itself, never with 1
    assert not (1e-13 * (a() + ad())).is_anti_hermitian()
    assert (1e-13 * x).is_anti_hermitian()


# --- products against the dense oracle --------------------------------------


def oracle_config(truncation=12, modes=(0,)):
    return FockOracleConfig(modes=modes, truncations=truncation)


def interior(matrix, size=6):
    return matrix[:size, :size]


def test_product_matches_matrix_product_single_mode(rng):
    cfg = oracle_config(16)
    for _ in range(10):
        p = _random_poly(rng, modes=(0,), max_ladders=2)
        q = _random_poly(rng, modes=(0,), max_ladders=2)
        lhs = fock_matrix(p * q, cfg)
        rhs = fock_matrix(p, cfg) @ fock_matrix(q, cfg)
        assert_allclose(interior(lhs), interior(rhs), atol=1e-10)


def test_product_matches_matrix_product_two_modes(rng):
    # in kron indexing a contiguous block still touches the truncation edge
    # of the inner mode, so restrict both occupations to the safe interior:
    # from occupation <= 3, at most four ladder steps stay below 8
    cfg = FockOracleConfig(modes=(0, 3), truncations=8)
    safe = [n0 * 8 + n3 for n0 in range(4) for n3 in range(4)]
    block = np.ix_(safe, safe)
    for _ in range(6):
        p = _random_poly(rng, modes=(0, 3), max_ladders=2)
        q = _random_poly(rng, modes=(0, 3), max_ladders=2)
        lhs = fock_matrix(p * q, cfg)
        rhs = fock_matrix(p, cfg) @ fock_matrix(q, cfg)
        assert_allclose(lhs[block], rhs[block], atol=1e-9)


def _random_poly(rng, modes, max_ladders, n_terms=3):
    terms = {}
    for _ in range(n_terms):
        cre = tuple(rng.choice(modes, size=rng.integers(0, max_ladders + 1)))
        ann = tuple(rng.choice(modes, size=rng.integers(0, max_ladders + 1)))
        terms[(tuple(int(m) for m in cre), tuple(int(m) for m in ann))] = complex(
            rng.normal(), rng.normal()
        )
    return OP(terms)


def test_known_double_contraction():
    # a^2 (a^dag)^2 = (a^dag)^2 a^2 + 4 a^dag a + 2
    lhs = (a() * a()) * (ad() * ad())
    rhs = ad() * ad() * a() * a() + 4.0 * (ad() * a()) + OP.scalar(2.0)
    assert lhs == rhs


def test_ccr():
    assert commutator(a(0), ad(0)) == OP.scalar(1.0)
    assert commutator(a(0), ad(1)).is_zero
    assert commutator(a(0), a(1)).is_zero
    assert commutator(ad(0), ad(0)).is_zero


def test_commutator_matches_explicit_products(rng):
    for _ in range(8):
        p = _random_poly(rng, modes=(0, 1), max_ladders=2)
        q = _random_poly(rng, modes=(0, 1), max_ladders=2)
        direct = p * q - q * p
        indexed = commutator(p, q)
        assert (direct - indexed).max_coeff() < 1e-10 * max(1.0, direct.max_coeff())


def test_commutator_bilinearity(rng):
    p = _random_poly(rng, (0, 1), 2)
    q = _random_poly(rng, (0, 1), 2)
    r = _random_poly(rng, (0, 1), 2)
    lhs = commutator(p, q + r)
    rhs = commutator(p, q) + commutator(p, r)
    assert (lhs - rhs).max_coeff() < 1e-10 * max(1.0, lhs.max_coeff())


# --- closed-form conjugation ------------------------------------------------


def test_adjoint_action_central_pair():
    x = 0.3 * (ad() - a())
    y = a() + ad()
    out = adjoint_action(x, y)
    assert out == y + commutator(x, y)
    assert commutator(x, y) == OP.scalar(-0.6)


def test_time_derivative_half_weight():
    x = 0.3 * (ad() - a())
    y = a() + ad()
    full = adjoint_action(x, y) - y
    half = time_derivative_conjugation(x, y) - y
    assert half == 0.5 * full


def test_non_central_pair_rejected():
    x = ad() * a()
    y = a()
    with pytest.raises(BchOrderViolationError):
        adjoint_action(x, y)
    with pytest.raises(BchOrderViolationError):
        time_derivative_conjugation(x, y)


# --- Fock oracle ------------------------------------------------------------


def test_oracle_config_validation():
    cfg = FockOracleConfig(modes=(0, 2), truncations=(4, 6))
    assert cfg.dimension == 24
    assert FockOracleConfig(modes=(0, 1), truncations=5).truncations == (5, 5)
    with pytest.raises(OracleTooLargeError):
        FockOracleConfig(modes=(0,), truncations=(5000,))
    with pytest.raises(ValueError):
        FockOracleConfig(modes=(0, 0), truncations=4)
    with pytest.raises(ValueError):
        FockOracleConfig(modes=(0,), truncations=(1,))
    with pytest.raises(ValueError):
        FockOracleConfig(modes=(0, 1), truncations=(4, 4, 4))


def test_fock_matrix_ladders():
    cfg = oracle_config(5)
    lower = fock_matrix(a(), cfg)
    assert_allclose(lower, np.diag(np.sqrt([1.0, 2.0, 3.0, 4.0]), k=1))
    assert_allclose(fock_matrix(ad(), cfg), lower.T)
    number = fock_matrix(ad() * a(), cfg)
    assert_allclose(number, np.diag([0.0, 1.0, 2.0, 3.0, 4.0]))
    assert_allclose(fock_matrix(OP.scalar(2.5), cfg), 2.5 * np.eye(5))


def test_fock_matrix_mode_mismatch():
    with pytest.raises(ValueError, match="absent"):
        fock_matrix(a(7), oracle_config(4, modes=(0,)))


def test_fock_matrix_two_mode_ordering():
    cfg = FockOracleConfig(modes=(1, 4), truncations=(2, 3))
    got = fock_matrix(ad(1) * a(1), cfg)
    expected = np.kron(np.diag([0.0, 1.0]), np.eye(3))
    assert_allclose(got, expected)
    got4 = fock_matrix(ad(4) * a(4), cfg)
    assert_allclose(got4, np.kron(np.eye(2), np.diag([0.0, 1.0, 2.0])))


def test_fock_matrix_equals_kron_of_matrix_powers():
    # modes listed out of order, at unequal truncations
    cfg = FockOracleConfig(modes=(3, 1), truncations=(4, 6))
    p = (
        (0.5 - 2j) * ad(1) * ad(1) * a(3)
        + 1.5 * ad(3) * a(1) * a(1)
        - 0.25 * ad(1) * a(3)
        + 0.75j * ad(3) * ad(3)
        + OP.scalar(3.0)
    )
    assert p.degree == 3 and len(p) == 5

    def block(truncation, n_cre, n_ann):
        lower = np.diag(np.sqrt(np.arange(1.0, truncation)), k=1)
        power = np.linalg.matrix_power
        return power(lower.T, n_cre) @ power(lower, n_ann)

    expected = np.zeros((24, 24), dtype=complex)
    for (cre, ann), coeff in p.terms.items():
        blocks = [block(t, cre.count(m), ann.count(m)) for m, t in zip((3, 1), (4, 6))]
        expected += coeff * np.kron(*blocks)
    assert np.array_equal(fock_matrix(p, cfg), expected)


def test_fock_matrix_follows_matrix_power_at_every_power():
    # the weights follow matrix_power's products: a left fold up to power 3,
    # binary powering above it, mirrored for the creators; past the
    # truncation every weight is 0
    power = np.linalg.matrix_power
    lower = np.diag(np.sqrt(np.arange(1.0, 6)), k=1)
    for cre in range(8):
        for ann in range(8):
            got = fock_matrix(OP({((0,) * cre, (0,) * ann): 1.0}), oracle_config(6))
            expected = power(lower.T, cre) @ power(lower, ann)
            assert np.array_equal(got, expected), (cre, ann)


def test_oracle_zero_exponent_returns_y():
    cfg = oracle_config(10)
    y = a() + ad()
    out = fock_adjoint_oracle(OP.zero() , y, cfg)
    assert_allclose(out, fock_matrix(y, cfg), atol=1e-15)


def test_oracle_requires_anti_hermitian():
    with pytest.raises(ValueError, match="anti-Hermitian"):
        fock_adjoint_oracle(ad(), a() + ad(), oracle_config(6))
    with pytest.raises(ValueError, match="anti-Hermitian"):
        fock_adjoint_oracle(1e-13 * (a() + ad()), a() + ad(), oracle_config(6))


def test_oracle_displacement_interior():
    xi = 0.4
    x = xi * (ad() - a())
    y = a() + ad()
    cfg = oracle_config(30)
    oracle = fock_adjoint_oracle(x, y, cfg)
    closed = fock_matrix(adjoint_action(x, y), cfg)
    assert np.max(np.abs(interior(oracle, 15) - interior(closed, 15))) < 1e-9


def _two_mode_generator():
    # complex displacements of both modes, a rotation and a beam splitter
    c, d, b = 0.3 - 0.7j, -0.5 + 0.2j, 0.25 + 0.4j
    return (
        c * ad(0) - c.conjugate() * a(0)
        + d * ad(1) - d.conjugate() * a(1)
        + 0.6j * ad(0) * a(0)
        + b * ad(0) * a(1) - b.conjugate() * ad(1) * a(0)
    )


def _exp(x, cfg):
    """e^X from the oracle's Taylor action on the identity, in real arithmetic
    when X is real, as the scan takes it."""
    diagonals = _diagonals(x, cfg)
    if not any(np.any(w.imag) for w in diagonals.values()):
        diagonals = {d: w.real for d, w in diagonals.items()}
    block = _exp_action(diagonals, cfg.dimension, 1.0, np.eye(cfg.dimension))
    u = np.zeros((cfg.dimension,) * 2, block.dtype)
    u[: len(block)] = block
    return u


def _action_dtypes(monkeypatch):
    """The dtypes of the blocks that the scan propagates, recorded per call."""
    from dipolegauge import operator_algebra

    seen, action = [], operator_algebra._exp_action

    def recording(diagonals, dim, h, v):
        out = action(diagonals, dim, h, v)
        seen.append(out.dtype)
        return out

    monkeypatch.setattr(operator_algebra, "_exp_action", recording)
    return seen


@pytest.mark.parametrize(
    "x, cfg, real",
    [
        (0.1 * (ad() - a()), oracle_config(400), True),
        (1.0 * (ad() - a()), oracle_config(400), True),
        (_two_mode_generator(), FockOracleConfig(modes=(0, 1), truncations=20), False),
    ],
    ids=["xi0.1", "xi1.0", "two-mode"],
)
def test_spectral_exponential_matches_expm_and_is_unitary(x, cfg, real, monkeypatch):
    # the Taylor action on the identity is e^X; a real displacement with the
    # real Y is propagated in real arithmetic, the complex two-mode generator not
    from scipy.linalg import expm

    xm = fock_matrix(x, cfg)
    u = _exp(x, cfg)
    assert np.max(np.abs(u - expm(xm))) <= 1e-12
    assert np.max(np.abs(u @ u.conj().T - np.eye(cfg.dimension))) <= 1e-13
    # the oracle conjugates by the action's own e^(-X) = U^dag, applying Y by
    # its diagonals, in real arithmetic when X and Y are real, as it does
    y = a(cfg.modes[-1]) + ad(cfg.modes[-1])
    y_diagonals = {d: w.real if real else w for d, w in _diagonals(y, cfg).items()}
    w = _exp(-x, cfg)
    expected = w.conj().T @ _apply(y_diagonals, w, cfg.dimension)
    dtypes = _action_dtypes(monkeypatch)
    assert_allclose(fock_adjoint_oracle(x, y, cfg), expected)
    assert dtypes == [np.dtype(float if real else complex)]


@pytest.mark.parametrize("theta", [0.7, -2.3])
def test_spectral_exponential_exact_phase(theta):
    # theta n is diagonal, so every Taylor term is and U is exactly diagonal;
    # each phase is off by no more than the rounding of theta n would allow
    n = np.arange(40)
    u = _exp(1j * theta * ad() * a(), oracle_config(40))
    assert np.array_equal(u, np.diag(np.diag(u)))
    ulp = np.spacing(abs(theta) * n[-1])
    assert_allclose(np.diag(u), np.exp(1j * theta * n), rtol=0, atol=4 * ulp)


def _projected(x):
    return 0.5 * (x - x.dagger())


def test_spectral_exponential_reads_both_triangles():
    # a rounding-level defect on one side of an adjoint pair (a^dag^2 has no
    # a^2 partner) passes the check and enters through its mean: the oracle
    # exponentiates (X - X^dag) / 2, the same bits as the projected polynomial
    from scipy.linalg import expm

    cfg = oracle_config(12)
    x = 0.4 * (ad() - a()) + (3e-14 - 2e-14j) * ad() * ad()
    y = a() + ad()
    assert x.is_anti_hermitian() and _projected(x) != x
    got = fock_adjoint_oracle(x, y, cfg)
    assert np.array_equal(got, fock_adjoint_oracle(_projected(x), y, cfg))
    xm = fock_matrix(x, cfg)
    u = expm(0.5 * (xm - xm.conj().T))
    assert np.max(np.abs(got - u @ fock_matrix(y, cfg) @ u.conj().T)) <= 1e-13


def _real_two_mode_generator():
    # real displacements of both modes and a cubic term
    return (
        0.4 * (ad(0) - a(0))
        - 0.3 * (ad(1) - a(1))
        + 0.05 * (ad(0) * ad(1) * ad(1) - a(0) * a(1) * a(1))
    )


@pytest.mark.parametrize(
    "x, cfg",
    [
        (0.7 * (ad() - a()), oracle_config(41)),
        (_real_two_mode_generator(), FockOracleConfig(modes=(0, 1), truncations=(5, 8))),
    ],
    ids=["odd-truncation", "two-mode"],
)
def test_real_route_matches_expm_and_is_unitary(x, cfg, monkeypatch):
    # a real X and a real Y are propagated in real arithmetic; at (5, 8) the
    # generator has diagonals at offsets of both modes' strides
    from scipy.linalg import expm

    xm = fock_matrix(x, cfg).real
    u = _exp(x, cfg)
    assert np.isrealobj(u)
    assert np.max(np.abs(u - expm(xm))) <= 1e-12
    assert np.max(np.abs(u @ u.T - np.eye(cfg.dimension))) <= 1e-13
    # the oracle conjugates by the action's own e^(-X) = U_I^T
    y = a(cfg.modes[-1]) + ad(cfg.modes[-1])
    w = _exp(-x, cfg)
    expected = w.T @ fock_matrix(y, cfg).real @ w
    dtypes = _action_dtypes(monkeypatch)
    assert_allclose(fock_adjoint_oracle(x, y, cfg), expected, rtol=0, atol=1e-14)
    assert dtypes == [np.dtype(float)]


def test_real_route_reads_both_triangles(monkeypatch):
    # the real twin of the test above: a real rounding-level defect in one
    # coefficient of the pair keeps X real, and enters through the mean
    from scipy.linalg import expm

    cfg = oracle_config(12)
    x = 0.4 * ad() - (0.4 + 1e-13) * a()
    y = a() + ad()
    assert x.is_anti_hermitian() and _projected(x) != x
    dtypes = _action_dtypes(monkeypatch)
    got = fock_adjoint_oracle(x, y, cfg)
    assert dtypes == [np.dtype(float)]
    assert np.array_equal(got, fock_adjoint_oracle(_projected(x), y, cfg))
    xm = fock_matrix(x, cfg).real
    u = expm(0.5 * (xm - xm.T))
    assert np.max(np.abs(got - u @ fock_matrix(y, cfg).real @ u.T)) <= 1e-13


def _traced_peak(build):
    """Peak bytes that tracemalloc sees while ``build()`` runs, and its result."""
    build()  # first calls may cache; only the steady state is measured
    tracemalloc.start()
    try:
        out = build()
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()


def test_fock_matrix_allocates_nothing_dense_but_its_output():
    # a monomial fills one diagonal, so the dense local blocks, their powers,
    # Kronecker products and the complex coeff * block of a dense build (2.55
    # times the output) are never formed
    peak, out = _traced_peak(lambda: fock_matrix(ad() - a(), oracle_config(400)))
    assert peak <= 1.1 * out.nbytes


def test_oracle_scan_peak_memory():
    # the scan holds diagonals and dim x interior blocks: 4 complex
    # T x interior blocks (512 kB) are below one real T x T matrix (1.28 MB)
    cfg = oracle_config(400)
    scales = [0.229, 0.46, 0.947]
    peak, _ = _traced_peak(
        lambda: fock_adjoint_oracle_scan(ad() - a(), a() + ad(), cfg, scales, 20)
    )
    assert peak <= 4 * cfg.dimension * 20 * np.dtype(complex).itemsize


def test_oracle_scan_at_the_dimension_cap_stays_small_and_ignores_unreached_rows():
    # at the cap a real T x T matrix is 134 MB; the interior block never
    # reaches row 400 at these scales, so it has the bits of the run at T = 400
    cfg = oracle_config(FOCK_DIM_CAP)
    scales = [0.229, 0.46, 0.947]
    peak, blocks = _traced_peak(
        lambda: fock_adjoint_oracle_scan(ad() - a(), a() + ad(), cfg, scales, 20)
    )
    assert peak <= 4 * cfg.dimension * 20 * np.dtype(complex).itemsize
    small = fock_adjoint_oracle_scan(ad() - a(), a() + ad(), oracle_config(400), scales, 20)
    assert all(np.array_equal(b, s) for b, s in zip(blocks, small))


def _complex_generator():
    # a complex displacement plus a rotation: complex arithmetic
    c = 0.3 - 0.7j
    return c * ad() - c.conjugate() * a() + 0.6j * ad() * a()


@pytest.mark.parametrize(
    "generator", [ad() - a(), _complex_generator()], ids=["real", "complex"]
)
def test_oracle_is_the_scan_at_scale_one(generator):
    # one code path: the single-call oracle is the scan's full matrix at 1.0
    cfg = oracle_config(40)
    y = a() + ad()
    scan = fock_adjoint_oracle_scan(generator, y, cfg, [1.0])
    assert len(scan) == 1
    assert np.array_equal(fock_adjoint_oracle(generator, y, cfg), scan[0])


@pytest.mark.parametrize("truncation", [40, 400])
@pytest.mark.parametrize(
    "generator", [ad() - a(), _complex_generator()], ids=["real", "complex"]
)
def test_oracle_scan_interior_blocks_match_per_scale_oracle(generator, truncation):
    # each block is the interior of e^(xi G) Y e^(-xi G) from its own oracle call
    cfg = oracle_config(truncation)
    y = a() + ad()
    size = 20
    scales = [0.1, 0.3, 0.947, 1.0]
    blocks = fock_adjoint_oracle_scan(generator, y, cfg, scales, size)
    y_norm = np.max(np.abs(fock_matrix(y, cfg)))
    assert len(blocks) == len(scales)
    for xi, block in zip(scales, blocks):
        assert block.shape == (size, size) and block.dtype == complex
        full = fock_adjoint_oracle(xi * generator, y, cfg)
        assert np.max(np.abs(block - interior(full, size))) <= 1e-13 * y_norm


def test_oracle_scan_takes_scales_in_any_order_and_sign():
    # negative scales get their own sweep from the identity; repeats and 0 work
    cfg = oracle_config(60)
    generator, y = _complex_generator(), a() + ad()
    scales = [0.5, -0.3, 0.0, 0.5, -1.0, 0.2]
    blocks = fock_adjoint_oracle_scan(generator, y, cfg, scales, 10)
    y_norm = np.max(np.abs(fock_matrix(y, cfg)))
    assert np.array_equal(blocks[0], blocks[3])
    assert_allclose(blocks[2], interior(fock_matrix(y, cfg), 10), rtol=0, atol=0)
    for xi, block in zip(scales, blocks):
        full = fock_adjoint_oracle(xi * generator, y, cfg)
        assert np.max(np.abs(block - interior(full, 10))) <= 1e-13 * y_norm


def test_oracle_scan_decomposes_once_for_long_sweeps(monkeypatch):
    # Taylor steps grow with |s| ||G||: when the sweeps would take more steps
    # than half the basis states, or a scale is not finite, one eigh of the
    # dense generator serves every scale and the action is never taken
    from scipy.linalg import expm

    from dipolegauge import operator_algebra

    def forbidden(*args):
        raise AssertionError("Taylor action taken")

    cfg, generator, y = oracle_config(20), ad() - a(), a() + ad()
    monkeypatch.setattr(operator_algebra, "_exp_action", forbidden)
    calls, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda h: calls.append(h.shape) or eigh(h))
    scales = [0.3, -25.0, 1e200]
    blocks = fock_adjoint_oracle_scan(generator, y, cfg, scales, 5)
    assert calls == [(20, 20)]
    gm, ym = fock_matrix(generator, cfg), fock_matrix(y, cfg)
    for xi, block in zip(scales[:2], blocks):
        u = expm(xi * gm)[:5]
        assert_allclose(block, u @ ym @ u.conj().T, rtol=0, atol=1e-12)
    # at 1e200 the phases hold no correct bit, but U_I stays unitary
    assert np.all(np.isfinite(blocks[2]))
    assert_allclose(blocks[2], blocks[2].conj().T, rtol=0, atol=1e-13)
    (nan_block,) = fock_adjoint_oracle_scan(generator, y, cfg, [np.nan], 5)
    assert np.all(np.isnan(nan_block))


def test_oracle_scan_checks_generator_before_building_matrices(monkeypatch):
    from dipolegauge import operator_algebra

    def forbidden(*args):
        raise AssertionError("Fock operator built")

    monkeypatch.setattr(operator_algebra, "_diagonals", forbidden)
    with pytest.raises(ValueError, match="anti-Hermitian"):
        fock_adjoint_oracle_scan(ad(), a() + ad(), oracle_config(400), [0.5, 1.0], 3)


def test_fock_matrix_adds_monomials_sharing_a_diagonal_in_term_order():
    # a^dag_0 a_1 and a^dag_0 a^dag_1 a_1 a_1 both sit at offset 5 - 1 in a
    # (4, 5) space; their entries add in term order, with matrix_power's bits
    cfg = FockOracleConfig(modes=(0, 1), truncations=(4, 5))
    p = (0.3 - 0.1j) * ad(0) * a(1) + 0.7 * ad(0) * ad(1) * a(1) * a(1) + 0.2 * ad(0)
    power = np.linalg.matrix_power

    def block(t, c, n):
        lower = np.diag(np.sqrt(np.arange(1.0, t)), k=1)
        return power(lower.T, c) @ power(lower, n)

    expected = np.zeros((20, 20), dtype=complex)
    for (cre, ann), coeff in p.terms.items():
        blocks = [block(t, cre.count(m), ann.count(m)) for m, t in zip((0, 1), (4, 5))]
        expected += coeff * np.kron(*blocks)
    assert np.array_equal(fock_matrix(p, cfg), expected)
    assert sorted(_diagonals(p, cfg)) == [4, 5]


def test_apply_matches_the_dense_product_on_a_leading_block(rng):
    # P v for v the first rows of a block is the dense product with the rest
    # zero, formed only on the rows it can reach
    cfg = FockOracleConfig(modes=(0, 1), truncations=(6, 7))
    p = _two_mode_generator() + 0.3 * ad(1) * ad(1) * a(0)
    v = rng.standard_normal((11, 3))
    got = _apply(_diagonals(p, cfg), v, cfg.dimension)
    assert len(got) == 11 + 7  # a^dag_0 moves by mode 1's truncation
    padded = np.zeros((cfg.dimension, 3))
    padded[:11] = v
    want = fock_matrix(p, cfg) @ padded
    assert_allclose(got, want[: len(got)], rtol=0, atol=1e-14)
    assert not np.any(want[len(got) :])


# --- properties against the dense Fock matrices -----------------------------
#
# Coefficients are multiples of 1/4, so every product and sum the algebra
# forms is exact and its identities hold exactly.  fock_matrix is exact entry
# by entry on the truncated space, and a factor with at most two ladders of
# each kind per mode moves each occupation by at most two, so from
# occupations <= 3 a triple product never leaves truncation 8: on that block
# the dense products are the exact operator products.

_PROPERTY_SETTINGS = settings(
    max_examples=25, deadline=None, derandomize=True, database=None
)
_PROPERTY_CFG = FockOracleConfig(modes=(0, 1), truncations=8)
_SAFE = np.ix_(*[[n0 * 8 + n1 for n0 in range(4) for n1 in range(4)]] * 2)
_QUARTER = st.integers(-8, 8).map(lambda n: n / 4)
_COEFF = st.builds(complex, _QUARTER, _QUARTER)
_LADDERS = st.lists(st.sampled_from((0, 1)), max_size=2).map(tuple)
_POLY = st.dictionaries(st.tuples(_LADDERS, _LADDERS), _COEFF, max_size=3).map(OP)


def _dense(p):
    return fock_matrix(p, _PROPERTY_CFG)


def _assert_safe_block_equal(got, want, *factors):
    # rounding of a dense product is relative to the product of magnitudes
    scale = np.linalg.multi_dot([np.abs(f) for f in factors])
    assert np.max(np.abs(got - want)[_SAFE]) <= 1e-12 * np.max(scale[_SAFE])


@_PROPERTY_SETTINGS
@given(_POLY, _POLY, _POLY)
def test_property_jacobi_identity(p, q, r):
    jacobi = (
        commutator(p, commutator(q, r))
        + commutator(q, commutator(r, p))
        + commutator(r, commutator(p, q))
    )
    assert jacobi.is_zero
    mp, mq, mr = _dense(p), _dense(q), _dense(r)
    nested = mp @ (mq @ mr - mr @ mq) - (mq @ mr - mr @ mq) @ mp
    algebra = _dense(commutator(p, commutator(q, r)))
    _assert_safe_block_equal(algebra, nested, mp, mq, mr)


@_PROPERTY_SETTINGS
@given(st.lists(_COEFF, min_size=8, max_size=8))
def test_property_ccr(c):
    # [sum_i u_i a_i + v_i a_i^dag, sum_i s_i a_i + t_i a_i^dag]
    #   = sum_i (u_i t_i - v_i s_i) from [a_i, a_j^dag] = delta_ij alone
    p = c[0] * a(0) + c[1] * ad(0) + c[2] * a(1) + c[3] * ad(1)
    q = c[4] * a(0) + c[5] * ad(0) + c[6] * a(1) + c[7] * ad(1)
    expected = c[0] * c[5] - c[1] * c[4] + c[2] * c[7] - c[3] * c[6]
    assert commutator(p, q) == OP.scalar(expected)
    mp, mq = _dense(p), _dense(q)
    identity = expected * np.eye(_PROPERTY_CFG.dimension)
    _assert_safe_block_equal(mp @ mq - mq @ mp, identity, mp, mq)


@_PROPERTY_SETTINGS
@given(_POLY, _POLY)
def test_property_dagger_anti_homomorphism(p, q):
    assert (p * q).dagger() == q.dagger() * p.dagger()
    assert_allclose(_dense(p.dagger()), _dense(p).conj().T, rtol=1e-15, atol=0.0)
    mp, mq = _dense(p), _dense(q)
    _assert_safe_block_equal(_dense((p * q).dagger()), (mp @ mq).conj().T, mp, mq)


_EIGHTH = st.integers(-2, 2).map(lambda n: n / 8)


# each example propagates two 144 x 144 identities through the Taylor action
@settings(_PROPERTY_SETTINGS, max_examples=10)
@given(
    st.lists(_EIGHTH, min_size=5, max_size=5), st.lists(_COEFF, min_size=5, max_size=5)
)
def test_property_conjugation_matches_oracle(x_parts, c):
    # X = sum_i (xi_i a_i^dag - conj(xi_i) a_i) + i theta is anti-Hermitian
    # and has a central commutator with any degree-1 Y; with |xi_i| <= 0.36
    # the truncation at 12 is invisible on occupations <= 2
    xi0, xi1 = complex(*x_parts[:2]), complex(*x_parts[2:4])
    x = (
        xi0 * ad(0) - xi0.conjugate() * a(0)
        + xi1 * ad(1) - xi1.conjugate() * a(1)
        + OP.scalar(1j * x_parts[4])
    )
    y = c[0] * a(0) + c[1] * ad(0) + c[2] * a(1) + c[3] * ad(1) + OP.scalar(c[4])
    cfg = FockOracleConfig(modes=(0, 1), truncations=12)
    interior = np.ix_(*[[n0 * 12 + n1 for n0 in range(3) for n1 in range(3)]] * 2)
    scale = np.max(np.abs(fock_matrix(y, cfg)[interior]))
    pairs = [
        (adjoint_action(x, y), x),
        # Y + s [X, Y] is linear in s, so its flow average is the midpoint
        (time_derivative_conjugation(x, y), 0.5 * x),
    ]
    for closed, exponent in pairs:
        oracle = fock_adjoint_oracle(exponent, y, cfg)
        deviation = np.abs(fock_matrix(closed, cfg) - oracle)[interior]
        assert np.max(deviation) <= 1e-10 * scale
