import numpy as np
import pytest

from dipolegauge import build_mode_lattice, transverse_projectors


@pytest.fixture(scope="session")
def lattice24():
    # shared by the expensive mode-sum tests; box L=1, N=24, 117648 modes
    return build_mode_lattice(1.0, 24)


@pytest.fixture(scope="session")
def lattice8():
    return build_mode_lattice(1.0, 8)


@pytest.fixture(scope="session")
def lattice4():
    return build_mode_lattice(1.0, 4)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


def random_rotation(rng):
    # QR of a Gaussian matrix, sign-fixed to a proper rotation
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def full_lattice_sums(lattice, offsets, sigma):
    # sum_k w_k cos(k . rho) P_k over all M modes for each separation rho,
    # from the explicit (M, 3, 3) projector stack, as (len(offsets), 3, 3)
    weights = np.exp(-((lattice.knorm * sigma) ** 2))
    cosines = np.cos(np.asarray(offsets) @ lattice.kvecs.T)
    return np.einsum("k,nk,kjl->njl", weights, cosines, transverse_projectors(lattice))
