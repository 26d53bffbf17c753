"""Independent reference values for every comparison row the workloads produce.

The benchmark checks the program against numbers it computes itself, with
dense numpy code that shares nothing with ``src/``: the mode lattice, the
regulated mode sums and the closed forms are written out again here from the
formulas in the package docstrings.  The row values therefore do not move when
the program under test changes, which is what lets a run on any seed be
checked.  Configs never set ``units`` or ``tolerances``, so natural units and
the CLI's default gates apply.

Each function returns an :class:`Expected`: the CSV rows keyed by
(record label, comparison name), and the exit codes the invocation may end
with.  The exit code follows from the gating rows; a row whose deviation lies
within the check tolerance of its gate could round either way, so both 0 and 1
are then accepted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# default gates of the CLI (``dipolegauge.cli.TOLERANCES``), copied so the
# reference does not import the program under test
GATES = {
    "commutator_rel": 0.02,
    "pair_energy_rel": 0.02,
    "field_shift_rel": 0.02,
    "coulomb_recovery_rel": 1e-3,
    "path_residual": 1e-6,
    "bch_interior_abs": 1e-8,
}
SIGMA_FRACTION = 1.0 / 6.0
BOX_LENGTH = 1.0

# A computed value may differ from the reference by this share of its own
# physics gate: ten thousand times tighter than the gate, and still far above
# the rounding that a different summation order leaves.
CHECK_FRACTION = 1e-4


@dataclass(frozen=True)
class Row:
    computed: float
    reference: float
    tolerance: float
    kind: str

    @property
    def deviation(self) -> float:
        return abs(self.computed - self.reference)

    @property
    def gate(self) -> float:
        """Largest deviation the CLI lets pass for this row."""
        if self.kind == "relative":
            return self.tolerance * abs(self.reference)
        return self.tolerance

    @property
    def check_tolerance(self) -> float:
        return CHECK_FRACTION * self.gate

    @property
    def passed(self) -> bool:
        return self.deviation <= self.gate


@dataclass(frozen=True)
class Expected:
    rows: dict  # (label, comparison) -> Row
    exit_codes: frozenset


def _expected(rows: dict, gating_labels) -> Expected:
    gating = [row for (label, _), row in rows.items() if label in gating_labels]
    # computed values may land anywhere within check_tolerance of the oracle
    if any(abs(row.deviation - row.gate) <= 2 * row.check_tolerance for row in gating):
        codes = frozenset({0, 1})
    else:
        codes = frozenset({0 if all(row.passed for row in gating) else 1})
    return Expected(rows=rows, exit_codes=codes)


def vec_label(vec) -> str:
    """Label text the CLI prints for a 3-vector."""
    return np.array2string(np.asarray(vec, dtype=float), separator=",")


def lattice(half_extent: int, box_length: float = BOX_LENGTH):
    """Wavevectors, |k| and unit vectors of the nonzero modes |n_i| <= N."""
    n = np.arange(-half_extent, half_extent + 1)
    grid = np.stack(np.meshgrid(n, n, n, indexing="ij"), axis=-1).reshape(-1, 3)
    grid = grid[np.any(grid != 0, axis=1)]
    kvecs = (2.0 * np.pi / box_length) * grid
    knorm = np.sqrt(np.einsum("ki,ki->k", kvecs, kvecs))
    return kvecs, knorm, kvecs / knorm[:, None]


def _modesum_weights(kvecs, knorm, rhos, sigma, volume):
    """-(1/V) w_k cos(k . rho) per mode and separation, shape (M, P)."""
    damping = np.exp(-((knorm * sigma) ** 2))
    return -(damping[:, None] / volume) * np.cos(kvecs @ np.asarray(rhos).T)


def _closed_tensor(rho) -> np.ndarray:
    """Imaginary part of i/(4 pi |rho|^3) (delta - 3 rhohat rhohat)."""
    dist = float(np.linalg.norm(rho))
    rhohat = np.asarray(rho) / dist
    return (np.eye(3) - 3.0 * np.outer(rhohat, rhohat)) / (4.0 * np.pi * dist**3)


def _dipole_field(offset, moment) -> np.ndarray:
    dist = float(np.linalg.norm(offset))
    rhat = offset / dist
    return -(moment - 3.0 * (moment @ rhat) * rhat) / (4.0 * np.pi * dist**3)


def verify_commutator(config: dict) -> Expected:
    box = config.get("box_length", BOX_LENGTH)
    extents = config["half_extents"]
    tol = GATES["commutator_rel"]
    rows = {}
    gating = set()
    for extent in extents:
        kvecs, knorm, khat = lattice(extent, box)
        for sep in config["separations"]:
            sep = np.asarray(sep, dtype=float)
            sigma = SIGMA_FRACTION * float(np.linalg.norm(sep))
            # -(1/V) sum_k w_k cos(k.rho) (delta - khat khat)
            weights = _modesum_weights(kvecs, knorm, [sep], sigma, box**3)[:, 0]
            computed = np.sum(weights) * np.eye(3) - np.einsum(
                "k,ki,kj->ij", weights, khat, khat
            )
            closed = _closed_tensor(sep)
            dominant = float(np.max(np.abs(closed)))
            label = f"rho={vec_label(sep)} N={extent}"
            if extent == max(extents):
                gating.add(label)
            for i in range(3):
                for j in range(3):
                    ref = float(closed[i, j])
                    if ref != 0.0:
                        row = Row(float(computed[i, j]), ref, tol, "relative")
                    else:
                        row = Row(float(computed[i, j]), 0.0, tol * dominant, "absolute")
                    rows[(label, f"entry[{i},{j}]")] = row
    return _expected(rows, gating)


def _min_gap(points, others=None) -> float:
    if others is None:
        gaps = [np.linalg.norm(a - b) for i, a in enumerate(points) for b in points[:i]]
    else:
        gaps = [np.linalg.norm(p - o) for p in points for o in others]
    return float(min(gaps))


def _dipoles(config: dict):
    positions = np.array([d["position"] for d in config["dipoles"]], dtype=float)
    moments = np.array([d["moment"] for d in config["dipoles"]], dtype=float)
    return positions, moments


def dipole_energy(config: dict, chunk: int = 32) -> Expected:
    positions, moments = _dipoles(config)
    box = config["lattice"].get("box_length", BOX_LENGTH)
    kvecs, knorm, khat = lattice(config["lattice"]["half_extent"], box)
    sigma = _min_gap(list(positions)) * SIGMA_FRACTION
    along = khat @ moments.T  # (M, n): khat . d_q
    pairs = [(q, qp) for q in range(len(positions)) for qp in range(q)]
    tol = GATES["pair_energy_rel"]
    label = f"{len(positions)} dipole(s)"
    rows = {}
    for start in range(0, len(pairs), chunk):
        block = pairs[start : start + chunk]
        rhos = [positions[q] - positions[qp] for q, qp in block]
        weights = _modesum_weights(kvecs, knorm, rhos, sigma, box**3)
        for col, (q, qp) in enumerate(block):
            w = weights[:, col]
            # -(1/V) sum_k w_k cos(k.rho) (d.d' - (khat.d)(khat.d'))
            route = float(
                np.sum(w) * (moments[q] @ moments[qp]) - w @ (along[:, q] * along[:, qp])
            )
            closed = float(-moments[q] @ _dipole_field(rhos[col], moments[qp]))
            rows[(label, f"pair_route[{q},{qp}]")] = Row(route, closed, tol, "relative")
    return _expected(rows, {label})


def field_shift(config: dict) -> Expected:
    positions, moments = _dipoles(config)
    points = np.array(config["field_points"], dtype=float)
    box = config["lattice"].get("box_length", BOX_LENGTH)
    kvecs, knorm, khat = lattice(config["lattice"]["half_extent"], box)
    sigma = _min_gap(list(points), list(positions)) * SIGMA_FRACTION
    tol = GATES["field_shift_rel"]
    along = khat @ moments.T  # (M, n)
    rows = {}
    for point in points:
        weights = _modesum_weights(kvecs, knorm, positions - point, sigma, box**3)
        # shift = (1/V) sum_q sum_k w_k cos(k.(R_q - R)) (d_q - khat (khat.d_q))
        route = -(np.sum(weights, axis=0) @ moments) + np.einsum(
            "kq,kq,ki->i", weights, along, khat
        )
        closed = sum(_dipole_field(point - r, d) for r, d in zip(positions, moments))
        dominant = float(np.max(np.abs(closed)))
        label = f"point={vec_label(point)}"
        for axis in range(3):
            rows[(label, f"shift[{axis}]")] = Row(
                float(route[axis]), float(closed[axis]), tol * dominant, "absolute"
            )
    return _expected(rows, {label for label, _ in rows})


def coulomb_path(config: dict) -> Expected:
    """Explicit-path mode: every path runs from the charge at the origin.

    The exact line integral is -(q/4 pi)(F(end) - F(0)) with
    F(s) = (s - r)/|s - r|^3, so quadrature-vs-endpoint rows and
    path-independence residuals of paths sharing an endpoint are zero.
    """
    charge = config.get("charge", 1.0)
    paths = [np.array(p["vertices"], dtype=float) for p in config["charge_paths"]]
    points = [np.array(p, dtype=float) for p in config["field_points"]]
    rows = {}
    exact = {}
    for p_idx, vertices in enumerate(paths):
        for pt_idx, point in enumerate(points):
            ends = [(v - point) / np.linalg.norm(v - point) ** 3 for v in vertices[[0, -1]]]
            integral = -charge / (4.0 * np.pi) * (ends[1] - ends[0])
            exact[(p_idx, pt_idx)] = integral
            minus_coulomb = -charge * point / (4.0 * np.pi * np.linalg.norm(point) ** 3)
            scale = float(np.max(np.abs(minus_coulomb)))
            label = f"path={p_idx} point={vec_label(point)}"
            rows[(label, "recovery_max_dev")] = Row(
                float(np.max(np.abs(integral - minus_coulomb))),
                0.0,
                GATES["coulomb_recovery_rel"] * scale,
                "absolute",
            )
            rows[(label, "quad_vs_endpoint_formula")] = Row(
                0.0, 0.0, GATES["path_residual"] * scale, "absolute"
            )
    for a in range(len(paths)):
        for b in range(a + 1, len(paths)):
            for pt_idx, point in enumerate(points):
                diff = float(np.max(np.abs(exact[(a, pt_idx)] - exact[(b, pt_idx)])))
                scale = abs(charge) / (4.0 * np.pi * np.linalg.norm(point) ** 2)
                label = f"paths=({a},{b}) point={vec_label(point)}"
                rows[(label, "path_independence_residual")] = Row(
                    diff / scale, 0.0, GATES["path_residual"], "absolute"
                )
    return _expected(rows, {label for label, _ in rows})


def bch_check(config: dict) -> Expected:
    """Y + [X, Y] equals e^X Y e^-X exactly, so every interior deviation is 0."""
    rows = {
        (f"xi={xi:g}", "interior_deviation"): Row(
            0.0, 0.0, GATES["bch_interior_abs"], "absolute"
        )
        for xi in config["xi_values"]
    }
    return _expected(rows, {label for label, _ in rows})


EXPECTED = {
    "verify-commutator": verify_commutator,
    "dipole-energy": dipole_energy,
    "field-shift": field_shift,
    "coulomb-path": coulomb_path,
    "bch-check": bch_check,
}
