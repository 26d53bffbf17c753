"""Seeded CLI configs for the three benchmark workloads.

``generate(name, seed)`` returns the invocations of one pass of a workload:
one ``dipolegauge`` subcommand and its JSON config each.  The same seed gives
the same configs; the CLI sees only the generated JSON.  Coordinates are
rounded to 1e-4 before any constraint is checked, so the written configs are
exactly the ones that were checked.

Constraints, in units of the box length L = 1 (box [0, L)^3):

- every dipole and every dipole-workload field point lies inside the box;
- dipoles keep a minimum pair separation of ``MIN_PAIR_SEPARATION``, which
  also fixes the CLI's default regulator sigma = (min separation) / 6 at or
  above L/60, where the N=24 mode sum has converged;
- a field-shift point sits ``FIELD_POINT_GAP`` from its nearest dipole and no
  closer to any other, so sigma, and with it the number of regulated
  coefficients kept, is the same for every seed;
- coulomb-path charge paths start at the charge (the origin) and share one
  far endpoint, and every segment keeps ``PATH_CLEARANCE`` (twice the
  configured exclusion radius) from every field point.

Counts (dipoles, points, separations, paths, xi values) are fixed per
workload rather than drawn from the seed, so that the work in a pass, and
with it ``wall_s``, does not depend on the seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

BOX_LENGTH = 1.0
CENTRE = np.full(3, 0.5 * BOX_LENGTH)
DECIMALS = 4

MIN_PAIR_SEPARATION = 0.1
PAIR_NETWORK_DIPOLES = 27  # 351 pairs
PAIR_NETWORK_WIDTH = 0.35  # side of the cube the cluster is drawn from
FIELD_SHIFT_DIPOLES = 3
FIELD_SHIFT_WIDTH = 0.3
FIELD_POINT_GAP = 0.1
SEPARATION_RANGE = (0.1, 0.2)
SWEEP_EXTENTS = [12, 24, 48]
COULOMB_POINTS = 24
COULOMB_RADIUS_RANGE = (0.3, 1.0)
ENDPOINT_DISTANCE = 200.0
EXCLUSION_RADIUS = 0.1
PATH_CLEARANCE = 2 * EXCLUSION_RADIUS
BCH_TRUNCATION = 400
BCH_INTERIOR = 20

WORKLOADS = ("pair-network", "field-shift", "oracle-mix")


@dataclass(frozen=True)
class Invocation:
    command: str
    config: dict

    @property
    def text(self) -> str:
        """The config file exactly as written for the CLI."""
        return json.dumps(self.config, sort_keys=True) + "\n"


def _round(vec) -> np.ndarray:
    return np.round(np.asarray(vec, dtype=float), DECIMALS)


def _direction(rng) -> np.ndarray:
    vec = rng.normal(size=3)
    return vec / np.linalg.norm(vec)


def _inside_box(point) -> bool:
    return bool(np.all(point > 0.0) and np.all(point < BOX_LENGTH))


def _cluster(rng, count: int, width: float) -> list[np.ndarray]:
    """Rejection-sample ``count`` points in a cube of side ``width`` at the centre."""
    points: list[np.ndarray] = []
    while len(points) < count:
        candidate = _round(CENTRE + (rng.random(3) - 0.5) * width)
        if all(np.linalg.norm(candidate - p) >= MIN_PAIR_SEPARATION for p in points):
            points.append(candidate)
    return points


def _dipoles(rng, positions) -> list[dict]:
    return [
        {
            "position": pos.tolist(),
            "moment": _round(_direction(rng) * rng.uniform(0.5, 1.5)).tolist(),
        }
        for pos in positions
    ]


def _pair_network(rng) -> list[Invocation]:
    positions = _cluster(rng, PAIR_NETWORK_DIPOLES, PAIR_NETWORK_WIDTH)
    config = {
        "schema_version": 1,
        "dipoles": _dipoles(rng, positions),
        "lattice": {"half_extent": 24},
    }
    return [Invocation("dipole-energy", config)]


def _field_point(rng, positions) -> np.ndarray:
    while True:
        anchor = positions[rng.integers(len(positions))]
        point = _round(anchor + FIELD_POINT_GAP * _direction(rng))
        gaps = sorted(np.linalg.norm(point - p) for p in positions)
        # the anchor stays the nearest dipole, at the gap up to rounding
        if _inside_box(point) and gaps[1] > FIELD_POINT_GAP:
            return point


def _field_shift(rng) -> list[Invocation]:
    positions = _cluster(rng, FIELD_SHIFT_DIPOLES, FIELD_SHIFT_WIDTH)
    config = {
        "schema_version": 1,
        "dipoles": _dipoles(rng, positions),
        "field_points": [_field_point(rng, positions).tolist()],
        "lattice": {"half_extent": 24},
    }
    return [Invocation("field-shift", config)]


def segment_clearance(a, b, point) -> float:
    """Distance from ``point`` to the segment ab."""
    seg = b - a
    t = float(np.clip(((point - a) @ seg) / (seg @ seg), 0.0, 1.0))
    return float(np.linalg.norm(a + t * seg - point))


def _charge_paths(rng) -> list[np.ndarray]:
    """A straight path and two winding ones, all ending at one far endpoint."""
    endpoint = _round(ENDPOINT_DISTANCE * _direction(rng))
    paths = [np.array([np.zeros(3), endpoint])]
    for interior in (3, 4):
        radii = np.sort(rng.uniform(0.5, 3.0, size=interior))
        vertices = [np.zeros(3)] + [_round(r * _direction(rng)) for r in radii]
        paths.append(np.array(vertices + [endpoint]))
    return paths


def _clear_point(rng, paths) -> np.ndarray:
    while True:
        point = _round(_direction(rng) * rng.uniform(*COULOMB_RADIUS_RANGE))
        if all(
            segment_clearance(path[i], path[i + 1], point) >= PATH_CLEARANCE
            for path in paths
            for i in range(len(path) - 1)
        ):
            return point


def _oracle_mix(rng) -> list[Invocation]:
    separations = [
        _round(_direction(rng) * rng.uniform(*SEPARATION_RANGE)).tolist()
        for _ in range(3)
    ]
    paths = _charge_paths(rng)
    points = [_clear_point(rng, paths).tolist() for _ in range(COULOMB_POINTS)]
    xi_values = sorted(round(float(x), 3) for x in rng.uniform(0.1, 1.0, size=3))
    return [
        Invocation(
            "verify-commutator",
            {
                "schema_version": 1,
                "separations": separations,
                "half_extents": list(SWEEP_EXTENTS),
            },
        ),
        Invocation(
            "coulomb-path",
            {
                "schema_version": 1,
                "field_points": points,
                "charge_paths": [{"vertices": p.tolist()} for p in paths],
                "exclusion_radius": EXCLUSION_RADIUS,
            },
        ),
        Invocation(
            "bch-check",
            {
                "schema_version": 1,
                "xi_values": xi_values,
                "truncation": BCH_TRUNCATION,
                "interior": BCH_INTERIOR,
            },
        ),
    ]


_GENERATORS = {
    "pair-network": _pair_network,
    "field-shift": _field_shift,
    "oracle-mix": _oracle_mix,
}


def generate(name: str, seed: int) -> list[Invocation]:
    """Invocations of one pass of workload ``name`` for ``seed``."""
    # the workload name is mixed into the stream so workloads differ per seed
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    return _GENERATORS[name](rng)
