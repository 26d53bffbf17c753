"""Command-line verification harness.

Five subcommands drive the library's central identities from a JSON config
file and emit machine-readable result records:

- ``verify-commutator``: box mode sum of the equal-time A-E commutator against
  the closed-form i hbar / (4 pi eps0 rho^3) (delta - 3 rhohat rhohat^T).
- ``dipole-energy``: pair energies (d . d' - 3 (d . Rhat)(d' . Rhat)) /
  (4 pi eps0 R^3), closed form against the commutator route.
- ``field-shift``: the classical dipole field separating the field operators
  of the two pictures, closed form against the commutator route.
- ``coulomb-path``: line-integral recovery of the Coulomb field
  q r / (4 pi eps0 r^3), with path-independence residuals.
- ``bch-check``: closed-form conjugation e^X Y e^(-X) = Y + [X, Y] against a
  truncated-Fock matrix-exponential oracle.

Every command takes ``--config <file>`` plus optional ``--out`` and
``--format csv|json``.  Exit codes: 0 all comparisons within tolerance,
1 tolerance failure, 2 validation or output error.  All numeric defaults
live in ``DEFAULTS`` and ``TOLERANCES``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .coulomb_path import (
    ChargePath,
    commutator_line_integrals,
    coulomb_field,
    line_integral_endpoint,
    path_residual,
    staircase_path,
    straight_path,
)
from .errors import ConfigError
from .field_modes import (
    _norm2,
    analytic_dipole_tensor,
    build_mode_lattice,
    commutator_ae_modesum,
)
from .gauge_dipole import (
    Dipole,
    DipoleConfig,
    field_shift,
    field_shift_from_commutator,
    pair_energies_from_commutator,
    pairwise_interaction,
    transform_report,
)
from .operator_algebra import (
    FockOracleConfig,
    OperatorPolynomial,
    adjoint_action,
    commutator,
    fock_adjoint_oracle_scan,
    fock_matrix,
)
from .units import UnitSystem

__all__ = [
    "DEFAULTS",
    "TOLERANCES",
    "SCHEMA_VERSION",
    "Comparison",
    "ResultRecord",
    "render_json",
    "render_csv",
    "main",
    "entry_point",
]

SCHEMA_VERSION = 1

# single source of truth for every default the harness applies
DEFAULTS = {
    "box_length": 1.0,
    "half_extent": 24,
    "half_extents_sweep": [12, 24],
    "sigma_fraction": 1.0 / 6.0,
    "endpoint_factor": 200.0,
    "charge": 1.0,
    "quad_epsrel": 1e-9,
    "bch_xi_values": [0.1, 0.3, 1.0],
    "bch_truncation": 40,
    "bch_interior": 20,
    "bch_dim_cap": 4096,
    "sigma_box_divisor": 20.0,
}

# largest lattice half-extent N a config may ask for, checked while parsing,
# before any allocation.  Mode sums cost O(N^3) time: at N = 256 one box-sum
# row takes 2.7 s and the 351-pair Gram of 27 dipoles 150 s, each process
# peaking under 60 MB; at N = 512 one row takes 19 s and 118 MB (2-core Xeon)
MAX_HALF_EXTENT = 256

TOLERANCES = {
    "commutator_rel": 0.02,
    "pair_energy_rel": 0.02,
    "field_shift_rel": 0.02,
    "coulomb_recovery_rel": 1e-3,
    "path_residual": 1e-6,
    "bch_interior_abs": 1e-8,
}


# ---------------------------------------------------------------------------
# result model


@dataclass
class Comparison:
    """One computed-vs-reference row; it passes when abs_error <= allowed.

    A "relative" row's ``tolerance`` is a fraction of |reference|: allowed is
    tolerance * |reference| and ``rel_error`` is abs_error / |reference|.  An
    "absolute" row's ``tolerance`` is allowed itself, tol * scale in the
    row's units, and its ``rel_error`` is None.  ``_row`` builds every row
    and picks its kind.
    """

    name: str
    computed: float
    reference: float
    tolerance: float
    kind: str = "relative"

    @property
    def abs_error(self) -> float:
        return abs(self.computed - self.reference)

    @property
    def rel_error(self) -> float | None:
        if self.kind != "relative":
            return None
        return self.abs_error / abs(self.reference)

    @property
    def passed(self) -> bool:
        allowed = self.tolerance * (abs(self.reference) if self.kind == "relative" else 1.0)
        return self.abs_error <= allowed

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "computed": self.computed,
            "reference": self.reference,
            "abs_error": self.abs_error,
            "rel_error": self.rel_error,
            "tolerance": self.tolerance,
            "kind": self.kind,
            "passed": self.passed,
        }


@dataclass
class ResultRecord:
    """Named outputs plus comparison rows for one unit of CLI work."""

    command: str
    label: str
    input_digest: str
    outputs: dict
    comparisons: list[Comparison] = field(default_factory=list)
    gates_exit: bool = True
    duration_seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.comparisons)

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "label": self.label,
            "input_digest": self.input_digest,
            "outputs": self.outputs,
            "comparisons": [c.to_dict() for c in self.comparisons],
            "passed": self.passed,
            "gates_exit": self.gates_exit,
            "duration_seconds": self.duration_seconds,
        }


def _jsonify(value):
    if isinstance(value, np.ndarray):
        return _jsonify(value.tolist())
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (np.complexfloating, complex)):
        return {"real": float(value.real), "imag": float(value.imag)}
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.integer):
        return int(value)
    return value


def render_json(command: str, records: list[ResultRecord]) -> str:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "records": [r.to_dict() for r in records],
    }
    return json.dumps(doc, indent=2) + "\n"


def _fmt17(value) -> str:
    return format(float(value), ".17g")


def render_csv(command: str, records: list[ResultRecord]) -> str:
    """Comparison rows only, '.'-decimal, 17 significant digits, LF endings."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(
        [
            "command",
            "record",
            "comparison",
            "kind",
            "computed",
            "reference",
            "abs_error",
            "rel_error",
            "tolerance",
            "passed",
        ]
    )
    for record in records:
        for comp in record.comparisons:
            writer.writerow(
                [
                    command,
                    record.label,
                    comp.name,
                    comp.kind,
                    _fmt17(comp.computed),
                    _fmt17(comp.reference),
                    _fmt17(comp.abs_error),
                    "" if comp.rel_error is None else _fmt17(comp.rel_error),
                    _fmt17(comp.tolerance),
                    "true" if comp.passed else "false",
                ]
            )
    return buffer.getvalue()


# ---------------------------------------------------------------------------
# declarative config parsing
#
# A table maps each key of a JSON object to (parser, default).  Keys are
# parsed in table order by parser(value, where, parsed), where ``where`` is
# the key's path for error messages and ``parsed`` holds the keys parsed
# before it.  An absent key takes its default as is, without parsing.

REQUIRED = object()  # default marking a key that must be present


def _parse_block(raw, table: dict, where: str, prefix: str | None = None) -> dict:
    """Parse the JSON object ``raw`` by ``table``; key paths are ``prefix + key``."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be a JSON object, got {type(raw).__name__}")
    unknown = sorted(set(raw) - set(table))
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {where}")
    missing = sorted(k for k, (_, d) in table.items() if d is REQUIRED and k not in raw)
    if missing:
        raise ConfigError(f"missing required key(s) {missing} in {where}")
    prefix = f"{where}." if prefix is None else prefix
    parsed = {}
    for key, (parser, default) in table.items():
        parsed[key] = parser(raw[key], prefix + key, parsed) if key in raw else default
    return parsed


def _number(value, where, parsed=None) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    try:
        out = float(value)
    except OverflowError as exc:  # an integer beyond the float range
        raise ConfigError(f"{where} is an integer too large for a float") from exc
    if not np.isfinite(out):
        raise ConfigError(f"{where} must be finite, got {out}")
    return out


def _positive(value, where, parsed=None) -> float:
    out = _number(value, where)
    if out <= 0.0:
        raise ConfigError(f"{where} must be > 0, got {out}")
    return out


def _positive_or_none(value, where, parsed=None) -> float | None:
    # an explicit null asks for the default, as an absent key does
    return None if value is None else _positive(value, where)


def _int(minimum: int, maximum: float = float("inf")):
    def parse(value, where, parsed=None) -> int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{where} must be an integer, got {value!r}")
        if value < minimum:
            raise ConfigError(f"{where} must be >= {minimum}, got {value}")
        if value > maximum:
            raise ConfigError(f"{where} must be <= {maximum}, got {value}")
        return value

    return parse


def _list_of(item, min_len: int = 1, max_len: float = float("inf")):
    def parse(value, where, parsed=None) -> list:
        if not isinstance(value, list):
            raise ConfigError(f"{where} must be a list, got {type(value).__name__}")
        if not min_len <= len(value) <= max_len:
            size = min_len if min_len == max_len else f">= {min_len}"
            raise ConfigError(f"{where} must have {size} entries, got {len(value)}")
        return [item(v, f"{where}[{i}]") for i, v in enumerate(value)]

    return parse


def _vec3(value, where, parsed=None) -> np.ndarray:
    return np.array(_list_of(_number, 3, 3)(value, where))


def _build(cls, where: str, **kwargs):
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _block(table: dict, cls=dict):
    """Parser of a nested object whose parsed keys are passed to ``cls``."""
    return lambda value, where, parsed=None: _build(
        cls, where, **_parse_block(value, table, where)
    )


def _one_of(*allowed):
    def parse(value, where, parsed=None):
        # types must match too: Python has true == 1 == 1.0, but a JSON true
        # or 1.0 is not schema version 1
        if not any(type(value) is type(a) and value == a for a in allowed):
            raise ConfigError(f"{where} must be one of {list(allowed)}, got {value!r}")
        return value

    return parse


def _dipoles(value, where, parsed) -> DipoleConfig:
    dipole = _block({"position": (_vec3, REQUIRED), "moment": (_vec3, REQUIRED)}, Dipole)
    dipoles = tuple(_list_of(dipole, 0)(value, where))
    return _build(DipoleConfig, where, dipoles=dipoles, units=parsed["units"])


def _charge_paths(value, where, parsed) -> list[ChargePath]:
    # a path carries the config's charge unless it sets its own
    keys = {
        "vertices": (_list_of(_vec3, 2), REQUIRED),
        "charge": (_number, parsed["charge"]),
    }
    return _list_of(_block(keys, ChargePath))(value, where)


_UNIT_KEYS = {k: (_positive, getattr(UnitSystem, k)) for k in ("hbar", "epsilon0", "c")}
_COMMON_KEYS = {
    "schema_version": (_one_of(SCHEMA_VERSION), REQUIRED),
    "units": (_block(_UNIT_KEYS, UnitSystem), UnitSystem()),
    "output_format": (_one_of("json", "csv"), "json"),
    "tolerances": (_block({k: (_positive, v) for k, v in TOLERANCES.items()}), TOLERANCES),
}
_HALF_EXTENT = _int(1, MAX_HALF_EXTENT)
_LATTICE_KEYS = {
    "box_length": (_positive, DEFAULTS["box_length"]),
    "half_extent": (_HALF_EXTENT, DEFAULTS["half_extent"]),
}
_LATTICE = (_block(_LATTICE_KEYS), None)
_SIGMA = (_positive_or_none, None)

# per-subcommand keys on top of _COMMON_KEYS; README's key table lists them
_KEYS = {
    "verify-commutator": {
        "separations": (_list_of(_vec3), REQUIRED),
        "box_length": (_positive, DEFAULTS["box_length"]),
        "half_extents": (_list_of(_HALF_EXTENT), DEFAULTS["half_extents_sweep"]),
        "sigma": _SIGMA,
    },
    "dipole-energy": {
        "dipoles": (_dipoles, REQUIRED),
        "lattice": _LATTICE,
        "sigma": _SIGMA,
    },
    "field-shift": {
        "dipoles": (_dipoles, REQUIRED),
        "field_points": (_list_of(_vec3), REQUIRED),
        "lattice": _LATTICE,
        "sigma": _SIGMA,
    },
    "coulomb-path": {
        "field_points": (_list_of(_vec3), REQUIRED),
        "charge": (_number, DEFAULTS["charge"]),
        "endpoint_factor": (_positive, DEFAULTS["endpoint_factor"]),
        "charge_paths": (_charge_paths, None),
        "path_pairs": (_list_of(_list_of(_int(0), 2, 2), 0), None),
        "exclusion_radius": (_positive_or_none, None),
        "quad_epsrel": (_positive, DEFAULTS["quad_epsrel"]),
    },
    "bch-check": {
        "xi_values": (_list_of(_number), DEFAULTS["bch_xi_values"]),
        "truncation": (_int(2), DEFAULTS["bch_truncation"]),
        "interior": (_int(1), DEFAULTS["bch_interior"]),
        "dim_cap": (_int(2), DEFAULTS["bch_dim_cap"]),
    },
}


def _default_sigma(sigma: float | None, gaps, box_length: float) -> float:
    """The configured sigma, else the smallest of the array ``gaps`` times
    sigma_fraction, else (no gap, as for a lone dipole) box_length /
    sigma_box_divisor."""
    if sigma is not None:
        return sigma
    if np.size(gaps):
        return float(np.min(gaps)) * DEFAULTS["sigma_fraction"]
    return box_length / DEFAULTS["sigma_box_divisor"]


# cross-key rules a table cannot express, one check per subcommand


def _check_verify_commutator(cfg: dict) -> None:
    # the regulated sum only approximates the continuum inside sigma < rho < L
    for i, sep in enumerate(cfg["separations"]):
        rho = float(np.linalg.norm(sep))
        sigma = _default_sigma(cfg["sigma"], [rho], cfg["box_length"])
        if not (0.0 < sigma < rho < cfg["box_length"]):
            raise ConfigError(
                f"separations[{i}]: need sigma < |rho| < box_length, got "
                f"sigma={sigma}, |rho|={rho}, box_length={cfg['box_length']}"
            )


def _check_field_shift(cfg: dict) -> None:
    positions = cfg["dipoles"].positions
    for i, point in enumerate(cfg["field_points"]):
        hits = np.flatnonzero(_norm2(point - positions) == 0.0)
        if hits.size:
            raise ConfigError(f"field_points[{i}] coincides with dipole {hits[0]}")


def _check_coulomb_path(cfg: dict) -> None:
    """Also resolves ``path_pairs`` to the explicit list, all pairs by default."""
    for i, point in enumerate(cfg["field_points"]):
        if float(np.linalg.norm(point)) == 0.0:
            raise ConfigError(f"field_points[{i}] must not be the origin")
    paths, pairs = cfg["charge_paths"], cfg["path_pairs"]
    if paths is None:
        if pairs is not None:
            raise ConfigError("path_pairs requires an explicit charge_paths list")
        return
    if pairs is None:
        pairs = [[a, b] for a in range(len(paths)) for b in range(a + 1, len(paths))]
    for i, (a, b) in enumerate(pairs):
        if a >= len(paths) or b >= len(paths) or a == b:
            raise ConfigError(f"path_pairs[{i}] indices out of range or equal")
        if paths[a].charge != paths[b].charge:
            raise ConfigError(
                f"path pair ({a}, {b}) carries different charges; residuals "
                "are only defined for equal charges"
            )
    cfg["path_pairs"] = pairs


def _check_bch_check(cfg: dict) -> None:
    if cfg["interior"] > cfg["truncation"]:
        interior, truncation = cfg["interior"], cfg["truncation"]
        raise ConfigError(f"interior block {interior} exceeds truncation {truncation}")


def _validator(command: str, check=None):
    """Validator of ``command``'s raw config: its table, then its check."""
    table = {**_COMMON_KEYS, **_KEYS[command]}

    def _validate(raw) -> dict:
        cfg = _parse_block(raw, table, f"{command} config", prefix="")
        if check is not None:
            check(cfg)
        return cfg

    return _validate


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """JSON object hook: a key given twice, at any depth, is a config error."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError(f"config key {key!r} is given more than once")
        obj[key] = value
    return obj


def _load_raw_config(path: str) -> tuple[dict, str]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        raw = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    digest = hashlib.sha256(
        json.dumps(raw, sort_keys=True, separators=(",", ":")).encode("utf-8")
    ).hexdigest()
    return raw, digest


# Each runner below takes the validated config and yields one (label, key,
# outputs, comparisons, gates_exit) tuple per unit of work, ``key`` being the
# input its label rounds; ``main`` turns each tuple into a ResultRecord.


def _label(vec: np.ndarray) -> str:
    return np.array2string(vec, separator=",")


# a reference within this many machine epsilons of its row's scale is the
# rounding residue of an analytic zero, not a value to be relative to
_ZERO_REFERENCE = 16 * np.finfo(float).eps


def _row(name, computed, reference, tol, scale=1.0, *, relative=True) -> Comparison:
    """Row relative to |reference|, or absolute at tol * scale when the
    reference is an analytic zero (a deviation's reference 0.0 always is) or
    ``relative`` is False."""
    computed, reference = float(computed), float(reference)
    if relative and abs(reference) > _ZERO_REFERENCE * scale:
        return Comparison(name, computed, reference, tol)
    return Comparison(name, computed, reference, tol * scale, "absolute")


# ---------------------------------------------------------------------------
# verify-commutator


def _run_verify_commutator(cfg: dict):
    gate_extent = max(cfg["half_extents"])
    tol = cfg["tolerances"]["commutator_rel"]
    for sep in cfg["separations"]:
        rho = float(np.linalg.norm(sep))
        sigma = _default_sigma(cfg["sigma"], [rho], cfg["box_length"])
        reference = analytic_dipole_tensor(sep, cfg["units"]).imag
        dominant = float(np.max(np.abs(reference)))
        for extent in cfg["half_extents"]:
            lattice = build_mode_lattice(cfg["box_length"], extent, cfg["units"])
            computed = commutator_ae_modesum(lattice, sep, np.zeros(3), sigma).imag
            # analytically-zero entries are bounded against the dominant entry
            comparisons = [
                _row(f"entry[{i},{j}]", computed[i, j], reference[i, j], tol, dominant)
                for i in range(3)
                for j in range(3)
            ]
            outputs = {
                "separation": sep,
                "half_extent": extent,
                "sigma": sigma,
                "modesum_imag": computed,
                "closed_form_imag": reference,
                "max_rel_error_nonzero": max(
                    c.rel_error for c in comparisons if c.rel_error is not None
                ),
            }
            label = f"rho={_label(sep)} N={extent}"
            yield label, tuple(sep), outputs, comparisons, extent == gate_extent


# ---------------------------------------------------------------------------
# dipole-energy


def _run_dipole_energy(cfg: dict):
    config = cfg["dipoles"]
    comparisons = []
    if cfg["lattice"] is not None:
        lattice = build_mode_lattice(**cfg["lattice"], units=cfg["units"])
        sigma = _default_sigma(cfg["sigma"], config.separations, lattice.box_length)
        report = transform_report(config, lattice, sigma)
        tol = cfg["tolerances"]["pair_energy_rel"]
        routes = pair_energies_from_commutator(config, lattice, sigma)
        sizes = _norm2(config.moments).tolist()
        unit = 4.0 * np.pi * config.units.epsilon0
        # a pair's scale is |d_q| |d_qp| / (4 pi eps0 |R|^3)
        comparisons = [
            _row(
                f"pair_route[{q},{qp}]",
                routes[(q, qp)],
                report.pair_energies[(q, qp)],
                tol,
                sizes[q] * sizes[qp] / (unit * gap**3),
            )
            for (q, qp), gap in zip(config.pairs.tolist(), config.separations.tolist())
        ]
    else:
        report = pairwise_interaction(config)
    outputs = {"num_dipoles": len(config), "transform_report": report.to_dict()}
    yield f"{len(config)} dipole(s)", None, outputs, comparisons, True


# ---------------------------------------------------------------------------
# field-shift


def _run_field_shift(cfg: dict):
    config = cfg["dipoles"]
    tol = cfg["tolerances"]["field_shift_rel"]
    lattice = None
    sigma = cfg["sigma"]
    if cfg["lattice"] is not None:
        lattice = build_mode_lattice(**cfg["lattice"], units=cfg["units"])
        gaps = _norm2(np.array(cfg["field_points"])[:, None] - config.positions)
        sigma = _default_sigma(sigma, gaps, lattice.box_length)
    for point in cfg["field_points"]:
        closed = field_shift(config, point)
        route = None
        comparisons = []
        if lattice is not None:
            route = field_shift_from_commutator(config, lattice, point, sigma)
            # every component is bounded against the dominant one, so
            # analytically-zero components stay meaningful
            dominant = float(np.max(np.abs(closed)))
            comparisons = [
                _row(f"shift[{axis}]", got, want, tol, dominant, relative=False)
                for axis, (got, want) in enumerate(zip(route, closed))
            ]
        outputs = {
            "point": point,
            "closed_form": closed,
            "commutator_route": route,
            "sigma": sigma,
        }
        yield f"point={_label(point)}", tuple(point), outputs, comparisons, True


# ---------------------------------------------------------------------------
# coulomb-path


def _coulomb_comparisons(
    integral: np.ndarray,
    oracle: np.ndarray,
    minus_coulomb: np.ndarray,
    tolerances: dict,
) -> list[Comparison]:
    scale = float(np.max(np.abs(minus_coulomb)))
    recovery = np.max(np.abs(integral - minus_coulomb))
    quad = np.max(np.abs(integral - oracle))
    return [
        _row("recovery_max_dev", recovery, 0.0, tolerances["coulomb_recovery_rel"], scale),
        _row("quad_vs_endpoint_formula", quad, 0.0, tolerances["path_residual"], scale),
    ]


def _run_coulomb_path(cfg: dict):
    units = cfg["units"]
    tolerances = cfg["tolerances"]
    # path residuals are already normalized by |E_c|, so their scale is 1
    residual_tol = tolerances["path_residual"]
    quad_kwargs = {
        "exclusion_radius": cfg["exclusion_radius"],
        "quad_epsrel": cfg["quad_epsrel"],
    }
    # every integral of a run goes into one batch, one per (path, point) job
    points = cfg["field_points"]
    if cfg["charge_paths"] is None:
        # reference mode: straight and staircase path per field point
        pairs = [
            (
                straight_path(point, cfg["endpoint_factor"], cfg["charge"]),
                staircase_path(point, cfg["endpoint_factor"], cfg["charge"]),
            )
            for point in points
        ]
        jobs = [(path, point) for pair, point in zip(pairs, points) for path in pair]
        values = iter(commutator_line_integrals(jobs, units, **quad_kwargs))
        for (straight, _), point in zip(pairs, points):
            integral, stairs_integral = next(values), next(values)
            oracle = line_integral_endpoint(straight, point, units)
            minus_coulomb = -coulomb_field(point, cfg["charge"], units)
            residual = path_residual(integral, stairs_integral, point, cfg["charge"], units)
            comparisons = [
                *_coulomb_comparisons(integral, oracle, minus_coulomb, tolerances),
                _row("straight_vs_staircase_residual", residual, 0.0, residual_tol),
            ]
            outputs = {
                "point": point,
                "endpoint_factor": cfg["endpoint_factor"],
                "charge": cfg["charge"],
                "straight_integral": integral,
                "staircase_integral": stairs_integral,
                "endpoint_formula": oracle,
                "minus_coulomb_field": minus_coulomb,
            }
            yield f"point={_label(point)}", tuple(point), outputs, comparisons, True
        return

    # explicit-path mode
    paths = cfg["charge_paths"]
    keys = list(np.ndindex(len(paths), len(points)))
    jobs = [(paths[p], points[q]) for p, q in keys]
    integrals = dict(zip(keys, commutator_line_integrals(jobs, units, **quad_kwargs)))
    for (p_idx, pt_idx), integral in integrals.items():
        path, point = paths[p_idx], points[pt_idx]
        oracle = line_integral_endpoint(path, point, units)
        minus_coulomb = -coulomb_field(point, path.charge, units)
        outputs = {
            "path_index": p_idx,
            "point": point,
            "charge": path.charge,
            "integral": integral,
            "endpoint_formula": oracle,
            "minus_coulomb_field": minus_coulomb,
        }
        comparisons = _coulomb_comparisons(integral, oracle, minus_coulomb, tolerances)
        label = f"path={p_idx} point={_label(point)}"
        yield label, tuple(point), outputs, comparisons, True
    for a, b in cfg["path_pairs"]:
        charge = paths[a].charge
        for pt_idx, point in enumerate(points):
            residual = path_residual(
                integrals[(a, pt_idx)], integrals[(b, pt_idx)], point, charge, units
            )
            outputs = {"path_pair": [a, b], "point": point, "residual": residual}
            row = _row("path_independence_residual", residual, 0.0, residual_tol)
            label = f"paths=({a},{b}) point={_label(point)}"
            yield label, tuple(point), outputs, [row], True


# ---------------------------------------------------------------------------
# bch-check


def _run_bch_check(cfg: dict):
    oracle_cfg = FockOracleConfig(
        modes=(0,), truncations=(cfg["truncation"],), dim_cap=cfg["dim_cap"]
    )
    lower = OperatorPolynomial.annihilation(0)
    raise_ = OperatorPolynomial.creation(0)
    position_like = lower + raise_
    generator = raise_ - lower
    tol = cfg["tolerances"]["bch_interior_abs"]
    interior = cfg["interior"]
    # one eigendecomposition of the generator serves every xi
    blocks = fock_adjoint_oracle_scan(
        generator, position_like, oracle_cfg, cfg["xi_values"], interior
    )
    for xi, oracle_block in zip(cfg["xi_values"], blocks):
        exponent = xi * generator
        central = commutator(exponent, position_like)
        closed = adjoint_action(exponent, position_like)
        closed_block = fock_matrix(closed, oracle_cfg)[:interior, :interior]
        deviation = np.abs(closed_block - oracle_block)
        outputs = {
            "xi": xi,
            "truncation": cfg["truncation"],
            "interior": interior,
            "central_commutator": central.scalar_part,
        }
        comparisons = [_row("interior_deviation", np.max(deviation), 0.0, tol)]
        yield f"xi={xi:g}", xi, outputs, comparisons, True


# ---------------------------------------------------------------------------
# driver

_COMMANDS = {
    "verify-commutator": (
        _validator("verify-commutator", _check_verify_commutator),
        _run_verify_commutator,
        "Check the box mode sum of the equal-time commutator of the vector "
        "potential with the electric field against the closed form "
        "i*hbar/(4 pi eps0 |rho|^3) (delta_jl - 3 rhohat_j rhohat_l).",
    ),
    "dipole-energy": (
        _validator("dipole-energy"),
        _run_dipole_energy,
        "Evaluate static dipole-dipole pair energies "
        "(d.d' - 3 (d.Rhat)(d'.Rhat)) / (4 pi eps0 |R|^3), optionally "
        "cross-checked against the mode-sum commutator route, plus the "
        "regularized self energy.",
    ),
    "field-shift": (
        _validator("field-shift", _check_field_shift),
        _run_field_shift,
        "Evaluate the classical dipole field sum_q E_dip(R - R_q, d_q) by "
        "which the electric-field operators of the two pictures differ, "
        "optionally cross-checked against the commutator route.",
    ),
    "coulomb-path": (
        _validator("coulomb-path", _check_coulomb_path),
        _run_coulomb_path,
        "Integrate the line-integral commutator kernel along polyline paths "
        "and verify it recovers minus the Coulomb field q r/(4 pi eps0 |r|^3) "
        "independent of the path interior.",
    ),
    "bch-check": (
        _validator("bch-check", _check_bch_check),
        _run_bch_check,
        "Verify the closed-form conjugation e^X Y e^(-X) = Y + [X, Y] for a "
        "central commutator against a truncated-Fock matrix-exponential "
        "oracle.",
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dipolegauge",
        description=(
            "Verification harness for the dipole gauge-transformation "
            "library: mode-sum commutators, dipole energies, field shifts, "
            "Coulomb-field recovery, and conjugation identities."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, doc) in _COMMANDS.items():
        sub = subparsers.add_parser(name, help=doc, description=doc)
        sub.add_argument("--config", required=True, help="JSON config file")
        sub.add_argument("--out", default=None, help="output file (default stdout)")
        sub.add_argument(
            "--format",
            choices=["csv", "json"],
            default=None,
            help="output format (overrides the config's output_format)",
        )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    validator, runner, _ = _COMMANDS[args.command]
    try:
        raw, digest = _load_raw_config(args.config)
        cfg = validator(raw)
        records, keys = [], {}
        last = time.perf_counter()
        for label, key, outputs, comparisons, gates_exit in runner(cfg):
            # a CSV row is keyed by (record label, comparison): a repeated
            # input prints identical rows, two inputs under one label do not
            if keys.setdefault(label, key) != key:
                raise ConfigError(f"two records would share the label {label!r}")
            now = time.perf_counter()
            records.append(
                ResultRecord(
                    command=args.command,
                    label=label,
                    input_digest=digest,
                    outputs=_jsonify(outputs),
                    comparisons=comparisons,
                    gates_exit=gates_exit,
                    duration_seconds=now - last,
                )
            )
            last = now
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # every library error type is a ValueError
        print(f"validation error: {exc}", file=sys.stderr)
        return 2

    fmt = args.format or cfg["output_format"]
    render = render_json if fmt == "json" else render_csv
    text = render(args.command, records)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"output error: cannot write {args.out}: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)

    gating = [r for r in records if r.gates_exit]
    return 0 if all(r.passed for r in gating) else 1


def entry_point() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
