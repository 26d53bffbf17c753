import csv
import hashlib
import io
import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from dipolegauge import cli
from dipolegauge.cli import (
    DEFAULTS,
    SCHEMA_VERSION,
    TOLERANCES,
    Comparison,
    main,
    render_csv,
)


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def run(tmp_path, command, data, *extra):
    return main([command, "--config", write_config(tmp_path, data), *extra])


def vc_config(**overrides):
    cfg = {
        "schema_version": SCHEMA_VERSION,
        "separations": [[0.0, 0.0, 0.2]],
        "half_extents": [8],
        "sigma": 0.04,
        "tolerances": {"commutator_rel": 0.05},
    }
    cfg.update(overrides)
    return cfg


def bch_config(**overrides):
    cfg = {
        "schema_version": SCHEMA_VERSION,
        "xi_values": [0.3],
        "truncation": 20,
        "interior": 10,
    }
    cfg.update(overrides)
    return cfg


def two_dipoles(sep):
    return [
        {"position": [0.0, 0.0, 0.0], "moment": [1.0, 0.0, 0.0]},
        {"position": list(sep), "moment": [1.0, 0.0, 0.0]},
    ]


def cp_config(**overrides):
    cfg = {
        "schema_version": 1,
        "field_points": [[0, 0, 2.0]],
        "charge_paths": [
            {"vertices": [[0, 0, 0], [0, 0, -100.0]]},
            {"vertices": [[0, 0, 0], [-1.0, 0, -100.0]]},
        ],
    }
    cfg.update(overrides)
    return cfg


def de_config(**overrides):
    cfg = {"schema_version": 1, "dipoles": two_dipoles([0, 0, 0.2])}
    cfg.update(overrides)
    return cfg


# --- validation failures (exit 2) -------------------------------------------


def test_missing_config_file(capsys):
    assert main(["bch-check", "--config", "/nonexistent/nope.json"]) == 2
    assert "config error" in capsys.readouterr().err


def test_invalid_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["bch-check", "--config", str(path)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_config_must_be_object(tmp_path):
    path = tmp_path / "arr.json"
    path.write_text("[1, 2]", encoding="utf-8")
    assert main(["bch-check", "--config", str(path)]) == 2


def test_missing_schema_version(tmp_path, capsys):
    cfg = bch_config()
    del cfg["schema_version"]
    assert run(tmp_path, "bch-check", cfg) == 2
    assert "schema_version" in capsys.readouterr().err


def test_wrong_schema_version(tmp_path):
    assert run(tmp_path, "bch-check", bch_config(schema_version=99)) == 2
    # equal to 1 in Python, but not the integer version 1
    for version in (True, 1.0, "1"):
        assert run(tmp_path, "bch-check", bch_config(schema_version=version)) == 2


def test_unknown_key_rejected(tmp_path, capsys):
    assert run(tmp_path, "bch-check", bch_config(surprise=1)) == 2
    assert "surprise" in capsys.readouterr().err


def test_bad_units(tmp_path):
    assert run(tmp_path, "bch-check", bch_config(units={"hbar": -1.0})) == 2
    assert run(tmp_path, "bch-check", bch_config(units={"planck": 1.0})) == 2


def test_unknown_tolerance_rejected(tmp_path):
    assert run(tmp_path, "bch-check", bch_config(tolerances={"nope": 0.1})) == 2


def test_bad_output_format_value(tmp_path):
    assert run(tmp_path, "bch-check", bch_config(output_format="xml")) == 2


def test_vc_missing_separations(tmp_path):
    cfg = vc_config()
    del cfg["separations"]
    assert run(tmp_path, "verify-commutator", cfg) == 2


def test_vc_empty_separations(tmp_path):
    assert run(tmp_path, "verify-commutator", vc_config(separations=[])) == 2


def test_vc_window_ordering_enforced(tmp_path, capsys):
    # |rho| must sit inside (sigma, box_length)
    assert (
        run(
            tmp_path,
            "verify-commutator",
            vc_config(separations=[[0.0, 0.0, 1.5]]),
        )
        == 2
    )
    assert "box_length" in capsys.readouterr().err
    assert run(tmp_path, "verify-commutator", vc_config(sigma=0.3)) == 2


def test_vc_bad_half_extents(tmp_path):
    assert run(tmp_path, "verify-commutator", vc_config(half_extents=[])) == 2
    assert run(tmp_path, "verify-commutator", vc_config(half_extents=[0])) == 2
    assert run(tmp_path, "verify-commutator", vc_config(half_extents=[2.5])) == 2


def test_de_missing_dipoles(tmp_path):
    assert run(tmp_path, "dipole-energy", {"schema_version": 1}) == 2


def test_de_coincident_dipoles(tmp_path, capsys):
    cfg = {"schema_version": 1, "dipoles": two_dipoles([0.0, 0.0, 0.0])}
    assert run(tmp_path, "dipole-energy", cfg) == 2
    assert "coincide" in capsys.readouterr().err


def test_de_dipole_entry_keys(tmp_path):
    cfg = {
        "schema_version": 1,
        "dipoles": [{"position": [0, 0, 0], "moment": [1, 0, 0], "label": "a"}],
    }
    assert run(tmp_path, "dipole-energy", cfg) == 2
    cfg = {"schema_version": 1, "dipoles": [{"position": [0, 0, 0]}]}
    assert run(tmp_path, "dipole-energy", cfg) == 2


def test_de_bad_sigma(tmp_path):
    cfg = {"schema_version": 1, "dipoles": two_dipoles([0, 0, 0.2]), "sigma": -0.1}
    assert run(tmp_path, "dipole-energy", cfg) == 2


def test_fs_point_on_dipole(tmp_path, capsys):
    cfg = {
        "schema_version": 1,
        "dipoles": two_dipoles([0.0, 0.0, 0.2]),
        "field_points": [[0.0, 0.0, 0.2]],
    }
    assert run(tmp_path, "field-shift", cfg) == 2
    assert "coincides" in capsys.readouterr().err


def test_fs_missing_lists(tmp_path):
    assert run(tmp_path, "field-shift", {"schema_version": 1}) == 2
    cfg = {"schema_version": 1, "dipoles": two_dipoles([0, 0, 0.2])}
    assert run(tmp_path, "field-shift", cfg) == 2


def test_cp_origin_point_rejected(tmp_path):
    cfg = {"schema_version": 1, "field_points": [[0.0, 0.0, 0.0]]}
    assert run(tmp_path, "coulomb-path", cfg) == 2


def test_cp_path_pairs_need_paths(tmp_path):
    cfg = {
        "schema_version": 1,
        "field_points": [[0, 0, 2.0]],
        "path_pairs": [[0, 1]],
    }
    assert run(tmp_path, "coulomb-path", cfg) == 2


def test_cp_pair_indices_validated(tmp_path):
    cfg = {
        "schema_version": 1,
        "field_points": [[0, 0, 2.0]],
        "charge_paths": [
            {"vertices": [[0, 0, 0], [0, 0, -100.0]]},
            {"vertices": [[0, 0, 0], [-1.0, 0, -100.0]]},
        ],
        "path_pairs": [[0, 5]],
    }
    assert run(tmp_path, "coulomb-path", cfg) == 2
    cfg["path_pairs"] = [[1, 1]]
    assert run(tmp_path, "coulomb-path", cfg) == 2


def test_cp_pair_charge_mismatch(tmp_path, capsys):
    cfg = {
        "schema_version": 1,
        "field_points": [[0, 0, 2.0]],
        "charge_paths": [
            {"vertices": [[0, 0, 0], [0, 0, -100.0]], "charge": 1.0},
            {"vertices": [[0, 0, 0], [-1.0, 0, -100.0]], "charge": 2.0},
        ],
        "path_pairs": [[0, 1]],
    }
    assert run(tmp_path, "coulomb-path", cfg) == 2
    assert "charges" in capsys.readouterr().err


@pytest.mark.parametrize("path_pairs", [[[0, 1]], None])
def test_cp_charge_mismatch_rejected_before_quadrature(
    tmp_path, capsys, monkeypatch, path_pairs
):
    # explicit and implied all-pairs alike fail validation, so no path is
    # ever integrated
    def no_quadrature(*args, **kwargs):
        raise AssertionError("quadrature ran before validation finished")

    monkeypatch.setattr("dipolegauge.cli.commutator_line_integrals", no_quadrature)
    cfg = cp_config()
    cfg["charge_paths"][1]["charge"] = 2.0
    if path_pairs is not None:
        cfg["path_pairs"] = path_pairs
    assert run(tmp_path, "coulomb-path", cfg) == 2
    assert "charges" in capsys.readouterr().err


def test_cp_bad_path_vertices(tmp_path, capsys):
    cfg = {
        "schema_version": 1,
        "field_points": [[0, 0, 2.0]],
        "charge_paths": [{"vertices": [[1.0, 0, 0], [0, 0, -100.0]]}],
    }
    assert run(tmp_path, "coulomb-path", cfg) == 2
    assert "origin" in capsys.readouterr().err


def test_cp_path_through_point(tmp_path, capsys):
    # clean at validation time, singular at run time
    cfg = {
        "schema_version": 1,
        "field_points": [[0, 0, 2.0]],
        "charge_paths": [{"vertices": [[0, 0, 0], [0, 0, 4.0]]}],
    }
    assert run(tmp_path, "coulomb-path", cfg) == 2
    assert "validation error" in capsys.readouterr().err


def test_bch_interior_exceeds_truncation(tmp_path):
    assert run(tmp_path, "bch-check", bch_config(interior=30)) == 2


def test_bch_dim_cap_enforced(tmp_path, capsys):
    assert run(tmp_path, "bch-check", bch_config(truncation=5000, interior=10)) == 2
    assert "validation error" in capsys.readouterr().err


def test_bch_check_decomposes_the_generator_once(tmp_path, capsys, monkeypatch):
    # every xi is a scale of one generator, so one eigh serves the whole run
    calls = []
    eigh = np.linalg.eigh

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    cfg = bch_config(xi_values=[0.229, 0.46, 0.947], truncation=400, interior=20)
    assert run(tmp_path, "bch-check", cfg, "--format", "csv") == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 3 and all(row.endswith(",true") for row in rows)
    assert calls == [(400, 400)]


def test_bch_bad_xi(tmp_path):
    assert run(tmp_path, "bch-check", bch_config(xi_values=["big"])) == 2
    assert run(tmp_path, "bch-check", bch_config(xi_values=[])) == 2


@pytest.mark.parametrize(
    "command, cfg, label",
    [
        ("bch-check", bch_config(xi_values=[0.1, 0.1000001]), "xi=0.1"),
        (
            "verify-commutator",
            vc_config(separations=[[0.0, 0.0, 0.2], [0.0, 0.0, 0.2000000001]]),
            "rho=[0. ,0. ,0.2] N=8",
        ),
    ],
)
def test_records_sharing_a_label_are_rejected(tmp_path, capsys, command, cfg, label):
    # CSV rows are keyed by (record label, comparison), so two inputs that
    # print as one label would give rows that no reader can tell apart
    assert run(tmp_path, command, cfg) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"config error: two records would share the label {label!r}\n"


@pytest.mark.parametrize(
    "command, cfg",
    [
        ("bch-check", bch_config(xi_values=[0.1, 0.1])),
        ("verify-commutator", vc_config(half_extents=[8, 8])),
    ],
)
def test_repeated_inputs_print_identical_rows(tmp_path, capsys, command, cfg):
    # an exact repeat loses nothing when rows are keyed by label, so it runs
    assert run(tmp_path, command, cfg, "--format", "csv") == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    half = len(rows) // 2
    assert half > 0 and rows[:half] == rows[half:]


@pytest.mark.parametrize(
    "command, cfg, needles",
    [
        ("dipole-energy", de_config(lattice=5), ["lattice"]),
        ("dipole-energy", de_config(lattice={"foo": 1}), ["foo", "lattice"]),
        ("field-shift", de_config(lattice={"half_extent": 0}, field_points=[[0, 0, 1.0]]),
         ["lattice.half_extent"]),
        ("bch-check", bch_config(units=3), ["units"]),
        ("bch-check", bch_config(tolerances={"bch_interior_abs": 0.0}),
         ["tolerances.bch_interior_abs"]),
        ("verify-commutator", vc_config(tolerances={"commutator_rel": -0.1}),
         ["tolerances.commutator_rel"]),
        ("coulomb-path", cp_config(charge_paths=[]), ["charge_paths"]),
        ("coulomb-path", cp_config(charge_paths=[{"vertices": [[0, 0, 0]]}]),
         ["charge_paths[0].vertices"]),
        ("coulomb-path", cp_config(path_pairs=[[0]]), ["path_pairs[0]"]),
        ("coulomb-path", cp_config(path_pairs=[5]), ["path_pairs[0]"]),
        ("coulomb-path", cp_config(quad_epsrel=0.0), ["quad_epsrel"]),
        ("coulomb-path", cp_config(exclusion_radius=0.0), ["exclusion_radius"]),
        ("coulomb-path", cp_config(exclusion_radius=-1.0), ["exclusion_radius"]),
        ("bch-check", bch_config(dim_cap=2.5), ["dim_cap"]),
        ("coulomb-path", cp_config(field_points=[]), ["field_points"]),
        ("field-shift", de_config(field_points=[]), ["field_points"]),
    ],
)
def test_malformed_config_names_key_path(tmp_path, capsys, command, cfg, needles):
    assert run(tmp_path, command, cfg) == 2
    err = capsys.readouterr().err
    for needle in needles:
        assert needle in err


@pytest.mark.parametrize(
    "command, cfg, key",
    [
        ("verify-commutator", vc_config(sigma=10**400), "sigma"),
        ("verify-commutator", vc_config(separations=[[0.0, 10**400, 0.2]]),
         "separations[0][1]"),
        ("bch-check", bch_config(units={"hbar": 10**400}), "units.hbar"),
    ],
    ids=["sigma", "separation", "hbar"],
)
def test_integer_beyond_float_range_is_a_config_error(tmp_path, capsys, command, cfg, key):
    # JSON integers are unbounded; float() of a 400-digit one overflows
    assert run(tmp_path, command, cfg) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and key in err


@pytest.mark.parametrize(
    "command, cfg, key",
    [
        ("verify-commutator", vc_config(half_extents=[10**29]), "half_extents[0]"),
        ("verify-commutator", vc_config(half_extents=[8, 1000000]), "half_extents[1]"),
        ("dipole-energy", de_config(lattice={"half_extent": 100000}),
         "lattice.half_extent"),
        ("field-shift", de_config(lattice={"half_extent": 10**400},
                                  field_points=[[0, 0, 0.4]]), "lattice.half_extent"),
    ],
    ids=["int64-overflow", "second-entry", "dipole-energy", "field-shift"],
)
def test_impossible_lattice_is_a_config_error(tmp_path, capsys, command, cfg, key):
    # the cap is checked while the config is parsed, before any mode sum runs
    assert run(tmp_path, command, cfg) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and key in err


def test_half_extent_cap_is_inclusive():
    validate = cli._COMMANDS["verify-commutator"][0]
    largest = cli.MAX_HALF_EXTENT
    assert validate(vc_config(half_extents=[48, largest]))["half_extents"] == [48, largest]
    with pytest.raises(cli.ConfigError, match=r"half_extents\[0\] must be <= "):
        validate(vc_config(half_extents=[largest + 1]))


@pytest.mark.parametrize(
    "command, cfg",
    [
        ("verify-commutator", vc_config(sigma=None)),
        ("dipole-energy", de_config(lattice={"half_extent": 6}, sigma=None)),
        ("field-shift", de_config(lattice={"half_extent": 6}, sigma=None,
                                  field_points=[[0, 0, 0.4]])),
        ("coulomb-path", cp_config(exclusion_radius=None)),
    ],
)
def test_null_means_default(tmp_path, command, cfg):
    # an explicit null takes the default, it is not a validation error
    assert run(tmp_path, command, cfg) in (0, 1)


def test_unknown_command_exits_via_argparse(tmp_path):
    with pytest.raises(SystemExit):
        main(["frobnicate", "--config", "x.json"])
    with pytest.raises(SystemExit):
        main(["bch-check"])  # --config is required


def test_entry_point_exits_with_main_code(tmp_path, monkeypatch, capsys):
    # the console script reads sys.argv and exits with main's return code
    good = write_config(tmp_path, {"schema_version": SCHEMA_VERSION})
    for path, code in ((good, 0), (str(tmp_path / "missing.json"), 2)):
        argv = ["bch-check", "--config", path]
        assert main(argv) == code
        monkeypatch.setattr(sys, "argv", ["dipolegauge", *argv])
        with pytest.raises(SystemExit) as exit_info:
            cli.entry_point()
        assert exit_info.value.code == code


# --- exit 1 on tolerance failure --------------------------------------------


def test_tolerance_failure_exits_one(tmp_path, capsys):
    cfg = bch_config(tolerances={"bch_interior_abs": 1e-30})
    assert run(tmp_path, "bch-check", cfg) == 1
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert doc["records"][0]["passed"] is False


def test_non_gating_failure_keeps_exit_zero(tmp_path, capsys):
    cfg = vc_config(half_extents=[2, 8])
    assert run(tmp_path, "verify-commutator", cfg) == 0
    doc = json.loads(capsys.readouterr().out)
    by_extent = {r["outputs"]["half_extent"]: r for r in doc["records"]}
    assert by_extent[2]["passed"] is False
    assert by_extent[2]["gates_exit"] is False
    assert by_extent[8]["passed"] is True
    assert by_extent[8]["gates_exit"] is True


# --- happy paths ------------------------------------------------------------


def test_verify_commutator_json_output(tmp_path):
    out = tmp_path / "result.json"
    code = run(tmp_path, "verify-commutator", vc_config(), "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["schema_version"] == SCHEMA_VERSION
    assert doc["command"] == "verify-commutator"
    (record,) = doc["records"]
    assert len(record["comparisons"]) == 9
    assert record["outputs"]["sigma"] == 0.04
    assert len(record["input_digest"]) == 64
    int(record["input_digest"], 16)
    modesum = np.array(record["outputs"]["modesum_imag"])
    closed = np.array(record["outputs"]["closed_form_imag"])
    assert modesum.shape == (3, 3) and closed.shape == (3, 3)
    assert closed[2, 2] < 0 < closed[0, 0]
    assert record["outputs"]["max_rel_error_nonzero"] < 0.05
    # analytically-zero entries are absolute rows, the rest relative
    kinds = {c["name"]: c["kind"] for c in record["comparisons"]}
    assert kinds["entry[0,1]"] == "absolute"
    assert kinds["entry[0,0]"] == "relative"


def test_vc_default_sigma_is_rho_fraction(tmp_path, capsys):
    cfg = vc_config()
    del cfg["sigma"]
    cfg["tolerances"] = {"commutator_rel": 0.5}
    assert run(tmp_path, "verify-commutator", cfg) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["records"][0]["outputs"]["sigma"] == pytest.approx(
        0.2 * DEFAULTS["sigma_fraction"]
    )


def test_dipole_energy_closed_form_only(tmp_path, capsys):
    cfg = {"schema_version": 1, "dipoles": two_dipoles([0.0, 0.0, 1.0])}
    assert run(tmp_path, "dipole-energy", cfg) == 0
    doc = json.loads(capsys.readouterr().out)
    (record,) = doc["records"]
    assert record["comparisons"] == []
    report = record["outputs"]["transform_report"]
    assert report["self_energy"] is None
    assert report["pair_energies"]["1,0"] == pytest.approx(1 / (4 * np.pi))
    assert report["total_interaction"] == pytest.approx(1 / (4 * np.pi))


def test_dipole_energy_with_lattice_route(tmp_path, capsys):
    cfg = {
        "schema_version": 1,
        "dipoles": two_dipoles([0.0, 0.0, 0.2]),
        "lattice": {"half_extent": 12},
        "sigma": 0.04,
    }
    assert run(tmp_path, "dipole-energy", cfg) == 0
    doc = json.loads(capsys.readouterr().out)
    (record,) = doc["records"]
    (comp,) = record["comparisons"]
    assert comp["name"] == "pair_route[1,0]"
    assert comp["kind"] == "relative"
    assert comp["passed"] is True
    assert record["outputs"]["transform_report"]["self_energy"] < 0.0


def test_dipole_energy_uses_batched_pair_route(tmp_path, capsys, monkeypatch):
    # the per-pair route, the mode-sum kernel and the projector stack are all
    # forbidden; the rows must still match the per-pair route as an oracle
    from dipolegauge import (
        Dipole,
        DipoleConfig,
        build_mode_lattice,
        epsilon_dip_from_commutator,
        field_modes,
        gauge_dipole,
        pairwise_interaction,
    )

    entries = [
        ([0.0, 0.0, 0.0], [1.0, 0.0, 0.2]),
        ([0.0, 0.0, 0.2], [0.3, 1.0, 0.5]),
        ([0.2, 0.0, 0.0], [0.4, 0.2, 1.0]),
        ([0.15, 0.2, -0.1], [1.0, -1.0, 0.3]),
    ]
    sigma, tol = 0.03, 0.1
    config = DipoleConfig(dipoles=tuple(Dipole(*entry) for entry in entries))
    lattice = build_mode_lattice(1.0, 12)
    closed = pairwise_interaction(config).pair_energies
    expected = [
        Comparison(
            name=f"pair_route[{q},{qp}]",
            computed=epsilon_dip_from_commutator(q, qp, config, lattice, sigma),
            reference=value,
            tolerance=tol,
        )
        for (q, qp), value in closed.items()
    ]
    assert len({row.passed for row in expected}) == 2

    def forbidden(*args, **kwargs):
        raise AssertionError("per-pair mode sum called")

    for module in (field_modes, gauge_dipole, cli):
        for name in (
            "commutator_ae_modesum",
            "transverse_projectors",
            "epsilon_dip_from_commutator",
        ):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    with pytest.raises(AssertionError, match="per-pair"):
        epsilon_dip_from_commutator(1, 0, config, lattice, sigma)

    cfg = {
        "schema_version": 1,
        "dipoles": [{"position": pos, "moment": mom} for pos, mom in entries],
        "lattice": {"half_extent": 12},
        "sigma": sigma,
        "tolerances": {"pair_energy_rel": tol},
    }
    code = run(tmp_path, "dipole-energy", cfg)
    assert code == (0 if all(row.passed for row in expected) else 1)
    (record,) = json.loads(capsys.readouterr().out)["records"]
    rows = record["comparisons"]
    assert [row["name"] for row in rows] == [row.name for row in expected]
    for row, want in zip(rows, expected):
        assert row["reference"] == want.reference
        assert row["passed"] is want.passed
        assert abs(row["computed"] - want.computed) <= 1e-10 * tol * abs(want.reference)


@pytest.mark.parametrize(
    "command, cfg",
    [
        ("verify-commutator", vc_config(half_extents=[4, 8])),
        (
            "dipole-energy",
            {
                "schema_version": 1,
                "dipoles": two_dipoles([0.0, 0.0, 0.2]),
                "lattice": {"half_extent": 8},
                "sigma": 0.04,
            },
        ),
        (
            "field-shift",
            {
                "schema_version": 1,
                "dipoles": two_dipoles([0.15, 0.0, 0.0]),
                "field_points": [[0.0, 0.0, 0.2]],
                "lattice": {"half_extent": 8},
                "sigma": 0.04,
            },
        ),
    ],
)
def test_lattice_subcommands_never_build_mode_arrays(
    tmp_path, capsys, monkeypatch, command, cfg
):
    # every mode sum of these subcommands reads the per-axis wavenumbers
    from dipolegauge import ModeLattice

    def forbidden(self):
        raise AssertionError("mode array built")

    for name in ("kvecs", "knorm"):
        monkeypatch.setattr(ModeLattice, name, property(forbidden))
    assert run(tmp_path, command, cfg) in (0, 1)
    records = json.loads(capsys.readouterr().out)["records"]
    assert records and all(record["comparisons"] for record in records)


def test_field_shift_closed_form_only(tmp_path, capsys):
    cfg = {
        "schema_version": 1,
        "dipoles": two_dipoles([0.0, 0.0, 0.2]),
        "field_points": [[0.0, 0.0, 0.4], [0.3, 0.0, 0.0]],
    }
    assert run(tmp_path, "field-shift", cfg) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["records"]) == 2
    for record in doc["records"]:
        assert record["comparisons"] == []
        assert record["outputs"]["commutator_route"] is None
        assert len(record["outputs"]["closed_form"]) == 3


def test_field_shift_with_lattice_route(tmp_path, capsys):
    cfg = {
        "schema_version": 1,
        "dipoles": [
            {"position": [0.0, 0.0, 0.0], "moment": [1.0, 0.0, 0.0]},
            {"position": [0.15, 0.0, 0.0], "moment": [0.0, 0.0, 1.0]},
        ],
        "field_points": [[0.0, 0.0, 0.2]],
        "lattice": {"half_extent": 8},
        "sigma": 0.04,
        "tolerances": {"field_shift_rel": 0.05},
    }
    assert run(tmp_path, "field-shift", cfg) == 0
    doc = json.loads(capsys.readouterr().out)
    (record,) = doc["records"]
    names = [c["name"] for c in record["comparisons"]]
    assert names == ["shift[0]", "shift[1]", "shift[2]"]
    # gated against the dominant component, so no rel_error of their own
    rows = record["comparisons"]
    assert all(c["kind"] == "absolute" and c["rel_error"] is None for c in rows)
    assert record["passed"] is True


def test_field_shift_no_dipoles_with_lattice(tmp_path, capsys):
    # no dipole, no shift: both routes give zeros, as three passing rows
    cfg = {
        "schema_version": 1,
        "dipoles": [],
        "field_points": [[0.0, 0.0, 0.2]],
        "lattice": {"half_extent": 4},
    }
    assert run(tmp_path, "field-shift", cfg) == 0
    (record,) = json.loads(capsys.readouterr().out)["records"]
    assert record["outputs"]["commutator_route"] == [0.0, 0.0, 0.0]
    rows = record["comparisons"]
    assert [c["name"] for c in rows] == ["shift[0]", "shift[1]", "shift[2]"]
    assert all(c["computed"] == c["reference"] == 0.0 and c["passed"] for c in rows)


def test_coulomb_path_reference_mode(tmp_path, capsys):
    cfg = {
        "schema_version": 1,
        "field_points": [[0.6, -0.8, 1.2]],
        "endpoint_factor": 50.0,
    }
    assert run(tmp_path, "coulomb-path", cfg) == 0
    doc = json.loads(capsys.readouterr().out)
    (record,) = doc["records"]
    names = [c["name"] for c in record["comparisons"]]
    assert names == [
        "recovery_max_dev",
        "quad_vs_endpoint_formula",
        "straight_vs_staircase_residual",
    ]
    assert record["passed"] is True
    assert record["outputs"]["charge"] == DEFAULTS["charge"]


def test_coulomb_path_explicit_paths(tmp_path, capsys):
    cfg = {
        "schema_version": 1,
        "field_points": [[0.6, -0.8, 1.2]],
        "charge_paths": [
            {"vertices": [[0, 0, 0], [-30.0, 40.0, -60.0]]},
            {"vertices": [[0, 0, 0], [-30.0, 0.0, 0.0], [-30.0, 40.0, -60.0]]},
        ],
    }
    assert run(tmp_path, "coulomb-path", cfg) == 0
    doc = json.loads(capsys.readouterr().out)
    labels = [r["label"] for r in doc["records"]]
    assert len(labels) == 3  # two path records plus the implied (0, 1) pair
    pair_record = doc["records"][-1]
    assert pair_record["outputs"]["path_pair"] == [0, 1]
    assert pair_record["outputs"]["residual"] < 1e-6


def test_bch_check_outputs(tmp_path, capsys):
    assert run(tmp_path, "bch-check", bch_config()) == 0
    doc = json.loads(capsys.readouterr().out)
    (record,) = doc["records"]
    assert record["label"] == "xi=0.3"
    central = record["outputs"]["central_commutator"]
    assert central["real"] == pytest.approx(-0.6)
    assert central["imag"] == 0.0
    (comp,) = record["comparisons"]
    assert comp["computed"] < TOLERANCES["bch_interior_abs"]


# --- output formats and plumbing --------------------------------------------


def test_format_flag_overrides_config(tmp_path, capsys):
    cfg = bch_config(output_format="csv")
    assert run(tmp_path, "bch-check", cfg) == 0
    assert capsys.readouterr().out.startswith("command,record,comparison,")
    assert run(tmp_path, "bch-check", cfg, "--format", "json") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["command"] == "bch-check"


def test_csv_shape_and_numbers(tmp_path, capsys):
    assert run(tmp_path, "bch-check", bch_config(), "--format", "csv") == 0
    text = capsys.readouterr().out
    assert "\r" not in text
    lines = text.splitlines()
    assert lines[0] == (
        "command,record,comparison,kind,computed,reference,abs_error,"
        "rel_error,tolerance,passed"
    )
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert fields[0] == "bch-check"
    assert fields[3] == "absolute"
    float(fields[4])  # 17g numbers round-trip through float()
    assert fields[7] == ""  # rel_error blank when the reference is zero
    assert fields[9] == "true"


def test_out_file_uses_lf_endings(tmp_path):
    out = tmp_path / "rows.csv"
    code = run(tmp_path, "bch-check", bch_config(), "--format", "csv", "--out", str(out))
    assert code == 0
    raw = out.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")


def test_out_file_suppresses_stdout(tmp_path, capsys):
    out = tmp_path / "result.json"
    run(tmp_path, "bch-check", bch_config(), "--out", str(out))
    assert capsys.readouterr().out == ""
    assert out.exists()


def test_digest_tracks_config_content(tmp_path, capsys):
    cfg = bch_config()
    run(tmp_path, "bch-check", cfg)
    first = json.loads(capsys.readouterr().out)["records"][0]["input_digest"]
    # same content, different file name: same digest
    code = main(
        ["bch-check", "--config", write_config(tmp_path, cfg, name="other.json")]
    )
    assert code == 0
    second = json.loads(capsys.readouterr().out)["records"][0]["input_digest"]
    assert first == second
    run(tmp_path, "bch-check", bch_config(xi_values=[0.4]))
    third = json.loads(capsys.readouterr().out)["records"][0]["input_digest"]
    assert third != first


@pytest.mark.parametrize(
    "command, cfg, count",
    [
        (
            "verify-commutator",
            vc_config(separations=[[0.0, 0.0, 0.2], [0.1, 0.1, 0.1]], half_extents=[6, 8]),
            4,
        ),
        ("coulomb-path", cp_config(path_pairs=[[0, 1]]), 3),
    ],
)
def test_every_record_carries_the_run_contract(tmp_path, capsys, command, cfg, count):
    # main alone stamps each record with the command, the config digest and
    # its wall time; the runners only supply the rows
    run(tmp_path, command, cfg)
    records = json.loads(capsys.readouterr().out)["records"]
    assert len(records) == count
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    for record in records:
        assert record["command"] == command
        assert record["input_digest"] == digest
        assert math.isfinite(record["duration_seconds"])
        assert record["duration_seconds"] >= 0.0
        if command == "verify-commutator":
            rows = [c for c in record["comparisons"] if c["kind"] == "relative"]
            worst = max(c["rel_error"] for c in rows)
            assert record["outputs"]["max_rel_error_nonzero"] == worst


GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "cli_golden.json").read_text(encoding="utf-8")
)


@pytest.mark.parametrize(
    "case", GOLDEN, ids=[f"{i}-{case['command']}" for i, case in enumerate(GOLDEN)]
)
def test_csv_matches_golden(tmp_path, case):
    r"""CSV and exit code of stored configs stay those of the stored run.

    Labels, names, kinds, ``passed`` and the exit code must match exactly;
    every number within 1e-9 of its row's gate (tol * |reference| for relative
    rows, tol for absolute rows). That holds across BLAS builds for every row
    but bch-check's: its allowance, 1e-9 * 1e-8 = 1e-17, is below the rounding
    of the O(1) Fock matrix entries whose difference ``interior_deviation``
    reports, so another BLAS build, or any change in the order of the oracle's
    arithmetic, moves that row and it must be re-pinned. The file was written
    from the repository root with

        PYTHONPATH=src python - <<'EOF'
        import json, pathlib, tempfile
        from dipolegauge.cli import main
        path = pathlib.Path("tests/data/cli_golden.json")
        cases = json.loads(path.read_text(encoding="utf-8"))
        with tempfile.TemporaryDirectory() as tmp:
            cfg, out = pathlib.Path(tmp, "config.json"), pathlib.Path(tmp, "rows.csv")
            for case in cases:
                cfg.write_text(json.dumps(case["config"]), encoding="utf-8")
                argv = ["--config", str(cfg), "--format", "csv", "--out", str(out)]
                case["exit_code"] = main([case["command"], *argv])
                case["csv"] = out.read_text(encoding="utf-8")
        path.write_text(json.dumps(cases, indent=2) + "\n", encoding="utf-8")
        EOF
    """
    out = tmp_path / "rows.csv"
    argv = ["--format", "csv", "--out", str(out)]
    assert run(tmp_path, case["command"], case["config"], *argv) == case["exit_code"]
    want = list(csv.DictReader(io.StringIO(case["csv"])))
    got = list(csv.DictReader(io.StringIO(out.read_text(encoding="utf-8"))))
    assert len(got) == len(want)
    for new, old in zip(got, want):
        for key in ("command", "record", "comparison", "kind", "passed"):
            assert new[key] == old[key], (old["record"], old["comparison"], key)
        assert (new["rel_error"] == "") == (old["rel_error"] == "")
        reference = abs(float(old["reference"]))
        per_tol = reference if old["kind"] == "relative" else 1.0
        gate = float(old["tolerance"]) * per_tol
        # each number's change, in units of the deviation or gate it moves
        scale = {"rel_error": reference, "tolerance": per_tol}
        for key in ("computed", "reference", "abs_error", "rel_error", "tolerance"):
            if old[key]:
                moved = abs(float(new[key]) - float(old[key])) * scale.get(key, 1.0)
                assert moved <= 1e-9 * gate, (old["record"], old["comparison"], key)


# how each row's scale moves when the units are rescaled by SCALED_UNITS: the
# A-E tensor carries hbar / eps0, energies and fields 1 / eps0; the path
# residuals are normalized by |E_c| and bch-check has no units
SCALED_UNITS = {"hbar": 3.7, "epsilon0": 0.013, "c": 11.0}
ROW_SCALE_FACTOR = {
    "entry": 3.7 / 0.013,
    "pair_route": 1.0 / 0.013,
    "shift": 1.0 / 0.013,
    "recovery_max_dev": 1.0 / 0.013,
    "quad_vs_endpoint_formula": 1.0 / 0.013,
    "straight_vs_staircase_residual": 1.0,
    "path_independence_residual": 1.0,
    "interior_deviation": 1.0,
}


@pytest.mark.parametrize(
    "case", GOLDEN, ids=[f"{i}-{case['command']}" for i, case in enumerate(GOLDEN)]
)
def test_gates_are_unit_covariant(tmp_path, case):
    # no absolute threshold decides the physics: in other units every golden
    # config keeps its exit code and each row its kind and verdict, while an
    # absolute row's gate moves with its scale and a relative row's not at all
    out = tmp_path / "rows.csv"
    cfg = {**case["config"], "units": SCALED_UNITS}
    argv = ["--format", "csv", "--out", str(out)]
    assert run(tmp_path, case["command"], cfg, *argv) == case["exit_code"]
    want = list(csv.DictReader(io.StringIO(case["csv"])))
    got = list(csv.DictReader(io.StringIO(out.read_text(encoding="utf-8"))))
    keys = ("record", "comparison", "kind", "passed")
    assert [[r[k] for k in keys] for r in got] == [[r[k] for k in keys] for r in want]
    for new, old in zip(got, want):
        factor = 1.0
        if old["kind"] == "absolute":
            factor = ROW_SCALE_FACTOR[old["comparison"].split("[")[0]]
        expected = float(old["tolerance"]) * factor
        assert float(new["tolerance"]) == pytest.approx(expected, rel=1e-12)


def test_unwritable_out_path_is_an_output_error(tmp_path, capsys):
    # a directory, or a file in a missing directory, exits 2 with one line
    # on stderr; exit 1 is kept for tolerance failures
    assert run(tmp_path, "bch-check", bch_config()) == 0
    capsys.readouterr()
    for out in (tmp_path, tmp_path / "missing" / "x.csv"):
        assert run(tmp_path, "bch-check", bch_config(), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"output error: cannot write {out}: ")
        assert err.count("\n") == 1


def test_comparison_semantics():
    rel = Comparison(name="x", computed=1.01, reference=1.0, tolerance=0.02)
    assert rel.passed and rel.rel_error == pytest.approx(0.01)
    rel_fail = Comparison(name="x", computed=1.5, reference=1.0, tolerance=0.02)
    assert not rel_fail.passed
    abs_zero = Comparison(
        name="z", computed=1e-9, reference=0.0, tolerance=1e-8, kind="absolute"
    )
    assert abs_zero.passed and abs_zero.rel_error is None
    # an absolute row has no rel_error, whatever its reference
    abs_nonzero = Comparison("a", 1.5, 1.0, 0.6, kind="absolute")
    assert abs_nonzero.passed and abs_nonzero.rel_error is None

    # _row: a reference up to 16 eps * scale is an analytic zero, gated
    # absolutely at tol * scale; the next float above it is relative
    tol, scale = 0.02, 3.0
    edge = cli._ZERO_REFERENCE * scale
    at_edge = cli._row("edge", 0.0, edge, tol, scale)
    above = cli._row("above", 0.0, np.nextafter(edge, np.inf), tol, scale)
    assert at_edge.kind == "absolute" and above.kind == "relative"
    # a zero scale (field-shift with a lattice and no dipoles) gates at zero
    empty = cli._row("empty", 0.0, 0.0, tol, 0.0)
    assert empty.kind == "absolute" and empty.passed
    assert not cli._row("empty", 1e-300, 0.0, tol, 0.0).passed
    # relative=False gates even a large reference absolutely
    forced = cli._row("forced", 1.5, 1.0, tol, 40.0, relative=False)
    assert forced.kind == "absolute" and forced.passed and forced.rel_error is None
    # the tolerance column holds tol on relative rows, tol * scale on absolute
    record = cli.ResultRecord("x", "r", "", {}, [at_edge, above, empty, forced])
    rows = csv.DictReader(io.StringIO(render_csv("x", [record])))
    assert [float(row["tolerance"]) for row in rows] == [tol * scale, tol, 0.0, tol * 40.0]


# a reference at rounding level of its row's scale is an analytic zero and is
# gated absolutely, at tol times that scale, however it happens to round
def test_vc_rounded_zero_entry_is_absolute(tmp_path, capsys):
    # on the body diagonal the diagonal entries vanish analytically; at 0.075
    # they round to about -8e-15 and at 0.07 to exactly 0
    cfg = vc_config(separations=[[0.075] * 3, [0.07] * 3], half_extents=[24])
    del cfg["sigma"], cfg["tolerances"]
    assert run(tmp_path, "verify-commutator", cfg) == 0
    diagonals = []
    for record in json.loads(capsys.readouterr().out)["records"]:
        rows = {row["name"]: row for row in record["comparisons"]}
        dominant = max(abs(row["reference"]) for row in rows.values())
        for i in range(3):
            diagonal = rows[f"entry[{i},{i}]"]
            diagonals.append(diagonal["reference"])
            assert abs(diagonal["reference"]) < 1e-14 * dominant
            assert diagonal["kind"] == "absolute"
            assert diagonal["tolerance"] == TOLERANCES["commutator_rel"] * dominant
            assert rows[f"entry[{i},{(i + 1) % 3}]"]["kind"] == "relative"
    assert any(diagonals) and not all(diagonals)


def test_de_zero_pair_energy_is_absolute(tmp_path, capsys):
    cfg = {
        "schema_version": 1,
        "dipoles": [
            {"position": [0.0, 0.0, 0.0], "moment": [1.0, 0.0, 0.0]},
            {"position": [0.0, 0.0, 0.2], "moment": [0.0, 1.0, 0.0]},
        ],
        "lattice": {"half_extent": 24},
        "sigma": 0.03,
    }
    assert run(tmp_path, "dipole-energy", cfg) == 0
    (record,) = json.loads(capsys.readouterr().out)["records"]
    (row,) = record["comparisons"]
    assert row["reference"] == 0.0 and row["computed"] != 0.0
    assert row["kind"] == "absolute"
    scale = 1.0 / (4.0 * math.pi * 0.2**3)
    assert row["tolerance"] == pytest.approx(TOLERANCES["pair_energy_rel"] * scale)


def test_rel_error_is_blank_on_absolute_rows(tmp_path, capsys):
    # an absolute row is gated against tol * scale, so abs_error / |reference|
    # says nothing about it: a rounded-zero diagonal entry (reference about
    # -8e-15) printed a rel_error of 6e13
    cfg = {"schema_version": 1, "separations": [[0.075] * 3], "half_extents": [24]}
    assert run(tmp_path, "verify-commutator", cfg, "--format", "csv") == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert any(r["kind"] == "absolute" and float(r["reference"]) for r in rows)
    assert all((r["rel_error"] == "") == (r["kind"] == "absolute") for r in rows)
    assert run(tmp_path, "verify-commutator", cfg, "--format", "json") == 0
    (record,) = json.loads(capsys.readouterr().out)["records"]
    for row in record["comparisons"]:
        assert (row["rel_error"] is None) == (row["kind"] == "absolute")


@pytest.mark.parametrize(
    "command, text, key",
    [
        (
            "bch-check",
            '{"schema_version": 1, "xi_values": [0.1], "xi_values": [0.5]}',
            "xi_values",
        ),
        (
            "bch-check",
            '{"schema_version": 1, "units": {"hbar": 1.0, "hbar": 2.0}}',
            "hbar",
        ),
        (
            "dipole-energy",
            '{"schema_version": 1, "dipoles": [{"position": [0, 0, 0], '
            '"moment": [1, 0, 0], "moment": [0, 1, 0]}]}',
            "moment",
        ),
    ],
    ids=["top-level", "units", "dipole"],
)
def test_repeated_key_is_rejected(tmp_path, capsys, command, text, key):
    path = tmp_path / "config.json"
    path.write_text(text, encoding="utf-8")
    assert main([command, "--config", str(path)]) == 2
    assert repr(key) in capsys.readouterr().err


def test_readme_key_table_lists_each_schema_table():
    # the README's Required/Optional table documents the schema tables, so
    # the tables stay the single source of the config keys
    readme = Path(__file__).resolve().parents[1] / "README.md"
    rows = {}
    for line in readme.read_text(encoding="utf-8").splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 3 and cells[0].strip("`") in cli._KEYS:
            rows[cells[0].strip("`")] = [set(re.findall(r"`(\w+)`", c)) for c in cells[1:]]
    assert rows.keys() == cli._KEYS.keys()
    for command, keys in cli._KEYS.items():
        required = {k for k, (_, default) in keys.items() if default is cli.REQUIRED}
        assert rows[command] == [required, set(keys) - required], command
