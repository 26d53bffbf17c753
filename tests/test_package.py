import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dipolegauge

REPO = Path(__file__).resolve().parents[1]
LIBRARY_MODULES = [
    "field_modes",
    "operator_algebra",
    "gauge_dipole",
    "coulomb_path",
    "errors",
    "units",
]


@pytest.mark.parametrize("module_name", LIBRARY_MODULES)
def test_package_exports_every_library_name(module_name):
    module = importlib.import_module(f"dipolegauge.{module_name}")
    missing = sorted(set(module.__all__) - set(dipolegauge.__all__))
    assert not missing, f"{module_name} names missing from dipolegauge.__all__"
    for name in module.__all__:
        assert getattr(dipolegauge, name) is getattr(module, name)


def test_every_traced_name_exists(monkeypatch):
    # bench/tracing.py wraps library functions by module and name; a rename
    # or deletion in src/ would otherwise surface only in a --trace run
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", REPO / "bench" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the file executes
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    names = [
        (module, name)
        for _, module, functions, _ in tracing.SPANS
        for name in functions
    ]
    names.append(("coulomb_path", "dipole_kernel"))
    for module_name, name in names:
        module = importlib.import_module(f"dipolegauge.{module_name}")
        assert callable(getattr(module, name, None)), f"{module_name}.{name}"


@pytest.mark.parametrize(
    "demo", sorted(p.name for p in (REPO / "demos").glob("*.py"))
)
def test_demo_runs(demo):
    # a fresh interpreter per demo, so a deleted or renamed API fails here
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(REPO / "demos" / demo)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr


_SCIPY_PROBE = """
import json, sys
from pathlib import Path

import dipolegauge
from dipolegauge import cli

configs = json.loads(sys.argv[1])
work = Path(sys.argv[2])
for command, cfg in configs:
    path = work / (command + ".json")
    path.write_text(json.dumps(cfg))
    code = cli.main([command, "--config", str(path), "--out", str(work / "out")])
    assert code == 0, (command, code)
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""

_PROBE_CONFIGS = {
    "dipole-energy": {
        "schema_version": 1,
        "dipoles": [
            {"position": [0.0, 0.0, 0.0], "moment": [1.0, 0.0, 0.0]},
            {"position": [0.0, 0.0, 0.2], "moment": [1.0, 0.0, 0.0]},
        ],
        "lattice": {"half_extent": 12},
        "sigma": 0.04,
    },
    "field-shift": {
        "schema_version": 1,
        "dipoles": [
            {"position": [0.0, 0.0, 0.0], "moment": [1.0, 0.0, 0.0]},
            {"position": [0.15, 0.0, 0.0], "moment": [0.0, 0.0, 1.0]},
        ],
        "field_points": [[0.0, 0.0, 0.2]],
        "lattice": {"half_extent": 8},
        "sigma": 0.04,
        "tolerances": {"field_shift_rel": 0.05},
    },
    "verify-commutator": {
        "schema_version": 1,
        "separations": [[0.0, 0.0, 0.2]],
        "half_extents": [8],
        "sigma": 0.04,
        "tolerances": {"commutator_rel": 0.05},
    },
    "coulomb-path": {
        "schema_version": 1,
        "field_points": [[0.6, -0.8, 1.2]],
        "endpoint_factor": 50.0,
    },
    "bch-check": {
        "schema_version": 1,
        "xi_values": [0.3],
        "truncation": 20,
        "interior": 10,
    },
}


def test_no_command_loads_scipy(tmp_path):
    # scipy is a large import and only the tests use it: the package and all
    # five subcommands, bch-check's spectral Fock oracle included, run on numpy
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    configs = list(_PROBE_CONFIGS.items())
    result = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, json.dumps(configs), str(tmp_path)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == []
