import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dipolegauge

REPO = Path(__file__).resolve().parents[1]
LIBRARY_MODULES = ["field_modes", "operator_algebra", "gauge_dipole", "coulomb_path"]


@pytest.mark.parametrize("module_name", LIBRARY_MODULES)
def test_package_exports_every_library_name(module_name):
    module = importlib.import_module(f"dipolegauge.{module_name}")
    missing = sorted(set(module.__all__) - set(dipolegauge.__all__))
    assert not missing, f"{module_name} names missing from dipolegauge.__all__"
    for name in module.__all__:
        assert getattr(dipolegauge, name) is getattr(module, name)


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
