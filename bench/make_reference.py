"""Write the committed reference: what the CLI prints for each workload at the default seed.

Run from the root of a source checkout, on the commit whose outputs should
become the reference:

    python3 bench/make_reference.py

The file lands in ``bench/references/seed-0.json`` and holds, per
invocation, the config digest, the exit code and every CSV comparison row.
``run.py`` checks default-seed runs against it; other seeds use the oracle.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import reference
from workloads import WORKLOADS, generate


def record(invocation, work: Path) -> dict:
    config = work / "config.json"
    output = work / "out.csv"
    config.write_text(invocation.text, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "dipolegauge.cli", invocation.command,
         "--config", str(config), "--format", "csv", "--out", str(output)],
        env=dict(os.environ, PYTHONPATH=str(Path.cwd() / "src")),
        check=False,
    )
    if proc.returncode not in (0, 1):
        raise RuntimeError(f"{invocation.command} exited {proc.returncode}")
    rows = reference.parse_csv(output.read_text(encoding="utf-8"))
    return {
        "command": invocation.command,
        "config_sha256": reference.config_digest(invocation),
        "exit_code": proc.returncode,
        "rows": [
            [label, name, row.computed, row.reference, row.tolerance, row.kind]
            for (label, name), row in rows.items()
        ],
    }


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args(argv)
    seed = reference.DEFAULT_SEED
    work_root = Path.cwd() / ".bench_work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as work:
        doc = {
            "seed": seed,
            "workloads": {
                name: [record(inv, Path(work)) for inv in generate(name, seed)]
                for name in WORKLOADS
            },
        }
    path = reference.REFERENCE_PATH
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
