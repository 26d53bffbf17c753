"""Expected outputs of each invocation, and the check behind ``failed``.

For the default seed the expected exit codes and row values are the ones the
CLI printed when ``make_reference.py`` ran, committed under ``references/``;
only that seed has a committed file.  For every other seed they come from
:mod:`oracle`, the benchmark's own dense recomputation;
``tests/test_bench.py`` checks that the two agree on the default seed.

An invocation fails when it crashes, exits 2, exits with a code the reference
does not allow, omits a reference row, or prints a computed or reference
value further from the expected one than ``oracle.CHECK_FRACTION`` of the
row's physics gate.  Rows the reference does not know, such as columns or
comparisons added by later versions of the CLI, are ignored.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path

import oracle
from oracle import Expected, Row

DEFAULT_SEED = 0
REFERENCE_PATH = Path(__file__).resolve().parent / "references" / f"seed-{DEFAULT_SEED}.json"


def config_digest(invocation) -> str:
    return hashlib.sha256(invocation.text.encode("utf-8")).hexdigest()


def parse_csv(text: str) -> dict:
    """CLI CSV rows keyed by (record, comparison); extra columns are ignored."""
    rows = {}
    for raw in csv.DictReader(io.StringIO(text)):
        rows[(raw["record"], raw["comparison"])] = Row(
            float(raw["computed"]),
            float(raw["reference"]),
            float(raw["tolerance"]),
            raw["kind"],
        )
    return rows


def _committed(workload: str, invocations) -> list[Expected]:
    doc = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
    entries = doc["workloads"][workload]
    if [e["config_sha256"] for e in entries] != [config_digest(i) for i in invocations]:
        raise ValueError(f"{REFERENCE_PATH} was written for other {workload} configs")
    return [
        Expected(
            rows={(r[0], r[1]): Row(*r[2:]) for r in entry["rows"]},
            exit_codes=frozenset({entry["exit_code"]}),
        )
        for entry in entries
    ]


def expected_outputs(workload: str, seed: int, invocations) -> list[Expected]:
    if seed == DEFAULT_SEED:
        return _committed(workload, invocations)
    return [oracle.EXPECTED[i.command](i.config) for i in invocations]


def check(expected: Expected, exit_code: int, csv_text: str | None) -> list[str]:
    """Problems with one invocation's outcome; empty when it is correct."""
    if exit_code not in expected.exit_codes:
        return [f"exit code {exit_code}, expected one of {sorted(expected.exit_codes)}"]
    try:
        rows = parse_csv(csv_text or "")
    except (KeyError, ValueError, csv.Error) as exc:
        return [f"unreadable CSV output: {exc!r}"]
    problems = []
    for key, want in expected.rows.items():
        got = rows.get(key)
        if got is None:
            problems.append(f"row {key} missing")
            continue
        for field in ("computed", "reference"):
            value, target = getattr(got, field), getattr(want, field)
            if not math.isfinite(value) or abs(value - target) > want.check_tolerance:
                problems.append(
                    f"row {key} {field} {value!r} differs from {target!r} "
                    f"by more than {want.check_tolerance:.3g}"
                )
    return problems
