"""Tests of the benchmark's own logic; run with ``python3 -m pytest bench/tests``."""

import csv
import io
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SEEDS = range(5)


# --- self time --------------------------------------------------------------


def test_self_time_subtracts_covered_child_time():
    S = tracing.Span
    spans = [
        S("root", 0.0, 10.0, None),
        S("a", 1.0, 4.0, 0),
        S("leaf", 2.0, 3.0, 1),
        S("b", 3.5, 6.0, 0),  # overlaps a: covered time is the union
        S("a", 8.0, 12.0, 0),  # runs past its parent: clipped
    ]
    selfs = tracing.self_times(spans)
    assert selfs["root"] == pytest.approx(10.0 - (6.0 - 1.0) - (10.0 - 8.0))
    assert selfs["a"] == pytest.approx((3.0 - 1.0) + 4.0)
    assert selfs["leaf"] == pytest.approx(1.0)
    assert selfs["b"] == pytest.approx(2.5)


def test_tracer_records_parents_counts_and_errors():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))

    inner = tracer.wrap("inner", lambda n: list(range(n)), lambda args, out: {"items": len(out)})

    def fail():
        raise ValueError("boom")

    failing = tracer.wrap("failing", fail)

    def body():
        inner(3)
        with pytest.raises(ValueError):
            failing()
        return inner(2)

    outer = tracer.wrap("outer", body)
    assert outer() == [0, 1]
    spans = tracer.spans
    assert [s.name for s in spans] == ["outer", "inner", "failing", "inner"]
    assert [s.parent for s in spans] == [None, 0, 0, 0]
    assert tracer.calls == {"outer": 1, "inner": 2, "failing": 1}
    assert tracer.errors == {"failing": 1}
    assert tracer.counts["inner.items"] == 5
    # every span lasts one tick; outer spans 7 ticks of which 3 are children
    assert tracing.self_times(spans)["outer"] == 4.0


def test_install_wraps_every_namespace_and_restores():
    sys.path.insert(0, str(ROOT / "src"))
    import dipolegauge
    import dipolegauge.cli as cli
    from dipolegauge import field_modes, gauge_dipole

    original = field_modes.commutator_ae_modesum
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        for module in (dipolegauge, field_modes, gauge_dipole, cli):
            assert module.commutator_ae_modesum is not original
        lattice = field_modes.build_mode_lattice(1.0, 2)
        gauge_dipole.commutator_ae_modesum(lattice, [0.1, 0, 0], [0, 0, 0], 0.05)
    finally:
        restore()
    for module in (dipolegauge, field_modes, gauge_dipole, cli):
        assert module.commutator_ae_modesum is original
    assert all(v[0].__name__.startswith("_validate") for v in cli._COMMANDS.values())
    metrics = tracing.layer_metrics(tracer)
    assert metrics["field_modes.build_mode_lattice.calls"] == 1
    assert metrics["field_modes.commutator_ae_modesum.calls"] == 1
    assert metrics["field_modes.commutator_ae_modesum.modes"] == 124
    # the projector is rebuilt inside the mode sum: a child span
    assert metrics["field_modes.transverse_projectors.calls"] == 1
    assert set(metrics) | {tracing.OVERHEAD[0]} == set(tracing.metric_units())


# --- generator constraints --------------------------------------------------


def _inside(point):
    return np.all(np.asarray(point) > 0.0) and np.all(np.asarray(point) < workloads.BOX_LENGTH)


def _positions(config):
    return [np.array(d["position"]) for d in config["dipoles"]]


@pytest.mark.parametrize("seed", SEEDS)
def test_generator_is_deterministic_per_seed(seed):
    for name in workloads.WORKLOADS:
        first = [i.text for i in workloads.generate(name, seed)]
        assert first == [i.text for i in workloads.generate(name, seed)]
        assert first != [i.text for i in workloads.generate(name, seed + 100)]


@pytest.mark.parametrize("seed", SEEDS)
def test_dipole_workloads_respect_constraints(seed):
    (pairs,) = workloads.generate("pair-network", seed)
    (shift,) = workloads.generate("field-shift", seed)
    assert len(pairs.config["dipoles"]) == workloads.PAIR_NETWORK_DIPOLES
    assert len(shift.config["dipoles"]) == workloads.FIELD_SHIFT_DIPOLES
    for invocation in (pairs, shift):
        positions = _positions(invocation.config)
        assert all(_inside(p) for p in positions)
        gaps = [np.linalg.norm(a - b) for i, a in enumerate(positions) for b in positions[:i]]
        assert min(gaps) >= workloads.MIN_PAIR_SEPARATION
        spread = np.ptp(positions, axis=0)
        assert np.all(spread <= 0.5)  # a cluster a few tenths of L wide
    for point in shift.config["field_points"]:
        assert _inside(point)
        gaps = sorted(np.linalg.norm(np.array(point) - p) for p in _positions(shift.config))
        assert gaps[0] == pytest.approx(workloads.FIELD_POINT_GAP, abs=2e-4)
        assert gaps[1] > workloads.FIELD_POINT_GAP


@pytest.mark.parametrize("seed", SEEDS)
def test_oracle_mix_respects_constraints(seed):
    sweep, paths, bch = workloads.generate("oracle-mix", seed)
    for sep in sweep.config["separations"]:
        rho = np.linalg.norm(sep)
        assert workloads.SEPARATION_RANGE[0] - 1e-3 <= rho <= workloads.SEPARATION_RANGE[1] + 1e-3
    vertices = [np.array(p["vertices"]) for p in paths.config["charge_paths"]]
    assert all(np.all(v[0] == 0.0) for v in vertices)
    assert all(np.array_equal(v[-1], vertices[0][-1]) for v in vertices)
    assert paths.config["exclusion_radius"] < workloads.PATH_CLEARANCE
    for point in paths.config["field_points"]:
        point = np.array(point)
        low, high = workloads.COULOMB_RADIUS_RANGE
        assert low - 1e-3 <= np.linalg.norm(point) <= high + 1e-3
        for v in vertices:
            for a, b in zip(v[:-1], v[1:]):
                assert workloads.segment_clearance(a, b, point) >= workloads.PATH_CLEARANCE
    assert bch.config["truncation"] >= 200 and len(bch.config["xi_values"]) == 3


# --- output check -----------------------------------------------------------


def _csv(rows, extra_column=False):
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    header = ["command", "record", "comparison", "kind", "computed", "reference",
              "abs_error", "rel_error", "tolerance", "passed"]
    writer.writerow(header + (["regulator_bias"] if extra_column else []))
    for (label, name), row in rows.items():
        writer.writerow(
            ["x", label, name, row.kind, repr(row.computed), repr(row.reference),
             "", "", repr(row.tolerance), "true"] + (["0.5"] if extra_column else [])
        )
    return buffer.getvalue()


@pytest.fixture(scope="module")
def field_shift_expected():
    (invocation,) = workloads.generate("field-shift", 3)
    return oracle.field_shift(invocation.config)


def test_check_accepts_matching_output_and_ignores_additions(field_shift_expected):
    exp = field_shift_expected
    (code,) = exp.exit_codes
    rows = dict(exp.rows)
    rows[("new record", "shift[0]")] = oracle.Row(1.0, 2.0, 0.1, "absolute")
    assert reference.check(exp, code, _csv(rows, extra_column=True)) == []


def test_check_flags_one_perturbed_value(field_shift_expected):
    exp = field_shift_expected
    (code,) = exp.exit_codes
    key = next(iter(exp.rows))
    row = exp.rows[key]
    rows = dict(exp.rows)
    rows[key] = oracle.Row(row.computed + 10 * row.check_tolerance, row.reference,
                           row.tolerance, row.kind)
    problems = reference.check(exp, code, _csv(rows))
    assert len(problems) == 1 and "computed" in problems[0]
    # rounding far inside the check tolerance passes
    rows[key] = oracle.Row(row.computed * (1 + 1e-12), row.reference, row.tolerance, row.kind)
    assert reference.check(exp, code, _csv(rows)) == []


def test_check_flags_wrong_exit_code_and_missing_rows(field_shift_expected):
    exp = field_shift_expected
    (code,) = exp.exit_codes
    problems = reference.check(exp, 1 - code, _csv(exp.rows))
    assert len(problems) == 1 and "exit code" in problems[0]
    assert reference.check(exp, 2, _csv(exp.rows))
    missing = dict(list(exp.rows.items())[1:])
    assert "missing" in reference.check(exp, code, _csv(missing))[0]
    assert reference.check(exp, code, None)


def test_gate_edge_allows_either_exit_code():
    row = oracle.Row(1.02, 1.0, 0.02, "relative")  # deviation exactly at the gate
    assert oracle._expected({("r", "c"): row}, {"r"}).exit_codes == {0, 1}
    row = oracle.Row(1.5, 1.0, 0.02, "relative")
    assert oracle._expected({("r", "c"): row}, {"r"}).exit_codes == {1}
    assert oracle._expected({("r", "c"): row}, set()).exit_codes == {0}


# --- committed reference against the oracle ---------------------------------


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_oracle_agrees_with_committed_reference(name):
    seed = reference.DEFAULT_SEED
    invocations = workloads.generate(name, seed)
    committed = reference.expected_outputs(name, seed, invocations)
    for invocation, recorded in zip(invocations, committed):
        computed = oracle.EXPECTED[invocation.command](invocation.config)
        assert recorded.exit_codes <= computed.exit_codes
        assert set(recorded.rows) == set(computed.rows)
        csv_text = _csv(recorded.rows)
        (code,) = recorded.exit_codes
        assert reference.check(computed, code, csv_text) == []


# --- spawning ---------------------------------------------------------------


def test_spawned_child_reports_its_own_peak_rss(tmp_path):
    import run

    ballast = np.ones(25_000_000)  # 200 MB resident in this process
    spawner = run.Spawner(kill_at=run.time.perf_counter() + 5)
    try:
        reply = spawner.run(["-c", "pass"], tmp_path / "stderr.txt")
        hung = spawner.run(["-c", "import time; time.sleep(60)"], tmp_path / "stderr.txt")
    finally:
        spawner.close()
    assert reply["exit_code"] == 0 and reply["wall_s"] > 0
    assert reply["maxrss_kb"] < 100 * 1024 < ballast.nbytes / 1024
    del ballast
    # a child still running at kill_at is killed
    assert hung["exit_code"] == -9 and hung["wall_s"] < 30


def test_long_run_does_not_kill_its_children(tmp_path):
    import run

    # a --seconds 300 run, 200 s in: its children must still be allowed to run
    deadline = run.kill_deadline(run.time.perf_counter() - 200, seconds=300)
    spawner = run.Spawner(kill_at=deadline)
    try:
        reply = spawner.run(["-c", "import time; time.sleep(0.5)"], tmp_path / "stderr.txt")
    finally:
        spawner.close()
    assert reply["exit_code"] == 0 and reply["wall_s"] >= 0.5
