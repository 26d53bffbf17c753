"""Benchmark of the dipolegauge CLI, end to end and layer by layer.

Run from the root of a source checkout (the directory holding ``src/``):

    python3 bench/run.py --workload pair-network --seed 0 --seconds 35 --trace 0
    python3 bench/run.py --workload all

``--trace 0`` times each invocation as a fresh ``python3 -m dipolegauge.cli``
process, one after another (a closed loop with one client), and reports the
end-to-end metrics.  ``--trace 1`` runs the same invocations in-process
through ``dipolegauge.cli.main`` with every layer wrapped, and reports the
per-layer metrics.  Both check every output against the reference and print,
as the last line of standard output, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md for the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

NPROC = len(os.sched_getaffinity(0))
# set before numpy loads, for this process and every child
BLAS_THREADS = {
    name: str(NPROC)
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
}
os.environ.update(BLAS_THREADS)

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import reference  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"
BENCH = Path(__file__).resolve().parent
SETUP_SAMPLES = 7
# a hung invocation is killed this long after --seconds have run out
KILL_MARGIN_S = 120.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def environment() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": NPROC,
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS,
        "loadavg_1m": os.getloadavg()[0],
    }


@dataclass
class Outcome:
    """One invocation: its timing and what the check found."""

    wall_s: float
    peak_rss_mb: float
    problems: list[str]


@dataclass
class Pass:
    outcomes: list[Outcome]

    @property
    def wall_s(self) -> float:
        return sum(o.wall_s for o in self.outcomes)

    @property
    def peak_rss_mb(self) -> float:
        return max(o.peak_rss_mb for o in self.outcomes)


class Workload:
    """Configs, expected outputs and file paths of one workload at one seed."""

    def __init__(self, name: str, seed: int, work: Path):
        self.name = name
        self.invocations = generate(name, seed)
        self.expected = reference.expected_outputs(name, seed, self.invocations)
        self.work = work
        self.configs = []
        for index, invocation in enumerate(self.invocations):
            path = work / f"{name}-{index}.json"
            path.write_text(invocation.text, encoding="utf-8")
            self.configs.append(path)

    def argv(self, index: int) -> list[str]:
        return [
            self.invocations[index].command,
            "--config",
            str(self.configs[index]),
            "--format",
            "csv",
            "--out",
            str(self.output(index)),
        ]

    def output(self, index: int) -> Path:
        return self.work / f"{self.name}-{index}.csv"

    def check(self, index: int, exit_code: int) -> list[str]:
        path = self.output(index)
        text = path.read_text(encoding="utf-8") if path.exists() else None
        path.unlink(missing_ok=True)
        problems = reference.check(self.expected[index], exit_code, text)
        for problem in problems:
            print(f"{self.name}[{index}] failed: {problem}", file=sys.stderr)
        return problems


def kill_deadline(run_start: float, seconds: float) -> float:
    """When a run that began at ``run_start`` kills a child still running."""
    return run_start + seconds + KILL_MARGIN_S


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC), **BLAS_THREADS)


class Spawner:
    """``spawn.py`` in a child process: starts, times and reaps every CLI run.

    A hung child is killed at ``kill_at`` (a ``time.perf_counter`` value), so
    the benchmark still exits within its time limit.
    """

    def __init__(self, kill_at: float):
        self.kill_at = kill_at
        self.proc = subprocess.Popen(
            [sys.executable, "-S", str(BENCH / "spawn.py")],
            cwd=ROOT,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def run(self, args: list[str], stderr: Path) -> dict:
        request = {
            "argv": [sys.executable, *args],
            "env": child_env(),
            "stderr": str(stderr),
            "timeout": self.kill_at - time.perf_counter(),
        }
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the spawn helper exited early")
        return json.loads(reply)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=30)
        self.proc.stdout.close()


def measure_setup(spawner: Spawner, work: Path) -> float:
    """Wall time of a fresh interpreter importing dipolegauge.cli."""
    stderr = work / "stderr.txt"
    reply = spawner.run(["-c", "import dipolegauge.cli"], stderr)
    if reply["exit_code"] != 0:
        raise RuntimeError("import dipolegauge.cli failed:\n" + stderr.read_text())
    return reply["wall_s"]


def run_process(spawner: Spawner, workload: Workload, index: int) -> Outcome:
    """One CLI invocation in a fresh process, timed from spawn to reaping."""
    stderr = workload.work / "stderr.txt"
    reply = spawner.run(["-m", "dipolegauge.cli", *workload.argv(index)], stderr)
    problems = workload.check(index, reply["exit_code"])
    if problems:
        sys.stderr.write(stderr.read_text(encoding="utf-8", errors="replace"))
    # ru_maxrss is in KiB on Linux
    return Outcome(reply["wall_s"], reply["maxrss_kb"] / 1024.0, problems)


def run_in_process(workload: Workload, index: int, cli) -> Outcome:
    """One CLI invocation through cli.main in this process."""
    start = time.perf_counter()
    try:
        exit_code = cli.main(workload.argv(index))
    except SystemExit as exc:  # argparse rejects the arguments
        exit_code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash of the program under test is a failed operation
        traceback.print_exc()
        exit_code = -1
    wall = time.perf_counter() - start
    return Outcome(wall, 0.0, workload.check(index, exit_code))


def run_passes(seconds: float, one_pass) -> list:
    """Repeat ``one_pass`` while another one still fits in ``seconds``."""
    start = time.perf_counter()
    results, durations = [], []
    while True:
        began = time.perf_counter()
        results.append(one_pass())
        durations.append(time.perf_counter() - began)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(durations) > seconds:
            return results


def end_to_end(workload: Workload, seconds: float, run_start: float):
    spawner = Spawner(kill_at=kill_deadline(run_start, seconds))
    try:
        measure_setup(spawner, workload.work)  # untimed: compiles the bytecode once
        setups = [measure_setup(spawner, workload.work) for _ in range(SETUP_SAMPLES)]
        count = len(workload.invocations)
        passes = run_passes(
            seconds, lambda: Pass([run_process(spawner, workload, i) for i in range(count)])
        )
    finally:
        spawner.close()
    metrics = {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p.peak_rss_mb for p in passes),
    }
    detail = {
        "passes": len(passes),
        "wall_s_per_pass": [round(p.wall_s, 4) for p in passes],
        "setup_s_samples": [round(s, 4) for s in setups],
    }
    return metrics, [o for p in passes for o in p.outcomes], detail, END_TO_END_UNITS


def traced(workload: Workload, seconds: float, seed: int):
    sys.path.insert(0, str(SRC))
    import dipolegauge.cli as cli

    if Path(cli.__file__).resolve().parent != (SRC / "dipolegauge").resolve():
        raise RuntimeError(f"imported {cli.__file__}, not the checkout's package")
    count = len(workload.invocations)

    def one_pass():
        plain = Pass([run_in_process(workload, i, cli) for i in range(count)])
        tracer = tracing.Tracer()
        restore = tracing.install(tracer)
        try:
            wrapped = Pass([run_in_process(workload, i, cli) for i in range(count)])
        finally:
            restore()
        return plain, wrapped, tracer

    passes = run_passes(seconds, one_pass)
    layers = [tracing.layer_metrics(tracer) for _, _, tracer in passes]
    units = tracing.metric_units()
    metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    metrics[tracing.OVERHEAD[0]] = statistics.median(
        w.wall_s for _, w, _ in passes
    ) - statistics.median(p.wall_s for p, _, _ in passes)
    spans_path = WORK_DIR / f"spans-{workload.name}-seed{seed}.json"
    spans = [s.__dict__ for s in passes[-1][2].spans if s is not None]
    spans_path.write_text(json.dumps(spans) + "\n", encoding="utf-8")
    outcomes = [o for plain, wrapped, _ in passes for o in plain.outcomes + wrapped.outcomes]
    detail = {"passes": len(passes), "spans_file": str(spans_path.relative_to(ROOT))}
    return {name: metrics[name] for name in units}, outcomes, detail, units


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    run_start = time.perf_counter()
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as work:
        workload = Workload(name, seed, Path(work))
        if trace:
            metrics, outcomes, detail, units = traced(workload, seconds, seed)
        else:
            metrics, outcomes, detail, units = end_to_end(workload, seconds, run_start)
    failed = sum(1 for o in outcomes if o.problems)
    print(f"workload {name} seed {seed} trace {int(trace)}: {json.dumps(detail)}")
    for metric, value in metrics.items():
        print(f"  {metric:<52} {value:>14.6g} {units[metric]}")
    print(f"  {'failed_frac':<52} {failed / len(outcomes):>14.6g} ratio "
          f"({failed} of {len(outcomes)} invocations)")
    return {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=reference.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dipolegauge" / "cli.py").is_file():
        print(f"no dipolegauge sources under {SRC}; run from a checkout root", file=sys.stderr)
        return 2
    WORK_DIR.mkdir(exist_ok=True)
    print("environment " + json.dumps(environment()))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
