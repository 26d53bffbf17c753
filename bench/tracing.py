"""In-process tracing of the library's layers, from outside ``src/``.

:func:`install` replaces each traced function with a wrapper that records a
span (name, start, end, parent) and the counts taken at that boundary.
``from .x import f`` copies the binding into the importing module, so the
wrapper is put into every ``dipolegauge`` module namespace that holds the
original, and into the CLI's subcommand table for the validators.  Spans stay
in memory until the run ends.

The program is single-threaded and has no queue, so no layer ever waits for
another: each layer's time is busy time, and no waiting time is reported.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span


def _merged_length(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[str, float]:
    """Per span name, total duration minus the time its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    totals: dict[str, float] = defaultdict(float)
    for index, span in enumerate(spans):
        clipped = [
            (max(start, span.start), min(end, span.end))
            for start, end in children[index]
            if end > span.start and start < span.end
        ]
        totals[span.name] += (span.end - span.start) - _merged_length(clipped)
    return dict(totals)


class Tracer:
    """Spans, call and error counts, and boundary counters of one traced pass."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span | None] = []
        self.calls: Counter = Counter()
        self.errors: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, func, count=None):
        """``func`` recording a span named ``name``; ``count(args, result)``
        returns counters to add, with ``args`` bound by parameter name."""
        signature = inspect.signature(func)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(index)
            start = self.clock()
            try:
                result = func(*args, **kwargs)
            except BaseException:
                self.errors[name] += 1
                raise
            finally:
                end = self.clock()
                self._stack.pop()
                self.spans[index] = Span(name, start, end, parent)
                self.calls[name] += 1
            if count is not None:
                bound = signature.bind(*args, **kwargs).arguments
                self.counts.update(
                    {f"{name}.{key}": value for key, value in count(bound, result).items()}
                )
            return result

        return traced

    def counting(self, key: str, func):
        """``func`` adding one to counter ``key`` per call, without a span."""

        @functools.wraps(func)
        def counted(*args, **kwargs):
            self.counts[key] += 1
            return func(*args, **kwargs)

        return counted


# (span name, module, functions, counters taken at the boundary)
SPANS = (
    ("field_modes.build_mode_lattice", "field_modes", ("build_mode_lattice",), None),
    (
        "field_modes.transverse_projectors",
        "field_modes",
        ("transverse_projectors",),
        lambda args, out: {"bytes_computed": out.nbytes},
    ),
    (
        "field_modes.field_coeffs",
        "field_modes",
        ("vector_potential_coeffs", "electric_field_coeffs"),
        None,
    ),
    (
        "field_modes.commutator_ae_modesum",
        "field_modes",
        ("commutator_ae_modesum",),
        lambda args, out: {"modes": args["lattice"].num_modes},
    ),
    (
        "gauge_dipole.build_gm_generator",
        "gauge_dipole",
        ("build_gm_generator",),
        lambda args, out: {"terms": len(out)},
    ),
    (
        "gauge_dipole.field_component_generator",
        "gauge_dipole",
        ("field_component_generator",),
        # a degree-1 generator has 3 channels x (ann, cre) slots per mode
        lambda args, out: {"terms": len(out), "slots": 6 * args["lattice"].num_modes},
    ),
    (
        "gauge_dipole.epsilon_dip_from_commutator",
        "gauge_dipole",
        ("epsilon_dip_from_commutator",),
        None,
    ),
    ("gauge_dipole.transform_report", "gauge_dipole", ("transform_report",), None),
    (
        "operator_algebra.commutator",
        "operator_algebra",
        ("commutator",),
        lambda args, out: {"terms_in": len(args["p"]) + len(args["q"])},
    ),
    (
        "operator_algebra.fock_adjoint_oracle",
        "operator_algebra",
        ("fock_adjoint_oracle",),
        lambda args, out: {"dim": args["config"].dimension},
    ),
    (
        "coulomb_path.commutator_line_integral",
        "coulomb_path",
        ("commutator_line_integral",),
        lambda args, out: {"segments": args["path"].num_segments},
    ),
    ("cli.render", "cli", ("render_json", "render_csv"), None),
    ("cli.main", "cli", ("main",), None),
)
VALIDATE_SPAN = "cli.validate"
KERNEL_EVALS = "coulomb_path.commutator_line_integral.kernel_evals"
SPAN_NAMES = tuple(name for name, *_ in SPANS) + (VALIDATE_SPAN,)

# per-layer metrics beyond self_s, calls and errors: (name, unit)
EXTRA_METRICS = (
    ("field_modes.commutator_ae_modesum.modes", "count"),
    ("field_modes.transverse_projectors.bytes_computed", "bytes"),
    ("gauge_dipole.build_gm_generator.terms", "count"),
    ("gauge_dipole.field_component_generator.terms", "count"),
    ("gauge_dipole.field_component_generator.kept_frac", "ratio"),
    ("operator_algebra.commutator.terms_in", "count"),
    ("operator_algebra.fock_adjoint_oracle.dim", "count"),
    ("coulomb_path.commutator_line_integral.segments", "count"),
    (KERNEL_EVALS, "count"),
)
OVERHEAD = ("trace.overhead_s", "s")


def metric_units() -> dict[str, str]:
    """Every per-layer metric name and its unit, in report order."""
    units = {}
    for name in SPAN_NAMES:
        units.update({f"{name}.self_s": "s", f"{name}.calls": "count", f"{name}.errors": "count"})
    units.update(dict(EXTRA_METRICS))
    units[OVERHEAD[0]] = OVERHEAD[1]
    return units


def _package_modules():
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "dipolegauge" or name.startswith("dipolegauge."))
    ]


def install(tracer: Tracer):
    """Wrap every traced function; returns a callable that restores them."""
    modules = _package_modules()
    by_short = {m.__name__.rpartition(".")[2]: m for m in modules}
    replacements = {}  # id(original) -> wrapper
    originals = {}
    for name, module_name, functions, count in SPANS:
        for func_name in functions:
            original = getattr(by_short[module_name], func_name)
            replacements[id(original)] = tracer.wrap(name, original, count)
            originals[id(original)] = original
    kernel = by_short["coulomb_path"].dipole_kernel
    replacements[id(kernel)] = tracer.counting(KERNEL_EVALS, kernel)
    originals[id(kernel)] = kernel

    undo = []
    for module in modules:
        for attr, value in list(vars(module).items()):
            if id(value) in replacements and originals[id(value)] is value:
                setattr(module, attr, replacements[id(value)])
                undo.append((module, attr, value))

    commands = by_short["cli"]._COMMANDS
    saved_commands = dict(commands)
    for command, (validator, runner, doc) in saved_commands.items():
        commands[command] = (tracer.wrap(VALIDATE_SPAN, validator), runner, doc)

    def restore():
        for module, attr, value in undo:
            setattr(module, attr, value)
        commands.update(saved_commands)

    return restore


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metric values of one traced pass (without the overhead)."""
    selfs = self_times([s for s in tracer.spans if s is not None])
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.self_s"] = selfs.get(name, 0.0)
        out[f"{name}.calls"] = tracer.calls[name]
        out[f"{name}.errors"] = tracer.errors[name]
    counts = tracer.counts
    fcg = "gauge_dipole.field_component_generator"
    oracle = "operator_algebra.fock_adjoint_oracle"
    for key, _ in EXTRA_METRICS:
        out[key] = counts[key]
    slots = counts[f"{fcg}.slots"]
    out[f"{fcg}.kept_frac"] = counts[f"{fcg}.terms"] / slots if slots else 0.0
    # dimension per oracle call; every call of a pass uses the same truncation
    calls = tracer.calls[oracle]
    out[f"{oracle}.dim"] = counts[f"{oracle}.dim"] / calls if calls else 0
    return out
