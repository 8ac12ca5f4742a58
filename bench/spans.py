"""In-memory span tracer that wraps the public functions of cbwsim's modules.

The tracer replaces module attributes with timing wrappers, so every call
that goes through a module's globals -- ``optics.mzi(...)`` from another
module as well as a bare ``mzi(...)`` inside ``optics`` -- records a span:
name, start, end, parent span and run id.  Names imported by value into
another layer module (``cli`` imports ``emit_plot_svg``) are replaced too.
Nothing under ``src/`` changes; :meth:`Tracer.uninstall` restores the
originals.

Spans are kept in memory and written out once, at the end of a run.  The
tracer assumes one thread: cbwsim runs its scan with one worker here.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import time
from collections import defaultdict
from dataclasses import asdict, dataclass

import numpy as np

# The timed layers, in dependency order.  ``config`` (negligible work) and
# ``analytic`` (the output checks' oracle) are deliberately not layers.
LAYERS = ("optics", "circuit", "montecarlo", "experiment", "trace_io", "svgplot", "cli")


@dataclass(frozen=True)
class Span:
    span_id: int
    parent: int | None
    name: str
    start_ns: int
    end_ns: int
    run_id: int


def self_times_ns(spans) -> dict:
    """Self time of each span: its duration minus the durations of its direct children.

    The tracer is single-threaded and stack-based, so children nest inside
    their parent and never overlap one another.
    """
    child_ns: dict = defaultdict(int)
    for span in spans:
        if span.parent is not None:
            child_ns[span.parent] += span.end_ns - span.start_ns
    return {span.span_id: span.end_ns - span.start_ns - child_ns[span.span_id] for span in spans}


def summarize(spans) -> dict:
    """Per-name ``calls``, ``total_s`` and ``self_s`` of a list of spans."""
    self_ns = self_times_ns(spans)
    out: dict = {}
    for span in spans:
        entry = out.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += (span.end_ns - span.start_ns) / 1e9
        entry["self_s"] += self_ns[span.span_id] / 1e9
    return out


def _returned_nbytes(result) -> int:
    if isinstance(result, tuple):
        return sum(_returned_nbytes(r) for r in result)
    return int(getattr(result, "nbytes", 0))


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _phase_points(bound) -> int:
    bindings = bound.arguments.get("bindings") or {}
    return max((int(np.size(v)) for v in bindings.values()), default=1)


def _windows(bound) -> int:
    scan, source = bound.arguments["scan"], bound.arguments["source"]
    return scan.points * round(scan.bin_duration / source.window_duration)


# Work counters recorded at layer boundaries: span name (or ``layer.*``) ->
# (counter name, amount of work read from the bound arguments and result).
_COUNTERS = {
    "optics.*": ("optics.bytes_out", lambda bound, result: _returned_nbytes(result)),
    "circuit.output_intensities": ("circuit.phase_points", lambda bound, result: _phase_points(bound)),
    "montecarlo.simulate_scan_counts": ("montecarlo.windows", lambda bound, result: _windows(bound)),
    "trace_io.write_trace_csv": ("trace_io.bytes_written", lambda bound, result: _file_size(bound.arguments["path"])),
    "trace_io.write_json_report": ("trace_io.bytes_written", lambda bound, result: _file_size(bound.arguments["path"])),
    "trace_io.read_trace_csv": ("trace_io.bytes_read", lambda bound, result: _file_size(bound.arguments["path"])),
    "svgplot.emit_plot_svg": ("svgplot.bytes_written", lambda bound, result: _file_size(bound.arguments["path"])),
}


class Tracer:
    """Records spans and work counters around the public functions of the layers."""

    def __init__(self):
        self.spans: list = []
        self.counters: dict = defaultdict(lambda: defaultdict(int))  # run id -> counter -> amount
        self.run_id = 0
        self._stack: list = []
        self._saved: list = []

    def _wrap(self, name: str, fn):
        counter = _COUNTERS.get(name) or _COUNTERS.get(name.split(".")[0] + ".*")
        signature = inspect.signature(fn) if counter else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            tracer.spans.append(None)
            tracer._stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                tracer._stack.pop()
                tracer.spans[span_id] = Span(span_id, parent, name, start, end, tracer.run_id)
            if counter:
                counter_name, amount = counter
                bound = signature.bind(*args, **kwargs)
                tracer.counters[tracer.run_id][counter_name] += amount(bound, result)
            return result

        return wrapper

    def install(self, package) -> None:
        """Wrap every public function of every layer module of ``package``."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        modules = [getattr(package, layer) for layer in LAYERS]
        wrappers = {}
        for layer, module in zip(LAYERS, modules):
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def spans_of(self, run_id: int) -> list:
        return [s for s in self.spans if s is not None and s.run_id == run_id]

    def write(self, path) -> None:
        """Write every recorded span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(asdict(span)) + "\n")
