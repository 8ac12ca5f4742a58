"""cbwsim benchmark: end-to-end CLI timings and a traced per-layer breakdown.

Run from the root of a checkout::

    python3 bench/run.py --workload photon-scan --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Each run starts one fresh child process (``child.py``) that imports
``cbwsim.cli`` from the checkout's ``src`` and repeats the workload's
``cbwsim.cli.dispatch`` calls for ``--seconds`` seconds, with BLAS/OpenMP
pinned to one thread and ``--workers`` left at 1.  Outputs are checked
against independent oracles between iterations, outside the timed interval.

``--trace 0`` reports the end-to-end metrics: set-up time (median of
several fresh child starts), ``wall_per_ref`` and the child's peak RSS.
``wall_per_ref`` is the median, over every iteration but the first, of the
wall time of the iteration's ``dispatch`` calls divided by the mean time of
a fixed reference kernel timed just before and just after it.  The shared
host's speed drifts by tens of percent over minutes; the reference kernel,
which runs no cbwsim code, drifts with it, so the ratio measures the
program's cost and not the host's load.  The plain median wall time is
printed as ``wall_s`` beside it, ungated.

``--trace 1`` alternates untraced and traced iterations and reports
per-layer self times and work counts from spans recorded around every
public function of the layers.

Every metric is printed by name with its unit; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  A run record with the host, versions and raw per-iteration
values is written under ``bench/.work/records/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import LAYERS
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"

RUN_TIMEOUT_S = 170.0  # the workload child, set-up probes included
THREAD_PINS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}

END_TO_END = (
    ("setup_s", "s"),
    ("wall_per_ref", "ratio"),
    ("peak_rss_mb", "MB"),
)

# Named spans whose self time (and call count) the traced run reports.
SELF_TIMED = (
    "montecarlo.simulate_scan_counts", "montecarlo.simulate_classical_trace",
    "optics.mzi", "optics.compose", "optics.phase_element", "optics.apply",
    "circuit.output_intensities",
    "experiment.find_extrema", "experiment.visibility", "experiment.dominant_period",
    "experiment.estimate_sensitivity",
    "trace_io.write_trace_csv", "trace_io.read_trace_csv",
    "svgplot.emit_plot_svg",
    "cli.dispatch",
)
CALL_COUNTED = (
    "circuit.output_intensities",
    "experiment.find_extrema", "experiment.visibility", "experiment.dominant_period",
    "experiment.estimate_sensitivity",
)
COUNTERS = (
    ("montecarlo.windows", "count"),
    ("circuit.phase_points", "count"),
    ("optics.bytes_out", "B"),
    ("trace_io.bytes_written", "B"),
    ("trace_io.bytes_read", "B"),
    ("svgplot.bytes_written", "B"),
)
PER_LAYER = (
    tuple((f"{name}.self_s", "s") for name in SELF_TIMED)
    + tuple((f"{name}.calls", "count") for name in CALL_COUNTED)
    + COUNTERS
    + tuple((f"{layer}.self_s", "s") for layer in LAYERS)
    + (
        ("montecarlo.ns_per_window", "ns"),
        ("montecarlo.default_scan_extrapolated_s", "s"),
        ("cli.import_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.spans", "count"),
    )
)


def _child_env() -> dict:
    env = dict(os.environ, **THREAD_PINS)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _child(args: list) -> subprocess.CompletedProcess:
    t0 = time.monotonic_ns()
    return subprocess.run(
        [sys.executable, str(BENCH / "child.py"), str(t0), *args],
        env=_child_env(), cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=False,
    )


class RunFailed(Exception):
    """The child process could not produce a result."""


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end_metrics(result: dict, workload) -> tuple:
    """``({metric: value}, {printed-only metric: (value, unit)})`` of an untraced run.

    The first iteration is a warm-up with no reference timing before it:
    iteration ``i`` is bracketed by reference timings ``i - 1`` and ``i``.
    """
    walls, refs = result["walls"], result["reference_walls"]
    wall = _median(walls)
    metrics = {
        "setup_s": _median(result["setup_samples"]),
        "wall_per_ref": _median([w / ((before + after) / 2)
                                 for w, before, after in zip(walls[1:], refs, refs[1:])]),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    extra = {
        "wall_s": (wall, "s"),
        "reference_s": (_median(refs), "s"),
        workload.work_metric: (workload.work / wall, "1/s"),
        "error_rate": (result["failed"] / result["attempted"], "ratio"),
    }
    return metrics, extra


def per_layer_metrics(result: dict) -> tuple:
    """``(metrics, printed-only metrics)`` of a traced run.

    Times are medians over the traced iterations; counts come from the last
    one (the child checks that they repeat in every traced iteration).
    """
    summaries, counters = result["summaries"], result["counters"]

    def self_s(predicate) -> float:
        return _median([sum(v["self_s"] for k, v in s.items() if predicate(k)) for s in summaries])

    metrics = {f"{name}.self_s": self_s(lambda k, n=name: k == n) for name in SELF_TIMED}
    for name in CALL_COUNTED:
        metrics[f"{name}.calls"] = summaries[-1].get(name, {}).get("calls", 0)
    for name, _ in COUNTERS:
        metrics[name] = counters[-1].get(name, 0)
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_s(lambda k, p=layer + ".": k.startswith(p))

    windows = metrics["montecarlo.windows"]
    sampler_s = metrics["montecarlo.simulate_scan_counts.self_s"]
    traced_wall = _median(result["traced_walls"])
    ns_per_window = sampler_s / windows * 1e9 if windows else 0.0
    metrics["montecarlo.ns_per_window"] = ns_per_window
    # Derived, not run: this workload's traced wall time with the sampler's
    # per-window cost scaled up to the default scan's windows.
    metrics["montecarlo.default_scan_extrapolated_s"] = (
        traced_wall - sampler_s + ns_per_window * 1e-9 * result["default_scan_windows"]
        if windows else 0.0)
    metrics["cli.import_s"] = result["import_s"]
    metrics["trace.overhead_s"] = traced_wall - _median(result["walls"])
    metrics["trace.spans"] = sum(v["calls"] for v in summaries[-1].values())
    extra = {"error_rate": (result["failed"] / result["attempted"], "ratio")}
    return metrics, extra


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_revision():
    if not (ROOT / ".git").exists():  # benchmark checkouts need not be repositories
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    workload = WORKLOADS[name]
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    workdir = WORK / f"{tag}-{os.getpid()}"
    records = WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        result_path = workdir / "result.json"
        spans_path = records / f"{tag}.spans.jsonl"
        try:
            proc = _child(["run", name, str(seed), str(seconds), str(int(trace)),
                           str(result_path), str(spans_path)])
        except subprocess.TimeoutExpired as exc:
            raise RunFailed(f"workload child did not finish within {RUN_TIMEOUT_S:.0f} s") from exc
        if proc.returncode != 0 or not result_path.is_file():
            raise RunFailed(f"workload child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        result = json.loads(result_path.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if not Path(result["cbwsim_file"]).resolve().is_relative_to(ROOT / "src"):
        raise RunFailed(f"imported cbwsim from {result['cbwsim_file']}, not from {ROOT / 'src'}")
    if trace:
        metrics, extra = per_layer_metrics(result)
        units = dict(PER_LAYER)
    else:
        metrics, extra = end_to_end_metrics(result, workload)
        units = dict(END_TO_END)
    record = {
        "workload": name, "why": workload.why, "seed": seed, "seconds": seconds, "trace": trace,
        "host": {"nproc": os.cpu_count(), "cpu_model": _cpu_model(), "platform": platform.platform()},
        "python": result["python"], "numpy": result["numpy"], "git_revision": _git_revision(),
        "thread_pins": THREAD_PINS, "commands": workload.commands(Path("OUT"), seed),
        "work": workload.work,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "printed_only": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
        "raw": {"import_s": result["import_s"],
                **{k: result[k] for k in ("setup_samples", "walls", "reference_walls", "traced_walls",
                                          "peak_rss_mb")
                   if k in result}},
        "attempted": result["attempted"], "failed": result["failed"], "failures": result["failures"],
    }
    if trace:
        record["raw"]["summaries"] = result["summaries"]
        record["raw"]["counters"] = result["counters"]
        record["spans_file"] = str(spans_path.relative_to(ROOT))
        record["derived_not_run"] = ["montecarlo.default_scan_extrapolated_s"]
    record_path = records / f"{tag}.json"
    record_path.write_text(json.dumps(record, indent=2), encoding="utf-8")
    record["record_file"] = str(record_path.relative_to(ROOT))
    return record


def _print_record(record: dict) -> None:
    print(f"workload {record['workload']}  seed {record['seed']}  trace {int(record['trace'])}  "
          f"iterations {len(record['raw']['walls'])}")
    for name, entry in {**record["metrics"], **record["printed_only"]}.items():
        print(f"  {name:<44} {entry['value']:.6g} {entry['unit']}")
    if record["trace"]:
        print(f"  {'(montecarlo.default_scan_extrapolated_s is derived, not run)':<44}")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")
    print(f"  record {record['record_file']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "cbwsim" / "cli.py").is_file():
        print(f"bench: no cbwsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    for name in names:
        try:
            records.append(run_workload(name, args.seed, args.seconds, bool(args.trace)))
        except RunFailed as exc:
            print(f"bench: {name}: {exc}", file=sys.stderr)
            return 1
        _print_record(records[-1])

    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    failed = sum(r["failed"] for r in records)
    summary = {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in records),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
