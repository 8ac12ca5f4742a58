"""Tests of the benchmark itself: span arithmetic, tracing and the output checks.

Run from the root of a checkout: ``python3 -m pytest bench``.
"""

import json
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import cbwsim  # noqa: E402
import cbwsim.cli  # noqa: E402
import run  # noqa: E402
from spans import Span, Tracer, self_times_ns, summarize  # noqa: E402
from workloads import WORKLOADS, CascadeSweep, PhotonScan, Tally, TraceRoundtrip  # noqa: E402


def test_self_time_subtracts_direct_children():
    spans = [
        Span(0, None, "root", 0, 100, 0),
        Span(1, 0, "a", 10, 40, 0),
        Span(2, 0, "b", 50, 60, 0),
        Span(3, 1, "a1", 15, 25, 0),  # a grandchild of root: subtracted from a only
        Span(4, None, "a", 200, 205, 0),
    ]
    assert self_times_ns(spans) == {0: 60, 1: 20, 2: 10, 3: 10, 4: 5}
    summary = summarize(spans)
    assert summary["a"] == pytest.approx({"calls": 2, "total_s": 35e-9, "self_s": 25e-9})
    assert summary["root"]["self_s"] == pytest.approx(60e-9)


def test_tracer_wraps_layers_records_parents_and_restores():
    original_mzi = cbwsim.optics.mzi
    original_svg = cbwsim.cli.emit_plot_svg
    tracer = Tracer()
    tracer.install(cbwsim)
    try:
        assert cbwsim.cli.emit_plot_svg is cbwsim.svgplot.emit_plot_svg is not original_svg
        ast = cbwsim.circuit.build_cbw_chain(2, phi=0.0)
        cbwsim.circuit.output_intensities(ast, {"psi": [0.0, 0.5, 1.0]})
    finally:
        tracer.uninstall()
    assert cbwsim.optics.mzi is original_mzi and cbwsim.cli.emit_plot_svg is original_svg

    by_id = {s.span_id: s for s in tracer.spans}
    names = [s.name for s in tracer.spans]
    assert names.count("optics.mzi") == 2 and "circuit.evaluate_chain" in names
    for span in tracer.spans:
        if span.name == "optics.mzi":
            assert by_id[span.parent].name == "circuit.evaluate_chain"
    assert tracer.counters[0]["circuit.phase_points"] == 3
    assert tracer.counters[0]["optics.bytes_out"] > 0


def test_per_layer_metrics_derive_rates_and_the_extrapolation():
    summary = {"montecarlo.simulate_scan_counts": {"calls": 1, "total_s": 2.5, "self_s": 2.0},
               "cli.dispatch": {"calls": 1, "total_s": 3.0, "self_s": 0.5}}
    result = {"summaries": [summary, summary], "counters": [{"montecarlo.windows": 10**6}] * 2,
              "traced_walls": [3.0, 3.2], "walls": [2.9, 3.0], "import_s": 0.1,
              "default_scan_windows": 10**9, "failed": 0, "attempted": 4}
    metrics, _ = run.per_layer_metrics(result)
    assert metrics["montecarlo.ns_per_window"] == pytest.approx(2000.0)
    assert metrics["montecarlo.default_scan_extrapolated_s"] == pytest.approx(3.1 - 2.0 + 2000.0)
    assert metrics["montecarlo.self_s"] == 2.0 and metrics["cli.self_s"] == 0.5
    assert metrics["trace.overhead_s"] == pytest.approx(0.15)
    assert set(metrics) == {name for name, _ in run.PER_LAYER}


def test_wall_per_ref_divides_each_iteration_by_the_reference_timings_around_it():
    result = {"walls": [9.0, 2.0, 6.0, 3.0], "reference_walls": [0.5, 1.5, 0.5, 1.0],
              "setup_samples": [0.2, 0.3], "peak_rss_mb": 40.0, "failed": 0, "attempted": 8}
    metrics, extra = run.end_to_end_metrics(result, CascadeSweep())
    # The warm-up iteration (9.0) is left out: the ratios are 2/1, 6/1 and 3/0.75.
    assert metrics["wall_per_ref"] == pytest.approx(4.0)
    assert metrics["setup_s"] == pytest.approx(0.25) and metrics["peak_rss_mb"] == 40.0
    assert extra["wall_s"] == (4.5, "s") and extra["reference_s"] == (0.75, "s")
    assert [name for name, _ in run.END_TO_END] == list(metrics)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    # trace-roundtrip is run by hand only: it is too unsteady on a shared host to gate.
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (n, WORKLOADS[n].why) for n in ("photon-scan", "cascade-sweep")]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def _run(workload, out: Path, seed: int = 1) -> Tally:
    out.mkdir(parents=True, exist_ok=True)
    for argv in workload.commands(out, seed):
        assert cbwsim.cli.dispatch(argv) == 0
    return _checked(workload, out)


def _checked(workload, out: Path) -> Tally:
    tally = Tally()
    for name, check in workload.checks(out):
        tally.run_check(name, check)
    return tally


def _failed_checks(tally: Tally) -> set:
    return {failure.split(":", 1)[0] for failure in tally.failures}


@pytest.fixture(scope="module")
def roundtrip(tmp_path_factory):
    workload = TraceRoundtrip(points=2000, bin_duration=0.25)
    out = tmp_path_factory.mktemp("roundtrip")
    tally = _run(workload, out)
    assert tally.failures == [] and tally.attempted == 4
    return workload, out


def _corrupt_copy(src: Path, dst: Path) -> Path:
    dst.mkdir()
    for name in ("trace.csv", "stats.json", "trace.svg"):
        (dst / name).write_bytes((src / name).read_bytes())
    return dst


def test_roundtrip_rejects_swapped_columns(roundtrip, tmp_path):
    workload, out = roundtrip
    bad = _corrupt_copy(out, tmp_path / "bad")
    lines = (bad / "trace.csv").read_text().splitlines()
    swapped = [lines[0]] + [",".join(f[:4] + [f[5], f[4]]) for f in (ln.split(",") for ln in lines[1:])]
    (bad / "trace.csv").write_text("\n".join(swapped) + "\n")
    tally = _checked(workload, bad)
    assert _failed_checks(tally) == {"closed_form"} and tally.error_rate > 0


def test_roundtrip_rejects_a_period_of_two_pi(roundtrip, tmp_path):
    workload, out = roundtrip
    bad = _corrupt_copy(out, tmp_path / "bad")
    stats = json.loads((bad / "stats.json").read_text())
    stats["dominant_period_rad"] = 2 * math.pi
    (bad / "stats.json").write_text(json.dumps(stats))
    tally = _checked(workload, bad)
    assert _failed_checks(tally) == {"fringes"} and tally.error_rate > 0


def test_roundtrip_rejects_a_truncated_csv(roundtrip, tmp_path):
    workload, out = roundtrip
    bad = _corrupt_copy(out, tmp_path / "bad")
    text = (bad / "trace.csv").read_text()
    (bad / "trace.csv").write_text(text[: len(text) // 2].rsplit("\n", 1)[0] + "\n")
    tally = _checked(workload, bad)
    assert "closed_form" in _failed_checks(tally) and tally.error_rate > 0


def test_roundtrip_rejects_a_missing_polyline(roundtrip, tmp_path):
    workload, out = roundtrip
    bad = _corrupt_copy(out, tmp_path / "bad")
    lines = (bad / "trace.svg").read_text().splitlines()
    first = next(i for i, ln in enumerate(lines) if ln.startswith("<polyline"))
    (bad / "trace.svg").write_text("\n".join(lines[:first] + lines[first + 1:]) + "\n")
    assert _failed_checks(_checked(workload, bad)) == {"svg"}


def test_photon_scan_checks_pass_and_reject_a_period_of_two_pi(tmp_path):
    workload = PhotonScan(points=2000)
    out = tmp_path / "photon"
    assert _run(workload, out).failures == []
    stats = json.loads((out / "stats.json").read_text())
    stats["dominant_period_rad"] = 2 * math.pi
    (out / "stats.json").write_text(json.dumps(stats))
    assert _failed_checks(_checked(workload, out)) == {"period"}


def test_photon_scan_rejects_counts_off_the_poisson_expectation(tmp_path):
    workload = PhotonScan(points=2000)
    out = tmp_path / "photon"
    _run(workload, out)
    lines = (out / "trace.csv").read_text().splitlines()
    # Doubling every coincidence keeps the trace valid but breaks the fraction.
    doubled = [lines[0]] + [",".join(f[:6] + [str(2 * int(f[6]))]) for f in (ln.split(",") for ln in lines[1:])]
    (out / "trace.csv").write_text("\n".join(doubled) + "\n")
    assert _failed_checks(_checked(workload, out)) == {"counts"}


def test_cascade_checks_pass_and_reject_a_broken_scaling_law(tmp_path):
    workload = CascadeSweep(max_m=3, grid=30_000)
    out = tmp_path / "cascade"
    assert _run(workload, out).failures == []
    report = json.loads((out / "sensitivity.json").read_text())
    report["reports"][2]["ratio_to_classical"] = 0.5
    (out / "sensitivity.json").write_text(json.dumps(report))
    assert _failed_checks(_checked(workload, out)) == {"scaling"}
