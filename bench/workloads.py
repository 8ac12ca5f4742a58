"""Benchmark workloads: the CLI calls each one makes and the checks on their outputs.

Each workload is a short list of ``cbwsim`` command lines run through
``cbwsim.cli.dispatch``.  Its checks compare the written files with
independent oracles -- the closed forms in ``cbwsim.analytic``, Poisson
thinning, the JSON schemas, an XML parse of the SVG -- never with seeded
count values, so a change of the sampler's random stream does not break
them.  Checks run outside the timed interval.

An operation is one CLI invocation or one output check; :class:`Tally`
counts them, and ``error_rate`` is failed / attempted.

``cbwsim`` is imported inside the checks only: ``run.py`` imports this
module too, and it must not load the package it benchmarks.
"""

from __future__ import annotations

import json
import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import ClassVar

import numpy as np


class CheckFailed(Exception):
    """An output does not match its oracle."""


def _expect(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class Tally:
    """Attempted and failed operations of one run, with the reason of each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list = []

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}")

    def run_check(self, name: str, check) -> None:
        # A check is a boundary that must keep running: any exception it
        # raises, from a missing file to a parse error, is a failed operation.
        try:
            check()
        except Exception as exc:  # noqa: BLE001
            self.record(name, False, f"{type(exc).__name__}: {exc}")
        else:
            self.record(name, True)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


class Outputs:
    """Lazily parsed files of one workload iteration."""

    def __init__(self, out: Path, header: tuple):
        self.out = Path(out)
        self.header = header

    @cached_property
    def table(self) -> np.ndarray:
        """The trace CSV as a float array, parsed without ``cbwsim.trace_io``."""
        path = self.out / "trace.csv"
        with open(path, encoding="utf-8") as fh:
            first = fh.readline().rstrip("\n")
        _expect(tuple(first.split(",")) == self.header, f"trace header {first!r}, expected {self.header}")
        return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)

    @cached_property
    def stats(self) -> dict:
        return json.loads((self.out / "stats.json").read_text(encoding="utf-8"))


def _schema(name: str) -> dict:
    import cbwsim

    return json.loads((Path(cbwsim.__file__).parent / "schemas" / name).read_text(encoding="utf-8"))


def _validate(payload: dict, schema_name: str) -> None:
    import jsonschema

    jsonschema.validate(payload, _schema(schema_name))


def _expect_period_pi(period: float, psi: np.ndarray) -> None:
    """The reported period is pi to within one bin of the trace's FFT."""
    span = len(psi) * (psi[1] - psi[0])
    _expect(period > 0 and abs(span / period - span / math.pi) <= 1.0,
            f"dominant period {period!r} is not pi within one FFT bin")


def _expect_rows(data: np.ndarray, points: int) -> None:
    _expect(data.shape[0] == points, f"{data.shape[0]} trace rows, expected {points}")
    _expect(np.array_equal(data[:, 0], np.arange(points)), "bin column is not 0..points-1")


class Workload:
    """A fixed set of CLI calls, the work they do and the checks on their outputs."""

    name: ClassVar[str]
    why: ClassVar[str]
    work_metric: ClassVar[str]  # throughput name: work units per second of wall_s
    dominant_spans: ClassVar[tuple]  # spans a traced run must record

    @property
    def work(self) -> float:
        raise NotImplementedError

    def commands(self, out: Path, seed: int) -> list:
        raise NotImplementedError

    def checks(self, out: Path) -> list:
        """``(name, callable)`` pairs; each callable raises when its output is wrong."""
        raise NotImplementedError


PHOTON_HEADER = ("bin", "time_s", "voltage_V", "psi_rad", "d1", "d2", "coinc")
CLASSICAL_HEADER = ("bin", "time_s", "voltage_V", "psi_rad", "i_gamma", "i_delta")


@dataclass(frozen=True)
class PhotonScan(Workload):
    name: ClassVar[str] = "photon-scan"
    why: ClassVar[str] = ("the README default scan (5000 bins, mean 0.04, lab noise, CSV+SVG) at 1e4 "
                          "windows per bin, ~97% sampler; also times CSV/SVG I/O and analysis, as "
                          "trace-roundtrip is too unsteady to gate")
    work_metric: ClassVar[str] = "windows_per_s"
    dominant_spans: ClassVar[tuple] = ("cli.dispatch", "montecarlo.simulate_scan_counts")

    points: int = 5000
    bin_duration: ClassVar[float] = 1e-4
    window_duration: ClassVar[float] = 1e-8
    mean_photons: ClassVar[float] = 0.04
    # Allowance for the 1% lab drift walk of the source power, which moved
    # singles totals by up to 0.8%; the count checks add five Poisson
    # standard deviations of the expected total on top.
    drift_rtol: ClassVar[float] = 0.02

    @property
    def windows_per_bin(self) -> int:
        return round(self.bin_duration / self.window_duration)

    @property
    def work(self) -> float:
        return float(self.points * self.windows_per_bin)

    def commands(self, out: Path, seed: int) -> list:
        return [
            ["scan", "--modules", "2", "--phi", "0", "--points", str(self.points),
             "--mean-photons", repr(self.mean_photons), "--window-duration", repr(self.window_duration),
             "--bin-duration", repr(self.bin_duration),
             "--scan-duration", f"{self.points * self.bin_duration:g}",
             "--noise", "lab", "--seed", str(seed), "--out", str(out)],
            ["analyze", "--in", str(out / "trace.csv"), "--column", "d1",
             "--out", str(out / "stats.json")],
        ]

    def checks(self, out: Path) -> list:
        outputs = Outputs(out, PHOTON_HEADER)

        def period():
            psi = outputs.table[:, 3]
            _expect_period_pi(float(outputs.stats["dominant_period_rad"]), psi)

        def counts():
            from cbwsim import analytic
            from cbwsim.config import LAB_NOISE

            data = outputs.table
            _expect_rows(data, self.points)
            pred = analytic.cbw_intensities(data[:, 3], 0.0, 2)
            p_upper = pred.i_upper / (pred.i_upper + pred.i_lower)
            # Poisson thinning: the photon numbers on the two detectors are
            # independent Poisson variables, so each fires with 1 - exp(-mean).
            mu = self.mean_photons * LAB_NOISE.detector_efficiency
            dark = LAB_NOISE.dark_rate * self.window_duration
            q1 = -np.expm1(-(mu * p_upper + dark))
            q2 = -np.expm1(-(mu * (1.0 - p_upper) + dark))
            w = self.windows_per_bin
            expected = {"d1": w * q1.sum(), "d2": w * q2.sum(), "coinc": w * (q1 * q2).sum()}
            got = {"d1": data[:, 4].sum(), "d2": data[:, 5].sum(), "coinc": data[:, 6].sum()}
            for key in ("d1", "d2"):
                rtol = self.drift_rtol + 5.0 / math.sqrt(expected[key])
                _expect(abs(got[key] / expected[key] - 1.0) <= rtol,
                        f"{key} total {got[key]:.0f}, expected {expected[key]:.0f} within {rtol:.1%}")

            def fraction(t):
                return t["coinc"] / (t["d1"] + t["d2"] - t["coinc"])

            # The fraction scales with the source power, hence the drift allowance.
            rtol = self.drift_rtol + 5.0 / math.sqrt(expected["coinc"])
            _expect(abs(fraction(got) / fraction(expected) - 1.0) <= rtol,
                    f"coincidence fraction {fraction(got):.5g}, expected {fraction(expected):.5g} "
                    f"within {rtol:.1%}")

        return [
            ("period", period),
            ("stats_schema", lambda: _validate(outputs.stats, "fringe_stats.schema.json")),
            ("counts", counts),
        ]


@dataclass(frozen=True)
class CascadeSweep(Workload):
    name: ClassVar[str] = "cascade-sweep"
    why: ClassVar[str] = ("dense-phase evaluation of 1..5-stage cascades for the 1/m law; "
                          "optics is ~99% of its time, with no sampling and no CSV")
    work_metric: ClassVar[str] = "stage_points_per_s"
    dominant_spans: ClassVar[tuple] = (
        "cli.dispatch", "experiment.estimate_sensitivity", "circuit.output_intensities",
        "optics.mzi", "optics.compose", "optics.phase_element", "optics.apply",
    )

    max_m: int = 5
    grid: int = 100_000

    @property
    def work(self) -> float:
        # Useful MZI-stage x phase-point evaluations: one grid per cascade order.
        return float(self.grid * sum(range(1, self.max_m + 1)))

    def commands(self, out: Path, seed: int) -> list:
        # The sensitivity report is deterministic: it takes no seed.
        return [["sensitivity", "--max-m", str(self.max_m), "--grid", str(self.grid),
                 "--out", str(out / "sensitivity.json")]]

    def checks(self, out: Path) -> list:
        def report():
            return json.loads((out / "sensitivity.json").read_text(encoding="utf-8"))

        def scaling():
            payload = report()
            _expect(payload["grid_points"] == self.grid, f"grid_points {payload['grid_points']}")
            orders = [r["m"] for r in payload["reports"]]
            _expect(orders == list(range(1, self.max_m + 1)), f"report orders {orders}")
            for r in payload["reports"]:
                _expect(abs(r["m"] * r["ratio_to_classical"] - 1.0) <= 0.01,
                        f"m={r['m']}: m * ratio_to_classical = {r['m'] * r['ratio_to_classical']:.6g}")

        return [
            ("schema", lambda: _validate(report(), "sensitivity_report.schema.json")),
            ("scaling", scaling),
        ]


@dataclass(frozen=True)
class TraceRoundtrip(Workload):
    name: ClassVar[str] = "trace-roundtrip"
    why: ClassVar[str] = ("a noiseless 1e5-row classical scan written to CSV and SVG, read back "
                          "and analysed; bypasses the photon sampler")
    work_metric: ClassVar[str] = "rows_per_s"
    dominant_spans: ClassVar[tuple] = (
        "cli.dispatch", "montecarlo.simulate_classical_trace",
        "experiment.find_extrema", "experiment.visibility", "experiment.dominant_period",
        "trace_io.write_trace_csv", "trace_io.read_trace_csv", "svgplot.emit_plot_svg",
    )

    points: int = 100_000
    bin_duration: float = 0.005

    @property
    def work(self) -> float:
        return float(self.points)

    def commands(self, out: Path, seed: int) -> list:
        # No noise: with lab noise the 500 s phase-jitter walk can wash out
        # fringes so that ``analyze`` fails on some seeds.
        return [
            ["scan", "--mode", "classical", "--noise", "none", "--points", str(self.points),
             "--bin-duration", repr(self.bin_duration),
             "--scan-duration", f"{self.points * self.bin_duration:g}",
             "--seed", str(seed), "--out", str(out)],
            ["analyze", "--in", str(out / "trace.csv"), "--column", "i_gamma",
             "--out", str(out / "stats.json")],
        ]

    def checks(self, out: Path) -> list:
        outputs = Outputs(out, CLASSICAL_HEADER)

        def closed_form():
            from cbwsim import analytic

            data = outputs.table
            _expect_rows(data, self.points)
            pred = analytic.cbw_intensities(data[:, 3], 0.0, 2)
            for col, name, expected in ((4, "i_gamma", pred.i_upper), (5, "i_delta", pred.i_lower)):
                err = float(np.max(np.abs(data[:, col] - expected)))
                _expect(err <= 1e-12, f"{name} differs from the closed form by {err:.3g}")

        def fringes():
            from cbwsim.config import DEFAULT_CYCLES_PER_RAMP

            expected = 2 * DEFAULT_CYCLES_PER_RAMP  # doubled fringes of the 2-stage chain
            count = outputs.stats["fringe_count"]
            _expect(count == expected, f"fringe_count {count}, expected {expected}")
            psi = outputs.table[:, 3]
            _expect_period_pi(float(outputs.stats["dominant_period_rad"]), psi)

        def svg():
            root = ET.parse(out / "trace.svg").getroot()
            lines = [el for el in root.iter() if el.tag.rsplit("}", 1)[-1] == "polyline"]
            _expect(len(lines) == 2, f"{len(lines)} polylines, expected 2")
            for el in lines:
                n = len(el.get("points", "").split())
                _expect(n == self.points, f"polyline with {n} points, expected {self.points}")

        return [
            ("closed_form", closed_form),
            ("fringes", fringes),
            ("stats_schema", lambda: _validate(outputs.stats, "fringe_stats.schema.json")),
            ("svg", svg),
        ]


WORKLOADS = {w.name: w for w in (PhotonScan(), CascadeSweep(), TraceRoundtrip())}
