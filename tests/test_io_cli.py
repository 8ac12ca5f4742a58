import json
import math
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from cbwsim import cli
from cbwsim.circuit import build_cbw_chain
from cbwsim.config import ConfigError, NoiseModel, ScanConfig, SourceMode, SourceModel
from cbwsim.montecarlo import simulate_classical_trace, simulate_scan_counts
from cbwsim.svgplot import emit_plot_svg
from cbwsim.trace_io import read_trace_csv, write_trace_csv

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "src" / "cbwsim" / "schemas"


def photon_trace(points=24, seed=5):
    chain = build_cbw_chain(2, 0.0)
    scan = ScanConfig(points=points, bin_duration=0.001, scan_duration=points * 0.001)
    source = SourceModel(mean_photons_per_window=0.4, window_duration=1e-6)
    return simulate_scan_counts(chain, scan, source, NoiseModel.quiet(), seed=seed)


def classical_trace(points=24):
    chain = build_cbw_chain(2, 0.0)
    scan = ScanConfig(points=points, bin_duration=0.1, scan_duration=points * 0.1)
    source = SourceModel(mode=SourceMode.CLASSICAL_INTENSITY)
    return simulate_classical_trace(chain, scan, source, NoiseModel.quiet(), seed=0)


class TestTraceCsv:
    def test_photon_round_trip_bit_identical(self, tmp_path):
        trace = photon_trace()
        path = tmp_path / "t.csv"
        write_trace_csv(trace, path)
        back = read_trace_csv(path)
        assert back.mode is SourceMode.PHOTON_COUNTING
        for field in ("bin_index", "time", "voltage", "psi", "singles_d1", "singles_d2", "coincidences"):
            np.testing.assert_array_equal(getattr(trace, field), getattr(back, field))

    def test_classical_round_trip_bit_identical(self, tmp_path):
        trace = classical_trace()
        path = tmp_path / "t.csv"
        write_trace_csv(trace, path)
        back = read_trace_csv(path)
        assert back.mode is SourceMode.CLASSICAL_INTENSITY
        for field in ("time", "voltage", "psi", "singles_d1", "singles_d2"):
            np.testing.assert_array_equal(getattr(trace, field), getattr(back, field))

    def test_line_count_and_endings(self, tmp_path):
        trace = photon_trace(points=3)
        path = tmp_path / "t.csv"
        write_trace_csv(trace, path)
        raw = path.read_bytes()
        assert raw.count(b"\n") == 4 and b"\r" not in raw
        assert raw.decode().splitlines()[0] == "bin,time_s,voltage_V,psi_rad,d1,d2,coinc"

    def test_classical_uses_six_columns(self, tmp_path):
        path = tmp_path / "t.csv"
        write_trace_csv(classical_trace(points=3), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "bin,time_s,voltage_V,psi_rad,i_gamma,i_delta"
        assert all(line.count(",") == 5 for line in lines)

    def test_seventeen_digit_floats_round_trip(self, tmp_path):
        path = tmp_path / "t.csv"
        trace = classical_trace(points=3)
        write_trace_csv(trace, path)
        row = path.read_text().splitlines()[2]
        psi_field = row.split(",")[3]
        assert float(psi_field) == trace.psi[1]
        digits = psi_field.replace("-", "").replace(".", "").split("e")[0].lstrip("0")
        assert len(digits) >= 16  # full double precision on an irrational value

    def test_unknown_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            read_trace_csv(path)


class TestSvg:
    def test_three_series_three_polylines_three_legend_entries(self, tmp_path):
        x = np.linspace(0, 1, 50)
        series = [("d1", np.sin(6 * x)), ("d2", np.cos(6 * x)), ("coinc", np.sin(12 * x) ** 2)]
        path = tmp_path / "p.svg"
        emit_plot_svg(x, series, path, xlabel="time (s)", ylabel="counts")
        text = path.read_text()
        assert text.count("<polyline") == 3
        assert text.count('class="legend"') == 3
        for label in ("d1", "d2", "coinc"):
            assert f">{label}</text>" in text

    def test_empty_series_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_plot_svg(np.linspace(0, 1, 5), [], tmp_path / "p.svg")

    def test_mismatched_lengths_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_plot_svg(np.linspace(0, 1, 5), [("a", np.zeros(4))], tmp_path / "p.svg")

    def test_byte_identical_for_identical_input(self, tmp_path):
        x = np.linspace(0, 2, 64)
        series = [("a", np.sin(x)), ("b", np.cos(x))]
        p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
        emit_plot_svg(x, series, p1, title="run")
        emit_plot_svg(x, series, p2, title="run")
        assert p1.read_bytes() == p2.read_bytes()


class TestParsePhase:
    @pytest.mark.parametrize("text,value", [
        ("pi", math.pi),
        ("pi/2", math.pi / 2),
        ("3pi/4", 3 * math.pi / 4),
        ("-pi/2", -math.pi / 2),
        ("2pi", 2 * math.pi),
        ("deg:90", math.pi / 2),
        ("deg:-45", -math.pi / 4),
        ("1.5707", 1.5707),
        ("0", 0.0),
    ])
    def test_accepted_forms(self, text, value):
        assert abs(cli.parse_phase(text) - value) < 1e-12

    def test_garbage_rejected(self):
        with pytest.raises(ConfigError):
            cli.parse_phase("one half pi")
        with pytest.raises(ConfigError):
            cli.parse_phase("deg:ninety")


class TestLoadConfig:
    def test_values_loaded(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\nmean_photons=0.04\npoints=100\n\nphi=pi\n")
        cfg = cli.load_config(path)
        assert cfg == {"mean_photons": "0.04", "points": "100", "phi": "pi"}

    def test_unknown_key_is_named(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("points=10\nunknown_key=1\n")
        with pytest.raises(ConfigError) as info:
            cli.load_config(path)
        assert "unknown_key" in str(info.value) and ":2" in str(info.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            cli.load_config(tmp_path / "nope.cfg")

    def test_flag_overrides_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("points=50\nmodules=2\nphi=pi\n")
        out = tmp_path / "sweep.csv"
        code = cli.dispatch(["analytic", "--config", str(cfg), "--points", "10", "--out", str(out)])
        assert code == 0
        trace = read_trace_csv(out)
        assert len(trace) == 10  # flag beat the file's 50
        assert np.max(np.abs(trace.singles_d1 - 1.0)) < 1e-12  # file phi=pi applied

    def test_mean_photons_reaches_the_source(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mean_photons=2.0\nwindow_duration=1e-5\nnoise=none\n"
                       "points=8\nbin_duration=0.01\nscan_duration=0.08\nseed=5\n")
        bright = tmp_path / "bright.csv"
        assert cli.dispatch(["simulate", "--config", str(cfg), "--out", str(bright)]) == 0
        dim = tmp_path / "dim.csv"
        assert cli.dispatch(["simulate", "--config", str(cfg), "--mean-photons", "0.02",
                             "--out", str(dim)]) == 0
        # lam=2.0 fires ~86% of windows, lam=0.02 ~1%: the file value and
        # the flag override must both reach the source model.
        assert read_trace_csv(bright).singles_d1.sum() > 20 * read_trace_csv(dim).singles_d1.sum()


class TestDispatch:
    def test_analytic_symmetric_is_constant(self, tmp_path):
        out = tmp_path / "flat.csv"
        code = cli.dispatch(["analytic", "--modules", "2", "--phi", "pi",
                             "--points", "100", "--out", str(out)])
        assert code == 0
        trace = read_trace_csv(out)
        assert len(trace) == 100
        assert np.max(np.abs(trace.singles_d1 - 1.0)) < 1e-12
        assert np.max(np.abs(trace.singles_d2)) < 1e-12

    def test_analyze_constant_trace_exits_two(self, tmp_path, capsys):
        flat = tmp_path / "flat.csv"
        cli.dispatch(["analytic", "--modules", "2", "--phi", "pi",
                      "--points", "100", "--out", str(flat)])
        code = cli.dispatch(["analyze", "--in", str(flat)])
        assert code == 2
        assert "analysis error" in capsys.readouterr().err

    def test_analyze_json_validates_against_schema(self, tmp_path):
        trace_csv = tmp_path / "trace.csv"
        cli.dispatch(["analytic", "--modules", "2", "--phi", "0", "--points", "4096",
                      "--cycles-per-ramp", "10", "--out", str(trace_csv)])
        report = tmp_path / "stats.json"
        code = cli.dispatch(["analyze", "--in", str(trace_csv), "--column", "i_gamma",
                             "--out", str(report)])
        assert code == 0
        payload = json.loads(report.read_text())
        schema = json.loads((SCHEMA_DIR / "fringe_stats.schema.json").read_text())
        jsonschema.validate(payload, schema)
        assert abs(payload["dominant_period_rad"] - np.pi) < 0.01
        assert payload["fringe_count"] == 20.0

    def test_sensitivity_json_validates_against_schema(self, tmp_path):
        report = tmp_path / "sens.json"
        code = cli.dispatch(["sensitivity", "--max-m", "3", "--grid", "40000",
                             "--out", str(report)])
        assert code == 0
        payload = json.loads(report.read_text())
        schema = json.loads((SCHEMA_DIR / "sensitivity_report.schema.json").read_text())
        jsonschema.validate(payload, schema)
        ratios = [r["ratio_to_classical"] for r in payload["reports"]]
        np.testing.assert_allclose(ratios, [1.0, 0.5, 1 / 3], rtol=0.01)

    def test_scan_writes_csv_and_svg(self, tmp_path):
        out = tmp_path / "run"
        code = cli.dispatch(["scan", "--modules", "2", "--phi", "0", "--points", "64",
                             "--bin-duration", "0.001", "--scan-duration", "0.064",
                             "--mean-photons", "0.3", "--window-duration", "1e-6",
                             "--seed", "7", "--noise", "none", "--out", str(out)])
        assert code == 0
        assert (out / "trace.csv").exists() and (out / "trace.svg").exists()
        trace = read_trace_csv(out / "trace.csv")
        assert trace.mode is SourceMode.PHOTON_COUNTING

    def test_scan_classical_mode(self, tmp_path):
        out = tmp_path / "cw"
        code = cli.dispatch(["scan", "--mode", "classical", "--points", "64",
                             "--noise", "none", "--out", str(out)])
        assert code == 0
        trace = read_trace_csv(out / "trace.csv")
        assert trace.mode is SourceMode.CLASSICAL_INTENSITY

    def test_circuit_file_override(self, tmp_path):
        mzi_file = tmp_path / "single.mzi"
        mzi_file.write_text("mzi C arm=lower phase=psi\ndetect a b\n")
        out = tmp_path / "custom"
        code = cli.dispatch(["scan", "--mode", "classical", "--points", "64",
                             "--circuit", str(mzi_file), "--noise", "none",
                             "--out", str(out)])
        assert code == 0
        trace = read_trace_csv(out / "trace.csv")
        expected = (1.0 - np.cos(trace.psi)) / 2.0
        assert np.max(np.abs(trace.singles_d1 - expected)) < 1e-12

    @pytest.mark.parametrize("flags, field", [
        (["--dark-rate", "nan"], "dark_rate"),
        (["--noise", "lab", "--phase-jitter-correlation", "0"], "phase_jitter_correlation"),
        (["--mean-photons", "nan"], "mean_photons_per_window"),
    ])
    def test_non_physical_source_or_noise_exits_one(self, tmp_path, capsys, flags, field):
        code = cli.dispatch(["scan", "--points", "20", "--bin-duration", "1e-6",
                             "--scan-duration", "2e-5", *flags, "--out", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("cbwsim: error: ") and err.count("\n") == 1
        assert field in err

    def test_unknown_subcommand_exits_one(self, capsys):
        assert cli.dispatch(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_flag_exits_one(self, capsys):
        assert cli.dispatch(["sensitivity", "--wat", "3"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_missing_required_flag_exits_one(self, capsys):
        assert cli.dispatch(["simulate"]) == 1
        capsys.readouterr()

    def test_no_subcommand_exits_one(self, capsys):
        assert cli.dispatch([]) == 1
        capsys.readouterr()

    def test_bad_circuit_file_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.mzi"
        bad.write_text("mzi C arm=sideways phase=psi\ndetect a b\n")
        out = tmp_path / "x"
        assert cli.dispatch(["scan", "--circuit", str(bad), "--out", str(out)]) == 1
        capsys.readouterr()
