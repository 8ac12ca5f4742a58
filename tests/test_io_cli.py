import json
import math
import re
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from cbwsim import cli, config, experiment, svgplot
from cbwsim.circuit import UnboundParameterError, build_cbw_chain
from cbwsim.config import ConfigError, NoiseModel, ScanConfig, SourceMode, SourceModel
from cbwsim.montecarlo import CountTrace, simulate_classical_trace, simulate_scan_counts
from cbwsim.svgplot import emit_plot_svg
from cbwsim.trace_io import CLASSICAL_HEADER, PHOTON_HEADER, read_trace_csv, write_trace_csv

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "src" / "cbwsim" / "schemas"


def photon_trace(points=24, seed=5):
    chain = build_cbw_chain(2, 0.0)
    scan = ScanConfig(points=points, bin_duration=0.001, scan_duration=points * 0.001)
    source = SourceModel(mean_photons_per_window=0.4, window_duration=1e-6)
    return simulate_scan_counts(chain, scan, source, NoiseModel(), seed=seed)


def classical_trace(points=24):
    chain = build_cbw_chain(2, 0.0)
    scan = ScanConfig(points=points, bin_duration=0.1, scan_duration=points * 0.1)
    source = SourceModel(mode=SourceMode.CLASSICAL_INTENSITY)
    return simulate_classical_trace(chain, scan, source, NoiseModel(), seed=0)


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


def oracle_csv(trace) -> bytes:
    """Per-row, per-value CSV formatting: the oracle of the batched writer."""
    def fmt(value):
        return format(float(value), ".17g")

    photon = trace.mode is SourceMode.PHOTON_COUNTING
    lines = [",".join(PHOTON_HEADER if photon else CLASSICAL_HEADER)]
    for i in range(len(trace)):
        row = [str(int(trace.bin_index[i])), fmt(trace.time[i]), fmt(trace.voltage[i]),
               fmt(trace.psi[i])]
        if photon:
            row += [str(int(trace.singles_d1[i])), str(int(trace.singles_d2[i])),
                    str(int(trace.coincidences[i]))]
        else:
            row += [fmt(trace.singles_d1[i]), fmt(trace.singles_d2[i])]
        lines.append(",".join(row))
    return ("\n".join(lines) + "\n").encode()


def oracle_points(x, arrays) -> list:
    """Per-point polyline formatting: the oracle of the batched SVG points."""
    x_lo, x_hi = float(np.min(x)), float(np.max(x))
    y_lo = min(float(np.min(y)) for y in arrays)
    y_hi = max(float(np.max(y)) for y in arrays)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    pad = 0.04 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad
    plot_w = svgplot._WIDTH - svgplot._MARGIN_L - svgplot._MARGIN_R
    plot_h = svgplot._HEIGHT - svgplot._MARGIN_T - svgplot._MARGIN_B

    def px(value):
        return svgplot._MARGIN_L + (value - x_lo) / (x_hi - x_lo) * plot_w

    def py(value):
        return svgplot._MARGIN_T + (y_hi - value) / (y_hi - y_lo) * plot_h

    return [" ".join(f"{px(xv):.2f},{py(yv):.2f}" for xv, yv in zip(x, y)) for y in arrays]


def random_doubles(rng, n):
    """Finite doubles from random bit patterns: every exponent, sign and subnormals."""
    values = np.frombuffer(rng.bytes(8 * n), dtype=float).copy()
    values[~np.isfinite(values)] = 0.0
    return values


def make_trace(mode, time, voltage, psi, d1, d2, coinc=None):
    n = len(time)
    return CountTrace(
        mode=mode, bin_index=np.arange(n, dtype=np.int64), time=np.asarray(time, dtype=float),
        voltage=np.asarray(voltage, dtype=float), psi=np.asarray(psi, dtype=float),
        singles_d1=np.asarray(d1), singles_d2=np.asarray(d2),
        coincidences=np.zeros(n) if coinc is None else np.asarray(coinc),
    )


def assert_bits_equal(a, b):
    """Equal values and dtypes, with -0.0 told apart from 0.0."""
    assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


EDGE_FLOATS = [-0.0, 0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e300, -1e300,
               1.7976931348623157e308, 0.1, 1 / 3, -2.5, 2.0 ** 53]
NEAR_2_53 = [2**53 - 1, 2**53, 2**53 + 1, 0, 1, 2**62]


class TestBatchedWriterMatchesOracle:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_photon_trace(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        n = 300
        d1 = rng.integers(0, 2**62, n)
        d2 = rng.integers(0, 2**62, n)
        coinc = np.minimum(d1, d2) // rng.integers(1, 5, n)
        trace = make_trace(SourceMode.PHOTON_COUNTING, random_doubles(rng, n),
                           random_doubles(rng, n), random_doubles(rng, n), d1, d2, coinc)
        path = tmp_path / "t.csv"
        write_trace_csv(trace, path)
        assert path.read_bytes() == oracle_csv(trace)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_classical_trace(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        n = 300
        trace = make_trace(SourceMode.CLASSICAL_INTENSITY, random_doubles(rng, n),
                           random_doubles(rng, n), random_doubles(rng, n),
                           np.abs(random_doubles(rng, n)), np.abs(random_doubles(rng, n)))
        path = tmp_path / "t.csv"
        write_trace_csv(trace, path)
        assert path.read_bytes() == oracle_csv(trace)

    def test_simulated_traces(self, tmp_path):
        for trace in (photon_trace(points=200), classical_trace(points=200)):
            path = tmp_path / "t.csv"
            write_trace_csv(trace, path)
            assert path.read_bytes() == oracle_csv(trace)

    def test_edge_values_round_trip_bit_identical(self, tmp_path):
        n = len(NEAR_2_53)
        floats = np.resize(np.array(EDGE_FLOATS), n)
        for trace in (
            make_trace(SourceMode.PHOTON_COUNTING, floats, floats[::-1], -floats,
                       np.array(NEAR_2_53, dtype=np.int64), np.array(NEAR_2_53, dtype=np.int64),
                       np.array(NEAR_2_53, dtype=np.int64)),
            make_trace(SourceMode.CLASSICAL_INTENSITY, EDGE_FLOATS, EDGE_FLOATS[::-1],
                       EDGE_FLOATS, np.abs(EDGE_FLOATS), np.abs(EDGE_FLOATS[::-1])),
        ):
            path = tmp_path / "t.csv"
            write_trace_csv(trace, path)
            assert path.read_bytes() == oracle_csv(trace)
            back = read_trace_csv(path)
            for field in ("bin_index", "time", "voltage", "psi", "singles_d1", "singles_d2"):
                assert_bits_equal(getattr(back, field), getattr(trace, field))

    @pytest.mark.parametrize("mode", list(SourceMode))
    def test_one_row_trace(self, tmp_path, mode):
        trace = make_trace(mode, [-0.0], [5e-324], [1e300], np.array([3]), np.array([4]),
                           np.array([2]) if mode is SourceMode.PHOTON_COUNTING else None)
        path = tmp_path / "t.csv"
        write_trace_csv(trace, path)
        assert path.read_bytes() == oracle_csv(trace)
        assert len(read_trace_csv(path)) == 1

    def test_invalid_trace_is_not_written(self, tmp_path):
        trace = photon_trace(points=4)
        trace.time[2] = np.nan
        path = tmp_path / "t.csv"
        with pytest.raises(ValueError, match="non-finite"):
            write_trace_csv(trace, path)
        assert not path.exists()


class TestReaderRejects:
    GOOD = "0,0,0,0,5,4,2"

    @pytest.mark.parametrize("row", [
        "1,0.1,0.2,0.3,5,4",          # short row
        "1,0.1,0.2,0.3,5,4,2,9",      # long row
        "1,0.1,volts,0.3,5,4,2",      # non-numeric field
        "1,0.1,0.2,0.3,3.5,4,2",      # non-integer count
    ])
    @pytest.mark.parametrize("first", [True, False])
    def test_malformed_row_names_the_file(self, tmp_path, row, first):
        path = tmp_path / "bad.csv"
        rows = [row, self.GOOD] if first else [self.GOOD, row]
        path.write_text("\n".join([",".join(PHOTON_HEADER), *rows]) + "\n")
        with pytest.raises(ValueError, match=re.escape(str(path))):
            read_trace_csv(path)

    @pytest.mark.parametrize("header", [PHOTON_HEADER, CLASSICAL_HEADER])
    def test_header_only_is_an_empty_trace_without_warnings(self, tmp_path, header):
        path = tmp_path / "empty.csv"
        path.write_text(",".join(header) + "\n\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = read_trace_csv(path)
        assert len(trace) == 0 and len(trace.coincidences) == 0
        assert (trace.mode is SourceMode.PHOTON_COUNTING) == (header == PHOTON_HEADER)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text(",".join(PHOTON_HEADER) + "\n\n" + self.GOOD + "\n  \n1,1,1,1,3,3,1\n")
        trace = read_trace_csv(path)
        np.testing.assert_array_equal(trace.singles_d1, [5, 3])


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

    @pytest.mark.parametrize("seed", [0, 1])
    def test_points_match_per_point_formatting(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        x = np.sort(rng.uniform(-3.0, 50.0, 500))
        series = [("a", rng.normal(0.0, 1e3, 500)), ("b", np.sin(x)), ("c", np.full(500, 7.0))]
        path = tmp_path / "p.svg"
        emit_plot_svg(x, series, path)
        got = re.findall(r'points="([^"]*)"', path.read_text())
        assert got == oracle_points(x, [y for _, y in series])

    @pytest.mark.parametrize("x, y", [
        ([0.0, 1.0], [2.0, 3.0]),                 # two points
        ([0.0, 1.0], [1e-310, -0.0]),             # subnormal values
        ([-1e300, 1e300], [1e300, -1e300]),       # huge spans
        ([4.0, 4.0], [1.0, 1.0]),                 # degenerate axes
    ])
    def test_two_point_edge_plots(self, tmp_path, x, y):
        x, y = np.array(x), np.array(y)
        path = tmp_path / "p.svg"
        emit_plot_svg(x, [("y", y)], path)
        assert re.findall(r'points="([^"]*)"', path.read_text()) == oracle_points(x, [y])


    @pytest.mark.parametrize("lo, hi", [
        (0.0, 5e-324),            # the step underflows to 0
        (0.0, 1e-323),
        (-1e308, 1e308),          # the span overflows to inf
        (0.0, np.inf),
        (1.0, 1.0),               # empty span
    ])
    def test_ticks_fall_back_to_one_tick(self, lo, hi):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ticks = svgplot._ticks(lo, hi)
        assert ticks.tolist() == [lo]

    def test_tiny_spans_with_a_positive_step_keep_several_ticks(self):
        np.testing.assert_allclose(svgplot._ticks(0.0, 1e-310), np.arange(6) * 2e-311, rtol=1e-12)
        assert len(svgplot._ticks(0.0, 3e-322)) > 1

    @pytest.mark.parametrize("x, y", [
        ([-1e308, 1e308], [1.0, 2.0]),      # the x span overflows
        ([0.0, 1.0], [-1e308, 1e308]),      # the y span overflows
        ([0.0, 1.0], [0.0, 1.75e308]),      # the y span fits, its 4% pad does not
    ])
    def test_overflowing_axis_span_is_refused_before_writing(self, tmp_path, x, y):
        path = tmp_path / "p.svg"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="axis span overflows"):
                emit_plot_svg(x, [("y", y)], path)
        assert not path.exists()

    def test_subnormal_x_span_plots_without_warnings(self, tmp_path):
        path = tmp_path / "p.svg"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            emit_plot_svg([0.0, 5e-324], [("y", [1.0, 2.0])], path)
        assert path.read_text().count("<polyline") == 1


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
            cli.parse_phase("pi/0")
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


SCAN_FLAGS = {"--modules", "--phi", "--points", "--ramp-start", "--ramp-end", "--scan-duration",
              "--bin-duration", "--cycles-per-ramp", "--circuit"}
SOURCE_NOISE_FLAGS = {"--mean-photons", "--window-duration", "--seed", "--workers", "--noise",
                      "--dark-rate", "--detector-efficiency", "--phase-jitter-sigma",
                      "--phase-jitter-correlation", "--intensity-drift-fraction"}
COMMON_FLAGS = {"-h", "--help", "--config", "--out"}

# Every value a run of each subcommand can take from a flag or from its config key.
EVERY_OPTION = {
    "analytic": {"modules": "3", "phi": "pi/3", "points": "50", "ramp_start": "5",
                 "ramp_end": "80", "scan_duration": "10", "bin_duration": "0.2",
                 "cycles_per_ramp": "7", "i0": "2.5"},
    "simulate": {"modules": "3", "phi": "pi/3", "points": "50", "ramp_start": "5",
                 "ramp_end": "80", "scan_duration": "10", "bin_duration": "0.2",
                 "cycles_per_ramp": "7", "mean_photons": "0.3", "window_duration": "1e-6",
                 "seed": "4", "workers": "3", "noise": "none", "dark_rate": "50",
                 "detector_efficiency": "0.9", "phase_jitter_sigma": "0.02",
                 "phase_jitter_correlation": "2", "intensity_drift_fraction": "0.02"},
    "sensitivity": {"max_m": "2", "grid": "30000"},
}


class TestOptionTable:
    def test_each_subcommand_keeps_its_option_strings(self):
        _, commands = cli._build_parser()
        expected = {
            "analytic": COMMON_FLAGS | SCAN_FLAGS | {"--i0"},
            "simulate": COMMON_FLAGS | SCAN_FLAGS | SOURCE_NOISE_FLAGS,
            "scan": COMMON_FLAGS | SCAN_FLAGS | SOURCE_NOISE_FLAGS | {"--mode"},
            "analyze": COMMON_FLAGS | {"--in", "--column", "--prominence"},
            "sensitivity": COMMON_FLAGS | {"--max-m", "--grid"},
        }
        got = {name: {s for action in p._actions for s in action.option_strings}
               for name, p in commands.items()}
        assert got == expected

    def test_config_keys_are_the_flag_names(self):
        flags = SCAN_FLAGS | SOURCE_NOISE_FLAGS | {"--i0", "--mode", "--column", "--prominence",
                                                   "--max-m", "--grid"}
        assert len(cli._OPTIONS) == 25
        assert {"--" + key.replace("_", "-") for key in cli._OPTIONS} == flags

    @pytest.mark.parametrize("command", sorted(EVERY_OPTION))
    def test_config_file_and_flags_give_the_same_run(self, tmp_path, command):
        options = EVERY_OPTION[command]
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{key}={value}\n" for key, value in options.items()))
        by_file, by_flags = tmp_path / "file.out", tmp_path / "flags.out"
        assert cli.dispatch([command, "--config", str(cfg), "--out", str(by_file)]) == 0
        flags = [f"--{key.replace('_', '-')}={value}" for key, value in options.items()]
        assert cli.dispatch([command, *flags, "--out", str(by_flags)]) == 0
        assert by_file.read_bytes() == by_flags.read_bytes()
        assert cli.dispatch([command, "--out", str(tmp_path / "default.out")]) == 0
        assert (tmp_path / "default.out").read_bytes() != by_file.read_bytes()

    def test_keys_of_other_subcommands_are_ignored_unchecked(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("points=20\nscan_duration=2\nmode=bogus\ngrid=abc\nmax_m=x\n"
                       "column=nope\nprominence=nan\ni0=-1\n")
        out = tmp_path / "o.csv"
        assert cli.dispatch(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert len(read_trace_csv(out)) == 20

    @pytest.mark.parametrize("command", ["simulate", "scan"])
    def test_unread_option_in_config_is_checked_like_its_flag(self, tmp_path, capsys, command):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("points=20\nscan_duration=2\nworkers=abc\n")
        out = tmp_path / "out"
        assert cli.dispatch([command, "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("cbwsim: error: config key 'workers': ") and err.count("\n") == 1
        assert not out.exists()


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

    @pytest.mark.parametrize("flags, field", [
        (["--phi", "pi/0"], "division by zero"),
        (["--phi", "nan"], "phi"),
        (["--ramp-start=-inf"], "ramp_start"),
        (["--ramp-end", "nan"], "ramp_end"),
        (["--scan-duration", "nan"], "scan_duration"),
        (["--bin-duration", "inf"], "bin_duration"),
        (["--cycles-per-ramp", "nan"], "cycles_per_full_ramp"),
    ])
    @pytest.mark.parametrize("command", ["analytic", "scan"])
    def test_non_finite_scan_settings_exit_one(self, tmp_path, capsys, command, flags, field):
        out = tmp_path / "x"
        mode = ["--mode", "classical"] if command == "scan" else []
        assert cli.dispatch([command, "--points", "10", *mode, *flags, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("cbwsim: error: ") and err.count("\n") == 1
        assert field in err
        assert not out.exists()

    def test_phase_in_config_file_checked_too(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("phi=3pi/0\n")
        assert cli.dispatch(["analytic", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("cbwsim: error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command, key", [("simulate", "noise"), ("scan", "noise"),
                                              ("scan", "mode")])
    def test_config_choices_checked_like_the_flags(self, tmp_path, capsys, command, key):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"{key}=bogus\npoints=100\nscan_duration=10\n")
        out = tmp_path / ("o.csv" if command == "simulate" else "out")
        assert cli.dispatch([command, "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"cbwsim: error: config key '{key}': ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_non_finite_or_negative_i0_exits_one(self, tmp_path, capsys, value):
        out = tmp_path / "x.csv"
        assert cli.dispatch(["analytic", "--points", "10", f"--i0={value}", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("cbwsim: error: i0 ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["photon", "classical"])
    def test_unbound_circuit_parameters_exit_one_unquoted(self, tmp_path, capsys, mode):
        mzi_file = tmp_path / "theta.mzi"
        mzi_file.write_text("mzi C arm=lower phase=psi\nphase arm=upper value=theta\n"
                            "mzi W arm=upper phase=alpha\ndetect a b\n")
        out = tmp_path / "x"
        code = cli.dispatch(["scan", "--mode", mode, "--points", "20", "--circuit", str(mzi_file),
                             "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err == "cbwsim: error: unbound circuit parameters 'alpha', 'theta'\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", [["scan", "--mode", "classical"], ["simulate"]])
    def test_overflowing_circuit_intensity_exits_one(self, tmp_path, capsys, command):
        mzi_file = tmp_path / "big.mzi"
        mzi_file.write_text("source intensity=1e400\nmzi C arm=lower phase=psi\ndetect a b\n")
        out = tmp_path / "x"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.dispatch([*command, "--points", "20", "--circuit", str(mzi_file),
                                 "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == ("cbwsim: error: line 1, column 18: intensity '1e400' "
                                           "overflows to inf (expected <finite number>)\n")
        assert not out.exists()

    def test_unbound_parameter_error_str_is_the_plain_message(self):
        assert str(UnboundParameterError("theta")) == "unbound circuit parameter 'theta'"

    def test_analyze_finds_extrema_once(self, tmp_path, monkeypatch):
        trace_csv = tmp_path / "trace.csv"
        cli.dispatch(["analytic", "--points", "2000", "--out", str(trace_csv)])
        calls = []
        find_extrema = experiment.find_extrema

        def counting(*args, **kwargs):
            calls.append(1)
            return find_extrema(*args, **kwargs)

        monkeypatch.setattr(experiment, "find_extrema", counting)
        report = tmp_path / "stats.json"
        assert cli.dispatch(["analyze", "--in", str(trace_csv), "--out", str(report)]) == 0
        assert len(calls) == 1
        payload = json.loads(report.read_text())
        trace = read_trace_csv(trace_csv)
        stats = experiment.fringe_stats(trace.singles_d1, trace.psi)
        assert payload["fringe_count"] == stats.fringe_count
        assert payload["visibility_mean"] == stats.visibility_mean
        assert payload["maxima"] == [list(m) for m in stats.maxima]

    def test_subnormal_scan_writes_both_outputs_without_warnings(self, tmp_path, capsys):
        out = tmp_path / "x"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.dispatch(["scan", "--mode", "classical", "--noise", "none", "--points", "3",
                                 "--bin-duration", "5e-324", "--scan-duration", "1.5e-323",
                                 "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().err == ""
        assert sorted(p.name for p in out.iterdir()) == ["trace.csv", "trace.svg"]
        assert len(read_trace_csv(out / "trace.csv")) == 3

    @pytest.mark.parametrize("mode", ["photon", "classical"])
    def test_failed_plot_leaves_no_partial_output(self, tmp_path, capsys, monkeypatch, mode):
        def failing_plot(*args, **kwargs):
            raise ValueError("plot failed")

        monkeypatch.setattr(cli, "emit_plot_svg", failing_plot)
        out = tmp_path / "x"
        code = cli.dispatch(["scan", "--mode", mode, "--points", "20", "--bin-duration", "1e-6",
                             "--scan-duration", "2e-5", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == "cbwsim: error: plot failed\n"
        assert list(out.iterdir()) == []

    def test_failed_scan_keeps_earlier_outputs(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "x"
        flags = ["scan", "--points", "20", "--bin-duration", "1e-6", "--scan-duration", "2e-5",
                 "--out", str(out)]
        assert cli.dispatch(flags) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}

        def failing_plot(*args, **kwargs):
            raise ValueError("plot failed")

        monkeypatch.setattr(cli, "emit_plot_svg", failing_plot)
        assert cli.dispatch([*flags, "--seed", "2"]) == 1
        capsys.readouterr()
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @pytest.mark.parametrize("command", ["scan", "simulate"])
    @pytest.mark.parametrize("flags", [
        ["--window-duration", "1e-300", "--points", "10", "--scan-duration", "1e-3",
         "--bin-duration", "1e-4"],
        ["--points", "10", "--scan-duration", "1e308", "--bin-duration", "1e300"],
        ["--window-duration", "1e-300", "--points", "10", "--scan-duration", "1e308",
         "--bin-duration", "1e300"],
    ])
    def test_too_many_windows_per_bin_exits_one(self, tmp_path, capsys, command, flags):
        out = tmp_path / ("x" if command == "scan" else "x.csv")
        assert cli.dispatch([command, *flags, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("cbwsim: error: bin_duration / window_duration") and err.count("\n") == 1
        assert "2**53" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["analytic", "simulate", "scan"])
    @pytest.mark.parametrize("points", [config.MAX_POINTS + 1, 10**12, 10**30])
    def test_points_above_the_cap_exit_one(self, tmp_path, capsys, command, points):
        out = tmp_path / "x"
        # The scan duration fits the points, so only the cap rejects them.
        flags = ["--points", str(points), "--scan-duration", repr(points * 0.1)]
        assert cli.dispatch([command, *flags, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"cbwsim: error: points must be at most {config.MAX_POINTS}, got {points}\n"
        assert not out.exists()

    @pytest.mark.parametrize("grid", [experiment.MAX_GRID_POINTS + 1, 10**12, 10**30])
    def test_grid_above_the_cap_exits_one(self, tmp_path, capsys, grid):
        out = tmp_path / "s.json"
        assert cli.dispatch(["sensitivity", "--grid", str(grid), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == (f"cbwsim: error: grid must have at most {experiment.MAX_GRID_POINTS} "
                       f"points, got {grid}\n")
        assert not out.exists()

    def test_unreachable_max_m_exits_one_before_any_order(self, tmp_path, capsys, monkeypatch):
        calls = []
        evaluate = experiment.circuit_mod.output_intensities
        monkeypatch.setattr(experiment.circuit_mod, "output_intensities",
                            lambda *a, **k: calls.append(a) or evaluate(*a, **k))
        out = tmp_path / "s.json"
        assert cli.dispatch(["sensitivity", "--grid", "200000", "--max-m", "30",
                             "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "cbwsim: error: grid must resolve >= 10000 points per fringe period\n"
        assert calls == []
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--ramp-end", "1e-320"], "phase per volt 2*pi*10.5/1e-320 is not finite"),
        (["--ramp-start=-1e308", "--ramp-end", "1e308"], "ramp_end - ramp_start overflows a double"),
    ])
    @pytest.mark.parametrize("command", ["analytic", "simulate", "scan"])
    def test_ramp_span_out_of_range_exits_one_on_one_line(self, tmp_path, capsys, command,
                                                          flags, message):
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.dispatch([command, *flags, "--points", "10", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"cbwsim: error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["simulate", "--points", "10", "--scan-duration", "1", "--seed", "1",
          "--phase-jitter-sigma", "1", "--phase-jitter-correlation", "1e-320"],
         "overflows the phase-jitter walk"),
        (["simulate", "--points", "1000", "--scan-duration", "100", "--phase-jitter-sigma", "1e308"],
         "overflows the phase-jitter walk"),
        (["scan", "--mode", "classical", "--points", "5000", "--seed", "2",
          "--intensity-drift-fraction", "1.7e308"],
         "intensity_drift_fraction 1.7e+308 overflows the intensity-drift walk"),
        (["analytic", "--modules", "20000", "--points", "10"],
         f"modules must be at most {config.MAX_MODULES}, got 20000"),
        (["scan", "--modules", "100000000"],
         f"modules must be at most {config.MAX_MODULES}, got 100000000"),
        (["simulate", f"--modules={config.MAX_MODULES + 1}", "--points", "10"],
         f"modules must be at most {config.MAX_MODULES}, got {config.MAX_MODULES + 1}"),
        (["scan", "--seed=-1", "--points", "10"], "seed must be a non-negative integer, got -1"),
        (["simulate", "--seed=-7", "--points", "10"], "seed must be a non-negative integer, got -7"),
        (["analytic", "--scan-duration", "1e308", "--bin-duration", "1e308"],
         "points * bin_duration overflows a double"),
    ], ids=["jitter-subnormal-correlation", "jitter-huge-sigma", "drift-huge-fraction",
            "modules-20000", "modules-1e8", "modules-cap-plus-one", "seed-negative-scan",
            "seed-negative-simulate", "bin-times-overflow"])
    def test_out_of_range_noise_modules_seed_exit_one(self, tmp_path, capsys, argv, message):
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.dispatch([*argv, "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("cbwsim: error: ") and err.count("\n") == 1
        assert message in err
        if "walk" in message:
            assert ("phase_jitter_sigma" if "phase" in message else "intensity_drift_fraction") in err
        assert not out.exists()

    def test_negative_seed_in_config_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=-3\npoints=10\n")
        out = tmp_path / "o.csv"
        assert cli.dispatch(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "cbwsim: error: seed must be a non-negative integer, got -3\n"
        assert not out.exists()

    def test_huge_i0_sweeps_without_overflow(self, tmp_path):
        out = tmp_path / "o.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for modules in ("1", "2"):
                assert cli.dispatch(["analytic", "--modules", modules, "--points", "100",
                                     "--i0", "1e308", "--out", str(out)]) == 0
                trace = read_trace_csv(out)
                assert np.max(trace.singles_d1 + trace.singles_d2) <= 1e308 * (1 + 1e-15)

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
