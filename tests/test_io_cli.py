import dataclasses
import errno
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbwsim import _chunks, cli, config, experiment, montecarlo, optics, svgplot, trace_io
from cbwsim._chunks import CHUNK_ROWS
from cbwsim.circuit import (
    MAX_ELEMENTS,
    MAX_MODULES,
    UnboundParameterError,
    build_cbw_chain,
    parse_circuit,
)
from cbwsim.config import ConfigError, NoiseModel, ScanConfig, SourceMode, SourceModel
from cbwsim.montecarlo import CountTrace, simulate_classical_trace, simulate_scan_counts
from cbwsim.svgplot import emit_plot_svg
from cbwsim.trace_io import (
    CLASSICAL_HEADER,
    PHOTON_HEADER,
    measured_columns,
    read_trace_csv,
    write_trace_csv,
)

SRC_DIR = Path(__file__).resolve().parents[1] / "src"
SCHEMA_DIR = SRC_DIR / "cbwsim" / "schemas"
DATA_DIR = Path(__file__).resolve().parent / "data"
# sha256 of each output file, keyed by the command line that writes it.
OUTPUT_DIGESTS = json.loads((DATA_DIR / "output_sha256.json").read_text())


def photon_trace(points=24, seed=5):
    scan = ScanConfig(points=points, bin_duration=0.001, scan_duration=points * 0.001)
    source = SourceModel(mean_photons_per_window=0.4, window_duration=1e-6)
    return simulate_scan_counts(scan, source, NoiseModel(), seed=seed)


def classical_trace(points=24):
    scan = ScanConfig(points=points, bin_duration=0.1, scan_duration=points * 0.1)
    return simulate_classical_trace(scan, NoiseModel(), seed=0)


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

    # In a fresh process: importing the CLI builds no digit table, and one
    # write builds it once.
    def test_the_digit_table_is_built_on_the_first_write(self, tmp_path):
        script = (
            "import cbwsim.cli\n"
            "from cbwsim import trace_io\n"
            "from cbwsim.config import NoiseModel, ScanConfig\n"
            "from cbwsim.montecarlo import simulate_classical_trace\n"
            "print(trace_io._digit_table.cache_info().misses)\n"
            "scan = ScanConfig(points=4, bin_duration=0.1, scan_duration=0.4)\n"
            "trace_io.write_trace_csv(simulate_classical_trace(scan, NoiseModel(), seed=0), 't.csv')\n"
            "print(trace_io._digit_table.cache_info().misses)\n"
        )
        done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                              env={**os.environ, "PYTHONPATH": str(SRC_DIR)},
                              capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout, done.stderr) == (0, "0\n1\n", "")


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


def near_powers_of_ten(count=8) -> np.ndarray:
    """The doubles nearest 1e-4 .. 1e17, where the decimal exponent of a
    double after rounding to 17 digits changes or %.17g switches notation,
    and the ``count`` doubles either side of each."""
    powers = np.array([float(f"1e{k}") for k in range(-4, 18)])
    values, below, above = [powers], powers, powers
    for _ in range(count):
        below, above = np.nextafter(below, 0), np.nextafter(above, np.inf)
        values += [below, above]
    return np.concatenate(values)


def assert_bits_equal(a, b):
    """Equal values and dtypes, with -0.0 told apart from 0.0."""
    assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


# Row counts around the seams of the fixed row chunks.
SEAM_LENGTHS = [0, 1, 2, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 2 * CHUNK_ROWS,
                3 * CHUNK_ROWS + 7]


def fixed_notation_doubles(rng, n):
    """Doubles of 17 significant digits that %.17g writes in fixed notation:
    log-uniform in [1e-4, 1e17), of either sign."""
    return 10.0 ** rng.uniform(-4, 17, n) * rng.choice([-1.0, 1.0], n)


def wide_trace(mode, n, seed=0, counts=np.int64, floats=random_doubles):
    """A trace whose every field formats as wide as it can: 17-digit floats
    (of every exponent, or as ``floats`` draws them), and in photon mode
    19-digit counts and bin indices (integral doubles below 2**53 when
    ``counts`` is float)."""
    rng = np.random.default_rng(seed)
    if mode is SourceMode.PHOTON_COUNTING:
        top = 2**53 if counts is float else 2**62
        d1 = rng.integers(top // 2, top, n).astype(counts)
        d2 = rng.integers(top // 2, top, n).astype(counts)
        coinc = np.minimum(d1, d2) // 2
    else:
        d1, d2, coinc = np.abs(floats(rng, n)), np.abs(floats(rng, n)), None
    trace = make_trace(mode, floats(rng, n), floats(rng, n), floats(rng, n), d1, d2, coinc)
    if mode is SourceMode.PHOTON_COUNTING and counts is not float:
        trace.bin_index = trace.bin_index + 2**62
    return trace


# Per mode: the CSV header, and a small trace of that mode.
MODES = {"photon": (PHOTON_HEADER, photon_trace), "classical": (CLASSICAL_HEADER, classical_trace)}


class TestColumnTable:
    """The one column table of ``trace_io`` is what the CSV, the scan plot
    and ``analyze`` agree on, in both source modes."""

    @pytest.fixture(scope="class")
    def scans(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("columns")
        for mode in MODES:
            assert cli.dispatch(["scan", "--mode", mode, "--points", "400", "--seed", "3",
                                 "--out", str(root / mode)]) == 0
        return root

    def test_headers_keep_their_columns(self):
        assert PHOTON_HEADER == ("bin", "time_s", "voltage_V", "psi_rad", "d1", "d2", "coinc")
        assert CLASSICAL_HEADER == ("bin", "time_s", "voltage_V", "psi_rad", "i_gamma", "i_delta")

    @pytest.mark.parametrize("mode", list(MODES))
    def test_plot_legend_is_the_measured_header(self, scans, mode):
        header = (scans / mode / "trace.csv").read_text().splitlines()[0].split(",")
        svg = (scans / mode / "trace.svg").read_text()
        legend = re.findall(r'class="legend"/>\s*<text[^>]*>([^<]*)</text>', svg)
        assert tuple(header) == MODES[mode][0]
        assert legend == header[header.index("psi_rad") + 1:]

    @pytest.mark.parametrize("mode", list(MODES))
    def test_analyze_takes_exactly_the_measured_columns(self, scans, tmp_path, capsys, mode):
        header = MODES[mode][0]
        measured = list(header[header.index("psi_rad") + 1:])
        trace_csv = str(scans / mode / "trace.csv")
        for column in measured:
            out = tmp_path / f"{column}.json"
            assert cli.dispatch(["analyze", "--in", trace_csv, "--column", column,
                                 "--out", str(out)]) == 0
            assert json.loads(out.read_text())["column"] == column
        others = set(PHOTON_HEADER + CLASSICAL_HEADER + ("bogus", "")) - set(measured)
        capsys.readouterr()
        for column in sorted(others):
            assert cli.dispatch(["analyze", "--in", trace_csv, "--column", column]) == 1
            assert capsys.readouterr().err == (f"cbwsim: error: unknown column {column!r}; "
                                               f"choose from {sorted(measured)}\n")

    @pytest.mark.parametrize("mode", list(MODES))
    def test_measured_columns_survive_the_csv_bit_for_bit(self, tmp_path, mode):
        header, make = MODES[mode]
        trace = make()
        write_trace_csv(trace, tmp_path / "t.csv")
        written, back = measured_columns(trace), measured_columns(read_trace_csv(tmp_path / "t.csv"))
        assert list(written) == list(back) == list(header[header.index("psi_rad") + 1:])
        for name, values in written.items():
            assert_bits_equal(back[name], values)


EDGE_FLOATS = [-0.0, 0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e300, -1e300, 1e308,
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
    def test_empty_trace_is_its_header(self, tmp_path, mode):
        empty = np.zeros(0, dtype=np.int64)
        coinc = empty if mode is SourceMode.PHOTON_COUNTING else None
        trace = make_trace(mode, [], [], [], empty, empty, coinc)
        path = tmp_path / "t.csv"
        write_trace_csv(trace, path)
        assert path.read_bytes() == oracle_csv(trace)
        assert path.read_bytes().count(b"\n") == 1
        assert len(read_trace_csv(path)) == 0

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

    def test_fractional_photon_counts_are_not_written(self, tmp_path):
        # Written through int64 they would read back as 3 and 0.
        trace = make_trace(SourceMode.PHOTON_COUNTING, [0.0, 1.0, 2.0], [0.0] * 3, [0.0] * 3,
                           np.array([3.7, 2, 1]), np.array([4, 4, 4]), np.array([0.9, 0, 0]))
        path = tmp_path / "t.csv"
        with pytest.raises(ValueError, match="^singles_d1 must hold whole numbers within int64$"):
            write_trace_csv(trace, path)
        assert not path.exists()

    # Each chunk of rows is formatted on its own; a missing or doubled line
    # end where two chunks meet changes the bytes.
    @pytest.mark.parametrize("n", SEAM_LENGTHS)
    @pytest.mark.parametrize("mode, counts", [
        (SourceMode.PHOTON_COUNTING, np.int64),
        (SourceMode.PHOTON_COUNTING, float),      # whole-number counts held as floats
        (SourceMode.CLASSICAL_INTENSITY, float),
    ], ids=["photon-int", "photon-float", "classical"])
    def test_chunk_seams_keep_the_oracle_bytes(self, tmp_path, n, mode, counts):
        trace = wide_trace(mode, n, seed=n, counts=counts)
        path = tmp_path / "t.csv"
        write_trace_csv(trace, path)
        assert path.read_bytes() == oracle_csv(trace)
        back = read_trace_csv(path)
        assert back.mode is mode and len(back) == n
        for field in ("bin_index", "time", "voltage", "psi"):
            assert_bits_equal(getattr(back, field), getattr(trace, field))
        for field in ("singles_d1", "singles_d2"):
            np.testing.assert_array_equal(getattr(back, field), getattr(trace, field))

    # The formatter's own rounding: where %.17g uses fixed notation, the 17
    # digits, the decimal exponent and the point come from numpy, not from
    # %-formatting, so each decision below is checked against the oracle.
    def assert_floats_match_oracle(self, tmp_path, values):
        """Every float column of a classical trace holds ``values`` (the
        intensities their magnitudes), and the file is the oracle's."""
        values = np.asarray(values, dtype=float)
        trace = make_trace(SourceMode.CLASSICAL_INTENSITY, values, -values[::-1], values[::-1],
                           np.abs(values), np.abs(values[::-1]))
        path = tmp_path / "t.csv"
        write_trace_csv(trace, path)
        assert path.read_bytes().split(b"\n") == oracle_csv(trace).split(b"\n")

    @pytest.mark.parametrize("seed", [0, 1])
    def test_log_uniform_doubles_of_fixed_notation(self, tmp_path, seed):
        values = fixed_notation_doubles(np.random.default_rng(seed), 3 * CHUNK_ROWS)
        self.assert_floats_match_oracle(tmp_path, values[np.abs(values) < 1e17])

    def test_ties_at_the_17th_digit_round_half_to_even(self, tmp_path):
        # 1 + k * 2**-17 has 18 significant digits, its last a 5.
        k = np.arange(1, 2**17, 2)
        self.assert_floats_match_oracle(tmp_path, 1.0 + k * 2.0**-17)

    def test_powers_of_ten_and_their_neighbours(self, tmp_path):
        # Where the decimal exponent of a value changes.
        self.assert_floats_match_oracle(tmp_path, near_powers_of_ten())

    def test_decimal_exponents_where_they_change(self):
        # A value filed under exponent notation by mistake still gets the
        # bytes of %.17g, which writes it, so the bytes do not show a wrong
        # exponent; it is checked here against that of %.16e.
        values = np.concatenate([[0.0, -0.0], near_powers_of_ten(), -near_powers_of_ten()])
        expected = [0 if v == 0 else min(max(int(f"{v:.16e}".partition("e")[2]), -5), 17)
                    for v in values]
        np.testing.assert_array_equal(trace_io._seventeen_digits(values[None])[1], [expected])

    def test_both_switches_of_notation(self, tmp_path):
        # The doubles just below 1e-4 keep exponent notation (none rounds
        # up to 0.0001 at 17 digits); from 1e17 up every value takes it.
        low = np.nextafter(1e-4, 0) - np.arange(64) * 2.0**-66
        high = np.array([1e17, np.nextafter(1e17, np.inf), np.nextafter(1e17, 0), 2.0**57, 1e18])
        self.assert_floats_match_oracle(tmp_path, np.concatenate([low, high]))

    def test_whole_values(self, tmp_path):
        self.assert_floats_match_oracle(
            tmp_path, [123.0, 2.0**53, 2.0**53 + 2, 1.0, 10.0, 100.0, 1e15, 5e16, 12345678.0])

    def test_seventeen_digit_integers(self, tmp_path):
        rng = np.random.default_rng(3)
        self.assert_floats_match_oracle(
            tmp_path, rng.integers(10**16, 10**17, 2000).astype(float))

    def test_negative_zero(self, tmp_path):
        self.assert_floats_match_oracle(tmp_path, [-0.0, 0.0, -0.0, -1e-300, -1.5])

    def test_a_chunk_of_both_notations(self, tmp_path):
        # Rows alternate between fixed and exponent notation across two
        # chunk seams.
        n = 2 * CHUNK_ROWS + 2
        rng = np.random.default_rng(4)
        fixed = 10.0 ** rng.uniform(-4, 16, n)
        wide = 10.0 ** rng.uniform(17, 300, n) * rng.choice([1e-320, 1.0], n)
        self.assert_floats_match_oracle(tmp_path, np.where(np.arange(n) % 3 == 0, wide, fixed))

    def test_negative_and_extreme_bin_indices(self, tmp_path):
        bins = np.array([-2**63, -1, 0, -10**9, 10**9 - 1, 10**9, -9, 2**63 - 1], dtype=np.int64)
        counts = np.array([0, 1, 9, 10, 999999999, 1000000000, 2**62, 2**63 - 1], dtype=np.int64)
        trace = make_trace(SourceMode.PHOTON_COUNTING, np.zeros(8), np.zeros(8), np.zeros(8),
                           counts, counts, counts)
        trace.bin_index = bins
        path = tmp_path / "t.csv"
        write_trace_csv(trace, path)
        assert path.read_bytes() == oracle_csv(trace)


    # The integer columns share one field width and one sign place, so a
    # narrow column beside a wide one is padded and trimmed like the wide one.
    @pytest.mark.parametrize("bins, counts", [
        (np.arange(8) * 10**17, np.arange(8) % 3),                      # bins wider
        (np.arange(8), np.array([2**63 - 1, 10**18, 0, 1, 9, 10, 99999, 2**62])),  # counts wider
        (-np.arange(8) * 7, np.arange(8) * 10**15),                     # negative bins
        (np.array([-2**63, 3, -1, 0, -10**18, 5, -9, 1]), np.arange(8)),
    ], ids=["wide-bins", "wide-counts", "negative-bins", "extreme-negative-bins"])
    def test_integer_columns_of_other_widths_and_signs(self, tmp_path, bins, counts):
        counts = np.asarray(counts, dtype=np.int64)
        trace = make_trace(SourceMode.PHOTON_COUNTING, np.zeros(8), np.zeros(8), np.zeros(8),
                           counts, counts[::-1].copy(), np.minimum(counts, counts[::-1]))
        trace.bin_index = np.asarray(bins, dtype=np.int64)
        path = tmp_path / "t.csv"
        write_trace_csv(trace, path)
        assert path.read_bytes() == oracle_csv(trace)

    # Each chunk takes its integer width and sign from its own rows: int64's
    # extremes on one side of a seam, small values on the other.
    @pytest.mark.parametrize("extreme_first", [True, False])
    def test_int64_extremes_beside_a_chunk_seam(self, tmp_path, extreme_first):
        n = 2 * CHUNK_ROWS
        extreme = (np.arange(n) < CHUNK_ROWS) == extreme_first
        bins = np.where(extreme, np.where(np.arange(n) % 2, 2**63 - 1, -2**63), np.arange(n))
        counts = np.where(extreme, 2**63 - 1 - np.arange(n), np.arange(n) % 7).astype(np.int64)
        trace = make_trace(SourceMode.PHOTON_COUNTING, np.zeros(n), np.zeros(n), np.zeros(n),
                           counts, counts, counts // 2)
        trace.bin_index = bins.astype(np.int64)
        path = tmp_path / "t.csv"
        write_trace_csv(trace, path)
        assert path.read_bytes() == oracle_csv(trace)

    # Every chunk is formatted on its own, so the chunk size changes no byte.
    @pytest.mark.parametrize("mode, counts", [
        (SourceMode.PHOTON_COUNTING, np.int64),
        (SourceMode.CLASSICAL_INTENSITY, float),
    ], ids=["photon", "classical"])
    def test_bytes_do_not_depend_on_the_chunk_size(self, tmp_path, monkeypatch, mode, counts):
        trace = wide_trace(mode, 1500, seed=9, counts=counts)
        files = []
        for size in (1, 7, 1024):
            monkeypatch.setattr(trace_io, "row_chunks", lambda n, size=size: _chunks.row_chunks(n, size))
            files.append(tmp_path / f"{size}.csv")
            write_trace_csv(trace, files[-1])
        assert files[0].read_bytes() == files[1].read_bytes() == files[2].read_bytes()
        assert files[0].read_bytes() == oracle_csv(trace)


MALFORMED_ROWS = [
    "1,0.1,0.2,0.3,5,4",          # short row
    "1,0.1,0.2,0.3,5,4,2,9",      # long row
    "1,0.1,volts,0.3,5,4,2",      # non-numeric field
    "1,0.1,0.2,0.3,3.5,4,2",      # non-integer count
]


class TestReaderRejects:
    GOOD = "0,0,0,0,5,4,2"

    @pytest.mark.parametrize("row", MALFORMED_ROWS)
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


def line_filter_read(path) -> CountTrace:
    """The reader of a whole text: the text read at once and split into
    lines, blank and whitespace-only lines dropped, the rest parsed at once,
    with no blocks of text and no count of lines first.  The oracle of
    :func:`read_trace_csv` on any file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise OSError(f"cannot read trace CSV {path}: {exc}") from exc
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError(f"{path}: empty trace file")
    header = tuple(lines[0].split(","))
    if header not in (PHOTON_HEADER, CLASSICAL_HEADER):
        raise ValueError(f"{path}: unrecognised trace header {lines[0]!r}")
    dtype = np.dtype([(name, np.int64 if name in ("bin", "d1", "d2", "coinc") else float)
                      for name in header])
    if len(lines) > 1:
        try:
            table = np.loadtxt(lines[1:], delimiter=",", dtype=dtype, comments=None, ndmin=1)
        except ValueError as exc:
            reason = str(exc).split("; use `usecols`")[0]
            raise ValueError(f"{path}: malformed trace data: {reason}") from None
    else:
        table = np.zeros(0, dtype=dtype)
    fields = {"coincidences": np.zeros(len(table))}
    fields.update((field, np.array(table[name])) for name, field in zip(header, TRACE_FIELDS))
    photon = header == PHOTON_HEADER
    trace = CountTrace(mode=SourceMode.PHOTON_COUNTING if photon else SourceMode.CLASSICAL_INTENSITY,
                       **fields)
    try:
        trace.validate()
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return trace


TRACE_FIELDS = ("bin_index", "time", "voltage", "psi", "singles_d1", "singles_d2", "coincidences")
# The fields of a trace read without its time and voltage axes.
REDUCED_FIELDS = tuple(f for f in TRACE_FIELDS if f not in ("time", "voltage"))


def read_outcome(read, path, fields=TRACE_FIELDS):
    """The trace ``read(path)`` gives, as mode, dtypes and bytes of
    ``fields``, or the type and message of what it raises."""
    try:
        trace = read(path)
    except Exception as exc:
        return type(exc), str(exc)
    return trace.mode, [(getattr(trace, f).dtype, getattr(trace, f).tobytes()) for f in fields]


# Characters that ``str.splitlines`` takes as line ends but a file read by
# lines does not, or that are whitespace inside a field.
ODD_CHARS = ["\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", " ", "\t"]
ODD_FIELDS = ["3.5", "", "nan", "inf", "-1", "1e3", "+7", " 4", "4\t", "x", "9223372036854775808"]
ODD_LINE_ENDS = ["\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\n\n", "\n  \n",
                 "\n\t\n"]


@st.composite
def valid_rows(draw, columns) -> list:
    """The fields of one row that reads back as a valid trace row."""
    finite = st.floats(allow_nan=False, allow_infinity=False)
    values = [draw(st.integers(0, 2**62)), draw(finite), draw(finite), draw(finite)]
    if columns == PHOTON_HEADER:
        d1, d2 = draw(st.integers(0, 2**62)), draw(st.integers(0, 2**62))
        values += [d1, d2, draw(st.integers(0, min(d1, d2)))]
    else:
        values += [draw(finite.map(abs)), draw(finite.map(abs))]
    return [str(v) if isinstance(v, int) else format(v, ".17g") for v in values]


# The edits where the read in blocks of text could differ (whitespace next
# to a comma that splits the row for ``str.splitlines``, a line end that a
# file read by lines does not split on) are drawn three times as often.
EDITS = ["field", "short", "long", "char", "blank line", "header", "no last line end", "bytes",
         *["char at an edge", "line end"] * 3]


@st.composite
def trace_files(draw) -> bytes:
    """Trace CSVs as the writer writes them, then with up to three edits
    such as a person or another tool might make: an odd field, a short or
    long row, an odd character inside a row (often next to a comma, where
    numpy's parser takes whitespace), an odd line end, a blank or
    whitespace-only line, a changed header, a missing last line end or
    bytes that are not UTF-8."""
    columns = draw(st.sampled_from([PHOTON_HEADER, CLASSICAL_HEADER]))
    lines = [",".join(columns)] + [",".join(draw(valid_rows(columns)))
                                   for _ in range(draw(st.integers(0, 8)))]
    ends = ["\n"] * len(lines)
    invalid = None
    for edit in draw(st.lists(st.sampled_from(EDITS), max_size=3)):
        at = draw(st.integers(0, len(lines) - 1))
        fields = lines[at].split(",")
        if edit == "field":
            fields[draw(st.integers(0, len(fields) - 1))] = draw(st.sampled_from(ODD_FIELDS))
            lines[at] = ",".join(fields)
        elif edit in ("short", "long"):
            lines[at] = ",".join(fields[:-1] if edit == "short" else fields + ["1"])
        elif edit.startswith("char"):
            edges = [0, len(lines[at])] + [i + d for i, c in enumerate(lines[at]) if c == "," for d in (0, 1)]
            where = (st.sampled_from(edges) if edit == "char at an edge"
                     else st.integers(0, len(lines[at])))
            i = draw(where)
            lines[at] = lines[at][:i] + draw(st.sampled_from(ODD_CHARS)) + lines[at][i:]
        elif edit == "line end":
            ends[at] = draw(st.sampled_from(ODD_LINE_ENDS))
        elif edit == "blank line":
            lines.insert(at, draw(st.sampled_from(["", " ", "\t", "\x0c"])))
            ends.insert(at, "\n")
        elif edit == "header":
            lines[0] = draw(st.sampled_from(["bin,time_s", lines[0] + " ", ""]))
        elif edit == "no last line end":
            ends[-1] = ""
        else:
            invalid = draw(st.sampled_from([b"\xff", b"\xc3(", b"\xe2\x80"]))
    data = "".join(map(str.__add__, lines, ends)).encode()
    if invalid is not None:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + invalid + data[at:]
    return data


def read_ends(data: bytes, size: int) -> list:
    """Where in the ASCII text ``data`` the reader's reads of ``size``
    characters end: each block of text is such a read and the rest of the
    line it ends in."""
    ends, start = [], 0
    while start + size < len(data):
        ends.append(start + size)
        start = data.find(b"\n", start + size) + 1 or len(data)
    return ends


def line_end_at(offset: int, end: str) -> str:
    """A photon trace CSV whose character ``offset`` starts the line end
    ``end``, with rows before and after."""
    lines, size = [",".join(PHOTON_HEADER)], len(",".join(PHOTON_HEADER))
    while size + 20 < offset:
        lines.append(f"{len(lines)},0.5,1,2,3,4,1")
        size += 1 + len(lines[-1])
    # Trailing zeros of the last row's time field move its end to ``offset``.
    lines[-1] = lines[-1].replace(",0.5,", ",0.5" + "0" * (offset - size) + ",")
    after = [f"{i},0.25,1,2,3,4,1" for i in range(len(lines), len(lines) + 20)]
    return "\n".join(lines) + end + "\n".join(after) + "\n"


class TestReaderMatchesLineFilter:
    """The block-by-block reader against the whole-text line filter:
    the same trace bit for bit, or the same exception type and message."""

    @settings(max_examples=250, deadline=None)
    @given(data=trace_files())
    def test_same_trace_or_same_error(self, tmp_path_factory, data):
        path = tmp_path_factory.getbasetemp() / "fuzz.csv"
        path.write_bytes(data)
        assert read_outcome(read_trace_csv, path) == read_outcome(line_filter_read, path)

    # Each character that ``str.splitlines`` takes as a line end, and some
    # other whitespace, at each place in a row where it could change how
    # the row splits or parses.
    @pytest.mark.parametrize("char", ["\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
                                      "\x85", "\u2028", "\u2029", " ", "\t", "\xa0"])
    @pytest.mark.parametrize("where", ["after a comma", "before a comma", "inside a number",
                                       "row start", "row end", "instead of a line end"])
    def test_odd_characters_read_as_before(self, tmp_path, char, where):
        first, row = "0,0.5,1,2,3,4,1", "1,0.25,1,2,15,4,2"
        at = {"after a comma": row.index(",") + 1, "before a comma": row.index(","),
              "inside a number": row.index("15") + 1, "row start": 0, "row end": len(row)}
        if where in at:
            text = f"{first}\n{row[:at[where]]}{char}{row[at[where]:]}\n"
        else:
            text = f"{first}{char}{row}\n"
        path = tmp_path / "odd.csv"
        path.write_bytes((",".join(PHOTON_HEADER) + "\n" + text).encode())
        assert read_outcome(read_trace_csv, path) == read_outcome(line_filter_read, path)

    @pytest.mark.parametrize("n", SEAM_LENGTHS)
    @pytest.mark.parametrize("mode", list(SourceMode))
    def test_written_files_read_as_before(self, tmp_path, n, mode):
        path = tmp_path / "t.csv"
        write_trace_csv(wide_trace(mode, n, seed=n), path)
        outcome = read_outcome(read_trace_csv, path)
        assert outcome[0] is mode
        assert outcome == read_outcome(line_filter_read, path)

    # A CRLF file reads as its LF copy does; any other CR, and any fault of
    # the file, raises the line filter's message.
    @pytest.mark.parametrize("rows", [
        "0,0,0,0,5,4,2\r\n1,1,1,1,3,3,1\r\n",
        "0,0,0,0,5,4,2\r\n1,1,1,1,3,3,1",          # no last line end
        "0,0,0,0,5,4,2\n1,1,1,1,3,3,1\r\n",        # LF and CRLF mixed
        "",                                         # header only
        "0,0,0,0,5,4\r\n",                          # short row
        "0,0,0,0,5,4,2,9\r\n",                      # long row
        "0,0,volts,0,5,4,2\r\n",                    # non-numeric field
        "0,0,0,0,3.5,4,2\r\n",                      # non-integer count
        "1,1,1,1,3,3,4\r\n",                        # coincidences above singles
        "\r\n0,0,0,0,5,4,2\r\n",                   # blank line
        "0,0,0,0,5,4,2\r\r\n",                     # CR CR LF
        "0,0,0,0,5,4,2\r",                         # CR at the end
        "0,0,0,0,5,4,2\r1,1,1,1,3,3,1\r\n",        # CR between rows
    ])
    def test_crlf_files_read_as_before(self, tmp_path, rows):
        path = tmp_path / "crlf.csv"
        path.write_bytes((",".join(PHOTON_HEADER) + "\r\n" + rows).encode())
        assert read_outcome(read_trace_csv, path) == read_outcome(line_filter_read, path)

    # With blocks of 16 to 144 characters and the rest of their line, some
    # reads of traces with rows of many widths end between a CR and its LF.
    @pytest.mark.parametrize("blank_at", [None, 1, 7, 30])
    def test_crlf_across_block_seams(self, monkeypatch, tmp_path, blank_at):
        lf, crlf = tmp_path / "lf.csv", tmp_path / "crlf.csv"
        seams = 0
        for seed in range(10):
            write_trace_csv(photon_trace(points=40, seed=seed), lf)
            lines = lf.read_bytes().split(b"\n")
            if blank_at is not None:
                lines.insert(blank_at, b"")
            data = b"\r\n".join(lines)
            crlf.write_bytes(data)
            expected = read_outcome(line_filter_read, lf)
            for chunk_rows in range(1, 10):
                monkeypatch.setattr(trace_io, "CHUNK_ROWS", chunk_rows)
                seams += sum(data[end - 1:end + 1] == b"\r\n"
                             for end in read_ends(data, 16 * trace_io.CHUNK_ROWS))
                assert read_outcome(read_trace_csv, crlf) == expected
        assert seams

    # Line ends that ``str.splitlines`` takes, and blank lines, just before,
    # at and just after the end of the first block's read.
    @pytest.mark.parametrize("end", ["\r\n", "\r", "\x0b", "\x85", "\n\n", "\r\n\r\n", "\n  \n",
                                     "\n\t\n"])
    @pytest.mark.parametrize("shift", range(-3, 4))
    def test_line_ends_at_a_block_seam_read_as_before(self, tmp_path, end, shift):
        path = tmp_path / "seam.csv"
        path.write_bytes(line_end_at(16 * trace_io.CHUNK_ROWS + shift, end).encode())
        outcome = read_outcome(read_trace_csv, path)
        assert outcome[0] is SourceMode.PHOTON_COUNTING
        assert outcome == read_outcome(line_filter_read, path)

    @pytest.mark.parametrize("line", ["1,0.5{},1,2,3,4,1", "1,0.5,x{},1,2,3,4,1"])
    def test_a_line_longer_than_a_block_reads_as_before(self, tmp_path, line):
        line = line.format("0" * 40 * CHUNK_ROWS)
        path = tmp_path / "long.csv"
        path.write_text("\n".join([",".join(PHOTON_HEADER), "0,0,0,0,5,4,2", line,
                                    "2,1,1,1,3,3,1"]) + "\n")
        assert read_outcome(read_trace_csv, path) == read_outcome(line_filter_read, path)

    # Rows around CHUNK_ROWS and past the first block of text: the error
    # names the row of the file.
    @pytest.mark.parametrize("row", MALFORMED_ROWS)
    @pytest.mark.parametrize("at", [CHUNK_ROWS - 1, CHUNK_ROWS, 1500, 4999])
    def test_a_malformed_row_far_into_the_file_is_named_as_before(self, tmp_path, row, at):
        rows = [TestReaderRejects.GOOD] * 5000
        rows[at] = row
        path = tmp_path / "bad.csv"
        path.write_text("\n".join([",".join(PHOTON_HEADER), *rows]) + "\n")
        outcome = read_outcome(read_trace_csv, path)
        assert outcome[0] is ValueError
        assert outcome == read_outcome(line_filter_read, path)

    # Bytes that are not UTF-8 past the first block and past 64 KiB, where
    # the decoder of the open file counts bytes from its own buffer.
    @pytest.mark.parametrize("invalid", [b"\xff", b"\xe2\x80"])
    @pytest.mark.parametrize("at", [8191, 20_000, 70_000, None])
    def test_bytes_far_into_the_file_that_are_not_utf8_raise_as_before(self, tmp_path,
                                                                       invalid, at):
        data = (",".join(PHOTON_HEADER) + "\n" + (TestReaderRejects.GOOD + "\n") * 6000).encode()
        at = len(data) if at is None else at
        path = tmp_path / "bad.csv"
        path.write_bytes(data[:at] + invalid + data[at:])
        outcome = read_outcome(read_trace_csv, path)
        assert outcome[0] is UnicodeDecodeError and f"position {at}" in outcome[1]
        assert outcome == read_outcome(line_filter_read, path)

    @pytest.mark.parametrize("data", [b"", b"\n\n", b" \t\r\n"],
                             ids=["zero-bytes", "blank-lines", "whitespace"])
    def test_a_file_without_a_header_raises_as_before(self, tmp_path, data):
        path = tmp_path / "empty.csv"
        path.write_bytes(data)
        outcome = read_outcome(read_trace_csv, path)
        assert outcome == (ValueError, f"{path}: empty trace file")
        assert outcome == read_outcome(line_filter_read, path)

    def test_a_missing_file_raises_as_before(self, tmp_path):
        path = tmp_path / "absent.csv"
        outcome = read_outcome(read_trace_csv, path)
        assert outcome == read_outcome(line_filter_read, path)
        assert outcome[0] is OSError and outcome[1].startswith(f"cannot read trace CSV {path}: ")


def read_without_axes(path) -> CountTrace:
    return read_trace_csv(path, axes=False)


def assert_reads_as_every_column(path):
    """``read_trace_csv(path, axes=False)`` against the read of every column:
    the same error, or the same columns but the axes, and the axes absent.
    Where it reads a file that the read of every column refuses, the fault
    lies in the axes: with both set to 0 in every row, the file reads in
    full to the same columns.  Returns the outcome."""
    outcome = read_outcome(read_without_axes, path, REDUCED_FIELDS)
    full = read_outcome(read_trace_csv, path, REDUCED_FIELDS)
    if not isinstance(outcome[0], SourceMode) or isinstance(full[0], SourceMode):
        assert outcome == full
        if isinstance(full[0], SourceMode):
            trace = read_without_axes(path)
            assert trace.time is None and trace.voltage is None
        return outcome
    lines = [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()
             if line.strip()]
    zeroed = path.with_name("zeroed-" + path.name)
    zeroed.write_text("\n".join(",".join(lines[0]) if not i else
                                ",".join([row[0], "0", "0", *row[3:]])
                                for i, row in enumerate(lines)) + "\n")
    assert read_outcome(read_trace_csv, zeroed, REDUCED_FIELDS) == outcome
    return outcome


class TestReadWithoutAxes:
    """``read_trace_csv(path, axes=False)``, the read of ``analyze``: the
    ``time_s`` and ``voltage_V`` columns are left unconverted, every other
    column and every row's field count are checked as by the read of every
    column, and a file it refuses raises that read's error."""

    @settings(max_examples=250, deadline=None)
    @given(data=trace_files())
    def test_same_columns_or_same_error(self, tmp_path_factory, data):
        path = tmp_path_factory.getbasetemp() / "fuzz-axes.csv"
        path.write_bytes(data)
        assert_reads_as_every_column(path)

    # A row of the wrong field count is refused wherever it lies, and so is
    # a bad value in any column but the axes.
    @pytest.mark.parametrize("row", [
        "0,0,0,0,5,4",                                  # short row
        "0,0,0,0,5,4,2,9",                              # long row
        "0,0,0,0,5,4,2,",                               # trailing comma
        *[",".join("x" if i == column else field
                   for i, field in enumerate(TestReaderRejects.GOOD.split(",")))
          for column in range(len(PHOTON_HEADER))],     # a bad value in each column
    ])
    @pytest.mark.parametrize("at", [CHUNK_ROWS - 1, CHUNK_ROWS, 1500, 4999])
    def test_a_fault_far_into_the_file_raises_as_the_full_read(self, tmp_path, row, at):
        rows = [TestReaderRejects.GOOD] * 5000
        rows[at] = row
        path = tmp_path / "bad.csv"
        path.write_text("\n".join([",".join(PHOTON_HEADER), *rows]) + "\n")
        outcome = assert_reads_as_every_column(path)
        assert (outcome[0] is SourceMode.PHOTON_COUNTING) == ("x" in row.split(",")[1:3])

    # Each odd field in each axis, which the fuzz above seldom draws alone.
    @pytest.mark.parametrize("field", ODD_FIELDS)
    @pytest.mark.parametrize("column", [1, 2])
    def test_odd_fields_in_an_axis(self, tmp_path, field, column):
        row = TestReaderRejects.GOOD.split(",")
        row[column] = field
        path = tmp_path / "odd.csv"
        path.write_text("\n".join([",".join(PHOTON_HEADER), TestReaderRejects.GOOD, ",".join(row)])
                        + "\n")
        assert assert_reads_as_every_column(path)[0] is SourceMode.PHOTON_COUNTING

    @pytest.mark.parametrize("n", SEAM_LENGTHS)
    @pytest.mark.parametrize("mode", list(SourceMode))
    def test_written_files_read_as_in_full(self, tmp_path, n, mode):
        path = tmp_path / "t.csv"
        write_trace_csv(wide_trace(mode, n, seed=n), path)
        assert assert_reads_as_every_column(path)[0] is mode

    # The one contract change: bad text in an axis is not read.
    def test_analyze_reads_past_bad_text_in_the_time_axis(self, tmp_path, capsys):
        path = tmp_path / "trace.csv"
        assert cli.dispatch(["analytic", "--modules", "2", "--phi", "0", "--points", "4096",
                             "--cycles-per-ramp", "10", "--out", str(path)]) == 0
        assert cli.dispatch(["analyze", "--in", str(path)]) == 0
        report = capsys.readouterr().out
        lines = path.read_text().splitlines()
        fields = lines[100].split(",")
        lines[100] = ",".join([fields[0], "x", *fields[2:]])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="could not convert string 'x' to float64 at row 99, column 2"):
            read_trace_csv(path)
        assert cli.dispatch(["analyze", "--in", str(path)]) == 0
        assert capsys.readouterr() == (report, "")

    @pytest.mark.parametrize("mode, usecols", [("photon", [0, 3, 4, 5, 6]),
                                               ("classical", [0, 3, 4, 5])])
    def test_analyze_parses_a_valid_trace_once_without_the_axes(self, tmp_path, monkeypatch,
                                                                capsys, mode, usecols):
        path = tmp_path / "t.csv"
        write_trace_csv(MODES[mode][1](), path)
        calls, loadtxt = [], np.loadtxt

        def counted(*args, **kwargs):
            calls.append(kwargs.get("usecols"))
            return loadtxt(*args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", counted)
        # Exit 2 is a trace read and analysed that holds too few fringes.
        assert cli.dispatch(["analyze", "--in", str(path)]) in (0, 2)
        capsys.readouterr()
        assert calls == [usecols]

    def test_a_trace_without_axes_is_not_written(self, tmp_path):
        path, out = tmp_path / "t.csv", tmp_path / "again.csv"
        write_trace_csv(photon_trace(), path)
        with pytest.raises(ValueError, match="^cannot write a trace without its time and voltage axes$"):
            write_trace_csv(read_without_axes(path), out)
        assert not out.exists()


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_data_rejected(self, tmp_path, bad):
        y = np.linspace(0, 1, 5)
        y[2] = bad
        path = tmp_path / "p.svg"
        with pytest.raises(ValueError, match="^plot data must be finite$"):
            emit_plot_svg(np.linspace(0, 1, 5), [("a", np.zeros(5)), ("b", y)], path)
        assert not path.exists()

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
        floats = [("a", rng.normal(0.0, 1e3, 500)), ("b", np.sin(x)), ("c", np.full(500, 7.0))]
        # Integer series are converted to float a chunk at a time.
        counts = rng.poisson(300.0, 500)
        plots = [
            floats,
            [("d1", counts), ("d2", rng.poisson(40.0, 500)), ("coinc", rng.poisson(3.0, 500))],
            [("c", np.full(500, 7, dtype=np.int64))],
            [("d1", counts), ("model", 300.0 + 40.0 * np.sin(x)), ("coinc", counts // 9)],
            [("d1", rng.integers(2**53 - 40, 2**53 + 40, 500)),
             ("d2", rng.integers(0, 2**62, 500, dtype=np.uint64))],
        ]
        path = tmp_path / "p.svg"
        for series in plots:
            emit_plot_svg(x, series, path)
            got = re.findall(r'points="([^"]*)"', path.read_text())
            assert got == oracle_points(x, [np.asarray(y, dtype=float) for _, y in series])

    # With x = 0..1024 the plot is 864 px wide, so px = 72 + 27x/32 exactly:
    # every x = 4 (mod 8) is an exact half-hundredth, which rounds to even:
    # up at x = 4 (75.375 -> 75.38), down at x = 12 (82.125 -> 82.12).
    def test_points_on_exact_half_hundredths(self, tmp_path):
        x = np.arange(1025)
        series = [("d1", (37 * x) % 1001), ("model", np.sin(x / 50.0))]
        path = tmp_path / "p.svg"
        emit_plot_svg(x, series, path)
        got = re.findall(r'points="([^"]*)"', path.read_text())
        assert got == oracle_points(x, [np.asarray(y, dtype=float) for _, y in series])
        assert all(points.startswith("72.00,") and " 75.38," in points and " 82.12," in points
                   for points in got)

    # The double nearest (k + 0.5)/100 mostly lies off the half-hundredth,
    # yet v*100 rounds onto the half for 81489 of these 90299 (48.005 lies
    # above it and prints 48.01), so only the product's exact residual
    # rounds them; exact halves (82.125) round to even.  With their
    # neighbours and the carries into a new digit (just above 9.995 ->
    # 10.00, 99.995 -> 100.00, 999.995 -> 1000.00), up to the widest row
    # (99999.99).
    def test_formatter_matches_percent_format(self):
        halves = (np.r_[0:1200, 4800:93600, 999900:1000100, 9999900:9999999] + 0.5) / 100
        assert np.count_nonzero(halves * 100 % 1 == 0.5) == 81489
        values = np.concatenate([halves, np.nextafter(halves, 0), np.nextafter(halves, np.inf),
                                 [0.0, 0.125, 9.999, 10.0, 82.125, 936.0, 99999.99]])
        text = svgplot._points_text(values, values[::-1])
        assert text == " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(values, values[::-1]))
        assert "48.01," in text and " 82.12," in text and " 10.00," in text

    # x and y are rounded at once: exact half-hundredths (odd multiples of
    # 1/8) in both, rounding up and down to even, beside values that are
    # not halves, in one chunk.
    def test_ties_in_x_and_y_of_one_chunk(self):
        odd = np.arange(1, 8000, 2) / 8.0
        xs = np.where(np.arange(len(odd)) % 3 == 0, odd + 0.001, odd)
        ys = np.where(np.arange(len(odd)) % 5 == 0, odd[::-1] - 0.001, odd[::-1])
        assert np.count_nonzero(xs * 100 % 1 == 0.5) > 2000
        assert np.count_nonzero(ys * 100 % 1 == 0.5) > 2000
        text = svgplot._points_text(xs, ys)
        assert text == " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))

    # Each chunk of points is formatted on its own and joined to the one
    # before by one space; a missing or doubled space changes the points.
    @pytest.mark.parametrize("n", SEAM_LENGTHS + [svgplot._POINTS_ROWS + 1])
    @pytest.mark.parametrize("kind", ["int", "float", "mixed"])
    def test_points_match_at_chunk_seams(self, tmp_path, n, kind):
        rng = np.random.default_rng(n)
        x = np.sort(rng.uniform(-3.0, 50.0, n))
        ints = [("d1", rng.poisson(300.0, n)), ("coinc", rng.integers(0, 2**62, n))]
        floats = [("a", rng.normal(0.0, 1e3, n)), ("b", np.sin(x))]
        series = {"int": ints, "float": floats, "mixed": [ints[0], floats[0], ints[1]]}[kind]
        path = tmp_path / "p.svg"
        if n < 2:
            with pytest.raises(ValueError, match="at least 2 points"):
                emit_plot_svg(x, series, path)
            assert not path.exists()
            return
        emit_plot_svg(x, series, path, title="seams")
        text = path.read_text()
        assert re.findall(r'points="([^"]*)"', text) == oracle_points(
            x, [np.asarray(y, dtype=float) for _, y in series])
        assert text.count("<polyline") == len(series) and text.endswith("</svg>\n")

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
        (0.0, 2.5e-323),          # the step is 5e-324, its decade underflows to 0
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

    # A lo just below 0 (the 4% pad of data from 0 to 1) rounds up to a
    # first tick of -0.0, which must still be labelled "0".
    @pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (-0.04, 1.04)])
    def test_no_tick_is_labelled_minus_zero(self, lo, hi):
        labels = [f"{tick:.6g}" for tick in svgplot._ticks(lo, hi)]
        assert labels[0] == "0" and "-0" not in labels

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


class FailingFile:
    """An open text file whose second write of a chunk of rows (a write that
    holds at least ``CHUNK_ROWS`` commas) raises ENOSPC.  Earlier writes go
    to the file, so the failure leaves a partial file on disk."""

    def __init__(self, fh):
        self.fh = fh
        self.chunks = 0
        self.partial_size = None

    def write(self, text):
        if text.count(",") >= CHUNK_ROWS:
            self.chunks += 1
            if self.chunks == 2:
                self.fh.flush()
                self.partial_size = os.fstat(self.fh.fileno()).st_size
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return self.fh.write(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.fh.close()


class TestFailedWriteLeavesNoFile:
    @pytest.fixture
    def opened(self, monkeypatch):
        """The files the writers open, each failing on its second chunk of rows."""
        files = []

        def failing_open(*args, **kwargs):
            files.append(FailingFile(open(*args, **kwargs)))
            return files[-1]

        monkeypatch.setattr(_chunks, "open", failing_open, raising=False)
        return files

    def write_csv(self, path):
        write_trace_csv(wide_trace(SourceMode.PHOTON_COUNTING, 3 * CHUNK_ROWS + 7), path)

    def write_svg(self, path):
        x = np.linspace(0.0, 1.0, 3 * CHUNK_ROWS + 7)
        emit_plot_svg(x, [("d1", np.arange(len(x))), ("model", np.sin(x))], path)

    @pytest.mark.parametrize("writer, what", [("write_csv", "trace CSV"), ("write_svg", "SVG")])
    def test_partial_file_is_removed(self, tmp_path, opened, writer, what):
        path = tmp_path / "out"
        path.write_text("an older run\n")
        with pytest.raises(OSError, match=re.escape(f"cannot write {what} {path}: ") + ".*No space left"):
            getattr(self, writer)(path)
        assert opened[0].partial_size > len("an older run\n")
        assert not path.exists()

    def test_a_link_is_left_alone(self, tmp_path, opened):
        target = tmp_path / "target.csv"
        target.write_text("")
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        with pytest.raises(OSError, match="cannot write trace CSV"):
            self.write_csv(link)
        assert link.is_symlink() and target.exists()

    def test_an_unopenable_path_raises_as_before(self, tmp_path):
        path = tmp_path / "missing_dir" / "t.csv"
        with pytest.raises(OSError, match=re.escape(f"cannot write trace CSV {path}: ")):
            write_trace_csv(photon_trace(points=3), path)
        with pytest.raises(OSError, match=re.escape(f"cannot write SVG {tmp_path}: ")):
            emit_plot_svg([0.0, 1.0], [("y", [1.0, 2.0])], tmp_path)
        assert tmp_path.is_dir()


def traced_peak_above(function, *args) -> int:
    """Traced peak bytes allocated while ``function(*args)`` runs, less the
    arrays of the trace it returns, if any."""
    tracemalloc.start()
    try:
        result = function(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if isinstance(result, CountTrace):
        peak -= sum(getattr(result, field).nbytes for field in TRACE_FIELDS
                    if getattr(result, field) is not None)
    return peak


class TestMemoryDoesNotGrowWithRows:
    """Traced peaks of the trace writer, reader and plot beside their inputs
    and results, on traces of the widest text, at 2e4 and 2e5 rows.

    Anything kept per row takes at least a pointer (8 bytes), so a peak
    that grows by less than 1 byte per added row keeps nothing per row.
    The bounds on one chunk, per row of the chunk:

    * writer: the chunk's 7 values, stacked a kind of column at a time
      (56), and the integers' magnitudes (32); then every digit, before
      the tables: the integers' (4 x 20 places: 80), the floats' (3 x 21:
      63) and their exponents (24), while they are made beside, at most,
      the floats' 17-digit rounding (3 floats of ~11 doubles: <= 264) or
      the 4-digit limbs and their lookup (<= 4 fields x 5 limbs x 12:
      240); then the table of bytes and their keep mask (2 x 155 places:
      20 for the bin, 25 per float and 20 per count: 310) beside the
      digits (255); last the table beside the kept text and its str (<= 2
      x 155); <= 620.  Classical rows (a bin and five floats) hold less
      table (2 x 145) but more of the floats' rounding, limbs and digits:
      <= 680.  Both lie within 896 bytes per row for numpy's and the
      file's buffers.  Floats in fixed and in exponent notation take the
      same table, and exponent notation's text is made a field at a time
      once the digits are let go;
    * reader: the checks' masks (48), one block of text of 16 characters
      per row, held at most three times while the next block is read and
      joined to the rest of its last line (48), and the block's line list,
      the same characters again and 65 bytes per line of at least 100
      characters (<= 27); <= 123, within 128, plus 64 KiB for numpy's
      parser and the file buffers.  The table that ``np.loadtxt`` fills is
      the trace's columns, made at its exact row count, so it is not
      counted.  Read without its axes, the first pass also joins each
      block's lines to count their commas (16, beside the block's 75,
      before any check's mask is made), and the table is ``REDUCED_ROW``
      (40) bytes per photon row, not 56;
    * plot: one chunk of ``svgplot._POINTS_ROWS`` (2 x CHUNK_ROWS) points,
      counts and floats alike: x and y as floats (16) and the fixed-width
      rows and their keep mask (36) beside, at most, the hundredths of
      both with their tens (24) and the kept text and its str (36); x and
      y stacked and the rounding's temporaries for both at once (<= 66)
      come and go before the rows; <= 112, within 128 bytes per point of
      the chunk, 256 per CHUNK_ROWS.
    """

    SMALL, LARGE = 20_000, 200_000
    # Bytes per row of the table of a photon trace read without its axes:
    # five 8-byte columns, where the read of every column takes seven (56).
    REDUCED_ROW = 40
    WRITE_BOUND = CHUNK_ROWS * 896
    READ_BOUND = CHUNK_ROWS * 128 + 64 * 1024
    PLOT_BOUND = CHUNK_ROWS * 256

    def peaks(self, function, make):
        return [traced_peak_above(function, *make(n)) for n in (self.SMALL, self.LARGE)]

    def assert_flat(self, peaks, bound):
        small, large = peaks
        assert large <= bound
        assert large - small < self.LARGE - self.SMALL

    # Photon rows are the widest in text.  Classical rows, with two floats
    # more and no 19-digit counts, peak ~6% higher in the writer (~0.67
    # against ~0.63 KB per row), so they are traced too.  The writer's
    # traced runs write the files that the reader's tests read.
    @pytest.fixture(scope="class")
    def written(self, tmp_path_factory):
        """Per row count, a trace of the widest photon rows, written while
        traced, and its CRLF copy; and the writer's peaks."""
        root, files, peaks = tmp_path_factory.mktemp("rows"), {}, []
        for n in (self.SMALL, self.LARGE):
            lf, crlf = root / f"{n}.csv", root / f"{n}.crlf.csv"
            peaks.append(traced_peak_above(write_trace_csv,
                                           wide_trace(SourceMode.PHOTON_COUNTING, n), lf))
            crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
            files[n] = lf, crlf
        return files, peaks

    def test_writer(self, written):
        self.assert_flat(written[1], self.WRITE_BOUND)

    def test_writer_of_fixed_notation(self, tmp_path):
        # 19-digit counts and 17-digit floats that all take the numpy digits.
        def make(n):
            return (wide_trace(SourceMode.PHOTON_COUNTING, n, floats=fixed_notation_doubles),
                    tmp_path / "t.csv")

        self.assert_flat(self.peaks(write_trace_csv, make), self.WRITE_BOUND)

    def test_writer_of_classical_rows(self, tmp_path):
        # Five float columns in one run: the writer's highest peak per row.
        def make(n):
            return (wide_trace(SourceMode.CLASSICAL_INTENSITY, n, counts=float,
                               floats=fixed_notation_doubles), tmp_path / "t.csv")

        self.assert_flat(self.peaks(write_trace_csv, make), self.WRITE_BOUND)

    def test_reader(self, written):
        files, _ = written
        self.assert_flat(self.peaks(read_trace_csv, lambda n: files[n][:1]), self.READ_BOUND)

    def test_reader_of_a_crlf_copy(self, written):
        files, _ = written
        for lf, crlf in files.values():
            assert read_outcome(read_trace_csv, crlf) == read_outcome(read_trace_csv, lf)
        self.assert_flat(self.peaks(read_trace_csv, lambda n: files[n][1:]), self.READ_BOUND)

    def test_reader_without_axes(self, written):
        files, _ = written
        for n, (lf, _) in files.items():
            trace = read_without_axes(lf)
            assert sum(getattr(trace, f).nbytes for f in REDUCED_FIELDS) == self.REDUCED_ROW * n
        self.assert_flat(self.peaks(read_without_axes, lambda n: files[n][:1]), self.READ_BOUND)

    def test_plot_of_float_series(self, tmp_path):
        def plot(n):
            rng = np.random.default_rng(n)
            x = np.sort(rng.uniform(0.0, 1.0, n))
            return x, [("a", rng.normal(0.0, 1e3, n)), ("b", rng.normal(0.0, 1.0, n))], tmp_path / "p.svg"

        self.assert_flat(self.peaks(emit_plot_svg, plot), self.PLOT_BOUND)

    def test_plot_of_integer_series(self, tmp_path):
        def plot(n):
            rng = np.random.default_rng(n)
            x = np.sort(rng.uniform(0.0, 1.0, n))
            series = [("d1", rng.integers(0, 2**62, n)), ("d2", rng.poisson(300.0, n)),
                      ("coinc", rng.poisson(3.0, n))]
            return x, series, tmp_path / "p.svg"

        self.assert_flat(self.peaks(emit_plot_svg, plot), self.PLOT_BOUND)


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


# Each option whose value is a number or a phase, with the first subcommand
# that takes it, and that subcommand's small run.
DASH_KEYS = {key: next(name for name, spec in cli._COMMANDS.items() if key in spec[2])
             for key, option in cli._OPTIONS.items()
             if option.get("type") in (int, float) or key == "phi"}
SMALL_RUNS = {
    "analytic": ["--points", "10"],
    "simulate": ["--points", "10", "--scan-duration", "1", "--bin-duration", "0.1"],
    "analyze": [],
    "sensitivity": ["--max-m", "1", "--grid", "10000"],
}


class TestDashValues:
    """A value that begins with "-" may follow its flag as a separate token."""

    @pytest.fixture(scope="class")
    def trace(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("dash") / "trace.csv"
        assert cli.dispatch(["analytic", "--points", "400", "--out", str(path)]) == 0
        return path

    @staticmethod
    def assert_same_run(tmp_path, capsys, trace, command, separate, attached):
        """Both forms end ``command``'s small run with the same code, streams and file."""
        run = [command, *SMALL_RUNS[command]] + (["--in", str(trace)] if command == "analyze" else [])
        out = tmp_path / "out"
        results = []
        for form in (separate, attached):
            code = cli.dispatch([*run, *form, "--out", str(out)])
            written = out.read_bytes() if out.exists() else None
            out.unlink(missing_ok=True)
            results.append((code, capsys.readouterr(), written))
        assert results[0] == results[1]

    @pytest.mark.parametrize("value", ["pi/2", "3pi/4", "1e-3", "2.5e1", "inf", ".5", "1_000",
                                       "nan", "Inf", "PI/2", "3PI/4"])
    @pytest.mark.parametrize("key", list(DASH_KEYS))
    def test_separate_and_attached_values_give_the_same_run(self, tmp_path, capsys, trace,
                                                            key, value):
        command, flag = DASH_KEYS[key], "--" + key.replace("_", "-")
        self.assert_same_run(tmp_path, capsys, trace, command, [flag, f"-{value}"], [f"{flag}=-{value}"])

    # argparse resolves a unique prefix of a flag to that flag, so a "-"
    # value after the prefix must run as it does attached to the full flag.
    @pytest.mark.parametrize("command, prefix, flag, value", [
        ("analytic", "--ph", "--phi", "-pi/2"),
        ("analytic", "--ramp-s", "--ramp-start", "-2.5e1"),
        ("analytic", "--i", "--i0", "-1"),
        ("simulate", "--bin", "--bin-duration", "-1e-3"),
        ("simulate", "--dark", "--dark-rate", "-inf"),
        ("analyze", "--prom", "--prominence", "-0.2"),
        ("sensitivity", "--max", "--max-m", "-2"),
        ("sensitivity", "--g", "--grid", "-1e4"),
    ])
    def test_an_abbreviated_flag_takes_a_dash_value(self, tmp_path, capsys, trace,
                                                    command, prefix, flag, value):
        self.assert_same_run(tmp_path, capsys, trace, command, [prefix, value], [f"{flag}={value}"])

    def test_an_ambiguous_prefix_is_still_refused(self, tmp_path, capsys):
        code = cli.dispatch(["scan", "--m", "-3", "--points", "10", "--out", str(tmp_path / "run")])
        assert code == 1 and not (tmp_path / "run").exists()
        assert capsys.readouterr().err.endswith(
            "error: ambiguous option: --m could match --modules, --mean-photons, --mode\n")

    def test_a_flag_without_its_value_still_fails(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert cli.dispatch(["analytic", "--phi", "--points", "10", "--out", str(out)]) == 1
        assert capsys.readouterr().err.endswith("error: argument --phi: expected one argument\n")

    # A "-" token that is not a number or a phase is a flag, so the flag
    # before it has no value.
    def test_a_dash_token_that_is_no_number_leaves_its_flag_without_a_value(self, tmp_path,
                                                                            capsys):
        out = tmp_path / "x.csv"
        assert cli.dispatch(["analytic", "--points", "10", "--phi", "-x", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.endswith("\ncbwsim: error: argument --phi: expected one argument\n")
        assert err.count("error:") == 1 and not out.exists()

    # A number-like "-" token is a value after any flag, a string flag too.
    def test_a_number_like_token_is_a_string_flags_value(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        Path("-2.mzi").write_text("mzi C arm=lower phase=psi\ndetect a b\n")
        written = []
        for form in (["--circuit", "-2.mzi", "--out", "-1.csv"], ["--circuit=-2.mzi", "--out=-1.csv"]):
            assert cli.dispatch(["simulate", *SMALL_RUNS["simulate"], *form]) == 0
            written.append(Path("-1.csv").read_bytes())
            Path("-1.csv").unlink()
        assert written[0] == written[1] and capsys.readouterr() == ("", "")


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

    def test_only_the_named_subcommand_gets_options(self):
        _, commands = cli._build_parser(["scan", "--out", "run"])
        got = {name: {s for action in p._actions for s in action.option_strings}
               for name, p in commands.items()}
        assert got == {"scan": COMMON_FLAGS | SCAN_FLAGS | SOURCE_NOISE_FLAGS | {"--mode"}}

    @pytest.mark.parametrize("argv, built", [
        (["scan", "--out", "run"], ["scan"]),
        (["analyze", "--in", "scan"], ["analyze"]),
        (["sensitivity", "scan"], ["sensitivity"]),
        (["-h", "scan"], list(cli._COMMANDS)),
        (["--bogus", "scan"], list(cli._COMMANDS)),
        ([], list(cli._COMMANDS)),
        ([""], list(cli._COMMANDS)),
        (["Scan"], list(cli._COMMANDS)),
    ], ids=["scan", "analyze-in-scan", "sensitivity-scan", "help-scan", "bogus-scan", "empty",
            "empty-command", "capitalised"])
    def test_which_tree_is_built(self, argv, built):
        """A command named first builds a tree of its subparser alone; any
        other argv builds every subparser, each with its options."""
        _, commands = cli._build_parser(argv)
        assert list(commands) == built
        for name, command_parser in commands.items():
            got = {s for action in command_parser._actions for s in action.option_strings}
            assert got == {"-h", "--help", *(flag for flag, _ in cli._arguments(name))}

    def test_top_level_help_lists_every_command(self, capsys):
        assert cli.dispatch(["--help"]) == 0
        listed = re.findall(r"^ {4}(\w+)\b", capsys.readouterr().out, re.MULTILINE)
        assert listed == list(cli._COMMANDS)

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_command_help_lists_each_of_its_options(self, capsys, command):
        assert cli.dispatch([command, "--help"]) == 0
        out = capsys.readouterr().out
        keys = cli._COMMANDS[command][2]
        flags = ["--config", "--out"] + ["--" + key.replace("_", "-") for key in keys]
        for flag in flags:
            assert re.search(rf"^  {flag}\b", out, re.MULTILINE), flag

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


# The arguments each subcommand requires, and a flag that beats the config
# file in ``TestOneParserMatchesTheTree``.
REQUIRED = {"analytic": ["--out", "x.csv"], "simulate": ["--out", "x.csv"], "scan": ["--out", "run"],
            "analyze": ["--in", "t.csv"], "sensitivity": []}
BEATING_FLAG = {"analytic": ["--points", "50"], "simulate": ["--seed", "4"], "scan": ["--seed", "4"],
                "analyze": ["--prominence", "0.25"], "sensitivity": ["--max-m", "3"]}
# A numeric "-" value with an exponent, as a separate token.
DASH_NUMBER = {"analytic": ["--ramp-start", "-2.5e1"], "simulate": ["--dark-rate", "-1e-3"],
               "scan": ["--ramp-end", "-1e2"], "analyze": ["--prominence", "-1e-1"],
               "sensitivity": ["--grid", "-1e4"]}
# A value that names another command.
COMMAND_VALUE = {"analytic": ["--out", "scan"], "simulate": ["--out", "analyze"],
                 "scan": ["--out", "simulate"], "analyze": ["--in", "scan"],
                 "sensitivity": ["--out", "analytic"]}


def parity_argvs(command: str, config: Path) -> list:
    """Runs of ``command`` that must read alike through either tree: help,
    a bad option before and after the required ones, each required option
    missing, an option without its value, an ambiguous abbreviation (where
    one exists), a numeric "-" value and a "-" phase as a separate token, a
    config value beaten by a flag, the command repeated as a stray
    positional, a value that names another command and a ``--`` token."""
    flags = [flag for flag, _ in cli._arguments(command)]
    required = REQUIRED[command]
    argvs = [["--help"], [], ["--bogus"], [*required, "--bogus", "1"], [*required, "--config"],
             [*required, "--config", str(config), *BEATING_FLAG[command]]]
    ambiguous = sorted({flag[:k] for flag in flags for k in range(3, len(flag))
                        if sum(f.startswith(flag[:k]) for f in flags) > 1})
    argvs += [[*required, prefix, "1"] for prefix in ambiguous[:2]]
    argvs += [[*required, *DASH_NUMBER[command]], [*required, command],
              [*required, *COMMAND_VALUE[command]], [*required, "--", "1"]]
    if "--phi" in flags:
        argvs += [[*required, "--phi", "-pi/2"], [*required, "--ph", "-pi/2"]]
    return [[command, *argv] for argv in argvs]


class TestOneParserMatchesTheTree:
    """``dispatch`` parses a command named first with a tree of that
    command's subparser alone; every run must end as it does when the tree of
    every subcommand parses it: the same exit code, the same help, usage and
    error text, and the same options handed to the subcommand."""

    @staticmethod
    def run(monkeypatch, capsys, argv, tree: bool):
        """``(code, stdout, stderr, options the handler got, subcommands of
        each tree built)`` of ``dispatch(argv)``, through the tree of every
        subcommand if ``tree``.  The handler only records its options."""
        seen, built = [], []
        command = argv[0]
        handler = (lambda args: seen.append(vars(args)) or 0, *cli._COMMANDS[command][1:])
        monkeypatch.setitem(cli._COMMANDS, command, handler)
        build_parser = cli._build_parser

        def recorded(argv):
            parser, commands = build_parser(() if tree else argv)
            built.append(list(commands))
            return parser, commands

        monkeypatch.setattr(cli, "_build_parser", recorded)
        try:
            code = cli.dispatch(argv)
        finally:
            monkeypatch.undo()
        out, err = capsys.readouterr()
        return code, out, err, seen, built

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_every_run_reads_as_through_the_tree(self, monkeypatch, capsys, tmp_path, command):
        config = tmp_path / "run.cfg"
        config.write_text("seed=3\npoints=40\nprominence=0.3\nmax_m=2\ngrid=30000\nmodules=3\n")
        for argv in parity_argvs(command, config):
            one = self.run(monkeypatch, capsys, argv, tree=False)
            through_tree = self.run(monkeypatch, capsys, argv, tree=True)
            assert one[:4] == through_tree[:4], argv
            # An unknown flag ends the run before the handler, so no --out
            # path is made.
            if "--bogus" in argv:
                assert one[0] == 1 and one[3] == [], argv
            # One tree a run, of the named subcommand alone.
            assert one[4] == [[command]] and through_tree[4] == [list(cli._COMMANDS)], argv

    def test_config_values_and_flags_reach_the_handler(self, monkeypatch, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("seed=3\npoints=40\nmodules=3\n")
        code, _, _, seen, built = self.run(
            monkeypatch, capsys, ["scan", "--out", "run", "--config", str(config), "--seed", "4"], tree=False)
        assert code == 0 and built == [["scan"]]
        assert (seen[0]["command"], seen[0]["seed"], seen[0]["points"], seen[0]["modules"]) == ("scan", 4, 40, 3)

    def test_top_level_help_and_a_missing_command_keep_their_text(self, capsys):
        for argv in (["--help"], ["-h", "scan"]):
            assert cli.dispatch(argv) == 0
            assert capsys.readouterr() == (cli._build_parser()[0].format_help(), ""), argv
        for argv, error in [([], "a subcommand is required"),
                            (["--bogus"], "unrecognized arguments: --bogus")]:
            assert cli.dispatch(argv) == 1
            assert capsys.readouterr() == ("", f"usage: cbwsim [-h] COMMAND ...\ncbwsim: error: {error}\n")

    @pytest.mark.parametrize("argv", [[""], ["", "--help"]])
    def test_an_empty_command_is_an_invalid_choice(self, capsys, argv):
        assert cli.dispatch(argv) == 1
        parser, _ = cli._build_parser()
        with pytest.raises(cli._ParserExit) as tree_exit:
            parser.parse_args(argv)
        message = tree_exit.value.args[1]
        assert "invalid choice: ''" in message and all(name in message for name in cli._COMMANDS)
        assert capsys.readouterr() == ("", f"usage: cbwsim [-h] COMMAND ...\ncbwsim: error: {message}\n")


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

    def test_analyze_monotonic_trace_exits_two(self, tmp_path, capsys):
        ramp = np.linspace(0.0, 1.0, 100)
        trace_csv = tmp_path / "ramp.csv"
        write_trace_csv(make_trace(SourceMode.CLASSICAL_INTENSITY, ramp, ramp, ramp,
                                   ramp, ramp[::-1]), trace_csv)
        assert cli.dispatch(["analyze", "--in", str(trace_csv)]) == 2
        assert capsys.readouterr() == (
            "", "cbwsim: analysis error: fewer than one maximum and one minimum found\n")

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

    # The README photon scan under the default lab noise, on a seed range
    # fixed in advance.  The noise walk moves the doubled coincidence fringe
    # (bin 42 of the spectrum) by up to two bins, 1.50-1.61 rad, so its
    # period is held to 0.08 rad of pi/2; the singles fringe to 0.01 of pi.
    @pytest.mark.parametrize("seed", range(40))
    def test_analyze_finds_the_readme_photon_scan_period(self, tmp_path, seed):
        assert cli.dispatch(["scan", "--modules", "2", "--phi", "0", "--points", "5000",
                             "--mean-photons", "0.04", "--seed", str(seed),
                             "--out", f"{tmp_path}/"]) == 0
        schema = json.loads((SCHEMA_DIR / "fringe_stats.schema.json").read_text())
        for column, period, tolerance in [("coinc", np.pi / 2, 0.08), ("d1", np.pi, 0.01)]:
            report = tmp_path / f"{column}.json"
            assert cli.dispatch(["analyze", "--in", str(tmp_path / "trace.csv"),
                                 "--column", column, "--out", str(report)]) == 0
            payload = json.loads(report.read_text())
            jsonschema.validate(payload, schema)
            assert abs(payload["dominant_period_rad"] - period) <= tolerance

    # Every order m keeps the 1/m law: |m * ratio_to_classical - 1| <=
    # 1.2e-7.  That bound is derived, not tuned: eta_m = sin(m h)/h * max_k
    # |sin(m k h)| on a grid of step h, so |m * ratio - 1| <= (m h)^2 (1/6 +
    # 1/8) <= (2 pi/1e4)^2 * 0.29, ~1.15e-7, as every grid holds 1e4 points
    # per period of its top order.  The grids: the default, one that is not
    # a whole number of fold blocks, one whose last point joins the block
    # before it (24577 = 3 * 8192 + 1) and one over 50 orders.
    @pytest.mark.parametrize("max_m, grid", [(5, 100000), (3, 33333), (2, 24577), (50, 500000)])
    def test_sensitivity_json_validates_against_schema(self, tmp_path, max_m, grid):
        report = tmp_path / "sens.json"
        code = cli.dispatch(["sensitivity", "--max-m", str(max_m), "--grid", str(grid),
                             "--out", str(report)])
        assert code == 0
        payload = json.loads(report.read_text())
        schema = json.loads((SCHEMA_DIR / "sensitivity_report.schema.json").read_text())
        jsonschema.validate(payload, schema)
        assert [r["m"] for r in payload["reports"]] == list(range(1, max_m + 1))
        worst = max(abs(r["m"] * r["ratio_to_classical"] - 1) for r in payload["reports"])
        assert worst <= 1.2e-7

    # The first two committed reports were written before the sweep was
    # folded in blocks, the third before each block's slopes were reduced as
    # it was folded; every later route must keep their bytes, on file and
    # stdout.
    @pytest.mark.parametrize("flags, golden", [
        (["--max-m", "5"], "sensitivity_max_m5.json"),
        (["--max-m", "8", "--grid", "200000"], "sensitivity_max_m8_grid200000.json"),
        (["--max-m", "20", "--grid", "200000"], "sensitivity_max_m20_grid200000.json"),
    ], ids=["max-m-5", "max-m-8-grid-200000", "max-m-20-grid-200000"])
    def test_sensitivity_json_keeps_the_golden_bytes(self, tmp_path, capsys, flags, golden):
        expected = (DATA_DIR / golden).read_bytes()
        report = tmp_path / "sens.json"
        assert cli.dispatch(["sensitivity", *flags, "--out", str(report)]) == 0
        assert report.read_bytes() == expected
        assert cli.dispatch(["sensitivity", *flags]) == 0
        assert capsys.readouterr().out.encode("utf-8") == expected

    # Digests of outputs that draw no random numbers, written before the
    # empty scan was checked like any other scan; every later route must
    # keep their bytes.  They depend on libm, as the sensitivity goldens do.
    # An entry runs its commands (joined by `` && ``) in turn in one
    # directory, so an ``analyze`` reads a trace that a ``scan`` before it
    # wrote, by the relative path that its report's ``source`` names.  A
    # scan writes into that directory, any other command the one file its
    # entry's digest names.
    @pytest.mark.parametrize("command, digests", list(OUTPUT_DIGESTS.items()),
                             ids=list(OUTPUT_DIGESTS))
    def test_deterministic_outputs_keep_the_golden_bytes(self, tmp_path, monkeypatch, command,
                                                          digests):
        monkeypatch.chdir(tmp_path)
        for step in command.split(" && "):
            argv = step.split()
            out = "." if argv[0] == "scan" else next(iter(digests))
            assert cli.dispatch([*argv, "--out", out]) == 0
        assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                for name in digests} == digests

    def test_reports_name_the_fields_of_their_dataclasses(self):
        stats_schema = json.loads((SCHEMA_DIR / "fringe_stats.schema.json").read_text())
        fields = {f.name for f in dataclasses.fields(experiment.FringeStats)}
        assert {"column", "source"} | fields == set(stats_schema["properties"])
        sens_schema = json.loads((SCHEMA_DIR / "sensitivity_report.schema.json").read_text())
        fields = {f.name for f in dataclasses.fields(experiment.SensitivityReport)}
        assert fields == set(sens_schema["properties"]["reports"]["items"]["properties"])

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

    @pytest.mark.parametrize("phi", ["0", "pi/3"])
    @pytest.mark.parametrize("mode", ["photon", "classical"])
    def test_readme_circuit_file_scans_like_the_built_cascade(self, tmp_path, mode, phi):
        # The README's two-stage .mzi block is the modules=2 cascade with a
        # free phi, which --phi binds: both forms write the same bytes.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = re.search(r"## Circuit files \(`\.mzi`\).*?```\n(.*?)```", readme, re.S).group(1)
        mzi_file = tmp_path / "two_stage.mzi"
        mzi_file.write_text(block, encoding="utf-8")
        common = ["scan", "--mode", mode, "--phi", phi, "--points", "200", "--bin-duration", "0.01",
                  "--scan-duration", "2", "--mean-photons", "0.3", "--window-duration", "1e-6",
                  "--seed", "7"]
        outs = {}
        for name, chain in (("circuit", ["--circuit", str(mzi_file)]), ("modules", ["--modules", "2"])):
            outs[name] = tmp_path / name
            assert cli.dispatch([*common, *chain, "--out", str(outs[name])]) == 0
        for name in ("trace.csv", "trace.svg"):
            assert (outs["circuit"] / name).read_bytes() == (outs["modules"] / name).read_bytes()

    @pytest.mark.parametrize("chain, elements", [
        (["--modules", "3", "--phi", "0.4"], build_cbw_chain(3).elements),
        (["--circuit", "single.mzi", "--phi", "0.4"], None),
    ], ids=["modules", "single-mzi-circuit"])
    @pytest.mark.parametrize("command, simulator", [
        ("simulate", "simulate_scan_counts"),
        ("scan", "simulate_classical_trace"),
    ])
    def test_recorded_scan_reruns_bit_for_bit(self, tmp_path, monkeypatch, chain, elements,
                                              command, simulator):
        # A trace's meta["scan"] names every choice of the run: rerunning it
        # with the same seed writes the same CSV, and a circuit scan records
        # the circuit, not a cascade size beside it.
        text = "mzi C arm=lower phase=psi\ndetect a b\n"
        (tmp_path / "single.mzi").write_text(text, encoding="utf-8")
        chain = [str(tmp_path / arg) if arg.endswith(".mzi") else arg for arg in chain]
        traces = []
        run = getattr(montecarlo, simulator)
        monkeypatch.setattr(montecarlo, simulator, lambda *args: traces.append(run(*args)) or traces[-1])
        mode = [] if command == "simulate" else ["--mode", "classical"]
        out = tmp_path / "run"
        assert cli.dispatch([command, *mode, *chain, "--points", "64", "--bin-duration", "0.01",
                             "--scan-duration", "0.64", "--mean-photons", "0.3",
                             "--window-duration", "1e-6", "--seed", "11", "--out", str(out)]) == 0
        (trace,) = traces
        scan = trace.meta["scan"]
        assert scan.circuit.elements == (elements or parse_circuit(text).elements)
        assert scan.phi == 0.4
        if command == "simulate":
            rerun = run(scan, trace.meta["source"], trace.meta["noise"], trace.seed)
            written = out
        else:
            rerun = run(scan, trace.meta["noise"], trace.seed)
            written = out / "trace.csv"
        write_trace_csv(rerun, tmp_path / "rerun.csv")
        assert (tmp_path / "rerun.csv").read_bytes() == written.read_bytes()

    @pytest.mark.parametrize("mode", ["photon", "classical"])
    def test_empty_scan_exits_one_naming_points_before_any_output(self, tmp_path, capsys,
                                                                  monkeypatch, mode):
        def no_simulation(*args):
            raise AssertionError("simulated an empty scan")

        monkeypatch.setattr(montecarlo, "_scan_chain", no_simulation)
        out = tmp_path / "run"
        code = cli.dispatch(["scan", "--mode", mode, "--points", "0", "--scan-duration", "0",
                             "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == ("cbwsim: error: points must be at least 2 for a "
                                           "plotted scan, got 0\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv, field", [
        (["simulate", "--bin-duration", "-1", "--ramp-end", "-5"], "bin_duration"),
        (["analytic", "--ramp-start", "10", "--ramp-end", "1"], "ramp_end"),
        (["simulate", "--bin-duration", "3e-9"], "integer multiple of window_duration"),
    ], ids=["negative-bin", "falling-ramp", "bin-below-one-window"])
    def test_invalid_empty_scan_exits_one_naming_the_field(self, tmp_path, capsys, argv, field):
        out = tmp_path / "x.csv"
        code = cli.dispatch([*argv, "--points", "0", "--scan-duration", "0", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("cbwsim: error: ") and err.count("\n") == 1
        assert field in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "analytic"])
    def test_valid_empty_scan_writes_a_header_only_trace(self, tmp_path, capsys, command):
        out = tmp_path / "x.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.dispatch([command, "--points", "0", "--scan-duration", "0",
                                 "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().err == ""
        assert out.read_text().count("\n") == 1
        assert len(read_trace_csv(out)) == 0

    def test_overflowing_photon_mean_exits_one_without_warnings(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.dispatch(["simulate", "--mean-photons", "1.7976931348623157e308",
                                 "--phase-jitter-sigma", "0", "--points", "50", "--scan-duration",
                                 "5", "--seed", "0", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == ("cbwsim: error: mean_photons_per_window "
                                           "1.7976931348623157e+308 overflows the detected "
                                           "photon mean\n")
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["photon", "classical"])
    @pytest.mark.parametrize("flags, field", [
        (["--dark-rate", "nan"], "dark_rate"),
        (["--noise", "lab", "--phase-jitter-correlation", "0"], "phase_jitter_correlation"),
        (["--mean-photons", "nan"], "mean_photons_per_window"),
        (["--mean-photons", "0"], "mean_photons_per_window"),
        (["--window-duration", "-1"], "window_duration"),
    ])
    def test_non_physical_source_or_noise_exits_one(self, tmp_path, capsys, mode, flags, field):
        code = cli.dispatch(["scan", "--mode", mode, "--points", "20", "--bin-duration", "1e-6",
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
        (["--cycles-per-ramp", "nan"], "cycles_per_ramp"),
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
    @pytest.mark.parametrize("text, message", [
        ("source intensity=1e400\nmzi C arm=lower phase=psi\ndetect a b\n",
         "line 1, column 18: intensity '1e400' overflows to inf (expected <finite number>)"),
        ("mzi a arm=upper phase=1e400\ndetect a b\n",
         "line 1, column 23: phase '1e400' overflows to inf (expected <finite number>)"),
        ("source intensity=-1\nmzi C arm=lower phase=psi\ndetect a b\n",
         "line 1, column 18: intensity '-1' is negative (expected <number >= 0>)"),
    ], ids=["intensity-overflow", "phase-overflow", "negative-intensity"])
    def test_bad_circuit_number_exits_one_at_its_position(self, tmp_path, capsys, command, text,
                                                          message):
        mzi_file = tmp_path / "bad.mzi"
        mzi_file.write_text(text)
        out = tmp_path / "x"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.dispatch([*command, "--points", "20", "--circuit", str(mzi_file),
                                 "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"cbwsim: error: {message}\n"
        assert not out.exists()

    def test_overflowing_classical_power_exits_one_naming_the_source_intensity(self, tmp_path,
                                                                              capsys):
        mzi_file = tmp_path / "huge.mzi"
        mzi_file.write_text("source intensity=1.7976931348623157e308\n"
                            "mzi C arm=lower phase=psi\ndetect a b\n")
        out = tmp_path / "x"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.dispatch(["scan", "--mode", "classical", "--points", "200",
                                 "--scan-duration", "20", "--circuit", str(mzi_file),
                                 "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == ("cbwsim: error: source intensity "
                                           "1.7976931348623157e+308 overflows the classical "
                                           "output power\n")
        assert not out.exists()

    def test_unplottable_classical_power_exits_one_naming_the_y_range(self, tmp_path, capsys):
        mzi_file = tmp_path / "huge.mzi"
        mzi_file.write_text("source intensity=1.7976931348623157e308\n"
                            "mzi C arm=lower phase=psi\ndetect a b\n")
        out = tmp_path / "x"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.dispatch(["scan", "--mode", "classical", "--noise", "none", "--points",
                                 "200", "--scan-duration", "20", "--circuit", str(mzi_file),
                                 "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("cbwsim: error: ") and err.count("\n") == 1
        assert "1.7976931348623157e+308" in err and "4% pad" in err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", [["scan", "--mode", "classical"], ["simulate"]])
    def test_circuit_past_the_element_cap_exits_one_before_any_matrix(self, tmp_path, capsys,
                                                                      monkeypatch, command):
        built = []
        monkeypatch.setattr(optics, "mzi", lambda *a: built.append(a))
        monkeypatch.setattr(optics, "phase_element", lambda *a: built.append(a))
        mzi_file = tmp_path / "long.mzi"
        stages = "mzi C arm=lower phase=psi\n" * (MAX_ELEMENTS + 1)
        mzi_file.write_text(stages + "detect a b\n")
        out = tmp_path / "x"
        code = cli.dispatch([*command, "--points", "20", "--circuit", str(mzi_file),
                             "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (f"cbwsim: error: line {MAX_ELEMENTS + 1}, column 1: "
                                           f"a circuit has at most {MAX_ELEMENTS} elements\n")
        assert built == [] and not out.exists()

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

    def test_a_subnormal_tick_step_draws_one_x_tick(self, tmp_path, capsys):
        out = tmp_path / "x"
        code = cli.dispatch(["scan", "--mode", "classical", "--noise", "none", "--points", "2",
                             "--bin-duration", "2.5e-323", "--scan-duration", "5e-323",
                             "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().err == ""
        svg = (out / "trace.svg").read_text()
        assert re.findall(r'font-size="12" text-anchor="middle">([^<]*)</text>', svg) == ["0"]

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
         f"modules must be at most {MAX_MODULES}, got 20000"),
        (["scan", "--modules", "100000000"],
         f"modules must be at most {MAX_MODULES}, got 100000000"),
        (["simulate", f"--modules={MAX_MODULES + 1}", "--points", "10"],
         f"modules must be at most {MAX_MODULES}, got {MAX_MODULES + 1}"),
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

    # At a general control phase the largest double is the input power:
    # each output is at most i0, and their sum would overflow.
    @pytest.mark.parametrize("modules", ["2", "3", "5"])
    def test_largest_i0_sweeps_at_a_general_phase(self, tmp_path, modules):
        out = tmp_path / "o.csv"
        i0 = "1.7976931348623157e308"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.dispatch(["analytic", "--modules", modules, "--phi", "pi/3", "--points",
                                 "5000", "--i0", i0, "--out", str(out)]) == 0
        trace = read_trace_csv(out)
        assert np.all(trace.singles_d1 <= float(i0)) and np.all(trace.singles_d2 <= float(i0))
        assert np.max(trace.singles_d1) > 0.99 * float(i0)

    # A ramp span within rounding of the largest double: linspace's product
    # for the last bin overflows, and that bin is ramp_end.
    @pytest.mark.parametrize("ramp_start, ramp_end", [
        (0.0, 1.7976931348623157e308),
        (-1.7976931348623157e308, 0.0),
        (-8.988465674311579e307, 8.988465674311579e307),
    ], ids=["end-max", "start-minus-max", "half-max-each-side"])
    @pytest.mark.parametrize("command", ["analytic", "simulate"])
    def test_largest_ramp_span_runs_without_overflow(self, tmp_path, capsys, command,
                                                     ramp_start, ramp_end):
        out = tmp_path / "o.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.dispatch([command, f"--ramp-start={ramp_start!r}",
                                 f"--ramp-end={ramp_end!r}", "--modules", "1", "--points", "64",
                                 "--scan-duration", "10", "--out", str(out)])
            voltages = ScanConfig(ramp_start=ramp_start, ramp_end=ramp_end, points=64,
                                  scan_duration=10.0).voltages()
        assert code == 0
        assert capsys.readouterr().err == ""
        assert len(read_trace_csv(out)) == 64
        assert np.all(np.isfinite(voltages)) and np.all(np.diff(voltages) >= 0)
        assert (voltages[0], voltages[-1]) == (ramp_start, ramp_end)

    def test_unknown_subcommand_exits_one(self, capsys):
        assert cli.dispatch(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_flag_exits_one(self, capsys):
        assert cli.dispatch(["sensitivity", "--wat", "3"]) == 1
        assert "usage" in capsys.readouterr().err

    # An error in a subcommand's options prints that subcommand's usage,
    # not the top-level one; the message and exit code are argparse's.
    @pytest.mark.parametrize("argv, message", [
        (["analyze"], "the following arguments are required: --in"),
        (["sensitivity", "--grid", "1e5"], "argument --grid: invalid int value: '1e5'"),
    ], ids=["analyze-without-in", "sensitivity-grid-not-an-int"])
    def test_a_subcommand_error_prints_its_usage(self, capsys, argv, message):
        assert cli.dispatch(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage: cbwsim {argv[0]} [-h] [--config CONFIG] ")
        assert err.endswith(f"\ncbwsim: error: {message}\n")

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


class TestFileErrorsNameTheFile:
    """A file the CLI fails to read or create exits 1 on one line that names it."""

    def test_config_that_is_not_utf8(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"seed=\xff\n")
        assert cli.dispatch(["sensitivity", "--config", str(cfg)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"cbwsim: error: cannot read config {cfg}: 'utf-8' codec can't decode "
                       "byte 0xff in position 5: invalid start byte\n")

    @pytest.mark.parametrize("command", ["simulate", "scan"])
    @pytest.mark.parametrize("content", [None, b"mzi C arm=\xff phase=psi\ndetect a b\n"],
                             ids=["missing", "not-utf8"])
    def test_circuit_that_cannot_be_read(self, tmp_path, capsys, command, content):
        path = tmp_path / "chain.mzi"
        if content is not None:
            path.write_bytes(content)
        out = tmp_path / "out"
        assert cli.dispatch([command, "--circuit", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"cbwsim: error: cannot read circuit {path}: ") and err.count("\n") == 1
        assert ("[Errno 2]" if content is None else "can't decode byte 0xff") in err
        assert not out.exists()

    @pytest.mark.parametrize("rows", [0, 3000], ids=["first-line", "far-into-the-file"])
    def test_trace_that_is_not_utf8(self, tmp_path, capsys, rows):
        trace_csv = tmp_path / "a.csv"
        if rows:
            write_trace_csv(photon_trace(points=rows), trace_csv)
        trace_csv.write_bytes(trace_csv.read_bytes() + b"a\xff" if rows else b"a\xff")
        position = trace_csv.stat().st_size - 1
        assert cli.dispatch(["analyze", "--in", str(trace_csv)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"cbwsim: error: cannot read trace CSV {trace_csv}: 'utf-8' codec can't "
                       f"decode byte 0xff in position {position}: invalid start byte\n")

    # A trace that parses but fails its checks, in a column that analyze reads.
    @pytest.mark.parametrize("column, value, message", [
        ("psi_rad", "1e400", "non-finite values in trace"),
        ("d1", "-1", "negative counts in trace"),
        ("coinc", "9", "coincidences exceed singles in some bin"),
    ])
    def test_trace_that_fails_its_checks(self, tmp_path, capsys, column, value, message):
        row = TestReaderRejects.GOOD.split(",")
        row[PHOTON_HEADER.index(column)] = value
        trace_csv = tmp_path / "bad.csv"
        trace_csv.write_text("\n".join([",".join(PHOTON_HEADER), TestReaderRejects.GOOD,
                                        ",".join(row)]) + "\n")
        assert cli.dispatch(["analyze", "--in", str(trace_csv)]) == 1
        assert capsys.readouterr() == ("", f"cbwsim: error: {trace_csv}: {message}\n")

    def test_trace_that_is_empty(self, tmp_path, capsys):
        trace_csv = tmp_path / "empty.csv"
        trace_csv.write_bytes(b"")
        assert cli.dispatch(["analyze", "--in", str(trace_csv)]) == 1
        assert capsys.readouterr() == ("", f"cbwsim: error: {trace_csv}: empty trace file\n")

    @pytest.mark.parametrize("line, message", [
        ("points 5", "expected key=value, got 'points 5'"),
        ("points=", "empty value for key 'points'"),
    ])
    def test_config_line_that_is_not_a_setting(self, tmp_path, capsys, line, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "sweep.csv"
        assert cli.dispatch(["analytic", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", f"cbwsim: error: {cfg}:1: {message}\n")
        assert not out.exists()

    def test_output_directory_that_cannot_be_created(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / "run"
        assert cli.dispatch(["scan", "--points", "20", "--scan-duration", "2", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"cbwsim: error: cannot create output directory {out}: [Errno ")
        assert err.count("\n") == 1
        assert blocker.read_text() == ""
