"""The README "Command line" examples and the CLI's outputs at scale.

Every run goes in-process through ``cli.dispatch``, in one scratch directory
shared by the class, as the README's relative paths need: the README block
verbatim, ``analyze`` of its photon and cw scans, a 200000-row noiseless cw
scan (the chunked CSV/SVG writers and reader at scale), scans that cut their
bins into several fold blocks, and analytic traces of extreme intensity.
The plot and CSV checks read the files with the standard library alone, so
they share no code with the writers.  One last test runs ``main()`` in a
subprocess, for its exit code.
"""

import json
import os
import re
import shlex
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import jsonschema
import pytest

from cbwsim import cli

ROOT = Path(__file__).resolve().parents[1]
MODES = ("photon", "classical")
# Runs after the README block; each must exit 0.
RUNS = [
    "analyze --in fig_run/trace.csv --out photon_stats.json",
    "analyze --in cw_run/trace.csv --out cw_stats.json",
    "scan --mode classical --noise none --points 200000 --scan-duration 20 --bin-duration 1e-4 "
    "--out large_run/",
    "analyze --in large_run/trace.csv --out large_stats.json",
    # Three fold blocks of three-stage lab-noise bins (two seams), and
    # 16385 = 2 * 8192 + 1 bins, whose last bin joins the block before it.
    *(f"scan --mode {mode} --points 20000 --bin-duration 0.02 --modules 3 --phi 1.1 "
      f"--out blocks_{mode}/" for mode in MODES),
    *(f"scan --mode {mode} --points 16385 --bin-duration 0.01 --scan-duration 163.85 "
      f"--out lone_{mode}/" for mode in MODES),
    # Intensities from ~1e-13 to 1e17: exponent notation at exactly 1e17
    # and below 1e-4.
    *(f"analytic --modules 3 --phi 0.7 --points 20000 --bin-duration 0.025 --i0 {i0} "
      f"--out i0_{i0}.csv" for i0 in ("1e17", "1e-3")),
]
# At phi 1.1 the three-stage fringe has no single dominant harmonic, so
# analyze reads these traces and may then end with its analysis error (2);
# a traceback or a config error exits 1.
ANALYZED = [f"{kind}_{mode}" for kind in ("blocks", "lone") for mode in MODES]
# Copies of the large trace: with CRLF line ends, and with a blank and a
# whitespace-only line after every 1000th line.
COPIES = ["large_crlf", "large_gaps"]
PLOTTED = ["fig_run", "large_run", "blocks_photon", "blocks_classical"]
POINT = re.compile(r"\d{1,5}\.\d\d,\d{1,5}\.\d\d")


def readme_commands() -> list:
    """Each command of the README's "Command line" block, without ``cbwsim``."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Command line\n\n```bash\n(.*?)```", readme, re.S).group(1)
    lines = [shlex.split(line) for line in re.sub(r"#.*", "", block.replace("\\\n", " ")).splitlines()]
    assert all(line[0] == "cbwsim" for line in lines if line)
    return [shlex.join(line[1:]) for line in lines if line]


class TestCommandLine:
    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        """The directory of every run, each run's exit code by its command
        line, and the exit code of ``analyze`` of each trace in ANALYZED."""
        root = tmp_path_factory.mktemp("cli")
        with pytest.MonkeyPatch.context() as patch:
            patch.chdir(root)
            codes = {command: cli.dispatch(shlex.split(command))
                     for command in [*readme_commands(), *RUNS]}
            lines = Path("large_run/trace.csv").read_bytes().split(b"\n")
            Path("large_crlf.csv").write_bytes(b"\r\n".join(lines))
            Path("large_gaps.csv").write_bytes(b"\n".join(
                part for i, line in enumerate(lines)
                for part in ([line, b"", b" \t"] if i % 1000 == 999 else [line])))
            for copy in COPIES:
                command = f"analyze --in {copy}.csv --out {copy}_stats.json"
                codes[command] = cli.dispatch(shlex.split(command))
            analyzed = {run: cli.dispatch(["analyze", "--in", f"{run}/trace.csv"])
                        for run in ANALYZED}
        return root, codes, analyzed

    def test_every_run_exits_zero(self, runs):
        _, codes, _ = runs
        assert {command: code for command, code in codes.items() if code} == {}

    def test_traces_cut_into_blocks_read_back(self, runs):
        _, _, analyzed = runs
        assert {run: code for run, code in analyzed.items() if code not in (0, 2)} == {}

    @pytest.mark.parametrize("report, schema", [
        ("stats.json", "fringe_stats"), ("photon_stats.json", "fringe_stats"),
        ("cw_stats.json", "fringe_stats"), ("sensitivity.json", "sensitivity_report"),
    ])
    def test_readme_reports_validate_against_their_schemas(self, runs, report, schema):
        root = runs[0]
        schema_path = ROOT / "src" / "cbwsim" / "schemas" / f"{schema}.schema.json"
        jsonschema.validate(json.loads((root / report).read_text(encoding="utf-8")),
                            json.loads(schema_path.read_text(encoding="utf-8")))

    @pytest.mark.parametrize("copy", COPIES)
    def test_a_copy_of_the_large_trace_gives_its_report_but_for_the_source(self, runs, copy):
        reports = [json.loads((runs[0] / f"{name}_stats.json").read_text(encoding="utf-8"))
                   for name in ("large", copy)]
        for report in reports:
            del report["source"]
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("run", PLOTTED)
    def test_one_polyline_per_measured_column_and_one_point_per_row(self, runs, run):
        with open(runs[0] / run / "trace.csv", encoding="utf-8") as fh:
            measured = fh.readline().rstrip("\n").split(",")[4:]
            rows = sum(1 for _ in fh)
        polylines = ET.parse(runs[0] / run / "trace.svg").getroot().findall(
            "{http://www.w3.org/2000/svg}polyline")
        assert len(polylines) == len(measured)
        for polyline in polylines:
            points = polyline.get("points").split(" ")
            assert len(points) == rows and all(map(POINT.fullmatch, points))

    # The bin and count columns as "%d" writes them, the rest as "%.17g".
    @pytest.mark.parametrize("path", [*(f"{run}/trace.csv" for run in PLOTTED),
                                      "i0_1e17.csv", "i0_1e-3.csv"])
    def test_every_csv_row_is_what_percent_formats_write(self, runs, path):
        with open(runs[0] / path, encoding="utf-8") as fh:
            integer = [name in ("bin", "d1", "d2", "coinc")
                       for name in fh.readline().rstrip("\n").split(",")]
            for row, line in enumerate(fh):
                fields = line.rstrip("\n").split(",")
                assert len(fields) == len(integer), row
                again = ",".join("%d" % int(field) if whole else "%.17g" % float(field)
                                 for field, whole in zip(fields, integer))
                assert line == again + "\n", row


def test_main_exits_one_on_an_unknown_flag_before_any_output(tmp_path):
    done = subprocess.run([sys.executable, "-m", "cbwsim.cli", "scan", "--out", "r", "--bogus", "1"],
                          cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (
        1, "", "usage: cbwsim [-h] COMMAND ...\ncbwsim: error: unrecognized arguments: --bogus 1\n")
    assert not (tmp_path / "r").exists()
