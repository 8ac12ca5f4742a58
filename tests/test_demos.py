"""Every demo runs, and the plotting ones reproduce their tracked SVGs byte for byte.

Each demo is run as a copy in a temporary directory, since the plotting
ones write into ``out/`` next to their own file; that output is compared
with ``demos/out``.
"""

import runpy
import shutil
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def run_copy(tmp_path, demo):
    copy = tmp_path / demo
    shutil.copy(DEMOS / demo, copy)
    runpy.run_path(str(copy), run_name="__main__")


@pytest.mark.parametrize("demo", [
    "01_single_mzi_transfer_matrices.py",
    "02_circuit_language.py",
    "06_sensitivity_and_plate_tuner.py",
])
def test_demo_without_a_plot_runs(tmp_path, capsys, demo):
    run_copy(tmp_path, demo)
    assert capsys.readouterr().out


@pytest.mark.parametrize("demo, svg", [
    ("03_fringe_multiplication.py", "fringe_multiplication.svg"),
    ("04_photon_counting_coincidences.py", "photon_counting_scan.svg"),
    ("05_control_phase_settings.py", "control_phase_settings.svg"),
])
def test_demo_svg_is_byte_identical_to_the_tracked_one(tmp_path, demo, svg):
    run_copy(tmp_path, demo)
    assert (tmp_path / "out" / svg).read_bytes() == (DEMOS / "out" / svg).read_bytes()
