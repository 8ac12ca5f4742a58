"""The plotting demos reproduce their tracked SVGs byte for byte.

Each demo writes into ``out/`` next to its own file, so it is run as a copy
in a temporary directory and its output compared with ``demos/out``.
"""

import runpy
import shutil
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("demo, svg", [
    ("03_fringe_multiplication.py", "fringe_multiplication.svg"),
    ("04_photon_counting_coincidences.py", "photon_counting_scan.svg"),
    ("05_control_phase_settings.py", "control_phase_settings.svg"),
])
def test_demo_svg_is_byte_identical_to_the_tracked_one(tmp_path, demo, svg):
    copy = tmp_path / demo
    shutil.copy(DEMOS / demo, copy)
    runpy.run_path(str(copy), run_name="__main__")
    assert (tmp_path / "out" / svg).read_bytes() == (DEMOS / "out" / svg).read_bytes()
