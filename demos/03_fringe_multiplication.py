"""Fringe-frequency multiplication in cascaded MZIs.

Sweeps the shared phase for cascades of 1, 2 and 3 stages at control
phase 0 and renders the multiplied fringes to an SVG.  The two-stage
chain halves the fringe period and the three-stage chain cuts it to a
third.  All three curves come from one closed form,
``I_upper = (1 + (-1)^m cos(m psi)) / 2``, which shares no code with the
matrix engine and agrees with direct matrix composition to 1e-12.
"""

from pathlib import Path

import numpy as np

from cbwsim import build_cbw_chain, cbw_intensities, cbw_wavelength, emit_plot_svg, output_intensities

OUT = Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

psi = np.linspace(0.0, 2.0 * np.pi, 1001)
series = []
for m in (1, 2, 3):
    pred = cbw_intensities(psi, 0.0, m)
    up, _ = output_intensities(build_cbw_chain(m, phi=0.0), {"psi": psi})
    err = float(np.max(np.abs(np.asarray(pred.i_upper) - up)))
    wavelength = cbw_wavelength(m, 532e-9)
    print(f"m={m}: branch={pred.branch:18s} closed-form vs composition err={err:.2e} "
          f"fringe wavelength at 532 nm = {wavelength * 1e9:.2f} nm")
    series.append((f"m={m}", np.asarray(pred.i_upper)))

path = OUT / "fringe_multiplication.svg"
emit_plot_svg(psi, series, path, xlabel="swept phase psi (rad)",
              ylabel="upper output intensity", title="Fringe multiplication, control phase 0")
print("wrote", path)
