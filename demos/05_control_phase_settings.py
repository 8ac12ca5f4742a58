"""What the control phase does.

Classical (cw) scans of the two-stage cascade at three control-phase
settings: 0 gives the doubled fringe, pi freezes the outputs (the
always-dark port used for key-distribution style operation), and pi/2
breaks the doubling.  Each scan is cross-checked against
``cbw_intensities``, which shares no code with the matrix engine the scan
runs on: the cosine law at 0 and pi, and a hand-coded power of the
two-stage block at pi/2, so the check is independent at every setting.
"""

from pathlib import Path

import numpy as np

from cbwsim import (
    NoiseModel,
    ScanConfig,
    build_cbw_chain,
    cbw_intensities,
    emit_plot_svg,
    simulate_classical_trace,
)

OUT = Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

quiet = NoiseModel()

series = []
for phi, label in [(0.0, "phi = 0 (doubled fringe)"),
                   (np.pi / 2, "phi = pi/2 (broken doubling)"),
                   (np.pi, "phi = pi (frozen outputs)")]:
    # The built cascade has a free phi parameter, which the scan's phi binds.
    scan = ScanConfig(points=1000, scan_duration=500.0, bin_duration=0.1,
                      circuit=build_cbw_chain(2), phi=phi)
    trace = simulate_classical_trace(scan, quiet, seed=0)
    pred = cbw_intensities(trace.psi, phi, 2)
    err = float(np.max(np.abs(trace.singles_d1 - np.asarray(pred.i_upper))))
    print(f"{label:32s} scan vs analytic err: {err:.2e}")
    series.append((label, trace.singles_d1))

psi = ScanConfig(points=1000, scan_duration=500.0, bin_duration=0.1).psi_values()
path = OUT / "control_phase_settings.svg"
emit_plot_svg(psi, series, path, xlabel="swept phase psi (rad)",
              ylabel="I_gamma", title="Two-stage cascade vs control phase")
print("wrote", path)
