"""Photon-counting scan with AND-gate coincidences.

Simulates a full PZT scan of the two-stage cascade with an attenuated
source plus the fitted lab-noise model, then compares the coincidence
fraction against the Poisson oracle and plots singles + coincidences.
The coincidence fringe runs at twice the singles' frequency, mirroring
what the counting unit records on the bench.
"""

from pathlib import Path

from cbwsim import (
    LAB_NOISE,
    ScanConfig,
    SourceModel,
    build_cbw_chain,
    coincidence_fraction,
    emit_plot_svg,
    expected_coincidence_fraction,
    fringe_stats,
    simulate_scan_counts,
)

OUT = Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

scan = ScanConfig(points=600, scan_duration=500.0, bin_duration=0.1,
                  cycles_per_ramp=10.5, circuit=build_cbw_chain(2), phi=0.0)
source = SourceModel(mean_photons_per_window=0.3, window_duration=1e-6)
trace = simulate_scan_counts(scan, source, LAB_NOISE, seed=7)

fraction = coincidence_fraction(trace)
oracle = expected_coincidence_fraction(0.3, 0.5, 0.5)
print(f"coincidence fraction averaged over the fringe: {fraction:.5f}")
print(f"balanced-output oracle (fringe peak reference): {oracle:.5f}")

singles = fringe_stats(trace.singles_d1, trace.psi)
coinc = fringe_stats(trace.coincidences, trace.psi)
print(f"singles visibility:     {singles.visibility_mean:.4f} +- {singles.visibility_std:.4f}")
print(f"coincidence visibility: {coinc.visibility_mean:.4f} +- {coinc.visibility_std:.4f}")
print(f"singles fringes:     {singles.fringe_count:.1f}")
print(f"coincidence fringes: {coinc.fringe_count:.1f} (doubled)")

path = OUT / "photon_counting_scan.svg"
emit_plot_svg(trace.time,
              [("d1", trace.singles_d1), ("d2", trace.singles_d2),
               ("coinc x 20", trace.coincidences * 20)],
              path, xlabel="time (s)", ylabel="counts per 0.1 s bin",
              title="Two-stage cascade, photon counting")
print("wrote", path)
