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
    count_fringes,
    emit_plot_svg,
    expected_coincidence_fraction,
    simulate_scan_counts,
    visibility,
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

vis_coinc, std_coinc = visibility(trace.coincidences)
vis_singles, std_singles = visibility(trace.singles_d1)
print(f"singles visibility:     {vis_singles:.4f} +- {std_singles:.4f}")
print(f"coincidence visibility: {vis_coinc:.4f} +- {std_coinc:.4f}")
print(f"singles fringes:     {count_fringes(trace.singles_d1):.1f}")
print(f"coincidence fringes: {count_fringes(trace.coincidences):.1f} (doubled)")

path = OUT / "photon_counting_scan.svg"
emit_plot_svg(trace.time,
              [("d1", trace.singles_d1), ("d2", trace.singles_d2),
               ("coinc x 20", trace.coincidences * 20)],
              path, xlabel="time (s)", ylabel="counts per 0.1 s bin",
              title="Two-stage cascade, photon counting")
print("wrote", path)
