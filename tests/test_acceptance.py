"""Acceptance suite: one test per criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines on stdout.
"""

import numpy as np

from cbwsim import cli
from cbwsim.analytic import (
    GlassPlateFormula,
    GlassPlateModel,
    cbw_intensities,
    expected_coincidence_fraction,
    glass_plate_opd,
)
from cbwsim.circuit import (
    CircuitAst,
    ElementKind,
    ElementNode,
    build_cbw_chain,
    output_intensities,
)
from cbwsim.config import (
    LAB_NOISE,
    NoiseModel,
    ScanConfig,
    SourceModel,
)
from cbwsim.experiment import dominant_period, estimate_sensitivity, fringe_stats
from cbwsim.montecarlo import coincidence_fraction, simulate_classical_trace, simulate_scan_counts
from cbwsim.optics import Arm

QUIET = NoiseModel()


def report(number: int, description: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    line = f"ACCEPTANCE {number:2d}: {status} - {description}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert passed, line


def classical_scan(modules, phi=0.0, points=4096, cycles=10.0, seed=0):
    scan = ScanConfig(points=points, scan_duration=500.0, bin_duration=0.1,
                      cycles_per_ramp=cycles, phi=phi, circuit=build_cbw_chain(modules))
    return simulate_classical_trace(scan, QUIET, seed)


def period_in_bins(trace_values, psi):
    period = dominant_period(trace_values, psi)
    span = len(psi) * (psi[1] - psi[0])
    return span / period, span


def test_criterion_1_analytic_numeric_equivalence():
    psis = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
    phis = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
    worst = 0.0
    for m in (1, 2):
        for phi in phis:
            pred = cbw_intensities(psis, float(phi), m, 1.0)
            ast = build_cbw_chain(m, phi=float(phi))
            up, lo = output_intensities(ast, {"psi": psis})
            worst = max(worst,
                        float(np.max(np.abs(np.asarray(pred.i_upper) - up))),
                        float(np.max(np.abs(np.asarray(pred.i_lower) - lo))))
    report(1, "closed forms match matrix composition on 64x64 grid, m in {1,2}",
           worst < 1e-12, f"max |diff| = {worst:.2e}")


def test_criterion_2_fringe_doubling():
    baseline = classical_scan(1)
    doubled = classical_scan(2)
    k1, span1 = period_in_bins(baseline.singles_d1, baseline.psi)
    k2, span2 = period_in_bins(doubled.singles_d1, doubled.psi)
    ok = abs(k1 - span1 / (2 * np.pi)) <= 1.0 and abs(k2 - span2 / np.pi) <= 1.0
    report(2, "two-stage scan halves the fringe period (pi vs 2pi baseline)",
           ok, f"m=1 period = {span1 / k1:.5f}, m=2 period = {span2 / k2:.5f}")


def test_criterion_3_fringe_tripling():
    tripled = classical_scan(3)
    k3, span3 = period_in_bins(tripled.singles_d1, tripled.psi)
    period_ok = abs(k3 - span3 / (2 * np.pi / 3)) <= 1.0
    law = (1.0 - np.cos(3.0 * tripled.psi)) / 2.0
    law_err = float(np.max(np.abs(tripled.singles_d1 - law)))
    report(3, "three-stage scan gives 2pi/3 period and the tripled-fringe law",
           period_ok and law_err < 1e-12,
           f"period = {span3 / k3:.5f}, law err = {law_err:.2e}")


def test_criterion_4_symmetric_output_stays_dark():
    psis = np.linspace(0.0, 2 * np.pi, 4096, endpoint=False)
    _, lower = output_intensities(build_cbw_chain(2, phi=np.pi), {"psi": psis})
    trace = classical_scan(2, phi=np.pi, points=2048)
    worst = max(float(np.max(lower)), float(np.max(trace.singles_d2)))
    report(4, "control phase pi keeps the second output dark for every psi",
           worst < 1e-12, f"max I_delta = {worst:.2e}")


def test_criterion_5_coincidence_statistics():
    balanced = CircuitAst(1.0, (
        ElementNode(ElementKind.MZI, Arm.LOWER, np.pi / 4, "C1"),
        ElementNode(ElementKind.PHASE, Arm.UPPER, 0.0),
        ElementNode(ElementKind.MZI, Arm.UPPER, np.pi / 4, "W2"),
    ), ("gamma", "delta"))
    scan = ScanConfig(points=10, bin_duration=0.01, scan_duration=0.1, circuit=balanced)
    source = SourceModel(mean_photons_per_window=0.04, window_duration=1e-8)
    trace = simulate_scan_counts(scan, source, QUIET, seed=42)  # 1e7 windows
    fraction = coincidence_fraction(trace)
    expected = expected_coincidence_fraction(0.04, 0.5, 0.5)
    union = float(trace.singles_d1.sum() + trace.singles_d2.sum() - trace.coincidences.sum())
    sigma = float(np.sqrt(expected * (1.0 - expected) / union))
    ok = 0.008 <= fraction <= 0.012 and abs(fraction - expected) < 3.0 * sigma
    report(5, "coincidence/singles ratio ~1% at mean photons 0.04 over 1e7 windows",
           ok, f"ratio = {fraction:.5f}, oracle = {expected:.5f}, 3sigma = {3 * sigma:.5f}")


def test_criterion_6_single_mzi_coincidence_doubling():
    scan = ScanConfig(points=512, bin_duration=0.01, scan_duration=5.12,
                      cycles_per_ramp=10.0, phi=0.0, circuit=build_cbw_chain(1))
    source = SourceModel(mean_photons_per_window=0.3, window_duration=1e-6)
    trace = simulate_scan_counts(scan, source, QUIET, seed=6)
    k_singles, _ = period_in_bins(trace.singles_d1, trace.psi)
    k_coinc, _ = period_in_bins(trace.coincidences, trace.psi)
    report(6, "simulated coincidence fringe frequency doubles the singles frequency",
           abs(k_coinc - 2.0 * k_singles) <= 1.0,
           f"singles bin = {k_singles:.3f}, coincidence bin = {k_coinc:.3f}")


def test_criterion_7_visibility_bands():
    # High-count noiseless run: singles visibility essentially unity.
    scan = ScanConfig(points=600, scan_duration=500.0, bin_duration=0.1,
                      circuit=build_cbw_chain(2), phi=0.0)
    bright = SourceModel(mean_photons_per_window=0.5, window_duration=2e-6)  # 5e4 windows/bin
    quiet_trace = simulate_scan_counts(scan, bright, QUIET, seed=3)
    peak = int(np.max(quiet_trace.singles_d1))
    v_quiet = fringe_stats(quiet_trace.singles_d1, quiet_trace.psi, 0.2).visibility_mean

    # Fitted lab-noise model: coincidence visibility in the reported band.
    lab_source = SourceModel(mean_photons_per_window=0.3, window_duration=1e-6)
    lab_trace = simulate_scan_counts(scan, lab_source, LAB_NOISE, seed=7)
    lab_stats = fringe_stats(lab_trace.coincidences, lab_trace.psi, 0.2)
    v_lab, v_lab_std = lab_stats.visibility_mean, lab_stats.visibility_std

    ok = peak >= 10_000 and v_quiet >= 0.99 and 0.95 <= v_lab <= 0.999 and v_lab > 0.707
    report(7, "visibility: noiseless >= 0.99; fitted noise in [0.95, 0.999] and > 0.707",
           ok, f"noiseless V = {v_quiet:.4f} (peak {peak}), lab V = {v_lab:.4f} +- {v_lab_std:.4f}")


def test_criterion_8_sensitivity_scaling():
    ratios = [r.ratio_to_classical for r in estimate_sensitivity(5, 100_000)]
    errs = [abs(r - 1.0 / m) * m for m, r in zip(range(1, 6), ratios)]
    report(8, "phase sensitivity scales as 1/m within 1% for m = 1..5",
           max(errs) < 0.01, "ratios = " + ", ".join(f"{r:.4f}" for r in ratios))


def test_criterion_9_pzt_calibration_fringe_counts():
    trace = classical_scan(1, points=5000, cycles=ScanConfig().cycles_per_ramp)
    singles_cycles = fringe_stats(trace.singles_d1, trace.psi, 0.2).fringe_count
    coincidence_expectation = trace.singles_d1 * trace.singles_d2
    coincidence_fringes = fringe_stats(coincidence_expectation, trace.psi, 0.2).fringe_count
    ok = singles_cycles == 10.5 and coincidence_fringes == 21.0
    report(9, "default calibration: 10.5 singles cycles and 21 coincidence fringes per ramp",
           ok, f"singles = {singles_cycles}, coincidences = {coincidence_fringes}")


def test_criterion_10_glass_plate_tuning_slope():
    deg = np.pi / 180.0
    h = 1e-7
    snell = GlassPlateModel(GlassPlateFormula.SNELL_CORRECTED, 1e-3, 1.5)
    paper = GlassPlateModel(GlassPlateFormula.PAPER_FORMULA, 1e-3, 1.5)

    def slope_per_degree(model):
        return (glass_plate_opd(model, 45 * deg + h) - glass_plate_opd(model, 45 * deg - h)) / (2 * h) * deg

    snell_slope = slope_per_degree(snell)
    paper_slope = slope_per_degree(paper)
    # The published formula's ~37 um/deg is pinned as a documented discrepancy.
    ok = 5e-6 <= snell_slope <= 7e-6 and abs(paper_slope - 37e-6) < 1e-6
    report(10, "plate tuner: corrected slope in [5, 7] um/deg; published formula ~37 um/deg",
           ok, f"corrected = {snell_slope * 1e6:.2f} um/deg, published = {paper_slope * 1e6:.2f} um/deg")


def test_criterion_11_classical_quantum_equivalence():
    lam, windows, points = 0.5, 20_000, 128
    scan = ScanConfig(points=points, bin_duration=0.02, scan_duration=points * 0.02,
                      circuit=build_cbw_chain(2), phi=0.0)
    classical = simulate_classical_trace(scan, QUIET, seed=1)
    photon = simulate_scan_counts(scan, SourceModel(mean_photons_per_window=lam, window_duration=1e-6),
                                  QUIET, seed=8)
    p_gamma = classical.singles_d1 / (classical.singles_d1 + classical.singles_d2)
    worst = 0.0
    for observed, p in ((photon.singles_d1, p_gamma), (photon.singles_d2, 1.0 - p_gamma)):
        q = 1.0 - np.exp(-lam * p)
        sigma = np.sqrt(np.maximum(windows * q * (1.0 - q), 1e-12))
        worst = max(worst, float(np.max(np.abs(observed - windows * q) / sigma)))
    report(11, "normalized classical trace predicts photon counts within 3 sigma pointwise",
           worst < 3.0, f"max |z| = {worst:.2f} over {2 * points} bins")


def test_criterion_12_end_to_end_determinism(tmp_path):
    args = ["scan", "--modules", "2", "--phi", "0", "--points", "128",
            "--bin-duration", "0.01", "--scan-duration", "1.28",
            "--mean-photons", "0.3", "--window-duration", "1e-6",
            "--seed", "2024", "--noise", "lab"]
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    code1 = cli.dispatch(args + ["--workers", "1", "--out", str(out1)])
    code2 = cli.dispatch(args + ["--workers", "4", "--out", str(out2)])
    same_csv = (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()
    same_svg = (out1 / "trace.svg").read_bytes() == (out2 / "trace.svg").read_bytes()
    report(12, "same seed, different parallelism: byte-identical CSV and SVG",
           code1 == 0 and code2 == 0 and same_csv and same_svg,
           f"csv identical = {same_csv}, svg identical = {same_svg}")
