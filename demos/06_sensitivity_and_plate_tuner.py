"""Phase sensitivity scaling and the tilted-plate control-phase tuner.

The m-stage cascade steepens the output-difference slope m-fold, so the
resolvable phase step shrinks as 1/m.  The second half evaluates the
1 mm glass plate used to trim the control phase: the refraction-corrected
path difference tunes ~6 um (~11 fringes of 532 nm) per degree at 45
degrees, while the uncorrected textbook-free form would claim ~37 um.
"""

import numpy as np

from cbwsim import (
    GlassPlateFormula,
    GlassPlateModel,
    estimate_sensitivity,
    glass_plate_opd,
)

print(f"{'m':>3} {'eta':>8} {'delta_phi':>10} {'ratio':>8} {'slope at psi':>13}")
for rep in estimate_sensitivity(5, 100_000):
    print(f"{rep.m:3d} {rep.eta:8.4f} {rep.delta_phi:10.4f} "
          f"{rep.ratio_to_classical:8.4f} {rep.max_slope_psi:13.4f}")

deg = np.pi / 180.0
snell = GlassPlateModel(GlassPlateFormula.SNELL_CORRECTED, 1e-3, 1.5)
paper = GlassPlateModel(GlassPlateFormula.PAPER_FORMULA, 1e-3, 1.5)

print("\ntilted 1 mm plate (n = 1.5): optical path difference")
print(f"{'theta':>7} {'corrected (um)':>15} {'uncorrected (um)':>17}")
for theta_deg in (0, 15, 30, 45, 60):
    t = theta_deg * deg
    print(f"{theta_deg:6d}° {glass_plate_opd(snell, t) * 1e6:15.2f} "
          f"{glass_plate_opd(paper, t) * 1e6:17.2f}")

h = 1e-7
slope = (glass_plate_opd(snell, 45 * deg + h) - glass_plate_opd(snell, 45 * deg - h)) / (2 * h) * deg
print(f"\ncorrected tuning slope at 45 degrees: {slope * 1e6:.2f} um/degree "
      f"= {slope / 532e-9:.1f} fringes of 532 nm per degree")
