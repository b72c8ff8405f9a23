"""Run the replicated-pattern isotropy test and sweep its power.

The test compares each replicate's z-direction K-curve against its x and
y curves through integrated absolute differences, using the x-vs-y
differences of the whole campaign as the null reference.  Sweeping the
integration bound r2 shows where each structuring element is most
sensitive; longer cylinders (larger aspect ratio) are more powerful for
columnar patterns.
"""

import numpy as np

from aniso3d import (
    ModelSpec,
    TestConfig,
    power_curve_from_patterns,
    run_test,
    simulate_campaign,
    unit_cube,
)

M = 100  # replicates per campaign; enough for a readable demo

# ---------------------------------------------------------------------------
# A single test run on a mildly columnar pattern
# ---------------------------------------------------------------------------
model = ModelSpec.plcpp(500.0, 200.0, 0.01)
patterns = simulate_campaign(model, unit_cube(), M, seed=7)
cfg = TestConfig(kind="cylindrical", a=2.0, r2=0.04, alpha_level=0.05)
result = run_test(patterns, cfg)
print(f"plcpp sigma=0.01, cylindrical, r2=0.04: power={result.power:.2f} "
      f"(threshold {result.threshold:.3e})")
print(f"  median T_xy={np.median(result.t_xy):.3e}  median T_z="
      f"{np.median(result.t_z):.3e}")

# Poisson control stays near (below) the nominal level
control = simulate_campaign(ModelSpec.poisson(500.0), unit_cube(), M, seed=8)
print(f"poisson control: power={run_test(control, cfg).power:.2f}")

# ---------------------------------------------------------------------------
# Power versus the integration bound, both structuring elements at once
# ---------------------------------------------------------------------------
r2_grid = [0.005, 0.01, 0.02, 0.03, 0.04, 0.06, 0.08, 0.1]
campaign = simulate_campaign(model, unit_cube(), M, seed=9)
rows = power_curve_from_patterns(campaign, cfg, r2_grid)
print("\nr2      conical  cylindrical")
for r2, p_cn, p_cl in rows:
    print(f"{r2:<7.3f} {p_cn:^8.2f} {p_cl:^11.2f}")

# ---------------------------------------------------------------------------
# Longer cylinders help: peak power grows with the aspect ratio
# ---------------------------------------------------------------------------
print("\naspect ratio sweep (max cylindrical power over r2)")
aspects = (1.5, 2.0, 3.0)
rows = power_curve_from_patterns(campaign, TestConfig(kind="cylindrical", a=2.0, r2=0.1),
                                 r2_grid, kinds=("cylindrical",), aspects=aspects)
n = len(r2_grid)  # one row per (a, r2), aspect-major
for i, a in enumerate(aspects):
    print(f"  a={a}: {max(p_cl for _, _, p_cl in rows[i * n:(i + 1) * n]):.2f}")
