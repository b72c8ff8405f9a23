"""Generate one replicate of each model family and summarize its structure.

Four generators cover the anisotropy landscape: Poisson (no structure),
the Poisson line cluster process (points strung along vertical lines),
the Matérn type II hard-core process (weak regularity), and force-biased
ball packing (strong regularity).  One `ModelSpec` describes each model,
and each generator takes it.  Compressing a regular pattern along z
turns regularity into anisotropy.  Saves a scatter figure when matplotlib
is available.
"""

import numpy as np
from scipy.spatial import cKDTree

from aniso3d import (
    ModelSpec,
    compress,
    simulate_matern,
    simulate_packing,
    simulate_plcpp,
    simulate_poisson,
    unit_cube,
)

SEED = 2026
w = unit_cube()


def nn_distances(points):
    d, _ = cKDTree(points).query(points, k=2)
    return d[:, 1]


patterns = {}
poisson = ModelSpec.poisson(500.0)
patterns["poisson"] = simulate_poisson(poisson, w, SEED)

plcpp = ModelSpec.plcpp(500.0, rho_l=200.0, sigma=0.001)
patterns["plcpp sigma=0.001"], feet = simulate_plcpp(plcpp, w, SEED, return_lines=True)

patterns["matern R=0.05"] = simulate_matern(ModelSpec.matern(500.0, 0.05), w, SEED)

packing = simulate_packing(ModelSpec.packing(500.0, 0.05), w, SEED)
patterns["packing r=0.05"] = packing
patterns["packing compressed c=0.7"] = compress(packing, 0.7)

print(f"{'model':28s} {'n':>5s} {'nn min':>8s} {'nn mean':>8s}")
for name, p in patterns.items():
    nn = nn_distances(p.points)
    print(f"{name:28s} {p.n:5d} {nn.min():8.4f} {nn.mean():8.4f}")

print(f"\nplcpp parent lines: {len(feet)}")
print("matern nearest neighbours never fall below 0.05 by construction;")
print("packing centers keep distance 2 x 0.05 = 0.1 (ball diameter).")
print("compression keeps the count and the window volume:",
      patterns["packing compressed c=0.7"].n,
      f"{patterns['packing compressed c=0.7'].window.volume:.12f}")

# one deterministic replicate, reproducible bit for bit
again = simulate_poisson(poisson, w, SEED)
print("rerun with the same seed is identical:",
      np.array_equal(again.points, patterns["poisson"].points))

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig = plt.figure(figsize=(12, 3))
    show = ["poisson", "plcpp sigma=0.001", "packing r=0.05",
            "packing compressed c=0.7"]
    for i, name in enumerate(show, start=1):
        ax = fig.add_subplot(1, 4, i, projection="3d")
        pts = patterns[name].points
        ax.scatter(pts[:, 0], pts[:, 1], pts[:, 2], s=2)
        ax.set_title(name, fontsize=8)
        ax.set_xticks([]), ax.set_yticks([]), ax.set_zticks([])
    fig.tight_layout()
    fig.savefig("point_process_zoo.png", dpi=130)
    print("wrote point_process_zoo.png")
except ImportError:
    print("matplotlib not installed, skipping the figure")
