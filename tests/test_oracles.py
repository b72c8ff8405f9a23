"""Analytic oracles: pooled K estimates of simulated models against closed forms.

A Poisson line cluster process with lines along z, ``rho_l`` lines per unit
area and N(0, sigma^2) scatter per orthogonal coordinate has, for the
cylinder of radius ``r`` and half height ``h`` along z,

    K(r) = 2 pi r^2 h + 2 h (1 - exp(-r^2 / (4 sigma^2))) / rho_l.

The first term is the cylinder's volume, the K of Poisson.  The second
counts the typical point's own line: its other points lie at intensity
``alpha`` along z, so ``2 h alpha`` of them fall within the cylinder's
height, and the xy offset of each from the typical point is the
difference of two scatters, N(0, 2 sigma^2) per coordinate, whose norm is
within ``r`` with probability ``1 - exp(-r^2 / (4 sigma^2))``.  Divided by
``rho = rho_l * alpha`` it gives the term above.
"""

import math

import numpy as np
import pytest

from aniso3d.estimate import pooled_profile, replicate_numerators
from aniso3d.geometry import Z_AXIS
from aniso3d.simulate import ModelSpec, simulate_campaign, unit_cube

RHO, RHO_L, SIGMA, A = 500.0, 200.0, 0.01, 2.0
RADII = np.array([0.01, 0.02, 0.04, 0.06])
M = 300

# Fixed before any run.  Under the delta method's normal approximation a
# correct estimator strays past 4 standard errors with probability 6e-5 at
# one radius, so below 1e-3 over the 4 radii and 2 seeds even if they were
# independent.  Halving the scatter variance moves K(0.01) by +61% and
# K(0.02) by +26% of itself, over 10 standard errors of m = 300 replicates.
SE_MULTIPLE = 4.0


def plcpp_cylinder_k(r, sigma: float = SIGMA):
    h = A * r
    own_line = -np.expm1(-r * r / (4.0 * sigma * sigma))  # 1 - exp(-r^2 / (4 sigma^2))
    return 2.0 * math.pi * r * r * h + 2.0 * h * own_line / RHO_L


def oracle_misfit(sigma: float, seed: int):
    """Pooled z-cylinder K of ``m`` PLCPP replicates with scatter ``sigma``,
    and its excess over the bound, in units of its standard error.

    The pooled K is a ratio of sums, ``sum N_i / sum D_i`` over the
    replicates' pair numerators ``N_i`` and masses ``D_i = n (n - 1) / |W|^2``.
    Its delta-method standard error is ``sd(N_i - K D_i) / (sqrt(m) mean(D_i))``.
    The bound allows the bias of the denominator, whose mean exceeds
    ``rho^2`` by ``rho^2 / (rho_l |W|)``: the typical point's own line runs
    through the unit cube's full height, with ``alpha`` other points on it.
    """
    window = unit_cube()
    patterns = simulate_campaign(ModelSpec.plcpp(RHO, RHO_L, sigma), window, M, seed)
    k = pooled_profile(patterns, Z_AXIS, "cylindrical", RADII, A).values
    parts = [replicate_numerators(p, [Z_AXIS], ["cylindrical"], RADII, [A]) for p in patterns]
    numer = np.array([num[0, 0, 0] for num, _ in parts])
    mass = np.array([mass for _, mass in parts])
    se = np.std(numer - k * mass[:, None], axis=0, ddof=1) / (math.sqrt(M) * mass.mean())
    truth = plcpp_cylinder_k(RADII)
    bias = truth / (RHO_L * window.volume)
    return (np.abs(k - truth) - bias) / se


@pytest.mark.parametrize("seed", [11, 12])
def test_plcpp_cylinder_k_matches_closed_form(seed):
    excess = oracle_misfit(SIGMA, seed)
    assert np.all(excess <= SE_MULTIPLE), excess


def test_oracle_rejects_scatter_halved_in_variance():
    # the scatter of a generator that took sigma as the norm of the xy offset
    # and split it over the two coordinates
    excess = oracle_misfit(SIGMA / math.sqrt(2.0), 11)
    assert np.any(excess > SE_MULTIPLE), excess
