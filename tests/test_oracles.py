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

Any element E along z has ``K = |E| + E[L(D)] / rho_l``, where ``L(rho)`` is
the length of E's section along z at lateral offset ``rho`` and ``D``, the
norm of that N(0, 2 sigma^2 I_2) offset, has the density
``rho / (2 sigma^2) exp(-rho^2 / (4 sigma^2))``.  The cylinder's section is
``2 h`` inside ``r``, which gives the closed form above.  The cone of the
equal-shape link, slant ``r_cn = r sqrt(a^2 + 1)`` and ``cot theta = a``,
holds the z with ``a rho <= |z| <= sqrt(r_cn^2 - rho^2)``, so its section is
``2 (sqrt(r_cn^2 - rho^2) - a rho)`` for ``rho < r`` and 0 beyond.
"""

import math
from functools import lru_cache

import numpy as np
import pytest

from aniso3d.estimate import KINDS, replicate_numerators
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


# Gauss-Legendre nodes and weights on [-1, 1]; the integrands are smooth on [0, r]
NODES, WEIGHTS = np.polynomial.legendre.leggauss(64)


def plcpp_cylinder_k(r, sigma: float = SIGMA):
    h = A * r
    own_line = -np.expm1(-r * r / (4.0 * sigma * sigma))  # 1 - exp(-r^2 / (4 sigma^2))
    return 2.0 * math.pi * r * r * h + 2.0 * h * own_line / RHO_L


def own_line_term(section, r: float, sigma: float = SIGMA) -> float:
    """``E[L(D)] / rho_l`` for the section length ``L`` of an element that
    holds no point beyond the lateral offset ``r``."""
    rho = 0.5 * r * (NODES + 1.0)
    density = rho / (2.0 * sigma * sigma) * np.exp(-rho * rho / (4.0 * sigma * sigma))
    return 0.5 * r * np.dot(WEIGHTS, section(rho) * density) / RHO_L


def plcpp_cone_k(r: float, sigma: float = SIGMA) -> float:
    r_cn = r * math.sqrt(A * A + 1.0)
    volume = 4.0 * math.pi / 3.0 * r_cn**3 * (1.0 - A / math.sqrt(A * A + 1.0))
    return volume + own_line_term(lambda rho: 2.0 * (np.sqrt(r_cn * r_cn - rho * rho) - A * rho),
                                  r, sigma)


@lru_cache(maxsize=None)
def oracle_misfit(sigma: float, seed: int):
    """Pooled z-cone and z-cylinder K of ``m`` PLCPP replicates with scatter
    ``sigma``, and their excess over the bound, in units of their standard
    error: shape (kind, radius), kinds in `KINDS` order.

    The pooled K is a ratio of sums, ``sum N_i / sum D_i`` over the
    replicates' pair numerators ``N_i`` and masses ``D_i = n (n - 1) / |W|^2``,
    both kinds from one `replicate_numerators` call per replicate.
    Its delta-method standard error is ``sd(N_i - K D_i) / (sqrt(m) mean(D_i))``.
    The bound allows the bias of the denominator, whose mean exceeds
    ``rho^2`` by ``rho^2 / (rho_l |W|)``: the typical point's own line runs
    through the unit cube's full height, with ``alpha`` other points on it.
    """
    window = unit_cube()
    patterns = simulate_campaign(ModelSpec.plcpp(RHO, RHO_L, sigma), window, M, seed)
    parts = [replicate_numerators(p, [Z_AXIS], KINDS, RADII, [A]) for p in patterns]
    numer = np.array([num[0, :, 0] for num, _ in parts])  # (replicate, kind, radius)
    mass = np.array([mass for _, mass in parts])
    k = numer.sum(axis=0) / mass.sum()
    se = np.std(numer - k * mass[:, None, None], axis=0, ddof=1) / (math.sqrt(M) * mass.mean())
    truth = np.array([[plcpp_cone_k(r) for r in RADII], plcpp_cylinder_k(RADII)])
    bias = truth / (RHO_L * window.volume)
    return (np.abs(k - truth) - bias) / se


def test_section_integral_of_the_cylinder_is_its_closed_form():
    for r in RADII:
        h = A * r
        own_line = own_line_term(lambda rho: np.full_like(rho, 2.0 * h), r)
        assert 2.0 * math.pi * r * r * h + own_line == pytest.approx(plcpp_cylinder_k(r),
                                                                     rel=1e-12)


@pytest.mark.parametrize("seed", [11, 12])
def test_plcpp_cylinder_k_matches_closed_form(seed):
    excess = oracle_misfit(SIGMA, seed)[KINDS.index("cylindrical")]
    assert np.all(excess <= SE_MULTIPLE), excess


@pytest.mark.parametrize("seed", [11, 12])
def test_plcpp_cone_k_matches_section_integral(seed):
    excess = oracle_misfit(SIGMA, seed)[KINDS.index("conical")]
    assert np.all(excess <= SE_MULTIPLE), excess


def test_oracle_rejects_scatter_halved_in_variance():
    # the scatter of a generator that took sigma as the norm of the xy offset
    # and split it over the two coordinates; each kind fails at some radius
    excess = oracle_misfit(SIGMA / math.sqrt(2.0), 11)
    assert np.all(np.any(excess > SE_MULTIPLE, axis=1)), excess
