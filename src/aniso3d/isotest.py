"""Replicated-pattern isotropy test and its power estimation.

The test assumes the candidate anisotropy axis is z and that the pattern
is exchangeable in the xy-plane.  For each replicate it compares the
directional K-curves through two integrated absolute differences::

    T_xy = integral over [r1, r2] of |S_x(r) - S_y(r)|     (null reference)
    T_z  = min(integral |S_x - S_z|, integral |S_y - S_z|)  (evidence)

Isotropy is rejected for a replicate when its T_z exceeds the empirical
(1 - alpha) quantile of the T_xy sample; the power of the test is the
rejected fraction.  Power curves sweep the integration bound r2, and
optionally the aspect ratio a, on one simulated campaign.  Every
statistic takes one path, one pool job per replicate: its x, y and z
profiles of every kind and aspect come from one pair extraction (at the
largest aspect's extent) and one kernel call on an even grid over
[0, max r2], their absolute differences are formed once, and one
trapezoidal rule integrates them up to each bound inside the worker, so
only the statistics return to the main process, which takes the
decisions.  `run_test` is the sweep at a single bound and aspect.
Windows of different shapes, a replicate with fewer than 2 points, or an
r2 that `check_r_max` refuses at any aspect raise ValueError up front.

The size of the test is at most alpha and usually well below it.  Under
isotropy in a cube T_xy, T_xz and T_yz are exchangeable, so each single
comparison of T_xz or T_yz against the threshold is calibrated at alpha,
but T_z is the minimum of the two and so is stochastically smaller than
T_xy.  On 500 Poisson replicates (rho 500, unit cube, r2 = 0.06, a = 2)
the single comparisons reject at 0.04-0.07 and T_z at about 0.01 for
alpha = 0.05.
"""

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from ._parallel import parallel_map
from .estimate import KINDS, check_r_max, replicate_numerators, require_common_window
from .estimate import pair_numerators  # unused; perfbench/tracecli.py wraps this name
from .estimate import pattern_pairs  # unused; perfbench/tracecli.py wraps this name
from .geometry import X_AXIS, Y_AXIS, Z_AXIS
from .simulate import BoxWindow, ModelSpec, simulate_campaign, unit_cube

__all__ = [
    "TestConfig",
    "IsotropyTestResult",
    "t_xy",
    "t_z",
    "run_test",
    "power_curve",
    "power_curve_from_patterns",
]

_AXES = (X_AXIS, Y_AXIS, Z_AXIS)


@dataclass(frozen=True)
class TestConfig:
    """Configuration of one isotropy test.

    ``r2`` is the integration bound on the cylinder-radius scale; the
    matching conical element reaches out to ``r2 * sqrt(a^2 + 1)``, a
    constant factor that cancels from the test decision.
    """

    __test__ = False  # keep pytest from collecting the class

    kind: str
    a: float
    r2: float
    r1: float = 0.0
    alpha_level: float = 0.05
    grid_points: int = 512

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if not self.a > 1.0:
            raise ValueError(f"aspect ratio must exceed 1, got {self.a}")
        if not 0.0 <= self.r1 < self.r2:
            raise ValueError(f"need 0 <= r1 < r2, got r1={self.r1}, r2={self.r2}")
        if not 0.0 < self.alpha_level < 1.0:
            raise ValueError(f"alpha level must be in (0, 1), got {self.alpha_level}")
        if self.grid_points < 2:
            raise ValueError(f"need at least 2 grid points, got {self.grid_points}")


@dataclass(frozen=True)
class IsotropyTestResult:
    """Per-replicate statistics, the rejection threshold, and the power."""

    t_xy: np.ndarray
    t_z: np.ndarray
    threshold: float
    rejections: np.ndarray
    power: float


def _value_at(r_grid, y, r: float):
    """``y`` interpolated at ``r`` along its last axis, with `np.interp`'s arithmetic."""
    k = int(np.searchsorted(r_grid, r, side="right")) - 1
    if r_grid[k] == r:
        return y[..., k]
    slope = (y[..., k + 1] - y[..., k]) / (r_grid[k + 1] - r_grid[k])
    return slope * (r - r_grid[k]) + y[..., k]


def _integrator(r_grid, y):
    """Trapezoidal integral over [r1, r2] along the last axis of ``y``,
    as a function ``integrate(r1, r2)``.

    ``y`` is sampled on ``r_grid`` and read as its piecewise-linear
    interpolant, so the rule is exact for it; endpoints that fall between
    grid knots contribute interpolated partial trapezoids.  The trapezoids
    between knots are formed once and reused at every bound.  Over the
    whole grid this is `np.trapezoid`, bit for bit.
    """
    inner = np.diff(r_grid) * (y[..., 1:] + y[..., :-1]) / 2.0

    def integrate(r1: float, r2: float):
        if r1 < r_grid[0] or r2 > r_grid[-1]:
            raise ValueError(
                f"integration range [{r1}, {r2}] exceeds the profile grid "
                f"[{r_grid[0]}, {r_grid[-1]}]"
            )
        lo = int(np.searchsorted(r_grid, r1, side="right"))
        hi = int(np.searchsorted(r_grid, r2, side="left"))
        v1, v2 = _value_at(r_grid, y, r1), _value_at(r_grid, y, r2)
        # the terms np.trapezoid forms from the knots r1, r_grid[lo:hi], r2,
        # in C order so that each row sums as a lone profile does
        terms = np.empty(y.shape[:-1] + (hi - lo + 1,))
        if hi == lo:
            terms[..., 0] = (r2 - r1) * (v2 + v1) / 2.0
        else:
            terms[..., 0] = (r_grid[lo] - r1) * (y[..., lo] + v1) / 2.0
            terms[..., 1:-1] = inner[..., lo:hi - 1]
            terms[..., -1] = (r2 - r_grid[hi - 1]) * (v2 + y[..., hi - 1]) / 2.0
        return terms.sum(axis=-1)

    return integrate


def _common_grid(profiles) -> np.ndarray:
    first = profiles[0]
    for p in profiles[1:]:
        if p.kind != first.kind or not np.array_equal(p.r_grid, first.r_grid):
            raise ValueError("profiles must share one kind and one r grid")
    return first.r_grid


def t_xy(profiles, cfg: TestConfig) -> float:
    """Reference statistic: integrated |S_x - S_y| of an (x, y, z) profile triple."""
    px, py, _ = profiles
    grid = _common_grid(profiles)
    return float(_integrator(grid, np.abs(px.values - py.values))(cfg.r1, cfg.r2))


def t_z(profiles, cfg: TestConfig) -> float:
    """Evidence statistic: smaller of integrated |S_x - S_z| and |S_y - S_z|."""
    px, py, pz = profiles
    grid = _common_grid(profiles)
    diffs = np.abs([px.values - pz.values, py.values - pz.values])
    return float(np.min(_integrator(grid, diffs)(cfg.r1, cfg.r2)))


def _nearest_rank_quantile(values: np.ndarray, q: float) -> float:
    srt = np.sort(values)
    rank = min(max(math.ceil(q * len(srt)), 1), len(srt))
    return float(srt[rank - 1])


def _decide(txy: np.ndarray, tz: np.ndarray, alpha: float, include_self: bool):
    m = len(txy)
    threshold = _nearest_rank_quantile(txy, 1.0 - alpha)
    if include_self:
        rejections = tz > threshold
    else:
        rejections = np.array(
            [tz[i] > _nearest_rank_quantile(np.delete(txy, i), 1.0 - alpha)
             for i in range(m)]
        )
    return threshold, rejections


def _replicate_statistics(pattern, kinds, aspects, r_grid, r1, r2_grid) -> np.ndarray:
    """Integrated |S_x - S_y|, |S_x - S_z|, |S_y - S_z| of one replicate at
    every bound, shape (aspect, kind, 3, bound).

    The x, y and z profiles of every kind and aspect come from one
    `replicate_numerators` call.
    """
    numerators, mass = replicate_numerators(pattern, _AXES, kinds, r_grid, aspects)
    profiles = numerators / mass
    sx, sy, sz = np.moveaxis(profiles, 2, 0)
    integrate = _integrator(r_grid, np.abs(np.stack([sx - sy, sx - sz, sy - sz], axis=2)))
    return np.stack([integrate(r1, r2) for r2 in r2_grid], axis=-1)


def _sweep(patterns, cfg: TestConfig, r2_grid, kinds, aspects, include_self: bool,
           threads: int):
    """One ``(r2, {kind: IsotropyTestResult})`` pair per aspect of
    ``aspects`` and bound of ``r2_grid``, aspect-major.

    ``cfg`` supplies ``r1``, ``alpha_level`` and ``grid_points``; its
    aspect ratio ``a`` must be one of ``aspects``.
    """
    patterns = list(patterns)
    if len(patterns) < 2:
        raise ValueError(f"the test needs at least 2 replicates, got {len(patterns)}")
    require_common_window(patterns, "replicates")
    sparse = [i for i, p in enumerate(patterns) if p.n < 2]
    if sparse:
        raise ValueError(
            f"replicates {sparse} have fewer than 2 points; every replicate "
            "needs at least 2 to estimate its intensity"
        )
    r2_grid = np.asarray(r2_grid, dtype=float)
    if r2_grid.size == 0 or not np.all(np.diff(r2_grid) > 0.0):  # NaN fails it
        raise ValueError("r2_grid must be nonempty and strictly ascending")
    if not r2_grid[0] > cfg.r1:
        raise ValueError("every r2 must exceed r1")
    aspects = [float(a) for a in aspects]
    if not aspects:
        raise ValueError("need at least one aspect ratio")
    for a in aspects:
        check_r_max(patterns[0].window, a, r2_grid[-1], "r2")
    if cfg.a not in aspects:
        raise ValueError(f"the configured aspect ratio {cfg.a} is not among {aspects}")
    r_grid = np.linspace(0.0, float(r2_grid[-1]), cfg.grid_points)

    stats = np.array(parallel_map(
        partial(_replicate_statistics, kinds=kinds, aspects=aspects, r_grid=r_grid,
                r1=cfg.r1, r2_grid=r2_grid.tolist()),
        patterns,
        threads,
    ))  # (replicate, aspect, kind, 3, bound)
    out = []
    for i in range(len(aspects)):
        for b, r2 in enumerate(r2_grid):
            results = {}
            for k, kind in enumerate(kinds):
                t = stats[:, i, k, :, b]
                txy, tz = t[:, 0], np.minimum(t[:, 1], t[:, 2])
                threshold, rejections = _decide(txy, tz, cfg.alpha_level, include_self)
                results[kind] = IsotropyTestResult(txy, tz, threshold, rejections,
                                                   float(rejections.mean()))
            out.append((float(r2), results))
    return out


def run_test(patterns, cfg: TestConfig, include_self: bool = True,
             threads: int = 1) -> IsotropyTestResult:
    """Run the isotropy test on replicated patterns.

    Estimates per-replicate profiles along the coordinate axes on an
    even grid over [0, r2], forms the statistics, and rejects replicate
    ``i`` when its T_z strictly exceeds the empirical (1 - alpha)
    quantile (nearest rank) of the T_xy sample, so ties never reject.
    ``include_self=False`` drops replicate ``i`` from its own reference
    sample, which shifts the power only by O(1/m).  This is the power
    sweep at the single bound ``cfg.r2`` for the single kind ``cfg.kind``,
    and it rejects the same degenerate input.

    The rule is conservative: since T_z is the smaller of two statistics
    that are each calibrated against the T_xy quantile, the null rejection
    rate is at most ``alpha_level`` and usually well below it (about 0.01
    at ``alpha_level=0.05`` for 500 Poisson replicates in the unit cube).
    """
    [(_, results)] = _sweep(patterns, cfg, [cfg.r2], (cfg.kind,), (cfg.a,),
                            include_self, threads)
    return results[cfg.kind]


def power_curve_from_patterns(
    patterns,
    cfg_base: TestConfig,
    r2_grid,
    kinds=KINDS,
    include_self: bool = True,
    threads: int = 1,
    aspects=None,
):
    """Powers over integration bounds ``r2_grid`` and aspect ratios
    ``aspects`` for replicated patterns.

    Each replicate's pairs are extracted once, at the extent of the
    largest aspect, and its profiles of every kind and aspect are
    estimated from them on a shared grid reaching ``max(r2_grid)``.  The
    absolute differences are integrated up to each bound with the rule of
    `run_test` inside the worker that holds the replicate, so neighbouring
    bounds and aspects share all randomness and only the statistics travel
    back.  ``cfg_base`` supplies ``r1``, ``alpha_level`` and
    ``grid_points``; its aspect ratio ``a`` is swept alone when
    ``aspects`` is None and must be one of ``aspects`` otherwise.  Returns
    one ``(r2, power_conical, power_cylindrical)`` row per aspect and
    bound, aspect-major (a power is NaN when its kind was not requested).
    """
    if aspects is None:
        aspects = (cfg_base.a,)
    return [
        (r2, *(results[kind].power if kind in results else math.nan for kind in KINDS))
        for r2, results in _sweep(patterns, cfg_base, r2_grid, tuple(kinds), aspects,
                                  include_self, threads)
    ]


def power_curve(
    model: ModelSpec,
    m: int,
    cfg_base: TestConfig,
    r2_grid,
    window: BoxWindow = None,
    seed: int = 0,
    kinds=KINDS,
    include_self: bool = True,
    threads: int = 1,
):
    """Simulate ``m`` replicates of ``model`` once and sweep the power.

    See `power_curve_from_patterns` for the sweep semantics; the
    campaign is keyed by ``seed`` so reruns are reproducible.
    """
    if window is None:
        window = unit_cube()
    patterns = simulate_campaign(model, window, m, seed, threads)
    return power_curve_from_patterns(
        patterns, cfg_base, r2_grid, kinds=kinds,
        include_self=include_self, threads=threads,
    )
