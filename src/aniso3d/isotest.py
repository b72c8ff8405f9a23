"""Replicated-pattern isotropy test and its power estimation.

The test assumes the candidate anisotropy axis is z and that the pattern
is exchangeable in the xy-plane.  For each replicate it compares the
directional K-curves through two integrated absolute differences::

    T_xy = integral over [r1, r2] of |S_x(r) - S_y(r)|     (null reference)
    T_z  = min(integral |S_x - S_z|, integral |S_y - S_z|)  (evidence)

Isotropy is rejected for a replicate when its T_z exceeds the empirical
(1 - alpha) quantile of the T_xy sample; the power of the test is the
rejected fraction.  `power_curve_from_patterns` sweeps the integration
bound r2, and optionally the aspect ratio a, on one set of replicates,
such as a campaign from `simulate_campaign`.  Every statistic takes one
path, one pool job per replicate, which materialises the replicate from
its source (the pattern itself, a pattern-file path it reads, or a
campaign key ``(model, window, seed, i)`` it simulates) and reduces it:
its x, y and z profiles of every kind and aspect come from one pair
extraction (at the largest aspect's extent) and one kernel call on an
even grid over [0, max r2], and `_statistics`, the one definition of
T_xy and T_z, integrates their absolute differences up to each bound
with one trapezoidal rule inside the worker, so only the statistics
return to the main process.  There
one sort along the replicate axis gives every (aspect, kind, bound)
threshold, and the decisions come back as arrays.  `run_test` is the
sweep at a single bound, kind and aspect, and `t_xy` and `t_z` apply
`_statistics` to one profile triple.  `check_sweep` states the sweep's
rules once, and the CLI calls it before it simulates; a request it
refuses raises ValueError before any pair is extracted.  A replicate
whose window shape differs from the first one's is refused in its own
job, so the first fault in input order is reported; one of fewer than 2
points is reduced to nothing and refused once every job is back.

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
from .estimate import GRID_POINTS, KINDS, check_kinds, even_grid, replicate_numerators
from .estimate import pair_numerators  # unused; perfbench/tracecli.py wraps this name
from .estimate import pattern_pairs  # unused; perfbench/tracecli.py wraps this name
from .geometry import X_AXIS, Y_AXIS, Z_AXIS
from .patternio import reduce_replicate, source_window

__all__ = [
    "TestConfig",
    "IsotropyTestResult",
    "t_xy",
    "t_z",
    "run_test",
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
    grid_points: int = GRID_POINTS

    def __post_init__(self):
        check_kinds([self.kind])
        if not self.a > 1.0:
            raise ValueError(f"aspect ratio must exceed 1, got {self.a}")
        if not 0.0 <= self.r1 < self.r2:
            raise ValueError(f"need 0 <= r1 < r2, got r1={self.r1}, r2={self.r2}")
        if not 0.0 < self.alpha_level < 1.0:
            raise ValueError(f"alpha level must be in (0, 1), got {self.alpha_level}")
        if not isinstance(self.grid_points, (int, np.integer)) or self.grid_points < 2:
            raise ValueError(f"need a whole number of at least 2 grid points, "
                             f"got {self.grid_points}")


@dataclass(frozen=True)
class IsotropyTestResult:
    """Per-replicate statistics, the rejection threshold, and the power."""

    t_xy: np.ndarray
    t_z: np.ndarray
    threshold: float
    rejections: np.ndarray
    power: float


def _integrals(r_grid, y, r1, r2_grid) -> np.ndarray:
    """Trapezoidal integrals over [r1, r2] along the last axis of ``y``, at
    every bound r2 of the ascending ``r2_grid``: shape (..., bound).

    ``y`` is sampled on ``r_grid`` and read as its piecewise-linear
    interpolant, so the rule is exact for it; endpoints that fall between
    grid knots contribute interpolated partial trapezoids.  The trapezoids
    between knots, r1's end and every r2's end are formed once, for all
    bounds.  Over the whole grid this is `np.trapezoid`, bit for bit.
    """
    r2_grid = np.asarray(r2_grid, dtype=float)
    if r1 < r_grid[0] or r2_grid[-1] > r_grid[-1]:
        raise ValueError(
            f"integration range [{r1}, {r2_grid[-1]}] exceeds the profile grid "
            f"[{r_grid[0]}, {r_grid[-1]}]"
        )
    ends = np.concatenate([[r1], r2_grid])
    k = np.searchsorted(r_grid, ends, side="right") - 1
    at = np.minimum(k, len(r_grid) - 2)  # k itself wherever an end falls between knots
    slope = (y[..., at + 1] - y[..., at]) / (r_grid[at + 1] - r_grid[at])
    # each end's value, with np.interp's arithmetic
    v = np.where(r_grid[k] == ends, y[..., k], slope * (ends - r_grid[at]) + y[..., at])
    v1, v2 = v[..., :1], v[..., 1:]
    lo, his = k[0] + 1, np.searchsorted(r_grid, r2_grid, side="left")
    # the terms np.trapezoid forms from the knots r1, r_grid[lo:hi], r2
    inner = np.diff(r_grid) * (y[..., 1:] + y[..., :-1]) / 2.0
    first = (r_grid[lo] - r1) * (y[..., lo:lo + 1] + v1) / 2.0
    last = (r2_grid - r_grid[his - 1]) * (v2 + y[..., his - 1]) / 2.0
    alone = (r2_grid - r1) * (v2 + v1) / 2.0  # no knot between r1 and r2
    # each bound sums its terms in C order, so that each row sums as a lone profile does
    return np.stack([alone[..., b] if hi == lo else
                     np.concatenate([first, inner[..., lo:hi - 1], last[..., b:b + 1]],
                                    axis=-1).sum(axis=-1)
                     for b, hi in enumerate(his)], axis=-1)


def _statistics(sx, sy, sz, r_grid, r1, r2_grid) -> np.ndarray:
    """T_xy and T_z of x, y and z profiles sampled on ``r_grid`` along their
    last axis, at every bound of ``r2_grid``: shape (..., 2, bound)."""
    t = _integrals(r_grid, np.abs(np.stack([sx - sy, sx - sz, sy - sz], axis=-2)), r1, r2_grid)
    return np.stack([t[..., 0, :], np.minimum(t[..., 1, :], t[..., 2, :])], axis=-2)


def _triple_statistics(profiles, cfg: TestConfig) -> np.ndarray:
    first = profiles[0]
    for p in profiles[1:]:
        if p.kind != first.kind or not np.array_equal(p.r_grid, first.r_grid):
            raise ValueError("profiles must share one kind and one r grid")
    return _statistics(*(p.values for p in profiles), first.r_grid, cfg.r1, [cfg.r2])[:, 0]


def t_xy(profiles, cfg: TestConfig) -> float:
    """Reference statistic: integrated |S_x - S_y| of an (x, y, z) profile triple."""
    return float(_triple_statistics(profiles, cfg)[0])


def t_z(profiles, cfg: TestConfig) -> float:
    """Evidence statistic: smaller of integrated |S_x - S_z| and |S_y - S_z|."""
    return float(_triple_statistics(profiles, cfg)[1])


def _nearest_rank_quantile(values: np.ndarray, q: float):
    """The nearest-rank q-quantile along the first (replicate) axis."""
    srt = np.sort(values, axis=0)
    rank = min(max(math.ceil(q * len(srt)), 1), len(srt))
    return srt[rank - 1]


def _replicate_statistics(pattern, kinds, aspects, r_grid, r1, r2_grid) -> np.ndarray:
    """T_xy and T_z of one replicate at every bound, shape (aspect, kind, 2,
    bound), from one `replicate_numerators` call; None below 2 points."""
    if pattern.n < 2:
        return None
    numerators, mass = replicate_numerators(pattern, _AXES, kinds, r_grid, aspects)
    return _statistics(*np.moveaxis(numerators / mass, 2, 0), r_grid, r1, r2_grid)


def check_sweep(window, m: int, cfg: TestConfig, r2_grid, kinds, aspects, what: str):
    """The one statement of a sweep's rules, checked before any work: at least
    2 replicates, bounds ascending above ``cfg.r1``, a list of aspects,
    `check_kinds`, the `even_grid` of ``cfg.grid_points`` radii up to the
    largest bound (naming it ``what``), and ``cfg.a`` among the aspects.
    Returns the bounds, kinds, aspects and the profile grid as an array, a
    tuple, a list and an array."""
    if m < 2:
        raise ValueError(f"the test needs at least 2 replicates, got {m}")
    r2_grid = np.asarray(r2_grid, dtype=float)
    if r2_grid.size == 0 or not np.all(np.diff(r2_grid) > 0.0):  # NaN fails it
        raise ValueError("r2_grid must be nonempty and strictly ascending")
    if not r2_grid[0] > cfg.r1:
        raise ValueError("every r2 must exceed r1")
    not_a_list = ValueError(f"aspects must be a list of aspect ratios, got {aspects!r}")
    if isinstance(aspects, str) or not np.iterable(aspects):
        raise not_a_list
    try:
        aspects = [float(a) for a in aspects]
    except (TypeError, ValueError):  # an entry that is not a number
        raise not_a_list from None
    if not aspects:
        raise ValueError("need at least one aspect ratio")
    kinds = check_kinds(kinds)
    r_grid = even_grid(window, aspects, r2_grid[-1], cfg.grid_points, what)
    if cfg.a not in aspects:
        raise ValueError(f"the configured aspect ratio {cfg.a} is not among {aspects}")
    return r2_grid, kinds, aspects, r_grid


def _sweep(sources, cfg: TestConfig, r2_grid, kinds, aspects, threads: int):
    """The statistics (replicate, aspect, kind, 2, bound), the thresholds
    (aspect, kind, bound) and the rejections (replicate, aspect, kind, bound)
    of a sweep, which `check_sweep` checks before any work, on replicates of
    one window shape and at least 2 points each.  ``cfg`` supplies ``r1``,
    ``alpha_level`` and ``grid_points``.  Each replicate source is
    materialised and reduced to its statistics in one pool job, which
    refuses another window shape; a replicate of fewer than 2 points is
    reduced to nothing, and refused here before any decision."""
    sources = list(sources)
    window = source_window(sources[0]) if sources else None
    r2_grid, kinds, aspects, r_grid = check_sweep(window, len(sources), cfg, r2_grid, kinds,
                                                  aspects, "r2")
    reduce = partial(_replicate_statistics, kinds=kinds, aspects=aspects, r_grid=r_grid,
                     r1=cfg.r1, r2_grid=r2_grid.tolist())
    counts, stats = zip(*parallel_map(
        partial(reduce_replicate, reduce=reduce, sides=window.sides, what="replicates"),
        sources, threads))
    sparse = [i for i, n in enumerate(counts) if n < 2]
    if sparse:
        raise ValueError(f"replicates {sparse} have fewer than 2 points; every replicate "
                         "needs at least 2 to estimate its intensity")
    stats = np.array(stats)
    thresholds = _nearest_rank_quantile(stats[:, :, :, 0], 1.0 - cfg.alpha_level)
    return stats, thresholds, stats[:, :, :, 1] > thresholds


def run_test(patterns, cfg: TestConfig, *, threads: int = 1) -> IsotropyTestResult:
    """Run the isotropy test on replicated patterns.

    Estimates per-replicate profiles along the coordinate axes on an
    even grid over [0, r2], forms the statistics, and rejects replicate
    ``i`` when its T_z strictly exceeds the empirical (1 - alpha)
    quantile (nearest rank) of the T_xy sample, so ties never reject.
    That is the test's one decision rule.  This is the power sweep at the
    single bound ``cfg.r2`` for the single kind ``cfg.kind``, and it
    rejects the same degenerate input.

    The rule is conservative: since T_z is the smaller of two statistics
    that are each calibrated against the T_xy quantile, the null rejection
    rate is at most ``alpha_level`` and usually well below it (about 0.01
    at ``alpha_level=0.05`` for 500 Poisson replicates in the unit cube).
    """
    stats, thresholds, rejections = _sweep(patterns, cfg, [cfg.r2], (cfg.kind,), (cfg.a,),
                                           threads)
    rejected = rejections[:, 0, 0, 0]
    return IsotropyTestResult(stats[:, 0, 0, 0, 0], stats[:, 0, 0, 1, 0],
                              float(thresholds[0, 0, 0]), rejected, float(rejected.mean()))


def power_curve_from_patterns(
    patterns,
    cfg_base: TestConfig,
    r2_grid,
    kinds=KINDS,
    *,
    threads: int = 1,
    aspects=None,
):
    """Powers over integration bounds ``r2_grid`` and aspect ratios
    ``aspects`` for replicated patterns.  An entry of ``patterns`` may
    also be a replicate's source, a pattern-file path or a campaign key
    ``(model, window, seed, i)``, which the pool job that reduces the
    replicate reads or simulates; so may an entry of `run_test`'s.

    Each replicate's pairs are extracted once, at the extent of the
    largest aspect, and its profiles of every kind and aspect are
    estimated from them on a shared grid reaching ``max(r2_grid)``.  The
    absolute differences are integrated up to each bound with the rule of
    `run_test` inside the worker that holds the replicate, so neighbouring
    bounds and aspects share all randomness and only the statistics travel
    back, where each replicate is decided by `run_test`'s one rule.
    ``cfg_base`` supplies ``r1``, ``alpha_level`` and ``grid_points``; its
    aspect ratio ``a`` is swept alone when ``aspects`` is None and must be
    one of ``aspects`` otherwise.  ``threads`` and ``aspects`` are
    keyword-only.  Returns one ``(r2, power_conical, power_cylindrical)``
    row per aspect and bound, aspect-major (a power is NaN when its kind
    was not requested).
    """
    if aspects is None:
        aspects = (cfg_base.a,)
    kinds = check_kinds(kinds)  # read here and by _sweep, so a generator is read once
    _, _, rejections = _sweep(patterns, cfg_base, r2_grid, kinds, aspects, threads)
    power = np.full((rejections.shape[1], len(KINDS), rejections.shape[3]), math.nan)
    power[:, [KINDS.index(kind) for kind in kinds]] = rejections.mean(axis=0)
    bounds = np.asarray(r2_grid, dtype=float).tolist()
    return [(r2, *p) for by_aspect in power.transpose(0, 2, 1).tolist()
            for r2, p in zip(bounds, by_aspect)]
