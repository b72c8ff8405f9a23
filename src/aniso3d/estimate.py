"""Ratio-unbiased estimators of the conical and cylindrical K-functions.

For a pattern with ``n`` points in a box window ``W``, the estimate for a
structuring element ``E`` along direction ``u`` is::

    K_hat = (1 / rho2_hat) * sum_{x1 != x2} w(x1, x2) * 1[x2 - x1 in E]

with the translation edge weight ``w(x1, x2) = 1 / |W ∩ W_{x2-x1}|`` and
``rho2_hat = n (n - 1) / |W|^2``.  Profiles over a grid of cylinder radii
use the fixed-aspect-ratio link: at radius ``r`` the cylinder is
``(r, a r)`` and the cone ``(r sqrt(a^2+1), arctan(1/a))``, so every
ordered pair has a single critical radius at which it enters each
element.  Sorting pairs into a cumulative histogram of edge weights at
those critical radii reproduces the direct estimator exactly at every
grid point, in one pass over the pairs.
"""

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    ConeParams,
    CylinderParams,
    _cone_mask,
    _cylinder_mask,
    _norms,
    as_direction,
    close_pairs,
    equal_shape_link,
)
from .simulate import BoxWindow, PointPattern

__all__ = [
    "KProfile",
    "translation_weight",
    "intensity_sq_hat",
    "conical_k",
    "cylindrical_k",
    "k_profile",
    "pooled_profile",
    "default_r_grid",
    "pattern_pairs",
    "PatternPairs",
]

KINDS = ("conical", "cylindrical")


@dataclass(frozen=True)
class KProfile:
    """K estimates over an ascending grid of cylinder radii.

    ``values[i]`` is the estimate at ``r_grid[i]`` for the element derived
    from the aspect ratio ``a``; profiles are nondecreasing because the
    elements are nested.
    """

    kind: str
    direction: np.ndarray
    r_grid: np.ndarray
    values: np.ndarray
    a: float

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if len(self.values) != len(self.r_grid):
            raise ValueError("values and r_grid must have equal length")


def translation_weight(window: BoxWindow, t) -> float:
    """Translation edge-correction weight ``1 / |W ∩ W_t|`` for displacement t.

    The overlap of the window with its translate is the box with sides
    ``side_i - |t_i|``; the weight is smallest (``1/|W|``) at zero
    displacement.  Raises ValueError when any ``|t_i|`` reaches the window
    side, where the overlap degenerates.
    """
    t = np.asarray(t, dtype=float)
    clearance = window.sides - np.abs(t)
    if np.any(clearance <= 0.0):
        raise ValueError(
            f"displacement {t} is not realizable inside window sides {window.sides}"
        )
    return float(1.0 / np.prod(clearance))


def intensity_sq_hat(pattern: PointPattern) -> float:
    """Unbiased estimate ``n (n - 1) / |W|^2`` of the squared intensity."""
    n = pattern.n
    if n < 2:
        raise ValueError(f"need at least 2 points to estimate the intensity, got {n}")
    return n * (n - 1) / pattern.window.volume ** 2


@dataclass(frozen=True)
class PatternPairs:
    """Precomputed geometry of all point pairs within a search extent.

    Holds one row per unordered pair (the estimators double it for the
    two orders).  Extracting pairs once and reusing them across
    directions, kinds, and aspect ratios is the supported fast path for
    replicated campaigns.
    """

    vec: np.ndarray      # displacements x_j - x_i, points in lexicographic order
    norm: np.ndarray
    weight: np.ndarray   # translation edge weights


def pattern_pairs(pattern: PointPattern, extent: float) -> PatternPairs:
    """All unordered point pairs of ``pattern`` closer than ``extent``.

    ``extent`` must stay below the smallest window side so that every
    collected displacement has a valid translation weight.
    """
    min_side = float(np.min(pattern.window.sides))
    if extent >= min_side:
        raise ValueError(
            f"search extent {extent:.6g} must be smaller than the smallest "
            f"window side {min_side:.6g}"
        )
    pts = pattern.points
    order = np.lexsort((pts[:, 2], pts[:, 1], pts[:, 0]))
    pts = pts[order]
    i, j = close_pairs(pts, extent)
    vec = pts.take(j, axis=0)
    vec -= pts.take(i, axis=0)
    # formed column by column, the order in which ``np.prod(axis=1)`` multiplies
    (sx, sy, sz), (ax, ay, az) = pattern.window.sides, np.abs(vec).T
    weight = 1.0 / (((sx - ax) * (sy - ay)) * (sz - az))
    return PatternPairs(vec, _norms(vec), weight)


def _axial_radial(pairs: PatternPairs, u: np.ndarray):
    axial = pairs.vec @ u
    # the offsets from the axis, formed component-major so that every
    # operation runs along the pairs; elementwise the same as
    # ``vec - np.multiply.outer(axial, u)``
    offset = pairs.vec.T - np.multiply.outer(u, axial)
    return np.abs(axial), _norms(offset.T)


def conical_k(pattern: PointPattern, u, cone: ConeParams) -> float:
    """Conical K estimate for one direction and one cone."""
    u = as_direction(u)
    rho2 = intensity_sq_hat(pattern)
    pairs = pattern_pairs(pattern, cone.r_cn * (1.0 + 1e-9))
    axial_abs, _ = _axial_radial(pairs, u)
    mask = _cone_mask(pairs.norm, axial_abs, cone.r_cn, cone.cos_theta)
    return 2.0 * float(np.sum(pairs.weight[mask])) / rho2


def cylindrical_k(pattern: PointPattern, u, cyl: CylinderParams) -> float:
    """Cylindrical K estimate for one direction and one cylinder."""
    u = as_direction(u)
    rho2 = intensity_sq_hat(pattern)
    pairs = pattern_pairs(pattern, math.hypot(cyl.r_cl, cyl.h) * (1.0 + 1e-9))
    axial_abs, radial = _axial_radial(pairs, u)
    mask = _cylinder_mask(axial_abs, radial, cyl.r_cl, cyl.h)
    return 2.0 * float(np.sum(pairs.weight[mask])) / rho2


def _check_grid(r_grid) -> np.ndarray:
    r_grid = np.asarray(r_grid, dtype=float)
    if r_grid.ndim != 1:
        raise ValueError("r_grid must be one-dimensional")
    # stated positively, so that NaN fails it
    if r_grid.size and not (np.all(np.diff(r_grid) > 0.0) and r_grid[0] >= 0.0):
        raise ValueError("r_grid must be strictly ascending and nonnegative")
    return r_grid


def profile_extent(r_max: float, a: float) -> float:
    """Search extent covering both elements at the largest grid radius.

    The cone slant equals the cylinder's corner distance under the
    equal-shape link, so one bound serves both kinds; a sliver of slack
    keeps boundary pairs on the safe side of the pair query.
    """
    if r_max <= 0.0:
        return 0.0
    _, cone = equal_shape_link(r_max, a)
    return cone.r_cn * (1.0 + 1e-9)


def check_r_max(window: BoxWindow, a: float, r_max: float, what: str) -> None:
    """The one admissible-radius rule, checked before any work: refuse a radius
    whose search extent reaches the smallest window side, and ``a <= 1`` as
    `equal_shape_link` does.  The message names the radius ``what`` and the
    largest admissible one, rounded down to 6 digits so every smaller one passes."""
    side = float(np.min(window.sides))
    if profile_extent(r_max, a) >= side:
        bound = side / profile_extent(1.0, a)  # the extent is linear in r_max
        unit = 10.0 ** (math.floor(math.log10(bound)) - 5)
        raise ValueError(
            f"{what} {r_max:.6g} is out of range for this window: the derived "
            f"element extent must stay below the smallest side, so choose "
            f"{what} < {math.floor(bound / unit) * unit:.6g}"
        )


def _grid_index(grid: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Exactly ``np.searchsorted(grid, x, side="left")`` for an ascending grid.

    On an evenly spaced grid the index is guessed in constant time from
    the spacing, then kept only where ``grid[k-1] < x <= grid[k]`` holds
    against the grid's own values (the grid is padded with -inf and +inf,
    so k = 0 and k = n need no special case).  The values that fail the
    check, all of them on an uneven grid, go to ``searchsorted``; the
    result is therefore exact for any ascending grid.
    """
    n = grid.size
    span = float(grid[-1]) - float(grid[0]) if n > 1 else 0.0
    inv_step = (n - 1) / span if span > 0.0 else math.inf
    if not math.isfinite(inv_step):
        return np.searchsorted(grid, x, side="left")
    t = x - grid[0]
    t *= inv_step
    np.fmax(t, 0.0, out=t)   # also maps NaN to 0, where the check fails
    np.fmin(t, n, out=t)
    k = np.empty(t.shape, np.intp)
    np.ceil(t, out=k, casting="unsafe")
    # the float buffer is reused for the knots on both sides of each guess
    padded = np.concatenate(([-np.inf], grid, [np.inf]))
    ok = padded.take(k, out=t) < x
    ok &= x <= padded[1:].take(k, out=t)
    if not ok.all():
        miss = np.flatnonzero(~ok)
        k[miss] = np.searchsorted(grid, x[miss], side="left")
    return k


def pair_numerators(pairs: PatternPairs, directions, kinds, r_grid, aspects) -> np.ndarray:
    """Cumulative edge-weighted ordered-pair counts along the grid.

    Returns an array of shape (aspect, kind, direction, radius).  For each
    pair and element the smallest grid index whose element contains it is
    found from its critical radius by `_grid_index`, an exact
    constant-time ``searchsorted`` on evenly spaced grids; accumulating
    ``2 * weight`` there and taking the running sum yields, at every grid
    point, exactly the direct double-sum numerator of the estimator.  The
    axial and radial parts of the pairs are formed once per direction.
    Then the pairs outside the union of the largest elements at the top
    radius (the cone of the largest slant factor and the smallest
    ``cos_theta``, the cylinder of the largest aspect) are dropped once,
    and every kind and aspect works on the rest, in pair order, along
    with one radial grid index.  Each element's bounds are float products
    monotone in its slant factor, ``cos_theta`` and aspect, so the union
    holds every pair of every element, and ``bincount`` adds the same
    weights in the same order as over the full arrays: no bit changes.
    ``pairs`` must reach `profile_extent` of the largest aspect.
    """
    directions = [as_direction(u) for u in directions]
    for kind in kinds:
        if kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    r_grid = _check_grid(r_grid)
    out = np.empty((len(aspects), len(kinds), len(directions), r_grid.size))
    if out.size == 0:
        return out
    links = [(c.r_cn, c.cos_theta) for _, c in (equal_shape_link(1.0, a) for a in aspects)]
    r_max = r_grid[-1]
    scale_max = max(scale for scale, _ in links)
    cos_min = min(cos_theta for _, cos_theta in links)
    for d, u in enumerate(directions):
        axial_abs, radial = _axial_radial(pairs, u)
        union = np.zeros(axial_abs.shape, bool)
        if "conical" in kinds:
            union |= _cone_mask(pairs.norm, axial_abs, r_max * scale_max, cos_min)
        if "cylindrical" in kinds:
            union |= _cylinder_mask(axial_abs, radial, r_max, max(aspects) * r_max)
        near = np.flatnonzero(union)
        axial_abs, radial, norm = axial_abs.take(near), radial.take(near), pairs.norm.take(near)
        weight = 2.0 * pairs.weight.take(near)
        radial_idx = _grid_index(r_grid, radial) if "cylindrical" in kinds else None
        for i, (a, (scale, cos_theta)) in enumerate(zip(aspects, links)):
            for j, kind in enumerate(kinds):
                if kind == "conical":
                    keep = _cone_mask(norm, axial_abs, r_max * scale, cos_theta)
                    idx = _grid_index(r_grid * scale, norm[keep])
                else:
                    keep = _cylinder_mask(axial_abs, radial, r_max, a * r_max)
                    idx = np.maximum(_grid_index(a * r_grid, axial_abs[keep]),
                                     radial_idx[keep])
                acc = np.bincount(idx, weights=weight[keep], minlength=r_grid.size)
                out[i, j, d] = np.cumsum(acc)
    return out


def replicate_numerators(pattern: PointPattern, directions, kinds, r_grid, aspects):
    """One replicate's pair numerators and squared-intensity mass.

    Returns ``(numerators, mass)``: the `pair_numerators` array of shape
    (aspect, kind, direction, radius) from one pair extraction at
    `profile_extent` of the largest aspect, and ``n (n - 1) / |W|^2``,
    which is 0 for fewer than 2 points instead of an error.  Every
    profile, pool and test statistic reaches the pair layer through this
    function; ``r_grid`` must be nonempty.
    """
    pairs = pattern_pairs(pattern, profile_extent(r_grid[-1], max(aspects)))
    mass = intensity_sq_hat(pattern) if pattern.n >= 2 else 0.0
    return pair_numerators(pairs, directions, kinds, r_grid, aspects), mass


def ratio_of_sums(replicates) -> np.ndarray:
    """Pool ``(numerators, mass)`` pairs: both summed in replicate order,
    then divided once."""
    numer, denom = 0.0, 0.0
    for num, mass in replicates:
        numer = numer + num
        denom += mass
    if denom == 0.0:
        raise ValueError("pooled patterns contain no point pairs")
    return numer / denom


def k_profile(pattern: PointPattern, u, kind: str, r_grid, a: float) -> KProfile:
    """Estimate one K-function over a grid of cylinder radii: the pool of
    one pattern, which needs at least 2 points.

    Parameters
    ----------
    pattern : PointPattern
    u : unit 3-vector, the element axis
    kind : "conical" or "cylindrical"
    r_grid : ascending cylinder radii; the derived extent at the largest
        radius must stay inside the window (smallest side)
    a : aspect ratio linking the element dimensions to each radius
    """
    intensity_sq_hat(pattern)
    return pooled_profile([pattern], u, kind, r_grid, a)


def require_common_window(patterns, what: str) -> None:
    """Raise ValueError unless every pattern has the first one's window sides."""
    sides = patterns[0].window.sides
    for p in patterns[1:]:
        if not np.array_equal(p.window.sides, sides):
            raise ValueError(
                f"{what} must share the window shape: {p.window.sides} "
                f"differs from {sides}"
            )


def pooled_profile(patterns, u, kind: str, r_grid, a: float) -> KProfile:
    """Pool one K-function over replicated patterns by ratio of sums, the
    one pooling rule: the summed edge-weighted pair counts over the summed
    ``rho2_hat`` mass, so replicates with more points carry more weight and
    replicates with fewer than 2 points add nothing.
    """
    patterns = list(patterns)
    if not patterns:
        raise ValueError("need at least one pattern to pool")
    u = as_direction(u)
    r_grid = _check_grid(r_grid)
    require_common_window(patterns, "pooled patterns")
    if r_grid.size == 0:
        return KProfile(kind, u, r_grid, np.empty(0), a)
    check_r_max(patterns[0].window, a, r_grid[-1], "r_grid entry")
    replicates = (replicate_numerators(p, [u], [kind], r_grid, [a]) for p in patterns)
    return KProfile(kind, u, r_grid, ratio_of_sums(replicates)[0, 0, 0], a)


def default_r_grid(window: BoxWindow, a: float, n: int = 512) -> np.ndarray:
    """``n`` evenly spaced radii from 0 to 0.45 of ``min_side / sqrt(a^2 + 1)``.

    There the cone's slant meets the smallest window side, the bound of
    `check_r_max` up to its 1e-9 slack, so the grid always passes it."""
    _, cone = equal_shape_link(1.0, a)
    return np.linspace(0.0, 0.45 * (float(np.min(window.sides)) / cone.r_cn), n)
