"""Ratio-unbiased estimators of the conical and cylindrical K-functions.

For a pattern with ``n`` points in a box window ``W``, the estimate for a
structuring element ``E`` along direction ``u`` is::

    K_hat = (1 / rho2_hat) * sum_{x1 != x2} w(x1, x2) * 1[x2 - x1 in E]

with the translation edge weight ``w(x1, x2) = 1 / |W ∩ W_{x2-x1}|`` and
``rho2_hat = n (n - 1) / |W|^2``.  A profile scales an element by each
radius of a grid, so every ordered pair has a single critical radius at
which it enters it.  Sorting pairs into a cumulative histogram of edge
weights at those radii reproduces the direct estimator exactly at every
grid point, in one pass over the pairs: `_numerators`, the one definition
of K.  `conical_k` and `cylindrical_k` are its one-element case on the grid
[1]; the profiles use the equal-shape link, at radius ``r`` the cylinder
``(r, a r)`` and the cone ``(r sqrt(a^2+1), arctan(1/a))``.
"""

import math
import sys
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import _parallel
from .geometry import (
    ConeParams,
    CylinderParams,
    _axial_radial,
    _close_pair_keys,
    _cone_mask,
    _cylinder_mask,
    _norms,
    as_direction,
    equal_shape_link,
)
from .patternio import reduce_replicate, source_window
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
    "PatternPairs",
]

KINDS = ("conical", "cylindrical")

# the default count of radii of a profile grid: `default_r_grid`, `TestConfig`
# and the CLI's --grid
GRID_POINTS = 512

# pairs formed and added at a time by `replicate_numerators`, so that its scratch
# is bounded by this and the sorted pair keys (4 bytes a pair up to 65536 points),
# not by the pair count; a replicate of 500 points is one slice
_PAIR_BUDGET = 1 << 16


def check_kinds(kinds) -> tuple:
    """The one kind rule: a nonempty list of `KINDS` entries, not a bare string."""
    if isinstance(kinds, str):
        raise ValueError(f"kinds must be a list of kinds, got the string {kinds!r}")
    kinds = tuple(kinds)
    if not kinds:
        raise ValueError("need at least one kind")
    for kind in kinds:
        if kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    return kinds


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
        check_kinds([self.kind])
        if len(self.values) != len(self.r_grid):
            raise ValueError("values and r_grid must have equal length")


def translation_weight(window: BoxWindow, t) -> float:
    """Translation edge-correction weight ``1 / |W ∩ W_t|`` for displacement t.

    The overlap of the window with its translate is the box with sides
    ``side_i - |t_i|``; the weight is smallest (``1/|W|``) at zero
    displacement.  Raises ValueError when any ``|t_i|`` is nan or reaches
    the window side, where the overlap degenerates.
    """
    t = np.asarray(t, dtype=float)
    if not np.all(window.sides - np.abs(t) > 0.0):
        raise ValueError(f"displacement {t} is not realizable inside window sides {window.sides}")
    return float(_weights(window.sides, t[None])[0])


def _weights(sides, vec: np.ndarray) -> np.ndarray:
    """The translation weights of the (n, 3) displacements ``vec``:
    ``1 / (((sx - |dx|) * (sy - |dy|)) * (sz - |dz|))``, the order in which
    ``np.prod(axis=1)`` multiplies, formed one coordinate at a time."""
    weight = sides[0] - np.abs(vec[:, 0])
    for k in (1, 2):
        weight *= sides[k] - np.abs(vec[:, k])
    return np.divide(1.0, weight, out=weight)


def intensity_sq_hat(pattern: PointPattern) -> float:
    """Unbiased estimate ``n (n - 1) / |W|^2`` of the squared intensity, for
    a window that passes `check_window_scale`."""
    n = pattern.n
    if n < 2:
        raise ValueError(f"need at least 2 points to estimate the intensity, got {n}")
    check_window_scale(pattern.window)
    return n * (n - 1) / pattern.window.volume ** 2


@dataclass(frozen=True)
class PatternPairs:
    """Precomputed geometry of point pairs within a search extent.

    Holds one row per unordered pair (the estimators double it for the
    two orders) of one slice of pair keys: `_numerators` takes the rows
    `_PAIR_BUDGET` pairs at a time.
    """

    vec: np.ndarray      # displacements x_j - x_i, points in lexicographic order
    norm: np.ndarray
    weight: np.ndarray   # translation edge weights


def pattern_pairs(pattern: PointPattern, extent: float) -> PatternPairs:
    """All unordered point pairs of ``pattern`` closer than ``extent``.

    ``extent`` must stay below the smallest window side so that every
    collected displacement has a valid translation weight.  No estimator
    calls it; `pair_numerators` takes its rows.
    """
    pts, keys = _pair_keys(pattern, extent)
    return _pair_rows(pattern.window, pts, keys)


def _pair_keys(pattern: PointPattern, extent: float):
    """The points in lexicographic order and the ascending keys ``i * n + j``
    of their pairs closer than ``extent``, in the order `_pair_rows` takes them; the
    keys are ``uint32`` up to 65536 points and ``int64`` beyond, as
    `_close_pair_keys` gives them."""
    min_side = float(np.min(pattern.window.sides))
    if extent >= min_side:
        raise ValueError(f"search extent {extent:.6g} must be smaller than the smallest "
                         f"window side {min_side:.6g}")
    pts = pattern.points
    pts = pts[np.lexsort((pts[:, 2], pts[:, 1], pts[:, 0]))]
    return pts, _close_pair_keys(pts, extent)


def _pair_rows(window: BoxWindow, pts: np.ndarray, keys: np.ndarray) -> PatternPairs:
    """The `PatternPairs` rows of the pairs with keys ``keys`` among ``pts``."""
    i, j = np.divmod(keys, len(pts))
    vec = pts.take(j, axis=0)
    vec -= pts.take(i, axis=0)
    return PatternPairs(vec, _norms(vec), _weights(window.sides, vec))


def _pair_slices(pattern: PointPattern, extent: float):
    """The pairs of `_pair_keys`, found at once, as `_pair_rows` formed
    `_PAIR_BUDGET` pairs at a time."""
    pts, keys = _pair_keys(pattern, extent)
    return (_pair_rows(pattern.window, pts, keys[start:start + _PAIR_BUDGET])
            for start in range(0, keys.size, _PAIR_BUDGET))


def conical_k(pattern: PointPattern, u, cone: ConeParams) -> float:
    """Conical K estimate for one direction and one cone."""
    return _element_k(pattern, u, cone, cone.r_cn)


def cylindrical_k(pattern: PointPattern, u, cyl: CylinderParams) -> float:
    """Cylindrical K estimate for one direction and one cylinder."""
    return _element_k(pattern, u, cyl, math.hypot(cyl.r_cl, cyl.h))


def _element_k(pattern: PointPattern, u, element, reach: float) -> float:
    """K of one element along ``u``: the one cell of `_numerators` on the grid
    [1], over the pairs within ``reach`` and a sliver of slack."""
    u = as_direction(u)
    rho2 = intensity_sq_hat(pattern)
    slices = _pair_slices(pattern, reach * (1.0 + 1e-9))
    return float(_numerators(slices, [u], [element], [1.0])[0, 0, 0]) / rho2


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
    """The one window-validity rule, checked before any work: refuse a radius
    whose search extent reaches the smallest window side, and ``a <= 1`` as
    `equal_shape_link` does.  The message names the radius ``what`` and the
    largest admissible one, rounded down to 6 digits so every smaller one passes.
    Then refuse a window that fails `check_window_scale`."""
    side = float(np.min(window.sides))
    if profile_extent(r_max, a) >= side:
        bound = side / profile_extent(1.0, a)  # the extent is linear in r_max
        unit = 10.0 ** (math.floor(math.log10(bound)) - 5)
        raise ValueError(
            f"{what} {r_max:.6g} is out of range for this window: the derived "
            f"element extent must stay below the smallest side, so choose "
            f"{what} < {math.floor(bound / unit) * unit:.6g}"
        )
    check_window_scale(window)


def even_grid(window: BoxWindow, aspects, r_max, n: int, what: str) -> np.ndarray:
    """The one even radius grid: ``n`` radii from 0 to ``r_max``, which passes
    `check_r_max` at every aspect (naming it ``what``).  ``r_max`` None takes
    the default top, 0.45 of the radius at which the largest aspect's cone
    slant meets the smallest window side.  Then refuse a top whose step falls
    below the normal floats, where `np.linspace` rounds radii out of order,
    naming the least admissible one, exact in its repr, and the window's
    smallest side for the default top."""
    if r_max is None:
        side = float(np.min(window.sides))
        _, cone = equal_shape_link(1.0, max(aspects))
        r_max = 0.45 * (side / cone.r_cn)
        named = f"the default {what} {r_max:.6g} of a window of smallest side {side:.6g}"
    else:
        named = f"{what} {r_max:.6g}"
    for a in aspects:
        check_r_max(window, a, r_max, what)
    if not r_max / (n - 1) >= sys.float_info.min:  # the step np.linspace forms
        least = (n - 1) * sys.float_info.min  # a whole multiple of a power of 2: exact
        raise ValueError(f"{named} is too small for a grid of {n} radii: its step must "
                         f"stay a normal float, so choose {what} >= {least!r}")
    return np.linspace(0.0, r_max, n)


def check_window_scale(window: BoxWindow) -> None:
    """The one scale rule: refuse a window whose side products ``sx * sy`` and
    ``(sx * sy) * sz``, which the translation weights form, or whose squared
    volume, the denominator of `intensity_sq_hat`, leaves the normal float range."""
    sx, sy, sz = window.sides.tolist()  # Python floats, which overflow to inf silently
    volume = (sx * sy) * sz
    if not all(sys.float_info.min <= p <= sys.float_info.max
               for p in (sx * sy, volume, volume * volume)):
        raise ValueError(
            f"window sides {window.sides} are out of scale: their products and the "
            f"squared volume must stay in the normal float range "
            f"[{sys.float_info.min:.6g}, {sys.float_info.max:.6g}]"
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
    """`_linked_numerators` of one slice of pairs, which must reach
    `profile_extent` of the largest aspect."""
    return _linked_numerators([pairs], directions, kinds, r_grid, aspects)


def _linked_numerators(slices, directions, kinds, r_grid, aspects) -> np.ndarray:
    """`_numerators` of the radius-1 `equal_shape_link` elements of every
    aspect and kind (which must pass `check_kinds`), in shape (aspect, kind,
    direction, radius)."""
    links = [dict(zip(("cylindrical", "conical"), equal_shape_link(1.0, a))) for a in aspects]
    numerators = _numerators(slices, directions, [link[kind] for link in links for kind in kinds],
                             r_grid)
    return numerators.reshape(len(aspects), len(kinds), *numerators.shape[1:])


def _numerators(slices, directions, elements, r_grid) -> np.ndarray:
    """The one definition of K's numerator: the cumulative edge-weighted
    ordered-pair counts, in shape (element, direction, radius), of the pairs
    of the `PatternPairs` in ``slices``, which reach every element at the top
    radius.  An element is a `ConeParams` or `CylinderParams` at radius 1,
    scaled by each grid radius r to slant ``r * r_cn`` or to radius
    ``r * r_cl`` and half height ``r * h``.

    Each pair's smallest grid index whose element contains it comes from its
    critical radius by `_grid_index`, an exact ``searchsorted``; adding
    ``2 * weight`` there and one running sum along the radii give, at every
    grid point, exactly the direct double sum of the estimator.  A slice's
    axial and radial parts are formed once per direction, and its pairs
    outside the union of the elements at the top radius (the cone of the
    largest ``r_cn`` and smallest ``cos_theta``, the cylinder of the largest
    ``r_cl`` and ``h``) are dropped once; every element's bounds are float
    products monotone in its sizes, so the union holds all of its pairs.  One
    radial grid index serves each distinct ``r_cl``.  ``np.add.at`` adds each
    slice into one running array, bin by bin in pair order as one
    ``bincount`` over all the pairs would: neither the compaction nor the
    slicing changes a bit.
    """
    directions = [as_direction(u) for u in directions]
    r_grid = _check_grid(r_grid)
    acc = np.zeros((len(elements), len(directions), r_grid.size))
    if acc.size == 0:
        return acc
    r_max = r_grid[-1]
    cones = [e for e in elements if isinstance(e, ConeParams)]
    cyls = [e for e in elements if isinstance(e, CylinderParams)]
    for pairs in slices:
        for d, u in enumerate(directions):
            axial_abs, radial = _axial_radial(pairs.vec, u)
            union = np.zeros(axial_abs.shape, bool)
            if cones:
                union |= _cone_mask(pairs.norm, axial_abs, r_max * max(c.r_cn for c in cones),
                                    min(c.cos_theta for c in cones))
            if cyls:
                union |= _cylinder_mask(axial_abs, radial, r_max * max(c.r_cl for c in cyls),
                                        max(c.h for c in cyls) * r_max)
            near = np.flatnonzero(union)
            axial_abs, radial = axial_abs.take(near), radial.take(near)
            norm, weight = pairs.norm.take(near), 2.0 * pairs.weight.take(near)
            radial_idx = {r: _grid_index(r_grid * r, radial) for r in {c.r_cl for c in cyls}}
            for e, element in enumerate(elements):
                if isinstance(element, ConeParams):
                    keep = _cone_mask(norm, axial_abs, r_max * element.r_cn, element.cos_theta)
                    idx = _grid_index(r_grid * element.r_cn, norm[keep])
                else:
                    keep = _cylinder_mask(axial_abs, radial, r_max * element.r_cl,
                                          element.h * r_max)
                    idx = np.maximum(_grid_index(element.h * r_grid, axial_abs[keep]),
                                     radial_idx[element.r_cl][keep])
                np.add.at(acc[e, d], idx, weight[keep])
    return np.cumsum(acc, axis=-1)


def replicate_numerators(pattern: PointPattern, directions, kinds, r_grid, aspects):
    """One replicate's pair numerators and squared-intensity mass.

    Returns ``(numerators, mass)``: the `pair_numerators` array of shape
    (aspect, kind, direction, radius) of the pairs within `profile_extent`
    of the largest aspect, and ``n (n - 1) / |W|^2``, which is 0 for fewer
    than 2 points instead of an error.  The pairs are found once, as sorted
    keys, and formed and added `_PAIR_BUDGET` at a time by `_numerators`,
    with the same bits as one `pair_numerators` call on all of them.
    Every profile, pool and test statistic reaches the pair layer through
    this function; ``r_grid`` must be nonempty.
    """
    slices = _pair_slices(pattern, profile_extent(r_grid[-1], max(aspects)))
    mass = intensity_sq_hat(pattern) if pattern.n >= 2 else 0.0
    return _linked_numerators(slices, directions, kinds, r_grid, aspects), mass


def k_profile(pattern: PointPattern, u, kind: str, r_grid, a: float) -> KProfile:
    """Estimate one K-function of ``kind`` along the unit vector ``u`` over
    ascending cylinder radii ``r_grid``, each linked to its element by the
    aspect ratio ``a``: the pool of one pattern, which needs at least 2 points.
    The element's extent at the largest radius must stay inside the window."""
    intensity_sq_hat(pattern)
    return pooled_profile([pattern], u, kind, r_grid, a)


def pooled_k(sources, directions, kinds, r_grid, aspects, threads: int = 1) -> np.ndarray:
    """The one pooling path: K of each (aspect, kind, direction, radius) cell over
    a nonempty list of replicate sources.  The nonempty ``r_grid`` passes
    `check_r_max` against the first source's window before any work; then one
    pool job per replicate, which refuses another window shape, gives its
    `replicate_numerators`, and these are summed in replicate order and divided
    once (ratio of sums).  ``kinds`` must pass `check_kinds`."""
    window = source_window(sources[0])
    check_r_max(window, max(aspects), r_grid[-1], "r_grid entry")
    reduce = partial(replicate_numerators, directions=directions, kinds=kinds, r_grid=r_grid,
                     aspects=aspects)
    job = partial(reduce_replicate, reduce=reduce, sides=window.sides, what="pooled patterns")
    numer, denom = 0.0, 0.0
    # looked up on the module at call time, where perfbench/tracecli.py wraps it
    for _, (num, mass) in _parallel.parallel_map(job, sources, threads):
        numer = numer + num
        denom += mass
    if denom == 0.0:
        raise ValueError("pooled patterns contain no point pairs")
    return numer / denom


def pooled_profile(sources, u, kind: str, r_grid, a: float) -> KProfile:
    """Pool one K-function over replicated patterns by ratio of sums, the
    one pooling rule: the summed edge-weighted pair counts over the summed
    ``rho2_hat`` mass, so replicates with more points carry more weight and
    replicates with fewer than 2 points add nothing.  An entry of ``sources``
    may be a pattern or, as for `run_test`, a pattern-file path or a campaign
    key ``(model, window, seed, i)``.  This is the one-cell case of `pooled_k`.
    """
    sources = list(sources)
    if not sources:
        raise ValueError("need at least one pattern to pool")
    check_kinds([kind])
    u = as_direction(u)
    r_grid = _check_grid(r_grid)
    if r_grid.size == 0:
        return KProfile(kind, u, r_grid, np.empty(0), a)
    return KProfile(kind, u, r_grid, pooled_k(sources, [u], [kind], r_grid, [a])[0, 0, 0], a)


def default_r_grid(window: BoxWindow, a: float, n: int = GRID_POINTS) -> np.ndarray:
    """``n`` evenly spaced radii from 0 to 0.45 of ``min_side / sqrt(a^2 + 1)``,
    the `even_grid` of the default top.

    There the cone's slant meets the smallest window side, the bound of
    `check_r_max` up to its 1e-9 slack, so the top always passes it; a window
    too thin for a normal step, or out of `check_window_scale`, is refused."""
    return even_grid(window, [a], None, n, "r_max")
