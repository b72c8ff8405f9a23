"""Simulators for replicated 3D point patterns.

Four model families: homogeneous Poisson (the isotropic baseline), the
Poisson line cluster process (columnar anisotropy), the Matérn type II
hard-core process (weak regularity), and force-biased ball packing
(strong regularity).  A volume-preserving compression turns the two
regular models into compressed, anisotropic ones.

Each model has one spec, `ModelSpec`.  Every generator is a pure function
of ``(model, window, seed)`` and makes its own kind uncompressed;
`simulate_model` dispatches on the kind and compresses.  The RNG
is a counter-based Philox stream keyed by the campaign seed and the
replicate index, so replicates are independent and each one can be
regenerated on its own.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import _parallel
from .geometry import _as_points, close_pairs

__all__ = [
    "BoxWindow",
    "PointPattern",
    "ModelSpec",
    "replicate_rng",
    "simulate_poisson",
    "simulate_plcpp",
    "simulate_matern",
    "simulate_packing",
    "simulate_model",
    "compress",
    "unit_cube",
]

_BALL = 4.0 * math.pi / 3.0


@dataclass(frozen=True)
class BoxWindow:
    """Axis-aligned box observation window [lo, hi]."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        if lo.shape != (3,) or hi.shape != (3,):
            raise ValueError("window bounds must be 3-vectors")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValueError(f"window bounds must be finite, got lo={lo}, hi={hi}")
        if not np.all(hi > lo):
            raise ValueError(f"window must have positive extent, got lo={lo}, hi={hi}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def sides(self) -> np.ndarray:
        return self.hi - self.lo

    @property
    def volume(self) -> float:
        return float(np.prod(self.sides))

    def contains(self, points) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return np.all((points >= self.lo) & (points <= self.hi), axis=1)

    def dilated(self, margin: float) -> "BoxWindow":
        return BoxWindow(self.lo - margin, self.hi + margin)


def unit_cube() -> BoxWindow:
    return BoxWindow(np.zeros(3), np.ones(3))


@dataclass(frozen=True)
class PointPattern:
    """A finite simple point pattern inside a box window."""

    points: np.ndarray
    window: BoxWindow

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        pts = _as_points(pts.reshape(0, 3) if pts.size == 0 else pts)
        if pts.shape[0] and not np.all(self.window.contains(pts)):
            raise ValueError("all points must lie inside the closed window")
        # sorted rows put equal points next to each other; np.unique(axis=0)
        # would say the same, but it imports numpy.ma
        rows = pts[np.lexsort(pts.T)]
        if (rows[1:] == rows[:-1]).all(axis=1).any():
            raise ValueError("point pattern must be simple (no duplicate points)")
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]


# the parameters each model takes besides ``rho``, in the order `ModelSpec.describe`
# echoes them; `ModelSpec` takes exactly these, and the CLI's model flags read them
MODEL_PARAMS = {"poisson": (), "plcpp": ("rho_l", "alpha", "sigma"),
                "matern": ("hardcore_r",), "packing": ("hardcore_r",)}


@dataclass(frozen=True)
class ModelSpec:
    """One simulation model and its parameters, the only spec of each model.

    ``plcpp`` strings Poisson(``alpha``) points along Poisson lines parallel
    to z, ``rho_l`` per unit area of the xy cross-section, and scatters each
    off its line by N(0, ``sigma``^2) per orthogonal coordinate, so that
    ``rho = rho_l * alpha``.  ``matern`` keeps its points ``hardcore_r``
    apart, and ``packing`` packs balls of radius ``hardcore_r``.
    ``compress_c`` is the optional compression that `simulate_model` applies
    after generation; leaving it unset keeps the model isotropic.  Build
    instances through the classmethods; `simulate_model` and each
    ``simulate_<kind>`` generator take them.
    """

    kind: str
    rho: float
    rho_l: float = None
    alpha: float = None
    sigma: float = None
    hardcore_r: float = None
    compress_c: float = None

    def __post_init__(self):
        takes = MODEL_PARAMS.get(self.kind)
        if takes is None:
            raise ValueError(f"unknown model kind {self.kind!r}")
        given = tuple(k for k, v in vars(self).items()
                      if v is not None and k not in ("kind", "rho", "compress_c"))
        if given != takes:  # both in field order
            raise ValueError(f"{self.kind} takes {list(takes)} besides rho, got {list(given)}")
        rho, r = self.rho, self.hardcore_r
        if self.kind == "plcpp":
            if not all(0.0 < x < math.inf for x in (rho, self.rho_l, self.alpha)):
                raise ValueError("intensities must be positive")
            if abs(rho - self.rho_l * self.alpha) > 1e-9 * rho:
                raise ValueError(
                    f"rho must equal rho_l * alpha, got {rho} vs {self.rho_l * self.alpha}"
                )
            if not 0.0 <= self.sigma < math.inf:
                raise ValueError(f"sigma must be nonnegative, got {self.sigma}")
        else:
            if r is not None and not r > 0.0:
                raise ValueError(f"hard-core distance must be positive, got {r}")
            # an infinite rho is left to the hard-core models' density bounds below
            if not (0.0 < rho < math.inf or rho == math.inf and r is not None):
                raise ValueError(f"intensity must be positive, got {rho}")
            # a product, not r**3, which raises OverflowError where the cube overflows
            fill = None if r is None else rho * (_BALL * (r * r * r))
            if self.kind == "matern" and not fill < 1.0:
                raise ValueError(
                    f"matern intensity {rho} is not achievable at r={r}: "
                    f"rho * (4/3) pi r^3 = {fill:.4g} >= 1"
                )
            if self.kind == "packing" and not fill <= 0.5:
                raise ValueError(
                    f"packing too dense to converge reliably: rho * (4/3) pi r^3 = "
                    f"{fill:.4g} > 0.5"
                )
        if self.compress_c is not None and not 0.0 < self.compress_c <= 1.0:
            raise ValueError(
                f"compression factor must be in (0, 1], got {self.compress_c}"
            )

    @classmethod
    def poisson(cls, rho: float) -> "ModelSpec":
        return cls(kind="poisson", rho=rho)

    @classmethod
    def plcpp(cls, rho: float, rho_l: float, sigma: float, alpha: float = None) -> "ModelSpec":
        if rho_l is None and alpha is None:
            raise ValueError("plcpp needs rho_l or alpha")
        # the one left None is rho over the other (inf over 0, which is refused)
        if rho_l is None:
            rho_l = rho / alpha if alpha else math.inf
        elif alpha is None:
            alpha = rho / rho_l if rho_l else math.inf
        return cls(kind="plcpp", rho=rho, rho_l=rho_l, alpha=alpha, sigma=sigma)

    @classmethod
    def matern(cls, rho: float, hardcore_r: float) -> "ModelSpec":
        return cls(kind="matern", rho=rho, hardcore_r=hardcore_r)

    @classmethod
    def packing(cls, rho: float, hardcore_r: float) -> "ModelSpec":
        return cls(kind="packing", rho=rho, hardcore_r=hardcore_r)

    def compressed(self, c: float) -> "ModelSpec":
        if self.compress_c is not None:
            raise ValueError("model is already compressed")
        return replace(self, compress_c=c)

    def replicate_window(self, window: BoxWindow) -> BoxWindow:
        """The window of a replicate simulated in ``window``, mapped by `compress`."""
        if self.compress_c is None:
            return window
        return compress(PointPattern(np.empty((0, 3)), window), self.compress_c).window

    def describe(self) -> dict:
        """Flat parameter echo for manifests and CSV headers."""
        out = {"model": self.kind, "rho": self.rho}
        out.update((key, getattr(self, key)) for key in MODEL_PARAMS[self.kind])
        if self.compress_c is not None:
            out["compress_c"] = self.compress_c
        return out


# the annotation is a string, so that importing this module loads no numpy.random
def replicate_rng(seed) -> "np.random.Generator":
    """Counter-based RNG stream keyed by ``seed``.

    ``seed`` may be an int or a tuple of ints; campaigns key replicate
    ``i`` of campaign ``s`` as ``(s, i)``, which makes every replicate
    independent and individually reproducible.
    """
    entropy = tuple(int(s) for s in seed) if isinstance(seed, (tuple, list)) else int(seed)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def _uniform_in(rng, lo, hi, count):
    return lo + rng.random((count, 3)) * (hi - lo)


def _check_generated(model: ModelSpec, kind: str):
    """Refuse a model that the ``simulate_<kind>`` generator does not make as given."""
    if model.kind != kind:
        raise ValueError(f"expected a {kind} model, got kind={model.kind!r}")
    if model.compress_c is not None:
        raise ValueError(f"simulate_{kind} takes an uncompressed model; "
                         f"simulate_model applies compress_c={model.compress_c}")


def simulate_poisson(model: ModelSpec, window: BoxWindow, seed) -> PointPattern:
    """Homogeneous Poisson process of intensity ``model.rho`` in ``window``."""
    _check_generated(model, "poisson")
    rng = replicate_rng(seed)
    n = rng.poisson(model.rho * window.volume)
    return PointPattern(_uniform_in(rng, window.lo, window.hi, n), window)


def _margin(window: BoxWindow, *scales: float) -> float:
    # edge-effect guard: simulate on a dilated window, then clip
    return max(*scales, 0.1 * float(np.max(window.sides)))


def simulate_plcpp(model: ModelSpec, window: BoxWindow, seed, return_lines: bool = False):
    """Poisson line cluster process with lines parallel to z.

    Lines are a Poisson process on the cross-section of the dilated
    window; each line carries a 1D Poisson(``alpha``) process over the
    dilated axial range; each point is displaced orthogonally to its line
    by independent N(0, sigma^2) coordinates; the result is clipped to
    ``window``.

    With ``return_lines`` the parent line foot points (one 3-vector per
    line, axial coordinate 0) are returned alongside the pattern.
    """
    _check_generated(model, "plcpp")
    rng = replicate_rng(seed)
    big = window.dilated(_margin(window, 5.0 * model.sigma))
    (x0, y0, z0), (x1, y1, z1) = big.lo, big.hi

    # a line's coordinates (l1, l2) are (-y, x), drawn in this order, which
    # the fixed-seed outputs pin
    n_lines = rng.poisson(model.rho_l * ((y1 - y0) * (x1 - x0)))
    line1 = rng.uniform(-y1, -y0, n_lines)
    line2 = rng.uniform(x0, x1, n_lines)
    counts = rng.poisson(model.alpha * (z1 - z0), n_lines)
    total = int(counts.sum())
    axial = rng.uniform(z0, z1, total)
    parent = np.repeat(np.arange(n_lines), counts)
    disp = rng.normal(0.0, model.sigma, (total, 2)) if model.sigma > 0 else np.zeros((total, 2))

    pts = np.column_stack([line2[parent] + disp[:, 1], -(line1[parent] + disp[:, 0]), axial])
    pattern = PointPattern(pts[window.contains(pts)], window)
    if return_lines:
        return pattern, np.column_stack([line2, -line1, np.zeros(n_lines)])
    return pattern


def matern_proposal_intensity(rho: float, r: float) -> float:
    """Poisson proposal intensity whose Matérn II thinning has intensity ``rho``.

    Inverts ``rho = (1 - exp(-lam * V)) / V`` with ``V = (4/3) pi r^3``,
    for the achievable ``rho * V < 1`` that `ModelSpec` requires.
    """
    v = _BALL * r**3
    return -math.log1p(-rho * v) / v


def simulate_matern(model: ModelSpec, window: BoxWindow, seed) -> PointPattern:
    """Matérn type II hard-core process.

    Proposes Poisson points with i.i.d. uniform marks on a dilated window
    and keeps a point iff no proposal within ``r = model.hardcore_r``
    carries a smaller mark, which guarantees the minimum inter-point
    distance ``r``.
    """
    _check_generated(model, "matern")
    r = model.hardcore_r
    rng = replicate_rng(seed)
    lam = matern_proposal_intensity(model.rho, r)
    big = window.dilated(_margin(window, r))
    n = rng.poisson(lam * big.volume)
    pts = _uniform_in(rng, big.lo, big.hi, n)
    marks = rng.random(n)

    keep = np.ones(n, dtype=bool)
    i, j = close_pairs(pts, r)
    # the member of each close pair with the larger mark dies,
    # comparing against all proposals (dead ones still kill)
    keep[np.where(marks[i] < marks[j], j, i)] = False
    pts = pts[keep]
    return PointPattern(pts[window.contains(pts)], window)


# the packer's neighbour-list skin, in ball diameters: a wider skin means fewer
# list builds but more listed pairs per sweep; it changes no output bit
_SKIN = 0.45


def simulate_packing(
    model: ModelSpec, window: BoxWindow, seed, max_sweeps: int = 100_000
) -> PointPattern:
    """Centers of a force-biased hard ball packing under periodic boundaries.

    ``r = model.hardcore_r`` is the ball radius, so centers must stay ``2 r`` apart.
    Places exactly ``round(rho * |window|)`` centers uniformly, then
    repeatedly pushes every overlapping pair apart along its center line
    proportionally to the overlap depth while the ball diameter grows to
    its final value.  Succeeds when no periodic pair of centers is closer
    than ``2 r``.

    Overlapping pairs are found in a neighbour list of the pairs within
    the current diameter plus a skin of ``0.9 r`` (`_SKIN`).  Each sweep
    adds its pushes to an unwrapped ``drift`` of every center since the last
    build; the list is rebuilt once twice the largest drift could close the
    gap between the list's reach and the current diameter.  Every sweep
    therefore pushes exactly the pairs, in the canonical ``(i, j)`` order,
    that a fresh periodic query would return, and when the list is rebuilt
    changes no output bit.  The centers are kept component-major, as a
    ``(3, n)`` array, for the whole loop.
    """
    _check_generated(model, "packing")
    rng = replicate_rng(seed)
    sides = window.sides
    col = sides[:, None]
    n = int(round(model.rho * window.volume))
    pos = (rng.random((n, 3)) * sides).T.copy()
    target = 2.0 * model.hardcore_r

    if n > 1:
        # aim a hair past the target with a minimum push, so pairs cannot
        # stall a rounding error short of the hard-core distance
        goal = target * (1.0 + 1e-6)
        floor = 1e-3 * (goal - target)
        skin = _SKIN * target
        d_cur = 0.8 * goal
        drift = np.zeros_like(pos)
        # component k of point p is bin k*n + p of one bincount
        offsets = np.arange(0, 3 * n, n)[:, None, None]
        reach = 0.0  # no neighbour list yet: the first sweep builds one
        for _ in range(max_sweeps):
            # a pair now closer than d_cur was closer than d_cur + 2 max|drift|
            # at the last build (drift bounds the minimum-image move), so the
            # list at ``reach`` still holds every hit unless that bound (with
            # slack far above rounding) reaches it
            room = (1.0 - 1e-9) * reach - d_cur
            sq = drift * drift
            if room <= 0.0 or 4.0 * ((sq[0] + sq[1]) + sq[2]).max() >= room * room:
                reach = d_cur + skin
                near_i, near_j = close_pairs(pos.T, reach, sides)
                # the bins of each listed pair, by component, end (i or j) and pair
                near_bins = np.stack([near_i, near_j]) + offsets
                drift[:] = 0.0
            delta, dist = _separation(pos.take(near_i, axis=1),
                                      pos.take(near_j, axis=1), sides)
            hit = (dist < d_cur).nonzero()[0]
            if len(hit) == 0:
                if d_cur >= goal:
                    break
                d_cur = min(goal, 1.25 * d_cur)
                continue
            delta, dist = delta.take(hit, axis=1), dist.take(hit)
            # coincident centers (distance 0, always a hit) part along x
            if not dist.all():
                coincident = dist == 0.0
                delta[:, coincident] = [[1e-9 * target], [0.0], [0.0]]
                dist[coincident] = 1e-9 * target
            # overshoot so resolved pairs end up strictly clear
            push = (0.55 * (d_cur - dist) + floor) / dist * delta
            # one pass over i then j sums each point's pushes in np.add.at order
            weights = np.concatenate([-push, push], axis=1)
            bins = near_bins.take(hit, axis=2)
            shift = np.bincount(bins.ravel(), weights.ravel(), 3 * n).reshape(3, n)
            pos += shift
            drift += shift
            # a center inside [0, side) is its own remainder, so only a sweep that
            # pushes one out wraps
            outside = (pos < 0.0) | (pos >= col)
            if outside.any():
                np.remainder(pos, col, out=pos, where=outside)
                pos[pos >= col] = 0.0  # % can round up to the boundary
            d_cur = min(goal, 1.05 * d_cur)
        achieved = _min_periodic_distance(pos, sides, target)
        if achieved < target:
            raise RuntimeError(
                f"packing did not converge in {max_sweeps} sweeps: achieved "
                f"ball radius {achieved / 2.0:.6g} < {model.hardcore_r:.6g} "
                f"(minimum center distance {achieved:.6g})"
            )
    # C order, the layout of the other simulators: ``vec @ u`` downstream
    # rounds differently on another layout
    return PointPattern(np.ascontiguousarray(window.lo + pos.T), window)


def _separation(a, b, sides):
    """Minimum-image differences ``b - a`` of ``(3, k)`` arrays, and their lengths.

    Each column is a point and each row a component.  A length is
    ``sqrt((dx*dx + dy*dy) + dz*dz)``, the order in which ``np.sum`` adds
    the three squares of a row-major difference.
    """
    col = sides[:, None]
    delta = b - a
    delta -= col * np.round(delta / col)
    sq = delta * delta
    return delta, np.sqrt((sq[0] + sq[1]) + sq[2])


def _min_periodic_distance(pos, sides, probe: float) -> float:
    i, j = close_pairs(pos.T, probe, sides)
    if len(i) == 0:
        return math.inf
    return float(_separation(pos.take(i, axis=1), pos.take(j, axis=1), sides)[1].min())


def compress(pattern: PointPattern, c: float) -> PointPattern:
    """Apply the volume-preserving map diag(1/sqrt(c), 1/sqrt(c), c).

    For 0 < c < 1 this squeezes the pattern (and its window) along z while
    stretching the xy-plane isotropically; ``c = 1`` is the identity and
    ``compress(compress(p, c), 1/c)`` undoes it up to rounding.
    """
    if not 0.0 < c < math.inf:
        raise ValueError(f"compression factor c must be positive and finite, got {c}")
    scale = np.array([1.0 / math.sqrt(c), 1.0 / math.sqrt(c), c])
    return PointPattern(
        pattern.points * scale,
        BoxWindow(pattern.window.lo * scale, pattern.window.hi * scale),
    )


def simulate_model(model: ModelSpec, window: BoxWindow, seed) -> PointPattern:
    """Generate one replicate of ``model`` (applying compression if set)."""
    # looked up at call time, so that a patched ``simulate_<kind>`` is the one called
    generate = globals()[f"simulate_{model.kind}"]
    if model.compress_c is None:
        return generate(model, window, seed)
    return compress(generate(replace(model, compress_c=None), window, seed), model.compress_c)


def simulate_campaign(model: ModelSpec, window: BoxWindow, m: int, seed: int,
                      threads: int = 1) -> list:
    """Generate ``m`` replicates keyed (seed, 0) ... (seed, m - 1).

    A replicate that fails to generate (a packing that does not converge)
    raises RuntimeError naming its key ``(seed, i)``.
    """
    if m < 1:
        raise ValueError(f"need at least one replicate, got {m}")
    # looked up on the module at call time, where perfbench/tracecli.py wraps it
    return _parallel.parallel_map(_campaign_replicate,
                                  [(model, window, seed, i) for i in range(m)], threads)


def _campaign_replicate(args):
    model, window, seed, index = args
    try:
        return simulate_model(model, window, (seed, index))
    except RuntimeError as exc:  # a packing that did not converge
        raise RuntimeError(f"replicate (seed, i) = ({seed}, {index}): {exc}") from exc
