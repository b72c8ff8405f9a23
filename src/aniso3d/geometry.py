"""Structuring elements for directional K-functions.

The two structuring elements are a double spherical cone (axis u, slant
height ``r_cn``, half apex angle ``theta``) and a cylinder (axis u, base
radius ``r_cl``, half height ``h``), both centered at the origin and
symmetric under point reflection.  Two links make the cone and the
cylinder comparable: ``equal_shape_link`` inscribes the cone in the
cylinder, ``equal_volume_link`` matches their volumes.

``close_pairs`` finds the point pairs within a distance, in an open or a
periodic box; the estimators and the hard-core simulators share it.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConeParams",
    "CylinderParams",
    "as_direction",
    "cone_contains",
    "cylinder_contains",
    "cone_volume",
    "cylinder_volume",
    "equal_volume_link",
    "equal_shape_link",
    "direction_set",
    "close_pairs",
    "X_AXIS",
    "Y_AXIS",
    "Z_AXIS",
]

_UNIT_TOL = 1e-12

X_AXIS = np.array([1.0, 0.0, 0.0])
Y_AXIS = np.array([0.0, 1.0, 0.0])
Z_AXIS = np.array([0.0, 0.0, 1.0])


@dataclass(frozen=True)
class ConeParams:
    """Double spherical cone: finite slant height ``r_cn`` > 0, half apex
    angle ``theta`` in (0, pi/2].  ``theta = pi/2`` degenerates to a ball."""

    r_cn: float
    theta: float

    def __post_init__(self):
        if not 0.0 < self.r_cn < math.inf:
            raise ValueError(f"cone slant height must be positive and finite, got {self.r_cn}")
        if not 0.0 < self.theta <= math.pi / 2.0 + 1e-15:
            raise ValueError(f"cone half angle must be in (0, pi/2], got {self.theta}")

    @property
    def cos_theta(self) -> float:
        if self.theta == math.pi / 2.0:  # cos() rounds to 6.1e-17 here, not 0
            return 0.0
        return float(np.cos(self.theta))


@dataclass(frozen=True)
class CylinderParams:
    """Cylinder: finite base radius ``r_cl`` > 0 and half height ``h`` > 0
    (total height ``2h``)."""

    r_cl: float
    h: float

    def __post_init__(self):
        if not 0.0 < self.r_cl < math.inf:
            raise ValueError(f"cylinder radius must be positive and finite, got {self.r_cl}")
        if not 0.0 < self.h < math.inf:
            raise ValueError(f"cylinder half height must be positive and finite, got {self.h}")


def as_direction(u) -> np.ndarray:
    """Validate ``u`` as a unit 3-vector and return it as a float array."""
    u = np.asarray(u, dtype=float)
    if u.shape != (3,):
        raise ValueError(f"direction must be a 3-vector, got shape {u.shape}")
    if not abs(_norms(u) - 1.0) <= _UNIT_TOL:
        raise ValueError(f"direction must have unit norm, got |u| = {_norms(u)!r}")
    return u


def _as_points(points) -> np.ndarray:
    """Validate ``points`` as an (n, 3) array of finite coordinates and return
    it as a float array."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"points must be an (n, 3) array, got shape {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("point coordinates must be finite (no nan or inf)")
    return pts


def _norms(v) -> np.ndarray:
    """Euclidean norm of 3-vectors along the last axis, with the squares
    summed in index order (canonical arithmetic used by all membership
    tests, so independent code paths agree bit-for-bit)."""
    x, y, z = np.moveaxis(np.asarray(v, dtype=float), -1, 0)
    return np.sqrt((x * x + y * y) + z * z)


def _cone_mask(norm_v, axial_abs, r_cn, cos_theta):
    # closed boundaries; the origin (norm 0) is outside by convention
    return (norm_v > 0.0) & (norm_v <= r_cn) & (axial_abs >= cos_theta * norm_v)


def _cylinder_mask(axial_abs, radial, r_cl, h):
    return (axial_abs <= h) & (radial <= r_cl)


def cone_contains(cone: ConeParams, u, v):
    """Test whether displacement(s) ``v`` lie in the double cone along ``u``.

    Parameters
    ----------
    cone : ConeParams
    u : unit 3-vector, the cone axis
    v : array-like, shape (3,) or (..., 3)
        displacement vectors to test

    Returns
    -------
    bool or ndarray of bool
        True where ``|v| <= r_cn`` and the angle between ``v`` and the
        axis (or its negation) is at most ``theta``.  The origin is
        outside: the angle is undefined there, and distinct point pairs
        never produce it.
    """
    u = as_direction(u)
    v = np.asarray(v, dtype=float)
    norm_v = _norms(v)
    axial_abs = np.abs(v @ u)
    out = _cone_mask(norm_v, axial_abs, cone.r_cn, cone.cos_theta)
    return bool(out) if np.isscalar(out) or out.ndim == 0 else out


def cylinder_contains(cyl: CylinderParams, u, v):
    """Test whether displacement(s) ``v`` lie in the cylinder along ``u``.

    True where the axial coordinate satisfies ``|<v,u>| <= h`` and the
    orthogonal component has norm at most ``r_cl``.  Accepts a single
    vector or an (..., 3) stack, like `cone_contains`.
    """
    u = as_direction(u)
    v = np.asarray(v, dtype=float)
    axial = v @ u
    radial = _norms(v - np.multiply.outer(axial, u))
    out = _cylinder_mask(np.abs(axial), radial, cyl.r_cl, cyl.h)
    return bool(out) if np.isscalar(out) or out.ndim == 0 else out


def cone_volume(cone: ConeParams) -> float:
    """Volume of the double spherical cone.

    Each half is a solid cone of height ``r_cn cos(theta)`` and base
    radius ``r_cn sin(theta)`` capped by the spherical cap of height
    ``r_cn (1 - cos(theta))``.  At ``theta = pi/2`` this is the full ball
    volume ``4/3 pi r_cn^3``.
    """
    r = cone.r_cn
    if cone.theta == math.pi / 2.0:  # ball limit, exact
        return 4.0 / 3.0 * math.pi * r**3
    h = r * math.cos(cone.theta)
    base = r * math.sin(cone.theta)
    v_cone = math.pi * base * base * h / 3.0
    d = r - h
    v_cap = math.pi * d * d * (3.0 * r - d) / 3.0
    return 2.0 * (v_cone + v_cap)


def cylinder_volume(cyl: CylinderParams) -> float:
    """Volume ``2 pi r_cl^2 h`` of the cylinder."""
    return 2.0 * math.pi * cyl.r_cl * cyl.r_cl * cyl.h


def equal_volume_link(cyl: CylinderParams, h_cn: float) -> ConeParams:
    """Cone with the same volume as ``cyl``, given its half height ``h_cn``.

    With ``theta = arccos(h_cn / r_cn)`` the double-cone volume reduces to
    ``(4 pi / 3) r_cn^2 (r_cn - h_cn)``, so volume equality with the
    cylinder is the cubic ``2 r_cn^2 (r_cn - h_cn) = 3 r_cl^2 h``, which
    has exactly one root with ``r_cn > h_cn``.  The half height ``h_cn``
    is the free parameter left open by volume matching alone; callers fix
    it, e.g. from an aspect ratio.  As ``h_cn -> 0`` the cone opens to the
    ball of the cylinder's volume.

    Raises
    ------
    ValueError
        if ``h_cn`` is not positive and finite, or no finite root with
        ``r_cn > h_cn`` exists.
    """
    if not 0.0 < h_cn < math.inf:
        raise ValueError(f"cone half height must be positive and finite, got {h_cn}")
    # Cardano's real root of r^2 (r - h_cn) = t, with c = h_cn^3 / 27: every
    # term is positive, so nothing cancels
    t = 1.5 * cyl.r_cl * cyl.r_cl * cyl.h
    c = h_cn * h_cn * h_cn / 27.0
    u = float(np.cbrt(c + 0.5 * t + math.sqrt(0.5 * t * (2.0 * c + 0.5 * t))))
    r_cn = h_cn / 3.0 + u + h_cn * h_cn / (9.0 * u)
    if not h_cn < r_cn < math.inf:
        raise ValueError(f"no finite slant height > {h_cn} matches the cylinder volume")
    return ConeParams(r_cn=r_cn, theta=math.acos(h_cn / r_cn))


def equal_shape_link(r_cl: float, a: float) -> tuple[CylinderParams, ConeParams]:
    """Cylinder and inscribed cone for radius ``r_cl`` and aspect ratio ``a``.

    The aspect ratio is the cylinder's half height over its radius, so
    ``h = a r_cl``.  Inscribing the double cone in the cylinder ties the
    remaining parameters: ``r_cn = r_cl sqrt(a^2 + 1)`` (the slant reaches
    the cylinder's rim corner) and ``theta = arctan(1/a)``, i.e.
    ``cot(theta) = a``; ``a = 2`` gives ``theta = 0.4636476...``.  Only the
    cone's spherical caps stick out of the cylinder, through its flat
    faces.

    Requires ``a > 1``: an elongated cylinder, so the element prefers its
    axis direction; ``a^2`` finite, so the slant factor exists; and the
    finite sizes that `CylinderParams` and `ConeParams` require.
    """
    if not a > 1.0:
        raise ValueError(f"aspect ratio must exceed 1, got {a}")
    slant = math.sqrt(a * a + 1.0)
    if math.isinf(slant):
        raise ValueError(f"aspect ratio {a} is too large: a^2 overflows")
    h = a * r_cl
    r_cn = r_cl * slant
    theta = math.atan2(1.0, a)
    return CylinderParams(r_cl=r_cl, h=h), ConeParams(r_cn=r_cn, theta=theta)


def direction_set(n: int) -> np.ndarray:
    """``n`` unit vectors, one per row.

    ``n = 1`` gives the z-axis and ``n = 3`` gives exactly the coordinate
    axes in x, y, z order (the axes the isotropy test compares).  Larger
    ``n`` uses a deterministic generalized-spiral lattice, which spreads
    points approximately evenly over the sphere.
    """
    if n < 1:
        raise ValueError(f"need at least one direction, got {n}")
    if n == 1:
        return Z_AXIS.copy()[None, :]
    if n == 3:
        return np.stack([X_AXIS, Y_AXIS, Z_AXIS])
    k = np.arange(n)
    z = 1.0 - (2.0 * k + 1.0) / n
    rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    golden = math.pi * (3.0 - math.sqrt(5.0))
    phi = golden * k
    out = np.column_stack([rho * np.cos(phi), rho * np.sin(phi), z])
    return out / _norms(out)[:, None]


# half of the 8 xy neighbours of a column: each pair of adjacent columns meets once
_HALF_SHELL = ((1, 0), (-1, 1), (0, 1), (1, 1))


# candidates expanded and filtered at a time, so that the finder's scratch is
# bounded by this and its pair keys (4 bytes a pair up to 65536 points), not by
# the candidate count
_CANDIDATE_CHUNK = 8192


def close_pairs(points, r: float, sides=None) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays ``i < j`` of every pair of points within distance ``r``.

    A pair qualifies when ``(dx*dx + dy*dy) + dz*dz <= r*r`` for its
    difference ``d = points[j] - points[i]``.  With ``sides`` the box
    ``[0, sides)`` is periodic, every point must lie in it, and ``d`` is
    the minimum image ``d - sides * round(d / sides)``.  Pairs come in the
    ascending order of the key ``i * n + j``.

    Points are binned into xy columns at least ``r`` wide and sorted by
    column and z.  Each point meets the points after it in its own column
    and the points of the four half-shell neighbour columns whose z lies
    within ``r`` of its own (under periodicity, also across the z
    boundary); one ``searchsorted`` over the (column, z rank) keys finds
    all those ranges.  The candidates of the ranges are expanded and
    filtered by the exact rule above `_CANDIDATE_CHUNK` at a time, and only
    the keys of the pairs found are kept, in the dtype of `_close_pair_keys`,
    and sorted once.  The index arrays are ``int64`` whatever that dtype.
    """
    # widened before the division: a mixed-dtype divmod would cast through
    # scratch buffers, which raise a small process's peak memory
    return np.divmod(_close_pair_keys(points, r, sides).astype(np.int64, copy=False),
                     len(points))


def _close_pair_keys(points, r: float, sides=None) -> np.ndarray:
    """The ascending keys ``i * n + j`` of `close_pairs`: ``uint32`` when every
    key fits, that is for ``n <= 65536`` (the largest key is ``n*n - n - 1``),
    and ``int64`` otherwise."""
    pts = _as_points(points)
    r = float(r)
    if not r >= 0.0:
        raise ValueError(f"pair distance must be nonnegative, got {r}")
    n = len(pts)
    key_dtype = np.uint32 if n * n - n - 1 <= np.iinfo(np.uint32).max else np.int64
    if n < 2:
        return np.empty(0, key_dtype)
    scale = float(np.abs(pts).max())
    if sides is None:
        lo = pts[:, :2].min(axis=0)
        span = pts[:, :2].max(axis=0) - lo
    else:
        sides = np.asarray(sides, dtype=float)
        if sides.shape != (3,) or not np.all(sides > 0.0):
            raise ValueError(f"periodic sides must be a positive 3-vector, got {sides}")
        if not (np.all(pts >= 0.0) and np.all(pts < sides)):
            raise ValueError("periodic points must lie in [0, sides)")
        lo, span = np.zeros(2), sides[:2]
        scale = max(scale, float(sides.max()))
    # a qualifying pair may differ by a few ulp more than r in one coordinate
    # (squares round); columns and z-ranges reach that far, the filter uses r
    reach = r * (1.0 + 1e-9) + 16.0 * float(np.spacing(scale))

    # columns at least ``reach`` wide, at most about n of them; a periodic axis
    # with fewer than 3 would meet the same neighbour on both sides, so it gets 1
    ncol = []
    for k in range(2):
        c = int(min(math.isqrt(n), span[k] / reach))
        ncol.append(1 if c < 1 or (sides is not None and c < 3) else c)
    cxy = [np.minimum(((pts[:, k] - lo[k]) * (ncol[k] / span[k])).astype(np.int64),
                      ncol[k] - 1) if ncol[k] > 1 else np.zeros(n, np.int64)
           for k in range(2)]
    # key (column, rank of z); ties in z take distinct ranks, which still maps
    # each z-range to one range of ranks
    zorder = np.argsort(pts[:, 2])
    zs = pts[zorder, 2]
    zrank = np.empty(n, np.int64)
    zrank[zorder] = np.arange(n)
    key = (cxy[0] * ncol[1] + cxy[1]) * n + zrank
    order = np.argsort(key)
    key = key[order]
    cx, cy, zrank = cxy[0][order], cxy[1][order], zrank[order]
    xs, ys, zp = (pts[order, k] for k in range(3))

    # rank ranges [a, b) of the z within reach: the direct one and, periodically,
    # the ones wrapped below and above, clipped so that the three never overlap;
    # searched for the sorted z, whose needles come in order
    a = np.searchsorted(zs, zs - reach, side="left")[zrank]
    b = np.searchsorted(zs, zs + reach, side="right")[zrank]
    ranks = [(a, b)]
    if sides is not None:
        below = np.searchsorted(zs, zs + (reach - sides[2]), side="right")[zrank]
        above = np.searchsorted(zs, zs - (reach - sides[2]), side="left")[zrank]
        ranks += [(0, np.minimum(below, a)), (np.maximum(above, b), n)]

    columns = [cx * ncol[1] + cy]
    for ox, oy in _HALF_SHELL:
        if (ox and ncol[0] == 1) or (oy and ncol[1] == 1):
            continue
        nx, ny = cx + ox, cy + oy
        if sides is None:
            valid = (nx >= 0) & (nx < ncol[0]) & (ny < ncol[1])
            columns.append(np.where(valid, nx * ncol[1] + ny, -1))  # -1: empty range
        else:
            columns.append((nx % ncol[0]) * ncol[1] + ny % ncol[1])
    lo_keys = [c * n + ra for c in columns for ra, _ in ranks]
    hi_keys = [c * n + rb for c in columns for _, rb in ranks]
    bounds = np.searchsorted(key, np.concatenate(lo_keys + hi_keys))
    start, end = np.split(bounds, 2)
    # own column: only the points after this one, so each pair is met once
    own = n * len(ranks)
    start[:own] = np.maximum(start[:own], np.tile(np.arange(1, n + 1), len(ranks)))
    counts = np.maximum(end - start, 0)
    # candidate c of range s, which belongs to point s % n, is point c - shift[s]
    ends = np.cumsum(counts)
    shift = ends - counts - start
    total = int(ends[-1])
    pieces = [np.empty(0, key_dtype)]
    for c0 in range(0, total, _CANDIDATE_CHUNK):
        c1 = min(c0 + _CANDIDATE_CHUNK, total)
        s0, s1 = np.searchsorted(ends, (c0, c1 - 1), side="right")
        taken = np.diff(np.minimum(ends[s0:s1 + 1], c1), prepend=c0)
        p = np.repeat(np.arange(s0, s1 + 1) % n, taken)
        q = np.arange(c0, c1) - np.repeat(shift[s0:s1 + 1], taken)
        sq = None
        for k, c in enumerate((xs, ys, zp)):
            d = c.take(q) - c.take(p)
            if sides is not None:
                d -= sides[k] * np.round(d / sides[k])
            d *= d
            sq = d if sq is None else np.add(sq, d, out=sq)
        hit = np.flatnonzero(sq <= r * r)
        i, j = order.take(p.take(hit)), order.take(q.take(hit))
        pieces.append((np.minimum(i, j) * n + np.maximum(i, j)).astype(key_dtype, copy=False))
    keys = np.concatenate(pieces)
    keys.sort()
    return keys
