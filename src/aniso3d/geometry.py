"""Structuring elements for directional K-functions.

The two structuring elements are a double spherical cone (axis u, slant
height ``r_cn``, half apex angle ``theta``) and a cylinder (axis u, base
radius ``r_cl``, half height ``h``), both centered at the origin and
symmetric under point reflection.  Two links make the cone and the
cylinder comparable: ``equal_shape_link`` inscribes the cone in the
cylinder, ``equal_volume_link`` matches their volumes.
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
    """Double spherical cone: slant height ``r_cn`` > 0, half apex angle
    ``theta`` in (0, pi/2].  ``theta = pi/2`` degenerates to a ball."""

    r_cn: float
    theta: float

    def __post_init__(self):
        if not self.r_cn > 0.0:
            raise ValueError(f"cone slant height must be positive, got {self.r_cn}")
        if not 0.0 < self.theta <= math.pi / 2.0 + 1e-15:
            raise ValueError(f"cone half angle must be in (0, pi/2], got {self.theta}")

    @property
    def cos_theta(self) -> float:
        if self.theta == math.pi / 2.0:  # cos() rounds to 6.1e-17 here, not 0
            return 0.0
        return float(np.cos(self.theta))


@dataclass(frozen=True)
class CylinderParams:
    """Cylinder: base radius ``r_cl`` > 0, half height ``h`` > 0 (total
    height ``2h``)."""

    r_cl: float
    h: float

    def __post_init__(self):
        if not self.r_cl > 0.0:
            raise ValueError(f"cylinder radius must be positive, got {self.r_cl}")
        if not self.h > 0.0:
            raise ValueError(f"cylinder half height must be positive, got {self.h}")


def as_direction(u) -> np.ndarray:
    """Validate ``u`` as a unit 3-vector and return it as a float array."""
    u = np.asarray(u, dtype=float)
    if u.shape != (3,):
        raise ValueError(f"direction must be a 3-vector, got shape {u.shape}")
    if abs(_norms(u) - 1.0) > _UNIT_TOL:
        raise ValueError(f"direction must have unit norm, got |u| = {_norms(u)!r}")
    return u


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
        if ``h_cn <= 0`` or no root with ``r_cn > h_cn`` exists.
    """
    if not h_cn > 0.0:
        raise ValueError(f"cone half height must be positive, got {h_cn}")
    target = 1.5 * cyl.r_cl * cyl.r_cl * cyl.h

    def f(r):
        return r * r * (r - h_cn) - target

    lo = h_cn
    hi = h_cn + target ** (1.0 / 3.0) + 1.0  # (r - h_cn)^3 <= r^2 (r - h_cn)
    if not (f(lo) < 0.0 < f(hi)):
        raise ValueError(
            f"no slant height > {h_cn} matches the cylinder volume "
            f"{cylinder_volume(cyl):.6g}"
        )
    # bracketing bisection first: immune to bad starting slopes
    while hi - lo > 1e-12 * max(1.0, h_cn):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    r_cn = 0.5 * (lo + hi)
    # two Newton steps push the volume mismatch to rounding level
    for _ in range(2):
        slope = 3.0 * r_cn * r_cn - 2.0 * r_cn * h_cn
        if slope > 0.0:
            r_cn -= f(r_cn) / slope
    if not r_cn > h_cn:
        raise ValueError(f"no slant height > {h_cn} matches the cylinder volume")
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
    axis direction.
    """
    if not r_cl > 0.0:
        raise ValueError(f"cylinder radius must be positive, got {r_cl}")
    if not a > 1.0:
        raise ValueError(f"aspect ratio must exceed 1, got {a}")
    h = a * r_cl
    r_cn = r_cl * math.sqrt(a * a + 1.0)
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
