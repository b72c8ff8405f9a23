"""Tests for structuring elements, volumes, and parametrization links."""

import math
import re

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial import cKDTree

from aniso3d import geometry
from aniso3d.estimate import profile_extent
from aniso3d.geometry import (
    ConeParams,
    CylinderParams,
    Z_AXIS,
    as_direction,
    close_pairs,
    cone_contains,
    cone_volume,
    cylinder_contains,
    cylinder_volume,
    direction_set,
    equal_shape_link,
    equal_volume_link,
)
from aniso3d.simulate import (
    ModelSpec,
    matern_proposal_intensity,
    replicate_rng,
    simulate_model,
    simulate_packing,
    unit_cube,
)

THETA_A2 = 0.4636476  # half apex angle matching aspect ratio 2


def random_rotation(rng):
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    return q * np.sign(np.diag(r))


def mc_cone_volume(cone, n, rng):
    """Hit-rate volume estimate from uniform samples in the bounding ball."""
    ball_volume = 4.0 * math.pi * cone.r_cn**3 / 3.0
    hits = 0
    total = 0
    while total < n:
        v = rng.uniform(-cone.r_cn, cone.r_cn, (2 * n, 3))
        v = v[np.sum(v * v, axis=1) <= cone.r_cn**2][: n - total]
        hits += int(np.count_nonzero(cone_contains(cone, Z_AXIS, v)))
        total += len(v)
    p = hits / n
    return p * ball_volume, ball_volume * math.sqrt(p * (1 - p) / n)


def mc_cylinder_volume(cyl, n, rng):
    """Hit-rate volume estimate from uniform samples in the circumscribed box."""
    box_volume = (2 * cyl.r_cl) ** 2 * 2 * cyl.h
    v = np.column_stack(
        [
            rng.uniform(-cyl.r_cl, cyl.r_cl, n),
            rng.uniform(-cyl.r_cl, cyl.r_cl, n),
            rng.uniform(-cyl.h, cyl.h, n),
        ]
    )
    p = np.count_nonzero(cylinder_contains(cyl, Z_AXIS, v)) / n
    return p * box_volume, box_volume * math.sqrt(p * (1 - p) / n)


class TestConeMembership:
    def test_full_ball_contains_orthogonal(self):
        assert cone_contains(ConeParams(1.0, math.pi / 2), Z_AXIS, [0.5, 0.0, 0.0])

    def test_axial_point_inside(self):
        assert cone_contains(ConeParams(1.0, THETA_A2), Z_AXIS, [0.0, 0.0, 0.9])

    def test_orthogonal_point_outside(self):
        assert not cone_contains(ConeParams(1.0, THETA_A2), Z_AXIS, [0.9, 0.0, 0.0])

    def test_double_cone_symmetry_example(self):
        assert cone_contains(ConeParams(1.0, THETA_A2), Z_AXIS, [0.0, 0.0, -0.9])

    def test_origin_is_outside(self):
        assert not cone_contains(ConeParams(1.0, THETA_A2), Z_AXIS, [0.0, 0.0, 0.0])

    def test_beyond_slant_height(self):
        assert not cone_contains(ConeParams(1.0, THETA_A2), Z_AXIS, [0.0, 0.0, 1.1])

    def test_symmetry_property(self):
        rng = np.random.default_rng(7)
        cone = ConeParams(1.3, 0.7)
        v = rng.normal(size=(500, 3))
        npt.assert_array_equal(
            cone_contains(cone, Z_AXIS, v), cone_contains(cone, Z_AXIS, -v)
        )

    def test_rotation_equivariance(self):
        rng = np.random.default_rng(8)
        cone = ConeParams(1.0, 0.5)
        v = rng.normal(size=(300, 3)) * 0.6
        for _ in range(5):
            q = random_rotation(rng)
            u = q @ Z_AXIS
            npt.assert_array_equal(
                cone_contains(cone, u, v @ q.T), cone_contains(cone, Z_AXIS, v)
            )

    def test_monotone_in_slant_height(self):
        rng = np.random.default_rng(9)
        v = rng.normal(size=(2000, 3)) * 0.5
        small = cone_contains(ConeParams(0.8, 0.6), Z_AXIS, v)
        large = cone_contains(ConeParams(1.2, 0.6), Z_AXIS, v)
        assert np.all(large[small])


class TestCylinderMembership:
    def test_center_inside(self):
        assert cylinder_contains(CylinderParams(0.5, 1.0), Z_AXIS, [0.0, 0.0, 0.0])

    def test_inside_both_bounds(self):
        assert cylinder_contains(CylinderParams(0.5, 1.0), Z_AXIS, [0.4, 0.0, 0.9])

    def test_radial_bound_exceeded(self):
        assert not cylinder_contains(CylinderParams(0.5, 1.0), Z_AXIS, [0.6, 0.0, 0.0])

    def test_axial_bound_exceeded(self):
        assert not cylinder_contains(CylinderParams(0.5, 1.0), Z_AXIS, [0.0, 0.0, 1.1])

    def test_symmetry_property(self):
        rng = np.random.default_rng(10)
        cyl = CylinderParams(0.5, 1.0)
        v = rng.normal(size=(500, 3))
        npt.assert_array_equal(
            cylinder_contains(cyl, Z_AXIS, v), cylinder_contains(cyl, Z_AXIS, -v)
        )

    def test_rotation_equivariance(self):
        rng = np.random.default_rng(11)
        cyl = CylinderParams(0.4, 0.9)
        v = rng.normal(size=(300, 3)) * 0.6
        for _ in range(5):
            q = random_rotation(rng)
            npt.assert_array_equal(
                cylinder_contains(cyl, q @ Z_AXIS, v @ q.T),
                cylinder_contains(cyl, Z_AXIS, v),
            )

    def test_monotone_in_size(self):
        rng = np.random.default_rng(12)
        v = rng.normal(size=(2000, 3)) * 0.7
        small = cylinder_contains(CylinderParams(0.3, 0.6), Z_AXIS, v)
        large = cylinder_contains(CylinderParams(0.5, 1.0), Z_AXIS, v)
        assert np.all(large[small])


class TestVolumes:
    def test_ball_limit_exact(self):
        for r in (0.3, 1.0, 2.5):
            assert cone_volume(ConeParams(r, math.pi / 2)) == 4.0 / 3.0 * math.pi * r**3

    def test_cone_closed_form(self):
        # double cone volume collapses to (4 pi / 3) r^3 (1 - cos theta)
        for r, theta in ((1.0, THETA_A2), (0.7, 1.1), (2.0, 0.3)):
            expected = 4.0 * math.pi * r**3 * (1.0 - math.cos(theta)) / 3.0
            assert cone_volume(ConeParams(r, theta)) == pytest.approx(expected, rel=1e-13)

    def test_cubic_scaling(self):
        assert cone_volume(ConeParams(2.0, THETA_A2)) == pytest.approx(
            8.0 * cone_volume(ConeParams(1.0, THETA_A2)), rel=1e-13
        )

    def test_cylinder_values(self):
        assert cylinder_volume(CylinderParams(1.0, 1.0)) == pytest.approx(2 * math.pi)
        assert cylinder_volume(CylinderParams(0.5, 2.0)) == pytest.approx(math.pi)

    def test_cone_against_hit_rate(self):
        rng = np.random.default_rng(100)
        est, se = mc_cone_volume(ConeParams(1.0, THETA_A2), 200_000, rng)
        assert abs(est - cone_volume(ConeParams(1.0, THETA_A2))) < 3 * se

    def test_cylinder_against_hit_rate(self):
        rng = np.random.default_rng(101)
        est, se = mc_cylinder_volume(CylinderParams(1.0, 1.0), 200_000, rng)
        assert abs(est - cylinder_volume(CylinderParams(1.0, 1.0))) < 3 * se


class TestEqualVolumeLink:
    def test_round_trip(self):
        # build a cylinder matching a known cone volume; solving must recover it
        cone = ConeParams(1.4, 0.9)
        h_cn = 1.4 * math.cos(0.9)
        volume = cone_volume(cone)
        cyl = CylinderParams(0.8, volume / (2 * math.pi * 0.8**2))
        solved = equal_volume_link(cyl, h_cn)
        assert solved.r_cn == pytest.approx(cone.r_cn, rel=1e-12)
        assert solved.theta == pytest.approx(cone.theta, rel=1e-12)

    def test_volume_match_property(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            cyl = CylinderParams(rng.uniform(0.01, 2.0), rng.uniform(0.01, 3.0))
            h_cn = rng.uniform(0.005, 2.0)
            cone = equal_volume_link(cyl, h_cn)
            v_cl = cylinder_volume(cyl)
            assert abs(cone_volume(cone) - v_cl) / v_cl < 1e-10
            assert cone.r_cn > h_cn

    def test_small_half_height_opens_to_ball(self):
        cyl = CylinderParams(1.0, 1.0)
        cone = equal_volume_link(cyl, 1e-9)
        ball_r = (cylinder_volume(cyl) * 3 / (4 * math.pi)) ** (1 / 3)
        assert cone.r_cn == pytest.approx(ball_r, rel=1e-6)
        assert cone.theta == pytest.approx(math.pi / 2, abs=1e-6)

    def test_rejects_bad_half_height(self):
        with pytest.raises(ValueError, match="positive"):
            equal_volume_link(CylinderParams(1.0, 1.0), 0.0)


class TestEqualShapeLink:
    def test_reference_values(self):
        cyl, cone = equal_shape_link(1.0, 2.0)
        assert cyl.h == 2.0
        assert cone.r_cn == pytest.approx(math.sqrt(5.0), rel=1e-15)
        assert abs(cone.theta - THETA_A2) < 1e-7

    def test_linear_scaling(self):
        cyl, cone = equal_shape_link(0.05, 2.0)
        assert cyl.h == pytest.approx(0.1, rel=1e-15)
        assert cone.r_cn == pytest.approx(0.05 * math.sqrt(5.0), rel=1e-15)

    def test_slant_identity(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            r_cl = rng.uniform(0.01, 5.0)
            a = rng.uniform(1.01, 6.0)
            cyl, cone = equal_shape_link(r_cl, a)
            assert abs(cone.r_cn**2 - cyl.h**2 - cyl.r_cl**2) < 1e-12 * cone.r_cn**2

    def test_conical_part_inside_cylinder(self):
        # within the shared half height the cone stays inside the cylinder;
        # only its spherical caps protrude through the flat faces
        rng = np.random.default_rng(15)
        cyl, cone = equal_shape_link(1.0, 2.0)
        v = rng.normal(size=(20000, 3))
        v *= (cone.r_cn * rng.random(len(v)) ** (1 / 3) / np.linalg.norm(v, axis=1))[:, None]
        in_cone = cone_contains(cone, Z_AXIS, v)
        below_cap = np.abs(v[:, 2]) <= cyl.h
        inside = cylinder_contains(cyl, Z_AXIS, v)
        assert np.all(inside[in_cone & below_cap])

    def test_cap_protrudes_axially(self):
        cyl, cone = equal_shape_link(1.0, 2.0)
        tip = np.array([0.0, 0.0, 0.99 * cone.r_cn])
        assert cone_contains(cone, Z_AXIS, tip)
        assert not cylinder_contains(cyl, Z_AXIS, tip)

    def test_rejects_flat_aspect(self):
        with pytest.raises(ValueError, match="aspect"):
            equal_shape_link(1.0, 1.0)

    @pytest.mark.parametrize("a", [1e200, math.inf])
    def test_rejects_aspect_whose_square_overflows(self, a):
        message = f"aspect ratio {a} is too large: a^2 overflows"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            equal_shape_link(1.0, a)
        _, cone = equal_shape_link(1.0, 1.3e154)  # the square is still finite
        assert cone.r_cn == math.sqrt(1.3e154 * 1.3e154 + 1.0)


class TestDirectionSet:
    def test_three_is_coordinate_axes(self):
        npt.assert_array_equal(direction_set(3), np.eye(3))

    def test_single_direction(self):
        npt.assert_array_equal(direction_set(1), [[0.0, 0.0, 1.0]])

    def test_spiral_unit_and_distinct(self):
        us = direction_set(100)
        assert us.shape == (100, 3)
        npt.assert_allclose(np.linalg.norm(us, axis=1), 1.0, atol=1e-12)
        assert np.unique(np.round(us, 9), axis=0).shape[0] == 100

    def test_spiral_spreads(self):
        us = direction_set(64)
        dots = us @ us.T
        np.fill_diagonal(dots, -1.0)
        # nearest neighbours should not be nearly coincident
        assert dots.max() < 0.999

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            direction_set(0)


def brute_pairs(points, r, sides=None):
    """O(n^2) oracle for `close_pairs`: its documented rule, pair by pair."""
    i, j = np.triu_indices(len(points), 1)
    d = points[j] - points[i]
    if sides is not None:
        d -= sides * np.round(d / sides)
    sq = (d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]) + d[:, 2] * d[:, 2]
    hit = sq <= r * r
    return i[hit], j[hit]


def tree_pairs(points, r, sides=None):
    """cKDTree's pair query in the canonical ``i * n + j`` order."""
    pairs = cKDTree(points, boxsize=sides).query_pairs(r, output_type="ndarray")
    return tuple(pairs[np.argsort(pairs[:, 0].astype(np.int64) * len(points) + pairs[:, 1])].T)


def assert_same_pairs(got, want):
    assert len(got) == len(want) == 2
    for g, w in zip(got, want):
        npt.assert_array_equal(g, w)


@st.composite
def pair_cases(draw):
    """Small open or periodic point sets with ties, coincident points, flat
    axes and points on the periodic boundary, and radii from 0 to past a side."""
    periodic = draw(st.booleans())
    sides = np.array(draw(st.lists(st.sampled_from([0.5, 1.0, 3.0]), min_size=3, max_size=3)))
    n = draw(st.integers(0, 40))
    grid = draw(st.sampled_from([0, 2, 5, 8]))
    if grid:  # lattice coordinates: coincident points, ties in z, ties at r
        pts = draw(arrays(np.int64, (n, 3), elements=st.integers(0, grid - 1))) * sides / grid
    else:
        pts = draw(arrays(np.float64, (n, 3), elements=st.floats(0.0, 1.0, exclude_max=True)))
        pts = np.minimum(pts * sides, np.nextafter(sides, 0.0))
    flat = draw(st.sampled_from([None, 0, 1, 2]))
    if flat is not None and n:
        pts[:, flat] = pts[0, flat]
    # points on the upper periodic boundary, just below the side
    edge = draw(arrays(np.bool_, (n, 3)))
    pts = np.where(edge, np.nextafter(sides, 0.0), pts)
    if not periodic:
        pts = pts + draw(st.sampled_from([0.0, -1.25, 1e3]))
    r = draw(st.one_of(
        st.just(0.0),
        st.floats(0.0, 0.6 * sides.min()),
        st.sampled_from([sides.min() / 8, sides.min() / 5, sides.min() / 2]),
        st.floats(sides.min(), 2.0 * sides.max()),
    ))
    return pts, r, sides if periodic else None


@st.composite
def z_face_cases(draw):
    """Periodic point sets crowded within reach of the z faces, where the
    wrapped z-ranges are non-empty, with radii near and past half a side."""
    sides = np.array(draw(st.lists(st.sampled_from([0.5, 1.0, 3.0]), min_size=3, max_size=3)))
    half = 0.5 * draw(st.sampled_from([sides[2], sides.min()]))
    r = draw(st.one_of(
        st.sampled_from([half, np.nextafter(half, 0.0), np.nextafter(half, 4.0 * half)]),
        st.floats(0.8 * half, 1.2 * half),
        st.floats(0.0, 3.0 * half),
    ))
    n = draw(st.integers(2, 40))
    xy = draw(arrays(np.float64, (n, 2), elements=st.floats(0.0, 1.0, exclude_max=True)))
    # the distance from the bottom or the top face, within reach of it and on
    # its edge, with ties
    depth = draw(arrays(np.float64, n, elements=st.one_of(st.sampled_from([0.0, 0.5, 1.0]),
                                                          st.floats(0.0, 1.0))))
    depth *= min(r * (1.0 + 1e-9), sides[2])
    z = np.where(draw(arrays(np.bool_, n)), sides[2] - depth, depth)
    pts = np.minimum(np.column_stack([xy * sides[:2], z]), np.nextafter(sides, 0.0))
    return pts, r, sides


class TestClosePairs:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(pair_cases())
    def test_matches_brute_force(self, case):
        pts, r, sides = case
        assert_same_pairs(close_pairs(pts, r, sides), brute_pairs(pts, r, sides))

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(case=pair_cases())
    def test_candidate_chunks_match_brute_force(self, chunk, case):
        """Chunks cut the candidate ranges anywhere, down to one candidate
        each; every pair still comes once and in key order."""
        pts, r, sides = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(geometry, "_CANDIDATE_CHUNK", chunk)
            got = close_pairs(pts, r, sides)
        assert_same_pairs(got, brute_pairs(pts, r, sides))

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(case=z_face_cases())
    def test_points_near_the_z_faces_match_brute_force(self, chunk, case):
        """The wrapped z-ranges, formed only for points within reach of a z
        face, find every pair across the faces."""
        pts, r, sides = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(geometry, "_CANDIDATE_CHUNK", chunk)
            got = close_pairs(pts, r, sides)
        assert_same_pairs(got, brute_pairs(pts, r, sides))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(pair_cases())
    def test_transposed_component_major_points(self, case):
        """The packer passes ``pos.T``, a view of its ``(3, n)`` state."""
        pts, r, sides = case
        a = np.ascontiguousarray(pts.T)
        assert_same_pairs(close_pairs(a.T, r, sides),
                          close_pairs(np.ascontiguousarray(a.T), r, sides))

    def test_pair_whose_difference_rounds_down_to_r(self):
        # the difference rounds (to even) onto r although the points lie
        # farther apart, so a search bounded by z + r alone would miss it
        pts = np.array([[0.0, 0.0, 2.0**-53], [0.0, 0.0, 1.0 + 2.0**-52]])
        want = (np.array([0]), np.array([1]))
        assert_same_pairs(brute_pairs(pts, 1.0), want)
        assert_same_pairs(close_pairs(pts, 1.0), want)

    def test_fewer_than_two_points(self):
        for pts in (np.empty((0, 3)), np.array([[0.2, 0.3, 0.4]])):
            for sides in (None, np.ones(3)):
                i, j = close_pairs(pts, 0.5, sides)
                assert i.size == j.size == 0 and i.dtype == j.dtype == np.int64

    @pytest.mark.parametrize("extra, key_dtype", [(False, np.uint32), (True, np.int64)])
    def test_key_dtype_boundary(self, extra, key_dtype):
        """The 64 x 32 x 32 unit lattice has 65536 points, the most whose
        keys fit in 4 bytes; one more point next to the last lattice point
        makes the key of the last two indices exceed 2**32."""
        pts = np.indices((64, 32, 32)).reshape(3, -1).T.astype(float)
        i = np.arange(len(pts))
        x, y, z = pts.T
        lo = np.concatenate([i[x < 63], i[y < 31], i[z < 31]])
        hi = np.concatenate([i[x < 63] + 1024, i[y < 31] + 32, i[z < 31] + 1])
        assert lo.size == 191488
        if extra:
            pts = np.vstack([pts, [64.0, 31.0, 31.0]])
            lo, hi = np.append(lo, 65535), np.append(hi, 65536)
        n = len(pts)
        order = np.argsort(lo * n + hi)
        got = close_pairs(pts, 1.0)
        assert got[0].dtype == got[1].dtype == np.int64
        assert_same_pairs(got, (lo[order], hi[order]))
        keys = geometry._close_pair_keys(pts, 1.0)
        assert keys.dtype == key_dtype
        assert int(keys[-1]) == n * n - n - 1  # the largest key of n points
        assert (int(keys[-1]) >= 2**32) == extra

    def test_rejects_bad_input(self):
        pts = np.array([[0.1, 0.2, 0.3], [0.4, 0.5, 1.0]])
        with pytest.raises(ValueError, match="nonnegative"):
            close_pairs(pts, -0.1)
        with pytest.raises(ValueError, match=r"\[0, sides\)"):
            close_pairs(pts, 0.1, np.ones(3))
        with pytest.raises(ValueError, match="positive 3-vector"):
            close_pairs(pts, 0.1, np.array([1.0, 0.0, 1.0]))
        with pytest.raises(ValueError,
                           match=r"^points must be an \(n, 3\) array, got shape \(3,\)$"):
            close_pairs(pts[0], 0.1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_points(self, bad):
        # three of the pairs lie within 0.5; a nan or inf scale and reach found none
        pts = np.array([[0.0, 0.0, 0.0], [bad, 0.0, 0.0], [0.1, 0.0, 0.0], [0.2, 0.1, 0.0]])
        with pytest.raises(ValueError, match=r"^point coordinates must be finite \(no nan or inf\)$"):
            close_pairs(pts, 0.5)

    def test_workload_patterns_match_tree_query(self):
        """Pair sets and order equal to cKDTree's on the patterns the
        estimators, Matérn thinning and the packer query."""
        window = unit_cube()
        cases = []
        for seed in range(3):
            plcpp = simulate_model(ModelSpec.plcpp(500.0, 200.0, 0.001), window, (20161, seed))
            matern = simulate_model(ModelSpec.matern(500.0, 0.05).compressed(0.7), window,
                                    (20161, seed))
            for pattern, a in ((plcpp, 3.0), (matern, 2.0)):
                pts = pattern.points[np.lexsort(pattern.points.T[::-1])]
                cases.append((pts, profile_extent(0.1, a), None))
            rng = replicate_rng((20161, seed))
            big = window.dilated(0.1)
            n = rng.poisson(matern_proposal_intensity(500.0, 0.05) * big.volume)
            cases.append((big.lo + rng.random((n, 3)) * big.sides, 0.05, None))
            pos = simulate_packing(ModelSpec.packing(500.0, 0.05), window,
                                   (20161, seed)).points
            start = replicate_rng((20161, seed)).random((500, 3))
            for reach in (0.08 * (1.0 + 1e-6) + 0.03, 0.1, 0.13):
                cases += [(pos, reach, window.sides), (start, reach, window.sides)]
        found = 0
        for pts, r, sides in cases:
            got = close_pairs(pts, r, sides)
            assert_same_pairs(got, tree_pairs(pts, r, sides))
            found += len(got[0])
        assert found > 50_000


class TestNonFiniteSizes:
    """A non-finite direction or element size is refused, not carried into a
    silent wrong answer."""

    @pytest.mark.parametrize("u", [[math.nan, 0.0, 0.0], [0.0, math.inf, 0.0]])
    def test_direction(self, u):
        with pytest.raises(ValueError, match="^direction must have unit norm, got"):
            as_direction(u)

    def test_direction_of_another_shape(self):
        # a unit 2-vector, whose norm alone would pass
        with pytest.raises(ValueError, match=r"^direction must be a 3-vector, got shape \(2,\)$"):
            as_direction([1.0, 0.0])

    @pytest.mark.parametrize("build, message", [
        (lambda: ConeParams(math.inf, 0.4), "cone slant height must be positive and finite"),
        (lambda: ConeParams(1.0, math.nan), "cone half angle must be in (0, pi/2], got nan"),
        (lambda: CylinderParams(math.inf, 1.0), "cylinder radius must be positive and finite"),
        (lambda: CylinderParams(1.0, math.inf),
         "cylinder half height must be positive and finite"),
        (lambda: equal_shape_link(math.inf, 2.0), "cylinder radius must be positive and finite"),
        (lambda: equal_volume_link(CylinderParams(1e200, 1e200), 1.0),
         "no finite slant height > 1.0 matches the cylinder volume"),
        (lambda: equal_volume_link(CylinderParams(1.0, 1.0), math.inf),
         "cone half height must be positive and finite"),
    ], ids=["cone inf", "cone angle nan", "cylinder radius inf", "cylinder height inf",
            "shape link inf", "volume link overflow", "volume link inf"])
    def test_element_sizes(self, build, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            build()
