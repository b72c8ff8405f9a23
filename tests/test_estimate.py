"""Tests for the directional K estimators against independent oracles."""

import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from aniso3d import estimate
from aniso3d.estimate import (
    KProfile,
    PatternPairs,
    _axial_radial,
    _grid_index,
    conical_k,
    cylindrical_k,
    default_r_grid,
    intensity_sq_hat,
    k_profile,
    pair_numerators,
    pattern_pairs,
    pooled_profile,
    profile_extent,
    replicate_numerators,
    translation_weight,
)
from aniso3d.geometry import (
    X_AXIS,
    Y_AXIS,
    Z_AXIS,
    ConeParams,
    CylinderParams,
    _cone_mask,
    _cylinder_mask,
    _norms,
    close_pairs,
    cone_contains,
    cylinder_contains,
    equal_shape_link,
)
from aniso3d.simulate import (
    BoxWindow,
    ModelSpec,
    PointPattern,
    simulate_model,
    simulate_poisson,
    unit_cube,
)

THETA_A2 = 0.4636476


def two_point_pattern():
    pts = np.array([[0.25, 0.25, 0.25], [0.25, 0.25, 0.75]])
    return PointPattern(pts, unit_cube())


def cube_of_side(side, unit_pattern):
    """``unit_pattern``'s points scaled into a cube of the given side."""
    return PointPattern(side * unit_pattern.points, BoxWindow(np.zeros(3), np.full(3, side)))


def brute_profile(pattern, u, kind, r_grid, a):
    """Direct O(n^2 * |grid|) estimate recomputing membership per (pair, r)."""
    rho2 = intensity_sq_hat(pattern)
    pts = pattern.points
    n = len(pts)
    values = []
    for r in r_grid:
        if r == 0.0:
            values.append(0.0)
            continue
        cyl, cone = equal_shape_link(float(r), a)
        total = 0.0
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                v = pts[j] - pts[i]
                if kind == "conical":
                    hit = cone_contains(cone, u, v)
                else:
                    hit = cylinder_contains(cyl, u, v)
                if hit:
                    total += translation_weight(pattern.window, v)
        values.append(total / rho2)
    return np.array(values)


class TestTranslationWeight:
    def test_zero_displacement(self):
        assert translation_weight(unit_cube(), [0.0, 0.0, 0.0]) == 1.0

    def test_half_side(self):
        assert translation_weight(unit_cube(), [0.5, 0.0, 0.0]) == pytest.approx(2.0)

    def test_all_axes(self):
        assert translation_weight(unit_cube(), [0.5, 0.5, 0.5]) == pytest.approx(8.0)

    def test_sign_invariance(self):
        w = unit_cube()
        assert translation_weight(w, [0.3, -0.2, 0.1]) == translation_weight(
            w, [-0.3, 0.2, -0.1]
        )

    def test_degenerate_overlap(self):
        with pytest.raises(ValueError, match="realizable"):
            translation_weight(unit_cube(), [1.0, 0.0, 0.0])


class TestIntensitySquared:
    def test_values(self):
        assert intensity_sq_hat(two_point_pattern()) == pytest.approx(2.0)
        big = BoxWindow(np.zeros(3), np.array([2.0, 1.0, 1.0]))
        pts = np.column_stack([np.linspace(0.1, 1.9, 10), [0.5] * 10, [0.5] * 10])
        assert intensity_sq_hat(PointPattern(pts, big)) == pytest.approx(22.5)

    def test_poisson_scale(self):
        p = simulate_poisson(500.0, unit_cube(), 3)
        assert intensity_sq_hat(p) == pytest.approx(p.n * (p.n - 1))

    def test_requires_two_points(self):
        with pytest.raises(ValueError, match="at least 2"):
            intensity_sq_hat(PointPattern(np.array([[0.5, 0.5, 0.5]]), unit_cube()))


class TestSingleElementEstimates:
    def test_conical_two_point_axial(self):
        from aniso3d.geometry import ConeParams

        k = conical_k(two_point_pattern(), Z_AXIS, ConeParams(0.6, THETA_A2))
        assert k == pytest.approx(2.0, rel=1e-12)

    def test_conical_two_point_orthogonal_axis(self):
        from aniso3d.geometry import ConeParams

        k = conical_k(two_point_pattern(), X_AXIS, ConeParams(0.6, THETA_A2))
        assert k == 0.0

    def test_cylindrical_two_point(self):
        from aniso3d.geometry import CylinderParams

        k = cylindrical_k(two_point_pattern(), Z_AXIS, CylinderParams(0.1, 0.6))
        assert k == pytest.approx(2.0, rel=1e-12)

    def test_cylindrical_axial_bound(self):
        from aniso3d.geometry import CylinderParams

        k = cylindrical_k(two_point_pattern(), X_AXIS, CylinderParams(0.1, 0.4))
        assert k == 0.0

    def test_range_error(self):
        from aniso3d.geometry import ConeParams

        with pytest.raises(ValueError, match="extent"):
            conical_k(two_point_pattern(), Z_AXIS, ConeParams(1.0, THETA_A2))

    @pytest.mark.parametrize("side", [1e-60, 1e120])
    @pytest.mark.parametrize("estimator", [
        lambda p, s: conical_k(p, Z_AXIS, ConeParams(0.1 * s, THETA_A2)),
        lambda p, s: cylindrical_k(p, Z_AXIS, CylinderParams(0.1 * s, 0.2 * s)),
        lambda p, s: k_profile(p, Z_AXIS, "cylindrical", [0.0, 0.1 * s], 2.0),
    ], ids=["conical_k", "cylindrical_k", "k_profile"])
    def test_refuses_window_out_of_float_scale_before_any_work(self, monkeypatch, side,
                                                              estimator):
        # at 1e-60 |W|^2 underflows to 0 (a ZeroDivisionError), at 1e120 |W|
        # overflows to inf (a K of 0, or NaN)
        pattern = cube_of_side(side, simulate_poisson(300.0, unit_cube(), 48))

        def unreachable(*args, **kwargs):
            raise AssertionError("pairs were extracted")

        monkeypatch.setattr("aniso3d.estimate._pair_keys", unreachable)
        with pytest.raises(ValueError) as info:
            estimator(pattern, side)
        assert str(info.value) == (
            f"window sides {pattern.window.sides} are out of scale: their products and the "
            "squared volume must stay in the normal float range [2.22507e-308, 1.79769e+308]")


class TestProfiles:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(20)
        grid = np.linspace(0.0, 0.12, 25)
        for trial in range(4):
            n = rng.integers(5, 31)
            pattern = PointPattern(rng.random((n, 3)), unit_cube())
            for kind in ("conical", "cylindrical"):
                for u in (X_AXIS, Y_AXIS, Z_AXIS):
                    fast = k_profile(pattern, u, kind, grid, 2.0)
                    slow = brute_profile(pattern, u, kind, grid, 2.0)
                    npt.assert_allclose(fast.values, slow, rtol=1e-12, atol=0.0)

    def test_grid_point_equals_single_estimate(self):
        pattern = simulate_poisson(300.0, unit_cube(), 21)
        grid = np.array([0.02, 0.05, 0.08])
        for kind, single in (("conical", conical_k), ("cylindrical", cylindrical_k)):
            prof = k_profile(pattern, Z_AXIS, kind, grid, 2.0)
            for i, r in enumerate(grid):
                cyl, cone = equal_shape_link(float(r), 2.0)
                direct = single(pattern, Z_AXIS, cone if kind == "conical" else cyl)
                assert prof.values[i] == pytest.approx(direct, rel=1e-12)

    def test_nondecreasing(self):
        pattern = simulate_poisson(400.0, unit_cube(), 22)
        grid = np.linspace(0.0, 0.1, 64)
        for kind in ("conical", "cylindrical"):
            prof = k_profile(pattern, Z_AXIS, kind, grid, 2.0)
            assert np.all(np.diff(prof.values) >= 0.0)
            assert prof.values[0] == 0.0

    def test_relabeling_leaves_values_unchanged(self):
        rng = np.random.default_rng(23)
        pattern = simulate_poisson(200.0, unit_cube(), 24)
        shuffled = PointPattern(rng.permutation(pattern.points, axis=0), unit_cube())
        grid = np.linspace(0.0, 0.08, 32)
        for kind in ("conical", "cylindrical"):
            a = k_profile(pattern, X_AXIS, kind, grid, 2.0)
            b = k_profile(shuffled, X_AXIS, kind, grid, 2.0)
            npt.assert_array_equal(a.values, b.values)

    def test_empty_grid(self):
        prof = k_profile(two_point_pattern(), Z_AXIS, "conical", [], 2.0)
        assert prof.values.size == 0

    def test_grid_range_error(self):
        with pytest.raises(ValueError, match="extent"):
            k_profile(two_point_pattern(), Z_AXIS, "conical", [0.1, 0.5], 2.0)

    @pytest.mark.parametrize("profile", [
        lambda grid: k_profile(two_point_pattern(), Z_AXIS, "conical", grid, 2.0),
        lambda grid: pooled_profile([two_point_pattern()] * 2, Z_AXIS, "cylindrical", grid, 2.0),
    ], ids=["k_profile", "pooled_profile"])
    def test_refuses_out_of_window_radius_before_any_work(self, monkeypatch, profile):
        def unreachable(*args, **kwargs):
            raise AssertionError("pairs were extracted")

        monkeypatch.setattr("aniso3d.estimate._pair_keys", unreachable)
        monkeypatch.setattr("aniso3d._parallel.parallel_map", unreachable)
        with pytest.raises(ValueError, match=r"^r_grid entry 0\.6 is out of range for this "
                           r"window: .* so choose r_grid entry < 0\.447213$"):
            profile([0.1, 0.6])

    @pytest.mark.parametrize("grid", [[np.nan], [np.nan, 0.1], [0.0, 0.05, np.nan, 0.1],
                                      [0.05, np.nan]])
    @pytest.mark.parametrize("profile", [
        lambda grid: k_profile(two_point_pattern(), Z_AXIS, "conical", grid, 2.0),
        lambda grid: pooled_profile([two_point_pattern()] * 2, Z_AXIS, "cylindrical", grid, 2.0),
        lambda grid: pair_numerators(pattern_pairs(two_point_pattern(), 0.6), [Z_AXIS],
                                     ["conical"], grid, [2.0]),
    ], ids=["k_profile", "pooled_profile", "pair_numerators"])
    def test_refuses_nan_in_grid(self, profile, grid):
        with pytest.raises(ValueError, match="^r_grid must be strictly ascending and nonnegative$"):
            profile(grid)

    def test_kind_validation(self):
        with pytest.raises(ValueError, match="kind"):
            k_profile(two_point_pattern(), Z_AXIS, "spherical", [0.1], 2.0)

    def test_default_grid_respects_window(self):
        grid = default_r_grid(unit_cube(), 2.0, n=128)
        assert len(grid) == 128 and grid[0] == 0.0
        assert grid[-1] == pytest.approx(0.45 / math.sqrt(5.0))


class TestPooling:
    def test_single_pattern_identity(self):
        pattern = simulate_poisson(300.0, unit_cube(), 25)
        grid = np.linspace(0.0, 0.08, 16)
        solo = k_profile(pattern, Y_AXIS, "cylindrical", grid, 2.0)
        pooled = pooled_profile([pattern], Y_AXIS, "cylindrical", grid, 2.0)
        npt.assert_array_equal(solo.values, pooled.values)

    def test_duplicated_pattern_identity(self):
        pattern = simulate_poisson(300.0, unit_cube(), 26)
        grid = np.linspace(0.0, 0.08, 16)
        solo = k_profile(pattern, Y_AXIS, "conical", grid, 2.0)
        pooled = pooled_profile([pattern, pattern], Y_AXIS, "conical", grid, 2.0)
        npt.assert_allclose(pooled.values, solo.values, rtol=1e-14)

    def test_window_mismatch(self):
        a = simulate_poisson(100.0, unit_cube(), 28)
        b = simulate_poisson(100.0, BoxWindow(np.zeros(3), 2 * np.ones(3)), 29)
        with pytest.raises(ValueError, match="window"):
            pooled_profile([a, b], Z_AXIS, "conical", [0.05], 2.0)

    def test_empty_input(self):
        with pytest.raises(ValueError, match="at least one"):
            pooled_profile([], Z_AXIS, "conical", [0.05], 2.0)

    def test_refuses_bad_kind_before_any_work(self, monkeypatch):
        pats = [simulate_poisson(100.0, unit_cube(), s) for s in (42, 43)]

        def unreachable(*args, **kwargs):
            raise AssertionError("pairs were extracted")

        monkeypatch.setattr("aniso3d.estimate._pair_keys", unreachable)
        with pytest.raises(ValueError, match=r"^kind must be one of .*, got 'diag'$"):
            pooled_profile(pats, Z_AXIS, "diag", [0.0, 0.05], 2.0)

    def test_sparse_replicates_add_nothing_to_ratio_of_sums(self):
        pats = [simulate_poisson(300.0, unit_cube(), s) for s in (40, 41)]
        sparse = [PointPattern(np.empty((0, 3)), unit_cube()),
                  PointPattern([[0.5, 0.5, 0.5]], unit_cube())]
        grid = np.linspace(0.0, 0.08, 16)
        for kind in ("conical", "cylindrical"):
            dense = pooled_profile(pats, Z_AXIS, kind, grid, 2.0)
            mixed = pooled_profile([sparse[0], *pats, sparse[1]], Z_AXIS, kind, grid, 2.0)
            npt.assert_array_equal(mixed.values, dense.values)

    @pytest.mark.parametrize("side", [1e-60, 1e120])
    def test_refuses_window_out_of_float_scale_before_any_work(self, monkeypatch, side):
        # at 1e-60 |W|^2 underflows to 0, at 1e120 |W| overflows to inf
        pats = [cube_of_side(side, simulate_poisson(300.0, unit_cube(), s)) for s in (44, 45)]

        def unreachable(*args, **kwargs):
            raise AssertionError("the pool started")

        monkeypatch.setattr("aniso3d._parallel.parallel_map", unreachable)
        monkeypatch.setattr("aniso3d.estimate._pair_keys", unreachable)
        with pytest.raises(ValueError) as info:
            pooled_profile(pats, Z_AXIS, "conical", [0.0, 0.1 * side], 2.0)
        assert str(info.value) == (
            f"window sides {pats[0].window.sides} are out of scale: their products and the "
            "squared volume must stay in the normal float range [2.22507e-308, 1.79769e+308]")

    def test_small_window_in_float_scale_scales_k_by_its_volume(self):
        # K scales with the cube of the side; 1e-30 is not a power of two, so
        # the scaled profile agrees to rounding, not bit for bit
        side = 1e-30
        pats = [simulate_poisson(300.0, unit_cube(), s) for s in (46, 47)]
        grid = np.linspace(0.0, 0.08, 16)
        for kind in ("conical", "cylindrical"):
            unit = pooled_profile(pats, Z_AXIS, kind, grid, 2.0).values
            small = pooled_profile([cube_of_side(side, p) for p in pats], Z_AXIS, kind,
                                   side * grid, 2.0).values
            assert np.all(np.isfinite(small)) and small[-1] > 0.0
            npt.assert_allclose(small, side ** 3 * unit, rtol=1e-12)

    def test_only_sparse_replicates_have_no_pairs(self):
        lone = PointPattern([[0.5, 0.5, 0.5]], unit_cube())
        with pytest.raises(ValueError, match="no point pairs"):
            pooled_profile([lone, lone], Z_AXIS, "conical", [0.05], 2.0)

    def test_direction_exchange_under_isotropy(self):
        pats = [simulate_poisson(500.0, unit_cube(), (30, i)) for i in range(150)]
        grid = np.array([0.06])
        vals = {}
        for u, nm in ((X_AXIS, "x"), (Y_AXIS, "y"), (Z_AXIS, "z")):
            vals[nm] = pooled_profile(pats, u, "cylindrical", grid, 2.0).values[0]
        for a in vals:
            for b in vals:
                assert abs(vals[a] - vals[b]) / vals[b] < 0.1

    def test_oblique_direction_calibrates(self):
        # the Poisson identity K = element volume holds for any axis
        diag = np.ones(3) / math.sqrt(3.0)
        pats = [simulate_poisson(500.0, unit_cube(), (32, i)) for i in range(60)]
        grid = np.array([0.06])
        value = pooled_profile(pats, diag, "conical", grid, 2.0).values[0]
        from aniso3d.geometry import cone_volume

        _, cone = equal_shape_link(0.06, 2.0)
        assert value == pytest.approx(cone_volume(cone), rel=0.1)

    def test_compression_signature(self):
        # squeezing z pulls the vertical neighbour shell inside the z elements
        # first (K_z above K_x just past the compressed exclusion), then the
        # stretched horizontal shell lifts K_x above K_z in the mid range
        from aniso3d.simulate import HardCoreSpec, compress, simulate_packing

        spec = HardCoreSpec(rho=500.0, r=0.05, kind="packing")
        pats = [
            compress(simulate_packing(spec, unit_cube(), (31, i)), 0.7)
            for i in range(40)
        ]
        grid = np.array([0.05, 0.09])
        kz = pooled_profile(pats, Z_AXIS, "cylindrical", grid, 2.0).values
        kx = pooled_profile(pats, X_AXIS, "cylindrical", grid, 2.0).values
        assert kz[0] > kx[0]
        assert kz[1] < kx[1]


class TestReplicateNumerators:
    def test_one_extraction_serves_every_cell(self):
        pattern = simulate_poisson(300.0, unit_cube(), 42)
        grid = np.linspace(0.0, 0.06, 12)
        aspects = [1.5, 3.0]
        axes = [X_AXIS, Y_AXIS, Z_AXIS]
        kinds = ["conical", "cylindrical"]
        num, mass = replicate_numerators(pattern, axes, kinds, grid, aspects)
        pairs = pattern_pairs(pattern, profile_extent(grid[-1], 3.0))
        npt.assert_array_equal(num, pair_numerators(pairs, axes, kinds, grid, aspects))
        assert mass == intensity_sq_hat(pattern)

    @pytest.mark.parametrize("budget", [1, 7, 64])
    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 60), lattice=st.booleans(),
           aspects=st.lists(st.one_of(st.sampled_from([1.5, 2.0, 3.0]), st.floats(1.01, 5.0)),
                            min_size=1, max_size=3),
           r_max=st.floats(0.01, 0.15), n_grid=st.integers(2, 30))
    def test_pair_slices_match_one_slice(self, budget, seed, n, lattice, aspects, r_max,
                                         n_grid):
        """Slices down to one pair each add up to the bits of one slice of
        all the pairs; lattice points give ties in every coordinate."""
        rng = np.random.default_rng(seed)
        if lattice:
            pts = np.unique(rng.integers(0, 6, (n, 3)), axis=0) / 6.0
        else:
            pts = rng.random((n, 3))
        pattern = PointPattern(pts, unit_cube())
        grid = np.linspace(0.0, r_max, n_grid)
        directions = [X_AXIS, Y_AXIS, Z_AXIS, np.array([0.6, 0.0, 0.8])]
        kinds = ["conical", "cylindrical"]
        pairs = pattern_pairs(pattern, profile_extent(r_max, max(aspects)))
        one = pair_numerators(pairs, directions, kinds, grid, aspects)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(estimate, "_PAIR_BUDGET", budget)
            sliced, _ = replicate_numerators(pattern, directions, kinds, grid, aspects)
        assert np.array_equal(sliced, one)

    def test_scratch_is_bounded_by_the_keys_and_one_slice(self):
        """numpy reports its buffers to tracemalloc.  The traced peak of one
        replicate of about 4000 points is at most the sum of
        - 16 B a pair: the 8-byte pair keys, held twice while the finder
          joins the keys of its candidate chunks;
        - 256 B (32 values of 8 B) for each pair of one slice: its index
          pair and rows (7 values) and the kernel's scratch for its one
          direction (below 25 values);
        - 1 KiB a point for the finder's per-point and per-range arrays;
        - 2 MiB for one candidate chunk, the grid and the result."""
        pattern = simulate_poisson(4000.0, unit_cube(), 7)
        grid = default_r_grid(unit_cube(), 2.0)
        pairs = len(close_pairs(pattern.points, profile_extent(grid[-1], 2.0))[0])
        bound = (16 * pairs + 256 * min(pairs, estimate._PAIR_BUDGET)
                 + 1024 * pattern.n + 2 * 2**20)
        tracemalloc.start()
        try:
            replicate_numerators(pattern, [Z_AXIS], ["conical", "cylindrical"], grid, [2.0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pairs > 10 * estimate._PAIR_BUDGET  # many slices
        assert peak <= bound

    def test_scratch_is_bounded_by_narrow_keys_and_one_slice(self):
        """The pattern of the probe above, against the bound of 4-byte keys.
        The finder's join and the slices never overlap, so the traced peak
        is at most the larger of the two phases, plus what both hold:
        - at the join, 8 B a pair: the 4-byte keys of the candidate chunks
          and their joined copy;
        - after it, 4 B a pair for the keys plus 192 B (24 values of 8 B)
          for each pair of one slice: the rows of the slice being formed and
          of the one before it, which the kernel's loop still holds (5 values
          each: displacement, norm, weight), the index pair and a gathered
          copy while a slice is formed (5 values) and the kernel's scratch
          for its one direction (below 9 values);
        - 1 KiB a point for the finder's per-point and per-range arrays;
        - 2 MiB for one candidate chunk, the grid and the result.
        With 8-byte keys, the join alone holds 16 B a pair."""
        pattern = simulate_poisson(4000.0, unit_cube(), 7)
        grid = default_r_grid(unit_cube(), 2.0)
        pairs = len(close_pairs(pattern.points, profile_extent(grid[-1], 2.0))[0])
        bound = (max(8 * pairs, 4 * pairs + 192 * min(pairs, estimate._PAIR_BUDGET))
                 + 1024 * pattern.n + 2 * 2**20)
        tracemalloc.start()
        try:
            replicate_numerators(pattern, [Z_AXIS], ["conical", "cylindrical"], grid, [2.0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pairs > 10 * estimate._PAIR_BUDGET  # many slices
        assert peak <= bound

    @pytest.mark.parametrize("points", [np.empty((0, 3)), [[0.5, 0.5, 0.5]]])
    def test_fewer_than_two_points_give_zero_mass(self, points):
        pattern = PointPattern(points, unit_cube())
        num, mass = replicate_numerators(pattern, [Z_AXIS], ["conical"], [0.0, 0.05], [2.0])
        assert mass == 0.0
        npt.assert_array_equal(num, np.zeros((1, 1, 1, 2)))


class TestKProfileType:
    def test_validation(self):
        with pytest.raises(ValueError, match="kind"):
            KProfile("spherical", Z_AXIS, np.array([0.1]), np.array([0.0]), 2.0)
        with pytest.raises(ValueError, match="length"):
            KProfile("conical", Z_AXIS, np.array([0.1]), np.array([0.0, 1.0]), 2.0)


# signed zeros, subnormals, ordinary values and magnitudes whose squares overflow
COMPONENTS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300]),
    st.floats(-1e-307, 1e-307, allow_subnormal=True),
    st.floats(-2.0, 2.0),
    st.floats(-1e308, 1e308),
)
DIRECTIONS = st.one_of(
    st.sampled_from([X_AXIS, Y_AXIS, Z_AXIS, -Z_AXIS]),
    arrays(np.float64, 3, elements=st.floats(-1.0, 1.0)).filter(
        lambda v: np.linalg.norm(v) > 0.1).map(lambda v: v / np.linalg.norm(v)),
)


def full_mask_numerators(pairs, directions, kinds, r_grid, aspects):
    """`pair_numerators` as a plain loop: every cell masks the full pair
    arrays and bins with ``searchsorted``."""
    out = np.empty((len(aspects), len(kinds), len(directions), len(r_grid)))
    for d, u in enumerate(directions):
        axial_abs, radial = _axial_radial(pairs, u)
        for i, a in enumerate(aspects):
            _, cone = equal_shape_link(1.0, a)
            for j, kind in enumerate(kinds):
                if kind == "conical":
                    keep = _cone_mask(pairs.norm, axial_abs, r_grid[-1] * cone.r_cn,
                                      cone.cos_theta)
                    idx = np.searchsorted(r_grid * cone.r_cn, pairs.norm[keep])
                else:
                    keep = _cylinder_mask(axial_abs, radial, r_grid[-1], a * r_grid[-1])
                    idx = np.maximum(np.searchsorted(a * r_grid, axial_abs[keep]),
                                     np.searchsorted(r_grid, radial[keep]))
                acc = np.bincount(idx, weights=2.0 * pairs.weight[keep],
                                  minlength=len(r_grid))
                out[i, j, d] = np.cumsum(acc)
    return out


class TestFusedKernel:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(vec=arrays(np.float64, st.tuples(st.integers(1, 12), st.just(3)),
                      elements=COMPONENTS),
           u=DIRECTIONS)
    def test_axial_radial_matches_geometry_bits(self, vec, u):
        # the component-major offsets give the bits of the row-major
        # formula that cylinder_contains uses, for every direction
        with np.errstate(over="ignore", invalid="ignore"):
            pairs = PatternPairs(vec, _norms(vec), np.ones(len(vec)))
            axial_abs, radial = _axial_radial(pairs, u)
            axial = vec @ u
            expected = _norms(vec - np.multiply.outer(axial, u))
        assert axial_abs.tobytes() == np.abs(axial).tobytes()
        assert radial.tobytes() == expected.tobytes()

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1),
           aspects=st.lists(st.one_of(st.sampled_from([1.0000001, 1.5, 2.0, 3.0, 20.0]),
                                      st.floats(1.01, 20.0)), min_size=1, max_size=5),
           kinds=st.sampled_from([("conical",), ("cylindrical",), ("conical", "cylindrical"),
                                  ("cylindrical", "conical")]),
           more=st.lists(DIRECTIONS, max_size=2),
           r_max=st.floats(0.01, 0.3), n_grid=st.integers(2, 40))
    def test_matches_full_mask_reference_bits(self, seed, aspects, kinds, more, r_max,
                                              n_grid):
        # unsorted and repeated aspects; random pairs plus pairs on and just
        # past every element's boundary along z, where the union must keep
        # exactly the pairs of each cell
        links = [equal_shape_link(1.0, a)[1] for a in aspects]
        rng = np.random.default_rng(seed)
        reach = 1.1 * r_max * max(c.r_cn for c in links)
        rows = [rng.uniform(-reach, reach, (300, 3))]
        for a, cone in zip(aspects, links):
            h, slant = a * r_max, r_max * cone.r_cn
            rows.append([[r_max, 0.0, h], [0.0, 0.0, slant]])
            # on the cone's mantle, kept where axial == cos_theta * norm in floats
            norm = slant * np.linspace(0.05, 1.0, 20)
            z = cone.cos_theta * norm
            vec = np.column_stack([np.sqrt(np.maximum(norm * norm - z * z, 0.0)), 0.0 * z, z])
            rows.append(vec[cone.cos_theta * _norms(vec) == z])
        vec = np.concatenate(rows)
        vec = np.concatenate([vec, np.nextafter(vec, 2.0 * np.sign(vec))])
        pairs = PatternPairs(vec, _norms(vec), rng.uniform(0.5, 2.0, len(vec)))
        grid = np.linspace(0.0, r_max, n_grid)
        directions = [Z_AXIS] + more
        got = pair_numerators(pairs, directions, kinds, grid, aspects)
        want = full_mask_numerators(pairs, directions, kinds, grid, aspects)
        assert got.tobytes() == want.tobytes()

    def test_one_call_matches_single_profiles(self):
        # pairs extracted once at the largest aspect's extent; every aspect,
        # kind and direction reproduces its own k_profile bit for bit
        pattern = simulate_model(ModelSpec.plcpp(400.0, 150.0, 0.01), unit_cube(), 41)
        grid = np.linspace(0.0, 0.09, 40)
        aspects = [1.5, 3.0, 2.0]
        directions = [X_AXIS, Y_AXIS, Z_AXIS, np.array([0.6, 0.0, 0.8])]
        kinds = ["cylindrical", "conical"]
        pairs = pattern_pairs(pattern, profile_extent(grid[-1], max(aspects)))
        fused = pair_numerators(pairs, directions, kinds, grid, aspects)
        assert fused.shape == (3, 2, 4, 40)
        rho2 = intensity_sq_hat(pattern)
        for i, a in enumerate(aspects):
            for j, kind in enumerate(kinds):
                for d, u in enumerate(directions):
                    single = k_profile(pattern, u, kind, grid, a).values
                    assert (fused[i, j, d] / rho2).tobytes() == single.tobytes()


@st.composite
def index_grids(draw):
    """Ascending grids as the kernel builds them, plus uneven ones."""
    n = draw(st.one_of(st.sampled_from([0, 1, 2]), st.integers(3, 70)))
    lo = draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0)))
    top = draw(st.floats(1e-6, 10.0))
    a = draw(st.floats(1.0, 4.0))
    shape = draw(st.sampled_from(["plain", "aspect", "slant", "uneven"]))
    base = np.linspace(lo, lo + top, n)
    if shape == "plain":
        return base
    if shape == "aspect":
        return a * base
    if shape == "slant":
        return base * math.sqrt(a * a + 1.0)
    cuts = draw(arrays(np.float64, n, elements=st.floats(0.0, 1.0), unique=True))
    return lo + top * np.sort(cuts)


class TestGridIndex:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(grid=index_grids(),
           extra=arrays(np.float64, st.integers(0, 20),
                        elements=st.one_of(st.floats(-20.0, 40.0),
                                           st.sampled_from([np.inf, -np.inf, np.nan]))))
    def test_matches_searchsorted(self, grid, extra):
        # every knot and both of its neighbours, 0, values past the top, and
        # an empty query on its own
        top = grid[-1] if grid.size else 1.0
        x = np.concatenate([grid, np.nextafter(grid, -np.inf), np.nextafter(grid, np.inf),
                            [0.0, top * 1.5, top + 1.0], extra])
        for query in (x, x[:0]):
            expected = np.searchsorted(grid, query, side="left")
            got = _grid_index(grid, query)
            assert got.dtype == expected.dtype
            npt.assert_array_equal(got, expected)


class TestEstimatorProperties:
    GRID = np.linspace(0.0, 0.1, 33)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), shuffle=st.integers(0, 2**32 - 1))
    def test_permuting_points_keeps_k_bits(self, seed, shuffle):
        pattern = simulate_model(ModelSpec.plcpp(300.0, 100.0, 0.02), unit_cube(), seed)
        order = np.random.default_rng(shuffle).permutation(pattern.n)
        permuted = PointPattern(pattern.points[order], pattern.window)
        for kind in ("conical", "cylindrical"):
            for u in (X_AXIS, Y_AXIS, Z_AXIS):
                a = k_profile(pattern, u, kind, self.GRID, 2.0).values
                b = k_profile(permuted, u, kind, self.GRID, 2.0).values
                assert a.tobytes() == b.tobytes()

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), a=st.floats(1.2, 3.0))
    def test_swapping_x_and_y_exchanges_k_x_and_k_y(self, seed, a):
        # equal to rounding only: the swap changes the lexicographic point
        # order and with it the order in which edge weights are summed
        lo, hi = np.zeros(3), np.array([1.0, 0.8, 1.25])
        pattern = simulate_model(ModelSpec.poisson(400.0), BoxWindow(lo, hi), seed)
        swap = [1, 0, 2]
        swapped = PointPattern(pattern.points[:, swap], BoxWindow(lo[swap], hi[swap]))
        grid = np.linspace(0.0, 0.2 / a, 24)
        for kind in ("conical", "cylindrical"):
            for u, v in ((X_AXIS, Y_AXIS), (Y_AXIS, X_AXIS), (Z_AXIS, Z_AXIS)):
                npt.assert_allclose(k_profile(swapped, u, kind, grid, a).values,
                                    k_profile(pattern, v, kind, grid, a).values,
                                    rtol=1e-12, atol=0.0)

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        a=st.floats(1.05, 4.0),
        u=arrays(np.float64, 3, elements=st.floats(-1.0, 1.0)).filter(
            lambda v: np.linalg.norm(v) > 0.1),
        n_grid=st.integers(2, 80),
    )
    def test_k_is_nondecreasing_in_r(self, seed, a, u, n_grid):
        pattern = simulate_model(ModelSpec.poisson(300.0), unit_cube(), seed)
        u = u / np.linalg.norm(u)
        grid = np.linspace(0.0, 0.4 / math.sqrt(a * a + 1.0), n_grid)
        for kind in ("conical", "cylindrical"):
            values = k_profile(pattern, u, kind, grid, a).values
            assert values[0] >= 0.0 and np.all(np.diff(values) >= 0.0)

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1),
           shift=arrays(np.int64, 3, elements=st.integers(-2**12, 2**12)),
           u=DIRECTIONS)
    def test_translating_pattern_and_window_keeps_k_bits(self, seed, shift, u):
        # coordinates on a 2^-20 lattice and shifts in steps of 2^-8 are
        # exact, so every displacement, edge weight and volume is the same
        pattern = simulate_model(ModelSpec.plcpp(300.0, 100.0, 0.02), unit_cube(), seed)
        points = np.unique(np.round(pattern.points * 2.0**20) / 2.0**20, axis=0)
        t = shift / 2.0**8
        window = unit_cube()
        moved = PointPattern(points + t, BoxWindow(window.lo + t, window.hi + t))
        lattice = PointPattern(points, window)
        for kind in ("conical", "cylindrical"):
            a = k_profile(lattice, u, kind, self.GRID, 2.0).values
            b = k_profile(moved, u, kind, self.GRID, 2.0).values
            assert a.tobytes() == b.tobytes()

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(v=arrays(np.float64, st.tuples(st.integers(1, 12), st.just(3)),
                    elements=st.floats(-2.0, 2.0)),
           u=DIRECTIONS, r=st.floats(0.01, 2.0), a=st.floats(1.05, 4.0))
    def test_reflecting_a_displacement_keeps_membership(self, v, u, r, a):
        cone = ConeParams(r * math.sqrt(a * a + 1.0), math.atan2(1.0, a))
        cyl = CylinderParams(r, a * r)
        npt.assert_array_equal(cone_contains(cone, u, -v), cone_contains(cone, u, v))
        npt.assert_array_equal(cylinder_contains(cyl, u, -v), cylinder_contains(cyl, u, v))

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), u=DIRECTIONS)
    def test_point_reflection_keeps_k(self, seed, u):
        # equal to rounding only: reflection reverses the lexicographic point
        # order and with it the order in which edge weights are summed
        lo, hi = np.zeros(3), np.array([1.0, 0.8, 1.25])
        pattern = simulate_model(ModelSpec.plcpp(300.0, 100.0, 0.02), BoxWindow(lo, hi), seed)
        reflected = PointPattern(-pattern.points, BoxWindow(-hi, -lo))
        for kind in ("conical", "cylindrical"):
            npt.assert_allclose(k_profile(reflected, u, kind, self.GRID, 2.0).values,
                                k_profile(pattern, u, kind, self.GRID, 2.0).values,
                                rtol=1e-12, atol=0.0)
