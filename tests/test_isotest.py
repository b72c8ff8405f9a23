"""Tests for the isotropy test statistics, decision rule, and power sweep."""

import re

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aniso3d.estimate import KProfile, pooled_profile
from aniso3d.geometry import X_AXIS, Y_AXIS, Z_AXIS
from aniso3d.isotest import (
    IsotropyTestResult,
    TestConfig,
    _nearest_rank_quantile,
    _statistics,
    _sweep,
    check_sweep,
    power_curve_from_patterns,
    run_test,
    t_xy,
    t_z,
)
from aniso3d.patternio import write_pattern
from aniso3d.simulate import (
    BoxWindow,
    ModelSpec,
    PointPattern,
    simulate_campaign,
    unit_cube,
)

GRID = np.linspace(0.0, 0.1, 21)


def triple(vx, vy, vz, grid=GRID, kind="cylindrical"):
    return (
        KProfile(kind, X_AXIS, grid, np.asarray(vx, dtype=float), 2.0),
        KProfile(kind, Y_AXIS, grid, np.asarray(vy, dtype=float), 2.0),
        KProfile(kind, Z_AXIS, grid, np.asarray(vz, dtype=float), 2.0),
    )


def cfg(r2=0.1, **kw):
    return TestConfig(kind="cylindrical", a=2.0, r2=r2, **kw)


class TestStatistics:
    def test_equal_profiles_give_zero(self):
        profiles = triple(GRID, GRID, GRID)
        assert t_xy(profiles, cfg()) == 0.0

    def test_constant_unit_difference(self):
        profiles = triple(GRID, GRID + 1.0, GRID)
        assert t_xy(profiles, cfg()) == pytest.approx(0.1, rel=1e-14)

    def test_t_z_picks_zero_branch(self):
        profiles = triple(GRID, GRID + 3.0, GRID)  # S_z == S_x != S_y
        assert t_z(profiles, cfg()) == 0.0

    def test_t_z_constant_offset(self):
        profiles = triple(GRID, GRID, GRID + 1.0)
        assert t_z(profiles, cfg()) == pytest.approx(0.1, rel=1e-14)

    def test_t_z_symmetric_in_xy(self):
        rng = np.random.default_rng(31)
        vx, vy, vz = rng.random((3, len(GRID)))
        a = t_z(triple(vx, vy, vz), cfg())
        b = t_z(triple(vy, vx, vz), cfg())
        assert a == b

    def test_partial_interval(self):
        # |S_x - S_y| = r on [0, 0.1]; integral over [0, 0.05] = 0.05^2 / 2
        profiles = triple(2.0 * GRID, GRID, GRID)
        c = cfg(r2=0.05)
        assert t_xy(profiles, c) == pytest.approx(0.00125, rel=1e-12)

    def test_refined_grid_oracle(self):
        rng = np.random.default_rng(32)
        vx, vy, _ = rng.random((3, len(GRID)))
        value = t_xy(triple(vx, vy, vx), cfg(r2=0.087))
        # refine the piecewise-linear integrand tenfold and re-integrate
        fine = np.linspace(GRID[0], GRID[-1], 10 * (len(GRID) - 1) + 1)
        integrand = np.interp(fine, GRID, np.abs(vx - vy))
        inside = fine <= 0.087
        xs = np.concatenate([fine[inside], [0.087]])
        ys = np.concatenate([integrand[inside], [np.interp(0.087, GRID, np.abs(vx - vy))]])
        oracle = np.trapezoid(ys, xs)
        assert value == pytest.approx(oracle, abs=1e-10)

    def test_grid_coverage_error(self):
        profiles = triple(GRID, GRID, GRID)
        with pytest.raises(ValueError, match="exceeds"):
            t_xy(profiles, cfg(r2=0.2))

    def test_profile_grid_mismatch(self):
        px, py, pz = triple(GRID, GRID, GRID)
        other = KProfile("cylindrical", Y_AXIS, GRID * 2.0, GRID, 2.0)
        with pytest.raises(ValueError, match="share"):
            t_xy((px, other, pz), cfg())

    def test_monotone_evidence(self):
        rng = np.random.default_rng(33)
        vx, vy = rng.random((2, len(GRID)))
        base = (vx + vy) / 2.0
        previous = -1.0
        for factor in (1.0, 1.5, 2.0, 4.0):
            vz = base + factor * 0.3
            value = t_z(triple(vx, vy, vz), cfg())
            assert value >= previous
            previous = value


class TestConfigValidation:
    def test_bounds(self):
        with pytest.raises(ValueError, match="r1"):
            TestConfig(kind="conical", a=2.0, r2=0.05, r1=0.05)
        with pytest.raises(ValueError, match="alpha"):
            TestConfig(kind="conical", a=2.0, r2=0.05, alpha_level=1.5)
        with pytest.raises(ValueError, match="grid"):
            TestConfig(kind="conical", a=2.0, r2=0.05, grid_points=1)
        with pytest.raises(ValueError, match="kind"):
            TestConfig(kind="ball", a=2.0, r2=0.05)

    @pytest.mark.parametrize("points", [2.5, 64.0, "64"])
    def test_refuses_non_integral_grid_points(self, points):
        with pytest.raises(ValueError, match="whole number of at least 2 grid points"):
            TestConfig(kind="conical", a=2.0, r2=0.05, grid_points=points)

    def test_accepts_numpy_integer_grid_points(self):
        c = TestConfig(kind="conical", a=2.0, r2=0.05, grid_points=np.int64(64))
        assert c.grid_points == 64


class TestRunTest:
    def test_requires_replicates(self):
        pats = simulate_campaign(ModelSpec.poisson(100.0), unit_cube(), 1, seed=1)
        with pytest.raises(ValueError, match="replicates"):
            run_test(pats, cfg(r2=0.06))

    def test_result_shape_and_power(self):
        pats = simulate_campaign(ModelSpec.poisson(300.0), unit_cube(), 20, seed=2)
        res = run_test(pats, cfg(r2=0.06))
        assert isinstance(res, IsotropyTestResult)
        assert len(res.t_xy) == len(res.t_z) == len(res.rejections) == 20
        assert res.power == pytest.approx(res.rejections.mean())
        assert res.threshold in res.t_xy  # nearest-rank picks a sample value

    def test_deterministic(self):
        pats = simulate_campaign(ModelSpec.poisson(300.0), unit_cube(), 10, seed=3)
        a = run_test(pats, cfg(r2=0.06))
        b = run_test(pats, cfg(r2=0.06))
        npt.assert_array_equal(a.t_xy, b.t_xy)
        npt.assert_array_equal(a.t_z, b.t_z)
        assert a.power == b.power

    def test_two_replicates_below_max_never_reject(self):
        pats = simulate_campaign(ModelSpec.poisson(300.0), unit_cube(), 2, seed=4)
        res = run_test(pats, cfg(r2=0.06))
        # threshold is max(T_xy); rejection needs strict exceedance
        assert res.threshold == res.t_xy.max()
        if np.all(res.t_z <= res.threshold):
            assert res.power == 0.0

    def test_rejects_mixed_window_shapes(self):
        pats = simulate_campaign(ModelSpec.poisson(300.0), unit_cube(), 4, seed=12)
        big = BoxWindow(np.zeros(3), np.full(3, 2.0))
        pats.append(PointPattern(2.0 * pats[0].points, big))
        with pytest.raises(ValueError, match="window shape"):
            run_test(pats, cfg(r2=0.06))
        with pytest.raises(ValueError, match="window shape"):
            power_curve_from_patterns(pats, cfg(), [0.06])

    def test_rejects_underfilled_replicates_by_index(self):
        pats = simulate_campaign(ModelSpec.poisson(300.0), unit_cube(), 5, seed=13)
        pats[1] = PointPattern(np.empty((0, 3)), unit_cube())
        pats[3] = PointPattern(np.full((1, 3), 0.5), unit_cube())
        with pytest.raises(ValueError, match=r"replicates \[1, 3\] have fewer than 2"):
            run_test(pats, cfg(r2=0.06))
        with pytest.raises(ValueError, match=r"replicates \[1, 3\] have fewer than 2"):
            power_curve_from_patterns(pats, cfg(), [0.06])

    def test_refuses_out_of_window_r2_before_any_work(self, monkeypatch):
        pats = simulate_campaign(ModelSpec.poisson(100.0), unit_cube(), 3, seed=15)

        def unreachable(*args, **kwargs):
            raise AssertionError("the sweep started")

        monkeypatch.setattr("aniso3d.isotest.parallel_map", unreachable)
        monkeypatch.setattr("aniso3d.estimate._pair_keys", unreachable)
        with pytest.raises(ValueError, match=r"^r2 0\.6 is out of range for this window: "
                           r".* so choose r2 < 0\.447213$"):
            run_test(pats, cfg(r2=0.6))
        with pytest.raises(ValueError, match=r"choose r2 < 0\.447213$"):
            power_curve_from_patterns(pats, cfg(), [0.05, 0.6], threads=2)
        # every aspect is checked, not only the configured one
        with pytest.raises(ValueError, match=r"choose r2 < 0\.316227$"):
            power_curve_from_patterns(pats, cfg(), [0.4], threads=2, aspects=[2.0, 3.0])

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("side", [1e-60, 1e120])
    def test_refuses_window_out_of_float_scale_before_any_work(self, monkeypatch, side,
                                                              threads):
        window = BoxWindow(np.zeros(3), np.full(3, side))
        pats = [PointPattern(side * p.points, window)
                for p in simulate_campaign(ModelSpec.poisson(300.0), unit_cube(), 2, seed=17)]

        def unreachable(*args, **kwargs):
            raise AssertionError("the sweep started")

        monkeypatch.setattr("aniso3d.isotest.parallel_map", unreachable)
        monkeypatch.setattr("aniso3d.estimate._pair_keys", unreachable)
        message = (f"^window sides {re.escape(str(window.sides))} are out of scale: their "
                   r"products and the squared volume must stay in the normal float range")
        with pytest.raises(ValueError, match=message):
            run_test(pats, cfg(r2=0.1 * side), threads=threads)
        with pytest.raises(ValueError, match=message):
            power_curve_from_patterns(pats, cfg(r2=0.1 * side), [0.05 * side, 0.1 * side],
                                      threads=threads)

    @pytest.mark.parametrize("kinds, message", [
        ((), r"^need at least one kind$"),
        (("conical", "diag"), r"^kind must be one of \('conical', 'cylindrical'\), got 'diag'$"),
        ("conical", r"^kinds must be a list of kinds, got the string 'conical'$"),
    ], ids=["empty", "unknown", "bare string"])
    def test_refuses_bad_kinds_before_any_work(self, monkeypatch, kinds, message):
        pats = simulate_campaign(ModelSpec.poisson(100.0), unit_cube(), 3, seed=15)

        def unreachable(*args, **kwargs):
            raise AssertionError("the sweep started")

        monkeypatch.setattr("aniso3d.isotest.parallel_map", unreachable)
        monkeypatch.setattr("aniso3d.estimate._pair_keys", unreachable)
        with pytest.raises(ValueError, match=message):
            power_curve_from_patterns(pats, cfg(), [0.05], kinds=kinds, threads=2)

    @pytest.mark.parametrize("entry", [
        lambda pats: KProfile("diag", Z_AXIS, GRID, np.zeros(len(GRID)), 2.0),
        lambda pats: TestConfig(kind="diag", a=2.0, r2=0.05),
        lambda pats: pooled_profile(pats, Z_AXIS, "diag", GRID, 2.0),
        lambda pats: check_sweep(unit_cube(), 3, cfg(), [0.05], ("diag",), [2.0], "r2"),
    ], ids=["KProfile", "TestConfig", "pooled_profile", "check_sweep"])
    def test_every_entry_states_the_one_kind_rule(self, entry):
        pats = simulate_campaign(ModelSpec.poisson(100.0), unit_cube(), 3, seed=15)
        with pytest.raises(ValueError) as info:
            entry(pats)
        assert str(info.value) == "kind must be one of ('conical', 'cylindrical'), got 'diag'"

    def test_refuses_aspect_whose_square_overflows(self):
        pats = simulate_campaign(ModelSpec.poisson(100.0), unit_cube(), 2, seed=16)
        with pytest.raises(ValueError,
                           match=r"^aspect ratio 1e\+200 is too large: a\^2 overflows$"):
            run_test(pats, TestConfig(kind="conical", a=1e200, r2=0.01))

    def test_columnar_alternative_rejects(self):
        model = ModelSpec.plcpp(500.0, 200.0, 0.001)
        pats = simulate_campaign(model, unit_cube(), 30, seed=6)
        res = run_test(pats, TestConfig(kind="cylindrical", a=2.0, r2=0.01))
        assert res.power > 0.9


class TestPowerCurve:
    def test_matches_run_test_at_single_bound(self):
        pats = simulate_campaign(ModelSpec.poisson(400.0), unit_cube(), 25, seed=7)
        rows = power_curve_from_patterns(pats, cfg(r2=0.06), [0.06])
        for column, kind in ((1, "conical"), (2, "cylindrical")):
            res = run_test(pats, TestConfig(kind=kind, a=2.0, r2=0.06))
            assert rows[0][column] == res.power

    def test_pinned_power_table(self):
        # fixed-seed powers: a change to the profiles, the integration rule
        # or the decision shows up here
        pats = simulate_campaign(ModelSpec.plcpp(300.0, 100.0, 0.02), unit_cube(), 20, seed=21)
        bounds = [0.01, 0.02, 0.04, 0.07, 0.1]
        rows = power_curve_from_patterns(pats, cfg(r2=0.1), bounds)
        assert rows == [
            (0.01, 0.1, 0.15), (0.02, 0.3, 0.2), (0.04, 0.65, 0.25),
            (0.07, 1.0, 0.9), (0.1, 1.0, 0.9),
        ]
        rows = power_curve_from_patterns(pats, cfg(r2=0.1, r1=0.005), bounds)
        assert rows == [
            (0.01, 0.1, 0.25), (0.02, 0.3, 0.2), (0.04, 0.65, 0.25),
            (0.07, 1.0, 0.9), (0.1, 1.0, 0.9),
        ]

    def test_aspect_sweep_equals_single_aspect_sweeps(self):
        # one pair extraction at the largest aspect serves the smaller ones
        pats = simulate_campaign(ModelSpec.plcpp(300.0, 100.0, 0.02), unit_cube(), 20, seed=21)
        bounds = [0.01, 0.03, 0.06]
        for base in (cfg(r2=0.06), cfg(r2=0.06, r1=0.005)):
            rows = power_curve_from_patterns(pats, base, bounds, aspects=[1.5, 3, 2])
            singles = []
            for a in (1.5, 3.0, 2.0):
                singles += power_curve_from_patterns(
                    pats, TestConfig(kind="conical", a=a, r2=0.06, r1=base.r1), bounds)
            assert rows == singles

    @pytest.mark.parametrize("threads", [1, 2])
    def test_sources_give_the_rows_of_their_patterns(self, tmp_path, threads):
        # a campaign key is simulated and a path read in the job that reduces it
        model, window = ModelSpec.plcpp(300.0, 100.0, 0.02), unit_cube()
        pats = simulate_campaign(model, window, 6, seed=23)
        paths = [tmp_path / f"p{i}.txt" for i in range(len(pats))]
        for path, pattern in zip(paths, pats):
            write_pattern(path, pattern)
        keys = [(model, window, 23, i) for i in range(len(pats))]
        want = power_curve_from_patterns(pats, cfg(r2=0.06), [0.02, 0.06])
        for sources in (keys, paths, [pats[0]] + paths[1:]):
            assert power_curve_from_patterns(sources, cfg(r2=0.06), [0.02, 0.06],
                                             threads=threads) == want
        res, want = run_test(keys, cfg(r2=0.06), threads=threads), run_test(pats, cfg(r2=0.06))
        npt.assert_array_equal(res.t_z, want.t_z)

    def test_pinned_aspect_sweep_table(self):
        # fixed-seed powers per (aspect, bound), aspect-major
        pats = simulate_campaign(ModelSpec.plcpp(300.0, 100.0, 0.02), unit_cube(), 20, seed=21)
        bounds = [0.01, 0.03, 0.06]
        rows = power_curve_from_patterns(pats, cfg(r2=0.06), bounds, aspects=[1.5, 3, 2])
        assert rows == [
            (0.01, 0.05, 0.05), (0.03, 0.1, 0.05), (0.06, 0.7, 0.4),
            (0.01, 0.15, 0.25), (0.03, 0.6, 0.4), (0.06, 1.0, 1.0),
            (0.01, 0.1, 0.15), (0.03, 0.5, 0.15), (0.06, 0.9, 0.85),
        ]
        rows = power_curve_from_patterns(pats, cfg(r2=0.06, r1=0.005), bounds,
                                         aspects=[1.5, 3, 2])
        assert rows == [
            (0.01, 0.05, 0.05), (0.03, 0.1, 0.05), (0.06, 0.7, 0.4),
            (0.01, 0.25, 0.2), (0.03, 0.6, 0.4), (0.06, 1.0, 1.0),
            (0.01, 0.1, 0.25), (0.03, 0.45, 0.15), (0.06, 0.9, 0.85),
        ]

    def test_rejects_bad_aspect_lists(self):
        pats = simulate_campaign(ModelSpec.poisson(200.0), unit_cube(), 5, seed=14)
        with pytest.raises(ValueError, match="at least one aspect"):
            power_curve_from_patterns(pats, cfg(), [0.05], aspects=[])
        with pytest.raises(ValueError, match="aspect ratio must exceed 1"):
            power_curve_from_patterns(pats, cfg(), [0.05], aspects=[2.0, 1.0])
        with pytest.raises(ValueError, match="configured aspect ratio 2.0 is not among"):
            power_curve_from_patterns(pats, cfg(), [0.05], aspects=[1.5, 3.0])
        # a bare string is not swept character by character, nor a scalar refused late
        with pytest.raises(ValueError,
                           match=r"^aspects must be a list of aspect ratios, got '25'$"):
            power_curve_from_patterns(pats, cfg(), [0.05], aspects="25")
        with pytest.raises(ValueError,
                           match=r"^aspects must be a list of aspect ratios, got 2\.0$"):
            power_curve_from_patterns(pats, cfg(), [0.05], aspects=2.0)
        # nor is an entry that is not a number
        with pytest.raises(ValueError,
                           match=r"^aspects must be a list of aspect ratios, got \[\[2\.0\]\]$"):
            power_curve_from_patterns(pats, cfg(), [0.05], aspects=[[2.0]])
        with pytest.raises(ValueError,
                           match=r"^aspects must be a list of aspect ratios, got \[2\.0, 'a'\]$"):
            power_curve_from_patterns(pats, cfg(), [0.05], aspects=[2.0, "a"])

    def test_deterministic_campaign(self):
        model = ModelSpec.plcpp(500.0, 200.0, 0.01)
        c = TestConfig(kind="conical", a=2.0, r2=0.05)
        one = power_curve_from_patterns(simulate_campaign(model, unit_cube(), 12, 8), c,
                                        [0.02, 0.05])
        two = power_curve_from_patterns(simulate_campaign(model, unit_cube(), 12, 8), c,
                                        [0.02, 0.05])
        assert one == two

    def test_poisson_curve_stays_near_level(self):
        rows = power_curve_from_patterns(
            simulate_campaign(ModelSpec.poisson(500.0), unit_cube(), 100, 9),
            cfg(r2=0.1), [0.04, 0.06, 0.08, 0.1],
        )
        for _, p_cn, p_cl in rows:
            assert p_cn <= 0.1 and p_cl <= 0.1

    def test_requires_ascending_bounds(self):
        pats = simulate_campaign(ModelSpec.poisson(200.0), unit_cube(), 5, seed=10)
        with pytest.raises(ValueError, match="ascending"):
            power_curve_from_patterns(pats, cfg(), [0.05, 0.05])

    @pytest.mark.parametrize("bounds", [[0.05, np.nan, 0.1], [0.05, 0.1, np.nan]])
    def test_refuses_nan_bound(self, bounds):
        pats = simulate_campaign(ModelSpec.poisson(200.0), unit_cube(), 3, seed=10)
        with pytest.raises(ValueError, match="^r2_grid must be nonempty and strictly ascending$"):
            power_curve_from_patterns(pats, TestConfig("conical", 2.0, 0.1), bounds)

    def test_kind_restriction_gives_nan(self):
        pats = simulate_campaign(ModelSpec.poisson(200.0), unit_cube(), 5, seed=11)
        rows = power_curve_from_patterns(pats, cfg(r2=0.06), [0.06], kinds=("cylindrical",))
        assert np.isnan(rows[0][1]) and not np.isnan(rows[0][2])


def trapezoid_oracle(r_grid, y, r1, r2):
    """`np.trapezoid` of ``y``'s interpolant over the knots r1, the grid knots
    strictly inside (r1, r2), and r2."""
    knots = np.concatenate([[r1], r_grid[(r_grid > r1) & (r_grid < r2)], [r2]])
    return np.trapezoid(np.interp(knots, r_grid, y), knots)


@st.composite
def profiles_and_bounds(draw):
    """x, y and z profiles on an even or uneven grid of 2-700 points, r1 at
    the grid's start, on a knot or between knots, and ascending bounds above
    it, some on knots and the last one possibly at the grid's end."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.one_of(st.sampled_from([2, 3]), st.integers(4, 700)))
    top = draw(st.floats(1e-3, 10.0))
    if draw(st.booleans()):
        grid = np.linspace(0.0, top, n)
    else:
        grid = top * np.concatenate([[0.0], np.cumsum(rng.uniform(0.01, 1.0, n - 1))])
    profiles = np.cumsum(rng.uniform(0.0, 1.0, (3, n)), axis=1)
    r1 = draw(st.sampled_from([grid[0], grid[rng.integers(n - 1)],
                               rng.uniform(grid[0], grid[-1])]))
    above = grid[grid > r1]
    candidates = np.concatenate([rng.uniform(r1, grid[-1], 4), rng.choice(above, 2),
                                 [grid[-1]]])
    bounds = np.unique(candidates[candidates > r1])
    return profiles, grid, float(r1), bounds.tolist()


# config, bounds, kinds and aspects of the invariance properties' sweeps
SWEEP = (TestConfig(kind="conical", a=2.0, r2=0.1, r1=0.005, grid_points=64),
         [0.02, 0.05, 0.1], ("conical", "cylindrical"), [1.5, 2.0])


@pytest.fixture(scope="module")
def permutation_reference():
    pats = simulate_campaign(ModelSpec.plcpp(300.0, 100.0, 0.02), unit_cube(), 8, seed=22)
    return pats, _sweep(pats, *SWEEP, threads=1)


class TestExactOracles:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(case=profiles_and_bounds())
    def test_statistics_are_trapezoids_of_interpolants(self, case):
        (sx, sy, sz), grid, r1, bounds = case
        stats = _statistics(sx, sy, sz, grid, r1, bounds)
        for b, r2 in enumerate(bounds):
            xz = trapezoid_oracle(grid, np.abs(sx - sz), r1, r2)
            yz = trapezoid_oracle(grid, np.abs(sy - sz), r1, r2)
            assert stats[0, b] == trapezoid_oracle(grid, np.abs(sx - sy), r1, r2)
            assert stats[1, b] == min(xz, yz)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(case=profiles_and_bounds(), shape=st.sampled_from([(1,), (2,), (5,), (2, 3)]),
           seed=st.integers(0, 2**32 - 1))
    def test_each_row_of_a_stack_is_a_lone_profile(self, case, shape, seed):
        # the sweep integrates (aspect, kind) stacks of profiles in one call
        _, grid, r1, bounds = case
        rng = np.random.default_rng(seed)
        sx, sy, sz = np.cumsum(rng.uniform(0.0, 1.0, (3, *shape, len(grid))), axis=-1)
        stats = _statistics(sx, sy, sz, grid, r1, bounds)
        assert stats.shape == (*shape, 2, len(bounds))
        for row in np.ndindex(shape):
            lone = _statistics(sx[row], sy[row], sz[row], grid, r1, bounds)
            assert stats[row].tobytes() == lone.tobytes()

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 1000),
           distinct=st.sampled_from([2, 5, 50, None]),
           q=st.one_of(st.sampled_from([0.5, 0.9, 0.95, 0.99]),
                       st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)))
    def test_threshold_is_inverted_cdf_quantile(self, seed, m, distinct, q):
        rng = np.random.default_rng(seed)
        values = rng.random(m) if distinct is None else rng.integers(0, distinct, m) / 7.0
        assert _nearest_rank_quantile(values, q) == np.quantile(values, q,
                                                                method="inverted_cdf")

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(order=st.permutations(range(8)))
    def test_permuting_replicates_permutes_statistics(self, permutation_reference, order):
        pats, (stats, thresholds, rejections) = permutation_reference
        moved = _sweep([pats[i] for i in order], *SWEEP, threads=1)
        # every element: the statistics and decisions move with their replicate,
        # and the thresholds, order statistics of the replicates, stay
        assert moved[0].tobytes() == stats[order].tobytes()
        assert moved[1].tobytes() == thresholds.tobytes()
        assert moved[2].tolist() == rejections[order].tolist()

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), poisson=st.booleans(),
           sides=st.tuples(*[st.floats(0.5, 1.5)] * 3))
    def test_swapping_x_and_y_keeps_statistics(self, seed, poisson, sides):
        window = BoxWindow(np.zeros(3), np.array(sides))
        model = ModelSpec.poisson(300.0) if poisson else ModelSpec.plcpp(300.0, 100.0, 0.02)
        pats = simulate_campaign(model, window, 4, seed=seed)
        swap = [1, 0, 2]
        mirrored = [PointPattern(p.points[:, swap],
                                 BoxWindow(p.window.lo[swap], p.window.hi[swap]))
                    for p in pats]
        stats, _, _ = _sweep(pats, *SWEEP, threads=1)
        mirrored_stats, _, _ = _sweep(mirrored, *SWEEP, threads=1)
        # every T_xy and T_z, of every replicate, aspect, kind and bound
        assert mirrored_stats.shape == stats.shape == (4, 2, 2, 2, 3)
        npt.assert_allclose(mirrored_stats, stats, rtol=1e-12, atol=0.0)
