"""Tests for the isotropy test statistics, decision rule, and power sweep."""

import numpy as np
import numpy.testing as npt
import pytest

from aniso3d.estimate import KProfile
from aniso3d.geometry import X_AXIS, Y_AXIS, Z_AXIS
from aniso3d.isotest import (
    IsotropyTestResult,
    TestConfig,
    power_curve,
    power_curve_from_patterns,
    run_test,
    t_xy,
    t_z,
)
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

    def test_exclude_self_close_to_default(self):
        pats = simulate_campaign(ModelSpec.poisson(300.0), unit_cube(), 40, seed=5)
        a = run_test(pats, cfg(r2=0.06))
        b = run_test(pats, cfg(r2=0.06), include_self=False)
        assert abs(a.power - b.power) <= 0.1

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
        monkeypatch.setattr("aniso3d.estimate.pattern_pairs", unreachable)
        with pytest.raises(ValueError, match=r"^r2 0\.6 is out of range for this window: "
                           r".* so choose r2 < 0\.447213$"):
            run_test(pats, cfg(r2=0.6))
        with pytest.raises(ValueError, match=r"choose r2 < 0\.447213$"):
            power_curve_from_patterns(pats, cfg(), [0.05, 0.6], threads=2)
        # every aspect is checked, not only the configured one
        with pytest.raises(ValueError, match=r"choose r2 < 0\.316227$"):
            power_curve_from_patterns(pats, cfg(), [0.4], threads=2, aspects=[2.0, 3.0])

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
        rows = power_curve_from_patterns(pats, cfg(r2=0.1, r1=0.005), bounds,
                                         include_self=False)
        assert rows == [
            (0.01, 0.1, 0.15), (0.02, 0.2, 0.1), (0.04, 0.45, 0.25),
            (0.07, 1.0, 0.9), (0.1, 1.0, 0.9),
        ]

    def test_aspect_sweep_equals_single_aspect_sweeps(self):
        # one pair extraction at the largest aspect serves the smaller ones
        pats = simulate_campaign(ModelSpec.plcpp(300.0, 100.0, 0.02), unit_cube(), 20, seed=21)
        bounds = [0.01, 0.03, 0.06]
        for base, include_self in ((cfg(r2=0.06), True),
                                   (cfg(r2=0.06, r1=0.005), False)):
            rows = power_curve_from_patterns(pats, base, bounds, include_self=include_self,
                                             aspects=[1.5, 3, 2])
            singles = []
            for a in (1.5, 3.0, 2.0):
                singles += power_curve_from_patterns(
                    pats, TestConfig(kind="conical", a=a, r2=0.06, r1=base.r1), bounds,
                    include_self=include_self)
            assert rows == singles

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
                                         include_self=False, aspects=[1.5, 3, 2])
        assert rows == [
            (0.01, 0.05, 0.0), (0.03, 0.1, 0.0), (0.06, 0.6, 0.35),
            (0.01, 0.1, 0.05), (0.03, 0.3, 0.35), (0.06, 1.0, 0.95),
            (0.01, 0.1, 0.15), (0.03, 0.4, 0.15), (0.06, 0.8, 0.7),
        ]

    def test_rejects_bad_aspect_lists(self):
        pats = simulate_campaign(ModelSpec.poisson(200.0), unit_cube(), 5, seed=14)
        with pytest.raises(ValueError, match="at least one aspect"):
            power_curve_from_patterns(pats, cfg(), [0.05], aspects=[])
        with pytest.raises(ValueError, match="aspect ratio must exceed 1"):
            power_curve_from_patterns(pats, cfg(), [0.05], aspects=[2.0, 1.0])
        with pytest.raises(ValueError, match="configured aspect ratio 2.0 is not among"):
            power_curve_from_patterns(pats, cfg(), [0.05], aspects=[1.5, 3.0])

    def test_deterministic_campaign(self):
        model = ModelSpec.plcpp(500.0, 200.0, 0.01)
        c = TestConfig(kind="conical", a=2.0, r2=0.05)
        one = power_curve(model, 12, c, [0.02, 0.05], seed=8)
        two = power_curve(model, 12, c, [0.02, 0.05], seed=8)
        assert one == two

    def test_poisson_curve_stays_near_level(self):
        rows = power_curve(
            ModelSpec.poisson(500.0), 100,
            cfg(r2=0.1), [0.04, 0.06, 0.08, 0.1], seed=9,
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
