"""Tests for the point process simulators and the compression map."""

import math
import os
import re
import subprocess
import sys
from functools import partial

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from aniso3d import simulate
from aniso3d.simulate import (
    MODEL_PARAMS,
    BoxWindow,
    ModelSpec,
    PointPattern,
    compress,
    matern_proposal_intensity,
    replicate_rng,
    simulate_campaign,
    simulate_matern,
    simulate_model,
    simulate_packing,
    simulate_plcpp,
    simulate_poisson,
    unit_cube,
)

PLCPP = ModelSpec.plcpp(500.0, 200.0, 0.001)
MATERN = ModelSpec.matern(500.0, 0.05)
PACKING = ModelSpec.packing(500.0, 0.05)


def min_distance(points) -> float:
    d, _ = cKDTree(points).query(points, k=2)
    return float(d[:, 1].min())


def min_periodic_distance(points, window) -> float:
    rel = points - window.lo
    d, _ = cKDTree(rel, boxsize=window.sides).query(rel, k=2)
    return float(d[:, 1].min())


def reference_packing(spec, window, seed, max_sweeps=100_000):
    """The force-biased packer with a fresh periodic query every sweep.

    Pairs are taken in canonical ``(i, j)`` order and pushes summed with
    ``np.add.at``; `simulate_packing` must reproduce it bit for bit.
    """
    rng = replicate_rng(seed)
    sides = window.sides
    n = int(round(spec.rho * window.volume))
    pos = rng.random((n, 3)) * sides
    target = 2.0 * spec.hardcore_r
    goal = target * (1.0 + 1e-6)
    floor = 1e-3 * (goal - target)
    d_cur = 0.8 * goal
    for _ in range(max_sweeps if n > 1 else 0):
        pairs = cKDTree(pos, boxsize=sides).query_pairs(d_cur, output_type="ndarray")
        pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
        i, j = pairs[:, 0], pairs[:, 1]
        delta = pos[j] - pos[i]
        delta -= sides * np.round(delta / sides)
        dist = np.sqrt(np.sum(delta * delta, axis=1))
        coincident = dist == 0.0
        delta[coincident] = (1e-9 * target, 0.0, 0.0)
        dist[coincident] = 1e-9 * target
        hit = dist < d_cur
        if not np.any(hit):
            if d_cur >= goal:
                break
            d_cur = min(goal, 1.25 * d_cur)
            continue
        i, j, delta, dist = i[hit], j[hit], delta[hit], dist[hit]
        push = ((0.55 * (d_cur - dist) + floor) / dist)[:, None] * delta
        shift = np.zeros_like(pos)
        np.add.at(shift, i, -push)
        np.add.at(shift, j, push)
        pos = (pos + shift) % sides
        pos[pos >= sides] = 0.0
        d_cur = min(goal, 1.05 * d_cur)
    return window.lo + pos


def intensity_split(pattern):
    """Empirical intensity in a centered half-volume box and in its shell."""
    w = pattern.window
    center = (w.lo + w.hi) / 2.0
    half_sides = w.sides * 0.5 ** (1.0 / 3.0)
    inner_lo, inner_hi = center - half_sides / 2.0, center + half_sides / 2.0
    inside = np.all((pattern.points >= inner_lo) & (pattern.points <= inner_hi), axis=1)
    v_in = float(np.prod(half_sides))
    return inside.sum() / v_in, (pattern.n - inside.sum()) / (w.volume - v_in)


class TestWindowAndPattern:
    def test_window_requires_extent(self):
        with pytest.raises(ValueError, match="extent"):
            BoxWindow(np.zeros(3), np.array([1.0, 0.0, 1.0]))

    @pytest.mark.parametrize("lo, hi", [([0.0, 0.0, 0.0], [math.inf, 1.0, 1.0]),
                                        ([0.0, -math.inf, 0.0], [1.0, 1.0, 1.0]),
                                        ([0.0, 0.0, math.nan], [1.0, 1.0, 1.0])])
    def test_window_requires_finite_bounds(self, lo, hi):
        # an infinite window has infinite volume, which no simulator or estimator can use
        with pytest.raises(ValueError, match="^window bounds must be finite, got lo="):
            BoxWindow(np.array(lo), np.array(hi))

    def test_pattern_rejects_outside_points(self):
        with pytest.raises(ValueError, match="inside"):
            PointPattern(np.array([[0.5, 0.5, 1.5]]), unit_cube())

    def test_pattern_rejects_non_finite_points(self):
        for value in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                PointPattern(np.array([[0.5, value, 0.5]]), unit_cube())

    def test_pattern_rejects_duplicates(self):
        with pytest.raises(ValueError, match="simple"):
            PointPattern(np.array([[0.5] * 3, [0.5] * 3]), unit_cube())

    def test_empty_pattern_allowed(self):
        assert PointPattern(np.empty((0, 3)), unit_cube()).n == 0

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(*[st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0, -1.0])] * 3),
                    min_size=1, max_size=8))
    def test_simplicity_agrees_with_unique(self, rows):
        # np.unique(axis=0) is the oracle; -0.0 and 0.0 are the same point
        points = np.array(rows)
        simple = np.unique(points, axis=0).shape[0] == len(rows)
        window = BoxWindow(np.full(3, -1.0), np.full(3, 2.0))
        if simple:
            assert PointPattern(points, window).n == len(rows)
        else:
            with pytest.raises(ValueError, match="simple"):
                PointPattern(points, window)

    def test_building_a_pattern_loads_no_numpy_ma(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(simulate.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        code = ("import sys; from aniso3d.simulate import ModelSpec, simulate_poisson, unit_cube; "
                "simulate_poisson(ModelSpec.poisson(500.0), unit_cube(), 3); "
                "print('numpy.ma' in sys.modules)")
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60, check=True)
        assert done.stdout.strip() == "False"


class TestPoisson:
    def test_mean_count(self):
        counts = [simulate_poisson(ModelSpec.poisson(500.0), unit_cube(), (40, i)).n
                  for i in range(1000)]
        assert 485.0 <= np.mean(counts) <= 515.0

    def test_count_scales_with_volume(self):
        big = BoxWindow(np.zeros(3), 2.0 * np.ones(3))
        counts = [simulate_poisson(ModelSpec.poisson(500.0), big, (41, i)).n
                  for i in range(200)]
        se = np.std(counts, ddof=1) / math.sqrt(len(counts))
        assert abs(np.mean(counts) - 4000.0) < 3.5 * se

    def test_deterministic(self):
        a = simulate_poisson(ModelSpec.poisson(500.0), unit_cube(), 7)
        b = simulate_poisson(ModelSpec.poisson(500.0), unit_cube(), 7)
        npt.assert_array_equal(a.points, b.points)

    def test_seeds_differ(self):
        a = simulate_poisson(ModelSpec.poisson(500.0), unit_cube(), 7)
        b = simulate_poisson(ModelSpec.poisson(500.0), unit_cube(), 8)
        assert a.n != b.n or not np.array_equal(a.points, b.points)


class TestPlcpp:
    def test_spec_requires_consistent_intensities(self):
        with pytest.raises(ValueError, match="rho_l"):
            ModelSpec(kind="plcpp", rho=500.0, rho_l=100.0, alpha=2.5, sigma=0.01)

    def test_mean_count(self):
        counts = [simulate_plcpp(PLCPP, unit_cube(), (42, i)).n for i in range(600)]
        se = np.std(counts, ddof=1) / math.sqrt(len(counts))
        assert abs(np.mean(counts) - 500.0) < 3.0 * se

    def test_degenerate_sigma_stacks_points_on_lines(self):
        spec = ModelSpec.plcpp(500.0, 200.0, 0.0)
        pattern, feet = simulate_plcpp(spec, unit_cube(), 5, return_lines=True)
        xy = np.unique(pattern.points[:, :2], axis=0)
        assert pattern.n > len(xy)  # points share lines
        assert len(xy) <= len(feet)

    def test_points_near_parent_lines(self):
        hits = 0
        total = 0
        for i in range(30):
            pattern, feet = simulate_plcpp(PLCPP, unit_cube(), (43, i), return_lines=True)
            d = np.min(
                np.linalg.norm(
                    pattern.points[:, None, :2] - feet[None, :, :2], axis=-1
                ),
                axis=1,
            )
            hits += int((d <= 5.0 * PLCPP.sigma).sum())
            total += pattern.n
        assert hits / total > 0.999

    def test_deterministic(self):
        a = simulate_plcpp(PLCPP, unit_cube(), (1, 2))
        b = simulate_plcpp(PLCPP, unit_cube(), (1, 2))
        npt.assert_array_equal(a.points, b.points)

    def test_edge_stationarity(self):
        inner, outer = [], []
        for i in range(300):
            rin, rout = intensity_split(simulate_plcpp(PLCPP, unit_cube(), (44, i)))
            inner.append(rin)
            outer.append(rout)
        gap = np.mean(inner) - np.mean(outer)
        se = math.sqrt(
            np.var(inner, ddof=1) / len(inner) + np.var(outer, ddof=1) / len(outer)
        )
        assert abs(gap) < 3.0 * se


class TestMatern:
    def test_proposal_intensity_value(self):
        lam = matern_proposal_intensity(500.0, 0.05)
        v = 4.0 * math.pi * 0.05**3 / 3.0
        assert (1.0 - math.exp(-lam * v)) / v == pytest.approx(500.0, rel=1e-12)
        # independent bisection oracle for the same fixed point
        lo, hi = 500.0, 5000.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if (1.0 - math.exp(-mid * v)) / v < 500.0:
                lo = mid
            else:
                hi = mid
        assert lam == pytest.approx(0.5 * (lo + hi), rel=1e-10)
        assert lam == pytest.approx(579.718, abs=1e-3)

    def test_hard_core_distance(self):
        for i in range(20):
            p = simulate_matern(MATERN, unit_cube(), (45, i))
            assert min_distance(p.points) >= 0.05

    def test_infeasible_intensity_rejected(self):
        with pytest.raises(ValueError, match="achievable"):
            ModelSpec.matern(2000.0, 0.05)

    def test_tiny_radius_recovers_poisson_intensity(self):
        spec = ModelSpec.matern(500.0, 1e-4)
        counts = [simulate_matern(spec, unit_cube(), (46, i)).n for i in range(150)]
        se = np.std(counts, ddof=1) / math.sqrt(len(counts))
        assert abs(np.mean(counts) - 500.0) < 3.0 * se

    def test_intensity_hits_target(self):
        counts = [simulate_matern(MATERN, unit_cube(), (47, i)).n for i in range(300)]
        se = np.std(counts, ddof=1) / math.sqrt(len(counts))
        assert abs(np.mean(counts) - 500.0) < 3.0 * se

    def test_edge_stationarity(self):
        inner, outer = [], []
        for i in range(300):
            rin, rout = intensity_split(simulate_matern(MATERN, unit_cube(), (48, i)))
            inner.append(rin)
            outer.append(rout)
        gap = np.mean(inner) - np.mean(outer)
        se = math.sqrt(
            np.var(inner, ddof=1) / len(inner) + np.var(outer, ddof=1) / len(outer)
        )
        assert abs(gap) < 3.0 * se

    def test_deterministic(self):
        a = simulate_matern(MATERN, unit_cube(), (2, 3))
        b = simulate_matern(MATERN, unit_cube(), (2, 3))
        npt.assert_array_equal(a.points, b.points)


class TestPacking:
    def test_count_and_hard_core(self):
        for i in range(20):
            p = simulate_packing(PACKING, unit_cube(), (49, i))
            assert p.n == 500
            assert min_periodic_distance(p.points, p.window) >= 0.05

    def test_packing_fraction_guard(self):
        assert 500.0 * 4.0 * math.pi * 0.05**3 / 3.0 == pytest.approx(0.2618, abs=5e-4)
        with pytest.raises(ValueError, match="dense"):
            ModelSpec.packing(1000.0, 0.05)

    def test_single_ball(self):
        spec = ModelSpec.packing(1.0, 0.05)
        assert simulate_packing(spec, unit_cube(), 3).n == 1

    def test_deterministic(self):
        a = simulate_packing(PACKING, unit_cube(), (3, 4))
        b = simulate_packing(PACKING, unit_cube(), (3, 4))
        npt.assert_array_equal(a.points, b.points)

    @pytest.mark.parametrize(
        "spec, sides, seed",
        [(PACKING, (1.0, 1.0, 1.0), (50, i)) for i in range(4)]
        + [
            (PACKING, (1.0, 0.8, 1.25), 51),
            # n = 2: the balls start 0.083 apart and must be pushed to 2R = 0.1
            (ModelSpec.packing(2.0 / 0.15**3, 0.05), (0.15,) * 3, 52),
        ],
    )
    def test_neighbour_list_matches_fresh_queries(self, spec, sides, seed):
        window = BoxWindow(np.zeros(3), np.array(sides))
        expected = reference_packing(spec, window, seed)
        npt.assert_array_equal(simulate_packing(spec, window, seed).points, expected)

    @pytest.mark.parametrize("skin", [0.3, 0.45, 0.8])
    @pytest.mark.parametrize("sides, seed", [((1.0, 1.0, 1.0), (50, 0)),
                                             ((1.0, 0.8, 1.25), 51)])
    def test_skin_changes_no_bit(self, monkeypatch, skin, sides, seed):
        # the skin sets how often the neighbour list is built, not what a sweep pushes
        monkeypatch.setattr(simulate, "_SKIN", skin)
        window = BoxWindow(np.zeros(3), np.array(sides))
        npt.assert_array_equal(simulate_packing(PACKING, window, seed).points,
                               reference_packing(PACKING, window, seed))

    def test_coincident_centres_match_reference(self, monkeypatch):
        # random draws never coincide, so a stub stream places the centres:
        # a cluster of overlapping balls with two equal rows
        rows = 0.2 + 0.1 * np.random.default_rng(5).random((12, 3))
        rows[7] = rows[3]

        class Stream:
            def random(self, shape):
                assert shape == rows.shape
                return rows.copy()

        for module in (simulate, sys.modules[__name__]):
            monkeypatch.setattr(module, "replicate_rng", lambda seed: Stream())
        spec = ModelSpec.packing(12.0, 0.05)
        pattern = simulate_packing(spec, unit_cube(), 55)
        npt.assert_array_equal(pattern.points, reference_packing(spec, unit_cube(), 55))
        assert pattern.n == 12
        assert min_periodic_distance(pattern.points, pattern.window) >= 0.1

    def test_non_convergence_raises(self):
        with pytest.raises(RuntimeError, match="did not converge in 1 sweeps"):
            simulate_packing(PACKING, unit_cube(), 53, max_sweeps=1)

    def test_campaign_names_failing_replicate(self, monkeypatch):
        monkeypatch.setattr(simulate, "simulate_packing",
                            partial(simulate_packing, max_sweeps=1))
        with pytest.raises(RuntimeError,
                           match=r"replicate \(seed, i\) = \(54, 0\): packing did not"):
            simulate_campaign(ModelSpec.packing(500.0, 0.05), unit_cube(), 2, 54,
                              threads=1)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(
        n=st.integers(2, 60),
        r=st.floats(0.01, 0.06),
        sides=st.tuples(*[st.floats(0.4, 1.0)] * 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_packing_properties(self, n, r, sides, seed):
        window = BoxWindow(np.zeros(3), np.array(sides))
        assume(n * 4.0 * math.pi * r**3 / 3.0 <= 0.3 * window.volume)
        spec = ModelSpec.packing(n / window.volume, r)
        pattern = simulate_packing(spec, window, seed)
        assert pattern.n == n
        assert min_periodic_distance(pattern.points, window) >= 2.0 * r
        npt.assert_array_equal(pattern.points, reference_packing(spec, window, seed))


class TestCompress:
    def test_identity(self):
        p = simulate_poisson(ModelSpec.poisson(100.0), unit_cube(), 9)
        q = compress(p, 1.0)
        npt.assert_array_equal(p.points, q.points)
        npt.assert_array_equal(p.window.hi, q.window.hi)

    def test_window_and_volume(self):
        p = simulate_poisson(ModelSpec.poisson(100.0), unit_cube(), 10)
        q = compress(p, 0.7)
        npt.assert_allclose(q.window.hi, [1 / math.sqrt(0.7), 1 / math.sqrt(0.7), 0.7])
        assert abs(q.window.volume - 1.0) < 1e-12
        assert q.n == p.n

    def test_round_trip(self):
        p = simulate_poisson(ModelSpec.poisson(200.0), unit_cube(), 11)
        q = compress(compress(p, 0.7), 1.0 / 0.7)
        npt.assert_allclose(q.points, p.points, atol=1e-12)

    def test_rejects_nonpositive(self):
        p = simulate_poisson(ModelSpec.poisson(10.0), unit_cube(), 12)
        with pytest.raises(ValueError, match="positive"):
            compress(p, 0.0)

    def test_rejects_infinite(self):
        p = simulate_poisson(ModelSpec.poisson(10.0), unit_cube(), 12)
        with pytest.raises(ValueError,
                           match="^compression factor c must be positive and finite, got inf$"):
            compress(p, math.inf)


class TestModelSpec:
    def test_dispatch_and_compress(self):
        model = ModelSpec.packing(500.0, 0.05).compressed(0.7)
        p = simulate_model(model, unit_cube(), (5, 0))
        assert p.n == 500
        assert p.window.hi[2] == pytest.approx(0.7)
        window = model.replicate_window(unit_cube())
        assert np.array_equal(window.lo, p.window.lo) and np.array_equal(window.hi, p.window.hi)
        assert ModelSpec.packing(500.0, 0.05).replicate_window(p.window) is p.window

    def test_no_double_compression(self):
        with pytest.raises(ValueError, match="compressed"):
            ModelSpec.poisson(10.0).compressed(0.9).compressed(0.8)

    def test_compression_range(self):
        with pytest.raises(ValueError, match="compression"):
            ModelSpec.poisson(10.0).compressed(1.5)

    def test_plcpp_constructor_derives_alpha(self):
        model = ModelSpec.plcpp(500.0, 200.0, 0.01)
        assert model.alpha == pytest.approx(2.5)

    @pytest.mark.parametrize("build, message", [
        (lambda: ModelSpec.plcpp(500.0, math.nan, 0.01), "intensities must be positive"),
        (lambda: ModelSpec.plcpp(500.0, 200.0, math.nan), "sigma must be nonnegative"),
        (lambda: ModelSpec.plcpp(500.0, 200.0, math.inf), "sigma must be nonnegative"),
        (lambda: ModelSpec(kind="plcpp", rho=math.nan, rho_l=200.0, alpha=2.5, sigma=0.01),
         "intensities must be positive"),
        (lambda: ModelSpec.poisson(math.inf), "intensity must be positive"),
        (lambda: simulate_poisson(ModelSpec.poisson(math.inf), unit_cube(), 1),
         "intensity must be positive"),
    ], ids=["rho_l nan", "sigma nan", "sigma inf", "spec rho nan", "poisson inf",
            "simulate_poisson inf"])
    def test_refuses_non_finite_parameters(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    @pytest.mark.parametrize("fields, message", [
        (dict(kind="poisson", rho=0.0), "intensity must be positive, got 0.0"),
        (dict(kind="poisson", rho=math.nan), "intensity must be positive, got nan"),
        (dict(kind="plcpp", rho=0.0, rho_l=200.0, alpha=0.0, sigma=0.01),
         "intensities must be positive"),
        (dict(kind="plcpp", rho=500.0, rho_l=200.0, alpha=math.inf, sigma=0.01),
         "intensities must be positive"),
        (dict(kind="plcpp", rho=500.0, rho_l=100.0, alpha=2.5, sigma=0.01),
         "rho must equal rho_l * alpha, got 500.0 vs 250.0"),
        (dict(kind="plcpp", rho=500.0, rho_l=200.0, alpha=2.5, sigma=-0.1),
         "sigma must be nonnegative, got -0.1"),
        (dict(kind="matern", rho=500.0, hardcore_r=0.0),
         "hard-core distance must be positive, got 0.0"),
        (dict(kind="packing", rho=-1.0, hardcore_r=math.nan),
         "hard-core distance must be positive, got nan"),
        (dict(kind="matern", rho=-1.0, hardcore_r=0.05), "intensity must be positive, got -1.0"),
        (dict(kind="packing", rho=math.nan, hardcore_r=0.05),
         "intensity must be positive, got nan"),
        (dict(kind="matern", rho=2000.0, hardcore_r=0.05),
         "matern intensity 2000.0 is not achievable at r=0.05: "
         "rho * (4/3) pi r^3 = 1.047 >= 1"),
        (dict(kind="matern", rho=math.inf, hardcore_r=0.05),
         "matern intensity inf is not achievable at r=0.05: rho * (4/3) pi r^3 = inf >= 1"),
        (dict(kind="packing", rho=1000.0, hardcore_r=0.05),
         "packing too dense to converge reliably: rho * (4/3) pi r^3 = 0.5236 > 0.5"),
        (dict(kind="packing", rho=500.0, hardcore_r=math.inf),
         "packing too dense to converge reliably: rho * (4/3) pi r^3 = inf > 0.5"),
        # radii whose cube overflows a float
        (dict(kind="matern", rho=500.0, hardcore_r=1e200),
         "matern intensity 500.0 is not achievable at r=1e+200: rho * (4/3) pi r^3 = inf >= 1"),
        (dict(kind="matern", rho=500.0, hardcore_r=1e103),
         "matern intensity 500.0 is not achievable at r=1e+103: rho * (4/3) pi r^3 = inf >= 1"),
        (dict(kind="packing", rho=500.0, hardcore_r=1e200),
         "packing too dense to converge reliably: rho * (4/3) pi r^3 = inf > 0.5"),
    ])
    def test_refuses_values_with_their_messages(self, fields, message):
        # one message per rule, stated in ModelSpec alone
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ModelSpec(**fields)

    def test_refuses_infinite_intensity_over_a_vanishing_ball(self):
        # r^3 underflows to 0, so rho * (4/3) pi r^3 is nan
        with pytest.raises(ValueError, match="^matern intensity inf is not achievable"):
            ModelSpec.matern(math.inf, 1e-110)

    @pytest.mark.parametrize("generate, model", [
        (simulate_poisson, ModelSpec.poisson(500.0)),
        (simulate_plcpp, PLCPP),
        (simulate_matern, MATERN),
        (simulate_packing, PACKING),
    ], ids=["poisson", "plcpp", "matern", "packing"])
    def test_generators_refuse_other_kinds_and_compression(self, generate, model):
        other = PLCPP if model.kind != "plcpp" else MATERN
        with pytest.raises(ValueError, match=f"^expected a {model.kind} model, "
                           f"got kind='{other.kind}'$"):
            generate(other, unit_cube(), 1)
        # only simulate_model compresses, so that no direct call drops a compression
        with pytest.raises(ValueError, match=f"^simulate_{model.kind} takes an uncompressed "
                           "model; simulate_model applies compress_c=0.7$"):
            generate(model.compressed(0.7), unit_cube(), 1)

    def test_describe_echoes_parameters(self):
        model = ModelSpec.plcpp(500.0, 200.0, 0.01).compressed(0.9)
        d = model.describe()
        assert d["model"] == "plcpp" and d["sigma"] == 0.01 and d["compress_c"] == 0.9

    @pytest.mark.parametrize("model, params", [
        (ModelSpec.poisson(200.0), []),
        (ModelSpec.plcpp(500.0, 200.0, 0.01), ["rho_l", "alpha", "sigma"]),
        (ModelSpec.matern(500.0, 0.05), ["hardcore_r"]),
        (ModelSpec.packing(200.0, 0.05), ["hardcore_r"]),
    ], ids=lambda x: x.kind if isinstance(x, ModelSpec) else "")
    def test_describe_echoes_the_table(self, model, params):
        assert list(MODEL_PARAMS[model.kind]) == params
        assert list(model.describe()) == ["model", "rho", *params]
        assert list(model.compressed(0.9).describe()) == ["model", "rho", *params, "compress_c"]

    @pytest.mark.parametrize("fields, message", [
        (dict(kind="poisson", sigma=-3.0), "poisson takes [] besides rho, got ['sigma']"),
        (dict(kind="poisson", sigma=-3.0, hardcore_r=0.05),
         "poisson takes [] besides rho, got ['sigma', 'hardcore_r']"),
        (dict(kind="matern", rho_l=200.0, hardcore_r=0.05),
         "matern takes ['hardcore_r'] besides rho, got ['rho_l', 'hardcore_r']"),
        (dict(kind="plcpp", rho_l=200.0, alpha=2.5, sigma=0.01, hardcore_r=0.05),
         "plcpp takes ['rho_l', 'alpha', 'sigma'] besides rho, "
         "got ['rho_l', 'alpha', 'sigma', 'hardcore_r']"),
        (dict(kind="plcpp", rho_l=200.0, alpha=2.5),
         "plcpp takes ['rho_l', 'alpha', 'sigma'] besides rho, got ['rho_l', 'alpha']"),
        (dict(kind="packing"), "packing takes ['hardcore_r'] besides rho, got []"),
        (dict(kind="cubic"), "unknown model kind 'cubic'"),
    ], ids=["poisson sigma", "poisson two", "matern rho_l", "plcpp hardcore_r",
            "plcpp no sigma", "packing no r", "unknown kind"])
    def test_refuses_foreign_and_missing_parameters(self, fields, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ModelSpec(rho=500.0, **fields)

    def test_plcpp_derives_either_intensity(self):
        assert ModelSpec.plcpp(500.0, None, 0.01, alpha=2.5) == ModelSpec.plcpp(500.0, 200.0, 0.01)
        with pytest.raises(ValueError, match="^plcpp needs rho_l or alpha$"):
            ModelSpec.plcpp(500.0, None, 0.01)
        for rho_l, alpha in [(0.0, None), (None, 0.0)]:
            with pytest.raises(ValueError, match="^intensities must be positive$"):
                ModelSpec.plcpp(500.0, rho_l, 0.01, alpha=alpha)

    @pytest.mark.parametrize("model", [
        ModelSpec.poisson(200.0),
        ModelSpec.plcpp(500.0, 200.0, 0.001),
        ModelSpec.matern(500.0, 0.05),
        ModelSpec.packing(200.0, 0.05),
        ModelSpec.packing(200.0, 0.05).compressed(0.7),
    ])
    def test_points_are_c_ordered_rows(self, model):
        # ``vec @ u`` in the estimators rounds differently on another layout
        points = simulate_model(model, BoxWindow(np.zeros(3), np.array([1.0, 0.8, 1.25])),
                                (20161, 0)).points
        assert points.ndim == 2 and points.shape[1] == 3 and len(points) > 1
        assert points.flags.c_contiguous

    def test_campaign_deterministic_and_distinct(self):
        model = ModelSpec.poisson(50.0)
        one = simulate_campaign(model, unit_cube(), 4, seed=6)
        two = simulate_campaign(model, unit_cube(), 4, seed=6)
        for a, b in zip(one, two):
            npt.assert_array_equal(a.points, b.points)
        assert not np.array_equal(one[0].points, one[1].points)
