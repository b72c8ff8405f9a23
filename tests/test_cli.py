"""Tests for pattern file I/O and the command-line interface."""

import ast
import concurrent.futures
import importlib
import importlib.util
import json
import math
import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import aniso3d
from aniso3d import _parallel, cli, estimate, patternio, simulate
from aniso3d.cli import main
from aniso3d.estimate import pooled_profile
from aniso3d.geometry import X_AXIS, Y_AXIS, Z_AXIS
from aniso3d.patternio import pattern_paths, read_pattern, read_patterns, write_pattern
from aniso3d.simulate import BoxWindow, ModelSpec, PointPattern, simulate_poisson, unit_cube


EMPTY_WINDOW = "window must have positive extent, got lo=[0. 1. 0.], hi=[1. 0. 1.]"


class TestPatternFiles:
    def test_round_trip_exact(self, tmp_path):
        pattern = simulate_poisson(ModelSpec.poisson(200.0), unit_cube(), 55)
        path = tmp_path / "p.txt"
        write_pattern(path, pattern, comments=["round trip"])
        back = read_pattern(path)
        npt.assert_array_equal(back.points, pattern.points)
        npt.assert_array_equal(back.window.lo, pattern.window.lo)
        npt.assert_array_equal(back.window.hi, pattern.window.hi)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        lo=arrays(np.float64, 3, elements=st.floats(-1e6, 1e6)),
        sides=arrays(np.float64, 3, elements=st.floats(1e-3, 1e6)),
        fractions=arrays(np.float64, st.tuples(st.integers(0, 20), st.just(3)),
                         elements=st.floats(0.0, 1.0), unique=True),
    )
    def test_round_trip_exact_for_any_window(self, tmp_path_factory, lo, sides, fractions):
        hi = lo + sides
        points = np.unique(np.minimum(lo + fractions * sides, hi), axis=0)
        pattern = PointPattern(points, BoxWindow(lo, hi))
        path = tmp_path_factory.mktemp("round_trip") / "p.txt"
        write_pattern(path, pattern)
        back = read_pattern(path)
        assert back.points.shape == pattern.points.shape
        assert back.points.tobytes() == pattern.points.tobytes()
        assert back.window.lo.tobytes() == pattern.window.lo.tobytes()
        assert back.window.hi.tobytes() == pattern.window.hi.tobytes()

    def test_points_parse_exactly_as_float(self, tmp_path):
        tokens = ["5e-324", "-2.2250738585072014e-308", "1e-310", "1e300", "-1e300",
                  "0.1", "-0.0", "0.30000000000000004", "1E5", ".5", "+3.", "123456789.987654321"]
        rows = [tokens[k:k + 3] for k in range(0, len(tokens), 3)]
        path = tmp_path / "p.txt"
        path.write_text("window -1e301 1e301 -1e301 1e301 -1e301 1e301\n"
                        + "".join(" ".join(row) + "\n" for row in rows))
        want = np.array([[float(t) for t in row] for row in rows])
        assert read_pattern(path).points.tobytes() == want.tobytes()

    def test_missing_window(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0.1 0.2 0.3\n")
        with pytest.raises(ValueError, match="bad.txt:1"):
            read_pattern(path)

    def test_malformed_point_reports_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("window 0 1 0 1 0 1\n0.1 0.2 oops\n")
        with pytest.raises(ValueError, match="bad.txt:2"):
            read_pattern(path)

    def test_wrong_field_count_reports_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("window 0 1 0 1 0 1\n# fine\n0.1 0.2\n")
        with pytest.raises(ValueError, match="bad.txt:3"):
            read_pattern(path)

    def test_non_finite_values_report_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        for token in ("nan", "inf", "-inf"):
            path.write_text(f"window 0 1 0 1 0 1\n0.1 0.2 0.3\n0.4 {token} 0.5\n")
            with pytest.raises(ValueError, match="bad.txt:3: non-finite coordinates"):
                read_pattern(path)
        path.write_text("window 0 inf 0 1 0 1\n")
        with pytest.raises(ValueError, match="bad.txt:1: non-finite window"):
            read_pattern(path)

    @pytest.mark.parametrize("mend, message", [
        ((), "bad.txt:3: malformed coordinates '0.1 oops 0.3'"),
        ((3,), "bad.txt:5: expected 'x y z', got '0.4 0.5'"),
        ((3, 5), "bad.txt:6: non-finite coordinates '0.6 inf 0.7'"),
    ])
    def test_first_bad_line_in_file_order(self, tmp_path, mend, message):
        lines = ["window 0 1 0 1 0 1", "0.1 0.2 0.3", "0.1 oops 0.3", "# note",
                 "0.4 0.5", "0.6 inf 0.7", "0.8 0.9"]
        path = tmp_path / "bad.txt"
        path.write_text("".join(f"0.{k} 0.5 0.5\n" if k in mend else l + "\n"
                                for k, l in enumerate(lines, 1)))
        with pytest.raises(ValueError) as info:
            read_pattern(path)
        assert str(info.value) == f"{tmp_path / message}"

    @pytest.mark.parametrize("window, message", [
        ("windw 0 1 0 1 0 1", "expected 'window x_lo x_hi y_lo y_hi z_lo z_hi', "
                              "got 'windw 0 1 0 1 0 1'"),
        ("window 0 1 0 1 0", "expected 'window x_lo x_hi y_lo y_hi z_lo z_hi', "
                             "got 'window 0 1 0 1 0'"),
        ("window 0 1 0 x 0 1", "malformed window bounds 'window 0 1 0 x 0 1'"),
        ("window 0 1 nan 1 0 1", "non-finite window bounds 'window 0 1 nan 1 0 1'"),
    ])
    def test_window_line_errors(self, tmp_path, window, message):
        path = tmp_path / "bad.txt"
        path.write_text(f"# header\n\n{window}\n0.1 oops 0.3\n")
        with pytest.raises(ValueError) as info:
            read_pattern(path)
        assert str(info.value) == f"{path}:3: {message}"

    def test_empty_window_reported_before_later_lines(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("window 0 1 1 0 0 1\n0.1 oops 0.3\n")
        with pytest.raises(ValueError) as info:
            read_pattern(path)
        assert str(info.value) == f"{path}:1: {EMPTY_WINDOW}"

    def test_empty_window_in_good_layout_reports_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# header\nwindow 0 1 1 0 0 1\n0.1 0.2 0.3\n")
        with pytest.raises(ValueError) as info:
            read_pattern(path)
        assert str(info.value) == f"{path}:2: {EMPTY_WINDOW}"

    @pytest.mark.parametrize("points, message", [
        ("0.1 0.2 0.3\n0.4 0.5 0.6\n0.1 0.2 0.3\n",
         "point pattern must be simple (no duplicate points)"),
        ("0.1 0.2 0.3\n0.4 1.5 0.6\n", "all points must lie inside the closed window"),
    ])
    def test_bad_point_set_names_file(self, tmp_path, points, message):
        path = tmp_path / "bad.txt"
        path.write_text("window 0 1 0 1 0 1\n" + points)
        with pytest.raises(ValueError) as info:
            read_pattern(path)
        assert str(info.value) == f"{path}: {message}"

    def test_only_comments_is_missing_window(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# a comment\n\n   # another\n")
        with pytest.raises(ValueError) as info:
            read_pattern(path)
        assert str(info.value) == f"{path}: missing window line"

    @pytest.mark.parametrize("body", ["0.1 0.2 0.3\n", "0.1 0.2 oops\n", "0.1 0.2\n"])
    def test_opens_each_file_once(self, tmp_path, monkeypatch, body):
        path = tmp_path / "p.txt"
        path.write_text("window 0 1 0 1 0 1\n" + body)
        opened = []
        real_open = open

        def counting_open(*args, **kwargs):
            opened.append(args)
            return real_open(*args, **kwargs)

        monkeypatch.setattr("builtins.open", counting_open)
        try:
            read_pattern(path)
        except ValueError:
            pass
        assert len(opened) == 1

    @settings(max_examples=2000, deadline=None, derandomize=True)
    @given(st.one_of(
        st.text(max_size=12),
        st.text(alphabet="0123456789+-.eE_xinfatyINFATY", max_size=14),
        st.floats().map(repr),
        st.sampled_from(["1_0", "1__0", "_1", "\u0661", "\uff11", "infinity", "-Infinity",
                         "nan", "-nan", "1e", "0x10", "1e400", "-1e-400"]),
    ))
    def test_numpy_parses_a_token_exactly_when_float_does(self, token):
        # read_pattern parses with np.array and promises float's reading:
        # the same tokens accepted, to the same bits
        try:
            want = np.float64(float(token))
        except ValueError:
            with pytest.raises(ValueError):
                np.array([token], dtype=float)
        else:
            assert np.array([token], dtype=float).tobytes() == want.tobytes()

    def test_read_directory_sorted(self, tmp_path):
        for i in (1, 0):
            write_pattern(
                tmp_path / f"pattern_{i}.txt",
                PointPattern(np.array([[0.5, 0.5, 0.1 + i / 2.0]]), unit_cube()),
            )
        pats = read_patterns(tmp_path)
        assert len(pats) == 2
        assert pats[0].points[0, 2] == pytest.approx(0.1)


class TestParallelMap:
    def test_starts_at_most_one_worker_per_item(self, monkeypatch):
        started = []

        class RecordingPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize):
                started.append(chunksize)
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        assert _parallel.parallel_map(abs, [-1, -2, -3, -4], threads=64) == [1, 2, 3, 4]
        assert _parallel.parallel_map(abs, range(-100, 0), threads=3) == list(range(100, 0, -1))
        # (workers, chunk): min(threads, items), and items // (4 * threads)
        assert started == [4, 1, 3, 8]


def test_cli_import_loads_no_scipy():
    # nor the process pool, which only a run with --threads above 1 starts
    src = os.path.dirname(os.path.dirname(os.path.abspath(aniso3d.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, aniso3d.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in "
            "('scipy', 'multiprocessing') or m == 'concurrent.futures.process'))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout.strip() == "[]"


def run_cli(*argv):
    return main([str(a) for a in argv])


def uniform_cube(side, n, seed):
    """``n`` uniform points in a cube of the given side."""
    points = side * np.random.default_rng(seed).uniform(size=(n, 3))
    return PointPattern(points, BoxWindow(np.zeros(3), np.full(3, side)))


def test_only_simulating_loads_numpy_random(tmp_path):
    # its bit generators import secrets, hmac and _hashlib: about 6 MB that
    # estimate and test, which draw no number, need not hold
    assert run_cli("simulate", "--model", "poisson", "--rho", "200", "--m", "3",
                   "--seed", "4", "--out", tmp_path / "campaign") == 0
    src = os.path.dirname(os.path.dirname(os.path.abspath(aniso3d.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = """if True:
        import sys
        from aniso3d.cli import main
        loaded = ["numpy.random" in sys.modules]
        for argv in (["estimate", "--input", "campaign", "--r-max", "0.1", "--out", "e.csv"],
                     ["test", "--input", "campaign", "--r2-grid", "0.05", "--out", "t.csv"],
                     ["simulate", "--model", "poisson", "--rho", "200", "--m", "2",
                      "--out", "again"]):
            assert main(argv + ["--threads", "1"]) == 0
            loaded.append("numpy.random" in sys.modules)
        print(loaded)
    """
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.splitlines()[-1] == "[False, False, False, True]"


class TestSimulateCommand:
    def test_writes_patterns_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "campaign"
        code = run_cli(
            "simulate", "--model", "poisson", "--rho", "100", "--m", "3",
            "--seed", "5", "--out", out,
        )
        assert code == 0
        names = sorted(os.listdir(out))
        assert names == ["manifest.txt", "pattern_00000.txt", "pattern_00001.txt",
                         "pattern_00002.txt"]
        manifest = (out / "manifest.txt").read_text()
        assert "model = poisson" in manifest and "seed = 5" in manifest

    def test_idempotent_rerun(self, tmp_path):
        out = tmp_path / "campaign"
        args = ("simulate", "--model", "plcpp", "--rho", "500", "--rho-l", "200",
                "--sigma", "0.01", "--m", "2", "--seed", "9", "--out", out)
        assert run_cli(*args) == 0
        first = {n: (out / n).read_bytes() for n in os.listdir(out)}
        assert run_cli(*args) == 0
        second = {n: (out / n).read_bytes() for n in os.listdir(out)}
        assert first == second

    def test_refuses_stale_pattern_files(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "campaign"
        args = ("simulate", "--model", "poisson", "--rho", "100", "--out", out)
        assert run_cli(*args, "--m", "3", "--seed", "1") == 0
        before = {n: (out / n).read_bytes() for n in os.listdir(out)}

        def unreachable(*args, **kwargs):
            raise AssertionError("the campaign was simulated")

        # a smaller campaign would leave pattern_00002.txt to be pooled with it
        with monkeypatch.context() as patch:
            patch.setattr("aniso3d.simulate.simulate_model", unreachable)
            assert run_cli(*args, "--m", "2", "--seed", "2") == 1
        assert capsys.readouterr().err == (
            f"error: --out {out} holds pattern file pattern_00002.txt, which a campaign "
            "of m = 2 would not overwrite\n")
        assert {n: (out / n).read_bytes() for n in os.listdir(out)} == before
        # a larger campaign overwrites every file there
        assert run_cli(*args, "--m", "4", "--seed", "2") == 0
        assert len(read_patterns(out)) == 4

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_failed_campaign_leaves_out_as_found(self, tmp_path, capsys, monkeypatch,
                                                 threads):
        out, fresh = tmp_path / "campaign", tmp_path / "fresh"

        def run(target, seed):
            return run_cli("simulate", "--model", "poisson", "--rho", "100", "--m", "4",
                           "--seed", seed, "--threads", threads, "--out", target)

        assert run(out, 1) == 0
        before = {n: (out / n).read_bytes() for n in os.listdir(out)}
        simulate_model = simulate.simulate_model

        def fails_at_two(model, window, seed):
            if seed[1] == 2:
                raise RuntimeError("injected failure")
            return simulate_model(model, window, seed)

        # forked pool workers inherit the patch
        monkeypatch.setattr(simulate, "simulate_model", fails_at_two)
        assert run(out, 2) == 1
        assert capsys.readouterr().err == (
            "error: replicate (seed, i) = (2, 2): injected failure\n")
        assert {n: (out / n).read_bytes() for n in os.listdir(out)} == before
        assert run(fresh, 2) == 1
        assert not fresh.exists()

    def test_thread_count_does_not_change_output(self, tmp_path):
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / f"t{threads}"
            assert run_cli(
                "simulate", "--model", "matern", "--rho", "300", "--hardcore-r",
                "0.05", "--m", "4", "--seed", "3", "--out", out,
                "--threads", threads,
            ) == 0
            outs.append({n: (out / n).read_bytes() for n in os.listdir(out)})
        assert outs[0] == outs[1]

    def test_unwritable_target_errors_without_files(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory\n")
        code = run_cli(
            "simulate", "--model", "poisson", "--rho", "10", "--m", "1",
            "--out", blocker / "sub",
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_invalid_spec_reports_field(self, tmp_path, capsys):
        code = run_cli(
            "simulate", "--model", "packing", "--rho", "5000", "--hardcore-r",
            "0.05", "--m", "1", "--out", tmp_path / "x",
        )
        assert code == 1
        assert "dense" in capsys.readouterr().err

    def test_non_converging_packing_names_replicate(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(simulate, "simulate_packing",
                            partial(simulate.simulate_packing, max_sweeps=1))
        code = run_cli(
            "simulate", "--model", "packing", "--rho", "500", "--hardcore-r",
            "0.05", "--m", "2", "--seed", "8", "--threads", "1", "--out", tmp_path / "x",
        )
        assert code == 1
        assert ("error: replicate (seed, i) = (8, 0): packing did not converge in 1 sweeps"
                in capsys.readouterr().err)


    @pytest.mark.parametrize("flag", ["--rho-l", "--alpha"])
    def test_zero_plcpp_intensity_is_refused(self, tmp_path, capsys, flag):
        code = run_cli("simulate", "--model", "plcpp", "--rho", "500", flag, "0",
                       "--sigma", "0.01", "--m", "1", "--out", tmp_path / "x")
        assert code == 1
        assert capsys.readouterr().err == "error: intensities must be positive\n"
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("command", ["simulate", "power"])
    @pytest.mark.parametrize("side", [1e-60, 1e120])
    def test_model_commands_refuse_window_out_of_float_scale(self, tmp_path, capsys, monkeypatch,
                                                            side, command, threads):
        # at 1e120 the Poisson mean rho * |W| overflows
        def unreachable(*args, **kwargs):
            raise AssertionError("the pool started")

        monkeypatch.setattr("aniso3d.cli.parallel_map", unreachable)
        monkeypatch.setattr("aniso3d.isotest.parallel_map", unreachable)
        out = tmp_path / "out"
        extra = ["--r2-grid", repr(0.1 * side)] if command == "power" else []
        code = run_cli(command, "--model", "poisson", "--rho", "1", "--m", "2",
                       "--window", ",".join(["0", repr(side)] * 3), *extra,
                       "--threads", threads, "--out", out)
        assert code == 1 and not out.exists()
        assert capsys.readouterr().err == (
            f"error: window sides {np.full(3, side)} are out of scale: their products and the "
            "squared volume must stay in the normal float range [2.22507e-308, 1.79769e+308]\n")


class TestEstimateCommand:
    @pytest.fixture()
    def campaign(self, tmp_path):
        out = tmp_path / "pats"
        run_cli("simulate", "--model", "poisson", "--rho", "300", "--m", "4",
                "--seed", "2", "--out", out)
        return out

    def test_single_kind_csv(self, campaign, tmp_path):
        out = tmp_path / "k.csv"
        code = run_cli("estimate", "--input", campaign, "--kind", "cylindrical",
                       "--grid", "32", "--r-max", "0.1", "--out", out)
        assert code == 0
        lines = out.read_text().splitlines()
        header = [l for l in lines if not l.startswith("#")][0]
        assert header == "r_cl,K_x,K_y,K_z"
        data = np.loadtxt([l for l in lines if not l.startswith("#")][1:], delimiter=",")
        assert data.shape == (32, 4)
        assert np.all(np.diff(data[:, 3]) >= 0.0)

    def test_both_kinds_header(self, campaign, tmp_path):
        out = tmp_path / "k2.csv"
        assert run_cli("estimate", "--input", campaign, "--grid", "8",
                       "--r-max", "0.05", "--out", out) == 0
        header = [l for l in out.read_text().splitlines() if not l.startswith("#")][0]
        assert header.split(",") == [
            "r_cl",
            "conical_K_x", "conical_K_y", "conical_K_z",
            "cylindrical_K_x", "cylindrical_K_y", "cylindrical_K_z",
        ]

    def test_columnar_z_curve_dominates(self, tmp_path):
        pats = tmp_path / "columnar"
        run_cli("simulate", "--model", "plcpp", "--rho", "500", "--rho-l", "200",
                "--sigma", "0.001", "--m", "30", "--seed", "6", "--out", pats)
        out = tmp_path / "k.csv"
        assert run_cli("estimate", "--input", pats, "--kind", "cylindrical",
                       "--grid", "16", "--r-max", "0.03", "--out", out) == 0
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        data = np.loadtxt(rows[1:], delimiter=",")
        upper = data[len(data) // 2:]  # radii large enough to hold pairs
        assert np.all(upper[:, 3] > upper[:, 1])
        assert np.all(upper[:, 3] > upper[:, 2])
        tail = data[-1]
        assert tail[3] > 1.2 * max(tail[1], tail[2])

    def test_refuses_out_of_range_radius(self, campaign, tmp_path, capsys, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("the pool started")

        monkeypatch.setattr("aniso3d._parallel.parallel_map", unreachable)
        code = run_cli("estimate", "--input", campaign, "--r-max", "0.6",
                       "--out", tmp_path / "x.csv")
        assert code == 1
        assert "error: --r-max 0.6 is out of range" in capsys.readouterr().err

    def test_refuses_sliver_below_validity_bound(self, campaign, tmp_path, capsys):
        # below 1/sqrt(5), where the cone's slant meets the side, but the
        # search extent reaches the side
        sliver = (1.0 / math.sqrt(5.0)) * (1.0 - 1e-12)
        out = tmp_path / "x.csv"
        code = run_cli("estimate", "--input", campaign, "--aspect", "2",
                       "--r-max", repr(sliver), "--grid", "8", "--out", out)
        err = capsys.readouterr().err
        assert code == 1 and not out.exists()
        assert "error: --r-max 0.447214 is out of range" in err
        shown = float(err.rsplit("--r-max < ", 1)[1])
        assert estimate.profile_extent(shown, 2.0) < 1.0
        assert run_cli("estimate", "--input", campaign, "--aspect", "2",
                       "--r-max", repr(shown), "--grid", "8", "--out", out) == 0

    def test_default_grid_is_default_r_grid(self, campaign, tmp_path):
        out = tmp_path / "k.csv"
        assert run_cli("estimate", "--input", campaign, "--aspect", "3",
                       "--grid", "16", "--out", out) == 0
        want = estimate.default_r_grid(unit_cube(), 3.0, 16)
        lines = out.read_text().splitlines()
        assert f"# r_max = {float(want[-1])!r}" in lines
        data = np.loadtxt([l for l in lines if not l.startswith("#")][1:], delimiter=",")
        assert data[:, 0].tobytes() == want.tobytes()

    # abbreviations too: flags are spelled in full, as config keys are
    @pytest.mark.parametrize("flag, value", [("--seed", "5"), ("--window", "0,2,0,2,0,2"),
                                             ("--r", "0.05"), ("--thr", "1")])
    def test_rejects_options_it_does_not_read(self, campaign, tmp_path, capsys, flag, value):
        with pytest.raises(SystemExit) as info:
            run_cli("estimate", "--input", campaign, "--r-max", "0.1", flag, value,
                    "--out", tmp_path / "x.csv")
        assert info.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", ["0", "1"])
    def test_rejects_grid_below_two(self, campaign, tmp_path, capsys, grid):
        out = tmp_path / "x.csv"
        code = run_cli("estimate", "--input", campaign, "--grid", grid,
                       "--r-max", "0.1", "--out", out)
        assert code == 1
        assert f"error: --grid needs at least 2 grid radii, got {grid}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("r_max", ["0", "-0.05"])
    def test_rejects_nonpositive_r_max(self, campaign, tmp_path, capsys, r_max):
        out = tmp_path / "x.csv"
        code = run_cli("estimate", "--input", campaign, "--grid", "8",
                       f"--r-max={r_max}", "--out", out)
        assert code == 1
        assert "error: --r-max must be positive" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("aspect, message", [
        ("1.5,2", "error: --aspect takes one aspect ratio for estimate, got '1.5,2'"),
        ("two", "error: --aspect expects numbers or lo:hi:n, got 'two'"),
    ])
    def test_rejects_bad_aspect(self, campaign, tmp_path, capsys, aspect, message):
        out = tmp_path / "x.csv"
        code = run_cli("estimate", "--input", campaign, "--aspect", aspect,
                       "--r-max", "0.1", "--out", out)
        assert code == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_bad_file_among_inputs_is_named(self, tmp_path, capsys):
        good, bad = tmp_path / "a.txt", tmp_path / "bad.txt"
        write_pattern(good, simulate_poisson(ModelSpec.poisson(50.0), unit_cube(), 1))
        bad.write_text("window 0 1 0 1 0 1\n0.1 0.2 0.3\n0.1 0.2 0.3\n")
        out = tmp_path / "x.csv"
        code = run_cli("estimate", "--input", f"{good},{bad}", "--r-max", "0.1", "--out", out)
        assert code == 1 and not out.exists()
        assert (f"error: {bad}: point pattern must be simple (no duplicate points)"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("command", ["estimate", "test"])
    def test_first_bad_file_in_input_order_is_named(self, tmp_path, capsys, command,
                                                     threads):
        # the pool jobs read the files; the first bad one in --input order is named
        paths = [tmp_path / f"{name}.txt" for name in ("a", "b", "c", "d")]
        for i, path in enumerate(paths[:2]):
            write_pattern(path, simulate_poisson(ModelSpec.poisson(50.0), unit_cube(), i))
        paths[2].write_text("window 0 1 0 1 0 1\n0.1 0.2\n")
        paths[3].write_text("window 0 1 0 1 0 1\n0.1 0.2 nope\n")
        out = tmp_path / "x.csv"
        extra = ["--r-max", "0.1"] if command == "estimate" else ["--r2-grid", "0.05"]
        order = (paths[0], paths[3], paths[1], paths[2])
        code = run_cli(command, "--input", ",".join(map(str, order)), *extra,
                       "--threads", threads, "--out", out)
        assert code == 1 and not out.exists()
        assert capsys.readouterr().err == (
            f"error: {paths[3]}:2: malformed coordinates '0.1 0.2 nope'\n")

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("command, what", [("estimate", "pooled patterns"),
                                               ("test", "replicates")])
    def test_foreign_window_is_refused_in_input_order(self, tmp_path, capsys, command, what,
                                                      threads):
        # the job that reads the 2x1x1 file refuses it, so a later file's fault
        # is not the one named, at any worker count
        paths = [tmp_path / f"{name}.txt" for name in ("cube", "wide", "nan")]
        write_pattern(paths[0], simulate_poisson(ModelSpec.poisson(50.0), unit_cube(), 1))
        wide = BoxWindow(np.zeros(3), np.array([2.0, 1.0, 1.0]))
        write_pattern(paths[1], simulate_poisson(ModelSpec.poisson(50.0), wide, 2))
        paths[2].write_text("window 0 1 0 1 0 1\n0.1 nan 0.3\n")
        out = tmp_path / "x.csv"
        extra = ["--r-max", "0.1"] if command == "estimate" else ["--r2-grid", "0.05"]
        code = run_cli(command, "--input", ",".join(map(str, paths)), *extra,
                       "--threads", threads, "--out", out)
        assert code == 1 and not out.exists()
        assert capsys.readouterr().err == (
            f"error: {what} must share the window shape: [2. 1. 1.] differs from [1. 1. 1.]\n")

    @pytest.mark.parametrize("command", ["estimate", "test"])
    def test_each_input_file_is_read_once(self, campaign, tmp_path, monkeypatch, command):
        reads = []
        read = patternio.read_pattern
        monkeypatch.setattr(patternio, "read_pattern",
                            lambda path: reads.append(str(path)) or read(path))
        extra = ["--r-max", "0.1"] if command == "estimate" else ["--r2-grid", "0.05"]
        assert run_cli(command, "--input", campaign, *extra, "--grid", "16",
                       "--threads", "1", "--out", tmp_path / "x.csv") == 0
        assert sorted(reads) == sorted(map(str, pattern_paths(campaign)))

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("command", ["estimate", "test"])
    @pytest.mark.parametrize("side", [1e-60, 1e120])
    def test_refuses_window_out_of_float_scale(self, tmp_path, capsys, side, command, threads):
        # at 1e-60 |W|^2 underflows to 0, and at 1e120 |W| overflows to inf
        paths = [tmp_path / f"{i}.txt" for i in range(2)]
        for i, path in enumerate(paths):
            write_pattern(path, uniform_cube(side, 300, seed=i))
        out = tmp_path / "x.csv"
        extra = [] if command == "estimate" else ["--r2-grid", repr(0.1 * side)]
        code = run_cli(command, "--input", f"{paths[0]},{paths[1]}", *extra,
                       "--threads", threads, "--out", out)
        assert code == 1 and not out.exists()
        assert capsys.readouterr().err == (
            f"error: window sides {np.full(3, side)} are out of scale: their products and the "
            "squared volume must stay in the normal float range [2.22507e-308, 1.79769e+308]\n")

    @pytest.mark.parametrize("argv", [
        ("estimate", "--r-max", "0.1"), ("estimate",),
        ("power", "--r2-grid", "0.01"), ("test", "--r2-grid", "0.01"),
    ])
    def test_refuses_aspect_whose_square_overflows(self, campaign, tmp_path, capsys, argv):
        out = tmp_path / "x.csv"
        code = run_cli(*argv, "--input", campaign, "--aspect", "1e200", "--out", out)
        assert code == 1 and not out.exists()
        assert "error: aspect ratio 1e+200 is too large: a^2 overflows" in capsys.readouterr().err

    def test_window_mismatch(self, tmp_path, capsys):
        d = tmp_path / "mix"
        d.mkdir()
        write_pattern(d / "a.txt", simulate_poisson(ModelSpec.poisson(50.0), unit_cube(), 1))
        other = BoxWindow(np.zeros(3), np.array([2.0, 1.0, 1.0]))
        write_pattern(d / "b.txt", simulate_poisson(ModelSpec.poisson(50.0), other, 2))
        code = run_cli("estimate", "--input", d, "--r-max", "0.1",
                       "--out", tmp_path / "x.csv")
        assert code == 1
        assert "window" in capsys.readouterr().err

    @pytest.mark.parametrize("directions", ["x,x", "z,x,z", "x,w", ""])
    def test_rejects_bad_directions(self, campaign, tmp_path, capsys, directions):
        out = tmp_path / "x.csv"
        code = run_cli("estimate", "--input", campaign, "--r-max", "0.1",
                       f"--directions={directions}", "--out", out)
        assert code == 1
        assert (f"error: --directions must be a comma list of distinct axes from x, y, z, "
                f"got {directions!r}" in capsys.readouterr().err)
        assert not out.exists()

    def test_rejects_empty_input_item(self, campaign, tmp_path, capsys):
        files = ",".join(str(campaign / f"pattern_{i:05d}.txt") for i in range(2)) + ","
        out = tmp_path / "x.csv"
        code = run_cli("estimate", "--input", files, "--r-max", "0.1", "--out", out)
        assert code == 1
        assert f"error: --input has an empty item, got {files!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_columns_equal_pooled_profile_bits(self, campaign, tmp_path, threads):
        write_pattern(campaign / "pattern_lone.txt",
                      PointPattern([[0.5, 0.5, 0.5]], unit_cube()))
        out = tmp_path / "k.csv"
        assert run_cli("estimate", "--input", campaign, "--grid", "24", "--r-max", "0.08",
                       "--aspect", "2.5", "--directions", "z,x,y",
                       "--threads", threads, "--out", out) == 0
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        header = rows[0].split(",")
        data = np.loadtxt(rows[1:], delimiter=",")
        patterns = read_patterns(campaign)
        assert patterns[-1].n == 1
        # the same replicates given by their files, and by campaign keys
        keys = [(ModelSpec.poisson(300.0), unit_cube(), 2, i) for i in range(4)]
        for sources in (patterns, pattern_paths(campaign), keys + patterns[-1:]):
            for kind in ("conical", "cylindrical"):
                for d, u in (("x", X_AXIS), ("y", Y_AXIS), ("z", Z_AXIS)):
                    pooled = pooled_profile(sources, u, kind, data[:, 0], 2.5)
                    npt.assert_array_equal(data[:, header.index(f"{kind}_K_{d}")],
                                           pooled.values)

    def test_one_pair_extraction_per_replicate(self, campaign, tmp_path, monkeypatch):
        calls = []
        extract = estimate._pair_keys
        monkeypatch.setattr(estimate, "_pair_keys",
                            lambda *args: calls.append(1) or extract(*args))
        assert run_cli("estimate", "--input", campaign, "--kind", "both", "--grid", "8",
                       "--r-max", "0.05", "--threads", "1", "--out", tmp_path / "k.csv") == 0
        assert len(calls) == 4


class TestTestAndPowerCommands:
    def test_power_csv_schema(self, tmp_path):
        out = tmp_path / "power.csv"
        code = run_cli(
            "power", "--model", "plcpp", "--rho", "500", "--rho-l", "200",
            "--sigma", "0.001", "--m", "12", "--seed", "4",
            "--r2-grid", "0.005,0.01", "--grid", "64", "--out", out,
        )
        assert code == 0
        lines = out.read_text().splitlines()
        header = [l for l in lines if not l.startswith("#")][0]
        assert header == "a,r2,power_conical,power_cylindrical,m,seed"
        rows = [l.split(",") for l in lines if not l.startswith("#")][1:]
        assert len(rows) == 2
        assert rows[0][4] == "12" and rows[0][5] == "4"

    def test_test_command_on_directory(self, tmp_path):
        pats = tmp_path / "pats"
        run_cli("simulate", "--model", "poisson", "--rho", "300", "--m", "6",
                "--seed", "8", "--out", pats)
        out = tmp_path / "test.csv"
        code = run_cli("test", "--input", pats, "--r2-grid", "0.06",
                       "--kind", "cylindrical", "--grid", "64", "--out", out)
        assert code == 0
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert rows[0] == "a,r2,power_conical,power_cylindrical,m,seed"
        a, r2, p_cn, p_cl, m, seed = rows[1].split(",")
        assert m == "6" and float(p_cl) <= 1.0 and p_cn == "nan"

    def test_test_refuses_sliver_below_validity_bound(self, tmp_path, capsys):
        pats = tmp_path / "pats"
        run_cli("simulate", "--model", "poisson", "--rho", "100", "--m", "2",
                "--seed", "8", "--out", pats)
        sliver = (1.0 / math.sqrt(5.0)) * (1.0 - 1e-12)
        out = tmp_path / "test.csv"
        code = run_cli("test", "--input", pats, "--aspect", "2",
                       "--r2-grid", f"0.05,{sliver!r}", "--out", out)
        assert code == 1 and not out.exists()
        err = capsys.readouterr().err
        assert "error: --r2-grid entry 0.447214 is out of range" in err
        assert "choose --r2-grid entry < 0.447213" in err

    def test_power_refuses_r2_before_simulating(self, tmp_path, capsys, monkeypatch):
        # checked against the compressed window: its smallest side is 0.7
        def unreachable(*args, **kwargs):
            raise AssertionError("the campaign was simulated")

        monkeypatch.setattr("aniso3d.simulate.simulate_model", unreachable)
        out = tmp_path / "power.csv"
        code = run_cli("power", "--model", "packing", "--rho", "500", "--hardcore-r", "0.05",
                       "--compress-c", "0.7", "--m", "64", "--r2-grid", "0.02,0.6",
                       "--out", out)
        assert code == 1 and not out.exists()
        err = capsys.readouterr().err
        assert "error: --r2-grid entry 0.6 is out of range" in err
        assert "choose --r2-grid entry < 0.313049" in err
        # one replicate is refused before it is simulated, too, naming its flag
        code = run_cli("power", "--model", "poisson", "--rho", "100", "--m", "1",
                       "--r2-grid", "0.05", "--out", out)
        assert code == 1 and not out.exists()
        assert capsys.readouterr().err == (
            "error: --m needs at least 2 replicates for the test, got 1\n")
        one = tmp_path / "one.txt"
        write_pattern(one, simulate_poisson(ModelSpec.poisson(50.0), unit_cube(), 1))
        code = run_cli("test", "--input", one, "--r2-grid", "0.05", "--out", out)
        assert code == 1 and not out.exists()
        assert capsys.readouterr().err == (
            "error: --input needs at least 2 replicates for the test, got 1\n")

    def test_aspect_sweep_rows(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run_cli(
            "power", "--model", "poisson", "--rho", "200", "--m", "6",
            "--seed", "1", "--aspect", "1.5,2.5", "--r2-grid", "0.04,0.08",
            "--kind", "cylindrical", "--grid", "32", "--out", out,
        )
        assert code == 0
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")][1:]
        assert len(rows) == 4  # two aspects x two bounds
        assert {r.split(",")[0] for r in rows} == {"1.5", "2.5"}

    def test_power_threads_identical_csv(self, tmp_path):
        blobs = []
        for threads in ("1", "2"):
            out = tmp_path / f"p{threads}.csv"
            assert run_cli(
                "power", "--model", "poisson", "--rho", "200", "--m", "8",
                "--seed", "2", "--r2-grid", "0.03,0.06", "--grid", "32",
                "--out", out, "--threads", threads,
            ) == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    def test_aspect_sweep_matches_single_aspect_runs(self, tmp_path):
        common = ("power", "--model", "plcpp", "--rho", "400", "--rho-l", "150",
                  "--sigma", "0.002", "--m", "8", "--seed", "3",
                  "--r2-grid", "0.01,0.03", "--grid", "48", "--threads", "1")
        tables = []
        for aspect in ("2.5,1.5", "2.5", "1.5"):
            out = tmp_path / f"a{aspect}.csv"
            assert run_cli(*common, "--aspect", aspect, "--out", out) == 0
            tables.append([l for l in out.read_text().splitlines() if not l.startswith("#")])
        both, first, second = tables
        assert both == first + second[1:]

    def test_rejects_empty_aspect_list(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = run_cli("power", "--model", "poisson", "--rho", "100", "--m", "4",
                       "--aspect", "", "--r2-grid", "0.05", "--out", out)
        assert code == 1
        assert "error: --aspect needs at least one value, got ''" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("bounds", ["0.02:0.1:0", "0.02:0.1:-2", " , "])
    def test_rejects_empty_r2_grid(self, tmp_path, capsys, bounds):
        out = tmp_path / "x.csv"
        code = run_cli("power", "--model", "poisson", "--rho", "100", "--m", "4",
                       "--r2-grid", bounds, "--out", out)
        assert code == 1
        assert (f"error: --r2-grid needs at least one value, got {bounds!r}"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--r2-grid", "0.02:0.1"), ("--r2-grid", "0.02:x:3"), ("--r2-grid", "0.02:0.1:2.5"),
        ("--r2-grid", "0.02,oops"), ("--aspect", "2;3"),
    ])
    def test_malformed_list_names_flag(self, tmp_path, capsys, flag, value):
        out = tmp_path / "x.csv"
        args = {"--r2-grid": "0.05", "--aspect": "2", flag: value}
        code = run_cli("power", "--model", "poisson", "--rho", "100", "--m", "4",
                       *[x for item in args.items() for x in item], "--out", out)
        assert code == 1
        assert (f"error: {flag} expects numbers or lo:hi:n, got {value!r}"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_comma_input_matches_directory(self, tmp_path):
        pats = tmp_path / "pats"
        run_cli("simulate", "--model", "plcpp", "--rho", "300", "--rho-l", "100",
                "--sigma", "0.01", "--m", "3", "--seed", "8", "--out", pats)
        files = ",".join(str(pats / f"pattern_{i:05d}.txt") for i in range(3))
        tables = []
        for source in (pats, files):
            out = tmp_path / "test.csv"
            assert run_cli("test", "--input", source, "--r2-grid", "0.03,0.06",
                           "--grid", "32", "--out", out) == 0
            # the input echo names the source; every other byte is shared
            tables.append(out.read_text().replace(f"# input = {source}\n", ""))
        assert tables[0] == tables[1]

    @pytest.mark.parametrize("window", ["0:1:6", "0,1,0,1,0", "0,1,0,1,0,1,2",
                                        "0,inf,0,1,0,1", "0,1,0,1,0,one"])
    def test_window_takes_six_plain_numbers(self, tmp_path, capsys, window):
        out = tmp_path / "x.csv"
        code = run_cli("power", "--model", "poisson", "--rho", "100", "--m", "4",
                       f"--window={window}", "--r2-grid", "0.05", "--out", out)
        assert code == 1
        err = capsys.readouterr().err
        assert f"error: --window needs 6 numbers x0,x1,y0,y1,z0,z1, got {window!r}" in err
        assert "lo:hi:n" not in err
        assert not out.exists()

    def test_window_accepts_spaces(self, tmp_path):
        out = tmp_path / "c"
        assert run_cli("simulate", "--model", "poisson", "--rho", "100", "--m", "1",
                       "--window", "0 2 0 1 0 1", "--out", out) == 0
        assert read_pattern(out / "pattern_00000.txt").window.sides.tolist() == [2.0, 1.0, 1.0]

    def test_missing_r2_grid(self, tmp_path, capsys):
        code = run_cli("power", "--model", "poisson", "--rho", "100", "--m", "4",
                       "--out", tmp_path / "x.csv")
        assert code == 1
        assert "r2-grid" in capsys.readouterr().err


class TestConfigFile:
    def test_config_supplies_defaults_flags_win(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(
            "model = poisson\nrho = 150\nm = 3\nseed = 7\n"
        )
        out = tmp_path / "c1"
        assert run_cli("simulate", "--config", config, "--out", out) == 0
        assert len(list(out.glob("pattern_*.txt"))) == 3
        out2 = tmp_path / "c2"
        assert run_cli("simulate", "--config", config, "--m", "5", "--out", out2) == 0
        assert len(list(out2.glob("pattern_*.txt"))) == 5

    def test_bad_config_line(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("model poisson\n")
        code = run_cli("simulate", "--config", config, "--out", tmp_path / "x")
        assert code == 1
        assert "key = value" in capsys.readouterr().err

    def test_unknown_key_names_its_line(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("model = poisson\nrhoo = 5\n")
        code = run_cli("simulate", "--config", config, "--rho", "5", "--m", "1",
                       "--out", tmp_path / "x")
        assert code == 1
        assert f"error: {config}:2: unknown option 'rhoo'" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_key_given_twice_names_its_line(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("model = poisson\nrho = 100\nm = 1\nrho = 300\n")
        code = run_cli("simulate", "--config", config, "--out", tmp_path / "x")
        assert code == 1
        assert f"error: {config}:4: option 'rho' is given twice" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_keys_of_other_commands_are_accepted(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("model = poisson\nrho = 150\nm = 2\nr2-grid = 0.05\ndirections = z\n")
        assert run_cli("simulate", "--config", config, "--out", tmp_path / "c") == 0

    def test_keys_of_other_models_stay_unread(self, tmp_path):
        # a plcpp manifest serves a poisson run given by flags
        config = tmp_path / "run.cfg"
        config.write_text("model = plcpp\nrho = 300\nrho_l = 100\nsigma = 0.01\nm = 2\n")
        assert run_cli("simulate", "--config", config, "--model", "poisson",
                       "--out", tmp_path / "c") == 0

    def test_manifest_is_a_config(self, tmp_path):
        flags = ["--model", "plcpp", "--rho", "300", "--rho-l", "100", "--sigma", "0.01",
                 "--compress-c", "0.8", "--m", "3", "--seed", "6",
                 "--window", "0,1.5,0,1,0.25,1.25"]
        camp = tmp_path / "camp"
        assert run_cli("simulate", *flags, "--out", camp) == 0
        manifest = camp / "manifest.txt"
        again = tmp_path / "again"
        assert run_cli("simulate", "--config", manifest, "--out", again) == 0
        assert sorted(os.listdir(again)) == sorted(os.listdir(camp))
        for name in os.listdir(camp):
            assert (again / name).read_bytes() == (camp / name).read_bytes(), name

        sweep = ("--r2-grid", "0.03,0.05", "--grid", "32", "--threads", "1")
        assert run_cli("power", "--config", manifest, *sweep, "--out", tmp_path / "a.csv") == 0
        assert run_cli("power", *flags, *sweep, "--out", tmp_path / "b.csv") == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

        # next to --input the manifest's model keys stay unread; its seed labels the CSV
        out = tmp_path / "t.csv"
        assert run_cli("test", "--config", manifest, "--input", camp, *sweep, "--out", out) == 0
        rows = [l.split(",") for l in out.read_text().splitlines() if not l.startswith("#")]
        assert [r[4:] for r in rows[1:]] == [["3", "6"], ["3", "6"]]


    @pytest.mark.parametrize("flags", [
        ["--model", "poisson", "--rho", "100"],
        ["--model", "matern", "--rho", "300", "--hardcore-r", "0.05", "--compress-c", "0.8"],
        ["--model", "packing", "--rho", "200", "--hardcore-r", "0.05"],
    ], ids=["poisson", "matern", "packing"])
    def test_manifest_of_every_model_is_a_config(self, tmp_path, flags):
        camp = tmp_path / "camp"
        common = ("--m", "2", "--seed", "4", "--threads", "1")
        assert run_cli("simulate", *flags, *common, "--out", camp) == 0
        again = tmp_path / "again"
        assert run_cli("simulate", "--config", camp / "manifest.txt", "--threads", "1",
                       "--out", again) == 0
        assert sorted(os.listdir(again)) == sorted(os.listdir(camp))
        for name in os.listdir(camp):
            assert (again / name).read_bytes() == (camp / name).read_bytes(), name


class TestOptionTable:
    def test_each_command_takes_the_flags_the_table_gives_it(self):
        parser = cli._build_parser()
        for command in cli._COMMANDS:
            assert parser.parse_args([command, "--config", "c"]).config == "c"
            for name, option in cli._OPTIONS.items():
                argv = [command, "--" + name.replace("_", "-"), "1"]
                if command in option.commands:
                    # flags stay text, so that a flag and a config value parse alike
                    assert getattr(parser.parse_args(argv), name) == "1"
                else:
                    with pytest.raises(SystemExit):
                        parser.parse_args(argv)

    @pytest.fixture(scope="class")
    def campaign(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("options") / "camp"
        assert run_cli("simulate", "--model", "poisson", "--rho", "100", "--m", "3",
                       "--seed", "4", "--out", out) == 0
        return out

    @pytest.mark.parametrize("command, extra, config, message", [
        ("estimate", ["--aspect", "1"], None, "--aspect values must exceed 1.0, got '1'"),
        ("test", ["--aspect", "1.5,1"], None, "--aspect values must exceed 1.0, got '1.5,1'"),
        ("test", ["--r2-grid", "-0.1"], None,
         "--r2-grid values must be positive and strictly ascending, got '-0.1'"),
        ("test", ["--r2-grid", "0.05,0.03"], None,
         "--r2-grid values must be positive and strictly ascending, got '0.05,0.03'"),
        ("test", ["--level", "1.5"], None, "--level must lie in (0, 1), got 1.5"),
        ("test", ["--grid", "1"], None, "--grid needs at least 2 grid radii, got 1"),
        ("simulate", ["--m", "0"], None, "--m needs at least 1 replicate, got 0"),
        ("simulate", ["--m", "2.5"], None, "--m expects a whole number, got '2.5'"),
        ("power", ["--rho", "abc"], None, "--rho expects a number, got 'abc'"),
        ("power", ["--model", "cubic"], None,
         "--model must be one of poisson, plcpp, matern, packing, got 'cubic'"),
        ("estimate", ["--kind", "diag"], None,
         "--kind must be one of conical, cylindrical, both, got 'diag'"),
        ("estimate", [], "kind = diag\n",
         "--kind must be one of conical, cylindrical, both, got 'diag'"),
        ("test", ["--model", "poisson", "--rho", "5", "--m", "9", "--seed", "3"], None,
         "--input excludes the model flags, got --model, --rho, --m"),
        ("estimate", ["--threads", "-3"], None, "--threads needs at least 1 worker, got -3"),
        ("simulate", [], "threads = 0\n", "--threads needs at least 1 worker, got 0"),
        # non-finite numbers; a later --model replaces the base's poisson
        ("power", ["--model", "plcpp", "--rho-l", "200", "--sigma", "nan"], None,
         "--sigma expects a finite number, got 'nan'"),
        ("power", ["--model", "plcpp", "--sigma", "0.01"], "rho_l = nan\n",
         "--rho-l expects a finite number, got 'nan'"),
        ("test", ["--level", "inf"], None, "--level expects a finite number, got 'inf'"),
        ("estimate", ["--aspect", "inf"], None, "--aspect expects finite numbers, got 'inf'"),
        ("power", ["--aspect", "2,inf"], None, "--aspect expects finite numbers, got '2,inf'"),
        ("test", ["--r2-grid", "0:inf:5"], None,
         "--r2-grid expects finite numbers, got '0:inf:5'"),
        ("simulate", ["--seed", "-1"], None, "--seed must be at least 0, got -1"),
        ("test", ["--seed", "-1"], None, "--seed must be at least 0, got -1"),
        ("power", [], "seed = -1\n", "--seed must be at least 0, got -1"),
        # flags of other models, given directly or as another model's flag set
        ("power", ["--sigma", "nan", "--hardcore-r", "-3"], None,
         "--model poisson does not take --sigma, --hardcore-r"),
        ("simulate", ["--model", "packing", "--hardcore-r", "0.05", "--rho-l", "200",
                      "--alpha", "2.5", "--sigma", "0.01"], None,
         "--model packing does not take --rho-l, --alpha, --sigma"),
        ("power", ["--model", "plcpp", "--rho-l", "200", "--sigma", "0.01",
                   "--hardcore-r", "0.05"], None, "--model plcpp does not take --hardcore-r"),
    ])
    def test_bad_value_names_its_flag(self, campaign, tmp_path, capsys, command, extra,
                                      config, message):
        base = {
            "simulate": ["--model", "poisson", "--rho", "100", "--m", "2"],
            "estimate": ["--input", campaign, "--r-max", "0.1"],
            "test": ["--input", campaign, "--r2-grid", "0.05"],
            "power": ["--model", "poisson", "--rho", "100", "--m", "2", "--r2-grid", "0.05"],
        }[command]
        if config is not None:
            (tmp_path / "run.cfg").write_text(config)
            extra = extra + ["--config", tmp_path / "run.cfg"]
        out = tmp_path / "out"
        assert run_cli(command, *base, *extra, "--out", out) == 1
        assert f"error: {message}\n" in capsys.readouterr().err
        assert not out.exists()


def test_every_tracer_only_import_is_wrapped():
    """Each import that a module keeps only for the tracer is one that
    perfbench/tracecli.py wraps, so that no such import outlives its wrapper."""
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("tracecli", root / "perfbench" / "tracecli.py")
    tracecli = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracecli)
    wrapped = {(module_name, attr) for module_name, attr, _, _ in tracecli._ALL}
    kept = []
    for path in sorted((root / "src" / "aniso3d").glob("*.py")):
        lines = path.read_text().splitlines()
        for node in ast.walk(ast.parse("\n".join(lines))):
            if (isinstance(node, ast.ImportFrom) and lines[node.end_lineno - 1].endswith(
                    "# unused; perfbench/tracecli.py wraps this name")):
                kept += [(f"aniso3d.{path.stem}", alias.asname or alias.name)
                         for alias in node.names]
    assert kept
    assert [name for name in kept if name not in wrapped] == []


class TestTraceHooks:
    def test_every_traced_name_resolves(self):
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracecli.py"
        spec = importlib.util.spec_from_file_location("tracecli", path)
        tracecli = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracecli)
        assert tracecli._ALL
        for module_name, attr, _, _ in tracecli._ALL:
            assert callable(getattr(importlib.import_module(module_name), attr)), (
                f"{module_name}.{attr}")

    @pytest.mark.parametrize("mode, threads, want", [
        # the modes perfbench/run.py traces with; at --threads 2 the replicates
        # are generated in pool workers, whose spans the tracer does not record
        ("all", 1, {"parallel.parallel_map": 1, "simulate.simulate_model": 4}),
        ("parallel", 2, {"parallel.parallel_map": 1, "simulate.simulate_model": 0}),
    ])
    def test_traced_power_counts_its_spans(self, tmp_path, mode, threads, want):
        """One span per call the tracer wraps: `power --model` maps its replicates
        once, each job simulating one replicate and reducing it to statistics."""
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(root / "src"), os.environ.get("PYTHONPATH", "")]))
        spans = tmp_path / "spans.json"
        subprocess.run(
            [sys.executable, str(root / "perfbench" / "tracecli.py"), str(spans), mode,
             "power", "--model", "packing", "--rho", "100", "--hardcore-r", "0.05",
             "--m", "4", "--r2-grid", "0.02:0.1:5", "--threads", str(threads),
             "--out", str(tmp_path / "power.csv")],
            env=env, cwd=tmp_path, capture_output=True, timeout=120, check=True)
        names = [row[0] for row in json.loads(spans.read_text())]
        assert {name: names.count(name) for name in want} == want
