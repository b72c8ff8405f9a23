"""Tests for pattern file I/O and the command-line interface."""

import os
from functools import partial

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from aniso3d import simulate
from aniso3d.cli import main
from aniso3d.patternio import read_pattern, read_patterns, write_pattern
from aniso3d.simulate import BoxWindow, PointPattern, simulate_poisson, unit_cube


class TestPatternFiles:
    def test_round_trip_exact(self, tmp_path):
        pattern = simulate_poisson(200.0, unit_cube(), 55)
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

    def test_read_directory_sorted(self, tmp_path):
        for i in (1, 0):
            write_pattern(
                tmp_path / f"pattern_{i}.txt",
                PointPattern(np.array([[0.5, 0.5, 0.1 + i / 2.0]]), unit_cube()),
            )
        pats = read_patterns(tmp_path)
        assert len(pats) == 2
        assert pats[0].points[0, 2] == pytest.approx(0.1)


def run_cli(*argv):
    return main([str(a) for a in argv])


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

    def test_refuses_out_of_range_radius(self, campaign, tmp_path, capsys):
        code = run_cli("estimate", "--input", campaign, "--r-max", "0.6",
                       "--out", tmp_path / "x.csv")
        assert code == 1
        assert "out of range" in capsys.readouterr().err

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

    def test_window_mismatch(self, tmp_path, capsys):
        d = tmp_path / "mix"
        d.mkdir()
        write_pattern(d / "a.txt", simulate_poisson(50.0, unit_cube(), 1))
        other = BoxWindow(np.zeros(3), np.array([2.0, 1.0, 1.0]))
        write_pattern(d / "b.txt", simulate_poisson(50.0, other, 2))
        code = run_cli("estimate", "--input", d, "--r-max", "0.1",
                       "--out", tmp_path / "x.csv")
        assert code == 1
        assert "window" in capsys.readouterr().err


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
