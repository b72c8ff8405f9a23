#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the aniso3d command-line pipeline.

Run from the repository root (no install needed; the CLI runs from ./src):

    python3 perfbench/run.py --workload packing-power --seed 20161 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all              # every workload in turn

Each workload is a fixed list of CLI invocations whose arguments are made
from ``--seed``; the program sees nothing else.  With ``--trace 0`` the
list runs again and again at ``--threads 1`` and at ``--threads nproc``
until ``--seconds`` is spent, and the end-to-end metrics are medians over
those repetitions.  With ``--trace 1`` the list runs under
``perfbench/tracecli.py``, which times each module's public functions from
outside the package, and the per-layer metrics are printed instead.

Every invocation is one operation.  It fails if it exits non-zero, if its
output fails the workload's check, or if its output differs by any byte
from the first run of the same seed, at any process count.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See perfbench/README.md.
"""

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

DEFAULT_SEED = 20161
# Not used while the benchmark or any optimisation was tuned: re-check
# claimed gains on it.
HELDOUT_SEED = 90417

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
TRACER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "tracecli.py")
NPROC = len(os.sched_getaffinity(0))
RUN_LIMIT_S = 170.0   # a run must end within 180 s
SETUP_SAMPLES = 5
MIN_REPS = 2

# ---------------------------------------------------------------- checks


def _read_table(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    return rows[0], rows[1:]


def check_power_csv(path, n_rows):
    """A power/test table: |aspects| x |r2 bounds| rows, powers in [0, 1]."""
    header, rows = _read_table(path)
    if header != ["a", "r2", "power_conical", "power_cylindrical", "m", "seed"]:
        return f"unexpected header {header}"
    if len(rows) != n_rows:
        return f"{len(rows)} rows, expected {n_rows}"
    for row in rows:
        if not all(0.0 <= float(p) <= 1.0 for p in row[2:4]):
            return f"power outside [0, 1] in row {row}"
    return None


def check_estimate_csv(path, n_rows, n_cols):
    """K columns nonnegative and nondecreasing in r_cl (nested elements)."""
    header, rows = _read_table(path)
    if header[0] != "r_cl" or len(header) != n_cols:
        return f"unexpected header {header}"
    if len(rows) != n_rows:
        return f"{len(rows)} rows, expected {n_rows}"
    table = [[float(v) for v in row] for row in rows]
    for col in range(n_cols):
        values = [row[col] for row in table]
        if values[0] < 0.0 or any(b < a for a, b in zip(values, values[1:])):
            return f"column {header[col]} is negative or decreasing"
    return None


def check_campaign(path, m):
    """m readable pattern files (window line, then x y z points) plus manifest.txt."""
    names = sorted(os.listdir(path))
    patterns = [n for n in names if n.startswith("pattern_") and n.endswith(".txt")]
    if "manifest.txt" not in names or len(patterns) != m:
        return f"{len(patterns)} pattern files and manifest {'manifest.txt' in names}, expected {m}"
    for name in patterns:
        with open(os.path.join(path, name)) as fh:
            lines = [line.split() for line in fh if not line.startswith("#")]
        if not lines or lines[0][0] != "window" or len(lines[0]) != 7:
            return f"{name}: no window line"
        for fields in lines[1:]:
            if len(fields) != 3 or not all(math.isfinite(float(v)) for v in fields):
                return f"{name}: bad point line {fields}"
    return None


# ------------------------------------------------------------- workloads


@dataclass(frozen=True)
class Command:
    args: list      # CLI arguments, without --threads
    output: str     # file or directory the command writes, relative to WORK
    check: object   # output path -> error text or None


@dataclass(frozen=True)
class Workload:
    name: str
    m: int          # replicates in the workload
    make: object    # seed -> list of Command

    def commands(self, seed):
        return self.make(seed, self.m)


R2_BOUNDS = 25


def _packing_power(seed, m):
    return [Command(
        ["power", "--model", "packing", "--rho", "500", "--hardcore-r", "0.05",
         "--compress-c", "0.7", "--m", str(m), "--aspect", "2",
         "--r2-grid", f"0.02:0.14:{R2_BOUNDS}", "--kind", "both", "--seed", str(seed),
         "--out", "power.csv"],
        "power.csv", lambda p: check_power_csv(p, 1 * R2_BOUNDS))]


def _columnar_sweep(seed, m):
    return [Command(
        ["power", "--model", "plcpp", "--rho", "500", "--rho-l", "200", "--sigma", "0.001",
         "--m", str(m), "--aspect", "1.5,2,2.5,3", "--r2-grid", f"0.002:0.1:{R2_BOUNDS}",
         "--kind", "both", "--seed", str(seed), "--out", "power.csv"],
        "power.csv", lambda p: check_power_csv(p, 4 * R2_BOUNDS))]


def _disk_campaign(seed, m):
    return [
        Command(["simulate", "--model", "matern", "--rho", "500", "--hardcore-r", "0.05",
                 "--compress-c", "0.7", "--m", str(m), "--seed", str(seed),
                 "--out", "campaign"],
                "campaign", lambda p: check_campaign(p, m)),
        Command(["estimate", "--input", "campaign", "--kind", "both", "--aspect", "2",
                 "--r-max", "0.1", "--grid", "512", "--out", "estimate.csv"],
                "estimate.csv", lambda p: check_estimate_csv(p, 512, 7)),
        Command(["test", "--input", "campaign", "--kind", "both", "--aspect", "2",
                 "--r2-grid", f"0.02:0.1:{R2_BOUNDS}", "--out", "test.csv"],
                "test.csv", lambda p: check_power_csv(p, 1 * R2_BOUNDS)),
    ]


WORKLOADS = {w.name: w for w in [
    Workload("packing-power", 16, _packing_power),
    Workload("columnar-sweep", 60, _columnar_sweep),
    Workload("disk-campaign", 60, _disk_campaign),
]}

# ------------------------------------------------------------ processes


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def _kill_group(pid):
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(argv, cwd, deadline, log):
    """Run argv to completion; return (exit code, wall s, peak RSS kB of its tree)."""
    t0 = time.perf_counter()
    with open(log, "w") as out:
        proc = subprocess.Popen(argv, cwd=cwd, env=_env(), stdout=out,
                                stderr=subprocess.STDOUT, start_new_session=True)
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), _kill_group, (proc.pid,))
    watchdog.start()
    try:
        # wait4 reports the largest RSS of the child and of every pool
        # worker it waited for.
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)  # stray workers of a killed run
    return proc.returncode, wall, usage.ru_maxrss


_SETUP_PROBE = """\
import time
import aniso3d.cli as cli
cli._build_parser()
ready = time.clock_gettime(time.CLOCK_MONOTONIC)
import json, sys, numpy, scipy
print(json.dumps({"ready": ready, "cli": cli.__file__, "python": sys.version.split()[0],
                  "numpy": numpy.__version__, "scipy": scipy.__version__}))
"""


def measure_setup(deadline):
    """Seconds from launching an interpreter until aniso3d.cli can parse."""
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    done = subprocess.run([sys.executable, "-c", _SETUP_PROBE], cwd=ROOT, env=_env(),
                          capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if done.returncode != 0:
        raise RuntimeError(f"aniso3d.cli does not import:\n{done.stderr}")
    info = json.loads(done.stdout)
    if not os.path.abspath(info["cli"]).startswith(SRC + os.sep):
        raise RuntimeError(f"imported {info['cli']}, not the copy under {SRC}")
    return info.pop("ready") - t0, info


# --------------------------------------------------------- running a list


def digest(path):
    h = hashlib.sha256()
    if os.path.isdir(path):
        for name in sorted(os.listdir(path)):
            h.update(name.encode() + b"\0")
            with open(os.path.join(path, name), "rb") as fh:
                h.update(fh.read())
    else:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


@dataclass
class Ledger:
    """Operations attempted and failed, and the reference output digests."""

    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)   # output -> sha256 of its first checked run

    def fail(self, what):
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(what)


@dataclass
class Pass:
    """One pass over a workload's command list at one process count."""

    walls: list
    rss_kb: int
    spans: list


def run_pass(wl, seed, threads, ledger, deadline, trace=None):
    """Run every command once in a fresh work dir; trace is None, 'all' or 'parallel'."""
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    walls, rss, spans = [], 0, []
    for i, cmd in enumerate(wl.commands(seed)):
        argv = cmd.args + ["--threads", str(threads)]
        spans_path = os.path.join(WORK, f"spans-{i}.json")
        if trace:
            argv = [sys.executable, TRACER, spans_path, trace] + argv
        else:
            argv = [sys.executable, "-m", "aniso3d.cli"] + argv
        log = os.path.join(WORK, f"log-{i}.txt")
        code, wall, peak = spawn(argv, WORK, deadline, log)
        walls.append(wall)
        rss = max(rss, peak)
        ledger.attempted += 1
        label = f"{wl.name} {cmd.args[0]} threads={threads}{' traced' if trace else ''}"
        out = os.path.join(WORK, cmd.output)
        if code != 0 or not os.path.exists(out):
            with open(log) as fh:
                ledger.fail(f"{label}: exit {code}: {fh.read()[-400:]}")
            continue
        if trace:
            with open(spans_path) as fh:
                spans.append(json.load(fh))
        sha = digest(out)
        ref = ledger.digests.get(cmd.output)
        if ref is None:
            try:
                error = cmd.check(out)
            except (ValueError, IndexError, OSError) as exc:
                error = f"unreadable output: {exc!r}"
            if error:
                ledger.fail(f"{label}: {error}")
            else:
                ledger.digests[cmd.output] = sha
        elif sha != ref:
            ledger.fail(f"{label}: output differs from the first run of this seed")
    return Pass(walls, rss, spans)


def repeat(body, seconds, start):
    """Call body() at least MIN_REPS times, then while a typical call still fits."""
    took = []
    while len(took) < MIN_REPS or time.monotonic() - start + statistics.median(took) <= seconds:
        t0 = time.monotonic()
        body()
        took.append(time.monotonic() - t0)


# ------------------------------------------------------ end-to-end metrics


def end_to_end(wl, seed, seconds, ledger, deadline, record):
    start = time.monotonic()
    setups = [measure_setup(deadline)[0] for _ in range(SETUP_SAMPLES)]
    one, many = [], []

    def body():
        one.append(run_pass(wl, seed, 1, ledger, deadline))
        many.append(run_pass(wl, seed, NPROC, ledger, deadline))

    repeat(body, seconds, start)
    record["command_walls_s"] = {
        "1p": [[round(w, 4) for w in p.walls] for p in one],
        "np": [[round(w, 4) for w in p.walls] for p in many],
    }
    return {
        "replicates_per_s": (statistics.median(wl.m / sum(p.walls) for p in one), "1/s"),
        "replicates_per_s.np": (statistics.median(wl.m / sum(p.walls) for p in many), "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(max(a.rss_kb, b.rss_kb) for a, b in zip(one, many))
                        / 1024.0, "MB"),
    }


# -------------------------------------------------------- per-layer metrics


def aggregate(span_lists):
    """name -> calls, busy s, self s, summed counts and call durations."""
    stats = {}
    for spans in span_lists:
        child = [0.0] * len(spans)
        for name, t0, t1, parent, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for i, (name, t0, t1, parent, counts) in enumerate(spans):
            s = stats.setdefault(name, {"calls": 0, "busy": 0.0, "self": 0.0,
                                        "counts": {}, "durs": []})
            s["calls"] += 1
            s["busy"] += t1 - t0
            s["self"] += t1 - t0 - child[i]
            s["durs"].append(t1 - t0)
            for key, value in counts.items():
                s["counts"][key] = s["counts"].get(key, 0) + value
    return stats


_EMPTY = {"calls": 0, "busy": 0.0, "self": 0.0, "counts": {}, "durs": []}
LAYERS = ("simulate", "estimate", "isotest", "patternio", "parallel", "cli")
# Work counts that must repeat exactly between traced runs of one seed.
EXACT = ("simulate.simulate_model.calls", "simulate.points", "estimate.pattern_pairs.calls",
         "estimate.pattern_pairs.calls_per_replicate", "estimate.pairs",
         "estimate.pair_numerators.calls", "estimate.pair_numerators.mb_computed",
         "isotest.power_curve_from_patterns.calls", "isotest.decisions",
         "patternio.bytes_written", "patternio.bytes_read")


def _rate(amount, seconds):
    return amount / seconds if seconds > 0 else 0.0


def call_times(durs):
    """Median and tail of call times, the tail being the highest nearest-rank
    percentile with at least 10 calls above it."""
    durs = sorted(durs) or [0.0]
    n = len(durs)
    rank = max(n - 10, 1)
    return {
        "simulate.simulate_model.call_ms.p50": (1e3 * statistics.median(durs), "ms"),
        "simulate.simulate_model.call_ms.tail": (1e3 * durs[rank - 1], "ms"),
        "simulate.simulate_model.call_ms.tail_pct": (100.0 * rank / n, "%"),
        "simulate.simulate_model.call_ms.n": (n, "count"),
    }


def layer_metrics(stats, m):
    """Metrics of one traced 1-process pass."""
    def s(name):
        return stats.get(name, _EMPTY)

    def count(name, key):
        return s(name)["counts"].get(key, 0)

    model = s("simulate.simulate_model")
    numer = s("estimate.pair_numerators")
    write, read = s("patternio.write_pattern"), s("patternio.read_pattern")
    total = sum(v["busy"] for k, v in stats.items() if k.startswith("cli."))
    layer_self = {layer: sum(v["self"] for k, v in stats.items() if k.startswith(layer + "."))
                  for layer in LAYERS}
    out = {
        "simulate.simulate_model.calls": (model["calls"], "count"),
        "simulate.simulate_model.busy_s": (model["busy"], "s"),
        "simulate.compress.busy_s": (s("simulate.compress")["busy"], "s"),
        "simulate.points": (count("simulate.simulate_model", "points"), "count"),
        "estimate.pattern_pairs.calls": (s("estimate.pattern_pairs")["calls"], "count"),
        "estimate.pattern_pairs.busy_s": (s("estimate.pattern_pairs")["busy"], "s"),
        "estimate.pattern_pairs.calls_per_replicate":
            (s("estimate.pattern_pairs")["calls"] / m, "calls/replicate"),
        "estimate.pairs": (count("estimate.pattern_pairs", "pairs"), "count"),
        "estimate.pair_numerators.calls": (numer["calls"], "count"),
        "estimate.pair_numerators.busy_s": (numer["busy"], "s"),
        "estimate.pair_numerators.mpairs_per_s":
            (_rate(numer["counts"].get("pairs", 0) / 1e6, numer["busy"]), "Mpairs/s"),
        "estimate.pair_numerators.mb_computed": (numer["counts"].get("bytes", 0) / 1e6, "MB"),
        "estimate.pooled_profile.self_s": (s("estimate.pooled_profile")["self"], "s"),
        "isotest.power_curve_from_patterns.calls":
            (s("isotest.power_curve_from_patterns")["calls"], "count"),
        "isotest.power_curve_from_patterns.self_s":
            (s("isotest.power_curve_from_patterns")["self"], "s"),
        "isotest.decisions": (count("isotest.power_curve_from_patterns", "decisions"), "count"),
        "patternio.write_pattern.busy_s": (write["busy"], "s"),
        "patternio.write_pattern.mb_per_s":
            (_rate(write["counts"].get("bytes", 0) / 1e6, write["busy"]), "MB/s"),
        "patternio.read_pattern.busy_s": (read["busy"], "s"),
        "patternio.read_pattern.mb_per_s":
            (_rate(read["counts"].get("bytes", 0) / 1e6, read["busy"]), "MB/s"),
        "patternio.bytes_written": (write["counts"].get("bytes", 0)
                                    + count("patternio.write_csv", "bytes"), "B"),
        "patternio.bytes_read": (read["counts"].get("bytes", 0), "B"),
        "patternio.write_csv.busy_s": (s("patternio.write_csv")["busy"], "s"),
        "parallel.parallel_map.wall_s.1p": (s("parallel.parallel_map")["busy"], "s"),
        "cli.self_s": (layer_self["cli"], "s"),
    }
    for layer in LAYERS:
        out[f"{layer}.share"] = (_rate(layer_self[layer], total), "ratio")
    return out


def per_layer(wl, seed, seconds, ledger, deadline, record):
    start = time.monotonic()
    pool = run_pass(wl, seed, NPROC, ledger, deadline, trace="parallel")
    plain, traced = [], []

    def body():
        plain.append(run_pass(wl, seed, 1, ledger, deadline))
        traced.append(run_pass(wl, seed, 1, ledger, deadline, trace="all"))

    repeat(body, seconds, start)
    runs = [layer_metrics(aggregate(p.spans), wl.m) for p in traced]
    for name in EXACT:
        values = {r[name][0] for r in runs}
        if len(values) != 1:
            ledger.fail(f"{wl.name}: {name} differs between traced runs: {sorted(values)}")
    out = {name: (statistics.median(r[name][0] for r in runs), unit)
           for name, (_, unit) in runs[0].items()}
    for name in EXACT:
        out[name] = runs[0][name]
    # Call times are pooled over the traced passes, for a deeper tail.
    out.update(call_times(aggregate(s for p in traced for s in p.spans)
                          .get("simulate.simulate_model", _EMPTY)["durs"]))
    parallel = aggregate(pool.spans).get("parallel.parallel_map", _EMPTY)
    wall_1p = out["parallel.parallel_map.wall_s.1p"][0]
    out["parallel.parallel_map.wall_s.np"] = (parallel["busy"], "s")
    out["parallel.parallel_map.speedup"] = (_rate(wall_1p, parallel["busy"]), "ratio")
    out["parallel.parallel_map.pickled_mb"] = (parallel["counts"].get("bytes", 0) / 1e6, "MB")
    out["trace.overhead_ratio"] = (statistics.median(sum(p.walls) for p in traced)
                                   / statistics.median(sum(p.walls) for p in plain), "ratio")
    record["counts"] = {name: out[name][0] for name in EXACT}
    return out


# ------------------------------------------------------------------ main


def provenance(seed, workloads):
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, env={**os.environ, "GIT_DIR": ".git"})
        commit = done.stdout.strip() or None
    cpu = None
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "git_commit": commit,
        "nproc": NPROC,
        "cpu_model": cpu,
        "seed": seed,
        "default_seed": DEFAULT_SEED,
        "heldout_seed": HELDOUT_SEED,
        "workloads": {w.name: {"m": w.m, "argv": {
            f"threads={t}": [["aniso3d"] + c.args + ["--threads", str(t)]
                             for c in w.commands(seed)] for t in (1, NPROC)}}
            for w in workloads},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all"] + list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "aniso3d", "cli.py")):
        print(f"error: no aniso3d sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    workloads = [WORKLOADS[n] for n in names]
    record = provenance(args.seed, workloads)
    record["versions"] = measure_setup(time.monotonic() + RUN_LIMIT_S)[1]
    ledger = Ledger()
    metrics = {}
    started = time.monotonic()
    try:
        for wl in workloads:
            deadline = started + RUN_LIMIT_S * (names.index(wl.name) + 1)
            sub = record.setdefault("runs", {}).setdefault(wl.name, {})
            before = (ledger.attempted, ledger.failed)
            measure = per_layer if args.trace else end_to_end
            values = measure(wl, args.seed, args.seconds, ledger, deadline, sub)
            sub["output_sha256"] = dict(ledger.digests)
            ledger.digests.clear()
            print(f"{wl.name} (m = {wl.m}, seed = {args.seed}, nproc = {NPROC})")
            for name, (value, unit) in values.items():
                print(f"  {name:46s} {value:14.6g} {unit}")
            failed, attempted = ledger.failed - before[1], ledger.attempted - before[0]
            print(f"  {'fail_ratio':46s} {failed / attempted:14.6g} failed/attempted"
                  f" ({failed} of {attempted} operations)")
            prefix = "" if len(workloads) == 1 else wl.name + "."
            metrics.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in values.items()})
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    for error in ledger.errors:
        print(f"FAILED: {error}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": ledger.failed == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
