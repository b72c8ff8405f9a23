"""Command-line front end.

Four subcommands cover the pipeline: ``simulate`` writes replicated
pattern files plus a manifest, ``estimate`` pools directional K-profiles
into a CSV, and ``test`` and ``power``, one command under two names,
sweep isotropy-test power over r2 for ``--input`` patterns or a
simulated campaign.  Each command maps one pool job over its replicates,
given by file path or campaign key, and the job that reads or simulates
a replicate also reduces it, to a written file, to pair numerators or
to statistics, so no process holds the campaign.  ``_OPTIONS`` declares each option once: its
parse-and-check function, default, commands and help.  A value comes
from the flag, else a ``--config`` file of ``key = value`` lines (a
campaign's manifest is one), else the default; a bad one is refused
naming the flag.  Exit code is 0 on success, 1 with a diagnostic on
stderr otherwise, and 2 for an unknown flag.
"""

import argparse
import os
import sys
from functools import partial
from typing import NamedTuple

import numpy as np

from .estimate import check_r_max, check_window_scale, default_r_grid, pooled_k
from .estimate import pooled_profile  # unused; perfbench/tracecli.py wraps this name
from .geometry import X_AXIS, Y_AXIS, Z_AXIS
from .isotest import TestConfig, check_sweep, power_curve_from_patterns
from .patternio import (pattern_names, pattern_paths, replicate_pattern, source_window,
                        write_csv, write_pattern)
from .patternio import read_patterns  # unused; perfbench/tracecli.py wraps this name
from .simulate import MODEL_PARAMS, BoxWindow, ModelSpec
from .simulate import simulate_campaign  # unused; perfbench/tracecli.py wraps this name
from ._parallel import parallel_map

_AXES = {"x": X_AXIS, "y": Y_AXIS, "z": Z_AXIS}


def _checked(parse, ok=None, rule=None):
    """``parse``, then refuse a non-finite float, and a value that fails ``ok``
    by stating ``rule``, echoing a number as parsed and a list as given."""
    def check(text):
        try:
            value = parse(text)
        except ValueError:
            if parse not in (int, float):
                raise
            what = "a whole number" if parse is int else "a number"
            raise ValueError(f"expects {what}, got {text!r}") from None
        if parse is float and not np.isfinite(value):
            raise ValueError(f"expects a finite number, got {text!r}")
        if ok is not None and not ok(value):
            raise ValueError(f"{rule}, got {text if isinstance(value, list) else value!r}")
        return value
    return check


def _one_of(choices: dict):
    """Map one of the ``choices`` keys to its value."""
    def parse(text):
        if text not in choices:
            raise ValueError(f"must be one of {', '.join(choices)}, got {text!r}")
        return choices[text]
    return parse


def _float_list(text) -> list:
    """Comma or space separated finite numbers, or linspace shorthand 'lo:hi:n'."""
    try:
        if ":" in text:
            lo, hi, n = text.split(":")
            values, n = [float(lo), float(hi)], max(int(n), 0)
        else:
            values, n = [float(v) for v in text.replace(",", " ").split()], None
    except ValueError:
        raise ValueError(f"expects numbers or lo:hi:n, got {text!r}") from None
    if not np.all(np.isfinite(values)):
        raise ValueError(f"expects finite numbers, got {text!r}")
    if n is not None:
        values = np.linspace(*values, n).tolist()
    if not values:
        raise ValueError(f"needs at least one value, got {text!r}")
    return values


def _parse_window(text) -> BoxWindow:
    """Exactly six finite numbers x0,x1,y0,y1,z0,z1, comma or space separated."""
    try:
        vals = np.array(text.replace(",", " ").split(), dtype=float)
    except ValueError:
        vals = np.empty(0)
    if vals.shape != (6,) or not np.all(np.isfinite(vals)):
        raise ValueError(f"needs 6 numbers x0,x1,y0,y1,z0,z1, got {text!r}")
    return BoxWindow(vals[0::2], vals[1::2])


def _directions(text) -> list:
    names = [d.strip() for d in text.split(",")]
    if any(d not in _AXES for d in names) or len(set(names)) < len(names):
        raise ValueError(f"must be a comma list of distinct axes from x, y, z, got {text!r}")
    return names


class _Option(NamedTuple):
    parse: object    # text -> value; its ValueError omits the flag
    default: str     # None: no default
    commands: tuple
    help: str


_EVERY = ("simulate", "estimate", "test", "power")
_SIM = ("simulate", "test", "power")
_READ = ("estimate", "test", "power")
_TEST = ("test", "power")
_REAL = _checked(float)
_KINDS = {"conical": ("conical",), "cylindrical": ("cylindrical",),
          "both": ("conical", "cylindrical")}

_OPTIONS = {
    "out": _Option(str, None, _EVERY, "output path (directory or CSV file)"),
    "threads": _Option(_checked(int, lambda n: n >= 1, "needs at least 1 worker"),
                       str(os.cpu_count() or 1), _EVERY,
                       "worker processes, at least 1 (results do not depend on it)"),
    "seed": _Option(_checked(int, lambda n: n >= 0, "must be at least 0"), "0", _SIM,
                    "campaign seed, at least 0"),
    "window": _Option(_parse_window, "0,1,0,1,0,1", _SIM, "x0,x1,y0,y1,z0,z1 of the box"),
    "model": _Option(_one_of({k: k for k in MODEL_PARAMS}),
                     None, _SIM, "poisson, plcpp, matern or packing"),
    "rho": _Option(_REAL, None, _SIM, "target intensity"),
    "rho_l": _Option(_REAL, None, _SIM, "line intensity (plcpp)"),
    "alpha": _Option(_REAL, None, _SIM, "on-line intensity (plcpp)"),
    "sigma": _Option(_REAL, None, _SIM, "displacement std deviation (plcpp)"),
    "hardcore_r": _Option(_REAL, None, _SIM, "hard-core scale R (matern: min distance; "
                          "packing: ball radius)"),
    "compress_c": _Option(_REAL, None, _SIM, "compression factor in (0,1]"),
    "m": _Option(_checked(int, lambda n: n >= 1, "needs at least 1 replicate"), None, _SIM,
                 "replicate count"),
    "input": _Option(str, None, _READ, "pattern file, directory, or comma list "
                     "(test and power: instead of the model and its window)"),
    "kind": _Option(_one_of(_KINDS), "both", _READ, "conical, cylindrical or both"),
    "aspect": _Option(_checked(_float_list, lambda v: all(a > 1.0 for a in v),
                               "values must exceed 1.0"),
                      "2", _READ, "aspect ratio a > 1 (test and power: a list)"),
    "r_max": _Option(_checked(float, lambda r: r > 0.0, "must be positive"), None,
                     ("estimate",), "largest cylinder radius"),
    "grid": _Option(_checked(int, lambda n: n >= 2, "needs at least 2 grid radii"), "512",
                    _READ, "number of grid radii"),
    "directions": _Option(_directions, "x,y,z", ("estimate",), "comma list from x,y,z"),
    "r2_grid": _Option(_checked(_float_list, lambda v: v[0] > 0.0 and all(np.diff(v) > 0.0),
                                "values must be positive and strictly ascending"),
                       None, _TEST, "integration bounds: comma list or lo:hi:n"),
    "level": _Option(_checked(float, lambda x: 0.0 < x < 1.0, "must lie in (0, 1)"), "0.05",
                     _TEST, "significance level"),
}

# what --input replaces; --seed stays, because it labels the CSV
_MODEL_KEYS = ("window", "model", "rho", "rho_l", "alpha", "sigma", "hardcore_r",
               "compress_c", "m")


def _flag(name) -> str:
    return "--" + name.replace("_", "-")


def load_config(path) -> dict:
    """Flat ``key = value`` config; a key names an option of any command."""
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, eq, value = line.partition("=")
            key = key.strip().replace("-", "_")
            if not eq:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            if key not in _OPTIONS:
                raise ValueError(f"{path}:{lineno}: unknown option {key!r}")
            if key in out:
                raise ValueError(f"{path}:{lineno}: option {key!r} is given twice")
            out[key] = value.strip()
    return out


def _given(args, config, name):
    """The option's text: the flag, else the config value, else the default."""
    text = getattr(args, name, None)
    return config.get(name, _OPTIONS[name].default) if text is None else text


def _resolve(args, config, name, required=False):
    text = _given(args, config, name)
    if text is None and required:
        raise ValueError(f"missing required option {_flag(name)}")
    try:
        return None if text is None else _OPTIONS[name].parse(text)
    except ValueError as exc:
        raise ValueError(f"{_flag(name)} {exc}") from None


def _model_from(args, config) -> ModelSpec:
    kind = _resolve(args, config, "model", required=True)
    takes = MODEL_PARAMS[kind]
    # flags of other models are refused unread; their config keys stay unread,
    # as next to --input
    foreign = [_flag(k) for k in _MODEL_KEYS if getattr(args, k) is not None and
               k not in takes and any(k in own for own in MODEL_PARAMS.values())]
    if foreign:
        raise ValueError(f"--model {kind} does not take {', '.join(foreign)}")
    rho = _resolve(args, config, "rho", required=True)
    # plcpp takes either of rho_l and alpha, and ModelSpec.plcpp derives the other
    given = {k: _resolve(args, config, k, required=k not in ("rho_l", "alpha"))
             for k in takes}
    if kind == "plcpp" and given["rho_l"] is None and given["alpha"] is None:
        raise ValueError("plcpp needs --rho-l or --alpha")
    model = getattr(ModelSpec, kind)(rho, **given)
    c = _resolve(args, config, "compress_c")
    return model.compressed(c) if c is not None else model


def cmd_simulate(args, config) -> None:
    """Write m replicated pattern files and a manifest."""
    model = _model_from(args, config)
    m = _resolve(args, config, "m", required=True)
    seed = _resolve(args, config, "seed")
    out_dir = _resolve(args, config, "out", required=True)
    window = _resolve(args, config, "window")
    threads = _resolve(args, config, "threads")
    check_window_scale(window)  # as `power --model` refuses it
    created = not os.path.isdir(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    if not os.access(out_dir, os.W_OK):
        raise OSError(f"output directory {out_dir} is not writable")
    names = [f"pattern_{i:05d}.txt" for i in range(m)]
    stale = sorted(set(pattern_names(out_dir)) - set(names))
    if stale:  # it would be pooled with this campaign
        raise ValueError(f"--out {out_dir} holds pattern file {stale[0]}, which a campaign "
                         f"of m = {m} would not overwrite")
    echo = model.describe()
    comment = " ".join(f"{k}={v}" for k, v in echo.items())
    paths = [os.path.join(out_dir, name) for name in names]
    jobs = [((model, window, seed, i), path + ".partial") for i, path in enumerate(paths)]
    try:
        parallel_map(partial(_write_replicate, comment=comment), jobs, threads)
    except BaseException:  # leave --out as it was found
        for _, partial_path in jobs:  # every job has ended
            if os.path.exists(partial_path):
                os.remove(partial_path)
        if created:
            os.rmdir(out_dir)
        raise
    for (_, partial_path), path in zip(jobs, paths):
        os.replace(partial_path, path)
    # every float by repr, so that the manifest reads back as this campaign's config
    lines = ["# aniso3d simulate manifest"]
    lines += [f"{k} = {float(v)!r}" if isinstance(v, float) else f"{k} = {v}"
              for k, v in echo.items()]
    bounds = np.column_stack([window.lo, window.hi]).ravel().tolist()
    lines += [f"m = {m}", f"seed = {seed}", "window = " + " ".join(map(repr, bounds))]
    with open(os.path.join(out_dir, "manifest.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {m} patterns and manifest.txt to {out_dir}")


def _write_replicate(job, comment) -> None:
    """One pool job of `simulate`: simulate a replicate from its key and write
    it under a temporary name, which the main process renames once every
    replicate exists."""
    key, path = job
    seed, i = key[2:]
    write_pattern(path, replicate_pattern(key),
                  comments=[comment, f"replicate = {i}", f"seed = ({seed}, {i})"])


def _input_sources(source) -> list:
    """Replicate sources of an ``--input`` directory, file, or comma list of
    files: the first file is read here, for the window that the checks and the
    grid need, and the pool jobs read the others."""
    items = source.split(",")
    if not all(item.strip() for item in items):
        raise ValueError(f"--input has an empty item, got {source!r}")
    paths = pattern_paths(items if len(items) > 1 else source)
    return [replicate_pattern(paths[0])] + paths[1:]


def cmd_estimate(args, config) -> None:
    """Pool directional K-profiles into a CSV."""
    source = _resolve(args, config, "input", required=True)
    out = _resolve(args, config, "out", required=True)
    aspects = _resolve(args, config, "aspect")
    if len(aspects) != 1:
        raise ValueError(f"--aspect takes one aspect ratio for estimate, "
                         f"got {_given(args, config, 'aspect')!r}")
    a = aspects[0]
    kinds = _resolve(args, config, "kind")
    n_grid = _resolve(args, config, "grid")
    threads = _resolve(args, config, "threads")
    directions = _resolve(args, config, "directions")
    r_max = _resolve(args, config, "r_max")

    sources = _input_sources(source)
    window = sources[0].window
    if r_max is None:
        grid = default_r_grid(window, a, n_grid)
    else:
        check_r_max(window, a, r_max, "--r-max")
        grid = np.linspace(0.0, r_max, n_grid)
    r_max = float(grid[-1])  # linspace writes its endpoint exactly

    # (kind, direction, radius) pooled over replicates; columns are kind-major
    pooled = pooled_k(sources, [_AXES[d] for d in directions], kinds, grid, [a], threads)[0]

    prefixes = [""] if len(kinds) == 1 else [f"{kind}_" for kind in kinds]
    header = ["r_cl"] + [f"{prefix}K_{d}" for prefix in prefixes for d in directions]
    rows = np.column_stack([grid, pooled.reshape(-1, n_grid).T]).tolist()
    comments = [
        "aniso3d estimate",
        f"input = {source}",
        f"patterns = {len(sources)}",
        f"kind = {','.join(kinds)}",
        f"aspect = {a!r}",
        f"r_max = {r_max!r}",
        f"grid = {n_grid}",
        "pooling = ratio-of-sums",
    ]
    write_csv(out, header, rows, comments)
    print(f"wrote {out}")


def cmd_power(args, config) -> None:
    """Sweep isotropy-test power over r2 for --input patterns or a simulated campaign."""
    out = _resolve(args, config, "out", required=True)
    level = _resolve(args, config, "level")
    n_grid = _resolve(args, config, "grid")
    threads = _resolve(args, config, "threads")
    seed = _resolve(args, config, "seed")
    kinds = _resolve(args, config, "kind")
    a_list = _resolve(args, config, "aspect")
    r2_list = _resolve(args, config, "r2_grid", required=True)

    source = _resolve(args, config, "input")
    if source is not None:
        # model keys from a config file (say, the campaign's manifest) stay unread
        flags = [_flag(k) for k in _MODEL_KEYS if getattr(args, k) is not None]
        if flags:
            raise ValueError(f"--input excludes the model flags, got {', '.join(flags)}")
        sources = _input_sources(source)
        origin = f"input = {source}"
    else:
        model = _model_from(args, config)
        sim_window = _resolve(args, config, "window")
        sources = [(model, sim_window, seed, i)
                   for i in range(_resolve(args, config, "m", required=True))]
        origin = " ".join(f"{k}={v}" for k, v in model.describe().items())
    m = len(sources)
    if m < 2:  # check_sweep's rule, naming the flag that sets the count
        raise ValueError(f"{'--m' if source is None else '--input'} needs at least 2 "
                         f"replicates for the test, got {m}")
    cfg = TestConfig(kind=kinds[0], a=a_list[0], r2=r2_list[-1], alpha_level=level,
                     grid_points=n_grid)
    # refused before a campaign is simulated, against the window it will have
    check_sweep(source_window(sources[0]), m, cfg, r2_list, kinds, a_list, "--r2-grid entry")
    # one pool job per replicate simulates or reads it and reduces it to statistics
    curve = power_curve_from_patterns(sources, cfg, r2_list, kinds=kinds,
                                      threads=threads, aspects=a_list)
    row_aspects = [a for a in a_list for _ in r2_list]
    rows = [[a, r2, p_cn, p_cl, m, seed] for a, (r2, p_cn, p_cl) in zip(row_aspects, curve)]
    comments = [
        f"aniso3d {args.command}",
        origin,
        f"m = {m}",
        f"seed = {seed}",
        f"level = {level!r}",
        f"kind = {','.join(kinds)}",
        f"grid = {n_grid}",
    ]
    write_csv(out, ["a", "r2", "power_conical", "power_cylindrical", "m", "seed"],
              rows, comments)
    print(f"wrote {out}")


# callables, which perfbench/tracecli.py wraps; each docstring is the help
_COMMANDS = {
    "simulate": cmd_simulate,
    "estimate": cmd_estimate,
    "test": cmd_power,
    "power": cmd_power,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aniso3d",
        description="Directional K-functions and isotropy testing for 3D point patterns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, fn in _COMMANDS.items():
        p = sub.add_parser(command, help=fn.__doc__, allow_abbrev=False)
        p.add_argument("--config", help="key = value file of option defaults; "
                       "flags and keys are spelled in full")
        for name, option in _OPTIONS.items():
            if command in option.commands:
                p.add_argument(_flag(name), help=option.help)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config) if args.config else {}
        _COMMANDS[args.command](args, config)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
