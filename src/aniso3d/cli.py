"""Command-line front end.

Four subcommands cover the pipeline: ``simulate`` writes replicated
pattern files plus a manifest, ``estimate`` pools directional K-profiles
into a CSV, ``test`` runs the isotropy test on existing patterns, and
``power`` sweeps test power over integration bounds for a simulated
campaign.  A ``--config`` file of ``key = value`` lines supplies
defaults; explicit flags always win.  Exit code is 0 on success and 1
with a diagnostic on stderr otherwise.
"""

import argparse
import math
import os
import sys
from dataclasses import dataclass
from functools import partial

import numpy as np

from .estimate import (default_r_grid, profile_extent, ratio_of_sums, replicate_numerators,
                       require_common_window)
from .estimate import pooled_profile  # unused; perfbench/tracecli.py wraps this name
from .geometry import X_AXIS, Y_AXIS, Z_AXIS
from .isotest import TestConfig, power_curve_from_patterns
from .patternio import read_patterns, write_csv, write_pattern
from .simulate import BoxWindow, ModelSpec, simulate_campaign
from ._parallel import parallel_map

_AXES = {"x": X_AXIS, "y": Y_AXIS, "z": Z_AXIS}

_DEFAULTS = {
    "window": "0,1,0,1,0,1",
    "seed": 0,
    "kind": "both",
    "aspect": "2",
    "grid": 512,
    "level": 0.05,
    "directions": "x,y,z",
    "threads": os.cpu_count() or 1,
}

_CONVERT = {
    "model": str, "rho": float, "rho_l": float, "alpha": float, "sigma": float,
    "hardcore_r": float, "compress_c": float, "m": int, "seed": int,
    "kind": str, "aspect": str, "r_max": float, "grid": int, "r2_grid": str,
    "level": float, "out": str, "threads": int, "input": str, "window": str,
    "directions": str,
}


@dataclass(frozen=True)
class CampaignManifest:
    """Everything needed to reproduce one simulated campaign on disk."""

    model: ModelSpec
    m: int
    seed: int
    out_dir: str
    window: BoxWindow

    def lines(self) -> list:
        rows = ["# aniso3d simulate manifest"]
        for key, value in self.model.describe().items():
            rows.append(f"{key} = {value!r}" if isinstance(value, float) else f"{key} = {value}")
        rows.append(f"m = {self.m}")
        rows.append(f"seed = {self.seed}")
        bounds = " ".join(
            f"{self.window.lo[i]!r} {self.window.hi[i]!r}" for i in range(3)
        )
        rows.append(f"window = {bounds}")
        return rows


def load_config(path) -> dict:
    """Flat ``key = value`` config; keys mirror the CLI flag names."""
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, value = line.split("=", 1)
            out[key.strip().replace("-", "_")] = value.strip()
    return out


def _resolve(args, config, name, required=False):
    value = getattr(args, name, None)
    if value is None:
        value = config.get(name, _DEFAULTS.get(name))
    if value is None:
        if required:
            raise ValueError(f"missing required option --{name.replace('_', '-')}")
        return None
    return _CONVERT[name](value)


def _float_list(text, flag) -> list:
    """Comma or space separated list, or linspace shorthand 'lo:hi:n'.

    An empty or malformed list is an error that names ``flag``.
    """
    text = str(text)
    try:
        if ":" in text:
            lo, hi, n = text.split(":")
            values = np.linspace(float(lo), float(hi), max(int(n), 0)).tolist()
        else:
            values = [float(v) for v in text.replace(",", " ").split()]
    except ValueError:
        raise ValueError(f"{flag} expects numbers or lo:hi:n, got {text!r}") from None
    if not values:
        raise ValueError(f"{flag} needs at least one value, got {text!r}")
    return values


def _parse_window(text) -> BoxWindow:
    """Exactly six finite numbers x0,x1,y0,y1,z0,z1, comma or space separated."""
    try:
        vals = np.array(str(text).replace(",", " ").split(), dtype=float)
    except ValueError:
        vals = np.empty(0)
    if vals.shape != (6,) or not np.all(np.isfinite(vals)):
        raise ValueError(f"--window needs 6 numbers x0,x1,y0,y1,z0,z1, got {text!r}")
    return BoxWindow(vals[0::2], vals[1::2])


def _model_from(args, config) -> ModelSpec:
    kind = _resolve(args, config, "model", required=True)
    rho = _resolve(args, config, "rho", required=True)
    if kind == "poisson":
        model = ModelSpec.poisson(rho)
    elif kind == "plcpp":
        rho_l = _resolve(args, config, "rho_l")
        alpha = _resolve(args, config, "alpha")
        sigma = _resolve(args, config, "sigma", required=True)
        if rho_l is None and alpha is None:
            raise ValueError("plcpp needs --rho-l or --alpha")
        if rho_l is None:
            rho_l = rho / alpha
        model = ModelSpec.plcpp(rho, rho_l, sigma, alpha=alpha)
    elif kind in ("matern", "packing"):
        r = _resolve(args, config, "hardcore_r", required=True)
        model = ModelSpec(kind=kind, rho=rho, hardcore_r=r)
    else:
        raise ValueError(f"unknown model {kind!r}")
    c = _resolve(args, config, "compress_c")
    return model.compressed(c) if c is not None else model


def _kinds(kind: str) -> tuple:
    if kind == "both":
        return ("conical", "cylindrical")
    if kind in ("conical", "cylindrical"):
        return (kind,)
    raise ValueError(f"kind must be conical, cylindrical, or both, got {kind!r}")


def _check_r_max(window, a, r_max, what):
    """Refuse a radius whose search extent reaches the smallest window side.

    This is the pair layer's own rule.  The largest admissible radius is
    printed rounded down to 6 digits, so every smaller value passes.
    """
    side = float(np.min(window.sides))
    if profile_extent(r_max, a) >= side:
        bound = side / profile_extent(1.0, a)  # the extent is linear in r_max
        unit = 10.0 ** (math.floor(math.log10(bound)) - 5)
        raise ValueError(
            f"{what} {r_max:.6g} is out of range for this window: the derived "
            f"element extent must stay below the smallest side, so choose "
            f"{what} < {math.floor(bound / unit) * unit:.6g}"
        )


def cmd_simulate(args, config) -> None:
    manifest = CampaignManifest(
        model=_model_from(args, config),
        m=_resolve(args, config, "m", required=True),
        seed=_resolve(args, config, "seed"),
        out_dir=_resolve(args, config, "out", required=True),
        window=_parse_window(_resolve(args, config, "window")),
    )
    if manifest.m < 1:
        raise ValueError(f"need m >= 1 replicates, got {manifest.m}")
    threads = _resolve(args, config, "threads")
    os.makedirs(manifest.out_dir, exist_ok=True)
    if not os.access(manifest.out_dir, os.W_OK):
        raise OSError(f"output directory {manifest.out_dir} is not writable")
    patterns = simulate_campaign(manifest.model, manifest.window, manifest.m,
                                 manifest.seed, threads)
    echo = " ".join(f"{k}={v}" for k, v in manifest.model.describe().items())
    for i, pattern in enumerate(patterns):
        write_pattern(
            os.path.join(manifest.out_dir, f"pattern_{i:05d}.txt"),
            pattern,
            comments=[echo, f"replicate = {i}", f"seed = ({manifest.seed}, {i})"],
        )
    with open(os.path.join(manifest.out_dir, "manifest.txt"), "w") as fh:
        fh.write("\n".join(manifest.lines()) + "\n")
    print(f"wrote {manifest.m} patterns and manifest.txt to {manifest.out_dir}")


def _read_input(source) -> list:
    """Patterns from an ``--input`` directory, file, or comma list of files."""
    items = source.split(",")
    if not all(item.strip() for item in items):
        raise ValueError(f"--input has an empty item, got {source!r}")
    return read_patterns(items if len(items) > 1 else source)


def cmd_estimate(args, config) -> None:
    source = _resolve(args, config, "input", required=True)
    out = _resolve(args, config, "out", required=True)
    aspect = _resolve(args, config, "aspect")
    aspects = _float_list(aspect, "--aspect")
    if len(aspects) != 1:
        raise ValueError(f"--aspect takes one aspect ratio for estimate, got {aspect!r}")
    a = aspects[0]
    kinds = _kinds(_resolve(args, config, "kind"))
    n_grid = _resolve(args, config, "grid")
    if n_grid < 2:
        raise ValueError(f"--grid needs at least 2 grid radii, got {n_grid}")
    threads = _resolve(args, config, "threads")
    names = _resolve(args, config, "directions")
    directions = [d.strip() for d in names.split(",")]
    if any(d not in _AXES for d in directions) or len(set(directions)) < len(directions):
        raise ValueError(f"--directions must be a comma list of distinct axes "
                         f"from x, y, z, got {names!r}")

    patterns = _read_input(source)
    require_common_window(patterns, "pooled patterns")
    window = patterns[0].window
    r_max = _resolve(args, config, "r_max")
    if r_max is None:
        grid = default_r_grid(window, a, n_grid)
    else:
        if not r_max > 0.0:
            raise ValueError(f"--r-max must be positive, got {r_max!r}")
        _check_r_max(window, a, r_max, "--r-max")
        grid = np.linspace(0.0, r_max, n_grid)
    r_max = float(grid[-1])  # linspace writes its endpoint exactly

    core = partial(replicate_numerators, directions=[_AXES[d] for d in directions],
                   kinds=kinds, r_grid=grid, aspects=[a])
    # (kind, direction, radius) pooled over replicates; columns are kind-major
    pooled = ratio_of_sums(parallel_map(core, patterns, threads))[0]

    prefixes = [""] if len(kinds) == 1 else [f"{kind}_" for kind in kinds]
    header = ["r_cl"] + [f"{prefix}K_{d}" for prefix in prefixes for d in directions]
    rows = np.column_stack([grid, pooled.reshape(-1, n_grid).T]).tolist()
    comments = [
        "aniso3d estimate",
        f"input = {source}",
        f"patterns = {len(patterns)}",
        f"kind = {','.join(kinds)}",
        f"aspect = {a!r}",
        f"r_max = {r_max!r}",
        f"grid = {n_grid}",
        "pooling = ratio-of-sums",
    ]
    write_csv(out, header, rows, comments)
    print(f"wrote {out}")


def _power_rows(patterns, a_list, r2_list, kinds, level, n_grid, threads, m, seed):
    window = patterns[0].window
    for a in a_list:
        _check_r_max(window, a, max(r2_list), "--r2-grid entry")
    cfg = TestConfig(kind=kinds[0], a=a_list[0], r2=max(r2_list), alpha_level=level,
                     grid_points=n_grid)
    curve = power_curve_from_patterns(patterns, cfg, r2_list, kinds=kinds,
                                      threads=threads, aspects=a_list)
    row_aspects = [a for a in a_list for _ in r2_list]
    return [[float(a), r2, p_cn, p_cl, m, seed]
            for a, (r2, p_cn, p_cl) in zip(row_aspects, curve)]


def _run_power_like(args, config, name) -> None:
    out = _resolve(args, config, "out", required=True)
    level = _resolve(args, config, "level")
    n_grid = _resolve(args, config, "grid")
    threads = _resolve(args, config, "threads")
    seed = _resolve(args, config, "seed")
    kinds = _kinds(_resolve(args, config, "kind"))
    a_list = _float_list(_resolve(args, config, "aspect"), "--aspect")
    r2_list = _float_list(_resolve(args, config, "r2_grid", required=True), "--r2-grid")

    source = _resolve(args, config, "input")
    if source is not None:
        patterns = _read_input(source)
        origin = f"input = {source}"
        m = len(patterns)
    else:
        model = _model_from(args, config)
        m = _resolve(args, config, "m", required=True)
        window = _parse_window(_resolve(args, config, "window"))
        patterns = simulate_campaign(model, window, m, seed, threads)
        origin = " ".join(f"{k}={v}" for k, v in model.describe().items())

    rows = _power_rows(patterns, a_list, r2_list, kinds, level, n_grid,
                       threads, m, seed)
    comments = [
        f"aniso3d {name}",
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aniso3d",
        description="Directional K-functions and isotropy testing for 3D point patterns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="key = value file of flag defaults")
        p.add_argument("--out", help="output path (directory or CSV file)")
        p.add_argument("--threads", help="worker processes (results do not depend on it)")

    def add_model(p):
        p.add_argument("--seed", help="campaign seed")
        p.add_argument("--window", help="x0,x1,y0,y1,z0,z1 observation window")
        p.add_argument("--model", choices=["poisson", "plcpp", "matern", "packing"])
        p.add_argument("--rho", help="target intensity")
        p.add_argument("--rho-l", dest="rho_l", help="line intensity (plcpp)")
        p.add_argument("--alpha", help="on-line intensity (plcpp)")
        p.add_argument("--sigma", help="displacement std deviation (plcpp)")
        p.add_argument("--hardcore-r", dest="hardcore_r",
                       help="hard-core scale R (matern: min distance; packing: ball radius)")
        p.add_argument("--compress-c", dest="compress_c", help="compression factor in (0,1]")
        p.add_argument("--m", help="replicate count")

    p_sim = sub.add_parser("simulate", help="write m replicated pattern files + manifest")
    add_common(p_sim)
    add_model(p_sim)

    p_est = sub.add_parser("estimate", help="pool directional K-profiles into a CSV")
    add_common(p_est)
    p_est.add_argument("--input", help="pattern file, directory, or comma list")
    p_est.add_argument("--kind", choices=["conical", "cylindrical", "both"])
    p_est.add_argument("--aspect", help="aspect ratio a > 1")
    p_est.add_argument("--r-max", dest="r_max", help="largest cylinder radius")
    p_est.add_argument("--grid", help="number of grid radii")
    p_est.add_argument("--directions", help="comma list from x,y,z")

    for name, helptext in (
        ("test", "isotropy test power table for existing patterns"),
        ("power", "simulate a campaign and sweep test power over r2"),
    ):
        p = sub.add_parser(name, help=helptext)
        add_common(p)
        add_model(p)
        p.add_argument("--input",
                       help="pattern file, directory, or comma list (alternative to --model)")
        p.add_argument("--kind", choices=["conical", "cylindrical", "both"])
        p.add_argument("--aspect", help="aspect ratio or comma list of ratios")
        p.add_argument("--r2-grid", dest="r2_grid",
                       help="integration bounds: comma list or lo:hi:n")
        p.add_argument("--level", help="significance level")
        p.add_argument("--grid", help="number of grid radii")
    return parser


_COMMANDS = {
    "simulate": cmd_simulate,
    "estimate": cmd_estimate,
    "test": partial(_run_power_like, name="test"),
    "power": partial(_run_power_like, name="power"),
}


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
