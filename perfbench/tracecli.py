"""Run the aniso3d CLI with a span around each module's public functions.

    python3 perfbench/tracecli.py SPANS_JSON {all,parallel} CLI_ARGS...

The functions are wrapped where the CLI and the library look them up
(module attributes), so the package is timed from outside and none of its
files change.  ``all`` wraps every layer and is meant for ``--threads 1``,
where every span lives in this one process.  ``parallel`` wraps only
``parallel_map``, for a run at nproc whose pool workers are not traced.

When the command ends, SPANS_JSON receives one row per wrapped call:
``[name, start_s, end_s, parent_row, counts]``, where ``parent_row`` is the
index of the enclosing span (-1 for none) and ``counts`` holds the work the
call did, such as pairs scanned or bytes written.
"""

import importlib
import json
import os
import pickle
import sys
import time


def _points(args, kwargs, result):
    return {"points": result.n}


def _pairs_found(args, kwargs, result):
    return {"pairs": int(result.norm.size)}


def _pairs_scanned(args, kwargs, result):
    pairs = args[0]
    return {"pairs": int(pairs.norm.size),
            "bytes": pairs.vec.nbytes + pairs.norm.nbytes + pairs.weight.nbytes}


def _decisions(args, kwargs, result):
    kinds = kwargs.get("kinds", args[3] if len(args) > 3 else ("conical", "cylindrical"))
    return {"decisions": len(kinds) * len(args[2])}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _shipped(args, kwargs, result):
    """Pickled size of what a process pool sends to its workers (0 in-process)."""
    fn, items = args[0], list(args[1])
    threads = args[2] if len(args) > 2 else kwargs.get("threads", 1)
    if threads is None or threads <= 1 or len(items) <= 1:
        return {"bytes": 0}
    sizes = [len(pickle.dumps(x, pickle.HIGHEST_PROTOCOL)) for x in [fn] + items]
    return {"bytes": sum(sizes)}


# (module, attribute, span name, counter).  A function imported by name
# into several modules is wrapped at each lookup under one span name.
_PARALLEL = [
    ("aniso3d.cli", "parallel_map", "parallel.parallel_map", _shipped),
    ("aniso3d.isotest", "parallel_map", "parallel.parallel_map", _shipped),
    ("aniso3d._parallel", "parallel_map", "parallel.parallel_map", _shipped),
]
_ALL = _PARALLEL + [
    ("aniso3d.cli", "simulate_campaign", "simulate.simulate_campaign", None),
    ("aniso3d.simulate", "simulate_model", "simulate.simulate_model", _points),
    ("aniso3d.simulate", "compress", "simulate.compress", None),
    ("aniso3d.cli", "pooled_profile", "estimate.pooled_profile", None),
    ("aniso3d.estimate", "pattern_pairs", "estimate.pattern_pairs", _pairs_found),
    ("aniso3d.isotest", "pattern_pairs", "estimate.pattern_pairs", _pairs_found),
    ("aniso3d.estimate", "pair_numerators", "estimate.pair_numerators", _pairs_scanned),
    ("aniso3d.isotest", "pair_numerators", "estimate.pair_numerators", _pairs_scanned),
    ("aniso3d.cli", "power_curve_from_patterns", "isotest.power_curve_from_patterns",
     _decisions),
    ("aniso3d.cli", "read_patterns", "patternio.read_patterns", None),
    ("aniso3d.patternio", "read_pattern", "patternio.read_pattern", _file_bytes),
    ("aniso3d.cli", "write_pattern", "patternio.write_pattern", _file_bytes),
    ("aniso3d.cli", "write_csv", "patternio.write_csv", _file_bytes),
]


class Tracer:
    """Collects spans in memory; nesting follows the call stack."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, counter=None):
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1, {}]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span[4] = counter(args, kwargs, result)
            return result

        return traced

    def install(self, mode):
        for module_name, attr, name, counter in _ALL if mode == "all" else _PARALLEL:
            module = importlib.import_module(module_name)
            setattr(module, attr, self.wrap(name, getattr(module, attr), counter))
        if mode == "all":
            commands = importlib.import_module("aniso3d.cli")._COMMANDS
            for command, fn in commands.items():
                commands[command] = self.wrap(f"cli.{command}", fn)


def main():
    out, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    if mode not in ("all", "parallel"):
        raise SystemExit(f"mode must be all or parallel, got {mode!r}")
    tracer = Tracer()
    tracer.install(mode)
    from aniso3d.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        with open(out, "w") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main())
