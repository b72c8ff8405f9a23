"""Plain-text point pattern files and CSV table output.

Pattern files are toolchain-neutral text: comment lines start with '#',
the first data line is ``window x_lo x_hi y_lo y_hi z_lo z_hi``, and each
following line holds one ``x y z`` point.  Floats are written with
round-trip precision, so write-then-read reproduces coordinates exactly.
"""

import os

import numpy as np

from .simulate import BoxWindow, PointPattern

__all__ = ["write_pattern", "read_pattern", "read_patterns", "write_csv"]


def _fmt(value: float) -> str:
    return repr(float(value))


def write_pattern(path, pattern: PointPattern, comments=()) -> None:
    """Write one pattern; ``comments`` become leading '#' lines."""
    w = pattern.window
    lines = [f"# {c}" for c in comments]
    bounds = " ".join(
        f"{_fmt(w.lo[i])} {_fmt(w.hi[i])}" for i in range(3)
    )
    lines.append(f"window {bounds}")
    lines.extend(f"{x!r} {y!r} {z!r}" for x, y, z in pattern.points.tolist())
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_pattern(path) -> PointPattern:
    """Read one pattern file, reporting the line number of any bad content,
    and the file of a bad point set (duplicates, or points outside).

    The file is read once, and all its numbers are parsed by one
    ``np.array(..., dtype=float)``, which reads each token exactly as
    ``float`` does.  Only when the layout, the parse, the finiteness
    check or the window fails are the lines walked, to name the first bad
    one.
    """
    with open(path) as fh:
        lines = fh.readlines()
    rows = [f for f in map(str.split, lines) if f and not f[0].startswith("#")]
    values = None
    if (rows and rows[0][0] == "window" and len(rows[0]) == 7
            and all(len(f) == 3 for f in rows[1:])):
        try:
            values = np.array(rows[0][1:] + [t for f in rows[1:] for t in f], dtype=float)
        except ValueError:
            pass
    if values is None or not np.isfinite(values).all():
        _raise_first_bad_line(path, lines)
    try:
        window = BoxWindow(values[0:6:2], values[1:6:2])
    except ValueError:
        _raise_first_bad_line(path, lines)  # the walk names the window's line
    try:
        return PointPattern(values[6:].reshape(-1, 3), window)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _raise_first_bad_line(path, lines):
    """Raise the error of the first bad line of a pattern file, in file order.

    Each line is checked as ``read_pattern`` checks the whole file, with the
    same parser, so the walk always finds the line that made it fail.
    """
    seen_window = False
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if seen_window:
            if len(fields) != 3:
                raise ValueError(f"{path}:{lineno}: expected 'x y z', got {line!r}")
            tokens, what = fields, "coordinates"
        elif fields[0] != "window" or len(fields) != 7:
            raise ValueError(
                f"{path}:{lineno}: expected 'window x_lo x_hi y_lo y_hi "
                f"z_lo z_hi', got {line!r}"
            )
        else:
            tokens, what, seen_window = fields[1:], "window bounds", True
        try:
            values = np.array(tokens, dtype=float)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: malformed {what} {line!r}") from None
        if not np.isfinite(values).all():
            raise ValueError(f"{path}:{lineno}: non-finite {what} {line!r}")
        if what == "window bounds":  # an empty window is reported before later lines
            try:
                BoxWindow(values[0::2], values[1::2])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    raise ValueError(f"{path}: missing window line")


def read_patterns(source) -> list:
    """Read every pattern under a directory (sorted) or from explicit paths."""
    if isinstance(source, (str, os.PathLike)) and os.path.isdir(source):
        names = sorted(
            n for n in os.listdir(source)
            if n.endswith(".txt") and not n.startswith("manifest")
        )
        if not names:
            raise ValueError(f"no pattern files (*.txt) found in {source}")
        paths = [os.path.join(source, n) for n in names]
    elif isinstance(source, (str, os.PathLike)):
        paths = [source]
    else:
        paths = list(source)
    return [read_pattern(p) for p in paths]


def write_csv(path, header, rows, comments=()) -> None:
    """Self-describing CSV: '#' comment lines, a header row, then data.

    Floats are written with round-trip precision so identical runs give
    byte-identical files.
    """
    lines = [f"# {c}" for c in comments]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
