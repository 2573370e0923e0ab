"""CSV and JSON artifact plumbing.

Grid fields travel as CSV with header `axis0,axis1,...,<value columns>` in
row-major order, plus a JSON sidecar (<path>.meta.json) holding what the CSV
cannot: dim, extents, points, boundary, and the metric weights.  Loaders
rebuild the grid from the sidecar and verify the row count.

Every CSV is written by one table writer: numbers as `%.17g`, which
round-trips float64 exactly, with `\r\n` line ends, formatted a block of
rows per `%` call.  A grid's coordinate cells are the same in every file on
that grid, so their text is formatted once per grid and cached inside the
block formats; a write then formats only its value cells.  A save/load round
trip is exact, and repeated runs of a seeded scenario produce bit-identical
files.

Every CSV is read by one table reader: the header by `csv`, the body by one
`np.loadtxt` call over all of its columns, which parses in C.  The parsed
shape must be one row per body line and one column per header cell, so a
blank line or a uniformly too-wide body is refused too.  Only a refused body
is scanned again, row by row with `csv`, to name its first bad line.
"""

from __future__ import annotations

import csv
import functools
import io as pyio
import json
import math
import os

import numpy as np

from .errors import ConfigError
from .fields import ComplexField, ConfigSpace, ScalarField, VectorField


# Rows per `%` call: enough to amortise the call, few enough that a write's
# temporary string and argument tuple stay O(block) rather than O(grid).  A
# grid's block formats, coordinate text included, are built once per grid,
# one block at a time, and cached (`_grid_block_formats`); the cache itself
# is O(grid) text, about 26-32 bytes per cell at 2D and 32-90 in 3D.
_BLOCK_ROWS = 4096


def _meta_path(path) -> str:
    return str(path) + ".meta.json"


def _write_meta(path, space: ConfigSpace):
    meta = {
        "dim": space.dim,
        "extents": list(space.extents),
        "points": list(space.points),
        "boundary": space.boundary,
        "sigma_sq": list(space.sigma_sq),
    }
    with open(_meta_path(path), "w") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")


def _read_meta(path):
    meta_file = _meta_path(path)
    if not os.path.exists(meta_file):
        raise ConfigError(f"missing sidecar metadata {meta_file}")
    with open(meta_file) as fh:
        return json.load(fh)


def space_from_meta(meta) -> ConfigSpace:
    try:
        return ConfigSpace(
            dim=int(meta["dim"]),
            extents=tuple(meta["extents"]),
            points=tuple(meta["points"]),
            sigma_sq=tuple(meta["sigma_sq"]),
            boundary=str(meta["boundary"]),
        )
    except KeyError as exc:
        raise ConfigError(f"sidecar metadata missing key {exc}") from exc


def _axis_header(dim):
    return [f"axis{a}" for a in range(dim)]


def _write_table(path, header, table, block_formats):
    """Write the header line, then the rows of `table`, one C-level `%`
    format per block of rows.  `block_formats` yields one format per block,
    with a `%.17g` slot for each of the block's cells of `table`."""
    table = np.asarray(table, dtype=float)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        starts = range(0, len(table), _BLOCK_ROWS)
        for start, fmt in zip(starts, block_formats, strict=True):
            fh.write(fmt % tuple(table[start : start + _BLOCK_ROWS].ravel().tolist()))


def _table_block_formats(n_rows, n_columns):
    """Block formats of a table with every cell a `%.17g` slot."""
    row_fmt = ",".join(["%.17g"] * n_columns) + "\r\n"
    for start in range(0, n_rows, _BLOCK_ROWS):
        yield row_fmt * min(_BLOCK_ROWS, n_rows - start)


@functools.lru_cache(maxsize=2)
def _grid_block_formats(extents, points, n_values):
    """Block formats of a grid CSV with `n_values` value columns: each row's
    coordinate cells already formatted `%.17g`, its value cells left as
    `%.17g` slots, e.g. `-9.921875,-9.921875,%.17g\r\n`.

    Keyed on the grid's values, not on a ConfigSpace, since every loaded
    scenario builds a new one; two entries hold one grid's density and wave
    formats.  An entry keeps the grid's coordinate text for the life of the
    process: dim coordinates of up to 24 characters plus 6 per value slot,
    per cell.  At 3D-64^3 with 17-digit coordinates that raised a snapshot
    run's peak RSS by about 15 MB; 128^3 would cost about 8 times that.
    Coordinate text never contains `%`, so baking it into a format is safe.
    """
    space = ConfigSpace(dim=len(points), extents=extents, points=points)
    axes = [space.axis_coords(a) for a in range(space.dim)]
    coord_fmt = "%.17g," * space.dim + ",".join(["%%.17g"] * n_values) + "\r\n"
    n_rows = math.prod(points)
    blocks = []
    for start in range(0, n_rows, _BLOCK_ROWS):
        index = np.unravel_index(np.arange(start, min(start + _BLOCK_ROWS, n_rows)), points)
        coords = np.stack([ax[i] for ax, i in zip(axes, index)], axis=1)
        blocks.append(coord_fmt * len(coords) % tuple(coords.ravel().tolist()))
    return tuple(blocks)


def _write_grid_csv(path, space, headers, values):
    """`values` has one row per cell, in row-major order, and one column per
    header."""
    formats = _grid_block_formats(space.extents, space.points, len(headers))
    _write_table(path, _axis_header(space.dim) + headers, values, formats)
    _write_meta(path, space)


def _read_csv(path, skip=0):
    """Header and float body (columns `skip:`) of a CSV file.  An empty file,
    a ragged row, a blank line or a cell that is not a bare number raises
    ConfigError naming the file and the line."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if not raw:
        raise ConfigError(f"{path}: empty file")
    start = raw.find(b"\n") + 1 or len(raw)  # the body's first byte
    header = next(csv.reader([raw[:start].decode()]))
    n_lines = raw.count(b"\n", start) + (start < len(raw) and not raw.endswith(b"\n"))
    if not n_lines:  # header only; loadtxt would warn about the missing data
        return header, np.empty((0, len(header) - skip))
    body = pyio.BytesIO(raw)
    body.seek(start)
    try:
        data = np.loadtxt(body, delimiter=",", comments=None, ndmin=2)
    except ValueError as exc:
        _raise_bad_line(path, len(header), exc)
    # loadtxt skips blank lines and accepts any one uniform width
    if data.shape != (n_lines, len(header)):
        _raise_bad_line(path, len(header), f"read {data.shape} cells for {n_lines} lines")
    return header, np.ascontiguousarray(data[:, skip:])


def _raise_bad_line(path, n_cells, reason):
    """Name the first line of `path` that the body parse refused: a scan with
    csv, unquoted, and float() per cell.  `reason` is the fallback."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh, quoting=csv.QUOTE_NONE)
        next(reader)
        for row in reader:
            try:
                if len(row) != n_cells:
                    raise ValueError(f"expected {n_cells} cells, found {len(row)}")
                for v in row:
                    float(v)
            except ValueError as exc:
                raise ConfigError(f"{path}, line {reader.line_num}: {exc}") from None
    raise ConfigError(f"{path}: {reason}")


def _read_grid_csv(path, value_columns):
    """value_columns may be an int or a callable of the grid dim."""
    space = space_from_meta(_read_meta(path))
    if callable(value_columns):
        value_columns = value_columns(space.dim)
    expected = int(np.prod(space.points))
    header, data = _read_csv(path, space.dim)
    if len(data) != expected:
        raise ConfigError(f"{path}: expected {expected} rows, found {len(data)}")
    if len(header) != space.dim + value_columns:
        raise ConfigError(
            f"{path}: expected {space.dim + value_columns} columns, found {len(header)}"
        )
    return space, data


def save_scalar_field(path, f: ScalarField):
    _write_grid_csv(path, f.space, ["value"], f.values.reshape(-1, 1))


def load_scalar_field(path) -> ScalarField:
    space, data = _read_grid_csv(path, 1)
    return ScalarField(space, data[:, 0].reshape(space.shape))


def save_complex_field(path, f: ComplexField):
    # a complex128 array read as float64 pairs is the (real, imag) table
    values = np.ascontiguousarray(f.values, dtype=complex)
    _write_grid_csv(path, f.space, ["real", "imag"], values.view(float).reshape(-1, 2))


def load_complex_field(path) -> ComplexField:
    space, data = _read_grid_csv(path, 2)
    return ComplexField(space, (data[:, 0] + 1j * data[:, 1]).reshape(space.shape))


def load_vector_field(path) -> VectorField:
    space, data = _read_grid_csv(path, lambda dim: dim)
    comps = np.stack([data[:, a].reshape(space.shape) for a in range(space.dim)])
    return VectorField(space, comps)


def save_series(path, header, rows):
    """Generic numeric table, e.g. (t, mass, variances, centers) rows."""
    _write_table(path, header, rows, _table_block_formats(len(rows), len(header)))


def load_series(path):
    return _read_csv(path)


def save_summary(path, summary: dict):
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_summary(path) -> dict:
    with open(path) as fh:
        return json.load(fh)
