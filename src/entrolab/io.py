"""CSV and JSON artifact plumbing.

A grid CSV is its value columns in row-major order: header `value` for a
scalar field, `real,imag` for a wave function, one column per axis for a
vector field.  A JSON sidecar (<path>.meta.json) states the grid: dim,
extents, points, boundary, and the metric weights.  Loaders rebuild the grid
from the sidecar and verify the row count; coordinates come from the grid,
`io.load_*(path).space.meshes`, not from the file.  Readers also accept
leading `axis0,...,axis<dim-1>` coordinate columns, as hand-written inputs
and older runs carry them, and skip them.  A run's snapshots are density
fields (`rho_*.csv`: fokker-planck, ensemble, coupled) or wave functions
(`psi_*.csv`: schrodinger, nonlinear), never both; a wave run's density is
|psi|^2.

Every CSV, grid or series, is written by one table writer: numbers as
`%.17g`, which round-trips float64 exactly, with `\r\n` line ends, formatted
a block of rows per `%` call.  A save/load round trip is exact, and repeated
runs of a seeded scenario produce bit-identical files.

Every CSV is read by one table reader: the header by `csv`, the body by one
`np.loadtxt` call over all of its columns, which parses in C.  The parsed
shape must be one row per body line and one column per header cell, so a
blank line or a uniformly too-wide body is refused too.  Only a refused body
is scanned again, row by row with `csv`, to name its first bad line.
"""

from __future__ import annotations

import csv
import io as pyio
import json
import os

import numpy as np

from .errors import ConfigError
from .fields import ComplexField, ConfigSpace, ScalarField, VectorField


# Rows per `%` call: enough to amortise the call, few enough that a write's
# temporary string and argument tuple stay O(block) rather than O(grid).
_BLOCK_ROWS = 4096


# The sidecar's entries: the ConfigSpace fields, in the order they are written.
_META_KEYS = ("dim", "extents", "points", "boundary", "sigma_sq")


def _meta_path(path) -> str:
    return str(path) + ".meta.json"


def _write_meta(path, space: ConfigSpace):
    with open(_meta_path(path), "w") as fh:
        json.dump({key: getattr(space, key) for key in _META_KEYS}, fh, indent=2)
        fh.write("\n")


def _read_meta(path):
    meta_file = _meta_path(path)
    if not os.path.exists(meta_file):
        raise ConfigError(f"missing sidecar metadata {meta_file}")
    with open(meta_file) as fh:
        return json.load(fh)


def space_from_meta(meta) -> ConfigSpace:
    """The grid a sidecar states; ConfigSpace checks each entry, naming it."""
    try:
        return ConfigSpace(**{key: meta[key] for key in _META_KEYS})
    except KeyError as exc:
        raise ConfigError(f"sidecar metadata missing key {exc}") from exc


def _write_table(path, header, table):
    """Write the header line, then the rows of `table`, one C-level `%`
    format of `%.17g` slots per block of rows."""
    table = np.asarray(table, dtype=float)
    row_fmt = ",".join(["%.17g"] * len(header)) + "\r\n"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        for start in range(0, len(table), _BLOCK_ROWS):
            block = table[start : start + _BLOCK_ROWS]
            fh.write(row_fmt * len(block) % tuple(block.ravel().tolist()))


def _write_grid_csv(path, space, headers, values):
    """`values` has one row per cell, in row-major order, and one column per
    header."""
    _write_table(path, headers, values)
    _write_meta(path, space)


def _read_csv(path):
    """Header and float body of a CSV file.  An empty file, a ragged row, a
    blank line or a cell that is not a bare number raises ConfigError naming
    the file and the line."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if not raw:
        raise ConfigError(f"{path}: empty file")
    start = raw.find(b"\n") + 1 or len(raw)  # the body's first byte
    header = next(csv.reader([raw[:start].decode()]))
    n_lines = raw.count(b"\n", start) + (start < len(raw) and not raw.endswith(b"\n"))
    if not n_lines:  # header only; loadtxt would warn about the missing data
        return header, np.empty((0, len(header)))
    body = pyio.BytesIO(raw)
    body.seek(start)
    try:
        data = np.loadtxt(body, delimiter=",", comments=None, ndmin=2)
    except ValueError as exc:
        _raise_bad_line(path, len(header), exc)
    # loadtxt skips blank lines and accepts any one uniform width
    if data.shape != (n_lines, len(header)):
        _raise_bad_line(path, len(header), f"read {data.shape} cells for {n_lines} lines")
    return header, data


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
    """The grid and the value columns of a grid CSV: the header cells after
    any leading `axis0..axis<dim-1>` cells.  value_columns may be an int or a
    callable of the grid dim."""
    space = space_from_meta(_read_meta(path))
    if callable(value_columns):
        value_columns = value_columns(space.dim)
    header, data = _read_csv(path)
    if len(data) != space.size:
        raise ConfigError(f"{path}: expected {space.size} rows, found {len(data)}")
    n_axes = space.dim if header[: space.dim] == [f"axis{a}" for a in range(space.dim)] else 0
    if len(header) != n_axes + value_columns:
        raise ConfigError(
            f"{path}: expected {value_columns} value columns, found {len(header) - n_axes}"
        )
    return space, np.ascontiguousarray(data[:, n_axes:])


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
    # the (real, imag) table read as complex128 keeps every bit of both parts
    return ComplexField(space, data.view(complex).reshape(space.shape))


def load_vector_field(path) -> VectorField:
    space, data = _read_grid_csv(path, lambda dim: dim)
    comps = np.stack([data[:, a].reshape(space.shape) for a in range(space.dim)])
    return VectorField(space, comps)


def save_series(path, header, rows):
    """Generic numeric table, e.g. (t, mass, variances, centers) rows."""
    _write_table(path, header, rows)


def load_series(path):
    return _read_csv(path)


def save_summary(path, summary: dict):
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_summary(path) -> dict:
    with open(path) as fh:
        return json.load(fh)
