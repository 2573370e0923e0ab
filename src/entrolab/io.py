"""Artifact plumbing: grids and arrays as .npy, series as CSV, JSON.

A grid file holds one field's values as a `.npy` array, written by
`np.save` without pickling: float64 of the grid's shape for a scalar field,
complex128 for a wave function, float64 of shape (dim, *grid) for a vector
field.  A JSON sidecar (<path>.meta.json) states the grid: dim, extents,
points, boundary, and the metric weights; coordinates come from the grid,
`io.load_*(path).space.meshes`, not from the file.  Loaders rebuild the grid
from the sidecar and refuse, naming the file, an array of another dtype or
shape, a truncated file and a pickled one; a round trip keeps every bit.
A run's snapshots are density fields (`rho_*.npy`: fokker-planck, ensemble,
coupled) or wave functions (`psi_*.npy`: schrodinger, nonlinear), never
both; a wave run's density is |psi|^2.  A nonlinear run's psi is in
regraduated units, sqrt(rho) exp(i kappa phi) with the kappa its
summary.json states.  An ensemble's walker positions are one (walkers, dim)
float64 `.npy` array, with no sidecar.

A grid file that does not start with numpy's magic string is read as a grid
CSV, the format of hand-written inputs: its value columns in row-major order
(header `value`, `real,imag`, or one column per axis), optionally after
leading `axis0,...,axis<dim-1>` coordinate columns, which are skipped.

A series (a few rows of moments, energies or gaps) is CSV text: one
`csv.writer` row per table row, numbers as `format(x, ".17g")`, which
round-trips float64 exactly, with `\r\n` line ends.  Every CSV is read by one
table reader: the header by `csv`, the body by one `np.loadtxt` call over all
of its columns.  The parsed shape must be one row per body line and one
column per header cell, so a blank line or a uniformly too-wide body is
refused too.  Only a refused body is scanned again, row by row with `csv`, to
name its first bad line.
"""

from __future__ import annotations

import csv
import io as pyio
import json
import os

import numpy as np

from .errors import ConfigError
from .fields import ComplexField, ConfigSpace, ScalarField, VectorField


# The sidecar's entries: the ConfigSpace fields, in the order they are written.
_META_KEYS = ("dim", "extents", "points", "boundary", "sigma_sq")

# The first bytes of every .npy file.
_NPY_MAGIC = b"\x93NUMPY"


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
    return load_summary(meta_file)


def space_from_meta(meta) -> ConfigSpace:
    """The grid a sidecar states; ConfigSpace checks each entry, naming it."""
    try:
        return ConfigSpace(**{key: meta[key] for key in _META_KEYS})
    except KeyError as exc:
        raise ConfigError(f"sidecar metadata missing key {exc}") from exc


def save_array(path, values):
    """`values` as a .npy file at `path`, whatever its name says."""
    with open(path, "wb") as fh:
        np.save(fh, values, allow_pickle=False)


def load_array(path, dtype) -> np.ndarray:
    """The array of a .npy file, which must hold `dtype` values; a truncated
    or pickled file is refused, naming it."""
    try:
        values = np.load(path, allow_pickle=False)
    except (ValueError, EOFError) as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if values.dtype != dtype:
        raise ConfigError(f"{path}: expected {np.dtype(dtype)} values, found {values.dtype}")
    return values


def _write_grid(path, space, values):
    save_array(path, values)
    _write_meta(path, space)


def _read_grid(path, dtype, vector=False):
    """The grid and the values of a grid file, shaped as the field stores
    them: a .npy array, or else a grid CSV's value columns."""
    space = space_from_meta(_read_meta(path))
    shape = (space.dim, *space.shape) if vector else space.shape
    with open(path, "rb") as fh:
        is_npy = fh.read(len(_NPY_MAGIC)) == _NPY_MAGIC
    if is_npy:
        values = load_array(path, dtype)
        if values.shape != shape:
            raise ConfigError(f"{path}: expected shape {shape}, as its sidecar states, "
                              f"found {values.shape}")
        return space, values
    n_values = space.dim if vector else np.dtype(dtype).itemsize // 8
    data = _read_grid_csv(path, space, n_values)
    # a (real, imag) table read as complex128 keeps every bit of both parts
    return space, (data.T if vector else data.view(dtype)).reshape(shape)


def _read_grid_csv(path, space, value_columns):
    """The value columns of a grid CSV: the header cells after any leading
    `axis0..axis<dim-1>` cells."""
    header, data = _read_csv(path)
    if len(data) != space.size:
        raise ConfigError(f"{path}: expected {space.size} rows, found {len(data)}")
    n_axes = space.dim if header[: space.dim] == [f"axis{a}" for a in range(space.dim)] else 0
    if len(header) != n_axes + value_columns:
        raise ConfigError(
            f"{path}: expected {value_columns} value columns, found {len(header) - n_axes}"
        )
    return np.ascontiguousarray(data[:, n_axes:])


def _read_csv(path):
    """Header and float body of a CSV file.  An empty file, a ragged row, a
    blank line or a cell that is not a bare number raises ConfigError naming
    the file and the line."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if not raw:
        raise ConfigError(f"{path}: empty file")
    start = raw.find(b"\n") + 1 or len(raw)  # the body's first byte
    header = next(csv.reader([raw[:start].decode(errors="replace")]))
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
    with open(path, newline="", errors="replace") as fh:  # a byte that is not text fails float()
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


def save_scalar_field(path, f: ScalarField):
    _write_grid(path, f.space, f.values)


def load_scalar_field(path) -> ScalarField:
    return ScalarField(*_read_grid(path, np.float64))


def save_complex_field(path, f: ComplexField):
    _write_grid(path, f.space, f.values)


def load_complex_field(path) -> ComplexField:
    return ComplexField(*_read_grid(path, np.complex128))


def load_vector_field(path) -> VectorField:
    return VectorField(*_read_grid(path, np.float64, vector=True))


def save_series(path, header, rows):
    """A numeric table, e.g. (t, mass, variances, centers) rows, as CSV."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in np.asarray(rows, dtype=float).tolist():
            writer.writerow([format(x, ".17g") for x in row])


def load_series(path):
    return _read_csv(path)


def save_summary(path, summary: dict):
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_summary(path) -> dict:
    """A JSON file, a summary or a sidecar; text that is not JSON is refused,
    naming the file."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # a JSONDecodeError, or bytes that are not text
            raise ConfigError(f"{path}: {exc}") from None
