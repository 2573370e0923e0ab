"""CSV and JSON artifact plumbing.

Grid fields travel as CSV with header `axis0,axis1,...,<value columns>` in
row-major order, plus a JSON sidecar (<path>.meta.json) holding what the CSV
cannot: dim, extents, points, boundary, and the metric weights.  Loaders
rebuild the grid from the sidecar and verify the row count.

Every CSV is written by one table writer: numbers as `%.17g`, which
round-trips float64 exactly, with `\r\n` line ends, formatted a block of
rows per `%` call.  A save/load round trip is exact, and repeated runs of a
seeded scenario produce bit-identical files.
"""

from __future__ import annotations

import csv
import json
import os

import numpy as np

from .errors import ConfigError
from .fields import ComplexField, ConfigSpace, ScalarField, VectorField


# Rows per `%` call: enough to amortise the call, few enough that the
# temporary string and argument tuple stay O(block) rather than O(grid).
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


def _write_table(path, header, table):
    """Write the header line, then the rows of `table` (one value per header
    column) as `%.17g` cells, one C-level `%` format per block of rows."""
    table = np.asarray(table, dtype=float)
    row_fmt = ",".join(["%.17g"] * len(header)) + "\r\n"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        for start in range(0, len(table), _BLOCK_ROWS):
            block = table[start : start + _BLOCK_ROWS]
            fh.write(row_fmt * len(block) % tuple(block.ravel().tolist()))


def _write_grid_csv(path, space, headers, columns):
    table = np.column_stack([m.ravel() for m in space.meshes] + list(columns))
    _write_table(path, _axis_header(space.dim) + headers, table)
    _write_meta(path, space)


def _read_csv(path, skip=0):
    """Header and float body (columns `skip:`) of a CSV file.  An empty file,
    a ragged row or a non-numeric cell raises ConfigError naming the file
    and the line."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ConfigError(f"{path}: empty file")
        data = []
        for row in reader:
            try:
                if len(row) != len(header):
                    raise ValueError(f"expected {len(header)} cells, found {len(row)}")
                data.append([float(v) for v in row[skip:]])
            except ValueError as exc:
                raise ConfigError(f"{path}, line {reader.line_num}: {exc}") from None
    return header, np.array(data)


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
    _write_grid_csv(path, f.space, ["value"], [f.values.ravel()])


def load_scalar_field(path) -> ScalarField:
    space, data = _read_grid_csv(path, 1)
    return ScalarField(space, data[:, 0].reshape(space.shape))


def save_complex_field(path, f: ComplexField):
    _write_grid_csv(
        path, f.space, ["real", "imag"], [f.values.real.ravel(), f.values.imag.ravel()]
    )


def load_complex_field(path) -> ComplexField:
    space, data = _read_grid_csv(path, 2)
    return ComplexField(space, (data[:, 0] + 1j * data[:, 1]).reshape(space.shape))


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
