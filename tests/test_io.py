import csv
import json
import math

import numpy as np
import pytest

from entrolab import io
from entrolab.errors import ConfigError
from entrolab.fields import ComplexField, ConfigSpace, ScalarField

from conftest import gaussian_density, make_params, make_space


def test_scalar_field_roundtrip_exact(tmp_path):
    p = make_params()
    space = make_space(10.0, 64, p)
    rho = gaussian_density(space, 0.3, 1.1)
    path = tmp_path / "rho.csv"
    io.save_scalar_field(path, rho)
    back = io.load_scalar_field(path)
    assert back.space.same_grid(space)
    assert np.array_equal(back.values, rho.values)


def test_scalar_field_roundtrip_2d(tmp_path):
    p = make_params(masses=(1.0, 2.0))
    import entrolab.fields as flds

    space = flds.ConfigSpace(dim=2, extents=(8.0, 4.0), points=(16, 8), sigma_sq=p.sigma_sq)
    vals = np.arange(16 * 8, dtype=float).reshape(16, 8)
    f = ScalarField(space, vals)
    path = tmp_path / "f2d.csv"
    io.save_scalar_field(path, f)
    back = io.load_scalar_field(path)
    assert back.space.same_grid(space)
    assert np.array_equal(back.values, vals)


def test_complex_field_roundtrip(tmp_path):
    p = make_params()
    space = make_space(10.0, 64, p)
    x = space.meshes[0]
    psi = ComplexField(space, np.exp(1j * x) * np.exp(-(x**2)))
    path = tmp_path / "psi.csv"
    io.save_complex_field(path, psi)
    back = io.load_complex_field(path)
    assert np.array_equal(back.values, psi.values)


def test_vector_field_roundtrip(tmp_path):
    """A hand-written vector-field input (grid CSV plus `.meta.json`
    sidecar, the documented format) loads exactly."""
    p = make_params(masses=(1.0, 2.0))
    space = ConfigSpace(dim=2, extents=(8.0, 4.0), points=(16, 8), sigma_sq=p.sigma_sq)
    comps = np.stack([np.sin(space.meshes[0]), np.cos(space.meshes[1]) / 3.0])
    path = tmp_path / "v.csv"
    cols = [m.ravel() for m in space.meshes] + [c.ravel() for c in comps]
    np.savetxt(path, np.stack(cols, axis=1), fmt="%.17g", delimiter=",",
               header="axis0,axis1,component0,component1", comments="")
    meta = {"dim": 2, "extents": [8.0, 4.0], "points": [16, 8], "boundary": "periodic",
            "sigma_sq": list(p.sigma_sq)}
    (tmp_path / "v.csv.meta.json").write_text(json.dumps(meta))
    back = io.load_vector_field(path)
    assert back.space.same_grid(space)
    assert np.array_equal(back.components, comps)


def test_missing_sidecar_is_a_config_error(tmp_path):
    p = make_params()
    space = make_space(10.0, 64, p)
    rho = gaussian_density(space, 0.0, 1.0)
    path = tmp_path / "rho.csv"
    io.save_scalar_field(path, rho)
    (tmp_path / "rho.csv.meta.json").unlink()
    with pytest.raises(ConfigError):
        io.load_scalar_field(path)


def test_empty_csv_is_a_config_error(tmp_path):
    p = make_params()
    space = make_space(10.0, 64, p)
    path = tmp_path / "rho.csv"
    io.save_scalar_field(path, gaussian_density(space, 0.0, 1.0))
    path.write_text("")
    with pytest.raises(ConfigError, match="empty file"):
        io.load_scalar_field(path)
    with pytest.raises(ConfigError, match="empty file"):
        io.load_series(path)


def test_series_roundtrip(tmp_path):
    path = tmp_path / "series.csv"
    io.save_series(path, ["t", "mass"], [(0.0, 1.0), (0.1, 1.0 - 1e-17)])
    header, rows = io.load_series(path)
    assert header == ["t", "mass"]
    assert rows[1, 1] == 1.0 - 1e-17  # repr-level precision survives


# Values whose text form is easy to get wrong: signed infinities, nan,
# negative zero, the smallest subnormal, a huge value and a repeating fraction.
SPECIAL = [np.inf, -np.inf, np.nan, -0.0, 5e-324, 1e308, 1.0 / 3.0]


def _reference_csv(path, header, rows):
    """The writer as it was: csv.writer, one format(float(x), ".17g") per cell."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([format(float(v), ".17g") for v in row])


def test_writer_matches_reference_bytes(tmp_path):
    rng = np.random.default_rng(3)
    values = np.concatenate([SPECIAL, rng.standard_normal(64 - len(SPECIAL))])
    space = make_space(10.0, values.size, make_params())
    x = space.meshes[0]

    io.save_scalar_field(tmp_path / "rho.csv", ScalarField(space, values))
    _reference_csv(tmp_path / "rho_ref.csv", ["value"], zip(values))
    assert (tmp_path / "rho.csv").read_bytes() == (tmp_path / "rho_ref.csv").read_bytes()

    psi = np.empty(values.size, dtype=complex)
    psi.real, psi.imag = values[::-1], values
    io.save_complex_field(tmp_path / "psi.csv", ComplexField(space, psi))
    _reference_csv(tmp_path / "psi_ref.csv", ["real", "imag"], zip(psi.real, psi.imag))
    assert (tmp_path / "psi.csv").read_bytes() == (tmp_path / "psi_ref.csv").read_bytes()

    rows = [(t, v, 7) for t, v in zip(x, values)]
    io.save_series(tmp_path / "series.csv", ["t", "mass", "n"], rows)
    _reference_csv(tmp_path / "series_ref.csv", ["t", "mass", "n"], rows)
    assert (tmp_path / "series.csv").read_bytes() == (tmp_path / "series_ref.csv").read_bytes()


def _assert_grid_files_match_reference(tmp_path, space, seed):
    """Scalar and complex saves on `space` against the reference writer."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(space.shape)
    psi = values + 1j * rng.standard_normal(space.shape)

    io.save_scalar_field(tmp_path / "rho.csv", ScalarField(space, values))
    _reference_csv(tmp_path / "rho_ref.csv", ["value"], zip(values.ravel()))
    assert (tmp_path / "rho.csv").read_bytes() == (tmp_path / "rho_ref.csv").read_bytes()

    io.save_complex_field(tmp_path / "psi.csv", ComplexField(space, psi))
    _reference_csv(tmp_path / "psi_ref.csv", ["real", "imag"],
                   zip(psi.real.ravel(), psi.imag.ravel()))
    assert (tmp_path / "psi.csv").read_bytes() == (tmp_path / "psi_ref.csv").read_bytes()


@pytest.mark.parametrize(
    "extents, points",
    [((8.0, 4.0), (67, 65)), ((6.0, 5.0, 4.0), (10, 12, 40))],
    ids=["2d-partial-last-block", "3d"],
)
def test_grid_writer_matches_reference_bytes(tmp_path, extents, points):
    """Grids whose row count is not a multiple of the block size: every block,
    the partial last one included, is formatted in row-major order."""
    assert math.prod(points) % io._BLOCK_ROWS != 0 and math.prod(points) > io._BLOCK_ROWS
    space = ConfigSpace(dim=len(points), extents=extents, points=points)
    _assert_grid_files_match_reference(tmp_path, space, seed=7)


def test_grid_roundtrip_across_row_blocks(tmp_path):
    n = 2 * io._BLOCK_ROWS + 3
    space = make_space(10.0, n, make_params())
    rng = np.random.default_rng(5)
    values = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    path = tmp_path / "rho.csv"
    io.save_scalar_field(path, ScalarField(space, values))
    back = io.load_scalar_field(path)
    assert np.array_equal(back.values, values)
    assert np.array_equal(back.space.meshes[0], space.meshes[0])


# ---------------------------------------------------------------------------
# grid layouts: value columns only, or leading axis<k> coordinate columns


def _grid_files(tmp_path, space, value_header, values):
    """One field written twice by hand: its value columns only, and with the
    grid's coordinates as leading axis<k> columns.  Both share one sidecar."""
    axes = [f"axis{a}" for a in range(space.dim)]
    coords = [m.ravel() for m in space.meshes]
    paths = tmp_path / "values.csv", tmp_path / "coords.csv"
    _reference_csv(paths[0], value_header, zip(*values))
    _reference_csv(paths[1], axes + value_header, zip(*coords, *values))
    for path in paths:
        io._write_meta(path, space)
    return paths


LAYOUT_CASES = {
    "scalar": (["value"], io.load_scalar_field, lambda f: f.values),
    "complex": (["real", "imag"], io.load_complex_field, lambda f: f.values),
    "vector": (["component0", "component1"], io.load_vector_field, lambda f: f.components),
}


@pytest.mark.parametrize("kind", LAYOUT_CASES)
def test_both_grid_layouts_load_bit_equal(tmp_path, kind):
    header, load, array_of = LAYOUT_CASES[kind]
    space = ConfigSpace(dim=2, extents=(8.0, 4.0), points=(16, 8))
    rng = np.random.default_rng(11)
    columns = rng.standard_normal((len(header), space.size)) * 10.0 ** rng.integers(-300, 300)
    columns[0, : len(SPECIAL)] = SPECIAL
    with_values, with_coords = (load(p) for p in _grid_files(tmp_path, space, header, columns))
    assert with_values.space.same_grid(space) and with_coords.space.same_grid(space)
    bits = [array_of(f).view(np.int64) for f in (with_values, with_coords)]
    assert np.array_equal(*bits)
    assert np.array_equal(np.real(array_of(with_values)).ravel()[:2], columns[0, :2])  # ±inf


def test_saved_grids_carry_only_their_value_columns(tmp_path):
    space = ConfigSpace(dim=2, extents=(8.0, 4.0), points=(16, 8))
    io.save_scalar_field(tmp_path / "rho.csv", ScalarField(space, np.ones(space.shape)))
    io.save_complex_field(tmp_path / "psi.csv", ComplexField(space, np.ones(space.shape) + 0j))
    assert (tmp_path / "rho.csv").read_text().splitlines()[:2] == ["value", "1"]
    assert (tmp_path / "psi.csv").read_text().splitlines()[:2] == ["real,imag", "1,0"]


@pytest.mark.parametrize(
    "header",
    ["value,extra", "axis0,axis1,value,extra", "axis0,value", "axis0,value,extra",
     "axis1,axis0,value", "axis0,axis1"],
    ids=["values-too-wide", "coords-too-wide", "partial-axes", "partial-axes-3-wide",
         "axes-out-of-order", "no-values"],
)
def test_grid_file_with_a_wrong_column_count_is_refused_naming_the_file(tmp_path, header):
    space = ConfigSpace(dim=2, extents=(8.0, 4.0), points=(4, 4))
    path = tmp_path / "rho.csv"
    width = header.count(",") + 1
    io.save_series(path, header.split(","), np.zeros((space.size, width)))
    io._write_meta(path, space)
    with pytest.raises(ConfigError, match=r"rho\.csv: expected 1 value columns, found "):
        io.load_scalar_field(path)


def test_a_series_keeps_its_axis_columns(tmp_path):
    """The grid rule is for grid files: a series headed axis0 (an ensemble's
    final_positions.csv) reads every column."""
    path = tmp_path / "final_positions.csv"
    io.save_series(path, ["axis0"], [[0.5], [-1.25]])
    header, rows = io.load_series(path)
    assert header == ["axis0"] and rows.tolist() == [[0.5], [-1.25]]


@pytest.mark.parametrize(
    "key, value, message",
    [("dim", 1.5, "dim must be a whole number, got 1.5"),
     ("points", [64.5], "points must be a whole number, got 64.5")],
)
def test_sidecar_with_a_grid_size_that_is_not_whole_is_refused(tmp_path, key, value, message):
    """int() used to truncate a hand-edited sidecar's dim: 1.5 to 1."""
    space = make_space(10.0, 64, make_params())
    path = tmp_path / "rho.csv"
    io.save_scalar_field(path, gaussian_density(space, 0.0, 1.0))
    meta = json.loads((tmp_path / "rho.csv.meta.json").read_text())
    meta[key] = value
    (tmp_path / "rho.csv.meta.json").write_text(json.dumps(meta))
    with pytest.raises(ConfigError, match=rf"^{message}$"):
        io.load_scalar_field(path)


def test_series_with_no_rows_writes_only_the_header(tmp_path):
    path = tmp_path / "series.csv"
    io.save_series(path, ["t", "mass"], [])
    assert path.read_bytes() == b"t,mass\r\n"


def test_summary_roundtrip(tmp_path):
    path = tmp_path / "summary.json"
    io.save_summary(path, {"passed": True, "gap": 1.25e-9, "nested": {"a": [1, 2]}})
    back = io.load_summary(path)
    assert back == {"passed": True, "gap": 1.25e-9, "nested": {"a": [1, 2]}}


# ---------------------------------------------------------------------------
# reader contract: one C parse of the body, and a refused body names its line


def _series_file(tmp_path, body, header="t,mass,n"):
    path = tmp_path / "series.csv"
    path.write_bytes((header + "\r\n" + body).encode())
    return path


@pytest.mark.filterwarnings("error")
def test_header_only_file_reads_as_no_rows_without_a_warning(tmp_path):
    io.save_series(tmp_path / "series.csv", ["t", "mass"], [])
    header, rows = io.load_series(tmp_path / "series.csv")
    assert header == ["t", "mass"]
    assert rows.shape == (0, 2)


def test_uniformly_too_wide_body_is_refused(tmp_path):
    """A body of one width parses as a table; the width must match the header."""
    path = _series_file(tmp_path, "1,2,3,4\r\n5,6,7,8\r\n")
    with pytest.raises(ConfigError, match=r"series\.csv, line 2: expected 3 cells, found 4"):
        io.load_series(path)


@pytest.mark.parametrize(
    "bad_line",
    ["1,#1.0,3", '1,"1.0",3', "1,,3", ""],
    ids=["comment-mark", "quoted", "empty-cell", "blank-line"],
)
def test_bad_body_line_is_refused_naming_the_file_and_the_line(tmp_path, bad_line):
    path = _series_file(tmp_path, f"0,1,2\r\n1,2,3\r\n{bad_line}\r\n4,5,6\r\n")
    with pytest.raises(ConfigError, match=r"series\.csv, line 4: "):
        io.load_series(path)


def test_nan_and_infinite_cells_round_trip(tmp_path):
    rows = [(0.0, np.nan, np.inf), (1.0, -np.inf, -0.0)]
    io.save_series(tmp_path / "series.csv", ["t", "a", "b"], rows)
    _, back = io.load_series(tmp_path / "series.csv")
    assert np.array_equal(back.view(np.int64), np.array(rows).view(np.int64))


@pytest.mark.filterwarnings("error")
def test_complex_field_round_trips_signed_zeros_and_infinities(tmp_path):
    """Built as real + 1j * imag, 1+inf*j loaded as nan+inf*j with a warning
    and a -0.0 real part beside a positive imaginary part loaded as +0.0."""
    space = make_space(4.0, 4, make_params())
    psi = np.array([complex(-0.0, 1.0), complex(1.0, np.inf), 2.0 - 1.0j, complex(-0.0, -1.0)])
    io.save_complex_field(tmp_path / "psi.csv", ComplexField(space, psi))
    back = io.load_complex_field(tmp_path / "psi.csv").values
    assert np.array_equal(back.view(np.int64), psi.view(np.int64))
