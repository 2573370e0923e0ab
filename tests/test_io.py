import csv
import json
import re
from fractions import Fraction

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
    path = tmp_path / "rho.npy"
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
    path = tmp_path / "f2d.npy"
    io.save_scalar_field(path, f)
    back = io.load_scalar_field(path)
    assert back.space.same_grid(space)
    assert np.array_equal(back.values, vals)


def test_complex_field_roundtrip(tmp_path):
    p = make_params()
    space = make_space(10.0, 64, p)
    x = space.meshes[0]
    psi = ComplexField(space, np.exp(1j * x) * np.exp(-(x**2)))
    path = tmp_path / "psi.npy"
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
    path = tmp_path / "rho.npy"
    io.save_scalar_field(path, rho)
    (tmp_path / "rho.npy.meta.json").unlink()
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
    x = make_space(10.0, values.size, make_params()).meshes[0]
    rows = [(t, v, 7) for t, v in zip(x, values)]
    io.save_series(tmp_path / "series.csv", ["t", "mass", "n"], rows)
    _reference_csv(tmp_path / "series_ref.csv", ["t", "mass", "n"], rows)
    assert (tmp_path / "series.csv").read_bytes() == (tmp_path / "series_ref.csv").read_bytes()


def _hard_cells():
    """Floats whose `%.17g` text is easy to get wrong, then 10^5 random bit
    patterns (every exponent, nan payloads and subnormals included)."""
    rng = np.random.default_rng(23)
    powers = np.array([float(f"1e{k}") for k in range(-307, 309)])
    # exact ties: 18 significant digits, the last a 5
    ties = np.concatenate([rng.integers(10**15, 2**51, 40) + 0.25,
                           rng.integers(10**15, 2**51, 40) + 0.75,
                           rng.integers(10**14, 2**50, 40) + 0.125,
                           rng.integers(10**13, 2**49, 40) + 0.0625])
    special = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324,
               np.nextafter(2.2250738585072014e-308, 0), 2.2250738585072014e-308,
               1000000000000000.25, 1e23, 1e-305, 1e16, 1e17, 0.0001, 0.001, 1e-5]
    integers = [2.0**53 + d for d in range(-3, 4)] + [1e17 + d for d in (-32, -16, 16, 32)]
    bits = rng.integers(0, 2**64 - 1, 100_000, dtype=np.uint64, endpoint=True)
    return np.concatenate([special, integers, powers, np.nextafter(powers, 0),
                           np.nextafter(powers, np.inf), ties, -ties, bits.view(float)])


def _assert_table_matches_reference(tmp_path, rows):
    header = [f"c{j}" for j in range(rows.shape[1])]
    io.save_series(tmp_path / "t.csv", header, rows)
    _reference_csv(tmp_path / "t_ref.csv", header, rows)
    got, ref = ((tmp_path / name).read_bytes().split(b"\r\n") for name in ("t.csv", "t_ref.csv"))
    assert len(got) == len(ref)
    assert [(g, r) for g, r in zip(got, ref) if g != r][:5] == []


def test_writer_matches_reference_bytes_on_hard_cells(tmp_path):
    """Ties, powers of ten and their neighbours, and random bit patterns;
    1e-305 is a double below 10^-305 whose 17 digits carry into it."""
    assert Fraction(1e-305) < Fraction(1, 10**305) and format(1e-305, ".17g") == "1e-305"
    cells = _hard_cells()
    _assert_table_matches_reference(tmp_path, cells[: cells.size // 3 * 3].reshape(-1, 3))


@pytest.mark.parametrize("n_cols", [1, 2, 3])
@pytest.mark.parametrize("n_rows", [0, 1, 2047, 2048, 2049])
def test_writer_matches_reference_bytes_at_block_edges(tmp_path, n_rows, n_cols):
    """Empty, one-row and 2^11-row tables, one to three columns wide."""
    cells = np.resize(_hard_cells()[:4000], n_rows * n_cols)
    _assert_table_matches_reference(tmp_path, cells.reshape(n_rows, n_cols))


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
    """A saved grid is a .npy array of the field's values alone, at the path
    given, whatever its name says; the grid is in the sidecar."""
    space = ConfigSpace(dim=2, extents=(8.0, 4.0), points=(16, 8))
    io.save_scalar_field(tmp_path / "rho.csv", ScalarField(space, np.ones(space.shape)))
    io.save_complex_field(tmp_path / "psi.csv", ComplexField(space, np.ones(space.shape) + 0j))
    rho, psi = (np.load(tmp_path / name) for name in ("rho.csv", "psi.csv"))
    assert rho.dtype == np.float64 and rho.shape == (16, 8) and (rho == 1.0).all()
    assert psi.dtype == np.complex128 and psi.shape == (16, 8) and (psi == 1.0).all()
    assert io.load_scalar_field(tmp_path / "rho.csv").space.same_grid(space)


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
    """The grid rule is for grid files: a series headed axis0 reads every
    column."""
    path = tmp_path / "positions.csv"
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


@pytest.mark.parametrize(
    "key, value, message",
    [("dim", True, "dim must be a number, got True"),
     ("points", [True], "points must be a number, got True"),
     ("extents", [True], "extents must be a number, got True")],
)
def test_sidecar_with_a_boolean_grid_entry_is_refused(tmp_path, key, value, message):
    """float() reads true as 1: a sidecar's "dim": true used to state a 1D grid."""
    space = make_space(10.0, 64, make_params())
    path = tmp_path / "rho.csv"
    io.save_scalar_field(path, gaussian_density(space, 0.0, 1.0))
    meta = json.loads((tmp_path / "rho.csv.meta.json").read_text())
    meta[key] = value
    (tmp_path / "rho.csv.meta.json").write_text(json.dumps(meta))
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
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


def test_a_body_line_that_is_not_text_is_refused_naming_the_line(tmp_path):
    """Bytes that are not UTF-8, as in a binary file given as a CSV input,
    once escaped the reader as a UnicodeDecodeError."""
    path = tmp_path / "series.csv"
    path.write_bytes(b"t,mass\r\n0,1\r\n\x93NUMPY,1\r\n")
    with pytest.raises(ConfigError, match=r"series\.csv, line 3: "):
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
    io.save_complex_field(tmp_path / "psi.npy", ComplexField(space, psi))
    back = io.load_complex_field(tmp_path / "psi.npy").values
    assert np.array_equal(back.view(np.int64), psi.view(np.int64))


# ---------------------------------------------------------------------------
# .npy grids: every bit kept, and a file that is not the grid's array refused


def test_grid_round_trip_keeps_every_bit(tmp_path):
    space = ConfigSpace(dim=2, extents=(8.0, 4.0), points=(16, 8))
    rng = np.random.default_rng(5)
    values = rng.standard_normal(space.size) * 10.0 ** rng.integers(-300, 300, space.size)
    values[: len(SPECIAL) + 2] = SPECIAL + [-np.nan, np.nextafter(2.2250738585072014e-308, 0)]
    values = values.reshape(space.shape)
    psi = np.empty(space.shape, dtype=complex)
    psi.real, psi.imag = values, values[::-1]
    io.save_scalar_field(tmp_path / "rho.npy", ScalarField(space, values))
    io.save_complex_field(tmp_path / "psi.npy", ComplexField(space, psi))
    rho_back = io.load_scalar_field(tmp_path / "rho.npy").values
    psi_back = io.load_complex_field(tmp_path / "psi.npy").values
    assert np.array_equal(rho_back.view(np.uint64), values.view(np.uint64))
    assert np.array_equal(psi_back.view(np.uint64), psi.view(np.uint64))


def _saved_grid(tmp_path):
    space = ConfigSpace(dim=2, extents=(8.0, 4.0), points=(16, 8))
    path = tmp_path / "rho.npy"
    io.save_scalar_field(path, ScalarField(space, np.ones(space.shape)))
    return space, path


@pytest.mark.parametrize(
    "load, stored",
    [(io.load_scalar_field, np.complex128), (io.load_scalar_field, np.float32),
     (io.load_complex_field, np.float64)],
    ids=["complex-as-rho", "float32-as-rho", "float-as-psi"],
)
def test_npy_grid_of_the_wrong_dtype_is_refused_naming_the_file(tmp_path, load, stored):
    space, path = _saved_grid(tmp_path)
    io.save_array(path, np.ones(space.shape, dtype=stored))
    found = np.dtype(stored).name
    with pytest.raises(ConfigError, match=rf"rho\.npy: expected \w+ values, found {found}$"):
        load(path)


def test_npy_grid_whose_shape_disagrees_with_its_sidecar_is_refused(tmp_path):
    _, path = _saved_grid(tmp_path)
    io.save_array(path, np.ones((8, 16)))
    with pytest.raises(ConfigError, match=r"rho\.npy: expected shape \(16, 8\), as its sidecar"):
        io.load_scalar_field(path)


@pytest.mark.parametrize("keep", [4, 100, -8], ids=["in-magic", "in-header", "in-data"])
def test_truncated_npy_grid_is_refused_naming_the_file(tmp_path, keep):
    """Cut inside numpy's magic string, the file reads as a CSV and is
    refused as one."""
    _, path = _saved_grid(tmp_path)
    path.write_bytes(path.read_bytes()[:keep])
    with pytest.raises(ConfigError, match=r"rho\.npy"):
        io.load_scalar_field(path)


def test_pickled_npy_is_refused_naming_the_file(tmp_path):
    """An object array is a pickle, which a load never runs."""
    space, path = _saved_grid(tmp_path)
    with open(path, "wb") as fh:
        np.save(fh, np.full(space.shape, None, dtype=object), allow_pickle=True)
    for load in (io.load_scalar_field, lambda p: io.load_array(p, np.float64)):
        with pytest.raises(ConfigError, match=r"rho\.npy: Object arrays cannot be loaded"):
            load(path)


def test_array_round_trip_keeps_every_bit(tmp_path):
    """Walker positions: a (walkers, dim) array, with no sidecar."""
    positions = np.array([[0.5, -0.0], [np.inf, 5e-324], [np.nan, -np.inf]])
    io.save_array(tmp_path / "final_positions.npy", positions)
    back = io.load_array(tmp_path / "final_positions.npy", np.float64)
    assert np.array_equal(back.view(np.uint64), positions.view(np.uint64))


@pytest.mark.parametrize("key", io._META_KEYS)
def test_a_sidecar_missing_a_key_is_refused_naming_it(tmp_path, key):
    space = make_space(12.0, 16, make_params())
    path = tmp_path / "rho.npy"
    io.save_scalar_field(path, gaussian_density(space, 0.0, 1.0))
    meta = json.loads((tmp_path / "rho.npy.meta.json").read_text())
    del meta[key]
    (tmp_path / "rho.npy.meta.json").write_text(json.dumps(meta))
    with pytest.raises(ConfigError, match=f"^sidecar metadata missing key '{key}'$"):
        io.load_scalar_field(path)


def test_a_cell_only_python_reads_is_refused_naming_the_file(tmp_path):
    """float() reads 1_0 as 10, numpy's parser does not: the line scan finds
    no bad line, and the refusal falls back to numpy's reason."""
    path = tmp_path / "s.csv"
    path.write_text("value\n1_0\n2\n")
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: could not convert string '1_0'"):
        io.load_series(path)
