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
    _reference_csv(tmp_path / "rho_ref.csv", ["axis0", "value"], zip(x, values))
    assert (tmp_path / "rho.csv").read_bytes() == (tmp_path / "rho_ref.csv").read_bytes()

    psi = np.empty(values.size, dtype=complex)
    psi.real, psi.imag = values[::-1], values
    io.save_complex_field(tmp_path / "psi.csv", ComplexField(space, psi))
    _reference_csv(tmp_path / "psi_ref.csv", ["axis0", "real", "imag"],
                   zip(x, psi.real, psi.imag))
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
    coords = [m.ravel() for m in space.meshes]
    axes = [f"axis{a}" for a in range(space.dim)]

    io.save_scalar_field(tmp_path / "rho.csv", ScalarField(space, values))
    _reference_csv(tmp_path / "rho_ref.csv", axes + ["value"], zip(*coords, values.ravel()))
    assert (tmp_path / "rho.csv").read_bytes() == (tmp_path / "rho_ref.csv").read_bytes()

    io.save_complex_field(tmp_path / "psi.csv", ComplexField(space, psi))
    _reference_csv(tmp_path / "psi_ref.csv", axes + ["real", "imag"],
                   zip(*coords, psi.real.ravel(), psi.imag.ravel()))
    assert (tmp_path / "psi.csv").read_bytes() == (tmp_path / "psi_ref.csv").read_bytes()


@pytest.mark.parametrize(
    "extents, points",
    [((8.0, 4.0), (67, 65)), ((6.0, 5.0, 4.0), (10, 12, 40))],
    ids=["2d-partial-last-block", "3d"],
)
def test_grid_writer_matches_reference_bytes(tmp_path, extents, points):
    """Grids whose row count is not a multiple of the block size: the cached
    coordinate text must line up with the value rows in every block."""
    assert math.prod(points) % io._BLOCK_ROWS != 0 and math.prod(points) > io._BLOCK_ROWS
    space = ConfigSpace(dim=len(points), extents=extents, points=points)
    _assert_grid_files_match_reference(tmp_path, space, seed=7)


def test_grids_with_equal_points_and_other_extents_keep_their_coordinates(tmp_path):
    """The cached coordinate text belongs to the grid's values, all of them."""
    a = ConfigSpace(dim=2, extents=(8.0, 4.0), points=(16, 8))
    b = ConfigSpace(dim=2, extents=(5.0, 4.0), points=(16, 8))
    for seed, space in enumerate((a, b, a, b)):
        _assert_grid_files_match_reference(tmp_path, space, seed)


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


def test_series_with_no_rows_writes_only_the_header(tmp_path):
    path = tmp_path / "series.csv"
    io.save_series(path, ["t", "mass"], [])
    assert path.read_bytes() == b"t,mass\r\n"


def test_summary_roundtrip(tmp_path):
    path = tmp_path / "summary.json"
    io.save_summary(path, {"passed": True, "gap": 1.25e-9, "nested": {"a": [1, 2]}})
    back = io.load_summary(path)
    assert back == {"passed": True, "gap": 1.25e-9, "nested": {"a": [1, 2]}}
