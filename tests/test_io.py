import numpy as np
import pytest

from entrolab import io
from entrolab.errors import ConfigError
from entrolab.fields import ComplexField, ScalarField, VectorField

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
    p = make_params()
    space = make_space(10.0, 64, p)
    v = VectorField(space, np.sin(space.meshes[0]).reshape(1, -1))
    path = tmp_path / "v.csv"
    io.save_vector_field(path, v)
    back = io.load_vector_field(path)
    assert np.array_equal(back.components, v.components)


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


def test_summary_roundtrip(tmp_path):
    path = tmp_path / "summary.json"
    io.save_summary(path, {"passed": True, "gap": 1.25e-9, "nested": {"a": [1, 2]}})
    back = io.load_summary(path)
    assert back == {"passed": True, "gap": 1.25e-9, "nested": {"a": [1, 2]}}
