"""Shared builders for the test suite.

Everything here is 1D unless a test says otherwise: the operators are written
per axis, so one well-instrumented axis plus a couple of 2D smoke checks
covers the dimensional surface.
"""

import math

import numpy as np

from entrolab import io
from entrolab.dynamics import ManifoldState
from entrolab.fields import (
    PERIODIC,
    ConfigSpace,
    PhysicalParams,
    ScalarField,
    normalize_density,
)


def make_params(masses=(1.0,), eta=1.0, osmotic_ratio=1.0, tau=0.1, beta=0.0):
    return PhysicalParams(
        list(masses), eta=eta, osmotic_ratio=osmotic_ratio, tau=tau, beta=beta
    )


def make_space(extent, points, params, dim=1):
    return ConfigSpace(dim=dim, extents=extent, points=points, sigma_sq=params.sigma_sq)


def gaussian_density(space, center, var, axis_vars=None):
    """Normalized periodic Gaussian; sharp enough packets ignore the wrap."""
    meshes = space.meshes
    expo = np.zeros(space.shape)
    for a in range(space.dim):
        c = center[a] if np.ndim(center) else center
        v = axis_vars[a] if axis_vars is not None else var
        expo -= (meshes[a] - c) ** 2 / (2.0 * v)
    return normalize_density(ScalarField(space, np.exp(expo)))


def zero_field(space):
    return ScalarField(space, np.zeros(space.shape))


def rest_state(space, center=0.0, var=1.0):
    return ManifoldState(
        rho=gaussian_density(space, center, var), phi=zero_field(space), time=0.0
    )


def field_l2(a, b, space):
    return math.sqrt(float(((a - b) ** 2).sum()) * space.cell_volume)


def remainder_wrap(space, positions):
    """ConfigSpace.wrap as the remainder rule taken on every point, kept as
    the bitwise reference for the off-box-only remainder."""
    pos = np.array(positions, dtype=float, copy=True).reshape(-1, space.dim)
    for a in range(space.dim):
        lo = -0.5 * space.extents[a]
        L = space.extents[a]
        if space.boundary == PERIODIC:
            r = (pos[:, a] - lo) % L
            pos[:, a] = np.where(r < L, r, 0.0) + lo
        else:
            y = (pos[:, a] - lo) % (2.0 * L)
            pos[:, a] = lo + np.where(y > L, 2.0 * L - y, y)
    return pos


def write_grid_csv(path, field):
    """A hand-written grid CSV input: the field's `value` column in row-major
    order, beside the `.meta.json` sidecar that states its grid.  In 1D it is
    also a vector field's one component column."""
    io.save_series(path, ["value"], field.values.reshape(-1, 1))
    io._write_meta(path, field.space)
