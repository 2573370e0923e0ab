"""Shared builders for the test suite.

Everything here is 1D unless a test says otherwise: the operators are written
per axis, so one well-instrumented axis plus a couple of 2D smoke checks
covers the dimensional surface.
"""

import math

import numpy as np

from entrolab.dynamics import ManifoldState
from entrolab.fields import (
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

