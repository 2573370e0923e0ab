"""Accuracy of the coupled (rho, phi) engine against exact and Cayley references.

Slow (about two minutes) and outside the tier-1 testpaths; run it as

    PYTHONPATH=src python -m pytest -q verify

The scenarios are 1D, eta = m = mu = 1, so the coupled flow is the polar form
of the Schrodinger equation: a free Gaussian packet spreads as
var(t) = var(0) + (t / 2)^2, a displaced coherent state in the unit
oscillator returns after one period, and the ground state (var 1/2) stays
put at energy 1/2.  Each error and drift bound is written as 2 * the value
this code gave when the check was written, so a change that more than
doubles an error or a drift fails.
"""

import math

import numpy as np
import pytest

from entrolab.dynamics import ManifoldState, coupled_stability_limit, coupled_step, energy
from entrolab.fields import (
    ConfigSpace,
    PhysicalParams,
    ScalarField,
    density_moments,
    normalize_density,
)
from entrolab.schrodinger import to_wavefunction, unitary_step


def l2(a, b, space):
    return math.sqrt(float(((a - b) ** 2).sum()) * space.cell_volume)


def make(extent, points):
    params = PhysicalParams.from_masses([1.0], eta=1.0, osmotic_ratio=1.0, tau=0.1)
    space = ConfigSpace(dim=1, extents=extent, points=points, sigma_sq=params.sigma_sq)
    return space, params


def gaussian(space, center, var):
    x = space.meshes[0]
    return normalize_density(ScalarField(space, np.exp(-((x - center) ** 2) / (2.0 * var))))


def exact_gaussian(space, center, var):
    x = space.meshes[0]
    return np.exp(-((x - center) ** 2) / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)


def at_rest(space, center, var):
    phi = ScalarField(space, np.zeros(space.shape))
    return ManifoldState(gaussian(space, center, var), phi, 0.0)


def run_coupled(state, params, V, T, frac):
    """T in equal steps of at most frac times the initial stability bound."""
    n = int(np.ceil(T / (frac * coupled_stability_limit(state, params))))
    for _ in range(n):
        state = coupled_step(state, params, V, T / n)
    return state


def run_cayley(state, params, V, T, n):
    w = to_wavefunction(state)
    for _ in range(n):
        w = unitary_step(w, params, V, T / n)
    return np.abs(w.psi.values) ** 2


def relative_drift(before, after, params, V):
    e0 = energy(before, params, V).total
    return abs(energy(after, params, V).total - e0) / abs(e0)


def oscillator(space):
    return ScalarField(space, 0.5 * space.meshes[0] ** 2)


def test_free_packet_spreads_as_the_exact_solution():
    space, params = make(30.0, 512)
    V = ScalarField(space, np.zeros(space.shape))
    start = at_rest(space, 0.0, 1.0)
    end = run_coupled(start, params, V, 2.0, 0.45)
    _, var = density_moments(end.rho)
    assert l2(end.rho.values, exact_gaussian(space, 0.0, 2.0), space) <= 2 * 1.0490e-4
    assert l2(end.rho.values, run_cayley(start, params, V, 2.0, 2000), space) <= 2 * 4.0962e-5
    assert abs(var[0] - 2.0) <= 2 * 3.8e-4  # variance 1.99962


@pytest.mark.parametrize(
    "points, err_cayley, err_exact, drift",
    [(256, 9.9805e-6, 8.4448e-6, 4.51e-8), (512, 2.2571e-5, 2.2538e-5, 9.23e-8)],
)
def test_coherent_state_returns_after_one_period(points, err_cayley, err_exact, drift):
    space, params = make(12.0, points)
    V = oscillator(space)
    start = at_rest(space, 1.0, 0.5)
    end = run_coupled(start, params, V, 2.0 * math.pi, 0.40)
    cayley = run_cayley(start, params, V, 2.0 * math.pi, 4000)
    assert l2(end.rho.values, cayley, space) <= 2 * err_cayley
    assert l2(end.rho.values, exact_gaussian(space, 1.0, 0.5), space) <= 2 * err_exact
    assert relative_drift(start, end, params, V) <= 2 * drift


def test_ground_state_is_stationary_at_energy_one_half():
    space, params = make(12.0, 512)
    V = oscillator(space)
    start = at_rest(space, 0.0, 0.5)
    end = run_coupled(start, params, V, 2.0 * math.pi, 0.45)
    assert abs(energy(start, params, V).total - 0.5) / 0.5 <= 1e-6  # 5.08e-8
    assert relative_drift(start, end, params, V) <= 2 * 7.56e-11
    assert l2(end.rho.values, start.rho.values, space) <= 2 * 4.60e-8


def test_free_packet_error_refines_at_second_order():
    """dt is tied to dx, so halving dx should cut the error about 4x."""
    errs = []
    for points, head_err in ((128, 4.8720e-4), (256, 1.2336e-4)):
        space, params = make(30.0, points)
        V = ScalarField(space, np.zeros(space.shape))
        end = run_coupled(at_rest(space, 0.0, 1.0), params, V, 0.5, 0.45)
        errs.append(l2(end.rho.values, exact_gaussian(space, 0.0, 1.0 + 0.25**2), space))
        assert errs[-1] <= 2 * head_err
    assert 3.5 <= errs[0] / errs[1] <= 4.5  # 3.95
