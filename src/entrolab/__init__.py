"""Numerical laboratory for entropy-driven diffusive dynamics.

Short-step maximum-entropy kernels, walker ensembles, Fokker-Planck
evolution, coupled density/phase dynamics, and independent wavefunction
reference solvers, wired together behind a config-driven CLI.
"""

from .errors import (
    AlphaSolveError,
    ConfigError,
    DegenerateDensityError,
    EntrolabError,
    GridMismatchError,
    KernelNotLocalizedError,
    StabilityError,
)
from .fields import (
    ComplexField,
    ConfigSpace,
    PhysicalParams,
    ScalarField,
    VectorField,
    entropy_field,
    gradient,
    normalize_density,
)
from .kernel import (
    GibbsCertificate,
    TransitionKernel,
    build_exact_kernel,
    gaussian_step_moments,
    gibbs_optimality_certificate,
    solve_alpha,
)
from .ensemble import (
    DriftEstimate,
    Ensemble,
    empirical_backward_drift,
    empirical_forward_drift,
    estimate_density,
    sampling_l1_bound,
    step_ensemble,
)
from .fokker_planck import (
    fp_stability_limit,
    fp_step,
    fp_step_continuity,
)
from .dynamics import (
    EnergyBreakdown,
    ManifoldState,
    coupled_stability_limit,
    coupled_step,
    energy,
    energy_rate_audit,
    hamilton_jacobi_residual,
    quantum_potential,
    regraduate,
)
from .schrodinger import (
    WaveFunction,
    from_wavefunction,
    gauge_transform,
    nonlinear_step,
    phase_aligned_distance,
    to_wavefunction,
    unitary_step,
)
from .scenarios import Scenario, compare, load_scenario, run

__version__ = "0.1.0"
