"""Numerical laboratory for entropy-driven diffusive dynamics.

The package root exports nothing; import its modules.  `scenarios` runs a
scenario, compares runs and checks them, and `cli` drives it.  The engines
are `dynamics` (coupled rho, phi flow), `schrodinger` (wave references),
`fokker_planck`, `ensemble` (walkers) and `kernel` (the exact maximum-entropy
step).  `fields` holds grids and fields, `io` their files.  No command loads
scipy; numpy and pyyaml are the only dependencies.
"""

__version__ = "0.1.0"
