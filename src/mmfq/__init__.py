"""Markov-modulated fluid queues: first-return matrices, perturbation
expansions and stationary densities."""

from .core import (CensoredBlocks, FluidModel, PerturbationSpec,
                   censor_zero_phases, load_model, mean_drift,
                   stationary_phase_dist, validate_model,
                   validate_perturbation)
from .riccati import PsiSolution, build_UK, solve_psi, solve_psi_at
from .perturb import (PsiExpansion, SeriesBlocks, expand, load_perturbation,
                      psi1_generator)
from .density import (FirstOrderLaw, StationaryLaw, density1_at, density_at,
                      first_order_law, stationary_law, zero_mass)
from .simulate import (DensityEstimate, PsiEstimate, SimConfig,
                       estimate_density, estimate_psi)
from .bench import CaseResult, calibrate_rminus, case_model, error_norms, run_case

__version__ = "0.1.0"

__all__ = [
    "CaseResult", "CensoredBlocks", "DensityEstimate", "FirstOrderLaw",
    "FluidModel", "PerturbationSpec", "PsiEstimate", "PsiExpansion",
    "PsiSolution", "SeriesBlocks", "StationaryLaw", "build_UK",
    "calibrate_rminus", "case_model", "censor_zero_phases", "density1_at",
    "density_at", "error_norms", "estimate_density", "estimate_psi",
    "expand", "first_order_law", "load_model", "load_perturbation",
    "mean_drift", "psi1_generator", "run_case", "solve_psi", "solve_psi_at",
    "stationary_law", "stationary_phase_dist", "validate_model",
    "validate_perturbation", "zero_mass",
    "__version__",
]
