"""The public-name contract: ``mmfq.__all__`` lists exactly these names and
every one of them resolves."""

import mmfq

PUBLIC_NAMES = [
    "CaseResult", "CensoredBlocks", "DensityEstimate", "FirstOrderLaw",
    "FluidModel", "PerturbationSpec", "PsiEstimate", "PsiExpansion",
    "PsiSolution", "SeriesBlocks", "StationaryLaw", "build_UK",
    "calibrate_rminus", "case_model", "censor_zero_phases", "density1_at",
    "density_at", "error_norms", "estimate_density", "estimate_psi",
    "expand", "expand_general", "expand_to_minus", "expand_to_plus",
    "first_order_law", "load_model", "load_perturbation", "mean_drift",
    "psi1_generator", "psi1_rate_unaffected", "run_case", "series_blocks",
    "solve_psi", "solve_psi_at", "stationary_law", "stationary_phase_dist",
    "validate_model", "validate_perturbation", "zero_mass",
    "__version__",
]


def test_all_is_the_public_contract():
    assert mmfq.__all__ == PUBLIC_NAMES


def test_every_public_name_resolves():
    namespace = {}
    exec("from mmfq import *", namespace)
    for name in mmfq.__all__:
        assert getattr(mmfq, name) is namespace[name]
