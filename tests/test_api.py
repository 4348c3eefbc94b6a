"""The public-name contract: ``mmfq.__all__`` lists exactly these names and
every one of them resolves; so does every library attribute that the
benchmark's tracer wraps."""

import importlib.util
from pathlib import Path

import mmfq

PUBLIC_NAMES = [
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


def test_all_is_the_public_contract():
    assert mmfq.__all__ == PUBLIC_NAMES


def test_every_public_name_resolves():
    namespace = {}
    exec("from mmfq import *", namespace)
    for name in mmfq.__all__:
        assert getattr(mmfq, name) is namespace[name]


def test_traced_attributes_resolve():
    # perfbench/tracing.py wraps these by (module, attribute); renaming or
    # deleting one would otherwise fail only the benchmark's self-test
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_mmfq_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.WRAP_POINTS
    for module, attr, _, _ in tracing.WRAP_POINTS:
        assert hasattr(importlib.import_module(module), attr), (module, attr)
