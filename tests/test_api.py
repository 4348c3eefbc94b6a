"""The public-name contract: ``mmfq.__all__`` lists exactly these names and
every one of them resolves; so does every library attribute that the
benchmark's tracer wraps, the README's quick start runs and its usage block
names every CLI option.  Each module
imports from the package only the modules of its row in ``IMPORTS``, and
each model object has one builder."""

import ast
import importlib.util
import re
from pathlib import Path

import mmfq

PUBLIC_NAMES = [
    "CaseResult", "CensoredBlocks", "DensityEstimate", "FirstOrderLaw",
    "FluidModel", "PerturbationSpec", "PsiEstimate", "PsiExpansion",
    "PsiSolution", "SeriesBlocks", "StationaryLaw", "calibrate_rminus",
    "case_model", "censor_zero_phases", "density1_at", "density_at",
    "error_norms", "estimate_density", "estimate_psi", "expand",
    "first_order_law", "load_model", "load_perturbation", "mean_drift",
    "run_case", "solve_psi", "solve_psi_at",
    "stationary_law", "validate_model",
    "validate_perturbation", "zero_mass",
    "__version__",
]


# the layers: errors, numerics, core (the model, its censoring and the
# censoring's derivative), riccati, then perturb and density side by side,
# then bench, simulate and cli
IMPORTS = {
    "__init__": {"bench", "core", "density", "perturb", "riccati", "simulate"},
    "bench": {"core", "errors", "perturb", "riccati"},
    "cli": {"bench", "core", "density", "errors", "perturb", "riccati", "simulate"},
    "core": {"errors", "numerics"},
    "density": {"core", "errors", "numerics", "riccati"},
    "errors": set(),
    "numerics": {"errors"},
    "perturb": {"core", "errors", "numerics", "riccati"},
    "riccati": {"core", "errors", "numerics"},
    "simulate": {"core", "errors"},
}


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


def test_readme_quick_start_runs():
    # the first python block of README.md is the documented example
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["sol"].residual <= 1e-12
    assert namespace["expansion"].psi1.shape == namespace["direct"].psi.shape


def test_readme_usage_names_every_option():
    # each verb's lines of the command-line usage block name every option its
    # parser declares, and the block names the top-level ones
    from mmfq.cli import build_parser
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## Command line\n\n```\n(.*?)```", readme, re.S).group(1)
    parser = build_parser()
    verbs = next(a for a in parser._actions if a.dest == "command").choices
    for verb, sub in {"": parser, **verbs}.items():
        lines = [line for line in block.splitlines() if line.startswith(f"mmfq {verb}")]
        named = set(re.findall(r"--[\w-]+", " ".join(lines)))
        options = {o for a in sub._actions for o in a.option_strings if o.startswith("--")}
        assert options - {"--help"} <= named, (verb, options - named)


def test_import_layering():
    src = Path(__file__).resolve().parents[1] / "src" / "mmfq"
    trees = {path.stem: ast.parse(path.read_text()) for path in src.glob("*.py")}
    found = {}
    for name, tree in trees.items():
        found[name] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                # "from .core import x" names a module; "from . import x" may not
                found[name] |= {node.module.split(".")[0]} if node.module \
                    else {alias.name for alias in node.names} & trees.keys()
    assert found == IMPORTS


def _called_names(node, scope):
    """(called name, enclosing function) of every call under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            func = child.func
            yield getattr(func, "id", getattr(func, "attr", None)), scope
        yield from _called_names(
            child, child.name if isinstance(child, ast.FunctionDef) else scope)


def test_one_builder_per_model_object():
    # a FluidModel is built only by core._partition and a PerturbationSpec
    # only by core.validate_perturbation; no module copies one with
    # dataclasses.replace
    src = Path(__file__).resolve().parents[1] / "src" / "mmfq"
    builders = {"FluidModel": set(), "PerturbationSpec": set()}
    for path in src.glob("*.py"):
        tree = ast.parse(path.read_text())
        for name, scope in _called_names(tree, "<module>"):
            if name in builders:
                builders[name].add(f"{path.stem}.{scope}")
        for node in ast.walk(tree):
            assert not (isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
                        and "replace" in {alias.name for alias in node.names}), path.name
            assert not (isinstance(node, ast.Attribute) and node.attr == "replace"
                        and getattr(node.value, "id", None) == "dataclasses"), path.name
    assert builders == {"FluidModel": {"core._partition"},
                        "PerturbationSpec": {"core.validate_perturbation"}}
