"""The six benchmark cases: model builders, calibration, error norms.

Each case is a birth-death phase chain on 3m states where the first m
phases push fluid up at rate ``r_plus``, the middle m phases are neutral,
and the last m drain at a calibrated rate ``r_minus``.  The perturbation
gives the neutral phases a small rate of one sign, and the quality of the
first-order expansion is measured by row-sum norms of

    Psi(eps) - Psi_bar - eps * Psi1

split by row class, over a log-spaced grid of eps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import FluidModel, validate_model, validate_perturbation
from .errors import Infeasible, ShapeMismatch, UnknownCase
from .perturb import PsiExpansion, expand
from .riccati import PsiSolution, solve_psi, solve_psi_at
from . import core

CASE_IDS = ("1a", "2a", "3a", "1b", "2b", "3b")

R_PLUS = 0.4
# Calibration target of the mean drift.  The published setup states -0.1,
# but only -0.2 yields the published down rates (-0.207, -621, -2.63) for
# cases 1, 2 and 3, and it reproduces every table cell outside
# REFERENCE_ERRATA within 2%; -0.1 gives -0.1036, -515.3 and -1.514.
# The stated -0.1 is the erratum: tests/test_acceptance.py
# (test_criterion_3_calibration) asserts both facts.
CASE_TARGET_DRIFT = -0.2

# Published error norms for the six cases at eps = 1e-4 and 1e-2, kept as
# printed; the `mmfq case` summary compares against these.  Three cells
# disagree with a converged recomputation and are corrected in
# REFERENCE_ERRATA; use corrected_reference_norms() to check a run.
REFERENCE_NORMS = {
    "1a": {1e-4: {"e_plus": 5.37e-7, "e_oplus": 3.39e-6},
           1e-2: {"e_plus": 4.60e-3, "e_oplus": 2.94e-3}},
    "2a": {1e-4: {"e_plus": 1.92e-12, "e_oplus": 2.00e-12},
           1e-2: {"e_plus": 2.08e-8, "e_oplus": 2.15e-8}},
    "3a": {1e-4: {"e_plus": 3.77e-8, "e_oplus": 4.80e-8},
           1e-2: {"e_plus": 3.66e-4, "e_oplus": 4.67e-4}},
    "1b": {1e-4: {"e_inf": 1.08e-7}, 1e-2: {"e_inf": 1.05e-3}},
    "2b": {1e-4: {"e_inf": 5.11e-8}, 1e-2: {"e_inf": 4.91e-4}},
    "3b": {1e-4: {"e_inf": 1.33e-6}, 1e-2: {"e_inf": 1.15e-2}},
}


@dataclass(frozen=True)
class Erratum:
    """One corrected cell of REFERENCE_NORMS."""

    published: float
    corrected: float
    reason: str


# Corrections to REFERENCE_NORMS, keyed by (case, eps, norm).  The
# corrected values come from a 50-digit recomputation of psi_bar, psi1 and
# psi(eps); tests/test_oracle.py repeats it and fails if a corrected value
# is more than 0.1% off, or a published one within 2%, of the oracle.
REFERENCE_ERRATA = {
    ("1a", 1e-2, "e_oplus"): Erratum(
        2.94e-3, 2.94e-2,
        "exponent slip: 3.39e-6 at eps=1e-4 scaled by eps^2 gives 3e-2"),
    ("2a", 1e-4, "e_plus"): Erratum(
        1.92e-12, 2.0837e-12,
        "round-off of the original run; 7.9% below the 50-digit value"),
    ("2a", 1e-4, "e_oplus"): Erratum(
        2.00e-12, 2.1519e-12,
        "round-off of the original run; 7.1% below the 50-digit value"),
}


def corrected_reference_norms() -> dict:
    """REFERENCE_NORMS with the REFERENCE_ERRATA corrections applied."""
    table = {cid: {eps: dict(cells) for eps, cells in by_eps.items()}
             for cid, by_eps in REFERENCE_NORMS.items()}
    for (cid, eps, key), erratum in REFERENCE_ERRATA.items():
        table[cid][eps][key] = erratum.corrected
    return table


@dataclass(frozen=True)
class ErrorNorms:
    """Row/column norms of the expansion defect at one eps."""

    e_plus: float
    e_oplus: float | None
    e_inf: float
    e_minus: float | None
    e_ominus: float | None


@dataclass(frozen=True)
class CaseResult:
    case_id: str
    eps_grid: np.ndarray
    e_plus: np.ndarray
    e_oplus: np.ndarray | None
    e_inf: np.ndarray
    e_minus: np.ndarray | None
    e_ominus: np.ndarray | None
    slope: float
    r_squared: float
    r_minus: float
    drift: float


def build_mm1n(m: int, lam: float, mu: float) -> np.ndarray:
    """Single-server finite-queue generator on 3m states (birth rate lam)."""
    if m < 1 or lam <= 0 or mu <= 0:
        raise ValueError("m >= 1 and positive rates required")
    n = 3 * m
    A = np.zeros((n, n))
    for i in range(n - 1):
        A[i, i + 1] = lam
        A[i + 1, i] = mu
    np.fill_diagonal(A, -A.sum(axis=1))
    return A


def build_alternating(m: int, alpha: float, beta: float) -> np.ndarray:
    """Generator of 3m-1 individuals alternating between two states.

    From phase i (1-based) the up rate is (3m - i) alpha and the down
    rate (i - 1) beta, so the stationary law is binomial.
    """
    if m < 1 or alpha <= 0 or beta <= 0:
        raise ValueError("m >= 1 and positive rates required")
    n = 3 * m
    A = np.zeros((n, n))
    for i in range(n - 1):
        A[i, i + 1] = (n - 1 - i) * alpha
        A[i + 1, i] = (i + 1) * beta
    np.fill_diagonal(A, -A.sum(axis=1))
    return A


def calibrate_rminus(A: np.ndarray, r_plus: float,
                     target_drift: float) -> float:
    """Down rate making the mean drift hit the target.

    The rate pattern is fixed: the first third of the phases runs at
    ``r_plus``, the middle third at zero, the last third at the returned
    rate, which must come out negative.
    """
    n = np.asarray(A).shape[0]
    m = n // 3
    probe = validate_model(A, np.concatenate(
        [np.ones(m), np.zeros(m), -np.ones(m)]))
    xi = probe.unpermute(core.stationary_phase_dist(probe))
    r_minus = (target_drift - r_plus * xi[:m].sum()) / xi[2 * m:].sum()
    if r_minus >= 0:
        raise Infeasible(f"calibrated down rate {r_minus:.3e} is not negative")
    return float(r_minus)


def case_generator(case_id: str, m: int = 5) -> np.ndarray:
    family = case_id[0]
    if family == "1":
        return build_mm1n(m, 2.0, 1.0)
    if family == "2":
        return build_mm1n(m, 1.0, 2.0)
    if family == "3":
        return build_alternating(m, 1.0, 1.0)
    raise UnknownCase(f"unknown case {case_id!r}")


def case_model(case_id: str, m: int = 5):
    """Calibrated model and perturbation spec for one benchmark case."""
    if case_id not in CASE_IDS:
        raise UnknownCase(f"unknown case {case_id!r}")
    A = case_generator(case_id, m)
    r_minus = calibrate_rminus(A, R_PLUS, CASE_TARGET_DRIFT)
    c = np.concatenate([R_PLUS * np.ones(m), np.zeros(m),
                        r_minus * np.ones(m)])
    model = validate_model(A, c)
    c_tilde = np.zeros(3 * m)
    if case_id.endswith("a"):
        c_tilde[m:2 * m] = R_PLUS
    elif case_id == "1b":
        # the reference run for this case perturbs by the calibrated down
        # rate instead of -r_plus; reproducing its published values
        # requires the same direction
        c_tilde[m:2 * m] = r_minus
    else:
        c_tilde[m:2 * m] = -R_PLUS
    return model, validate_perturbation(model, "rate", c_tilde)


def error_norms(model: FluidModel, psi_eps: PsiSolution, pmodel: FluidModel,
                expansion: PsiExpansion, eps: float) -> ErrorNorms:
    """Norms of Psi(eps) - Psi_bar - eps Psi1 with label-aligned blocks."""
    orig = model.perm[pmodel.perm]
    row_orig = orig[pmodel.ip]
    col_orig = orig[pmodel.im]
    if sorted(row_orig) != sorted(expansion.row_phases) or \
            sorted(col_orig) != sorted(expansion.col_phases):
        raise ShapeMismatch("perturbed partition does not match the expansion")
    row_pos = {int(p): i for i, p in enumerate(row_orig)}
    col_pos = {int(p): j for j, p in enumerate(col_orig)}
    rows = [row_pos[int(p)] for p in expansion.row_phases]
    cols = [col_pos[int(p)] for p in expansion.col_phases]
    D = np.abs(psi_eps.psi.take(rows, 0).take(cols, 1)
               - expansion.psi_bar - eps * expansion.psi1)
    row_sums = D.sum(axis=1)
    col_sums = D.sum(axis=0)
    k = expansion.n_up_rows
    j = expansion.n_migrating_cols
    e_plus = float(row_sums[:k].max())
    e_oplus = float(row_sums[k:].max()) if D.shape[0] > k else None
    e_ominus = float(col_sums[:j].max()) if j > 0 else None
    e_minus = float(col_sums[j:].max()) if D.shape[1] > j else None
    return ErrorNorms(e_plus=e_plus, e_oplus=e_oplus,
                      e_inf=float(row_sums.max()),
                      e_minus=e_minus, e_ominus=e_ominus)


def default_eps_grid(n_points: int = 20) -> np.ndarray:
    return np.logspace(-4, -2, n_points)


def fit_slope(eps_grid: np.ndarray, values: np.ndarray):
    """Least-squares slope and R^2 of log(values) against log(eps)."""
    x = np.log(eps_grid)
    y = np.log(values)
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = ((y - fitted) ** 2).sum()
    ss_tot = ((y - y.mean()) ** 2).sum()
    return float(slope), float(1.0 - ss_res / ss_tot)


def run_case(case_id: str, eps_grid: np.ndarray | None = None,
             m: int = 5) -> CaseResult:
    """Sweep eps for one case and fit the convergence slope."""
    model, spec = case_model(case_id, m)
    if eps_grid is None:
        eps_grid = default_eps_grid()
    eps_grid = np.asarray(eps_grid, dtype=float)
    sol = solve_psi(model)
    expansion = expand(model, sol, spec)
    norms = []
    for eps in eps_grid:
        psi_eps, pmodel = solve_psi_at(model, spec, float(eps))
        norms.append(error_norms(model, psi_eps, pmodel, expansion, float(eps)))
    e_plus = np.array([n.e_plus for n in norms])
    e_inf = np.array([n.e_inf for n in norms])
    has_oplus = norms[0].e_oplus is not None
    has_cols = norms[0].e_ominus is not None
    slope, r2 = fit_slope(eps_grid, e_inf)
    return CaseResult(
        case_id=case_id, eps_grid=eps_grid, e_plus=e_plus,
        e_oplus=np.array([n.e_oplus for n in norms]) if has_oplus else None,
        e_inf=e_inf,
        e_minus=np.array([n.e_minus for n in norms]) if has_cols else None,
        e_ominus=np.array([n.e_ominus for n in norms]) if has_cols else None,
        slope=slope, r_squared=r2,
        r_minus=float(model.c[-1]), drift=core.mean_drift(model))
