"""Newton solver for the first-return probability matrix.

The matrix of first-return probabilities to the initial level from above
is the minimal nonnegative solution of the quadratic matrix equation

    Md + Ma X + X Mu + X Mb X = 0

with Md = C+^{-1} Q_{+-}, Ma = C+^{-1} Q_{++}, Mu = |C-^{-1}| Q_{--},
Mb = |C-^{-1}| Q_{-+} built from the censored generator blocks.  Newton
steps from X0 = 0 are monotone for this equation class; each step solves
one Sylvester equation with the current one-sided coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import FluidModel, PerturbationSpec, censor_zero_phases, validate_model
from .errors import (EmptySide, InvalidEpsilon, NoConvergence, NotAGenerator,
                     Reducible)
# solve_linear stays bound because tracers wrap mmfq.riccati.solve_linear by name
from .numerics import solve_linear, stable_spectrum, sylvester_solver  # noqa: F401

DEFAULT_TOL = 1e-12
DEFAULT_MAX_NEWTON = 50
MAX_HALVINGS = 20
# residual floor relative to the coefficient scale; below this the iteration
# has hit double-precision rounding and is accepted as converged
FLOOR_FACTOR = 256.0
# defect correction only makes sense when the requested accuracy is near
# the double-precision limit
REFINE_THRESHOLD = 1e-10


@dataclass(frozen=True)
class PsiSolution:
    """First-return matrix with the downward-record generator and exponent.

    ``psi`` is |S+| x |S-|; ``U`` generates the phase process at new level
    minima (rows conserve for recurrent models); ``K`` is the exponent
    matrix of the stationary density and has a strictly stable spectrum.
    """

    psi: np.ndarray
    U: np.ndarray
    K: np.ndarray
    iterations: int
    residual: float
    residual_history: tuple[float, ...]
    in_unit_box: bool


def newton_riccati(Md, Ma, Mu, Mb, tol: float = DEFAULT_TOL,
                   max_newton: int = DEFAULT_MAX_NEWTON,
                   row_scale: np.ndarray | None = None):
    """Minimal nonnegative root of Md + Ma X + X Mu + X Mb X = 0.

    Damped Newton from X0 = 0: at iterate X solve
    (Ma + X Mb) D + D (Mu + Mb X) = -F(X) and halve the step while the
    residual does not decrease.  Returns (X, iterations, residual history,
    iterates stayed in [0, 1]).

    ``row_scale`` (positive, per row) rescales the residual: when the
    first two coefficients carry a large factor 1/row_scale (tiny up
    rates), evaluating row_scale * F keeps every term O(1) so the solution
    is resolved to full double precision.  The reported residuals are
    always those of the unscaled equation.  An empty side (p or q zero)
    returns the empty root without a step.
    """
    p, q = Md.shape
    X = np.zeros((p, q))
    if p == 0 or q == 0:
        return X, 0, (0.0,), True
    if row_scale is None:
        row_scale = np.ones(p)
    rs = np.asarray(row_scale, dtype=float)[:, None]
    Sd, Sa = rs * Md, rs * Ma
    scale = max(float(np.abs(m).max()) for m in (Sd, Sa, Mu, Mb))
    # scaled residuals below this are double-precision evaluation noise
    floor = FLOOR_FACTOR * np.finfo(float).eps * max(scale, 1.0) * max(p, q)

    def scaled_residual(Y):
        return Sd + Sa @ Y + rs * (Y @ Mu) + rs * (Y @ Mb @ Y)

    H = scaled_residual(X)
    hres = np.linalg.norm(H, np.inf)
    res = np.linalg.norm(H / rs, np.inf)
    history = [res]
    in_box = True
    iterations = 0
    while res > tol and iterations < max_newton:
        # Frechet derivative of the unscaled equation; H is the scaled residual
        step = sylvester_solver(Ma + X @ Mb, Mu + Mb @ X)(-H / rs)
        new_X = X + step
        new_H = scaled_residual(new_X)
        new_hres = np.linalg.norm(new_H, np.inf)
        halvings = 0
        while new_hres > hres and halvings < MAX_HALVINGS:
            step *= 0.5
            new_X = X + step
            new_H = scaled_residual(new_X)
            new_hres = np.linalg.norm(new_H, np.inf)
            halvings += 1
        if new_hres >= hres:
            break  # stagnated at the arithmetic floor
        X, H, hres = new_X, new_H, new_hres
        res = np.linalg.norm(H / rs, np.inf)
        history.append(res)
        iterations += 1
        if X.min() < -1e-12 or X.max() > 1.0 + 1e-12:
            in_box = False
    if res > tol and hres > floor:
        raise NoConvergence(
            f"residual {res:.3e} after {iterations} Newton steps (tol {tol:.0e})")
    if tol <= REFINE_THRESHOLD:
        X = _defect_correct(X, Sd, Sa, Mu, Mb, rs)
        history[-1] = float(np.linalg.norm(scaled_residual(X) / rs, np.inf))
    return X, iterations, tuple(history), in_box


def _defect_correct(X, Sd, Sa, Mu, Mb, rs, passes: int = 2):
    """Mixed-precision defect correction of a converged Riccati iterate.

    When spec(K) nearly touches spec(-U) the solution is much more
    sensitive than the residual suggests; re-evaluating the residual in
    extended precision and correcting through the double-precision
    Jacobian recovers the lost digits.  No-op on platforms where
    ``numpy.longdouble`` is not wider than double.
    """
    if np.finfo(np.longdouble).eps >= np.finfo(float).eps:
        return X
    solve = sylvester_solver(Sa / rs + X @ Mb, Mu + Mb @ X)
    data_l = [m.astype(np.longdouble) for m in (Sd, Sa, Mu, Mb, rs)]

    def residual_l(Y):
        Sd_l, Sa_l, Mu_l, Mb_l, rs_l = data_l
        Y = Y.astype(np.longdouble)
        return Sd_l + Sa_l @ Y + rs_l * (Y @ Mu_l) + rs_l * (Y @ Mb_l @ Y)

    h_prev = residual_l(X)
    for _ in range(passes):
        x_new = X + solve(-h_prev.astype(float) / rs)
        h_new = residual_l(x_new)
        if np.abs(h_new).max(initial=0.0) >= np.abs(h_prev).max(initial=0.0):
            break
        X, h_prev = x_new, h_new
    return X


def _coefficients(model: FluidModel):
    blocks = censor_zero_phases(model)
    cp = model.c_plus[:, None]
    cm = model.c_minus_abs[:, None]
    Md = blocks.Q_pm / cp
    Ma = blocks.Q_pp / cp
    Mu = blocks.Q_mm / cm
    Mb = blocks.Q_mp / cm
    return Md, Ma, Mu, Mb


def build_UK(model: FluidModel, psi: np.ndarray):
    """Downward-record generator U and density exponent K for a given psi."""
    Md, Ma, Mu, Mb = _coefficients(model)
    U = Mu + Mb @ psi
    K = Ma + psi @ Mb
    return U, K


def solve_psi(model: FluidModel, tol: float = DEFAULT_TOL,
              max_newton: int = DEFAULT_MAX_NEWTON) -> PsiSolution:
    """Solve for the first-return matrix of a fluid model.

    Requires nonempty up- and down-phase sets.  For positive recurrent
    models the rows of ``psi`` sum to one and ``U`` has zero row sums.
    """
    if model.n_plus == 0 or model.n_minus == 0:
        raise EmptySide("model needs at least one positive and one negative rate")
    Md, Ma, Mu, Mb = _coefficients(model)
    X, iterations, history, in_box = newton_riccati(
        Md, Ma, Mu, Mb, tol, max_newton, row_scale=model.c_plus)
    U = Mu + Mb @ X
    K = Ma + X @ Mb
    return PsiSolution(psi=X, U=U, K=K, iterations=iterations,
                       residual=history[-1], residual_history=history,
                       in_unit_box=in_box)


def perturbed_model(model: FluidModel, spec: PerturbationSpec,
                    eps: float) -> FluidModel:
    """Model with the perturbation applied at finite eps.

    The partition is rebuilt from the perturbed rates, so zero-rate phases
    that acquire a sign move into the up or down class.  Because the
    canonical sort is stable, rows of the perturbed model come out in the
    block order (old up phases, migrated-up phases) and columns in
    (migrated-down phases, old down phases).
    """
    if spec.kind == "generator":
        A_eps = model.A + eps * spec.direction
        c_eps = model.c
    else:
        A_eps = model.A
        c_eps = model.c + eps * spec.direction
        signs_keep = (np.sign(c_eps[model.ip]) == 1).all() and \
                     (np.sign(c_eps[model.im]) == -1).all()
        if not signs_keep:
            raise InvalidEpsilon(f"eps={eps} flips the sign of a nonzero rate")
    try:
        return validate_model(A_eps, c_eps, labels=model.canonical_labels())
    except (NotAGenerator, Reducible) as exc:
        raise InvalidEpsilon(f"eps={eps}: {exc}") from exc


def solve_psi_at(model: FluidModel, spec: PerturbationSpec, eps: float,
                 tol: float = DEFAULT_TOL,
                 max_newton: int = DEFAULT_MAX_NEWTON):
    """Solve the perturbed model at finite eps from scratch.

    Returns ``(solution, perturbed)`` where ``perturbed`` carries the
    permutation onto the perturbed canonical ordering; its ``perm`` refers
    to positions of the base model's canonical ordering.
    """
    pmodel = perturbed_model(model, spec, eps)
    return solve_psi(pmodel, tol=tol, max_newton=max_newton), pmodel


def check_structure(model: FluidModel, sol: PsiSolution, tol: float = 1e-10) -> dict:
    """Structural facts that hold for positive recurrent models."""
    return {
        "psi_rows_sum_to_one": float(np.abs(sol.psi.sum(axis=1) - 1.0).max(initial=0.0)) <= tol,
        "U_rows_conserve": float(np.abs(sol.U.sum(axis=1)).max(initial=0.0)) <= tol,
        "K_stable": stable_spectrum(sol.K),
    }
