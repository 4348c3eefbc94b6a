"""Newton solver for the first-return probability matrix.

The matrix of first-return probabilities to the initial level from above
is the minimal nonnegative solution of the quadratic matrix equation

    Md + Ma X + X Mu + X Mb X = 0

with Md = C+^{-1} Q_{+-}, Ma = C+^{-1} Q_{++}, Mu = |C-^{-1}| Q_{--},
Mb = |C-^{-1}| Q_{-+} built from the censored generator blocks.  Newton
steps from X0 = 0 are monotone for this equation class; each step solves
one Sylvester equation with the current one-sided coefficients.  A tight
solve ends with one double-precision shifted step (:func:`_defect_correct`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (FluidModel, PerturbationSpec, censor_zero_phases,
                   stationary_phase_dist, validate_model)
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
# a solve this tight ends with the shifted Newton step of _defect_correct
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
                   max_newton: int = DEFAULT_MAX_NEWTON, *, row_scale: np.ndarray):
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
    return X, iterations, tuple(history), in_box


def _defect_correct(model: FluidModel, blocks, X, Ma, Mu, Mb):
    """One Newton step from X on a shifted equation: the new X and its
    residual.  (The name is older than the method; tracers wrap it.)

    Near zero drift spec(K) nearly touches spec(-U), and X is far less
    accurate than its residual says.  A rank-one shift keeps psi a root and
    moves the zero eigenvalue to -eta (He, Meini & Rhee 2001; Guo, Iannazzo
    & Meini 2007).  With z = xi * |c|, xi stationary: for negative drift
    psi 1 = 1, and Md + eta/q 1 1^T, Mu - eta/q 1 1^T shift U; else
    z+^T psi = z-^T, and Ma - eta s 1 z+^T, Md + eta s 1 z-^T (s = 1/z+^T 1)
    shift K.  The shifted residual is C+ F(X) from the censored blocks plus
    eta times the defect of that identity: rounding C+ C+^{-1} Q or forming
    eta-sized blocks would cost digits where a rate is tiny.
    """
    cp = model.c_plus[:, None]
    xi = stationary_phase_dist(model)
    z_p, z_m = xi[model.ip] * model.c_plus, xi[model.im] * model.c_minus_abs

    def residual(Y):
        return blocks.Q_pm + blocks.Q_pp @ Y + cp * (Y @ (Mu + Mb @ Y))

    if z_p.sum() < z_m.sum():
        shift = np.abs(np.diag(Mu)).max() / X.shape[1]
        U = Mu - shift + Mb @ X
        H = residual(X) + cp * (shift * (1.0 - X.sum(axis=1)))[:, None]
    else:
        shift = np.abs(np.diag(Ma)).max() / z_p.sum()
        Ma = Ma - shift * z_p
        U = Mu + Mb @ X
        H = residual(X) - cp * (shift * (z_p @ X - z_m))
    X = X + sylvester_solver(Ma + X @ Mb, U)(-H / cp)
    return X, float(np.linalg.norm(residual(X) / cp, np.inf))


def _coefficients(model: FluidModel, blocks):
    cp = model.c_plus[:, None]
    cm = model.c_minus_abs[:, None]
    Md = blocks.Q_pm / cp
    Ma = blocks.Q_pp / cp
    Mu = blocks.Q_mm / cm
    Mb = blocks.Q_mp / cm
    return Md, Ma, Mu, Mb


def build_UK(model: FluidModel, psi: np.ndarray):
    """Downward-record generator U and density exponent K for a given psi."""
    Md, Ma, Mu, Mb = _coefficients(model, censor_zero_phases(model))
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
    blocks = censor_zero_phases(model)
    Md, Ma, Mu, Mb = _coefficients(model, blocks)
    X, iterations, history, in_box = newton_riccati(
        Md, Ma, Mu, Mb, tol, max_newton, row_scale=model.c_plus)
    if tol <= REFINE_THRESHOLD:
        X, res = _defect_correct(model, blocks, X, Ma, Mu, Mb)
        history = history[:-1] + (res,)
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
