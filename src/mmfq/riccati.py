"""Newton solver for the first-return probability matrix.

The matrix of first-return probabilities to the initial level from above
is the minimal nonnegative solution of the quadratic matrix equation

    Md + Ma X + X Mu + X Mb X = 0

with Md = C+^{-1} Q_{+-}, Ma = C+^{-1} Q_{++}, Mu = |C-^{-1}| Q_{--},
Mb = |C-^{-1}| Q_{-+} built from the censored generator blocks.  Newton
steps from X0 = 0 are monotone for this equation class (Guo & Laub 2000),
so every step is a full one, a Sylvester equation with the current
one-sided coefficients.  A tight solve ends with one double-precision
shifted step (:func:`_defect_correct`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (FluidModel, PerturbationSpec, censor_zero_phases,
                   stationary_phase_dist, validate_model)
from .errors import (EmptySide, InvalidEpsilon, NoConvergence, NotAGenerator,
                     Reducible)
# solve_linear stays bound because tracers wrap mmfq.riccati.solve_linear by name
from .numerics import _inf_norm, solve_linear, stable_spectrum, sylvester_solver  # noqa: F401

DEFAULT_TOL = 1e-12
DEFAULT_MAX_NEWTON = 50
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
    ``residual`` is ||F||_inf of the unscaled equation (see :func:`solve_psi`).
    ``in_unit_box`` says whether ``psi`` lies in [0, 1] to within 1e-12.
    """

    psi: np.ndarray
    U: np.ndarray
    K: np.ndarray
    iterations: int
    residual: float
    residual_history: tuple[float, ...]
    in_unit_box: bool


def _residual(Qd, Qa, Mu, Mb, c, Y):
    """C F(Y) = Qd + Qa Y + C Y (Mu + Mb Y), ``c`` a column, from the blocks
    themselves: C (C^{-1} Q) would round away digits where a rate is tiny."""
    return Qd + Qa @ Y + c * (Y @ (Mu + Mb @ Y))


def newton_riccati(Qd, Qa, Mu, Mb, c, tol: float = DEFAULT_TOL,
                   max_newton: int = DEFAULT_MAX_NEWTON):
    """Minimal nonnegative root of C^{-1}(Qd + Qa X) + X Mu + X Mb X = 0.

    Newton from X0 = 0 with C = diag(c), c > 0: at iterate X solve
    (C^{-1} Qa + X Mb) D + D (Mu + Mb X) = -F(X) and take the full step.
    Returns (X, iterations, history of ||F||_inf).  Exact iterates rise from
    0 to the root; round-off can push one out of [0, 1], so judge the root.
    Stops when ||F||_inf meets ``tol``, when ||C F||_inf stops decreasing
    at the double-precision floor, or after ``max_newton`` steps; raises
    ``NoConvergence`` unless ||F||_inf meets ``tol`` or ||C F||_inf is at
    that floor, so with tiny rates an accepted ||F||_inf can exceed ``tol``.
    An empty side (p or q zero) returns the empty root without a step.
    Raises ``ValueError`` unless 0 <= ``tol`` < inf.
    """
    if not 0.0 <= tol < np.inf:
        raise ValueError(f"tol must be finite and nonnegative, got {tol!r}")
    p, q = Qd.shape
    X = np.zeros((p, q))
    if p == 0 or q == 0:
        return X, 0, (0.0,)
    c = np.asarray(c, dtype=float)[:, None]
    Ma = Qa / c
    scale = max(float(np.abs(m).max()) for m in (Qd, Qa, Mu, Mb))
    # scaled residuals below this are double-precision evaluation noise
    floor = FLOOR_FACTOR * np.finfo(float).eps * max(scale, 1.0) * max(p, q)
    H = _residual(Qd, Qa, Mu, Mb, c, X)
    hres = _inf_norm(H)
    res = _inf_norm(H / c)
    history = [res]
    iterations = 0
    while res > tol and iterations < max_newton:
        new_X = X + sylvester_solver(Ma + X @ Mb, Mu + Mb @ X)(-H / c)
        new_H = _residual(Qd, Qa, Mu, Mb, c, new_X)
        new_hres = _inf_norm(new_H)
        # above the floor a full step may raise ||C F|| while X still rises
        if new_hres >= hres and hres <= floor:
            break  # stagnated at the arithmetic floor
        X, H, hres = new_X, new_H, new_hres
        res = _inf_norm(H / c)
        history.append(res)
        iterations += 1
    if res > tol and hres > floor:
        raise NoConvergence(
            f"residual {res:.3e} after {iterations} Newton steps (tol {tol:.0e})")
    return X, iterations, tuple(history)


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

    eq = (blocks.Q_pm, blocks.Q_pp, Mu, Mb, cp)
    if z_p.sum() < z_m.sum():
        shift = np.abs(np.diag(Mu)).max() / X.shape[1]
        U = Mu - shift + Mb @ X
        H = _residual(*eq, X) + cp * (shift * (1.0 - X.sum(axis=1)))[:, None]
    else:
        shift = np.abs(np.diag(Ma)).max() / z_p.sum()
        Ma = Ma - shift * z_p
        U = Mu + Mb @ X
        H = _residual(*eq, X) - cp * (shift * (z_p @ X - z_m))
    X = X + sylvester_solver(Ma + X @ Mb, U)(-H / cp)
    return X, float(_inf_norm(_residual(*eq, X) / cp))


def _coefficients(model: FluidModel, blocks):
    cm = model.c_minus_abs[:, None]
    return blocks.Q_pp / model.c_plus[:, None], blocks.Q_mm / cm, blocks.Q_mp / cm


def build_UK(model: FluidModel, psi: np.ndarray):
    """Downward-record generator U and density exponent K for a given psi."""
    Ma, Mu, Mb = _coefficients(model, censor_zero_phases(model))
    U = Mu + Mb @ psi
    K = Ma + psi @ Mb
    return U, K


def solve_psi(model: FluidModel, tol: float = DEFAULT_TOL,
              max_newton: int = DEFAULT_MAX_NEWTON) -> PsiSolution:
    """Solve for the first-return matrix of a fluid model.

    Requires nonempty up- and down-phase sets.  For positive recurrent
    models the rows of ``psi`` sum to one and ``U`` has zero row sums.
    ``residual`` is ||F||_inf of the unscaled equation.  A solve is accepted
    when it meets ``tol`` or when ||C+ F||_inf is at the round-off floor, so
    with tiny up rates it can exceed ``tol`` (case 3a at eps = 1e-4: 4e-11).
    Newton raises ``ValueError`` unless 0 <= ``tol`` < inf.
    """
    if model.n_plus == 0 or model.n_minus == 0:
        raise EmptySide("model needs at least one positive and one negative rate")
    blocks = censor_zero_phases(model)
    Ma, Mu, Mb = _coefficients(model, blocks)
    X, iterations, history = newton_riccati(
        blocks.Q_pm, blocks.Q_pp, Mu, Mb, model.c_plus, tol, max_newton)
    if tol <= REFINE_THRESHOLD:
        X, res = _defect_correct(model, blocks, X, Ma, Mu, Mb)
        history = history[:-1] + (res,)
    U = Mu + Mb @ X
    K = Ma + X @ Mb
    return PsiSolution(psi=X, U=U, K=K, iterations=iterations,
                       residual=history[-1], residual_history=history,
                       in_unit_box=bool(X.min() >= -1e-12 and X.max() <= 1.0 + 1e-12))


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
