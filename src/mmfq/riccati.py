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

from .core import (CensoredBlocks, FluidModel, PerturbationSpec, _partition,
                   _rates_in_range, censor_zero_phases, validate_model)
from .errors import (DimensionMismatch, EmptySide, InvalidEpsilon, NoConvergence,
                     NotAGenerator, Reducible)
# solve_linear stays bound because tracers wrap mmfq.riccati.solve_linear by name
from .numerics import _inf_norm, solve_linear, stable_spectrum, sylvester_solver  # noqa: F401

DEFAULT_TOL = 1e-12
DEFAULT_MAX_NEWTON = 50
# residual floor relative to the coefficient scale; below this the iteration
# has hit double-precision rounding and is accepted as converged
FLOOR_FACTOR = 256.0
# a solve this tight ends with the shifted Newton step of _defect_correct
REFINE_THRESHOLD = 1e-10
# largest row-sum defect check_structure accepts
STRUCTURE_TOL = 1e-10


@dataclass(frozen=True)
class PsiSolution:
    """First-return matrix with the downward-record generator and exponent.

    ``psi`` is |S+| x |S-|; ``U`` generates the phase process at new level
    minima (rows conserve for recurrent models); ``K`` is the exponent
    matrix of the stationary density and has a strictly stable spectrum.
    ``residual`` is ||F||_inf of the unscaled equation (see :func:`solve_psi`).
    ``in_unit_box`` says whether ``psi`` lies in [0, 1] to within 1e-12.
    ``blocks`` is the censoring the solve ran on; the expansion and the
    stationary law reuse it, with its factor of the zero-rate block.
    """

    psi: np.ndarray
    U: np.ndarray
    K: np.ndarray
    iterations: int
    residual: float
    residual_history: tuple[float, ...]
    in_unit_box: bool
    blocks: CensoredBlocks


def _residual(Qd, Qa, Mu, Mb, c, Y):
    """C F(Y) = Qd + Qa Y + C Y U and U = Mu + Mb Y, ``c`` a column, from the
    blocks themselves: C (C^{-1} Q) would round away digits where a rate is
    tiny.  U is the right coefficient of the Newton step from Y."""
    U = Mu + Mb.dot(Y)
    return Qd + Qa.dot(Y) + c * Y.dot(U), U


def newton_riccati(Qd, Qa, Ma, Mu, Mb, c, tol: float = DEFAULT_TOL,
                   max_newton: int = DEFAULT_MAX_NEWTON):
    """Minimal nonnegative root of C^{-1}(Qd + Qa X) + X Mu + X Mb X = 0.

    Newton from X0 = 0 with C = diag(c), c > 0, Ma = C^{-1} Qa: at iterate
    X solve (Ma + X Mb) D + D (Mu + Mb X) = -F(X) and take the full step.
    Returns (X, iterations, history of ||F||_inf, H, U), H = C F(X) and
    U = Mu + Mb X from the :func:`_residual` of the returned X.  Exact
    iterates rise from 0 to the root; round-off can push one out of [0, 1],
    so judge the root.  Stops when ||F||_inf meets ``tol``, when ||C F||_inf
    stops decreasing at the double-precision floor, or after ``max_newton``
    steps; raises ``NoConvergence`` unless ||F||_inf meets ``tol`` or
    ||C F||_inf is at that floor, so with tiny rates an accepted ||F||_inf
    can exceed ``tol``.  An empty side (p or q zero) returns the empty root,
    H = X and U = Mu without a step.  Raises ``ValueError`` unless
    0 <= ``tol`` < inf.
    """
    if not 0.0 <= tol < np.inf:
        raise ValueError(f"tol must be finite and nonnegative, got {tol!r}")
    p, q = Qd.shape
    X = np.zeros((p, q))
    if p == 0 or q == 0:
        return X, 0, (0.0,), X, Mu
    c = np.asarray(c, dtype=float)[:, None]
    scale = max(float(np.abs(m).max()) for m in (Qd, Qa, Mu, Mb))
    # scaled residuals below this are double-precision evaluation noise
    floor = FLOOR_FACTOR * np.finfo(float).eps * max(scale, 1.0) * max(p, q)
    H, U = _residual(Qd, Qa, Mu, Mb, c, X)
    hres = _inf_norm(H)
    F = H / c
    res = _inf_norm(F)
    history = [res]
    iterations = 0
    while res > tol and iterations < max_newton:
        new_X = X + sylvester_solver(Ma + X.dot(Mb), U)(-F)
        new_H, new_U = _residual(Qd, Qa, Mu, Mb, c, new_X)
        new_hres = _inf_norm(new_H)
        # above the floor a full step may raise ||C F|| while X still rises
        if new_hres >= hres and hres <= floor:
            break  # stagnated at the arithmetic floor
        X, H, U, hres, F = new_X, new_H, new_U, new_hres, new_H / c
        res = _inf_norm(F)
        history.append(res)
        iterations += 1
    if res > tol and hres > floor:
        raise NoConvergence(
            f"residual {res:.3e} after {iterations} Newton steps (tol {tol:.0e})")
    return X, iterations, tuple(history), H, U


def _defect_correct(model: FluidModel, blocks, X, H, U, Ma, Mu, Mb, c_plus):
    """One Newton step on a shifted equation from X and the H = C+ F(X) and
    U = Mu + Mb X that Newton hands over: the new X, its residual and U,
    ``c_plus`` the up rates.  Tracers wrap it by this name.

    Near zero drift spec(K) nearly touches spec(-U), and X is far less
    accurate than its residual says.  A rank-one shift keeps psi a root and
    moves the zero eigenvalue to -eta (He, Meini & Rhee 2001; Guo, Iannazzo
    & Meini 2007).  With z = xi * |c|, xi stationary: for negative drift
    psi 1 = 1, and Md + eta/q 1 1^T, Mu - eta/q 1 1^T shift U; else
    z+^T psi = z-^T, and Ma - eta s 1 z+^T, Md + eta s 1 z-^T (s = 1/z+^T 1)
    shift K.  The shifted residual is H plus eta times the defect of that
    identity: rounding C+ C+^{-1} Q or forming eta-sized blocks would cost
    digits where a rate is tiny.
    """
    cp = c_plus[:, None]
    xi = model.xi
    z_p, z_m = xi[model.ip] * c_plus, xi[model.im] * model.c_minus_abs
    negative_drift = z_p.sum() < z_m.sum()
    diag, count = (Mu, X.shape[1]) if negative_drift else (Ma, float(z_p.sum()))
    # in Python floats a shift out of the double range is inf, with no warning
    shift = float(np.abs(np.diag(diag)).max()) / count if count else np.inf
    if not np.isfinite(shift):
        raise NoConvergence(f"the shifted step's scale {shift} leaves the double range")
    if negative_drift:
        # formed again, not U - shift: that would move the last bit of psi
        U = Mu - shift + Mb.dot(X)
        H = H + cp * (shift * (1.0 - X.sum(axis=1)))[:, None]
    else:
        Ma = Ma - shift * z_p
        H = H - cp * (shift * (z_p @ X - z_m))
    X = X + sylvester_solver(Ma + X.dot(Mb), U)(-H / cp)
    H, U = _residual(blocks.Q_pm, blocks.Q_pp, Mu, Mb, cp, X)
    return X, float(_inf_norm(H / cp)), U


def solve_psi(model: FluidModel, tol: float = DEFAULT_TOL,
              max_newton: int = DEFAULT_MAX_NEWTON) -> PsiSolution:
    """Solve for the first-return matrix of a fluid model.

    Requires nonempty up- and down-phase sets.  For positive recurrent
    models the rows of ``psi`` sum to one and ``U`` has zero row sums.
    ``residual`` is ||F||_inf of the unscaled equation.  A solve is accepted
    when it meets ``tol`` times min(s, 1), s the largest coefficient inf-norm
    (psi is free of the unit of time), or when ||C+ F||_inf is at the
    round-off floor, so with tiny up rates it can exceed ``tol`` (case 3a at
    eps = 1e-4: 4e-11).
    Newton raises ``ValueError`` unless 0 <= ``tol`` < inf.
    """
    if model.n_plus == 0 or model.n_minus == 0:
        raise EmptySide("model needs at least one positive and one negative rate")
    blocks = censor_zero_phases(model)
    c_plus, cm = model.c_plus, model.c_minus_abs[:, None]
    Ma, Mu, Mb = blocks.Q_pp / c_plus[:, None], blocks.Q_mm / cm, blocks.Q_mp / cm
    scale = max(float(_inf_norm(M)) for M in (blocks.Q_pm / c_plus[:, None], Ma, Mu, Mb))
    X, iterations, history, H, U = newton_riccati(
        blocks.Q_pm, blocks.Q_pp, Ma, Mu, Mb, c_plus, tol * min(scale, 1.0), max_newton)
    if tol <= REFINE_THRESHOLD:
        X, res, U = _defect_correct(model, blocks, X, H, U, Ma, Mu, Mb, c_plus)
        history = history[:-1] + (res,)
    K = Ma + X.dot(Mb)
    return PsiSolution(psi=X, U=U, K=K, iterations=iterations,
                       residual=history[-1], residual_history=history,
                       in_unit_box=bool(X.min() >= -1e-12 and X.max() <= 1.0 + 1e-12),
                       blocks=blocks)


def perturbed_model(model: FluidModel, spec: PerturbationSpec,
                    eps: float) -> FluidModel:
    """Model with the perturbation applied at finite eps.

    The partition is rebuilt from the perturbed rates, so zero-rate phases
    that acquire a sign move into the up or down class.  Because the
    canonical sort is stable, rows of the perturbed model come out in the
    block order (old up phases, migrated-up phases) and columns in
    (migrated-down phases, old down phases).

    A rate direction leaves ``A`` as it is, so only what changed is checked:
    eps > 0 where zero-rate phases move, every rate keeps or takes its sign
    and norm(A, inf) / |r| stays finite; the model keeps ``model.xi``.  A
    generator direction validates A + eps At in full.  A non-finite eps, or
    one that takes an entry out of the double range, is ``InvalidEpsilon``.
    """
    if not np.isfinite(eps):
        raise InvalidEpsilon(f"eps={eps} is not finite")
    # zero-rate phases only leave their class, as the expansion assumes, for eps > 0
    if spec.kind == "rate" and spec.regime != "unaffected" and not eps > 0:
        raise InvalidEpsilon(f"eps={eps} must be positive to move zero-rate phases")
    with np.errstate(over="ignore"):
        moved = (model.A if spec.kind == "generator" else model.c) + eps * spec.direction
    if not np.isfinite(moved).all():
        raise InvalidEpsilon(f"eps={eps} takes the perturbed model out of the double range")
    if spec.kind == "generator":
        try:
            return validate_model(moved, model.c, labels=model.canonical_labels())
        except (DimensionMismatch, NotAGenerator, Reducible) as exc:
            raise InvalidEpsilon(f"eps={eps}: {exc}") from exc
    if not ((moved[:model.n_plus] > 0).all() and (moved[model.n - model.n_minus:] < 0).all()):
        raise InvalidEpsilon(f"eps={eps} flips the sign of a nonzero rate")
    nonzero = model.n - model.n_zero + spec.oplus.size + spec.ominus.size
    if np.count_nonzero(moved) < nonzero or not _rates_in_range(_inf_norm(model.A), moved):
        raise InvalidEpsilon(f"eps={eps} leaves a rate too small to divide A by")
    return _partition(model.A, moved, model.canonical_labels(), model.xi)


def solve_psi_at(model: FluidModel, spec: PerturbationSpec, eps: float,
                 tol: float = DEFAULT_TOL):
    """Solve the perturbed model at finite eps from scratch.

    Returns ``(solution, perturbed)`` where ``perturbed`` carries the
    permutation onto the perturbed canonical ordering; its ``perm`` refers
    to positions of the base model's canonical ordering.
    """
    pmodel = perturbed_model(model, spec, eps)
    return solve_psi(pmodel, tol=tol), pmodel


def check_structure(model: FluidModel, sol: PsiSolution) -> dict:
    """Structural facts that hold for positive recurrent models."""
    def small(defect):
        return float(np.abs(defect).max(initial=0.0)) <= STRUCTURE_TOL
    return {
        "psi_rows_sum_to_one": small(sol.psi.sum(axis=1) - 1.0),
        "U_rows_conserve": small(sol.U.sum(axis=1)),
        "K_stable": stable_spectrum(sol.K),
    }
