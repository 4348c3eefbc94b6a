"""Stationary density of the level and its first-order correction.

For a positive recurrent model the stationary density above level zero is
pi(x) = q exp(K x) W, with W = [ C+^{-1} | psi |C-|^{-1} | Theta ], and the
mass at level zero sits on the down and zero phases only.  Differentiating
every factor along a generator direction gives pi1(x) = [q, q1] exp(G x) W1
with G = [[K, K1], [0, K]] (Van Loan, 1978) and W1 = [[0 | psi1 |C-|^{-1} |
Theta1]; W]; the boundary-mass derivative solves a Poisson equation through
the group inverse of the boundary generator.  ``StationaryLaw`` holds W and
``FirstOrderLaw`` G, [q, q1] and W1, with columns in the caller's phase order,
and each holds an evaluator of exp(K x) or exp(G x) with the powers and norms
of its exponent: all are built once per law, so a level costs one Pade step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import FluidModel, censor_zero_phases
from .errors import (Inconclusive, NotGeneratorKind, NotRecurrent, SingularNormalization,
                     SingularSystem)
# conv_integral and matrix_exp stay bound because tracers wrap them here by name
from .numerics import (ExpEvaluator, conv_integral, exp_evaluator, group_inverse,  # noqa: F401
                       matrix_exp, null_row_vector, solve_linear)
from .perturb import qtilde_blocks
from .riccati import PsiSolution
from . import core


@dataclass(frozen=True)
class StationaryLaw:
    """Pieces of the stationary law: exponent, zero-phase factor, weights.

    ``p_minus`` and ``p_zero`` are the probability masses at level zero on
    the down and zero phases; pi(x) = q exp(K x) W with ``W`` p x n.
    """

    K: np.ndarray
    Theta: np.ndarray
    q: np.ndarray
    p_minus: np.ndarray
    p_zero: np.ndarray
    W: np.ndarray
    exp_K: ExpEvaluator


@dataclass(frozen=True)
class FirstOrderLaw:
    """First-order companions of a StationaryLaw: pi1(x) = v exp(G x) W1."""

    K1: np.ndarray
    Theta1: np.ndarray
    q1: np.ndarray
    p1_minus: np.ndarray
    p1_zero: np.ndarray
    G: np.ndarray
    v: np.ndarray
    W1: np.ndarray
    exp_G: ExpEvaluator


def _right_solve(B: np.ndarray, M: np.ndarray) -> np.ndarray:
    """X with X M = B."""
    return solve_linear(M.T, B.T).T


def _theta(model: FluidModel, psi: np.ndarray) -> np.ndarray:
    """Zero-phase column factor (C+^{-1} A_{+0} + psi |C-^{-1}| A_{-0}) (-A_00)^{-1}."""
    ip, i0, im = model.ip, model.i0, model.im
    B = model.block(ip, i0) / model.c_plus[:, None] \
        + (psi / model.c_minus_abs[None, :]) @ model.block(im, i0)
    return _right_solve(B, -model.block(i0, i0))


def _boundary_generator(model: FluidModel, psi: np.ndarray) -> np.ndarray:
    """Generator of the phase process observed at level zero (down+zero phases)."""
    ip, i0, im = model.ip, model.i0, model.im
    top = np.hstack([model.block(im, im) + model.block(im, ip) @ psi,
                     model.block(im, i0)])
    bottom = np.hstack([model.block(i0, im) + model.block(i0, ip) @ psi,
                        model.block(i0, i0)])
    return np.vstack([top, bottom])


def _row_factor(model: FluidModel, diag: np.ndarray, theta: np.ndarray,
                psi: np.ndarray) -> np.ndarray:
    """[diag | Theta | psi |C-|^{-1}] on (up, zero, down) columns, in caller order."""
    canonical = np.hstack([diag, theta, psi / model.c_minus_abs[None, :]])
    return model.unpermute(canonical.T).T


def _propagate(v: np.ndarray, exp_G: ExpEvaluator, W: np.ndarray, x: float) -> np.ndarray:
    """v exp(G x) W at a level x >= 0, from the law's evaluator of exp(G x)."""
    # the evaluator raises Inconclusive where x eta overflows (x ~ 1e307 on case 1a)
    with np.errstate(over="ignore", invalid="ignore"):
        row = v.dot(exp_G(x)).dot(W)
        if np.isfinite(row).all():
            return row
    raise Inconclusive(f"matrix exponential not finite in double precision at x = {x}")


def _law_factors(model: FluidModel, psi_sol: PsiSolution):
    """Theta, q, p_minus, p_zero and W of a positive recurrent model's law: all
    of its ``StationaryLaw`` but K and the evaluator of exp(K x)."""
    if core.mean_drift(model) >= 0:
        raise NotRecurrent("mean drift is nonnegative")
    psi, K = psi_sol.psi, psi_sol.K
    theta = _theta(model, psi)
    S = _boundary_generator(model, psi)
    try:
        v = null_row_vector(S)
    except SingularSystem as exc:
        raise SingularNormalization(str(exc)) from exc
    if v.min() < -1e-9:
        raise SingularNormalization(f"negative boundary mass {v.min():.3e}")
    v = np.clip(v, 0.0, None)
    v /= v.sum()
    v_minus, v_zero = v[:model.n_minus], v[model.n_minus:]
    q_v = v_minus @ model.block(model.im, model.ip) \
        + v_zero @ model.block(model.i0, model.ip)
    W = _row_factor(model, np.diag(1.0 / model.c_plus), theta, psi)
    denom = 1.0 + q_v @ solve_linear(-K, W.sum(axis=1))
    if denom <= 0:
        raise SingularNormalization(f"normalization denominator {denom:.3e}")
    s = 1.0 / denom
    return theta, s * q_v, s * v_minus, s * v_zero, W


def stationary_law(model: FluidModel, psi_sol: PsiSolution) -> StationaryLaw:
    """Boundary masses and density factors of a positive recurrent model."""
    theta, q, p_minus, p_zero, W = _law_factors(model, psi_sol)
    return StationaryLaw(K=psi_sol.K, Theta=theta, q=q, p_minus=p_minus, p_zero=p_zero,
                         W=W, exp_K=exp_evaluator(psi_sol.K))


def density_at(law: StationaryLaw, psi: np.ndarray, model: FluidModel,
               x: float) -> np.ndarray:
    """Stationary density vector at level x >= 0, in original phase order.

    ``psi`` and ``model`` must be the ones ``law`` was built from.  Raises
    ``Inconclusive`` where exp(K x) is not finite in double precision.
    """
    return _propagate(law.q, law.exp_K, law.W, x)


def zero_mass(law: StationaryLaw, model: FluidModel) -> np.ndarray:
    """Probability mass at level zero per phase, in original phase order."""
    return model.unpermute(np.concatenate([np.zeros(model.n_plus), law.p_zero, law.p_minus]))


def first_order_law(model: FluidModel, psi_sol: PsiSolution,
                    a_tilde: np.ndarray, psi1: np.ndarray) -> FirstOrderLaw:
    """Derivatives of the stationary law along a generator direction.

    ``a_tilde`` is the direction in canonical phase order (zero row sums).
    The boundary-mass derivative solves the Poisson equation obtained by
    differentiating the balance equations at level zero; the remaining
    free constant is pinned by the derivative of the normalization.
    """
    theta, q, p_minus, p_zero, W = _law_factors(model, psi_sol)
    psi, K = psi_sol.psi, psi_sol.K
    ip, i0, im = model.ip, model.i0, model.im
    cp = model.c_plus[:, None]
    psi_cm = psi / model.c_minus_abs[None, :]
    psi1_cm = psi1 / model.c_minus_abs[None, :]
    At = np.asarray(a_tilde, dtype=float)

    def at(rows, cols):  # a C-ordered block of At, as model.block is of A
        return At.take(rows, 0).take(cols, 1)

    blocks = censor_zero_phases(model)
    Qt_pp, _, Qt_mp, _ = qtilde_blocks(model, At)
    K1 = Qt_pp / cp + psi1_cm @ blocks.Q_mp + psi_cm @ Qt_mp

    inner = at(ip, i0) / cp + psi1_cm @ model.block(im, i0) \
        + psi_cm @ at(im, i0) + theta @ at(i0, i0)
    Theta1 = _right_solve(inner, -model.block(i0, i0))

    # Poisson equation for the boundary-mass derivative:
    # x S = -p S1 has solutions x = -p S1 S^# + const * p
    S = _boundary_generator(model, psi)
    S1 = np.vstack([
        np.hstack([at(im, im) + at(im, ip) @ psi
                   + model.block(im, ip) @ psi1, at(im, i0)]),
        np.hstack([at(i0, im) + at(i0, ip) @ psi
                   + model.block(i0, ip) @ psi1, at(i0, i0)])])
    p = np.concatenate([p_minus, p_zero])
    S_sharp = group_inverse(S, p / p.sum())
    p1_part = -(p @ S1) @ S_sharp
    q1_part = p1_part[:model.n_minus] @ model.block(im, ip) \
        + p1_part[model.n_minus:] @ model.block(i0, ip) \
        + p_minus @ at(im, ip) + p_zero @ at(i0, ip)

    # derivative of the normalization fixes the free constant; the
    # coefficient of the constant is the total mass, which is one
    W1_top = _row_factor(model, np.zeros_like(K), Theta1, psi1)
    y = solve_linear(-K, W.sum(axis=1))
    mass1 = p1_part.sum() + q1_part @ y \
        + q @ solve_linear(-K, K1 @ y + W1_top.sum(axis=1))
    p1 = p1_part - mass1 * p
    q1 = q1_part - mass1 * q
    G = np.block([[K, K1], [np.zeros_like(K), K]])
    return FirstOrderLaw(K1=K1, Theta1=Theta1, q1=q1,
                         p1_minus=p1[:model.n_minus], p1_zero=p1[model.n_minus:],
                         G=G, v=np.concatenate([q, q1]),
                         W1=np.vstack([W1_top, W]), exp_G=exp_evaluator(G))


def density1_at(fol: FirstOrderLaw, law: StationaryLaw, model: FluidModel,
                psi: np.ndarray, psi1: np.ndarray, x: float) -> np.ndarray:
    """First-order density correction at level x, in original phase order.

    The row is a [0 | psi1 |C-|^{-1} | Theta1] + b [C+^{-1} | psi |C-|^{-1} | Theta]
    with [a, b] = [q e^{Kx}, q1 e^{Kx} + q L1(x)] = [q, q1] exp([[K, K1], [0, K]] x).
    ``law``, ``model``, ``psi`` and ``psi1`` must be the ones ``fol`` was
    built from.  Raises ``Inconclusive`` where the exponential is not finite.
    """
    return _propagate(fol.v, fol.exp_G, fol.W1, x)


def require_generator_kind(spec) -> None:
    """Density corrections are implemented for generator directions only."""
    if spec.kind != "generator":
        raise NotGeneratorKind(
            "first-order density corrections require a generator perturbation")
