"""Stationary density of the level and its first-order correction.

For a positive recurrent model the stationary density above level zero is

    pi(x) = q exp(K x) [ C+^{-1} | psi |C-|^{-1} | Theta ]

with columns ordered (up, down, zero) internally; the mass at level zero
sits on the down and zero phases only.  Differentiating every factor
along a generator direction gives the first-order correction pi1; the
derivative of the boundary masses solves a Poisson equation through the
group inverse of the boundary generator.

Vectors returned by the evaluators are in the caller's original phase
order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import FluidModel, censor_zero_phases
from .errors import NotGeneratorKind, NotRecurrent, SingularNormalization, SingularSystem
from .numerics import (conv_integral, group_inverse, matrix_exp, null_row_vector,
                       solve_linear)
from .perturb import qtilde_blocks
from .riccati import PsiSolution
from . import core


@dataclass(frozen=True)
class StationaryLaw:
    """Pieces of the stationary law: exponent, zero-phase factor, weights.

    ``p_minus`` and ``p_zero`` are the probability masses at level zero on
    the down and zero phases; ``q`` weights the exponential density part.
    """

    K: np.ndarray
    Theta: np.ndarray
    q: np.ndarray
    p_minus: np.ndarray
    p_zero: np.ndarray


@dataclass(frozen=True)
class FirstOrderLaw:
    """First-order companions of a StationaryLaw under a generator direction."""

    K1: np.ndarray
    Theta1: np.ndarray
    q1: np.ndarray
    p1_minus: np.ndarray
    p1_zero: np.ndarray
    L1: Callable[[float], np.ndarray]


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


def _row(model: FluidModel, v: np.ndarray, psi: np.ndarray,
         theta: np.ndarray) -> np.ndarray:
    """v [C+^{-1} | psi |C-|^{-1} | Theta], columns (up, down, zero)."""
    return np.concatenate([v * (1.0 / model.c_plus),
                           v @ (psi / model.c_minus_abs[None, :]), v @ theta])


def _scatter(model: FluidModel, by_class: np.ndarray) -> np.ndarray:
    """Map a (up, down, zero)-ordered vector to the original phase order."""
    canonical = np.empty(model.n)
    canonical[model.ip] = by_class[:model.n_plus]
    canonical[model.im] = by_class[model.n_plus:model.n_plus + model.n_minus]
    canonical[model.i0] = by_class[model.n_plus + model.n_minus:]
    return model.unpermute(canonical)


def stationary_law(model: FluidModel, psi_sol: PsiSolution) -> StationaryLaw:
    """Boundary masses and density factors of a positive recurrent model."""
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
    col_sums = 1.0 / model.c_plus + (psi / model.c_minus_abs[None, :]).sum(axis=1) \
        + theta.sum(axis=1)
    total_integral = q_v @ solve_linear(-K, col_sums)
    denom = 1.0 + total_integral
    if denom <= 0:
        raise SingularNormalization(f"normalization denominator {denom:.3e}")
    s = 1.0 / denom
    return StationaryLaw(K=K, Theta=theta, q=s * q_v,
                         p_minus=s * v_minus, p_zero=s * v_zero)


def density_at(law: StationaryLaw, psi: np.ndarray, model: FluidModel,
               x: float) -> np.ndarray:
    """Stationary density vector at level x > 0, in original phase order."""
    return _scatter(model, _row(model, law.q @ matrix_exp(law.K * x), psi, law.Theta))


def zero_mass(law: StationaryLaw, model: FluidModel) -> np.ndarray:
    """Probability mass at level zero per phase, in original phase order."""
    by_class = np.concatenate([np.zeros(model.n_plus), law.p_minus, law.p_zero])
    return _scatter(model, by_class)


def first_order_law(model: FluidModel, psi_sol: PsiSolution,
                    a_tilde: np.ndarray, psi1: np.ndarray) -> FirstOrderLaw:
    """Derivatives of the stationary law along a generator direction.

    ``a_tilde`` is the direction in canonical phase order (zero row sums).
    The boundary-mass derivative solves the Poisson equation obtained by
    differentiating the balance equations at level zero; the remaining
    free constant is pinned by the derivative of the normalization.
    """
    law = stationary_law(model, psi_sol)
    psi, K = psi_sol.psi, psi_sol.K
    ip, i0, im = model.ip, model.i0, model.im
    cp = model.c_plus[:, None]
    psi_cm = psi / model.c_minus_abs[None, :]
    psi1_cm = psi1 / model.c_minus_abs[None, :]
    At = np.asarray(a_tilde, dtype=float)

    blocks = censor_zero_phases(model)
    Qt_pp, _, Qt_mp, _ = qtilde_blocks(model, At)
    K1 = Qt_pp / cp + psi1_cm @ blocks.Q_mp + psi_cm @ Qt_mp

    inner = At[np.ix_(ip, i0)] / cp + psi1_cm @ model.block(im, i0) \
        + psi_cm @ At[np.ix_(im, i0)] + law.Theta @ At[np.ix_(i0, i0)]
    Theta1 = _right_solve(inner, -model.block(i0, i0))

    # Poisson equation for the boundary-mass derivative:
    # x S = -p S1 has solutions x = -p S1 S^# + const * p
    S = _boundary_generator(model, psi)
    S1 = np.vstack([
        np.hstack([At[np.ix_(im, im)] + At[np.ix_(im, ip)] @ psi
                   + model.block(im, ip) @ psi1, At[np.ix_(im, i0)]]),
        np.hstack([At[np.ix_(i0, im)] + At[np.ix_(i0, ip)] @ psi
                   + model.block(i0, ip) @ psi1, At[np.ix_(i0, i0)]])])
    p = np.concatenate([law.p_minus, law.p_zero])
    S_sharp = group_inverse(S, p / p.sum())
    p1_part = -(p @ S1) @ S_sharp
    q1_part = p1_part[:model.n_minus] @ model.block(im, ip) \
        + p1_part[model.n_minus:] @ model.block(i0, ip) \
        + law.p_minus @ At[np.ix_(im, ip)] + law.p_zero @ At[np.ix_(i0, ip)]

    # derivative of the normalization fixes the free constant; the
    # coefficient of the constant is the total mass, which is one
    theta = law.Theta
    col_sums = 1.0 / model.c_plus + psi_cm.sum(axis=1) + theta.sum(axis=1)
    y = solve_linear(-K, col_sums)
    mass1 = (p1_part.sum() + q1_part @ y
             + law.q @ solve_linear(-K, K1 @ y)
             + law.q @ solve_linear(-K, psi1_cm.sum(axis=1) + Theta1.sum(axis=1)))
    const = -mass1
    p1 = p1_part + const * p
    q1 = q1_part + const * law.q
    return FirstOrderLaw(K1=K1, Theta1=Theta1, q1=q1,
                         p1_minus=p1[:model.n_minus],
                         p1_zero=p1[model.n_minus:],
                         L1=lambda x: conv_integral(K, K1, x))


def density1_at(fol: FirstOrderLaw, law: StationaryLaw, model: FluidModel,
                psi: np.ndarray, psi1: np.ndarray, x: float) -> np.ndarray:
    """First-order density correction at level x, in original phase order.

    The row is a [0 | psi1 |C-|^{-1} | Theta1] + b [C+^{-1} | psi |C-|^{-1} | Theta]
    with [a, b] = [q e^{Kx}, q1 e^{Kx} + q L1(x)] = [q, q1] exp([[K, K1], [0, K]] x).
    """
    if x < 0:
        raise ValueError("x must be nonnegative")
    p = model.n_plus
    block = np.block([[law.K, fol.K1], [np.zeros_like(law.K), law.K]])
    ab = np.concatenate([law.q, fol.q1]) @ matrix_exp(block * x)
    a, b = ab[:p], ab[p:]
    row = _row(model, b, psi, law.Theta)
    row[p:] += np.concatenate([a @ (psi1 / model.c_minus_abs[None, :]), a @ fol.Theta1])
    return _scatter(model, row)


def require_generator_kind(spec) -> None:
    """Density corrections are implemented for generator directions only."""
    if spec.kind != "generator":
        raise NotGeneratorKind(
            "first-order density corrections require a generator perturbation")
