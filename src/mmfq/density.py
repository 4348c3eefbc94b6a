"""Stationary density of the level and its first-order correction.

For a positive recurrent model the stationary density above level zero is
pi(x) = q exp(K x) W, with W = [ C+^{-1} | psi |C-|^{-1} | Theta ], and the
mass at level zero sits on the down and zero phases only.  Differentiating
every factor along a generator direction gives pi1(x) = [q, q1] exp(G x) W1
with G = [[K, K1], [0, K]] (Van Loan, 1978) and W1 = [[0 | psi1 |C-|^{-1} |
Theta1]; W]; Theta and Theta1 are products with the censoring's (-A_00)^{-1},
and the boundary-mass derivative differentiates the bordered system that
gives the boundary masses.  ``StationaryLaw`` holds W and
``FirstOrderLaw`` G, [q, q1] and W1, with columns in the caller's phase order,
and each holds an evaluator of exp(K x) or exp(G x) with the powers and norms
of its exponent: all are built once per law, so a level costs one Taylor step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# censor_zero_phases, conv_integral and matrix_exp stay bound because tracers
# wrap them here by name
from .core import FluidModel, censor_zero_phases  # noqa: F401
from .errors import (Inconclusive, NotGeneratorKind, NotRecurrent, SingularNormalization,
                     SingularSystem)
from .numerics import (ExpEvaluator, conv_integral, exp_evaluator,  # noqa: F401
                       matrix_exp, null_row_vector, solve_linear)
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


def _theta(model: FluidModel, psi: np.ndarray, inv0: np.ndarray) -> np.ndarray:
    """Zero-phase column factor (C+^{-1} A_{+0} + psi |C-^{-1}| A_{-0}) (-A_00)^{-1},
    with ``inv0`` = (-A_00)^{-1}."""
    ip, i0, im = model.ip, model.i0, model.im
    return (model.block(ip, i0) / model.c_plus[:, None]
            + (psi / model.c_minus_abs[None, :]) @ model.block(im, i0)) @ inv0


def _boundary_generator(model: FluidModel, block, psi: np.ndarray) -> np.ndarray:
    """Generator S of the phase process observed at level zero (down+zero phases),
    with ``block`` = ``model.block``; a direction's block reader gives the At terms of S1."""
    ip, i0, im = model.ip, model.i0, model.im
    top = np.hstack([block(im, im) + block(im, ip) @ psi, block(im, i0)])
    bottom = np.hstack([block(i0, im) + block(i0, ip) @ psi, block(i0, i0)])
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
    of its ``StationaryLaw`` but K and the evaluator of exp(K x); then the
    boundary generator S and y = (-K)^{-1} W 1, which the first-order law reuses."""
    if core.mean_drift(model) >= 0:
        raise NotRecurrent("mean drift is nonnegative")
    psi, K = psi_sol.psi, psi_sol.K
    theta = _theta(model, psi, psi_sol.blocks.inv0)
    S = _boundary_generator(model, model.block, psi)
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
    y = solve_linear(-K, W.sum(axis=1))
    denom = 1.0 + q_v @ y
    if denom <= 0:
        raise SingularNormalization(f"normalization denominator {denom:.3e}")
    s = 1.0 / denom
    return theta, s * q_v, s * v_minus, s * v_zero, W, S, y


def stationary_law(model: FluidModel, psi_sol: PsiSolution) -> StationaryLaw:
    """Boundary masses and density factors of a positive recurrent model."""
    theta, q, p_minus, p_zero, W, _, _ = _law_factors(model, psi_sol)
    return StationaryLaw(K=psi_sol.K, Theta=theta, q=q, p_minus=p_minus, p_zero=p_zero,
                         W=W, exp_K=exp_evaluator(psi_sol.K))


def density_at(law: StationaryLaw, psi: np.ndarray, model: FluidModel,
               x: float) -> np.ndarray:
    """Stationary density vector at level x >= 0, in original phase order.

    The row comes from what ``law`` holds; ``psi`` and ``model`` are never
    read.  They stay because the benchmark harness passes them positionally,
    until the harness changes.  Raises ``Inconclusive`` where exp(K x) is
    not finite in double precision.
    """
    return _propagate(law.q, law.exp_K, law.W, x)


def zero_mass(law: StationaryLaw, model: FluidModel) -> np.ndarray:
    """Probability mass at level zero per phase, in original phase order."""
    return model.unpermute(np.concatenate([np.zeros(model.n_plus), law.p_zero, law.p_minus]))


def first_order_law(model: FluidModel, psi_sol: PsiSolution,
                    a_tilde: np.ndarray, psi1: np.ndarray) -> FirstOrderLaw:
    """Derivatives of the stationary law along a generator direction.

    ``a_tilde`` is the direction in canonical phase order (zero row sums)
    and ``psi1`` is ``expand(...).psi1`` along it.  K1 and Theta1 come from
    the censoring that ``psi_sol`` holds.  The boundary masses are p = s v,
    with v B = [0, ..., 0, 1] for B the boundary generator S with its last
    column set to ones, and s = 1/(1 + q_v y).  Differentiating gives
    v1 B = -v B1, with B1 = S1 (S's builder read along ``a_tilde`` plus the
    psi1 term) with its last column zero, and the product rule on s.
    """
    theta, q, p_minus, p_zero, W, S, y = _law_factors(model, psi_sol)
    psi, K, blocks = psi_sol.psi, psi_sol.K, psi_sol.blocks
    ip, i0, im = model.ip, model.i0, model.im
    cp = model.c_plus[:, None]
    psi_cm = psi / model.c_minus_abs[None, :]
    psi1_cm = psi1 / model.c_minus_abs[None, :]
    At = np.asarray(a_tilde, dtype=float)

    def at(rows, cols):  # a C-ordered block of At, as model.block is of A
        return At.take(rows, 0).take(cols, 1)

    Qt_pp, _, Qt_mp, _ = core._qtilde(model, blocks, At)
    K1 = Qt_pp / cp + psi1_cm @ blocks.Q_mp + psi_cm @ Qt_mp
    Theta1 = (at(ip, i0) / cp + psi1_cm @ model.block(im, i0)
              + psi_cm @ at(im, i0) + theta @ at(i0, i0)) @ blocks.inv0

    # x = s v1 solves x B = -p B1; it sums to zero, as B1's last column is zero
    B, B1 = S, _boundary_generator(model, at, psi)
    B1[:, :model.n_minus] += model.block(np.concatenate([im, i0]), ip) @ psi1
    B[:, -1], B1[:, -1] = 1.0, 0.0
    p = np.concatenate([p_minus, p_zero])
    p1_part = solve_linear(B.T, -(p @ B1))
    q1_part = p1_part[:model.n_minus] @ model.block(im, ip) \
        + p1_part[model.n_minus:] @ model.block(i0, ip) \
        + p_minus @ at(im, ip) + p_zero @ at(i0, ip)

    # product rule on s = 1/(1 + q_v y): s1 / s = -(s q_v1 y + q y1) = -mass1
    W1_top = _row_factor(model, np.zeros_like(K), Theta1, psi1)
    mass1 = q1_part @ y + q @ solve_linear(-K, K1 @ y + W1_top.sum(axis=1))
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
    The row comes from what ``fol`` holds; ``law``, ``model``, ``psi`` and
    ``psi1`` are never read.  They stay because the benchmark harness passes
    them positionally, until the harness changes.  Raises ``Inconclusive``
    where the exponential is not finite.
    """
    return _propagate(fol.v, fol.exp_G, fol.W1, x)


def require_generator_kind(spec) -> None:
    """Density corrections are implemented for generator directions only."""
    if spec.kind != "generator":
        raise NotGeneratorKind(
            "first-order density corrections require a generator perturbation")
