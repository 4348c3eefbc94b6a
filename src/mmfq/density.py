"""Stationary density of the level and its first-order correction.

For a positive recurrent model the stationary density above level zero is
pi(x) = q exp(K x) W, with W = [ C+^{-1} | psi |C-|^{-1} | Theta ], and the
mass at level zero sits on the down and zero phases only.  Along a generator
direction pi1(x) = [q, q1] exp(G x) W1, with G = [[K, K1], [0, K]] (Van Loan,
1978) and W1 = [[0 | psi1 |C-|^{-1} | Theta1]; W].  One code, _law_factors,
gives the law from real inputs and, run once on a complex step x + i h x' of
them, each derivative as an imaginary part over h (Squire & Trapp, 1998), with
the censoring code of ``core`` run on that step.
``StationaryLaw`` holds W and ``FirstOrderLaw`` G, [q, q1] and W1, with
columns in the caller's phase order, and each holds an evaluator of exp(K x)
or exp(G x) with the powers and norms of its exponent: all are built once
per law, so a level costs one Taylor step.
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


def _theta(model: FluidModel, block, psi: np.ndarray, inv0: np.ndarray) -> np.ndarray:
    """Zero-phase column factor (C+^{-1} A_{+0} + psi |C-^{-1}| A_{-0}) (-A_00)^{-1},
    with ``block`` a block reader of A and ``inv0`` = (-A_00)^{-1}."""
    ip, i0, im = model.ip, model.i0, model.im
    return (block(ip, i0) / model.c_plus[:, None]
            + (psi / model.c_minus_abs[None, :]) @ block(im, i0)) @ inv0


def _boundary_generator(model: FluidModel, block, psi: np.ndarray) -> np.ndarray:
    """Generator S of the phase process observed at level zero (down+zero phases),
    with ``block`` a block reader of A: ``model.block`` or the complex step's."""
    ip, i0, im = model.ip, model.i0, model.im
    top = np.hstack([block(im, im) + block(im, ip) @ psi, block(im, i0)])
    bottom = np.hstack([block(i0, im) + block(i0, ip) @ psi, block(i0, i0)])
    return np.vstack([top, bottom])


def _row_factor(model: FluidModel, diag: np.ndarray, theta: np.ndarray,
                psi: np.ndarray) -> np.ndarray:
    """[diag | Theta | psi |C-|^{-1}] on (up, zero, down) columns, in caller order."""
    canonical = np.hstack([diag, theta, psi / model.c_minus_abs[None, :]])
    return canonical.take(np.argsort(model.perm), 1)


def _propagate(v: np.ndarray, exp_G: ExpEvaluator, W: np.ndarray, x: float) -> np.ndarray:
    """v exp(G x) W at a level x >= 0, from the law's evaluator of exp(G x)."""
    # the evaluator raises Inconclusive where x eta overflows (x ~ 1e307 on case 1a)
    with np.errstate(over="ignore", invalid="ignore"):
        row = v.dot(exp_G(x)).dot(W)
        if np.isfinite(row).all():
            return row
    raise Inconclusive(f"matrix exponential not finite in double precision at x = {x}")


def _law_factors(model: FluidModel, block, psi: np.ndarray, K: np.ndarray,
                 inv0: np.ndarray):
    """Theta, q, p_minus, p_zero and W of a positive recurrent model's law: all
    of its ``StationaryLaw`` but K and the evaluator of exp(K x), from the
    block reader ``block`` of A, psi, K and ``inv0`` = (-A_00)^{-1}.  Each
    input may be real or complex; every check reads real parts."""
    if core.mean_drift(model) >= 0:
        raise NotRecurrent("mean drift is nonnegative")
    theta = _theta(model, block, psi, inv0)
    try:
        v = null_row_vector(_boundary_generator(model, block, psi))
    except SingularSystem as exc:
        raise SingularNormalization(str(exc)) from exc
    if v.real.min() < -1e-9:
        raise SingularNormalization(f"negative boundary mass {v.real.min():.3e}")
    v[v.real < 0.0] = 0.0
    v /= v.sum()
    v_minus, v_zero = v[:model.n_minus], v[model.n_minus:]
    q_v = v_minus @ block(model.im, model.ip) + v_zero @ block(model.i0, model.ip)
    W = _row_factor(model, np.diag(1.0 / model.c_plus), theta, psi)
    denom = 1.0 + q_v @ solve_linear(-K, W.sum(axis=1))
    if denom.real <= 0:
        raise SingularNormalization(f"normalization denominator {denom.real:.3e}")
    s = 1.0 / denom
    return theta, s * q_v, s * v_minus, s * v_zero, W


def stationary_law(model: FluidModel, psi_sol: PsiSolution) -> StationaryLaw:
    """Boundary masses and density factors of a positive recurrent model."""
    theta, q, p_minus, p_zero, W = _law_factors(
        model, model.block, psi_sol.psi, psi_sol.K, psi_sol.blocks.inv0)
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
    and ``psi1`` is ``expand(...).psi1`` along it.  :func:`_law_factors`
    runs once on a complex step x + i h x' of its inputs: A + i h At, psi + i h
    psi1, and K and inv0 from the censoring of A + i h At.  Each derivative is
    an imaginary part over h.
    """
    h, block, b = core._complex_step(model, psi_sol.blocks.inv0, a_tilde, psi1)
    psi = psi_sol.psi + 1j * h * psi1
    K = b.Q_pp / model.c_plus[:, None] + (psi / model.c_minus_abs[None, :]) @ b.Q_mp
    theta, q, p_minus, p_zero, W = _law_factors(model, block, psi, K, b.inv0)
    K1 = K.imag / h
    G = np.block([[psi_sol.K, K1], [np.zeros_like(K1), psi_sol.K]])
    return FirstOrderLaw(K1=K1, Theta1=theta.imag / h, q1=q.imag / h,
                         p1_minus=p_minus.imag / h, p1_zero=p_zero.imag / h,
                         G=G, v=np.concatenate([q.real, q.imag / h]),
                         W1=np.vstack([W.imag / h, W.real]), exp_G=exp_evaluator(G))


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
