"""First-order expansions of the first-return matrix.

:func:`expand` is the one entry point; it takes one of two routes:

* generator direction ``A + eps*At``: one Sylvester solve in :func:`expand`,
* rate direction, by the migration elimination: the zero-rate phases
  split by sign into a migrating-up and a migrating-down class.  Every
  regime runs it; ``spec.regime`` names the one at hand: ``general``
  (both classes occupied), ``to_plus`` (every zero-rate phase migrates
  up), ``to_minus`` (every one migrates down) and ``unaffected`` (none
  migrates; they are censored out).  An empty class is a zero-size block.

For the rate regimes the perturbed first-return matrix has rows
(up phases, migrated-up phases) and columns (migrated-down phases, down
phases); the zeroth-order matrix in that layout is the comparison object
for the perturbed solve, and the first-order matrix is exact up to
O(eps^2), which the test suite checks by finite differences.

Throughout, block subscripts use p / op / om / m for the up, migrating-up,
migrating-down and down phase classes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

# qtilde_blocks stays bound because the benchmark harness calls it here by name
from .core import (FluidModel, PerturbationSpec, _qtilde, qtilde_blocks,  # noqa: F401
                   validate_perturbation)
from .errors import InnerRiccatiDiverged, InvalidPerturbation, NoConvergence
from .numerics import solve_linear, solve_sylvester
from .riccati import PsiSolution, newton_riccati


@dataclass(frozen=True)
class PsiExpansion:
    """Zeroth- and first-order matrices in the perturbed block layout.

    ``row_phases`` / ``col_phases`` give the original phase index of every
    row and column; a direct solve of the perturbed model lists its rows and
    columns in this same order.  ``aux`` holds the named intermediate blocks that
    the expansion route produced.
    """

    regime: str
    psi_bar: np.ndarray
    psi1: np.ndarray
    row_phases: np.ndarray
    col_phases: np.ndarray
    aux: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SeriesBlocks:
    """Laurent-series coefficient blocks of U(eps) and K(eps).

    Suffix ``m1`` marks the eps^{-1} coefficient and ``0`` the eps^0
    coefficient; the block subscripts follow the module convention.
    """

    u_m1_om_om: np.ndarray
    u_0_m_m: np.ndarray
    u_0_m_om: np.ndarray
    k_m1_op_op: np.ndarray
    k_m1_op_p: np.ndarray


def _eliminate(model: FluidModel, psi_sol: PsiSolution,
               spec: PerturbationSpec) -> PsiExpansion:
    """Expansion of a rate perturbation, any regime.

    An empty migrating class (om for ``to_plus``, op for ``to_minus``, both
    for ``unaffected``) enters every step as a zero-size block.  Blocks are
    read from ``model.A`` at the base model's canonical positions; in the
    ``unaffected`` regime the zero-rate phases enter no block, and the (up,
    down) blocks are the root solve's censored ones, ``psi_sol.blocks``.
    The elimination order, each step obtained by collecting powers of eps
    in the four block components of the perturbed Riccati equation:

    1. eps^{-1} of the (op, om) block: inner Riccati equation for psi_op_om
       with the perturbation rates as fluid rates.
    2. eps^{-1} of the (op, m) block: linear equation for psi_op_m.
    3. eps^0 of the (p, om) block: closed form for psi1_p_om.
    4. eps^0 of the (op, om) block: Sylvester equation for psi1_op_om.
    5. eps^0 of the (op, m) block and eps^1 of the (p, om) and (p, m)
       blocks: a coupled linear system in psi1_op_m, psi2_p_om and
       psi1_p_m; substituting the first two into the third leaves one
       Sylvester equation for psi1_p_m, then back-substitution.
    """
    ip, im = model.ip, model.im
    io_p, io_m = spec.oplus, spec.ominus
    A = model.A
    if spec.regime == "unaffected":
        b, ic, A = psi_sol.blocks, np.concatenate([ip, im]), A.copy()
        A[np.ix_(ic, ic)] = np.block([[b.Q_pp, b.Q_pm], [b.Q_mp, b.Q_mm]])

    def block(rows, cols):
        return A.take(rows, 0).take(cols, 1)

    psi = psi_sol.psi
    cp = model.c_plus[:, None]
    cm_row = model.c_minus_abs[:, None]
    psi_cm = psi / model.c_minus_abs[None, :]
    ct_p = spec.direction[ip]
    ct_m = spec.direction[im]
    ct_op = spec.direction[io_p][:, None]
    ct_om_row = np.abs(spec.direction[io_m])[:, None]
    ct_om_col = np.abs(spec.direction[io_m])[None, :]

    # 1. inner Riccati: Ct_op^{-1} (A_op,om + A_op,op X)
    #    + X |Ct_om^{-1}| A_om,om + X |Ct_om^{-1}| A_om,op X = 0
    try:
        psi_op_om, _, _ = newton_riccati(
            block(io_p, io_m), block(io_p, io_p), block(io_m, io_m) / ct_om_row,
            block(io_m, io_p) / ct_om_row, spec.direction[io_p])
    except NoConvergence as exc:
        raise InnerRiccatiDiverged(str(exc)) from exc

    # eps^{-1} blocks (op, op) and (op, p) of K(eps): in the perturbed
    # partition the op rows of K(eps) carry 1/(eps Ct_op); they do not
    # involve psi_op_m
    psi_op_om_cm = psi_op_om / ct_om_col
    k_m1_op_op = block(io_p, io_p) / ct_op + psi_op_om_cm @ block(io_m, io_p)
    k_m1_op_p = block(io_p, ip) / ct_op + psi_op_om_cm @ block(io_m, ip)
    neg_k_inv = solve_linear(-k_m1_op_op, np.eye(len(io_p)))

    # 2. psi_op_m = (-K_m1_op_op)^{-1} (Ct_op^{-1}(A_op,m + A_op,p psi)
    #               + psi_op_om |Ct_om^{-1}| (A_om,m + A_om,p psi))
    a_om_m = block(io_m, im) + block(io_m, ip) @ psi
    psi_op_m = neg_k_inv @ (
        (block(io_p, im) + block(io_p, ip) @ psi) / ct_op + psi_op_om_cm @ a_om_m)

    # blocks eps^{-1} (om, om), (om, m) and eps^0 (m, m), (m, om) of
    # U(eps) = |C-(eps)^{-1}| (A_{--} + A_{-+} Psi(eps)), rows (om, m); the
    # om rows carry 1/(eps |Ct_om|)
    u_m1_om_om = (block(io_m, io_m) + block(io_m, io_p) @ psi_op_om) / ct_om_row
    u_m1_om_m = (a_om_m + block(io_m, io_p) @ psi_op_m) / ct_om_row
    u_0_m_m = (block(im, im) + block(im, ip) @ psi + block(im, io_p) @ psi_op_m) / cm_row
    a_m_om = block(im, io_m) + block(im, io_p) @ psi_op_om
    u_0_m_om = a_m_om / cm_row
    neg_u_inv = solve_linear(-u_m1_om_om, np.eye(len(io_m)))

    # 3. psi1_p_om = (C+^{-1}(A_p,om + A_p,op psi_op_om)
    #               + psi |C-^{-1}| (A_m,om + A_m,op psi_op_om)) (-U_m1_om_om)^{-1}
    a_p_om = (block(ip, io_m) + block(ip, io_p) @ psi_op_om) / cp
    psi1_p_om = (a_p_om + psi_cm @ a_m_om) @ neg_u_inv

    # 4. Sylvester for psi1_op_om:
    #    K_m1_op_op X + X U_m1_om_om = -K_m1_op_p psi1_p_om
    #                                  - psi_op_m |C-^{-1}| (A_m,om + A_m,op psi_op_om)
    psi1_op_om = solve_sylvester(
        k_m1_op_op, u_m1_om_om,
        -k_m1_op_p @ psi1_p_om - psi_op_m @ u_0_m_om)

    # eps^0 (om, om) block of U(eps), from Psi(eps) = Psi_bar + eps Psi1 + O(eps^2)
    u_0_om_om = (block(io_m, ip) @ psi1_p_om + block(io_m, io_p) @ psi1_op_om) / ct_om_row

    # eps^0 block (p, op) of K(eps), including the contribution of
    # psi1_p_om through the om rows of |C-(eps)^{-1}|
    k_0_p_op = block(ip, io_p) / cp + psi_cm @ block(im, io_p) \
        + (psi1_p_om / ct_om_col) @ block(io_m, io_p)

    # eps^1 coefficient of U_m,om(eps)
    u_1_m_om = (block(im, ip) @ psi1_p_om + block(im, io_p) @ psi1_op_om) / cm_row \
        + (ct_m[:, None] / cm_row) * u_0_m_om

    # 5. eps^1 of the (p, om) block fixes psi2_p_om = (G + X u_0_m_om) (-U_m1)^{-1}
    #    as an affine function of X = psi1_p_m, with the constant part
    #    G = -C+^{-1} Ct_+ C+^{-1} (A_p,om + A_p,op psi_op_om)
    #        + C+^{-1} (A_pp psi1_p_om + A_p,op psi1_op_om)
    #        + psi1_p_om u_0_om_om + psi u_1_m_om
    ct_p_scale = (ct_p / model.c_plus)[:, None]
    G = -ct_p_scale * a_p_om \
        + (block(ip, ip) @ psi1_p_om + block(ip, io_p) @ psi1_op_om) / cp \
        + psi1_p_om @ u_0_om_om + psi @ u_1_m_om

    # substitute steps 2' and 5 into the eps^1 coefficient of the (p, m)
    # block; the Sylvester operator pair collapses to the censored (K, U)
    # of the base model, so the root solve's pair is used
    r1 = ct_p_scale * ((block(ip, im) + block(ip, ip) @ psi + block(ip, io_p) @ psi_op_m) / cp) \
        - (psi_cm * ct_m[None, :]) @ u_0_m_m
    w0 = psi1_op_om @ u_m1_om_m + psi_op_m @ u_0_m_m
    rhs = r1 - k_0_p_op @ neg_k_inv @ w0 - G @ neg_u_inv @ u_m1_om_m
    psi1_p_m = solve_sylvester(psi_sol.K, psi_sol.U, rhs)

    psi1_op_m = neg_k_inv @ (k_m1_op_p @ psi1_p_m + w0)
    psi2_p_om = (G + psi1_p_m @ u_0_m_om) @ neg_u_inv

    psi_bar = np.block([
        [np.zeros((model.n_plus, len(io_m))), psi],
        [psi_op_om, psi_op_m]])
    psi1 = np.block([
        [psi1_p_om, psi1_p_m],
        [psi1_op_om, psi1_op_m]])
    return PsiExpansion(
        regime=spec.regime, psi_bar=psi_bar, psi1=psi1,
        row_phases=np.concatenate([model.perm[ip], model.perm[io_p]]),
        col_phases=np.concatenate([model.perm[io_m], model.perm[im]]),
        aux={"psi_op_om": psi_op_om, "psi_op_m": psi_op_m,
             "psi1_p_om": psi1_p_om, "psi1_op_om": psi1_op_om,
             "psi1_op_m": psi1_op_m, "psi2_p_om": psi2_p_om,
             "series": SeriesBlocks(u_m1_om_om, u_0_m_m, u_0_m_om,
                                    k_m1_op_op, k_m1_op_p)})


def expand(model: FluidModel, psi_sol: PsiSolution,
           spec: PerturbationSpec) -> PsiExpansion:
    """First-order expansion of psi along ``spec``, any kind and regime.

    The result's ``psi1`` is the first-order matrix and, for a rate
    direction, ``aux["series"]`` the Laurent-series blocks of U(eps) and
    K(eps).  Along a generator direction, with Qt the derivative of the root
    solve's censoring (``qtilde_blocks``), psi1 solves

        K X + X U = -C+^{-1} Qt_{+-} - C+^{-1} Qt_{++} psi
                    - psi |C-^{-1}| Qt_{--} - psi |C-^{-1}| Qt_{-+} psi.
    """
    if spec.kind == "rate":
        return _eliminate(model, psi_sol, spec)
    Qt_pp, Qt_pm, Qt_mp, Qt_mm = _qtilde(model, psi_sol.blocks, spec.direction)
    psi = psi_sol.psi
    cp = model.c_plus[:, None]
    psi_cm = psi / model.c_minus_abs[None, :]
    rhs = -(Qt_pm / cp) - (Qt_pp / cp) @ psi - psi_cm @ Qt_mm - psi_cm @ Qt_mp @ psi
    return PsiExpansion(
        regime=spec.regime, psi_bar=psi.copy(),
        psi1=solve_sylvester(psi_sol.K, psi_sol.U, rhs),
        row_phases=model.perm[model.ip], col_phases=model.perm[model.im])


def load_perturbation(path, model: FluidModel) -> PerturbationSpec:
    """Load a perturbation file {"kind": ..., "direction": ...}.

    The direction is given in the model file's phase order: a full matrix
    for generator kind, the diagonal as a flat list for rate kind.  A file
    that is not such an object, an unknown kind and a direction that is not
    a finite array of numbers are an ``InvalidPerturbation``.
    """
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or "direction" not in doc:
        raise InvalidPerturbation('perturbation file must be an object with "direction"')
    try:
        return validate_perturbation(model, doc.get("kind"), doc["direction"])
    except (TypeError, ValueError) as exc:
        raise InvalidPerturbation(f"direction is not a finite array of numbers: {exc}") from exc
