"""Extended-precision oracle for the first migration table (cases 1a-3a).

In these cases every zero-rate phase acquires the rate ``eps * ct > 0``,
so the perturbed model has no zero-rate phases left.  Multiplying the
rows of the Riccati equation by the up rates gives a form that is
polynomial in eps and stays regular at eps = 0:

    F(X, eps) = Q_{R-} + Q_{RR} X + C_R(eps) X (Mu + Mb X) = 0,

with R the up and zero-rate phases, C_R(eps) = diag(c_R + eps ct_R),
Mu = |C_-|^{-1} Q_{--} and Mb = |C_-|^{-1} Q_{-R}.  At eps = 0 the rows
of the zero-rate phases are the censoring equations, so the minimal root
is psi_bar; psi1 solves the linearisation F_X psi1 = -F_eps; and psi(eps)
is the root at eps.  All three are computed here at 50 digits, without
the solver or the expansion code of the library: residuals are evaluated
in mpmath, and corrections come from the double-precision Kronecker
Jacobian until they fall below 1e-40 (iterative refinement).

The tests check the published table and its corrections in
``bench.REFERENCE_ERRATA`` against the recomputed cells, and the
library's psi near zero drift against ``conftest.oracle_psi``.
"""

import mpmath
import numpy as np
import pytest

from mmfq import expand, solve_psi, solve_psi_at, validate_model
from mmfq.bench import (CASE_IDS, CASE_M, R_PLUS, REFERENCE_ERRATA, REFERENCE_NORMS,
                        calibrate_rminus, case_generator, case_model,
                        default_eps_grid, error_norms)

from conftest import mp_array, oracle_psi

DPS = 50
STEP_TOL = 1e-40
TABLE1 = ("1a", "2a", "3a")


def _refine(residual, jacobian, X, max_steps=60):
    """Root of ``residual`` from X: mpmath residuals, double corrections."""
    p, q = X.shape
    for _ in range(max_steps):
        rhs = -residual(X).astype(float).reshape(-1, order="F")
        step = np.linalg.solve(jacobian(X), rhs)
        X = X + step.reshape((p, q), order="F")
        if np.abs(step).max() < STEP_TOL:
            return X
    raise AssertionError("oracle iteration did not converge")


def oracle_norms(cid, eps_values=(1e-4, 1e-2)):
    """e_plus and e_oplus of psi(eps) - psi_bar - eps psi1 at 50 digits."""
    model, spec = case_model(cid)
    R = np.concatenate([model.ip, model.i0])
    M = model.im
    assert spec.regime == "to_plus" and len(spec.oplus) == model.n_zero
    assert not spec.direction[M].any()
    p, q = len(R), len(M)
    A, c, ct = model.A, model.c, spec.direction
    cm = np.abs(c[M])[:, None]
    float_blocks = (A[np.ix_(R, R)], A[np.ix_(M, M)] / cm, A[np.ix_(M, R)] / cm)

    def jacobian(X, ce):
        # Kronecker matrix of Y -> (Q_RR + C X Mb) Y + C Y (Mu + Mb X)
        Q_RR, Mu, Mb = float_blocks
        X, ce = X.astype(float), ce.astype(float)
        return (np.kron(np.eye(q), Q_RR + ce[:, None] * (X @ Mb))
                + np.kron((Mu + Mb @ X).T, np.diag(ce)))

    with mpmath.workdps(DPS):
        Q_RM, Q_RR = mp_array(A[np.ix_(R, M)]), mp_array(A[np.ix_(R, R)])
        cm_mp = mp_array(cm)
        Mu, Mb = mp_array(A[np.ix_(M, M)]) / cm_mp, mp_array(A[np.ix_(M, R)]) / cm_mp
        c_R, ct_R = mp_array(c[R]), mp_array(ct[R])

        def root_at(X, ce):
            return _refine(
                lambda Y: Q_RM + Q_RR @ Y + ce[:, None] * (Y @ (Mu + Mb @ Y)),
                lambda Y: jacobian(Y, ce), X)

        psi_bar = root_at(mp_array(np.zeros((p, q))), c_R)
        U_bar = Mu + Mb @ psi_bar
        psi1 = _refine(
            lambda Y: (Q_RR @ Y + c_R[:, None] * (Y @ U_bar + psi_bar @ Mb @ Y)
                       + ct_R[:, None] * (psi_bar @ U_bar)),
            lambda Y: jacobian(psi_bar, c_R), mp_array(np.zeros((p, q))))

        out = {}
        for eps in eps_values:
            e = mpmath.mpf(eps)
            psi = root_at(psi_bar + e * psi1, c_R + e * ct_R)
            # the minimal root of a recurrent model is stochastic
            assert max(abs(s - 1) for s in psi.sum(axis=1)) < STEP_TOL
            assert min(psi.flat) >= 0
            rows = np.abs(psi - psi_bar - e * psi1).sum(axis=1)
            k = model.n_plus
            out[eps] = {"e_plus": float(max(rows[:k])),
                        "e_oplus": float(max(rows[k:]))}
    return out


@pytest.fixture(scope="module")
def oracle():
    return {cid: oracle_norms(cid) for cid in TABLE1}


def test_errata_cover_published_cells():
    for (cid, eps, key), erratum in REFERENCE_ERRATA.items():
        assert cid in TABLE1
        assert REFERENCE_NORMS[cid][eps][key] == erratum.published


def test_errata_match_oracle(oracle):
    for (cid, eps, key), erratum in REFERENCE_ERRATA.items():
        truth = oracle[cid][eps][key]
        assert abs(erratum.corrected - truth) <= 1e-3 * truth, \
            (cid, eps, key, erratum.corrected, truth)
        assert abs(erratum.published - truth) > 0.02 * truth, \
            (cid, eps, key, erratum.published, truth)


def test_published_cells_match_oracle(oracle):
    checked = 0
    for cid in TABLE1:
        for eps, cells in REFERENCE_NORMS[cid].items():
            for key, published in cells.items():
                if (cid, eps, key) in REFERENCE_ERRATA:
                    continue
                truth = oracle[cid][eps][key]
                assert abs(published - truth) <= 0.02 * truth, \
                    (cid, eps, key, published, truth)
                checked += 1
    assert checked + len(REFERENCE_ERRATA) == 12


def test_round_off_floor_cells(oracle):
    # the 2a cells at eps = 1e-4 are 2e-12 while psi is O(1), so they
    # resolve psi(eps) to about 1e-15 in double precision alone; a residual
    # rounded through C+ C+^{-1} Q (migrated up rates of 4e-5) left psi(eps)
    # 2e-14 off and the cells 1.3% low
    model, spec = case_model("2a")
    expansion = expand(model, solve_psi(model), spec)
    sol, pmodel = solve_psi_at(model, spec, 1e-4)
    norms = error_norms(model, sol, pmodel, expansion, 1e-4)
    for key in ("e_plus", "e_oplus"):
        truth = oracle["2a"][1e-4][key]
        assert abs(getattr(norms, key) - truth) <= 5e-3 * truth, (key, truth)


NEAR_CRITICAL = (-1e-3, -1e-5, -1e-7, -1e-9, 1e-9, 1e-7, 1e-5)


@pytest.mark.parametrize("cid,drift,tol", (
    [("1a", d, 1e-13) for d in NEAR_CRITICAL]
    + [("3a", d, 1e-13) for d in NEAR_CRITICAL]
    + [("2a", d, 1e-9) for d in (-1e-6, -1e-9, 1e-9, 1e-6)]))
def test_psi_accuracy_near_zero_drift(cid, drift, tol):
    # the case generators with r_minus calibrated to the drift: recurrent
    # below zero, transient above; the residual stays small either way,
    # so only the forward error shows whether digits were lost
    m = CASE_M
    A = case_generator(cid)
    r_minus = calibrate_rminus(A, R_PLUS, drift)
    c = np.concatenate([R_PLUS * np.ones(m), np.zeros(m), r_minus * np.ones(m)])
    sol = solve_psi(validate_model(A, c))
    assert float(np.abs(sol.psi - oracle_psi(A, c)).max()) <= tol


@pytest.mark.parametrize("cid", CASE_IDS)
def test_psi_eps_of_six_cases(cid):
    # in the b cases the migrated phases have down rates eps * r_plus, so
    # rows of Mu are O(1/eps); forming the shifted blocks with a shift of
    # that size left psi(eps) up to 7e-10 off
    model, spec = case_model(cid)
    for eps in default_eps_grid()[:2]:
        sol, _ = solve_psi_at(model, spec, eps)
        truth = oracle_psi(model.A, model.c + eps * spec.direction)
        assert float(np.abs(sol.psi - truth).max()) <= 1e-13, eps
