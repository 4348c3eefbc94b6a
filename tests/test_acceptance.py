"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they are produced.  Criteria 1 and 3 check the published reference data
through four errata (see the README and the notes in the bench module):

- criterion 1 compares against ``bench.corrected_reference_norms()``,
  the published table with the three cells of ``bench.REFERENCE_ERRATA``
  corrected; ``tests/test_oracle.py`` recomputes all twelve cells of the
  table at 50 digits and proves each correction;
- criterion 3 calibrates to ``bench.CASE_TARGET_DRIFT`` (-0.2) instead of
  the stated -0.1, and asserts that -0.1 does not give the published
  down rates, which -0.2 reproduces.
"""

import math

import numpy as np
import pytest

from mmfq import (expand, mean_drift, solve_psi, solve_psi_at, validate_model,
                  validate_perturbation)
from mmfq.bench import (CASE_IDS, CASE_TARGET_DRIFT, R_PLUS, REFERENCE_ERRATA,
                        REFERENCE_NORMS, calibrate_rminus, case_generator,
                        case_model, corrected_reference_norms, error_norms,
                        run_case)
from mmfq.density import (density1_at, density_at, first_order_law,
                          stationary_law, zero_mass)
from mmfq.numerics import null_row_vector, stable_spectrum, sylvester_residual
from mmfq.perturb import qtilde_blocks
from mmfq.riccati import perturbed_model
from mmfq.simulate import SimConfig, estimate_psi

from conftest import (bd_identity_gap, group_inverse, random_generator,
                      random_generator_direction, random_recurrent_model)


def report(number, name, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"\nACCEPTANCE {number} ({name}): {status}")
    assert not failures, f"criterion {number}: " + "; ".join(failures)


@pytest.fixture(scope="module")
def case_norms():
    """Error norms of all six cases at the two reference eps values."""
    out = {}
    for cid in CASE_IDS:
        model, spec = case_model(cid)
        sol = solve_psi(model)
        expansion = expand(model, sol, spec)
        for eps in (1e-4, 1e-2):
            psi_eps, pmodel = solve_psi_at(model, spec, eps)
            out[(cid, eps)] = error_norms(model, psi_eps, pmodel,
                                          expansion, eps)
    return out


def test_criterion_1_table1_reproduction(case_norms):
    failures = []
    reference = corrected_reference_norms()
    for cid in ("1a", "2a", "3a"):
        for eps, cells in reference[cid].items():
            norms = case_norms[(cid, eps)]
            for key, ref in cells.items():
                got = getattr(norms, key)
                if abs(got - ref) > 0.02 * ref:
                    erratum = REFERENCE_ERRATA.get((cid, eps, key))
                    note = (f", published {erratum.published:.3e}"
                            if erratum else "")
                    failures.append(
                        f"{cid} {key}({eps:g}) = {got:.4e}, reference {ref:.3e} "
                        f"(off {abs(got - ref) / ref:.1%}){note}")
    report(1, "first migration table", failures)


def test_criterion_2_table2_reproduction(case_norms):
    failures = []
    for cid in ("1b", "2b", "3b"):
        for eps, cells in REFERENCE_NORMS[cid].items():
            norms = case_norms[(cid, eps)]
            for key, ref in cells.items():
                got = getattr(norms, key)
                if abs(got - ref) > 0.02 * ref:
                    failures.append(
                        f"{cid} {key}({eps:g}) = {got:.4e}, reference {ref:.3e}")
    report(2, "second migration table", failures)


def test_criterion_3_calibration():
    failures = []
    expected = {"1a": -0.207, "2a": -621.0, "3a": -2.63}
    for cid, ref in expected.items():
        model, _ = case_model(cid)
        r_minus = float(model.c[-1])
        if float(f"{r_minus:.3g}") != ref:
            failures.append(f"{cid}: r_minus = {r_minus!r} does not round to {ref}")
        drift = mean_drift(model)
        if abs(drift - CASE_TARGET_DRIFT) > 1e-10:
            failures.append(f"{cid}: drift = {drift:.12f}, target "
                            f"{CASE_TARGET_DRIFT}")
        # erratum evidence: the stated target -0.1 misses the published rate
        stated = calibrate_rminus(case_generator(cid), R_PLUS, -0.1)
        if float(f"{stated:.3g}") == ref:
            failures.append(f"{cid}: the stated target -0.1 also gives "
                            f"r_minus = {stated!r}")
    report(3, "calibration", failures)


def test_criterion_4_quadratic_convergence():
    failures = []
    for cid in CASE_IDS:
        result = run_case(cid)
        if not 1.9 <= result.slope <= 2.1:
            failures.append(f"{cid}: slope {result.slope:.3f}")
        if result.r_squared < 0.99:
            failures.append(f"{cid}: R^2 {result.r_squared:.4f}")
    report(4, "order eps^2 defect", failures)


def test_criterion_5_structural_invariants():
    rng = np.random.default_rng(2024)
    failures = []
    for k in range(50):
        n = int(rng.integers(3, 13))
        model = random_recurrent_model(n, rng)
        sol = solve_psi(model)
        if not (sol.psi.min() >= -1e-12 and sol.psi.max() <= 1 + 1e-12):
            failures.append(f"model {k}: psi outside [0, 1]")
        if np.abs(sol.psi.sum(axis=1) - 1).max() > 1e-10:
            failures.append(f"model {k}: psi row sums")
        if np.abs(sol.U.sum(axis=1)).max() > 1e-10:
            failures.append(f"model {k}: U row sums")
        if stable_spectrum(sol.K) is not True:
            failures.append(f"model {k}: K not stable")
        if sol.residual > 1e-12:
            failures.append(f"model {k}: Riccati residual {sol.residual:.2e}")
        direction = validate_perturbation(
            model, "generator", random_generator_direction(model, rng))
        X = expand(model, sol, direction).psi1
        Qt_pp, Qt_pm, Qt_mp, Qt_mm = qtilde_blocks(model, direction.direction)
        cp = model.c_plus[:, None]
        psi_cm = sol.psi / model.c_minus_abs[None, :]
        rhs = -(Qt_pm / cp) - (Qt_pp / cp) @ sol.psi \
            - psi_cm @ Qt_mm - psi_cm @ Qt_mp @ sol.psi
        if sylvester_residual(sol.K, sol.U, rhs, X) > 1e-10:
            failures.append(f"model {k}: Sylvester residual")
    report(5, "structural invariants on 50 fuzzed models", failures)


def _fd_coefficients(model, spec, expansion, eps_list=(1e-2, 1e-3, 1e-4)):
    coeffs = []
    for eps in eps_list:
        psi_eps, pmodel = solve_psi_at(model, spec, eps)
        norms = error_norms(model, psi_eps, pmodel, expansion, eps)
        coeffs.append(norms.e_inf / eps ** 2)
    return coeffs


def test_criterion_6_finite_difference_oracles():
    failures = []

    def check(tag, model, spec):
        sol = solve_psi(model)
        expansion = expand(model, sol, spec)
        coeffs = _fd_coefficients(model, spec, expansion)
        for a, b in zip(coeffs, coeffs[1:]):
            if not 0.5 <= a / b <= 2.0:
                failures.append(f"{tag}: defect/eps^2 sequence {coeffs}")
                break

    rng = np.random.default_rng(77)
    for k in range(3):
        model = random_recurrent_model(6, rng, signs=[1, 1, 0, 0, -1, -1])
        check(f"generator {k}", model, validate_perturbation(
            model, "generator", random_generator_direction(model, rng)))

        ct = np.zeros(6)
        ct[model.perm[model.ip[0]]] = rng.uniform(0.3, 1.0)
        ct[model.perm[model.im[-1]]] = -rng.uniform(0.3, 1.0)
        check(f"unaffected {k}", model,
              validate_perturbation(model, "rate", ct))

        for sign, tag in ((1.0, "to_plus"), (-1.0, "to_minus")):
            ct = np.zeros(6)
            ct[model.perm[model.i0]] = sign * rng.uniform(0.3, 1.0, 2)
            check(f"{tag} {k}", model, validate_perturbation(model, "rate", ct))

        gmodel = random_recurrent_model(9, rng, signs=[1, 1, 1, 0, 0, 0, -1, -1, -1])
        ct = np.zeros(9)
        ct[gmodel.perm[gmodel.i0]] = rng.uniform(0.3, 1.0, 3) * np.array([1, 1, -1])
        check(f"general {k}", gmodel, validate_perturbation(gmodel, "rate", ct))

    # density correction: one-sided finite difference converges linearly
    rng = np.random.default_rng(78)
    model = random_recurrent_model(5, rng, signs=[1, 1, 0, -1, -1],
                                   max_drift=-0.3)
    spec = validate_perturbation(model, "generator",
                                 random_generator_direction(model, rng))
    sol = solve_psi(model)
    psi1 = expand(model, sol, spec).psi1
    law = stationary_law(model, sol)
    fol = first_order_law(model, sol, spec.direction, psi1)
    for x in (0.5, 1.0, 2.0):
        d1 = density1_at(fol, law, model, sol.psi, psi1, x)
        base = density_at(law, sol.psi, model, x)
        errs = []
        for eps in (1e-4, 1e-5):
            pm = perturbed_model(model, spec, eps)
            sol_e = solve_psi(pm)
            law_e = stationary_law(pm, sol_e)
            errs.append(np.abs((density_at(law_e, sol_e.psi, pm, x) - base)
                               / eps - d1).max())
        if not errs[1] <= 0.3 * errs[0]:
            failures.append(f"density x={x}: fd errors {errs}")
    report(6, "finite-difference oracles", failures)


def test_criterion_7_migration_block_identities():
    rng = np.random.default_rng(99)
    failures = []
    for k in range(20):
        n_zero = int(rng.integers(2, 5))
        signs = [1, 1] + [0] * n_zero + [-1, -1]
        model = random_recurrent_model(len(signs), rng, signs=signs)
        ct = np.zeros(model.n)
        mags = rng.uniform(0.3, 1.2, n_zero)
        flip = np.ones(n_zero)
        flip[rng.integers(0, n_zero)] = -1.0
        ct[model.perm[model.i0]] = mags * flip
        spec = validate_perturbation(model, "rate", ct)
        if spec.regime != "general":
            ct[model.perm[model.i0[0]]] *= -1.0
            spec = validate_perturbation(model, "rate", ct)
        sol = solve_psi(model)
        expansion = expand(model, sol, spec)
        gap = bd_identity_gap(model, spec, expansion)
        if gap > 1e-9:
            failures.append(f"model {k}: identity gap {gap:.2e}")
    report(7, "migration block identities on 20 fuzzed models", failures)


@pytest.mark.slow
def test_criterion_8_monte_carlo_cross_check():
    model, _ = case_model("1a")
    sol = solve_psi(model)
    est = estimate_psi(model, SimConfig(replications=10 ** 6, seed=20260808))
    z = np.abs(est.estimate - sol.psi) / np.maximum(est.stderr, 1e-12)
    exceed = int((z > 3.0).sum())
    allowed = math.ceil(0.02 * z.size)
    failures = []
    if exceed > allowed:
        failures.append(f"{exceed} of {z.size} entries outside 3 standard "
                        f"errors (allowed {allowed}); max z = {z.max():.2f}")
    if est.censored_fraction > 1e-4:
        failures.append(f"censored fraction {est.censored_fraction:.2e}")
    report(8, "Monte Carlo cross-check at 1e6 replications", failures)


def test_criterion_9_density_checks():
    failures = []
    # independent quadrature of the stationary density
    rng = np.random.default_rng(123)
    model = random_recurrent_model(6, rng, signs=[1, 1, 0, 0, -1, -1],
                                   max_drift=-0.35)
    sol = solve_psi(model)
    law = stationary_law(model, sol)
    abscissa = np.linalg.eigvals(law.K).real.max()
    xs = np.linspace(1e-9, 50.0 / abs(abscissa), 8001)
    dens = np.array([density_at(law, sol.psi, model, x).sum() for x in xs])
    from scipy.integrate import simpson
    mass = zero_mass(law, model).sum() + simpson(dens, x=xs)
    if abs(mass - 1.0) > 1e-8:
        failures.append(f"total mass {mass!r}")

    # two-phase closed form
    two = validate_model([[-1.0, 1.0], [1.0, -1.0]], [1.0, -2.0])
    sol2 = solve_psi(two)
    law2 = stationary_law(two, sol2)
    for x in (0.5, 1.0, 3.0):
        got = density_at(law2, sol2.psi, two, x)
        exact = np.array([0.25, 0.125]) * np.exp(-0.5 * x)
        if np.abs(got - exact).max() > 1e-8:
            failures.append(f"two-phase density at x={x}")

    # group inverse identities
    M = random_generator(5, np.random.default_rng(7))
    pi = null_row_vector(M)
    sharp = group_inverse(M, pi)
    for name, gap in (
            ("M M# M = M", np.abs(M @ sharp @ M - M).max()),
            ("M# M M# = M#", np.abs(sharp @ M @ sharp - sharp).max()),
            ("commute", np.abs(M @ sharp - sharp @ M).max())):
        if gap > 1e-10:
            failures.append(f"group inverse {name}: {gap:.2e}")
    report(9, "density and group-inverse checks", failures)
