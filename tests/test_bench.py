import math

import numpy as np
import pytest

from mmfq import solve_psi, solve_psi_at, validate_model
from mmfq.bench import (CASE_IDS, CASE_TARGET_DRIFT, R_PLUS, build_alternating,
                        build_mm1n, calibrate_rminus, case_model,
                        corrected_reference_norms, error_norms, fit_slope,
                        run_case)
from mmfq.errors import Infeasible, UnknownCase
from mmfq.perturb import expand


def round3(x):
    return float(f"{x:.3g}")


class TestBuilders:
    def test_mm1n_smallest(self):
        A = build_mm1n(1, 2.0, 1.0)
        assert np.array_equal(A, [[-2.0, 2.0, 0.0],
                                  [1.0, -3.0, 2.0],
                                  [0.0, 1.0, -1.0]])

    def test_mm1n_row_sums_and_bandwidth(self):
        A = build_mm1n(5, 2.0, 1.0)
        assert A.shape == (15, 15)
        assert np.abs(A.sum(axis=1)).max() == 0.0
        assert np.abs(np.triu(A, 2)).max() == 0.0
        assert np.abs(np.tril(A, -2)).max() == 0.0

    def test_alternating_row_sums(self):
        A = build_alternating(1, 1.0, 1.0)
        assert A.shape == (3, 3)
        assert np.abs(A.sum(axis=1)).max() == 0.0

    def test_alternating_binomial_concentration(self):
        # alpha = beta puts the stationary mass in the middle third
        A = build_alternating(5, 1.0, 1.0)
        model = validate_model(A, np.concatenate(
            [np.ones(5), np.zeros(5), -np.ones(5)]))
        xi = model.unpermute(model.xi)
        binom = np.array([math.comb(14, k) for k in range(15)], dtype=float)
        binom /= binom.sum()
        assert np.abs(xi - binom).max() < 1e-12
        assert xi[5:10].sum() > xi[:5].sum()
        assert xi[5:10].sum() > xi[10:].sum()

    @pytest.mark.parametrize("build", [build_mm1n, build_alternating])
    @pytest.mark.parametrize("m, a, b", [(0, 1.0, 1.0), (1, 0.0, 1.0), (1, 1.0, -1.0)])
    def test_bad_arguments(self, build, m, a, b):
        with pytest.raises(ValueError, match="m >= 1 and positive rates required"):
            build(m, a, b)


class TestCalibration:
    @pytest.mark.parametrize("case,expected", [
        ("1", -0.207), ("2", -621.0), ("3", -2.63)])
    def test_reference_rates(self, case, expected):
        from mmfq.bench import case_generator
        r = calibrate_rminus(case_generator(case + "a"), R_PLUS,
                             CASE_TARGET_DRIFT)
        assert round3(r) == expected

    def test_calibrated_drift_hits_target(self):
        from mmfq import mean_drift
        for cid in CASE_IDS:
            model, _ = case_model(cid)
            assert abs(mean_drift(model) - CASE_TARGET_DRIFT) <= 1e-10

    def test_infeasible(self):
        with pytest.raises(Infeasible):
            calibrate_rminus(build_mm1n(1, 2.0, 1.0), 0.4, 1.0)

    def test_unknown_case(self):
        with pytest.raises(UnknownCase):
            case_model("9z")


class TestErrorNorms:
    def test_exact_expansion_gives_zero(self, case_1a):
        model, spec = case_1a
        sol = solve_psi(model)
        exp = expand(model, sol, spec)
        eps = 1e-3
        psi_eps, pmodel = solve_psi_at(model, spec, eps)
        fabricated = psi_eps.psi.copy()
        # overwrite the solve with the expansion itself: all norms vanish
        orig = model.perm[pmodel.perm]
        pos_r = {int(p): i for i, p in enumerate(orig[pmodel.ip])}
        pos_c = {int(p): j for j, p in enumerate(orig[pmodel.im])}
        for i, p in enumerate(exp.row_phases):
            for j, q in enumerate(exp.col_phases):
                fabricated[pos_r[int(p)], pos_c[int(q)]] = \
                    exp.psi_bar[i, j] + eps * exp.psi1[i, j]
        from dataclasses import replace
        norms = error_norms(model, replace(psi_eps, psi=fabricated),
                            pmodel, exp, eps)
        # zero up to the association order of the float additions
        assert norms.e_plus <= 1e-15 and norms.e_oplus <= 1e-15
        assert norms.e_inf <= 1e-15

    def test_e_inf_is_max_of_partials(self, case_1a):
        model, spec = case_1a
        sol = solve_psi(model)
        exp = expand(model, sol, spec)
        psi_eps, pmodel = solve_psi_at(model, spec, 1e-3)
        norms = error_norms(model, psi_eps, pmodel, exp, 1e-3)
        assert norms.e_inf == max(norms.e_plus, norms.e_oplus)


# converged values of the table cells: the published table with the
# corrections of bench.REFERENCE_ERRATA, which tests/test_oracle.py proves
TRUTH = {(cid, eps): cells
         for cid, by_eps in corrected_reference_norms().items()
         for eps, cells in by_eps.items()}


class TestCaseNorms:
    @pytest.mark.parametrize("cid", CASE_IDS)
    def test_cells_match_converged_values(self, cid):
        model, spec = case_model(cid)
        sol = solve_psi(model)
        exp = expand(model, sol, spec)
        for eps in (1e-4, 1e-2):
            psi_eps, pmodel = solve_psi_at(model, spec, eps)
            norms = error_norms(model, psi_eps, pmodel, exp, eps)
            for key, e in TRUTH[(cid, eps)].items():
                g = getattr(norms, key)
                assert abs(g - e) <= 0.02 * e, (cid, eps, key, g, e)


class TestRunCase:
    def test_slope_and_r_squared(self):
        result = run_case("1a", eps_grid=np.logspace(-4, -2, 8))
        assert 1.9 <= result.slope <= 2.1
        assert result.r_squared >= 0.99
        assert result.e_oplus is not None
        assert np.all(result.e_inf >= result.e_plus - 1e-300)
        # an "a" case has no e_ominus, but its e_minus is filled
        assert result.e_ominus is None and np.all(result.e_minus > 0)

    @pytest.mark.parametrize("grid", [[1e-3], [1e-3, 1e-3], []])
    def test_fewer_than_two_distinct_eps(self, grid, monkeypatch):
        # a slope needs two points; one eps gave slope 0.579 and R^2 = -inf,
        # an empty grid an IndexError, both after the solves
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the grid was checked")
        monkeypatch.setattr("mmfq.bench.solve_psi", no_solve)
        with pytest.raises(ValueError, match="two distinct eps"):
            run_case("1a", eps_grid=grid)

    def test_b_case_has_column_norms(self):
        result = run_case("3b", eps_grid=np.logspace(-4, -2, 5))
        assert result.e_oplus is None
        assert result.e_minus is not None and result.e_ominus is not None
        assert np.array_equal(result.e_inf, result.e_plus)

    def test_fit_slope_on_exact_power(self):
        eps = np.logspace(-4, -2, 10)
        slope, r2 = fit_slope(eps, 3.0 * eps ** 2)
        assert abs(slope - 2.0) < 1e-12 and abs(r2 - 1.0) < 1e-12
