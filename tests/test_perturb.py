import dataclasses

import numpy as np
import pytest
import scipy.linalg

from mmfq import (censor_zero_phases, expand, solve_psi, solve_psi_at,
                  validate_model, validate_perturbation)
from mmfq.numerics import stable_spectrum, sylvester_residual
from mmfq.perturb import qtilde_blocks
from mmfq.bench import error_norms
from mmfq.errors import InnerRiccatiDiverged, NoConvergence, ShapeMismatch

from conftest import (bd_identity_gap, random_generator_direction,
                      random_recurrent_model, stationary_of)


def fd_ratio_check(model, spec, expansion, eps_list=(1e-2, 1e-3, 1e-4),
                   band=(0.5, 2.0)):
    """The defect |psi(eps) - psi_bar - eps psi1| must scale like eps^2:
    the ratio of defect/eps^2 between consecutive decades stays near 1."""
    coeffs = []
    for eps in eps_list:
        sol_eps, pmodel = solve_psi_at(model, spec, eps)
        norms = error_norms(model, sol_eps, pmodel, expansion, eps)
        coeffs.append(norms.e_inf / eps ** 2)
    for a, b in zip(coeffs, coeffs[1:]):
        assert band[0] <= a / b <= band[1], coeffs
    return coeffs


def rate_model_with_zeros(rng, n_plus=2, n_zero=3, n_minus=3):
    signs = [1] * n_plus + [0] * n_zero + [-1] * n_minus
    return random_recurrent_model(len(signs), rng, signs=signs)


class TestQtilde:
    def test_matches_finite_difference_of_censoring(self):
        rng = np.random.default_rng(30)
        model = rate_model_with_zeros(rng)
        At = random_generator_direction(model, rng)
        spec = validate_perturbation(model, "generator", At)
        Qt = qtilde_blocks(model, spec.direction)
        eps = 1e-7
        from mmfq.riccati import perturbed_model
        pmodel = perturbed_model(model, spec, eps)
        b1 = censor_zero_phases(pmodel)
        b0 = censor_zero_phases(model)
        for got, lo, hi in zip(Qt, (b0.Q_pp, b0.Q_pm, b0.Q_mp, b0.Q_mm),
                               (b1.Q_pp, b1.Q_pm, b1.Q_mp, b1.Q_mm)):
            assert np.abs((hi - lo) / eps - got).max() < 1e-5


class TestGeneratorDirection:
    def test_zero_direction(self, two_phase):
        sol = solve_psi(two_phase)
        spec = validate_perturbation(two_phase, "generator", np.zeros((2, 2)))
        out = expand(two_phase, sol, spec).psi1
        assert np.array_equal(out, np.zeros((1, 1)))

    def test_two_phase_stays_certain(self, two_phase):
        # psi(eps) is identically one for recurrent two-phase models
        sol = solve_psi(two_phase)
        spec = validate_perturbation(two_phase, "generator",
                                     [[-0.5, 0.5], [0.25, -0.25]])
        out = expand(two_phase, sol, spec).psi1
        assert np.abs(out).max() < 1e-13

    def test_finite_difference(self):
        rng = np.random.default_rng(31)
        model = random_recurrent_model(6, rng, signs=[1, 1, 0, 0, -1, -1])
        spec = validate_perturbation(
            model, "generator", random_generator_direction(model, rng))
        sol = solve_psi(model)
        expansion = expand(model, sol, spec)
        fd_ratio_check(model, spec, expansion)


class TestRateUnaffected:
    def test_zero_direction(self, two_phase):
        sol = solve_psi(two_phase)
        spec = validate_perturbation(two_phase, "rate", np.zeros(2))
        out = expand(two_phase, sol, spec).psi1
        assert np.array_equal(out, np.zeros((1, 1)))

    def test_two_phase_stays_certain(self, two_phase):
        sol = solve_psi(two_phase)
        spec = validate_perturbation(two_phase, "rate", np.array([1.0, 0.0]))
        assert spec.regime == "unaffected"
        out = expand(two_phase, sol, spec).psi1
        assert np.abs(out).max() < 1e-13

    def test_finite_difference(self):
        rng = np.random.default_rng(33)
        model = rate_model_with_zeros(rng)
        ct = np.zeros(model.n)
        ct[model.perm[model.ip[0]]] = 0.6    # original positions
        ct[model.perm[model.im[-1]]] = -0.8
        spec = validate_perturbation(model, "rate", ct)
        assert spec.regime == "unaffected"
        sol = solve_psi(model)
        expansion = expand(model, sol, spec)
        fd_ratio_check(model, spec, expansion)

    def test_matches_closed_form(self):
        # with no zero-rate phase migrating, psi1 solves
        # K X + X U = -psi |C-^{-1}| Ct_- U - C+^{-1} Ct_+ psi U
        rng = np.random.default_rng(37)
        model = rate_model_with_zeros(rng)
        ct = rng.uniform(-1.0, 1.0, model.n)
        ct[model.perm[model.i0]] = 0.0
        spec = validate_perturbation(model, "rate", ct)
        sol = solve_psi(model)
        ct_p, ct_m = spec.direction[model.ip], spec.direction[model.im]
        rhs = -(sol.psi * (ct_m / model.c_minus_abs)[None, :]) @ sol.U \
            - ((ct_p / model.c_plus)[:, None] * sol.psi) @ sol.U
        closed = scipy.linalg.solve_sylvester(sol.K, sol.U, rhs)
        psi1 = expand(model, sol, spec).psi1
        assert np.abs(psi1 - closed).max() <= 1e-13 * np.abs(closed).max()

    def test_censoring_commutes_with_the_unaffected_expansion(self):
        # no zero-rate phase moves: the expansion of the model is, bit for
        # bit, that of its censored model along the restricted direction
        rng = np.random.default_rng(81)
        for _ in range(24):
            n_plus, n_zero, n_minus = rng.integers(1, 5, 3).tolist()
            model = rate_model_with_zeros(rng, n_plus, n_zero, n_minus)
            ct = rng.uniform(-1.0, 1.0, model.n)
            ct[model.perm[model.i0]] = 0.0
            spec = validate_perturbation(model, "rate", ct)
            assert spec.regime == "unaffected"
            keep = np.concatenate([model.ip, model.im])
            b = censor_zero_phases(model)
            censored = validate_model(np.block([[b.Q_pp, b.Q_pm], [b.Q_mp, b.Q_mm]]),
                                      model.c[keep])
            cspec = validate_perturbation(censored, "rate", spec.direction[keep])
            exp = expand(model, solve_psi(model), spec)
            cexp = expand(censored, solve_psi(censored), cspec)
            pairs = [(exp.psi_bar, cexp.psi_bar), (exp.psi1, cexp.psi1)]
            assert exp.aux.keys() == cexp.aux.keys()
            pairs += [(exp.aux[k], cexp.aux[k]) for k in exp.aux if k != "series"]
            pairs += [(getattr(exp.aux["series"], f.name), getattr(cexp.aux["series"], f.name))
                      for f in dataclasses.fields(exp.aux["series"])]
            for a, c in pairs:
                assert a.shape == c.shape and a.tobytes() == c.tobytes()
            # the censored model lists the kept phases in canonical order
            assert np.array_equal(exp.row_phases, model.perm[keep][cexp.row_phases])
            assert np.array_equal(exp.col_phases, model.perm[keep][cexp.col_phases])


class TestToPlus:
    def make(self, seed=34):
        rng = np.random.default_rng(seed)
        model = rate_model_with_zeros(rng)
        ct = np.zeros(model.n)
        ct[model.perm[model.i0]] = rng.uniform(0.4, 1.2, model.n_zero)
        spec = validate_perturbation(model, "rate", ct)
        assert spec.regime == "to_plus"
        return model, spec

    def test_psi_bar_rows_sum_to_one(self):
        model, spec = self.make()
        sol = solve_psi(model)
        exp = expand(model, sol, spec)
        assert np.abs(exp.psi_bar.sum(axis=1) - 1.0).max() < 1e-10
        assert exp.psi_bar.shape == (model.n_plus + model.n_zero, model.n_minus)

    def test_finite_difference(self):
        model, spec = self.make()
        sol = solve_psi(model)
        fd_ratio_check(model, spec, expand(model, sol, spec))

    def test_inner_divergence_is_reported(self, monkeypatch):
        # no model is known to make the inner Newton iteration fail, so the
        # failure is injected; the root solve binds its own newton_riccati
        model, spec = self.make()
        sol = solve_psi(model)

        def diverges(*args, **kwargs):
            raise NoConvergence("injected")
        monkeypatch.setattr("mmfq.perturb.newton_riccati", diverges)
        with pytest.raises(InnerRiccatiDiverged, match="injected"):
            expand(model, sol, spec)


class TestToMinus:
    def make(self, seed=35):
        rng = np.random.default_rng(seed)
        model = rate_model_with_zeros(rng)
        ct = np.zeros(model.n)
        ct[model.perm[model.i0]] = -rng.uniform(0.4, 1.2, model.n_zero)
        spec = validate_perturbation(model, "rate", ct)
        assert spec.regime == "to_minus"
        return model, spec

    def test_left_block_is_zero(self):
        model, spec = self.make()
        sol = solve_psi(model)
        exp = expand(model, sol, spec)
        assert np.array_equal(exp.psi_bar[:, :model.n_zero],
                              np.zeros((model.n_plus, model.n_zero)))
        assert np.abs(exp.psi_bar.sum(axis=1) - 1.0).max() < 1e-10

    def test_finite_difference(self):
        model, spec = self.make()
        sol = solve_psi(model)
        fd_ratio_check(model, spec, expand(model, sol, spec))


class TestGeneral:
    def make(self, seed=36, n_zero=3):
        rng = np.random.default_rng(seed)
        model = rate_model_with_zeros(rng, n_plus=3, n_zero=n_zero, n_minus=3)
        ct = np.zeros(model.n)
        mags = rng.uniform(0.4, 1.2, model.n_zero)
        signs = np.ones(model.n_zero)
        signs[rng.integers(0, model.n_zero)] = -1.0  # at least one of each
        ct[model.perm[model.i0]] = mags * signs
        spec = validate_perturbation(model, "rate", ct)
        assert spec.regime == "general"
        return model, spec

    def test_psi_bar_structure(self):
        model, spec = self.make()
        sol = solve_psi(model)
        exp = expand(model, sol, spec)
        n_om = len(spec.ominus)
        assert np.array_equal(exp.psi_bar[:model.n_plus, :n_om],
                              np.zeros((model.n_plus, n_om)))
        assert np.abs(exp.psi_bar.sum(axis=1) - 1.0).max() < 1e-10
        assert 0.0 <= exp.psi_bar.min()
        assert exp.psi_bar.max() <= 1.0 + 1e-12

    @pytest.mark.parametrize("seed", [38, 39, 40])
    def test_finite_difference(self, seed):
        model, spec = self.make(seed=seed)
        sol = solve_psi(model)
        fd_ratio_check(model, spec, expand(model, sol, spec))

    def test_zeroth_order_consistency(self):
        # the direct solve converges to psi_bar entrywise as eps -> 0
        from dataclasses import replace
        model, spec = self.make(seed=42)
        sol = solve_psi(model)
        exp = expand(model, sol, spec)
        sol_eps, pmodel = solve_psi_at(model, spec, 1e-6)
        norms = error_norms(model, sol_eps, pmodel,
                            replace(exp, psi1=np.zeros_like(exp.psi1)), 1e-6)
        assert norms.e_inf <= 1e-4

    def test_scrambled_phase_order_alignment(self):
        # interleave classes in the original ordering to stress the
        # label bookkeeping of expansion vs direct solve
        rng = np.random.default_rng(41)
        signs = np.array([0, -1, 1, 0, -1, 1, 0, -1])
        model = random_recurrent_model(8, rng, signs=signs)
        ct = np.zeros(8)
        orig_zero = model.perm[model.i0]
        ct[orig_zero] = [0.7, -0.5, 0.9]
        spec = validate_perturbation(model, "rate", ct)
        assert spec.regime == "general"
        sol = solve_psi(model)
        fd_ratio_check(model, spec, expand(model, sol, spec))


class TestDispatch:
    def test_every_regime_routes_once(self):
        rng = np.random.default_rng(90)
        model = rate_model_with_zeros(rng)
        sol = solve_psi(model)
        orig_zero = model.perm[model.i0]
        directions = {
            "generator": ("generator", random_generator_direction(model, rng)),
            "unaffected": ("rate", np.zeros(model.n)),
            "to_plus": ("rate", np.zeros(model.n)),
            "to_minus": ("rate", np.zeros(model.n)),
            "general": ("rate", np.zeros(model.n)),
        }
        directions["to_plus"][1][orig_zero] = 0.5
        directions["to_minus"][1][orig_zero] = -0.5
        directions["general"][1][orig_zero] = [0.5, -0.5, 0.5]
        aux_keys = set()
        runs = {}
        for regime, (kind, direction) in directions.items():
            spec = validate_perturbation(model, kind, direction)
            out = expand(model, sol, spec)
            assert out.regime == regime
            assert out.psi_bar.shape == out.psi1.shape
            assert out.psi_bar.shape == (len(out.row_phases), len(out.col_phases))
            if kind == "rate":
                aux_keys.add(frozenset(out.aux))
            # the direct solve comes out in the expansion's layout
            sol_eps, pmodel = solve_psi_at(model, spec, 1e-4)
            assert error_norms(model, sol_eps, pmodel, out, 1e-4).e_inf < 1e-6
            runs[regime] = out, sol_eps, pmodel
        # every rate regime runs the one migration elimination
        assert len(aux_keys) == 1 and "psi2_p_om" in next(iter(aux_keys))
        # a to_plus expansion does not fit the general regime's partition
        _, sol_eps, pmodel = runs["general"]
        with pytest.raises(ShapeMismatch):
            error_norms(model, sol_eps, pmodel, runs["to_plus"][0], 1e-4)


class TestBDIdentities:
    @pytest.mark.parametrize("seed", [50, 51, 52, 53])
    def test_blocks_equal_zero_block_inverse(self, seed):
        model, spec = TestGeneral().make(seed=seed)
        sol = solve_psi(model)
        exp = expand(model, sol, spec)
        assert bd_identity_gap(model, spec, exp) < 1e-9


class TestSeriesBlocks:
    def test_closed_forms_and_stability(self):
        model, spec = TestGeneral().make(seed=54)
        sol = solve_psi(model)
        exp = expand(model, sol, spec)
        sb = exp.aux["series"]
        io_p, io_m = spec.oplus, spec.ominus
        ct_op = spec.direction[io_p][:, None]
        ct_om = np.abs(spec.direction[io_m])[:, None]
        psi_op_om = exp.aux["psi_op_om"]
        u_direct = (model.block(io_m, io_m)
                    + model.block(io_m, io_p) @ psi_op_om) / ct_om
        k_direct = model.block(io_p, io_p) / ct_op \
            + (psi_op_om / ct_om.T) @ model.block(io_m, io_p)
        assert np.abs(sb.u_m1_om_om - u_direct).max() < 1e-12
        assert np.abs(sb.k_m1_op_op - k_direct).max() < 1e-12
        assert stable_spectrum(sb.k_m1_op_op) is True
        assert stable_spectrum(sb.u_m1_om_om) is True

    def test_u0_blocks_by_richardson(self):
        # U(eps) blocks from direct solves extrapolate to the series value
        model, spec = TestGeneral().make(seed=55)
        sol = solve_psi(model)
        exp = expand(model, sol, spec)
        sb = exp.aux["series"]
        vals = {}
        for eps in (1e-3, 1e-4):
            sol_eps, pmodel = solve_psi_at(model, spec, eps)
            orig = model.perm[pmodel.perm]
            down = orig[pmodel.im]
            pos = {int(p): i for i, p in enumerate(down)}
            rows = [pos[int(p)] for p in model.perm[model.im]]
            vals[eps] = sol_eps.U[np.ix_(rows, rows)]
        richardson = (1e-3 * vals[1e-4] - 1e-4 * vals[1e-3]) / (1e-3 - 1e-4)
        assert np.abs(richardson - sb.u_0_m_m).max() < 1e-4


def _one_sided_cases():
    from mmfq.bench import case_model
    return {"to_plus": [TestToPlus().make(), case_model("1a")],
            "to_minus": [TestToMinus().make(), case_model("1b")]}


class TestOneSidedClosedForms:
    """The one-sided regimes run the general elimination with one class
    empty; their published closed forms check it independently."""

    @pytest.mark.parametrize("which", [0, 1])
    def test_to_plus_up_rows_solve_closed_form(self, which):
        model, spec = _one_sided_cases()["to_plus"][which]
        sol = solve_psi(model)
        exp = expand(model, sol, spec)
        ip, io, im = model.ip, model.i0, model.im
        psi, U, K = sol.psi, sol.U, sol.K
        cp = model.c_plus[:, None]
        cm = model.c_minus_abs[None, :]
        ct = spec.direction
        N = np.linalg.inv(-model.block(io, io))
        psi_op_m = N @ (model.block(io, im) + model.block(io, ip) @ psi)
        K_p_op = model.block(ip, io) / cp + (psi / cm) @ model.block(im, io)
        P_op = K_p_op @ (N * ct[io][None, :]) @ psi_op_m
        rhs = -((psi / cm) * ct[im][None, :]) @ U \
            - ((ct[ip][:, None] / cp) * psi) @ U - P_op @ U
        assert sylvester_residual(K, U, rhs, exp.psi1[:model.n_plus]) <= 1e-12
        assert np.abs(exp.psi_bar[model.n_plus:] - psi_op_m).max() <= 1e-12

    @pytest.mark.parametrize("which", [0, 1])
    def test_to_minus_migrating_columns_closed_form(self, which):
        model, spec = _one_sided_cases()["to_minus"][which]
        sol = solve_psi(model)
        exp = expand(model, sol, spec)
        ip, io, im = model.ip, model.i0, model.im
        psi = sol.psi
        N = np.linalg.inv(-model.block(io, io))
        closed = (model.block(ip, io) / model.c_plus[:, None]
                  + (psi / model.c_minus_abs[None, :]) @ model.block(im, io)) \
            @ (N * np.abs(spec.direction[io])[None, :])
        assert np.abs(exp.psi1[:, :model.n_zero] - closed).max() <= 1e-12


class TestStationaryField:
    """Every FluidModel the library builds carries the stationary
    distribution of its own A, read-only."""

    @staticmethod
    def assert_own_xi(model):
        assert np.abs(model.xi - stationary_of(model.A)).max() <= 1e-14
        assert not model.xi.flags.writeable

    def test_validated_and_perturbed_models(self):
        from mmfq.riccati import perturbed_model
        rng = np.random.default_rng(80)
        model = rate_model_with_zeros(rng, n_plus=2, n_zero=4, n_minus=3)
        self.assert_own_xi(model)
        labels = model.canonical_labels()
        for kind, direction, eps_list in (
                ("generator", random_generator_direction(model, rng), (1e-4, 1e-2, 0.5)),
                ("rate", [0.3, -0.2, 0.7, -0.4, 0.9, -1.1, 0.2, 0.1, -0.3], (1e-4, 1e-2, 0.3)),
                ("rate", [0.3, -0.2, 0.0, 0.0, 0.0, 0.0, 0.2, 0.1, -0.3], (-0.1, 1e-2, 0.3))):
            spec = validate_perturbation(model, kind, direction)
            for eps in eps_list:
                pmodel = perturbed_model(model, spec, eps)
                self.assert_own_xi(pmodel)
                if kind == "rate":
                    # the partition of checked rates is validate_model's
                    ref = validate_model(model.A, model.c + eps * spec.direction, labels)
                    for name in ("A", "c", "perm"):
                        assert np.array_equal(getattr(pmodel, name), getattr(ref, name))
                    for name in ("labels", "n_plus", "n_zero", "n_minus"):
                        assert getattr(pmodel, name) == getattr(ref, name)
