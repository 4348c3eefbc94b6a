import json

import numpy as np
import pytest

from mmfq import (censor_zero_phases, load_model, mean_drift, validate_model,
                  validate_perturbation)
from mmfq.errors import (DimensionMismatch, InvalidPerturbation, NotAGenerator,
                         Reducible, Singular)

from conftest import model_to_dict, random_generator, random_recurrent_model, record_calls


class TestValidateModel:
    def test_two_phase(self, two_phase):
        assert two_phase.n_plus == 1 and two_phase.n_minus == 1
        assert two_phase.n_zero == 0
        assert list(two_phase.perm) == [0, 1]

    def test_absorbing_state_rejected(self):
        with pytest.raises(Reducible):
            validate_model([[-1.0, 1.0], [0.0, 0.0]], [1.0, -1.0])

    @pytest.mark.parametrize("n", range(2, 34))
    def test_directed_cycle(self, n):
        # the cycle's diameter n - 1 is the longest path reachability must cover
        A = np.zeros((n, n))
        A[np.arange(n), (np.arange(n) + 1) % n] = 1.0
        np.fill_diagonal(A, -1.0)
        c = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
        assert validate_model(A, c).n == n
        A[n - 1, 0] = A[n - 1, n - 1] = 0.0
        with pytest.raises(Reducible):
            validate_model(A, c)

    def test_strong_connectivity_matches_matrix_power(self):
        from mmfq.core import _strongly_connected
        rng = np.random.default_rng(12)
        for _ in range(300):
            n = int(rng.integers(1, 13))
            adj = rng.random((n, n)) < rng.uniform(0.05, 0.4)
            walks = np.linalg.matrix_power(np.eye(n) + adj, max(n - 1, 1))
            assert _strongly_connected(adj) == bool((walks > 0).all())

    def test_case_1a_fifteen_phases(self, case_1a):
        model, _ = case_1a
        assert model.n == 15
        assert (model.n_plus, model.n_zero, model.n_minus) == (5, 5, 5)
        assert model.c[0] == 0.4
        assert round(float(f"{model.c[-1]:.3g}"), 3) == -0.207

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            validate_model([[-1.0, 1.0], [1.0, -1.0]], [1.0, -1.0, 0.0])
        with pytest.raises(DimensionMismatch):
            validate_model([[-1.0, 1.0, 0.0], [1.0, -1.0, 0.0]], [1.0, -1.0])

    def test_no_phases(self):
        # passed every check; mean_drift then failed with SingularSystem
        with pytest.raises(DimensionMismatch, match="at least one phase"):
            validate_model(np.zeros((0, 0)), [])

    @pytest.mark.parametrize("c_up", [1e-320, 6e-309])
    def test_rate_too_small_to_divide_by(self, c_up):
        # norm(A) / c_up = 2 / c_up overflows; at 1e-320 the solve wrote NaN
        # and density ended in a ValueError (6e-309 solved, but is rejected)
        with pytest.raises(DimensionMismatch, match="too small"):
            validate_model([[-1.0, 1.0], [1.0, -1.0]], [c_up, -1.0])

    def test_smallest_rates_that_divide(self, case_1a):
        model = validate_model([[-1.0, 1.0], [1.0, -1.0]], [1.2e-308, -1.0])
        assert model.n_plus == 1
        # case 1a's generator (inf-norm 6) with up rates of 1e-308 ended in
        # NoConvergence; 4e-308 divides it
        model, _ = case_1a
        inv = np.argsort(model.perm)
        A, c = model.A[np.ix_(inv, inv)], model.c[inv]
        with pytest.raises(DimensionMismatch, match="too small"):
            validate_model(A, np.where(c > 0, 1e-308, c))
        assert validate_model(A, np.where(c > 0, 4e-308, c)).n_plus == 5

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            validate_model([[-np.inf, np.inf], [1.0, -1.0]], [1.0, -1.0])

    def test_negative_off_diagonal(self):
        with pytest.raises(NotAGenerator):
            validate_model([[-1.0, 1.0], [-0.5, 0.5]], [1.0, -1.0])

    def test_row_sum_tolerance_boundary(self):
        # accepted just inside 1e-12 * norm(A), rejected well outside
        rng = np.random.default_rng(11)
        for _ in range(10):
            A = random_generator(5, rng)
            scale = np.linalg.norm(A, np.inf)
            c = np.array([1.0, 1.0, 0.0, -1.0, -1.0])
            good = A.copy()
            good[0, 0] -= 0.05e-12 * scale
            validate_model(good, c)
            bad = A.copy()
            bad[0, 0] -= 10e-12 * scale
            with pytest.raises(NotAGenerator):
                validate_model(bad, c)

    def test_canonical_order_and_perm(self):
        A = random_generator(4, np.random.default_rng(12))
        c = np.array([-1.0, 2.0, 0.0, 1.5])
        model = validate_model(A, c)
        assert list(model.perm) == [1, 3, 2, 0]
        assert np.all(model.c[model.ip] > 0)
        assert np.all(model.c[model.i0] == 0)
        assert np.all(model.c[model.im] < 0)
        assert np.array_equal(model.A, A[np.ix_(model.perm, model.perm)])


class TestBlockLayout:
    """Blocks are C-ordered copies equal to the np.ix_ read: an F-ordered
    block sends BLAS down another kernel and moves results by an ulp."""

    INDEX = [np.arange(0), np.arange(1, 4), np.array([4, 0, 2])]

    @pytest.mark.parametrize("rows", INDEX)
    @pytest.mark.parametrize("cols", INDEX)
    def test_block(self, rows, cols):
        model = random_recurrent_model(5, np.random.default_rng(21))
        block = model.block(rows, cols)
        assert block.flags.c_contiguous
        assert np.array_equal(block, model.A[np.ix_(rows, cols)])
        assert block.shape == (len(rows), len(cols))

    @pytest.mark.parametrize("c", [[2.0, 1.0, 0.0, -1.0, -3.0],
                                   [-1.0, 2.0, 0.0, -3.0, 1.0]])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_canonical_reorder(self, c, order):
        A = np.asarray(random_generator(5, np.random.default_rng(22)), order=order)
        model = validate_model(A, c)
        assert model.A.flags.c_contiguous
        assert np.array_equal(model.A, A[np.ix_(model.perm, model.perm)])


class TestStationaryDist:
    def test_symmetric_two_phase(self, two_phase):
        assert np.allclose(two_phase.xi, [0.5, 0.5], atol=1e-14)

    def test_birth_death_closed_form(self, case_1a):
        # detailed balance: weights are (lam/mu)^(i-1) = 2^(i-1)
        model, _ = case_1a
        xi = model.unpermute(model.xi)
        expected = 2.0 ** np.arange(15)
        expected /= expected.sum()
        assert np.abs(xi - expected).max() < 1e-12

    def test_residual_fuzz(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            model = random_recurrent_model(6, rng)
            xi = model.xi
            assert np.abs(xi @ model.A).max() <= 1e-10
            assert xi.min() >= 0.0
            assert abs(xi.sum() - 1.0) < 1e-12

    def test_negative_mass_is_singular(self, monkeypatch):
        # a generator's null vector is nonnegative, so the failure is injected;
        # validate_model solves for the stationary vector
        monkeypatch.setattr("mmfq.core.null_row_vector", lambda M: np.array([1.5, -0.5]))
        with pytest.raises(Singular, match="negative stationary mass"):
            validate_model([[-1.0, 1.0], [1.0, -1.0]], [1.0, -2.0])


class TestMeanDrift:
    def test_hand_value(self):
        model = validate_model([[-1.0, 1.0], [1.0, -1.0]], [2.0, -1.0])
        assert abs(mean_drift(model) - 0.5) < 1e-14

    def test_all_zero_rates(self):
        model = validate_model([[-1.0, 1.0], [1.0, -1.0]], [0.0, 0.0])
        assert mean_drift(model) == 0.0

    def test_case_1a_target(self, case_1a):
        # the calibrated down rate -0.207 pins the drift at -0.2
        model, _ = case_1a
        assert abs(mean_drift(model) - (-0.2)) < 1e-10


class TestCensoring:
    def test_three_phase_hand_computed(self):
        A = [[-2.0, 1.0, 1.0], [1.0, -2.0, 1.0], [1.0, 1.0, -2.0]]
        blocks = censor_zero_phases(validate_model(A, [1.0, 0.0, -1.0]))
        assert np.allclose(blocks.Q_pp, [[-1.5]])
        assert np.allclose(blocks.Q_pm, [[1.5]])
        assert np.allclose(blocks.Q_mp, [[1.5]])
        assert np.allclose(blocks.Q_mm, [[-1.5]])

    def test_no_zero_phases_is_identity(self, two_phase):
        blocks = censor_zero_phases(two_phase)
        assert np.array_equal(blocks.Q_pp, [[-1.0]])
        assert np.array_equal(blocks.Q_pm, [[1.0]])

    def test_no_zero_phases_solves_nothing(self, monkeypatch):
        # with an empty zero class the censoring formula
        # Q = A_cc + A_c0 (-A_00)^{-1} A_0c reduces to A's own blocks
        model = random_recurrent_model(6, np.random.default_rng(16),
                                       signs=[1, -1, 1, -1, 1, -1])
        calls = record_calls(monkeypatch, "solve_linear")
        blocks = censor_zero_phases(model)
        assert calls == [] and blocks.inv0.shape == (0, 0)
        p, A = model.n_plus, model.A
        empty = np.zeros((0, 0))
        general = (A[:p, :p] + A[:p, p:p] @ empty @ A[p:p, :p],
                   A[:p, p:] + A[:p, p:p] @ empty @ A[p:p, p:],
                   A[p:, :p] + A[p:, p:p] @ empty @ A[p:p, :p],
                   A[p:, p:] + A[p:, p:p] @ empty @ A[p:p, p:])
        for got, want in zip((blocks.Q_pp, blocks.Q_pm, blocks.Q_mp, blocks.Q_mm), general):
            assert np.array_equal(got, want)

    def test_censored_rows_conserve(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            model = random_recurrent_model(7, rng)
            blocks = censor_zero_phases(model)
            Q = np.block([[blocks.Q_pp, blocks.Q_pm],
                          [blocks.Q_mp, blocks.Q_mm]])
            assert np.abs(Q.sum(axis=1)).max() <= 1e-12 * max(
                np.linalg.norm(model.A, np.inf), 1.0)
            off = Q.copy()
            np.fill_diagonal(off, 0.0)
            assert off.min() >= -1e-12


class TestPermutationInvariance:
    def test_relabeling(self):
        rng = np.random.default_rng(15)
        model = random_recurrent_model(7, rng)
        inv = np.argsort(model.perm)
        A0, c0 = model.A[np.ix_(inv, inv)], model.c[inv]  # original order
        sigma = rng.permutation(7)
        A1, c1 = A0[np.ix_(sigma, sigma)], c0[sigma]
        m0 = validate_model(A0, c0)
        m1 = validate_model(A1, c1)
        assert abs(mean_drift(m0) - mean_drift(m1)) < 1e-12
        xi0 = m0.unpermute(m0.xi)
        xi1 = m1.unpermute(m1.xi)
        assert np.abs(xi0[sigma] - xi1).max() < 1e-12
        # censored blocks agree after aligning phases through labels
        b0, b1 = censor_zero_phases(m0), censor_zero_phases(m1)
        orig0 = m0.perm[np.concatenate([m0.ip, m0.im])]
        orig1 = sigma[m1.perm[np.concatenate([m1.ip, m1.im])]]
        Q0 = np.block([[b0.Q_pp, b0.Q_pm], [b0.Q_mp, b0.Q_mm]])
        Q1 = np.block([[b1.Q_pp, b1.Q_pm], [b1.Q_mp, b1.Q_mm]])
        pos = {int(p): i for i, p in enumerate(orig0)}
        align = [pos[int(p)] for p in orig1]
        assert np.abs(Q0[np.ix_(align, align)] - Q1).max() < 1e-12


class TestPerturbationSpec:
    def test_generator_kind(self, two_phase):
        spec = validate_perturbation(two_phase, "generator",
                                     [[-0.5, 0.5], [1.0, -1.0]])
        assert spec.kind == "generator" and spec.regime == "generator"

    def test_generator_row_sums_checked(self, two_phase):
        with pytest.raises(InvalidPerturbation):
            validate_perturbation(two_phase, "generator",
                                  [[-0.5, 0.4], [1.0, -1.0]])

    def test_generator_sign_rule(self):
        # decreasing a zero rate would leave the generator cone
        A = [[-1.0, 1.0, 0.0], [1.0, -2.0, 1.0], [0.0, 1.0, -1.0]]
        model = validate_model(A, [1.0, 0.0, -1.0])
        bad = [[-0.1, 0.2, -0.1], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
        with pytest.raises(InvalidPerturbation):
            validate_perturbation(model, "generator", bad)

    @pytest.mark.parametrize("tilde,regime", [
        ((0.0, 0.0, 0.0, 0.0), "unaffected"),
        ((0.0, 0.5, 0.0, -0.3), "unaffected"),
        ((0.0, 0.0, 0.7, 0.0), "to_plus"),
        ((0.0, 0.0, -0.7, 0.0), "to_minus"),
    ])
    def test_rate_regimes_single_zero(self, tilde, regime):
        A = random_generator(4, np.random.default_rng(16))
        model = validate_model(A, [1.0, 2.0, 0.0, -1.0])
        spec = validate_perturbation(model, "rate", tilde)
        assert spec.regime == regime

    def test_rate_general_and_mixed(self):
        A = random_generator(5, np.random.default_rng(17))
        model = validate_model(A, [1.0, 0.0, 0.0, 0.0, -1.0])
        spec = validate_perturbation(model, "rate", [0.0, 0.4, -0.2, 0.1, 0.0])
        assert spec.regime == "general"
        assert len(spec.oplus) == 2 and len(spec.ominus) == 1
        with pytest.raises(InvalidPerturbation):
            validate_perturbation(model, "rate", [0.0, 0.4, 0.0, -0.2, 0.0])

    @pytest.mark.parametrize("size", [1e-320, -1e-320, 5e-324])
    def test_rate_direction_too_small_to_divide_by(self, case_1a, size):
        # expand divides by the direction on the zero-rate phases; it warned,
        # then raised a bare ValueError
        model, _ = case_1a
        direction = np.zeros(model.n)
        direction[model.perm[model.i0]] = size
        with pytest.raises(InvalidPerturbation, match="too small"):
            validate_perturbation(model, "rate", direction)


class TestModelFile:
    def test_round_trip(self, tmp_path):
        doc = {"A": [[-1.0, 1.0], [1.0, -1.0]], "c": [1.0, -2.0],
               "labels": ["on", "off"]}
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        model = load_model(path)
        assert model.labels == ("on", "off")
        out = model_to_dict(model)
        assert out["A"] == doc["A"] and out["c"] == doc["c"]

    def test_missing_key(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"A": [[-1.0, 1.0], [1.0, -1.0]]}))
        with pytest.raises(DimensionMismatch):
            load_model(path)
