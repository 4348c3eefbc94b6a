import re

import numpy as np
import pytest
from scipy.linalg import get_lapack_funcs

from mmfq import expand, solve_psi, solve_psi_at, validate_model, validate_perturbation
from mmfq.bench import CASE_IDS, case_model, error_norms
from mmfq.core import censor_zero_phases
from mmfq.errors import EmptySide, InvalidEpsilon, NoConvergence
from mmfq.numerics import stable_spectrum
from mmfq.riccati import (DEFAULT_MAX_NEWTON, DEFAULT_TOL, FLOOR_FACTOR,
                          newton_riccati, perturbed_model)

from conftest import oracle_psi, random_generator, random_recurrent_model, record_calls


class TestTwoPhaseClosedForm:
    def test_psi_is_one(self, two_phase):
        sol = solve_psi(two_phase)
        assert abs(sol.psi[0, 0] - 1.0) < 1e-14
        assert abs(sol.U[0, 0]) < 1e-14
        assert abs(sol.K[0, 0] + 0.5) < 1e-14

    @pytest.mark.parametrize("a,b,cp,cm", [
        (1.0, 1.0, 1.0, -2.0),
        (0.7, 1.3, 0.5, -1.1),
        (2.0, 0.4, 0.3, -2.5),
    ])
    def test_scalar_quadratic_roots(self, a, b, cp, cm):
        # the scalar equation a/cp - (a/cp) x - (b/|cm|) x + (b/|cm|) x^2 = 0
        # has roots 1 and a|cm|/(b cp); negative drift puts the second
        # root above 1, so the minimal nonnegative root is 1
        model = validate_model([[-a, a], [b, -b]], [cp, cm])
        other_root = a * abs(cm) / (b * cp)
        drift = (b * cp + a * cm) / (a + b)
        assert (drift < 0) == (other_root > 1)
        if drift < 0:
            sol = solve_psi(model)
            assert abs(sol.psi[0, 0] - 1.0) < 1e-12

    def test_scalar_transient_minimal_root(self):
        # positive drift: the minimal root is a|cm|/(b cp) < 1
        a, b, cp, cm = 1.0, 2.0, 1.5, -1.0
        model = validate_model([[-a, a], [b, -b]], [cp, cm])
        sol = solve_psi(model)
        assert abs(sol.psi[0, 0] - a * abs(cm) / (b * cp)) < 1e-12


class TestNearZeroDrift:
    @pytest.mark.parametrize("drift", [1e-6, 1e-9])
    def test_dense_transient_model(self, drift):
        # the minimal root is substochastic and K, not U, has the eigenvalue
        # near zero; the residual hides the lost digits, the oracle does not
        rng = np.random.default_rng(30)
        A = random_generator(30, rng)
        signs = np.repeat([1, 0, -1], [13, 4, 13])  # already canonical order
        c = signs * rng.uniform(0.5, 2.0, 30)
        xi = validate_model(A, c).xi
        up, down = xi[signs > 0] @ c[signs > 0], -xi[signs < 0] @ c[signs < 0]
        c = np.where(signs < 0, c * (up - drift) / down, c)
        sol = solve_psi(validate_model(A, c))
        assert sol.psi.sum(axis=1).max() < 1.0
        assert float(np.abs(sol.psi - oracle_psi(A, c)).max()) <= 1e-13

    def test_null_recurrent(self):
        # zero drift: psi = 1 is a double root and both U and K are singular
        sol = solve_psi(validate_model([[-1.0, 1.0], [1.0, -1.0]], [1.0, -1.0]))
        assert abs(sol.psi[0, 0] - 1.0) <= 1e-10


class TestStructuralFacts:
    def test_case_1a(self, case_1a):
        model, _ = case_1a
        sol = solve_psi(model)
        assert np.abs(sol.psi.sum(axis=1) - 1.0).max() <= 1e-10
        assert np.abs(sol.U.sum(axis=1)).max() <= 1e-10
        assert stable_spectrum(sol.K) is True
        assert sol.residual <= 1e-12
        assert 0.0 <= sol.psi.min() and sol.psi.max() <= 1.0 + 1e-12

    def test_fuzz_recurrent(self):
        from mmfq.riccati import check_structure
        rng = np.random.default_rng(20)
        for _ in range(8):
            model = random_recurrent_model(rng.integers(3, 9), rng)
            sol = solve_psi(model)
            assert all(check_structure(model, sol).values())
            assert sol.residual <= 1e-12
            assert sol.in_unit_box

    def test_unit_box_judged_on_the_root(self):
        # the last Newton iterate is at 1 + 3.3e-12 from round-off of the
        # censored blocks; the returned psi is 1 exactly
        A = [[-6.5491557230829756, 1.452964073649082e-06, 6.549154270118902],
             [3.466743418800332e-06, -4.685389192203996e-05, 4.338714850323963e-05],
             [0.8497726461711604, 5.252883113554251e-05, -0.8498251750022959]]
        c = [1.7095611084850679e-06, 0.0003580238083850341, -0.0007245773355070528]
        sol = solve_psi(validate_model(A, c))
        assert np.array_equal(sol.psi, np.ones((2, 1)))
        assert sol.in_unit_box

    def test_dense_n200(self):
        # pq = 98^2 = 9604: each Newton step is a Sylvester problem whose
        # Kronecker form would have order 9604
        rng = np.random.default_rng(200)
        signs = np.repeat([1, 0, -1], [98, 4, 98])
        rates = np.where(signs > 0, rng.uniform(0.5, 1.0, 200),
                         rng.uniform(1.0, 2.0, 200))
        model = validate_model(random_generator(200, rng), signs * rates)
        sol = solve_psi(model)
        assert sol.residual <= 1e-12
        assert np.abs(sol.psi.sum(axis=1) - 1.0).max() <= 1e-10


class TestNewtonBehaviour:
    def test_monotone_residual_history(self, case_1a):
        model, _ = case_1a
        sol = solve_psi(model)
        hist = np.array(sol.residual_history)
        assert (np.diff(hist) <= 0).all()

    def test_budget_independence(self, case_1a):
        model, _ = case_1a
        a = solve_psi(model, max_newton=50)
        b = solve_psi(model, max_newton=500)
        assert np.array_equal(a.psi, b.psi)
        assert a.iterations == b.iterations

    def test_loose_tolerance_reflected_in_residual(self, case_1a):
        model, _ = case_1a
        loose = solve_psi(model, tol=1e-3)
        tight = solve_psi(model, tol=1e-12)
        assert loose.residual <= 1e-3
        assert tight.residual <= 1e-12
        assert loose.residual > tight.residual

    def test_no_convergence(self, case_1a):
        model, _ = case_1a
        with pytest.raises(NoConvergence):
            solve_psi(model, max_newton=0)

    def test_empty_side(self):
        model = validate_model([[-1.0, 1.0], [1.0, -1.0]], [1.0, 2.0])
        with pytest.raises(EmptySide):
            solve_psi(model)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-12])
    def test_bad_tol_is_rejected(self, case_1a, tol):
        # a NaN or infinite tol ended Newton before its first step: psi = 0
        model, _ = case_1a
        with pytest.raises(ValueError, match="tol"):
            solve_psi(model, tol=tol)


def _reference_newton(Qd, Qa, Mu, Mb, c, tol=DEFAULT_TOL, max_newton=DEFAULT_MAX_NEWTON):
    """The Newton loop written out plainly: each step forms Mu + Mb X and
    divides the residual by c where it uses them, and each Sylvester solve
    queries the gees workspace and binds its LAPACK handles anew."""
    def inf_norm(Y):
        return np.abs(Y).sum(axis=1).max(initial=0.0)

    def schur(M):
        gees, = get_lapack_funcs(("gees",), (M,))
        lwork = int(gees(lambda x, y: None, M, lwork=-1)[-2][0])
        T, _, _, _, Z, _, _ = gees(lambda x, y: None, M, lwork=lwork)
        return T, Z

    def sylvester(K, U, H):
        (T, Q), (S, Z) = schur(K), schur(U.T)
        trsyl, = get_lapack_funcs(("trsyl",), (T, S))
        Y, factor, _ = trsyl(T, S, Q.T @ H @ Z, tranb="T")
        return Q @ (Y / factor) @ Z.T

    def residual(Y):
        return Qd + Qa @ Y + c * (Y @ (Mu + Mb @ Y))

    p, q = Qd.shape
    X = np.zeros((p, q))
    c = np.asarray(c, dtype=float)[:, None]
    Ma = Qa / c
    scale = max(float(np.abs(m).max()) for m in (Qd, Qa, Mu, Mb))
    floor = FLOOR_FACTOR * np.finfo(float).eps * max(scale, 1.0) * max(p, q)
    H = residual(X)
    hres = inf_norm(H)
    res = inf_norm(H / c)
    history = [res]
    iterations = 0
    while res > tol and iterations < max_newton:
        new_X = X + sylvester(Ma + X @ Mb, Mu + Mb @ X, -H / c)
        new_H = residual(new_X)
        new_hres = inf_norm(new_H)
        if new_hres >= hres and hres <= floor:
            break
        X, H, hres = new_X, new_H, new_hres
        res = inf_norm(H / c)
        history.append(res)
        iterations += 1
    return X, iterations, tuple(history)


def _newton_inputs(model):
    """The arguments solve_psi hands to newton_riccati."""
    blocks = censor_zero_phases(model)
    cm = model.c_minus_abs[:, None]
    return (blocks.Q_pm, blocks.Q_pp, blocks.Q_mm / cm, blocks.Q_mp / cm,
            model.c_plus)


def _general_inner_inputs():
    """The inner (op, om) Riccati of a general-regime rate direction, with
    the arguments perturb.expand builds."""
    rng = np.random.default_rng(43)
    signs = np.repeat([1, 0, -1], [3, 6, 3])
    model = random_recurrent_model(12, rng, signs=signs)
    ct = np.zeros(12)
    ct[model.perm[model.i0]] = [0.7, -0.5, 0.9, -0.8, 0.6, -1.1]
    spec = validate_perturbation(model, "rate", ct)
    assert spec.regime == "general"
    io_p, io_m = spec.oplus, spec.ominus
    ct_om = np.abs(spec.direction[io_m])[:, None]
    return (model.block(io_p, io_m), model.block(io_p, io_p),
            model.block(io_m, io_m) / ct_om, model.block(io_m, io_p) / ct_om,
            spec.direction[io_p])


def _assert_same_newton(args):
    X, iterations, history = newton_riccati(*args)
    X_ref, iterations_ref, history_ref = _reference_newton(*args)
    assert X.tobytes() == X_ref.tobytes()
    assert iterations == iterations_ref and history == history_ref


class TestNewtonMatchesReference:
    """The Newton loop reuses U = Mu + Mb X and C^{-1} C F from its residual
    and calls bound LAPACK handles; every iterate stays bit-identical."""

    @pytest.mark.parametrize("case_id", CASE_IDS)
    def test_sweep_cells(self, case_id):
        model, spec = case_model(case_id)
        for eps in np.logspace(-4, -2, 20):
            _assert_same_newton(_newton_inputs(perturbed_model(model, spec, float(eps))))

    def test_random_recurrent_models(self):
        rng = np.random.default_rng(2025)
        for _ in range(50):
            model = random_recurrent_model(int(rng.integers(2, 16)), rng)
            _assert_same_newton(_newton_inputs(model))

    def test_general_regime_inner_riccati(self):
        args = _general_inner_inputs()
        assert args[0].shape == (3, 3)
        _assert_same_newton(args)


class TestNewtonRiccati:
    @pytest.mark.parametrize("a,root", [(3e-7, 0.3), (1e-7, 0.1)])
    def test_scalar_root_with_tiny_rate(self, a, root):
        # up rate c = 1e-6, down rate -1, A = [[-a, a], [1, -1]]:
        # (a - a x)/c - x + x^2 = 0 has roots 1 and a/c
        c = 1e-6
        X, iterations, history = newton_riccati(
            np.array([[a]]), np.array([[-a]]), np.array([[-1.0]]),
            np.array([[1.0]]), [c])
        assert abs(X[0, 0] - root) <= 1e-15
        assert history[-1] <= 1e-12 and iterations == len(history) - 1

    def test_empty_side(self):
        # the migration elimination relies on the (p, 0) root without a step
        X, iterations, history = newton_riccati(
            np.zeros((3, 0)), -np.eye(3), np.zeros((0, 0)), np.zeros((0, 3)),
            np.ones(3))
        assert X.shape == (3, 0) and iterations == 0
        assert history == (0.0,)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
    def test_bad_tol_is_rejected(self, tol):
        with pytest.raises(ValueError, match="tol"):
            newton_riccati(np.array([[3e-7]]), np.array([[-3e-7]]),
                           np.array([[-1.0]]), np.array([[1.0]]), [1e-6], tol=tol)

    def test_no_convergence_without_steps(self):
        with pytest.raises(NoConvergence):
            newton_riccati(np.array([[3e-7]]), np.array([[-3e-7]]),
                           np.array([[-1.0]]), np.array([[1.0]]), [1e-6],
                           max_newton=0)

    def test_residual_above_tol_on_floor(self):
        # migrated up rates of 4e-5: ||C+ F|| reaches the round-off floor
        # while ||F|| stays above tol; the solve is accepted and accurate
        model, spec = case_model("3a")
        sol, _ = solve_psi_at(model, spec, 1e-4)
        truth = oracle_psi(model.A, model.c + 1e-4 * spec.direction)
        assert float(np.abs(sol.psi - truth).max()) <= 1e-13


class TestSolvePsiAt:
    def test_eps_zero_unaffected(self, two_phase):
        spec = validate_perturbation(two_phase, "rate", [0.5, -0.5])
        sol0 = solve_psi(two_phase)
        sol, pmodel = solve_psi_at(two_phase, spec, 0.0)
        assert np.array_equal(sol.psi, sol0.psi)

    def test_zero_generator_direction(self, two_phase):
        spec = validate_perturbation(two_phase, "generator", np.zeros((2, 2)))
        sol0 = solve_psi(two_phase)
        for eps in (1e-3, 0.5):
            sol, _ = solve_psi_at(two_phase, spec, eps)
            assert np.array_equal(sol.psi, sol0.psi)

    def test_case_1a_migrated_shape(self, case_1a):
        model, spec = case_1a
        sol, pmodel = solve_psi_at(model, spec, 1e-2)
        assert sol.psi.shape == (10, 5)
        assert np.abs(sol.psi.sum(axis=1) - 1.0).max() <= 1e-10
        # stable sort puts migrated phases after the original up phases
        assert list(model.perm[pmodel.perm[pmodel.ip]]) == list(range(10))

    def test_invalid_epsilon_generator_cone(self, two_phase):
        # direction lowers an existing rate; large eps leaves the cone
        spec = validate_perturbation(two_phase, "generator",
                                     [[0.5, -0.5], [0.0, 0.0]])
        sol, _ = solve_psi_at(two_phase, spec, 0.5)
        assert abs(sol.psi[0, 0] - 1.0) < 1e-12
        with pytest.raises(InvalidEpsilon):
            solve_psi_at(two_phase, spec, 3.0)

    def test_rate_flip_guard(self):
        model = validate_model([[-1.0, 1.0], [1.0, -1.0]], [1.0, -2.0])
        spec = validate_perturbation(model, "rate", [-1.0, 0.0])
        with pytest.raises(InvalidEpsilon):
            solve_psi_at(model, spec, 2.0)

    @pytest.mark.parametrize("kind,direction", [
        ("rate", [2.0, 0.0]), ("generator", [[-2.0, 2.0], [2.0, -2.0]])])
    @pytest.mark.parametrize("eps", [float("nan"), float("inf"), -float("inf"), 1e308])
    def test_eps_out_of_double_range(self, two_phase, kind, direction, eps):
        # the suite turns a RuntimeWarning into an error, so an eps that is
        # not finite, or whose perturbed entries overflow, must raise cleanly
        spec = validate_perturbation(two_phase, kind, direction)
        for call in (perturbed_model, solve_psi_at):
            with pytest.raises(InvalidEpsilon, match=re.escape(f"eps={eps}")):
                call(two_phase, spec, eps)

    @pytest.mark.parametrize("eps", [1e-320, 5e-324])
    def test_eps_too_small_for_the_moving_rates(self, case_1a, eps):
        # at 1e-320 the solve warned, then raised NoConvergence; at 5e-324
        # the migrated rates rounded to 0, the unperturbed partition was
        # solved and error_norms reported ShapeMismatch
        model, spec = case_1a
        for call in (perturbed_model, solve_psi_at):
            with pytest.raises(InvalidEpsilon, match="too small"):
                call(model, spec, eps)

    def test_generator_eps_outgrowing_a_small_rate(self):
        # A + eps At grows until norm(A) / c_up overflows
        model = validate_model([[-1.0, 1.0], [1.0, -1.0]], [1e-300, -2.0])
        spec = validate_perturbation(model, "generator", [[-1.0, 1.0], [1.0, -1.0]])
        assert perturbed_model(model, spec, 1.0).n_plus == 1
        with pytest.raises(InvalidEpsilon, match="too small"):
            perturbed_model(model, spec, 1e10)

    @pytest.mark.parametrize("case_id", CASE_IDS)
    def test_sweep_cells_match_a_validated_model(self, case_id):
        # the rate-perturbed model inherits its xi instead of solving for it;
        # the negative-drift shift reads xi only through the drift's sign, so
        # every sweep cell equals a solve of the same rates validated afresh
        model, spec = case_model(case_id)
        for eps in np.logspace(-4, -2, 20):
            sol, _ = solve_psi_at(model, spec, float(eps))
            ref = solve_psi(validate_model(model.A, model.c + float(eps) * spec.direction,
                                           labels=model.canonical_labels()))
            for name in ("psi", "U", "K"):
                assert getattr(sol, name).tobytes() == getattr(ref, name).tobytes()
            assert sol.iterations == ref.iterations
            assert sol.residual_history == ref.residual_history

    def test_sweep_cell_solves_no_null_vector(self, case_1a, monkeypatch):
        # one cell of the benchmark sweep: a direct solve at eps and its norms
        model, spec = case_1a
        expansion = expand(model, solve_psi(model), spec)
        calls = record_calls(monkeypatch, "null_row_vector")
        for eps in (1e-4, 1e-2):
            sol, pmodel = solve_psi_at(model, spec, eps)
            error_norms(model, sol, pmodel, expansion, eps)
        assert calls == []

    def test_eps_zero_moves_no_zero_rate_phase(self, case_1a):
        # the perturbed partition would not match the expansion's migrated phases
        model, spec = case_1a
        for eps in (0.0, -0.1):
            with pytest.raises(InvalidEpsilon, match=f"eps={eps}"):
                solve_psi_at(model, spec, eps)
