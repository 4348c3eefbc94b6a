import numpy as np
import pytest
import scipy.linalg
from scipy.optimize import linear_sum_assignment

from mmfq import numerics
from mmfq.errors import Inconclusive, NoConvergence, Singular
from mmfq.numerics import (conv_integral, exp_evaluator, group_inverse, matrix_exp,
                           null_row_vector, solve_linear, solve_sylvester,
                           sylvester_residual, sylvester_solver)

from conftest import random_generator


def simpson_matrix(f, a, b, panels):
    """Composite Simpson quadrature of a matrix-valued function."""
    xs = np.linspace(a, b, 2 * panels + 1)
    vals = np.array([f(x) for x in xs])
    h = (b - a) / (2 * panels)
    weights = np.ones(len(xs))
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return h / 3.0 * np.tensordot(weights, vals, axes=(0, 0))


class TestSolveLinear:
    def test_identity(self):
        B = np.arange(6.0).reshape(3, 2)
        assert np.array_equal(solve_linear(np.eye(3), B), B)

    def test_diagonal(self):
        X = solve_linear(np.diag([2.0, 4.0]), np.array([[2.0], [8.0]]))
        assert np.allclose(X, [[1.0], [2.0]])

    def test_residual_fuzz(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            M = rng.normal(size=(8, 8)) + 8 * np.eye(8)
            B = rng.normal(size=(8, 3))
            X = solve_linear(M, B)
            scale = (np.linalg.norm(M, np.inf) * np.linalg.norm(X, np.inf)
                     + np.linalg.norm(B, np.inf))
            assert np.linalg.norm(M @ X - B, np.inf) <= 1e-10 * scale

    def test_singular_raises(self):
        M = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(Singular):
            solve_linear(M, np.eye(2))

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_matches_scipy_lu_bitwise(self, order):
        # the getrf/getrs pair is what scipy's lu_factor/lu_solve run
        rng = np.random.default_rng(15)
        for n in (1, 4, 15):
            M = np.asarray(rng.normal(size=(n, n)) + n * np.eye(n), order=order)
            lu_piv = scipy.linalg.lu_factor(M)
            for B in (rng.normal(size=(n, 3)), rng.normal(size=n), np.zeros((n, 0))):
                X = solve_linear(M, B)
                assert X.shape == B.shape
                assert np.array_equal(X, scipy.linalg.lu_solve(lu_piv, B))

    @pytest.mark.parametrize("B", [np.ones((3, 2)), np.ones(3), np.zeros((3, 0))])
    def test_exact_zero_pivot_raises(self, B):
        # getrf reports info > 0 here; the pivot test raises, with no warning
        M = np.array([[1.0, 0.0, 2.0], [3.0, 0.0, 1.0], [0.5, 0.0, 4.0]])
        with pytest.raises(Singular):
            solve_linear(M, B)


class TestSolveSylvester:
    def test_scalar(self):
        X = solve_sylvester(np.array([[-2.0]]), np.array([[-3.0]]),
                            np.array([[5.0]]))
        assert np.allclose(X, [[-1.0]])

    def test_zero_rhs(self):
        rng = np.random.default_rng(1)
        K = rng.normal(size=(3, 3)) - 4 * np.eye(3)
        U = rng.normal(size=(2, 2)) - 4 * np.eye(2)
        assert np.array_equal(solve_sylvester(K, U, np.zeros((3, 2))),
                              np.zeros((3, 2)))

    def test_quadrature_oracle(self):
        # for stable K and U the solution of K X + X U = H is
        # -int_0^inf exp(Kt) H exp(Ut) dt
        rng = np.random.default_rng(2)
        K = rng.normal(size=(3, 3)) - 3 * np.eye(3)
        U = rng.normal(size=(2, 2)) - 3 * np.eye(2)
        H = rng.normal(size=(3, 2))
        X = solve_sylvester(K, U, H)
        integral = simpson_matrix(
            lambda t: matrix_exp(K * t) @ H @ matrix_exp(U * t), 0.0, 30.0, 3000)
        assert np.abs(X + integral).max() < 1e-8
        assert sylvester_residual(K, U, H, X) <= 1e-10

    def test_fixed_point_agreement(self):
        # on diagonally dominant data the iteration X <- K^{-1}(H - X U)
        # converges to the same solution
        rng = np.random.default_rng(3)
        K = rng.normal(size=(4, 4)) + 10 * np.eye(4)
        U = 0.5 * rng.normal(size=(3, 3))
        H = rng.normal(size=(4, 3))
        X = solve_sylvester(K, U, H)
        Y = np.zeros((4, 3))
        for _ in range(300):
            Y = solve_linear(K, H - Y @ U)
        assert np.abs(X - Y).max() < 1e-9

    def test_large_problem(self):
        # pq = 4900 > 4096, beyond what a dense Kronecker solve can afford
        rng = np.random.default_rng(4)
        K = rng.normal(size=(70, 70)) / 10 - 3 * np.eye(70)
        U = rng.normal(size=(70, 70)) / 10 - 2 * np.eye(70)
        H = rng.normal(size=(70, 70))
        assert sylvester_residual(K, U, H, solve_sylvester(K, U, H)) <= 1e-12

    def test_shared_spectrum_is_singular(self):
        # spec(K) = {1, 2} meets spec(-U) = {1, -3}
        with pytest.raises(Singular):
            solve_sylvester(np.diag([1.0, 2.0]), np.diag([-1.0, 3.0]),
                            np.ones((2, 2)))

    @pytest.mark.parametrize("p,q", [(0, 3), (3, 0), (0, 0)])
    def test_empty_shapes_skip_schur(self, p, q, monkeypatch):
        def no_schur(*args, **kwargs):
            raise AssertionError("schur called on an empty problem")
        monkeypatch.setattr(numerics, "_real_schur", no_schur)
        X = solve_sylvester(np.zeros((p, p)), np.zeros((q, q)), np.zeros((p, q)))
        assert X.shape == (p, q)

    def test_complex_pair_shared_is_singular(self):
        # spec(K) = {+-i, -3} meets spec(-U) = {+-i, 2} only at the conjugate pair
        R = np.array([[0.0, 1.0], [-1.0, 0.0]])
        Q, _ = np.linalg.qr(np.random.default_rng(6).normal(size=(3, 3)))
        K = Q @ scipy.linalg.block_diag(R, -3.0) @ Q.T
        U = Q.T @ scipy.linalg.block_diag(R, -2.0) @ Q
        with pytest.raises(Singular):
            solve_sylvester(K, U, np.ones((3, 3)))

    def test_complex_pair_gap_is_imaginary(self):
        # spec(K) = {0.5 +- i} and spec(-U) = {0.5 -+ 2i} share real parts
        # only, so the gap is the imaginary distance
        R = np.array([[0.0, 1.0], [-1.0, 0.0]])
        K = 0.5 * np.eye(2) + R
        U = -0.5 * np.eye(2) + 2.0 * R.T
        H = np.random.default_rng(7).normal(size=(2, 2))
        expected = scipy.linalg.solve_sylvester(K, U, H)
        assert np.abs(solve_sylvester(K, U, H) - expected).max() <= (
            1e-13 * np.abs(expected).max())

    def test_failed_schur_is_no_convergence(self, gees_fails):
        with pytest.raises(NoConvergence):
            solve_sylvester(-np.eye(2), -np.eye(2), np.ones((2, 2)))

    def test_solver_matches_scipy(self):
        rng = np.random.default_rng(5)
        K = rng.normal(size=(12, 12))
        U = rng.normal(size=(9, 9)) + 6 * np.eye(9)
        solve = sylvester_solver(K, U)
        for _ in range(2):  # the factors are reused across right-hand sides
            H = rng.normal(size=(12, 9))
            expected = scipy.linalg.solve_sylvester(K, U, H)
            assert np.abs(solve(H) - expected).max() <= 1e-13 * np.abs(expected).max()


@pytest.mark.parametrize("n", [1, 2, 5, 38, 80, 120, 200])
def test_real_schur_matches_scipy(n):
    # from n = 75 on LAPACK takes the multishift QR, whose result can depend
    # on the workspace size; with OpenBLAS 0.3.31 the minimal workspace gives
    # another T at n = 200, so this also pins the workspace query
    M = np.random.default_rng(n).normal(size=(n, n))
    T, Z, lam = numerics._real_schur(M)
    T_ref, Z_ref = scipy.linalg.schur(M, output="real")
    assert np.array_equal(T, T_ref) and np.array_equal(Z, Z_ref)
    ref = np.linalg.eigvals(M)
    rows, cols = linear_sum_assignment(np.abs(lam[:, None] - ref))
    assert np.abs(lam[rows] - ref[cols]).max() <= 1e-12 * np.abs(ref).max()


class TestMatrixExp:
    def test_zero(self):
        assert np.array_equal(matrix_exp(np.zeros((3, 3))), np.eye(3))

    def test_diagonal(self):
        out = matrix_exp(np.diag([1.0, -2.0]))
        assert np.allclose(out, np.diag([np.e, np.exp(-2.0)]), rtol=1e-14)

    def test_nilpotent(self):
        out = matrix_exp(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert np.allclose(out, [[1.0, 1.0], [0.0, 1.0]], atol=1e-15)

    def test_inverse_identity(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            M = rng.normal(size=(5, 5))
            M *= 10.0 / max(np.linalg.norm(M, 1), 10.0)
            P = matrix_exp(M) @ matrix_exp(-M)
            assert np.abs(P - np.eye(5)).max() < 1e-9

    def test_matches_scipy(self):
        rng = np.random.default_rng(5)
        M = rng.normal(size=(6, 6)) * 3.0
        assert np.allclose(matrix_exp(M), scipy.linalg.expm(M),
                           rtol=1e-11, atol=1e-11)


class TestExpEvaluator:
    def test_zero_and_nilpotent_are_exact(self):
        zero = exp_evaluator(np.zeros((3, 3)))
        nilpotent = exp_evaluator(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert exp_evaluator(np.zeros((0, 0)))(1.0).shape == (0, 0)
        for x in (0.0, 0.3, 7.0, 1e20):
            assert np.array_equal(zero(x), np.eye(3))
            assert np.array_equal(nilpotent(x), [[1.0, x], [0.0, 1.0]])

    @pytest.mark.parametrize("n", [1, 9, 40])
    def test_zero_level_is_exact_for_a_dense_matrix(self, n):
        M = np.random.default_rng(n).normal(size=(n, n)) * 3.0
        assert np.array_equal(exp_evaluator(M)(0.0), np.eye(n))

    def test_diagonal_and_scalar(self):
        diagonal = exp_evaluator(np.diag([1.0, -2.0, 0.0]))
        scalar = exp_evaluator(np.array([[-0.7]]))
        for x in (0.0, 0.5, 2.0, 9.0):
            assert np.allclose(diagonal(x), np.diag(np.exp([x, -2.0 * x, 0.0])),
                               rtol=1e-14, atol=0.0)
            assert abs(scalar(x)[0, 0] / np.exp(-0.7 * x) - 1.0) <= 1e-14

    def test_matches_scipy(self):
        rng = np.random.default_rng(69)
        for n, scale in ((2, 0.1), (6, 1.0), (9, 3.0)):
            M = rng.normal(size=(n, n)) * scale
            E = exp_evaluator(M)
            for x in (0.0, 0.05, 0.7, 4.0):
                want = scipy.linalg.expm(M * x)
                assert np.abs(E(x) - want).max() <= 1e-12 * np.abs(want).max(), (n, x)

    @pytest.mark.parametrize("x", [-1.0, np.inf, np.nan])
    def test_bad_level(self, x):
        with pytest.raises(ValueError):
            exp_evaluator(np.eye(2))(x)

    def test_overflowing_scaling_is_inconclusive(self):
        with pytest.raises(Inconclusive):
            exp_evaluator(-4.0 * np.eye(2))(1e308)


class TestGroupInverse:
    def test_two_state(self):
        M = np.array([[-1.0, 1.0], [1.0, -1.0]])
        sharp = group_inverse(M, np.array([0.5, 0.5]))
        assert np.allclose(sharp, M / 4.0, atol=1e-14)

    def test_nonsingular_reduces_to_inverse(self):
        M = np.array([[2.0, 1.0], [0.0, 3.0]])
        sharp = group_inverse(M, np.zeros(2))
        assert np.allclose(sharp, np.linalg.inv(M), atol=1e-13)

    def test_identities_fuzz(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            M = random_generator(4, rng)
            pi = null_row_vector(M)
            sharp = group_inverse(M, pi)
            assert np.abs(M @ sharp @ M - M).max() < 1e-10
            assert np.abs(sharp @ M @ sharp - sharp).max() < 1e-10
            assert np.abs(M @ sharp - sharp @ M).max() < 1e-10


class TestStableSpectrum:
    def test_minus_identity(self):
        from mmfq.numerics import stable_spectrum
        assert stable_spectrum(-np.eye(3)) is True

    def test_zero_is_inconclusive(self):
        from mmfq.numerics import stable_spectrum
        with pytest.raises(Inconclusive):
            stable_spectrum(np.array([[0.0]]))

    def test_positive_abscissa(self):
        from mmfq.numerics import stable_spectrum
        assert stable_spectrum(np.array([[0.5]])) is False

    def test_non_normal_stable(self):
        # exp(M) grows a thousandfold before it decays; the spectrum is {-1e-3}
        from mmfq.numerics import stable_spectrum
        assert stable_spectrum(np.array([[-1e-3, 1e3], [0.0, -1e-3]])) is True


class TestConvIntegral:
    def test_zero_length(self):
        K = np.array([[-1.0, 0.5], [0.0, -2.0]])
        assert np.array_equal(conv_integral(K, np.eye(2), 0.0), np.zeros((2, 2)))

    def test_zero_exponent(self):
        D = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.allclose(conv_integral(np.zeros((2, 2)), D, 2.5), 2.5 * D,
                           atol=1e-13)

    def test_scalar_closed_form(self):
        # commuting K and D give x exp(Kx) D
        out = conv_integral(np.array([[-1.0]]), np.array([[1.0]]), 1.0)
        assert abs(out[0, 0] - np.exp(-1.0)) < 1e-14

    def test_simpson_fuzz(self):
        rng = np.random.default_rng(7)
        K = rng.normal(size=(3, 3)) - 2 * np.eye(3)
        D = rng.normal(size=(3, 3))
        for x in (0.7, 2.0, 5.0):
            quad = simpson_matrix(
                lambda s: matrix_exp(K * (x - s)) @ D @ matrix_exp(K * s),
                0.0, x, 2000)
            assert np.abs(conv_integral(K, D, x) - quad).max() < 1e-8


class TestNullRowVector:
    def test_symmetric_generator(self):
        M = np.array([[-1.0, 1.0], [1.0, -1.0]])
        assert np.allclose(null_row_vector(M), [0.5, 0.5], atol=1e-14)

    def test_residual(self):
        rng = np.random.default_rng(8)
        M = random_generator(6, rng)
        v = null_row_vector(M)
        assert np.abs(v @ M).max() <= 1e-10 * np.linalg.norm(M, np.inf)
        assert abs(v.sum() - 1.0) < 1e-12
