import dataclasses
import pickle

import mpmath
import numpy as np
import pytest

from mmfq import expand, solve_psi, validate_model, validate_perturbation
from mmfq.bench import case_model
from mmfq.density import (density1_at, density_at, first_order_law,
                          stationary_law, zero_mass)
from mmfq.errors import (Inconclusive, NotGeneratorKind, NotRecurrent, SingularNormalization,
                         SingularSystem)
from mmfq.numerics import _THETA24
from mmfq.riccati import perturbed_model

from conftest import group_inverse, random_generator_direction, random_recurrent_model


def total_mass_by_quadrature(model, sol, law, x_max, n_points=4001):
    xs = np.linspace(1e-9, x_max, n_points)
    dens = np.array([density_at(law, sol.psi, model, x).sum() for x in xs])
    from scipy.integrate import simpson
    return zero_mass(law, model).sum() + simpson(dens, x=xs)


def laws(model, direction):
    """Solution, psi1, stationary law and first-order law along ``direction``."""
    sol = solve_psi(model)
    spec = validate_perturbation(model, "generator", direction)
    psi1 = expand(model, sol, spec).psi1
    return (sol, psi1, stationary_law(model, sol),
            first_order_law(model, sol, spec.direction, psi1))


def mp_row(model, v, up, psi, theta):
    """v [diag(up) | psi |C-|^{-1} | Theta] summed in mpmath, canonical order."""
    p, cm = model.n_plus, model.c_minus_abs
    row = np.empty(model.n, dtype=object)
    row[model.ip] = [v[i] * up[i] for i in range(p)]
    row[model.im] = [mpmath.fsum(v[i] * psi[i, j] for i in range(p)) / cm[j]
                     for j in range(model.n_minus)]
    row[model.i0] = [mpmath.fsum(v[i] * theta[i, j] for i in range(p))
                     for j in range(model.n_zero)]
    return row


def raise_singular_system(*args):
    raise SingularSystem("injected")


@pytest.fixture(scope="module")
def case_2a():
    # the stiff case, on the grid points where the round-off of the double
    # evaluation is largest
    model, _ = case_model("2a")
    sol, psi1, law, fol = laws(model, random_generator_direction(
        model, np.random.default_rng([1, 3])))
    xs = np.linspace(1e-9, 50.0 / abs(np.linalg.eigvals(law.K).real.max()), 501)
    return model, sol, psi1, law, fol, xs, (1, 4, 8, 14, 15, 30, 100)


@pytest.fixture(scope="module")
def five_phase():
    # comfortably recurrent so the density decays fast enough to integrate
    rng = np.random.default_rng(60)
    model = random_recurrent_model(5, rng, signs=[1, 1, 0, -1, -1],
                                   max_drift=-0.4)
    sol = solve_psi(model)
    return model, sol, stationary_law(model, sol)


class TestStationaryLaw:
    def test_two_phase_closed_form(self, two_phase):
        sol = solve_psi(two_phase)
        law = stationary_law(two_phase, sol)
        assert abs(law.K[0, 0] + 0.5) < 1e-14
        assert abs(law.p_minus[0] - 0.25) < 1e-12
        assert abs(law.q[0] - 0.25) < 1e-12
        pi1 = density_at(law, sol.psi, two_phase, 1.0)
        assert abs(pi1[0] - 0.25 * np.exp(-0.5)) < 1e-10
        assert abs(pi1[1] - 0.125 * np.exp(-0.5)) < 1e-10
        assert np.array_equal(zero_mass(law, two_phase), [0.0, 0.25])

    def test_total_mass_one(self, five_phase):
        model, sol, law = five_phase
        abscissa = np.linalg.eigvals(law.K).real.max()
        mass = total_mass_by_quadrature(model, sol, law, 50.0 / abs(abscissa))
        assert abs(mass - 1.0) < 1e-8

    def test_positivity_on_log_grid(self, case_1a):
        model, _ = case_1a
        sol = solve_psi(model)
        law = stationary_law(model, sol)
        for x in np.logspace(-1, 1, 100):
            assert density_at(law, sol.psi, model, x).min() >= -1e-12

    def test_decay_matches_spectral_abscissa(self, five_phase):
        model, sol, law = five_phase
        abscissa = np.linalg.eigvals(law.K).real.max()
        xs = np.linspace(10.0, 50.0, 9) / abs(abscissa) * 0.5
        vals = [np.abs(density_at(law, sol.psi, model, x)).max() for x in xs]
        slope = np.polyfit(xs, np.log(vals), 1)[0]
        assert abs(slope - abscissa) <= 0.02 * abs(abscissa)

    def test_far_field_vanishes(self, case_1a):
        model, _ = case_1a
        sol = solve_psi(model)
        law = stationary_law(model, sol)
        assert np.abs(density_at(law, sol.psi, model, 200.0)).max() <= 1e-12

    def test_negative_level_rejected(self, case_1a):
        # below level zero the exponential grows: case 1a gave entries of -26.8
        model, _ = case_1a
        sol = solve_psi(model)
        with pytest.raises(ValueError):
            density_at(stationary_law(model, sol), sol.psi, model, -1.0)

    @pytest.mark.parametrize("x,error", [(np.inf, ValueError), (np.nan, ValueError),
                                         (1e308, Inconclusive)])
    def test_level_out_of_range(self, case_1a, x, error):
        # at 1e308 x times the scaling norm of K overflows; the true density
        # is zero there
        model, _ = case_1a
        sol, psi1, law, fol = laws(model, random_generator_direction(
            model, np.random.default_rng(65)))
        with pytest.raises(error):
            density_at(law, sol.psi, model, x)
        with pytest.raises(error):
            density1_at(fol, law, model, sol.psi, psi1, x)

    def test_underflowed_level_is_zero(self, case_1a):
        # at 5e39 the squarings underflow to the exact zero the density is
        model, _ = case_1a
        sol, psi1, law, fol = laws(model, random_generator_direction(
            model, np.random.default_rng(65)))
        assert np.array_equal(density_at(law, sol.psi, model, 5e39), np.zeros(model.n))
        assert np.array_equal(density1_at(fol, law, model, sol.psi, psi1, 5e39),
                              np.zeros(model.n))

    def test_case_2a_against_extended_precision(self, case_2a):
        # density_at against q exp(K x) [C+^{-1} | psi |C-|^{-1} | Theta]
        # evaluated at 40 digits from the same double inputs
        model, sol, _, law, _, xs, ks = case_2a
        got = np.array([density_at(law, sol.psi, model, x) for x in xs])
        with mpmath.workdps(40):
            for k in ks:
                a = mpmath.matrix([law.q.tolist()]) \
                    * mpmath.expm(mpmath.matrix(law.K.tolist()) * xs[k])
                want = mp_row(model, a, 1.0 / model.c_plus, sol.psi, law.Theta)
                err = np.abs(got[k][model.perm] - want.astype(float)).max()
                assert err <= 1e-12 * np.abs(got).max(), (k, err)

    def test_not_recurrent(self):
        model = validate_model([[-1.0, 1.0], [1.0, -1.0]], [2.0, -1.0])
        with pytest.raises(NotRecurrent):
            stationary_law(model, solve_psi(model))

    @pytest.mark.parametrize("name,replacement,message", [
        ("null_row_vector", raise_singular_system, "injected"),
        ("null_row_vector", lambda S: -np.ones(S.shape[0]), "negative boundary mass"),
        ("solve_linear", lambda M, b: np.full(b.shape, -1e300), "normalization denominator")])
    def test_singular_normalization(self, five_phase, monkeypatch, name, replacement, message):
        # a recurrent model gives none of these, so each failure is injected
        # into the boundary null vector or the normalisation solve
        model, sol, _ = five_phase
        monkeypatch.setattr(f"mmfq.density.{name}", replacement)
        with pytest.raises(SingularNormalization, match=message):
            stationary_law(model, sol)

    def test_non_finite_row_is_inconclusive(self, five_phase):
        # the evaluator raises where its own scaling overflows; the row check
        # catches an exponential whose product with the factors is not finite
        model, sol, law = five_phase
        p = model.n_plus
        law = dataclasses.replace(law, exp_K=lambda x: np.full((p, p), np.inf))
        with pytest.raises(Inconclusive, match="not finite"):
            density_at(law, sol.psi, model, 1.0)


class TestFirstOrder:
    def make(self, seed=61):
        rng = np.random.default_rng(seed)
        model = random_recurrent_model(5, rng, signs=[1, 1, 0, -1, -1],
                                       max_drift=-0.3)
        spec = validate_perturbation(
            model, "generator", random_generator_direction(model, rng))
        sol = solve_psi(model)
        psi1 = expand(model, sol, spec).psi1
        return model, spec, sol, psi1

    def test_zero_direction_gives_zero_law(self, two_phase):
        sol = solve_psi(two_phase)
        fol = first_order_law(two_phase, sol, np.zeros((2, 2)),
                              np.zeros((1, 1)))
        assert np.abs(fol.K1).max() == 0.0
        assert np.abs(fol.q1).max() < 1e-13
        assert np.abs(fol.p1_minus).max() < 1e-13
        assert np.abs(density1_at(fol, stationary_law(two_phase, sol),
                                  two_phase, sol.psi, np.zeros((1, 1)),
                                  1.0)).max() < 1e-13

    def test_finite_difference(self):
        model, spec, sol, psi1 = self.make()
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
                fd = (density_at(law_e, sol_e.psi, pm, x) - base) / eps
                errs.append(np.abs(fd - d1).max())
            # one-sided difference: error drops linearly with eps
            assert errs[1] <= 0.3 * errs[0]

    def test_mass_derivative_vanishes(self):
        model, spec, sol, psi1 = self.make(seed=62)
        law = stationary_law(model, sol)
        fol = first_order_law(model, sol, spec.direction, psi1)
        # derivative of total mass = derivative of atoms + derivative of
        # the integral; evaluate the integral derivative numerically
        eps = 1e-6
        pm = perturbed_model(model, spec, eps)
        sol_e = solve_psi(pm)
        law_e = stationary_law(pm, sol_e)
        atoms1_fd = (zero_mass(law_e, pm).sum() - zero_mass(law, model).sum()) / eps
        atoms1 = fol.p1_minus.sum() + fol.p1_zero.sum()
        assert abs(atoms1_fd - atoms1) < 1e-6
        abscissa = np.linalg.eigvals(law.K).real.max()
        xs = np.linspace(1e-9, 60.0 / abs(abscissa), 4001)
        d1_tot = np.array([density1_at(fol, law, model, sol.psi, psi1, x).sum()
                           for x in xs])
        from scipy.integrate import simpson
        assert abs(atoms1 + simpson(d1_tot, x=xs)) < 1e-6

    def test_poisson_residual(self):
        from mmfq.density import _boundary_generator
        model, spec, sol, psi1 = self.make(seed=63)
        law = stationary_law(model, sol)
        fol = first_order_law(model, sol, spec.direction, psi1)
        At = spec.direction
        ip, i0, im = model.ip, model.i0, model.im
        S = _boundary_generator(model, model.block, sol.psi)
        S1 = np.vstack([
            np.hstack([At[np.ix_(im, im)] + At[np.ix_(im, ip)] @ sol.psi
                       + model.block(im, ip) @ psi1, At[np.ix_(im, i0)]]),
            np.hstack([At[np.ix_(i0, im)] + At[np.ix_(i0, ip)] @ sol.psi
                       + model.block(i0, ip) @ psi1, At[np.ix_(i0, i0)]])])
        p = np.concatenate([law.p_minus, law.p_zero])
        p1 = np.concatenate([fol.p1_minus, fol.p1_zero])
        assert np.abs(p1 @ S + p @ S1).max() <= 1e-9

    def test_case_2a_against_extended_precision(self, case_2a):
        # density1_at against its formula evaluated at 40 digits from the
        # same double inputs
        model, sol, psi1, law, fol, xs, ks = case_2a
        got = np.array([density1_at(fol, law, model, sol.psi, psi1, x) for x in xs])
        p = model.n_plus
        block = np.block([[law.K, fol.K1], [np.zeros((p, p)), law.K]])
        with mpmath.workdps(40):
            for k in ks:
                ab = mpmath.matrix([np.concatenate([law.q, fol.q1]).tolist()]) \
                    * mpmath.expm(mpmath.matrix(block.tolist()) * xs[k])
                a, b = ab[:p], ab[p:]  # q e^{Kx} and q1 e^{Kx} + q L1(x)
                want = mp_row(model, a, np.zeros(p), psi1, fol.Theta1) \
                    + mp_row(model, b, 1.0 / model.c_plus, sol.psi, law.Theta)
                err = np.abs(got[k][model.perm] - want.astype(float)).max()
                assert err <= 1e-12 * np.abs(got).max(), (k, err)

    def test_first_order_decay(self):
        model, spec, sol, psi1 = self.make(seed=64)
        law = stationary_law(model, sol)
        fol = first_order_law(model, sol, spec.direction, psi1)
        assert np.abs(density1_at(fol, law, model, sol.psi, psi1,
                                  200.0)).max() <= 1e-10

    def test_rate_kind_rejected(self, two_phase):
        from mmfq.density import require_generator_kind
        spec = validate_perturbation(two_phase, "rate", [0.1, 0.0])
        with pytest.raises(NotGeneratorKind):
            require_generator_kind(spec)


# phase signs of two seeded dense models: p = 3, and p = 12 where exp(G x) is 24 x 24
DENSE_SIGNS = {"dense": [1, 1, 1, 0, 0, -1, -1, -1], "dense-p12": [1] * 12 + [0] * 2 + [-1] * 10}


@pytest.mark.parametrize("name", ["1a", "2a", *DENSE_SIGNS])
def test_exponentials_against_extended_precision(name):
    # each law's evaluator against a 50-digit expm, just below and above
    # the levels 2^k theta24 / eta where its number of squarings steps up
    if name in DENSE_SIGNS:
        signs = DENSE_SIGNS[name]
        model = random_recurrent_model(len(signs), np.random.default_rng(67),
                                       signs=signs, max_drift=-0.1)
    else:
        model, _ = case_model(name)
    _, _, law, fol = laws(model, random_generator_direction(
        model, np.random.default_rng(68)))
    for M, E in ((law.K, law.exp_K), (fol.G, fol.exp_G)):
        for x in [2.0 ** k * _THETA24 / E.eta * f for k in (0, 3) for f in (0.999, 1.001)]:
            with mpmath.workdps(50):
                want = np.array(mpmath.expm(mpmath.matrix(M.tolist()) * x).tolist(),
                                dtype=float)
            assert np.abs(E(x) - want).max() <= 1e-13 * np.abs(want).max(), (x, M.shape)


def test_laws_pickle(case_1a):
    model, _ = case_1a
    sol, psi1, law, fol = laws(model, random_generator_direction(
        model, np.random.default_rng(65)))
    law2, fol2 = pickle.loads(pickle.dumps((law, fol)))
    for x in (0.0, 0.7, 30.0):
        assert np.array_equal(density_at(law2, sol.psi, model, x),
                              density_at(law, sol.psi, model, x))
        assert np.array_equal(density1_at(fol2, law2, model, sol.psi, psi1, x),
                              density1_at(fol, law, model, sol.psi, psi1, x))


def test_phase_order_invariance():
    # the same model with its phases listed in shuffled order: every output
    # is the unshuffled one permuted, which pins the columns of W and W1
    rng = np.random.default_rng(66)
    model = random_recurrent_model(7, rng, signs=[1, 1, 0, 0, -1, -1, -1],
                                   max_drift=-0.3)
    D = random_generator_direction(model, rng)
    order = np.array([4, 2, 0, 6, 3, 1, 5])
    shuffled = validate_model(model.A[np.ix_(order, order)], model.c[order])
    sol, psi1, law, fol = laws(model, D)
    sol_s, psi1_s, law_s, fol_s = laws(shuffled, D[np.ix_(order, order)])

    def close(got, want):
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    close(zero_mass(law_s, shuffled), zero_mass(law, model)[order])
    for x in (0.0, 0.7, 3.0):
        close(density_at(law_s, sol_s.psi, shuffled, x),
              density_at(law, sol.psi, model, x)[order])
        close(density1_at(fol_s, law_s, shuffled, sol_s.psi, psi1_s, x),
              density1_at(fol, law, model, sol.psi, psi1, x)[order])


def group_inverse_route(model, direction):
    """The first-order law along ``direction`` and its p1, q1 by the former
    route: the Poisson equation x S = -p S1 solved through the group inverse
    of S, its free constant fixed by the derivative of the normalization."""
    from mmfq.density import _boundary_generator
    from mmfq.numerics import solve_linear
    sol, psi1, law, fol = laws(model, direction)
    At = validate_perturbation(model, "generator", direction).direction
    ip, i0, im = model.ip, model.i0, model.im

    def at(rows, cols):
        return At[np.ix_(rows, cols)]

    S = _boundary_generator(model, model.block, sol.psi)
    S1 = _boundary_generator(model, at, sol.psi)
    S1[:, :model.n_minus] += model.block(np.concatenate([im, i0]), ip) @ psi1
    p = np.concatenate([law.p_minus, law.p_zero])
    p1_part = -(p @ S1) @ group_inverse(S, p / p.sum())
    q1_part = p1_part[:model.n_minus] @ model.block(im, ip) \
        + p1_part[model.n_minus:] @ model.block(i0, ip) \
        + law.p_minus @ at(im, ip) + law.p_zero @ at(i0, ip)
    y = solve_linear(-law.K, law.W.sum(axis=1))
    W1_top = fol.W1[:model.n_plus]
    mass1 = p1_part.sum() + q1_part @ y \
        + law.q @ solve_linear(-law.K, fol.K1 @ y + W1_top.sum(axis=1))
    return fol, p1_part - mass1 * p, q1_part - mass1 * law.q


def models_with_zero_phases(which):
    if which == "1a":
        yield case_model("1a")[0]
    elif which == "random":
        rng = np.random.default_rng(67)
        found = 0
        while found < 40:
            model = random_recurrent_model(int(rng.integers(3, 25)), rng)
            if model.n_zero:
                found += 1
                yield model
    else:
        yield random_recurrent_model(60, np.random.default_rng(68),
                                     signs=np.repeat([1, 0, -1], [20, 10, 30]))


@pytest.mark.parametrize("which", ["1a", "random", "n60"])
def test_bordered_boundary_derivative_matches_group_inverse_route(which):
    # p1 and q1 from the differentiated bordered system against the former
    # Poisson/group-inverse route, to 1e-12 of the largest entry
    rng = np.random.default_rng(69)
    for model in models_with_zero_phases(which):
        fol, p1, q1 = group_inverse_route(model, random_generator_direction(model, rng))
        got = np.concatenate([fol.p1_minus, fol.p1_zero])
        assert np.abs(got - p1).max() <= 1e-12 * np.abs(p1).max()
        assert np.abs(fol.q1 - q1).max() <= 1e-12 * np.abs(q1).max()


@pytest.mark.parametrize("which", ["1a", "four_zero"])
def test_zero_block_factored_once(which, monkeypatch):
    # solve_psi, expand, stationary_law and first_order_law along a generator
    # direction, as `mmfq density --pert` runs them: every solve_linear call
    # whose matrix is +-A_00 or its transpose is counted, in every module
    # that binds solve_linear
    import sys
    from mmfq import numerics
    rng = np.random.default_rng(70)
    if which == "1a":
        model = case_model("1a")[0]
    else:
        model = random_recurrent_model(9, rng, signs=[1, 1, 0, 0, 0, 0, -1, -1, -1])
    A00 = model.block(model.i0, model.i0)
    zero_block = (A00, -A00, A00.T, -A00.T)
    original, calls = numerics.solve_linear, []

    def counting(M, B):
        M = np.asarray(M)
        calls.append(any(M.shape == Z.shape and np.array_equal(M, Z) for Z in zero_block))
        return original(M, B)

    for name, module in list(sys.modules.items()):
        if name.startswith("mmfq") and getattr(module, "solve_linear", None) is original:
            monkeypatch.setattr(module, "solve_linear", counting)
    laws(model, random_generator_direction(model, rng))
    assert sum(calls) == 1
