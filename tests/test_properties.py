"""Invariances of the first-return matrix, checked on seeded random models,
and a seeded adversarial fuzz of the generator-direction pipeline."""

import numpy as np

from mmfq import (expand, first_order_law, solve_psi, stationary_law, validate_model,
                  validate_perturbation)
from mmfq.errors import FluidQueueError

from conftest import random_generator

N_MODELS = 50


def random_models(seed):
    """(A, c, rng) for N_MODELS random irreducible models with both rate
    signs present.  The drift takes either sign, so recurrent and
    transient models occur."""
    rng = np.random.default_rng(seed)
    for _ in range(N_MODELS):
        n = int(rng.integers(2, 8))
        signs = np.concatenate([[1, -1], rng.choice([1, 0, -1], size=n - 2)])
        yield random_generator(n, rng), signs * rng.uniform(0.5, 2.0, n), rng


def psi_by_phase(A, c, labels):
    """psi of (A, c) as an n x n array indexed by the phases' labels."""
    model = validate_model(A, c)
    psi = np.zeros((len(c), len(c)))
    rows, cols = labels[model.perm[model.ip]], labels[model.perm[model.im]]
    psi[np.ix_(rows, cols)] = solve_psi(model).psi
    return psi


def test_relabelling_permutes_psi():
    for A, c, rng in random_models(70):
        order = rng.permutation(len(c))
        expected = psi_by_phase(A, c, np.arange(len(c)))
        relabelled = psi_by_phase(A[np.ix_(order, order)], c[order], order)
        assert np.abs(relabelled - expected).max() <= 1e-13


def test_time_scaling_leaves_psi_unchanged():
    # scaling A and c together runs the same sample paths at speed s, also
    # where norm(s A) is far from 1
    for A, c, rng in random_models(71):
        labels = np.arange(len(c))
        expected = psi_by_phase(A, c, labels)
        for s in (10.0 ** rng.uniform(-3.0, 3.0), 1e-200, 1e-100, 1e-15, 1e15, 1e100, 1e200):
            assert np.abs(psi_by_phase(s * A, s * c, labels) - expected).max() <= 1e-13, s


def adversarial_draws(seed, draws):
    """(A, c, D) with n from 2 to 6 phases: each entry has a magnitude
    10^U(-2, 2) with probability 0.6, 10^U(-12, 12) with 0.2 and
    10^U(-320, 308) otherwise.  A's off-diagonal entries are nonzero with
    probability 0.7, each rate's sign is drawn from {-1, 0, 1}, and the
    direction D is dense; each diagonal is minus its row's sum."""
    g = np.random.default_rng(seed)

    def mag():
        u = g.random()
        lo, hi = (-2, 2) if u < 0.6 else (-12, 12) if u < 0.8 else (-320, 308)
        return 10.0 ** g.uniform(lo, hi)

    for _ in range(draws):
        n = int(g.integers(2, 7))
        A = np.array([[mag() if i != j and g.random() < 0.7 else 0.0 for j in range(n)]
                      for i in range(n)])
        c = np.array([mag() * g.choice([-1, 0, 1]) for _ in range(n)])
        D = np.array([[mag() if i != j else 0.0 for j in range(n)] for i in range(n)])
        for M in (A, D):
            np.fill_diagonal(M, -M.sum(axis=1))
        yield A, c, D


def test_adversarial_draws_are_finite_or_raise():
    # each draw runs the calls of `mmfq density --pert`; with warnings as
    # errors (pyproject.toml), every one returns finite arrays or raises a
    # FluidQueueError.  Draws 149, 651 and 1094 reach a subnormal pivot in
    # the censoring, an overflow-prone normalisation derivative and a shift
    # out of the double range
    for draw, (A, c, D) in enumerate(adversarial_draws(3, 1500)):
        try:
            model = validate_model(A, c)
            sol = solve_psi(model)
            spec = validate_perturbation(model, "generator", D)
            psi1 = expand(model, sol, spec).psi1
            law = stationary_law(model, sol)
            fol = first_order_law(model, sol, spec.direction, psi1)
        except FluidQueueError:
            continue
        arrays = [psi1] + [a for result in (sol, law, fol) for a in vars(result).values()
                           if isinstance(a, np.ndarray)]
        assert all(np.isfinite(a).all() for a in arrays), draw
