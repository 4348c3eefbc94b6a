"""Invariances of the first-return matrix, checked on seeded random models."""

import numpy as np

from mmfq import solve_psi, validate_model

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
    # scaling A and c together runs the same sample paths at speed s
    for A, c, rng in random_models(71):
        s = 10.0 ** rng.uniform(-3.0, 3.0)
        labels = np.arange(len(c))
        assert np.abs(psi_by_phase(s * A, s * c, labels)
                      - psi_by_phase(A, c, labels)).max() <= 1e-13, s
