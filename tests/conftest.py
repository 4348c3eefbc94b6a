import numpy as np
import pytest

from mmfq import mean_drift, validate_model
from mmfq.numerics import as_matrix, as_vector, solve_linear


def random_generator(n, rng, density=1.0):
    """Random irreducible generator with O(1) rates."""
    A = rng.uniform(0.1, 1.0, (n, n))
    if density < 1.0:
        mask = rng.random((n, n)) < density
        # keep a cycle so the graph stays strongly connected
        for i in range(n):
            mask[i, (i + 1) % n] = True
        A = A * mask
    np.fill_diagonal(A, 0.0)
    np.fill_diagonal(A, -A.sum(axis=1))
    return A


def random_recurrent_model(n, rng, signs=None, max_drift=-0.05):
    """Random validated model with comfortably negative drift."""
    while True:
        A = random_generator(n, rng)
        if signs is None:
            s = np.concatenate([[1, -1], rng.choice([1, 0, -1], size=n - 2)])
            rng.shuffle(s)
        else:
            s = np.asarray(signs)
        c = s * rng.uniform(0.5, 2.0, n)
        model = validate_model(A, c)
        if model.n_plus and model.n_minus and mean_drift(model) < max_drift:
            return model


def record_calls(monkeypatch, name):
    """Wrap the ``mmfq.numerics`` function ``name`` in every ``mmfq`` module
    that binds it; returns the list that collects each call's arguments."""
    import sys
    from mmfq import numerics
    original, calls = getattr(numerics, name), []

    def recording(*args):
        calls.append(args)
        return original(*args)

    for mod_name, module in list(sys.modules.items()):
        if mod_name.startswith("mmfq") and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, recording)
    return calls



def model_to_dict(model):
    """Serialize back to the on-disk layout, in the original phase order."""
    inv = np.argsort(model.perm)
    A = model.A.take(inv, 0).take(inv, 1)
    c = model.c[inv]
    return {"A": A.tolist(), "c": c.tolist(), "labels": list(model.labels)}

def stationary_of(A):
    """Stationary distribution of the generator ``A``, solved here: its null
    row vector, clipped at zero and normalised."""
    from mmfq.numerics import null_row_vector
    xi = np.clip(null_row_vector(A), 0.0, None)
    return xi / xi.sum()


def random_generator_direction(model, rng, scale=0.3):
    """Zero-row-sum direction (original phase order) with nonnegative
    off-diagonals, so A + eps*dir stays a generator for small eps > 0."""
    n = model.n
    D = rng.uniform(0.0, scale, (n, n))
    np.fill_diagonal(D, 0.0)
    np.fill_diagonal(D, -D.sum(axis=1))
    return D


def bd_identity_gap(model, spec, expansion):
    """Gap between the migration-block identities of the general regime.

    The four blocks built from the inner first-return matrix and the
    leading series coefficients must reassemble the inverse of the
    (negated) zero-phase block of the generator.  Returns the largest
    entrywise deviation.
    """
    from mmfq.numerics import solve_linear

    sb = expansion.aux["series"]
    io_p, io_m = spec.oplus, spec.ominus
    ct_op = spec.direction[io_p]
    ct_om = np.abs(spec.direction[io_m])
    psi_op_om = expansion.aux["psi_op_om"]
    n_op, n_om = len(io_p), len(io_m)
    neg_k_inv = solve_linear(-sb.k_m1_op_op, np.eye(n_op))
    neg_u_inv = solve_linear(-sb.u_m1_om_om, np.eye(n_om))
    A_om_op = model.A[np.ix_(io_m, io_p)]

    D_om_op = neg_u_inv @ (A_om_op / ct_om[:, None]) @ neg_k_inv / ct_op[None, :]
    D_op_op = neg_k_inv / ct_op[None, :] + psi_op_om @ D_om_op
    D_om_om = neg_u_inv @ (
        (np.eye(n_om) + A_om_op @ neg_k_inv @ (psi_op_om / ct_om[None, :]))
        / ct_om[:, None])
    D_op_om = neg_k_inv @ (psi_op_om / ct_om[None, :]) + psi_op_om @ D_om_om

    i0_split = np.concatenate([io_p, io_m])
    B = solve_linear(-model.A[np.ix_(i0_split, i0_split)],
                     np.eye(n_op + n_om))
    D = np.block([[D_op_op, D_op_om], [D_om_op, D_om_om]])
    return float(np.abs(D - B).max())


# the route of the boundary-mass derivative before the bordered solve; the
# tests keep it as a reference
def group_inverse(M: np.ndarray, left_null: np.ndarray) -> np.ndarray:
    """Group inverse of a rank-deficient generator-type matrix.

    ``left_null`` is the stationary row vector pi with pi M = 0 and
    pi 1 = 1; the group inverse is (M - 1 pi)^{-1} + 1 pi.  Passing the
    zero vector reduces to the ordinary inverse of a nonsingular M.
    """
    M = as_matrix(M, "M")
    pi = as_vector(left_null, "left_null")
    n = M.shape[0]
    if M.shape[0] != M.shape[1] or pi.shape[0] != n:
        raise ValueError(f"incompatible shapes {M.shape} and {pi.shape}")
    one_pi = np.outer(np.ones(n), pi)
    return solve_linear(M - one_pi, np.eye(n)) + one_pi


def mp_array(a):
    """Exact elementwise conversion of a float array to mpmath numbers."""
    import mpmath
    return np.vectorize(mpmath.mpf, otypes=[object])(np.asarray(a, dtype=float))


def oracle_psi(A, c, dps=50):
    """First-return matrix of the model (A, c) at ``dps`` digits.

    Uses none of the library's solver code.  With R the up and zero-rate
    phases, the rows of F(X) = Q_{R-} + Q_{RR} X + C_R X (Mu + Mb X) over
    the zero-rate phases are the censoring equations, so the up rows of
    the minimal root are psi (rows and columns in canonical order).  The
    generator is taken at ``dps`` digits with each diagonal entry set to
    minus its row's off-diagonal sum: the rounded double diagonal is not
    conservative, which moves the root near zero drift.  Monotone Newton
    from X0 = 0 takes its steps from the double Kronecker Jacobian and its
    residuals in double until the steps fall below 1e-6, then at ``dps``
    digits until they fall below 1e-40.
    """
    import mpmath
    A, c = np.asarray(A, dtype=float), np.asarray(c, dtype=float)
    R = np.concatenate([np.flatnonzero(c > 0), np.flatnonzero(c == 0)])
    M = np.flatnonzero(c < 0)
    p, q = len(R), len(M)
    with mpmath.workdps(dps):
        A_mp = mp_array(A - np.diag(np.diag(A)))
        A_mp[np.diag_indices_from(A_mp)] = -A_mp.sum(axis=1)
        cm = mp_array(-c[M])[:, None]
        exact = (A_mp[np.ix_(R, M)], A_mp[np.ix_(R, R)],
                 A_mp[np.ix_(M, M)] / cm, A_mp[np.ix_(M, R)] / cm,
                 mp_array(c[R])[:, None])
        rounded = [m.astype(float) for m in exact]

        def newton(X, coeffs, stop):
            Q_RM, Q_RR, Mu, Mb, cR = coeffs
            _, fQ_RR, fMu, fMb, fcR = rounded
            for _ in range(100):
                F = Q_RM + Q_RR @ X + cR * (X @ (Mu + Mb @ X))
                Xf = X.astype(float)
                J = (np.kron(np.eye(q), fQ_RR + fcR * (Xf @ fMb))
                     + np.kron((fMu + fMb @ Xf).T, np.diag(fcR[:, 0])))
                step = np.linalg.solve(J, -F.astype(float).reshape(-1, order="F"))
                X = X + step.reshape((p, q), order="F")
                if np.abs(step).max() < stop:
                    return X
            raise AssertionError("oracle Newton did not converge")

        X = newton(np.zeros((p, q)), rounded, 1e-6)
        return newton(mp_array(X), exact, 1e-40)[:int((c > 0).sum())]


@pytest.fixture
def two_phase():
    return validate_model([[-1.0, 1.0], [1.0, -1.0]], [1.0, -2.0])


@pytest.fixture(scope="session")
def case_1a():
    from mmfq.bench import case_model
    return case_model("1a")


@pytest.fixture
def gees_fails(monkeypatch):
    """Make the LAPACK ``gees`` handle that ``mmfq.numerics`` binds at import
    report info = 1, as when its QR iteration does not converge."""
    from mmfq import numerics

    gees = numerics._gees
    monkeypatch.setattr(numerics, "_gees",
                        lambda *args, **kwargs: gees(*args, **kwargs)[:-1] + (1,))
