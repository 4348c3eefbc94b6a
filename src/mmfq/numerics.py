"""Dense linear-algebra kernels shared by the solver modules.

Everything works on plain ``numpy.ndarray`` in double precision.  Inputs
crossing the public API are validated with :func:`as_matrix`, which rejects
non-finite entries.  The LU solves also take the complex arrays of the
stationary law's complex step (``density.first_order_law``).

The LAPACK kernels come from scipy's compiled ``_flapack`` extension,
loaded from its file: ``scipy.linalg`` imports ``numpy.testing`` and
``numpy.f2py``, which would more than double the CLI's cold start.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from importlib.machinery import PathFinder
from importlib.util import module_from_spec

import numpy as np
import scipy

from .errors import Inconclusive, NoConvergence, SingularSystem, Singular

PIVOT_RTOL = 1e-14
SPECTRAL_MARGIN = 1e-8
NULL_RTOL = 1e-10

# the double-precision LAPACK kernels, bound once, and the complex LU pair:
# the objects scipy.linalg.get_lapack_funcs returns for float64 and complex128
_spec = PathFinder.find_spec("scipy.linalg._flapack", [os.path.join(scipy.__path__[0], "linalg")])
_flapack = module_from_spec(_spec)
_spec.loader.exec_module(_flapack)
_getrf, _getrs, _gees, _trsyl = _flapack.dgetrf, _flapack.dgetrs, _flapack.dgees, _flapack.dtrsyl
_zgetrf, _zgetrs = _flapack.zgetrf, _flapack.zgetrs
# optimal gees workspace per order n: LAPACK sizes it from n alone
_GEES_LWORK: dict[int, int] = {}


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D float array, rejecting NaN/Inf entries."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} contains non-finite entries")
    return m


def as_vector(a, name: str = "vector") -> np.ndarray:
    m = np.asarray(a, dtype=float)
    if m.ndim != 1:
        raise ValueError(f"{name} must be 1-dimensional, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} contains non-finite entries")
    return m


def _inf_norm(X: np.ndarray):
    """Largest absolute row sum: the reduction of numpy's matrix inf-norm,
    as the ufunc reductions that ``sum`` and ``max`` wrap."""
    return np.maximum.reduce(np.add.reduce(np.abs(X), 1), initial=0.0)


def solve_linear(M: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solve M X = B by partially pivoted LU, one LAPACK getrf/getrs pair.

    Raises :class:`Singular` when an LU pivot falls below
    ``1e-14 * norm(M, inf)``, as an exactly zero one does.  A complex M
    goes to the complex pair, unchecked for non-finite entries.
    """
    M = M if np.iscomplexobj(M) else as_matrix(M, "M")
    B = np.asarray(B, dtype=M.dtype)
    if M.shape[0] != M.shape[1]:
        raise ValueError(f"M must be square, got {M.shape}")
    if M.size == 0:
        return np.zeros_like(B)
    scale = _inf_norm(M)
    getrf, getrs = (_zgetrf, _zgetrs) if M.dtype == complex else (_getrf, _getrs)
    lu, piv, _ = getrf(M)
    pivots = np.abs(np.diag(lu))
    if scale == 0.0 or pivots.min() < PIVOT_RTOL * scale:
        raise Singular(f"pivot {pivots.min():.3e} below {PIVOT_RTOL:.0e} * {scale:.3e}")
    return getrs(lu, piv, B)[0]


def _real_schur(M: np.ndarray):
    """Real Schur form M = Z T Z^T and the eigenvalues of M from one LAPACK
    ``gees`` call, with the optimal workspace ``scipy.linalg.schur`` queries
    (from n = 75 on, multishift QR's T depends on it); the query runs once
    per order."""
    n = len(M)
    if n not in _GEES_LWORK:
        _GEES_LWORK[n] = int(_gees(lambda x, y: None, M, lwork=-1)[-2][0])
    T, _, wr, wi, Z, _, info = _gees(lambda x, y: None, M, lwork=_GEES_LWORK[n])
    if info != 0:
        raise NoConvergence(f"LAPACK gees found no Schur form (info {info})")
    return T, Z, wr + 1j * wi


def sylvester_solver(K: np.ndarray, U: np.ndarray):
    """Bartels-Stewart factorisation of the operator X -> K X + X U.

    Computes the real Schur forms K = Q T Q^T and U^T = Z S Z^T once and
    returns ``solve(H)``, which solves K X + X U = H with one LAPACK
    ``trsyl`` call.  Raises :class:`Singular` when spec(K) comes within
    ``PIVOT_RTOL * (norm(K, inf) + norm(U, inf))`` of spec(-U), and
    :class:`NoConvergence` when ``gees`` finds no Schur form.
    """
    p, q = K.shape[0], U.shape[0]
    if p == 0 or q == 0:
        return lambda H: np.zeros((p, q))
    T, Q, lam_K = _real_schur(K)
    S, Z, lam_U = _real_schur(U.T)
    scale = _inf_norm(K) + _inf_norm(U)
    gap = np.abs(lam_K[:, None] + lam_U).min()
    if scale == 0.0 or gap < PIVOT_RTOL * scale:
        raise Singular(f"spectral gap {gap:.3e} below {PIVOT_RTOL:.0e} * {scale:.3e}")

    def solve(H: np.ndarray) -> np.ndarray:
        # T Y + Y S^T = factor * Q^T H Z; the gap check covers trsyl's info
        Y, factor, _ = _trsyl(T, S, Q.T.dot(H).dot(Z), tranb="T")
        return Q.dot(Y / factor).dot(Z.T)

    return solve


def solve_sylvester(K: np.ndarray, U: np.ndarray, H: np.ndarray) -> np.ndarray:
    """Solve K X + X U = H with one :func:`sylvester_solver` call."""
    K, U, H = as_matrix(K, "K"), as_matrix(U, "U"), as_matrix(H, "H")
    return sylvester_solver(K, U)(H)


def sylvester_residual(K, U, H, X) -> float:
    """Relative residual norm(K X + X U - H) / scale of the data."""
    num = _inf_norm(K @ X + X @ U - H)
    scale = ((_inf_norm(K) + _inf_norm(U)) * max(_inf_norm(X), 1e-300)
             + _inf_norm(H))
    return num / max(scale, 1e-300)


# Taylor degree 24 after Al-Mohy & Higham, SISC 33(2), 2011: the coefficients
# 1/k!, k = 24 down to 0 as the powers are stored (1/0! = 1 keeps exp(0) = I
# exact), and theta_24, the largest t with h~_25(t)/t <= 2^-53 where h_25(x) =
# log(e^-x T_24(x)) (2.21905; Higham 2008, Table A.3, rounds it up to 2.22)
_DEGREES = np.arange(24.0, -1.0, -1.0)
_TAYLOR24 = np.array([1.0 / math.factorial(k) for k in range(24, -1, -1)])
_THETA24 = 2.219


@dataclass(frozen=True)
class ExpEvaluator:
    """x -> exp(M x) from :func:`exp_evaluator`: the powers M^24, ..., M, I
    of M scaled by 2^-sigma, one flattened per row, and the scaling norm
    eta of the unscaled M."""

    powers: np.ndarray
    sigma: int
    eta: float

    def __call__(self, x: float) -> np.ndarray:
        """exp(M x) for finite x >= 0; Inconclusive where x eta overflows."""
        if not 0 <= x < np.inf:
            raise ValueError(f"x must be finite and nonnegative, got {x}")
        x_eta, n, s = x * self.eta, math.isqrt(self.powers.shape[1]), 0
        if x_eta == np.inf:
            raise Inconclusive(f"scaling norm of exp(M x) overflows at x = {x}")
        if x_eta > 0:
            s = max(math.ceil(math.log2(x_eta / _THETA24)), 0)
        t = math.ldexp(x, self.sigma - s)  # the Taylor step is exp(t M)
        # one product; .dot makes @'s BLAS call, with less dispatch
        R = (_TAYLOR24 * t ** _DEGREES).dot(self.powers).reshape(n, n)
        for _ in range(s):
            R = R.dot(R)
        return R


def exp_evaluator(M: np.ndarray) -> ExpEvaluator:
    """Taylor degree 24 scaling and squaring for exp(M x), set up once per M.

    The scaling comes from ||(x M)^k||^{1/k} = x ||M^k||^{1/k}, so the
    powers of M up to M^24 and with them the exact 1-norms of M^2, ...,
    M^6 are built here, once.  M is first scaled to unit 1-norm by a power
    of two.
    """
    sigma = math.frexp(_inf_norm(M.T))[1]
    n = len(M)
    powers = np.empty((25, n, n))  # M^24 first: each combination adds the small terms first
    P = powers[::-1]  # P[k] = M^k
    P[0], P[1] = np.eye(n), np.ldexp(M, -sigma)
    for k in range(2, 25):
        P[k] = P[k // 2] @ P[k - k // 2]
    d = {k: _inf_norm(P[k].T) ** (1.0 / k) for k in range(2, 7)}
    # min over p(p - 1) <= 25 of max(d_p, d_p+1), floored so that t < 2^22
    # and t^24 stays finite, as for a nilpotent M
    eta = max(min(max(d[p], d[p + 1]) for p in range(2, 6)), 2.0 ** -20)
    return ExpEvaluator(powers=powers.reshape(25, n * n), sigma=sigma,
                        eta=math.ldexp(eta, sigma))


def matrix_exp(M: np.ndarray) -> np.ndarray:
    """Matrix exponential, :func:`exp_evaluator` at x = 1."""
    M = as_matrix(M, "M")
    if M.shape[0] != M.shape[1]:
        raise ValueError(f"M must be square, got {M.shape}")
    return exp_evaluator(M)(1.0)


def stable_spectrum(M: np.ndarray) -> bool:
    """True iff the spectral abscissa of M is negative.

    The abscissa is the largest real part of ``eigvals(M)``.  Raises
    :class:`Inconclusive` when it is within ``SPECTRAL_MARGIN`` of zero.
    """
    abscissa = float(np.linalg.eigvals(as_matrix(M, "M")).real.max(initial=-np.inf))
    if abs(abscissa) <= SPECTRAL_MARGIN:
        raise Inconclusive(f"spectral abscissa {abscissa!r} within margin of 0")
    return abscissa < 0.0


def conv_integral(K: np.ndarray, D: np.ndarray, x: float) -> np.ndarray:
    """Integral of exp(K (x-s)) D exp(K s) over s in [0, x].

    Evaluated as the upper-right block of exp([[K, D], [0, K]] x).
    """
    K = as_matrix(K, "K")
    D = as_matrix(D, "D")
    p = K.shape[0]
    if K.shape != (p, p) or D.shape != (p, p):
        raise ValueError(f"incompatible shapes {K.shape} and {D.shape}")
    if x < 0:
        raise ValueError("x must be nonnegative")
    if p == 0:
        return np.zeros((0, 0))
    block = np.zeros((2 * p, 2 * p))
    block[:p, :p] = K
    block[:p, p:] = D
    block[p:, p:] = K
    return matrix_exp(block * x)[:p, p:]


def null_row_vector(M: np.ndarray) -> np.ndarray:
    """Row vector v with v M = 0 and v 1 = 1, for a rank n-1 generator.

    Solved through the bordered system obtained by replacing the last
    column of M with ones, after M is scaled by the power of two that
    brings norm(M, inf) into [1, 2): v does not depend on the unit of time.
    Raises :class:`SingularSystem` when the solve breaks down or the
    residual exceeds ``NULL_RTOL`` relative to the scaled norm(M).  A
    complex M is solved as :func:`solve_linear` solves it.
    """
    M = M if np.iscomplexobj(M) else as_matrix(M, "M")
    n = M.shape[0]
    # exact; in two factors, as 2^k alone overflows where the norm is subnormal
    k = 1 - math.frexp(_inf_norm(M))[1]
    M = M * 2.0 ** (k // 2) * 2.0 ** (k - k // 2)
    bordered = M.copy()
    bordered[:, -1] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    try:
        v = solve_linear(bordered.T, rhs)
    except Singular as exc:
        raise SingularSystem(str(exc)) from exc
    if np.abs(v @ M).max(initial=0.0) > NULL_RTOL * _inf_norm(M):
        raise SingularSystem("null-vector residual exceeds tolerance")
    return v
