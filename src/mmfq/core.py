"""Fluid model definition, validation, censoring and its first-order derivative.

A model is a finite irreducible Markov phase process with generator ``A``
together with a net fluid rate ``c_i`` per phase.  Phases are kept
internally in the canonical order (positive rates, zero rates, negative
rates); the permutation back to the caller's ordering is stored on the
model so user-facing output can be restored.  The censoring also runs on
A + i h At, whose imaginary parts over h are its derivative (Squire & Trapp, 1998).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (DimensionMismatch, InvalidPerturbation, NotAGenerator,
                     Reducible, SingularBlock, Singular)
from .numerics import _inf_norm, as_matrix, as_vector, null_row_vector, solve_linear

ROWSUM_RTOL = 1e-12


@dataclass(frozen=True)
class FluidModel:
    """Fluid model in canonical phase order, built only by :func:`_partition`.

    ``A`` and ``c`` are stored canonically ordered; ``perm`` maps canonical
    position -> original phase index, so ``A == A_orig[perm][:, perm]``.
    ``xi`` is the stationary distribution of the phase process (xi A = 0,
    xi 1 = 1, canonical order), solved once by :func:`validate_model`; a
    rate perturbation keeps ``A`` and inherits it.  ``xi``, ``A``, ``c`` and
    ``perm`` are read-only.
    """

    A: np.ndarray
    c: np.ndarray
    n_plus: int
    n_zero: int
    n_minus: int
    perm: np.ndarray
    labels: tuple[str, ...]
    xi: np.ndarray

    @property
    def n(self) -> int:
        return self.A.shape[0]

    # canonical index ranges of the three rate classes
    @property
    def ip(self) -> np.ndarray:
        return np.arange(0, self.n_plus)

    @property
    def i0(self) -> np.ndarray:
        return np.arange(self.n_plus, self.n_plus + self.n_zero)

    @property
    def im(self) -> np.ndarray:
        return np.arange(self.n_plus + self.n_zero, self.n)

    @property
    def c_plus(self) -> np.ndarray:
        return self.c[self.ip]

    @property
    def c_minus_abs(self) -> np.ndarray:
        return np.abs(self.c[self.im])

    def block(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        return self.A.take(rows, 0).take(cols, 1)

    def canonical_labels(self) -> tuple[str, ...]:
        return tuple(self.labels[i] for i in self.perm)

    def unpermute(self, values: np.ndarray) -> np.ndarray:
        """Scatter a canonical-order vector back to the original order."""
        out = np.empty_like(np.asarray(values, dtype=float))
        out[self.perm] = values
        return out


@dataclass(frozen=True)
class CensoredBlocks:
    """Generator blocks on the non-zero-rate phases after censoring, and
    ``inv0`` = (-A_00)^{-1} from the same solve with the zero-rate block."""

    Q_pp: np.ndarray
    Q_pm: np.ndarray
    Q_mp: np.ndarray
    Q_mm: np.ndarray
    inv0: np.ndarray


@dataclass(frozen=True)
class PerturbationSpec:
    """A validated perturbation direction in canonical phase order.

    ``kind`` is ``"generator"`` or ``"rate"``.  For rate perturbations the
    zero-rate phases that acquire a positive (negative) rate are listed in
    ``oplus`` (``ominus``) as canonical positions, and ``regime`` is one of
    ``"unaffected"``, ``"to_plus"``, ``"to_minus"``, ``"general"``.
    """

    kind: str
    direction: np.ndarray
    regime: str
    oplus: np.ndarray = field(default_factory=lambda: np.arange(0))
    ominus: np.ndarray = field(default_factory=lambda: np.arange(0))


def _strongly_connected(adj: np.ndarray) -> bool:
    """Strong connectivity of the directed graph given by a boolean matrix.

    Each squaring of the reflexive reachability matrix doubles the path
    length it covers; bit_length(n - 1) squarings cover length n - 1.
    """
    n = adj.shape[0]
    reach = adj | np.eye(n, dtype=bool)
    for _ in range(max(n - 1, 1).bit_length()):
        reach = (reach.astype(float) @ reach) > 0
    return bool(reach.all())


def _rates_in_range(norm: float, rates: np.ndarray) -> bool:
    """Whether norm / |r| is finite for each nonzero rate r a solve divides by."""
    r = np.abs(rates[rates != 0.0])
    return not r.size or float(norm) / float(r.min()) < np.inf


def validate_model(A, c, labels=None) -> FluidModel:
    """Validate a generator / rate-vector pair and build a FluidModel.

    Checks generator structure (nonnegative off-diagonals, zero row sums
    relative to ``norm(A, inf)``, a norm zero or in the normal double
    range), irreducibility of the transition graph
    and that ``norm(A, inf) / |c_i|`` is finite for every nonzero rate, and
    derives the canonical three-way partition from the signs of ``c``.
    Solves once for the stationary distribution ``xi``; a null vector with
    negative mass is ``Singular``.
    """
    A = as_matrix(A, "A")
    c = as_vector(c, "c")
    n = A.shape[0]
    if A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"A must be square, got {A.shape}")
    if n == 0:
        raise DimensionMismatch("a model needs at least one phase")
    if c.shape[0] != n:
        raise DimensionMismatch(f"c has length {c.shape[0]}, expected {n}")
    if labels is None:
        labels = tuple(str(i) for i in range(n))
    else:
        labels = tuple(str(x) for x in labels)
        if len(labels) != n:
            raise DimensionMismatch(f"{len(labels)} labels for {n} phases")
        # labels name CSV columns and fields; the banned characters are
        # single, so the joined labels hold one only where a label does
        joined = "".join(labels)
        if len(set(labels)) != n or any(ch in joined for ch in ',"\r\n'):
            raise DimensionMismatch("labels must be distinct, with no comma, quote or line break")

    with np.errstate(over="ignore"):
        norm = _inf_norm(A)
    if not np.isfinite(norm):
        raise NotAGenerator("inf-norm of A overflows")
    # below the normal range the entries and the solve's products lose digits
    if 0.0 < norm < np.finfo(float).tiny:
        raise NotAGenerator("inf-norm of A is below the normal double range")
    if not _rates_in_range(norm, c):
        raise DimensionMismatch("c has a nonzero rate too small to divide A by")
    tol = ROWSUM_RTOL * norm
    off = A.copy()
    np.fill_diagonal(off, 0.0)
    if off.min(initial=0.0) < -tol:
        raise NotAGenerator("negative off-diagonal entry")
    rowsum = np.abs(A.sum(axis=1)).max(initial=0.0)
    if rowsum > tol:
        raise NotAGenerator(f"row sums deviate from zero by {rowsum:.3e}")
    if not _strongly_connected(off > 0.0):
        raise Reducible("transition graph is not strongly connected")
    return _partition(A, c, labels)


def _partition(A: np.ndarray, c: np.ndarray, labels: tuple[str, ...],
               xi: np.ndarray | None = None) -> FluidModel:
    """The builder of every FluidModel, from a checked (A, c): phases sorted
    stably by the sign of ``c`` into canonical order.  ``xi`` is A's stationary
    distribution in A's order; None solves for it on the sorted A."""
    rank = np.where(c > 0, 0, np.where(c == 0, 1, 2))
    perm = np.argsort(rank, kind="stable")
    A_can = A.take(perm, 0).take(perm, 1)
    c_can = c[perm]
    if xi is None:
        xi = null_row_vector(A_can)
        if xi.min() < -1e-10:
            raise Singular(f"negative stationary mass {xi.min():.3e}")
        xi = np.clip(xi, 0.0, None) / np.clip(xi, 0.0, None).sum()
    else:
        xi = xi[perm]
    for arr in (A_can, c_can, perm, xi):
        arr.flags.writeable = False
    n_plus, n_zero, n_minus = np.bincount(rank, minlength=3).tolist()
    return FluidModel(A=A_can, c=c_can, n_plus=n_plus, n_zero=n_zero, n_minus=n_minus,
                      perm=perm, labels=labels, xi=xi)


def mean_drift(model: FluidModel) -> float:
    """Mean stationary drift; negative drift means positive recurrence."""
    return float(model.xi @ model.c)


def censor_zero_phases(model: FluidModel) -> CensoredBlocks:
    """Censor the zero-rate phases out of the generator: the restriction of
    ``A`` to the other phases plus the first-passage correction through the
    zero-rate block.  A model with no zero-rate phase gets A's four blocks and
    an empty ``inv0``, with no solve."""
    return _censor(model, model.block)


def _censor(model: FluidModel, block, inv0: np.ndarray | None = None) -> CensoredBlocks:
    """:func:`censor_zero_phases` of the generator ``block`` reads; a complex step reuses
    the real ``inv0`` = M^{-1}, M = -A_00: (M + iE)^{-1} = M^{-1} - i M^{-1} E M^{-1} + O(E^2)."""
    ip, i0, im = model.ip, model.i0, model.im
    if model.n_zero == 0:
        return CensoredBlocks(
            Q_pp=block(ip, ip), Q_pm=block(ip, im),
            Q_mp=block(im, ip), Q_mm=block(im, im), inv0=np.zeros((0, 0)))
    p, pm = model.n_plus, model.n_plus + model.n_minus
    # (-A_00)^{-1} applied to the outgoing rows, up columns first, and to I
    rhs = np.hstack([block(i0, np.concatenate([ip, im])), np.eye(model.n_zero)])
    if inv0 is None:
        try:
            N_rows = solve_linear(-block(i0, i0), rhs)
        except Singular as exc:
            raise SingularBlock("zero-rate block is singular") from exc
        if not np.isfinite(N_rows).all():  # a subnormal pivot passes the relative test
            raise SingularBlock("zero-rate block's solve leaves the double range")
    else:
        N_rows = (inv0 + 1j * (inv0 @ block(i0, i0).imag @ inv0)) @ rhs
    N_p, N_m, inv0 = N_rows[:, :p], N_rows[:, p:pm], N_rows[:, pm:]
    A_p0, A_m0 = block(ip, i0), block(im, i0)
    return CensoredBlocks(
        Q_pp=block(ip, ip) + A_p0 @ N_p,
        Q_pm=block(ip, im) + A_p0 @ N_m,
        Q_mp=block(im, ip) + A_m0 @ N_p,
        Q_mm=block(im, im) + A_m0 @ N_m, inv0=inv0)


def _complex_step(model: FluidModel, inv0: np.ndarray, a_tilde, *tangents):
    """h, the reader of A + i h At and its censoring from the real ``inv0``: each
    derivative along ``a_tilde`` is an imaginary part over h = 2^(-30-e), which sits near
    2^-30 of its value's scale: e is the largest of -1000, the binary exponent of ||At||
    less that of ||A||, and those of the ``tangents``' inf-norms (a zero norm's: -1000)."""
    e_At, e_A, *e_t = (math.frexp(x)[1] if x else -1000
                       for x in (float(_inf_norm(X)) for X in (a_tilde, model.A, *tangents)))
    h = math.ldexp(1.0, -30 - max(e_At - e_A, *e_t, -1000))
    A = model.A + 1j * h * np.asarray(a_tilde, dtype=float)

    def block(rows, cols):
        return A.take(rows, 0).take(cols, 1)

    return h, block, _censor(model, block, inv0)


def validate_perturbation(model: FluidModel, kind: str, direction) -> PerturbationSpec:
    """Validate a perturbation direction against a model.

    ``direction`` is given in the caller's original phase order (the same
    order `validate_model` consumed) and is stored canonically ordered.

    Generator directions must have zero row sums and nonnegative entries
    wherever ``A`` has a zero off-diagonal entry, so that ``A + eps*dir``
    stays a generator for small positive ``eps``.  Rate directions must be
    uniformly zero, positive or negative on the zero-rate phases
    (or sign-split, which is the general regime); mixing zero and nonzero
    entries there, or an entry too small to divide ``A`` by, is rejected.
    """
    if kind == "generator":
        D = as_matrix(direction, "direction")
        if D.shape != model.A.shape:
            raise DimensionMismatch(f"direction shape {D.shape}, expected {model.A.shape}")
        D = D.take(model.perm, 0).take(model.perm, 1)
        with np.errstate(over="ignore"):
            norm = _inf_norm(D)
        if not np.isfinite(norm):
            raise InvalidPerturbation("inf-norm of the generator direction overflows")
        tol = ROWSUM_RTOL * max(norm, 1.0)
        if np.abs(D.sum(axis=1)).max(initial=0.0) > tol:
            raise InvalidPerturbation("generator direction rows do not sum to zero")
        off_zero = (model.A <= 0.0) & ~np.eye(model.n, dtype=bool)
        if D[off_zero].min(initial=0.0) < -tol:
            raise InvalidPerturbation(
                "direction decreases a rate that is already zero")
        D.flags.writeable = False
        return PerturbationSpec(kind="generator", direction=D, regime="generator")

    if kind == "rate":
        d = as_vector(direction, "direction")
        if d.shape[0] != model.n:
            raise DimensionMismatch(f"direction length {d.shape[0]}, expected {model.n}")
        d = d[model.perm]
        on_zero = d[model.i0]
        if on_zero.size and np.any(on_zero == 0.0) and np.any(on_zero != 0.0):
            raise InvalidPerturbation(
                "mixed zero and nonzero rate perturbation on zero-rate phases")
        if not _rates_in_range(_inf_norm(model.A), on_zero):
            raise InvalidPerturbation("rate direction too small on a zero-rate phase")
        oplus = model.i0[on_zero > 0]
        ominus = model.i0[on_zero < 0]
        if oplus.size == 0 and ominus.size == 0:
            regime = "unaffected"
        elif ominus.size == 0:
            regime = "to_plus"
        elif oplus.size == 0:
            regime = "to_minus"
        else:
            regime = "general"
        d.flags.writeable = False
        return PerturbationSpec(kind="rate", direction=d, regime=regime,
                                oplus=oplus, ominus=ominus)

    raise InvalidPerturbation(f"unknown perturbation kind {kind!r}")


def load_model(path) -> FluidModel:
    """Load and validate a model from a JSON file {"A": ..., "c": ..., "labels": ...}."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or "A" not in doc or "c" not in doc:
        raise DimensionMismatch('model file must be an object with "A" and "c"')
    labels = doc.get("labels")
    if labels is not None and not isinstance(labels, list):
        raise DimensionMismatch(f"labels must be a list, got {type(labels).__name__}")
    try:
        A = np.asarray(doc["A"], dtype=float)
        c = as_vector(doc["c"], "c")
    except (TypeError, ValueError) as exc:
        raise DimensionMismatch(f"A or c is not a finite array of numbers: {exc}") from exc
    if A.ndim != 2:
        raise DimensionMismatch(f"A must be 2-dimensional, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise NotAGenerator("A has non-finite entries")
    return validate_model(A, c, labels=labels)

