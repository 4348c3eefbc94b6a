"""Monte Carlo estimation of first-return probabilities and densities.

The free process starts at level zero in an up phase, moves linearly at
the phase rate between jumps of the phase chain, and is stopped at the
first passage below zero; the hitting phase is tallied.  The reflected
process clamps the level at zero instead and accumulates occupation time
into level bins for a density histogram.

In ``estimate_psi`` path k = ``row * replications + r`` belongs to block
b = k // 1024, whose paths share the Philox stream keyed by
(seed mod 2**64, b): each chunk draws 64 exponentials, then 64 uniforms,
for every path of the block still running, in path order.  Replication r
of ``estimate_density`` draws from the stream keyed by (seed mod 2**64, r)
in chunks of 64 exponentials, then 64 uniforms.  A path's i-th step in a
chunk uses the i-th of each, and its next phase is ``bisect_left`` of the
uniform on the cumulative jump row of its phase.  ``estimate_psi`` steps
its paths in numpy lockstep; the reflected chain of ``estimate_density``
takes one ``bisect_left`` per step.  Both keep the float operations of a
step-by-step walk, so estimates are reproducible bit for bit from (seed,
replications).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .core import FluidModel
from .errors import EmptySide, NotRecurrent
from . import core

# work-array sizes: memory stays flat in the number of replications
_CHUNK = 64          # draws of each kind per path and chunk
_BLOCK = 1024        # consecutive paths of estimate_psi that share a stream
_WINDOW = 64         # most chunks that estimate_density draws at a time
_CELLS = 1 << 12     # (step, bin) histogram cells expanded at once


@dataclass(frozen=True)
class SimConfig:
    replications: int
    seed: int
    max_time: float = 1e4
    burn_in: float = 0.0

    def __post_init__(self):
        if self.replications < 1:
            raise ValueError("replications must be at least 1")
        if not 0.0 < self.max_time < np.inf:
            raise ValueError("max_time must be positive and finite")
        if not 0.0 <= self.burn_in < self.max_time:
            raise ValueError("burn_in must lie in [0, max_time)")


@dataclass(frozen=True)
class PsiEstimate:
    """Hit frequencies per (start up phase, first down phase) pair."""

    estimate: np.ndarray
    stderr: np.ndarray
    censored_fraction: float


@dataclass(frozen=True)
class DensityEstimate:
    """Time-average occupation of (level bin, phase) cells.

    ``pdf`` integrates to the moving mass; ``atom`` is the mass at level
    zero and ``overflow`` the mass above the last bin edge.  Columns are
    in the caller's original phase order.
    """

    edges: np.ndarray
    pdf: np.ndarray
    atom: np.ndarray
    overflow: np.ndarray
    total_time: float


def _jump_tables(model: FluidModel):
    """Exit rates, cumulative jump probabilities and jump targets.

    Row k of ``cum`` holds the cumulative probabilities of the jumps out
    of phase k, the last one exactly 1, padded with +inf; row k of
    ``target`` holds the phases they lead to.
    """
    A = model.A
    n = model.n
    rows = [[j for j in range(n) if j != k and A[k, j] > 0] for k in range(n)]
    cum = np.full((n, max(map(len, rows))), np.inf)
    target = np.zeros(cum.shape, dtype=np.intp)
    for k, js in enumerate(rows):
        w = A[k, js]
        # sequential sums: the boundaries decide every jump of every path
        cum[k, :len(js)] = np.cumsum(w / sum(w.tolist()))
        cum[k, len(js) - 1] = 1.0  # guard against round-off at the top
        target[k, :len(js)] = js
    return -np.diag(A), cum, target


def _next_phase(cum, target, ph, u):
    """Phases after the jumps of ``estimate_psi``'s paths out of ``ph``
    driven by the uniforms ``u``: ``bisect_left`` on row ``ph`` of ``cum``,
    the first entry not below u (every row holds 1 > u)."""
    below = cum.take(ph, axis=0) < u[..., None]
    return target[ph, below.argmin(axis=-1)]


def _stream(seed: int, key: int) -> np.random.Generator:
    """The Philox stream keyed by (seed mod 2**64, key)."""
    return np.random.Generator(np.random.Philox(
        key=np.array([seed % (1 << 64), key], dtype=np.uint64)))


def estimate_psi(model: FluidModel, cfg: SimConfig) -> PsiEstimate:
    """Estimate the first-return matrix by simulating the free process.

    Runs ``cfg.replications`` paths per starting up phase; paths that have
    not crossed below zero by ``cfg.max_time`` count toward
    ``censored_fraction``.  Each block of ``_BLOCK`` consecutive paths
    advances one chunk of steps per pass, and a pass keeps only the paths
    that are still running.
    """
    if model.n_plus == 0 or model.n_minus == 0:
        raise EmptySide("model needs at least one positive and one negative rate")
    rates, cum, target = _jump_tables(model)
    c = model.c
    n_minus, reps, max_time = model.n_minus, cfg.replications, cfg.max_time
    column = np.zeros(model.n, dtype=np.intp)
    column[model.im] = np.arange(n_minus)
    counts = np.zeros(model.n_plus * n_minus, dtype=np.int64)
    total = model.n_plus * reps
    censored = 0
    for block, first in enumerate(range(0, total, _BLOCK)):
        gen = _stream(cfg.seed, block)
        path = np.arange(first, min(first + _BLOCK, total))  # row * reps + r
        ph = model.ip[path // reps]
        t = y = np.zeros(path.size)  # time and level at the start of the chunk
        while path.size:
            # T holds the chunk's exponentials, then the time after each
            # step, and Y the chunk's uniforms, then the level after each step
            T = gen.standard_exponential((path.size, _CHUNK))
            Y = gen.random((path.size, _CHUNK))
            steps = np.empty(T.shape, dtype=np.intp)  # phase during each step
            for i in range(_CHUNK):
                steps[:, i] = ph
                ph = _next_phase(cum, target, ph, Y[:, i])
            # tau = e / rate and the level change c * tau, summed in step order
            np.divide(T, rates.take(steps, out=Y), out=T)
            np.multiply(c.take(steps, out=Y), T, out=Y)
            T[:, 0] += t
            Y[:, 0] += y
            np.cumsum(T, axis=1, out=T)
            np.cumsum(Y, axis=1, out=Y)
            # a path ends at its first step that goes below zero or past max_time
            end = (Y < 0.0) | (T > max_time)
            over = end.any(axis=1)
            ended = np.flatnonzero(over)
            last = end[ended].argmax(axis=1)
            down = Y[ended, last] < 0.0
            s, i = ended[down], last[down]
            # a crossing counts unless it happens after max_time; t0 and y0
            # are the time and level at the start of the crossing step
            t0 = np.where(i > 0, T[s, i - 1], t[s])
            y0 = np.where(i > 0, Y[s, i - 1], y[s])
            hit = ~(t0 + y0 / -c[steps[s, i]] > max_time)
            s, i = s[hit], i[hit]
            counts += np.bincount(path[s] // reps * n_minus + column[steps[s, i]],
                                  minlength=counts.size)
            censored += ended.size - s.size
            run = ~over
            path, ph, t, y = path[run], ph[run], T[run, -1], Y[run, -1]
    est = counts.reshape(model.n_plus, n_minus) / reps
    stderr = np.sqrt(est * (1.0 - est) / reps)
    return PsiEstimate(estimate=est, stderr=stderr,
                       censored_fraction=censored / total)


def _reflected_steps(gen: np.random.Generator, tables, c: np.ndarray, ph: int,
                     max_time: float):
    """Steps of one reflected path up to ``max_time``, a window at a time.

    Yields arrays (phase, t, tau, t + tau, y) of consecutive steps: the
    step length is ``min(e / rate, max_time - t)``, and ``y``, the level
    at the start of each step, follows ``y <- max(0, y + c tau)`` in step
    order.  Only the phase chain, one ``bisect_left`` per step, and that
    recursion are sequential.
    """
    rates, cum, target = tables
    rows = [row[np.isfinite(row)].tolist() for row in cum]
    targets = target.tolist()
    exps = np.empty(_WINDOW * _CHUNK)
    unis = np.empty_like(exps)
    top = rates.max()
    y = t = 0.0
    pos = size = 0
    while t < max_time:
        if pos == size:
            # the steps expected in the rest of the path at the highest exit
            # rate, in at most _WINDOW chunks: a short path draws few numbers
            size = min(_WINDOW, int((max_time - t) * top) // _CHUNK + 1) * _CHUNK
            for k in range(0, size, _CHUNK):  # exponentials first, then uniforms
                gen.standard_exponential(out=exps[k:k + _CHUNK])
                gen.random(out=unis[k:k + _CHUNK])
            us = unis[:size].tolist()
            pos = 0
        chain = [ph]
        for u in us[pos:]:
            ph = targets[ph][bisect_left(rows[ph], u)]
            chain.append(ph)
        P = np.array(chain[:-1])
        tau = exps[pos:size] / rates[P]
        T = np.cumsum(np.concatenate(([t], tau)))  # T[k]: start of step k
        # the first step that starts at max_time or is cut short by it
        cut = (T[:-1] >= max_time) | (max_time - T[:-1] < tau)
        K = int(cut.argmax()) if cut.any() else tau.size
        if K < tau.size and T[K] < max_time:
            tau[K] = max_time - T[K]
            T[K + 1] = T[K] + tau[K]
            K += 1
        P, tau = P[:K], tau[:K]
        levels = []
        for d in (c[P] * tau).tolist():
            levels.append(y)
            y += d
            if y < 0.0:
                y = 0.0
        yield P, T[:K], tau, T[1:K + 1], np.array(levels)
        t, ph, pos = float(T[K]), chain[K], pos + K


def estimate_density(model: FluidModel, cfg: SimConfig, x_max: float = 20.0,
                     n_bins: int = 100) -> DensityEstimate:
    """Histogram of the reflected process by time averaging.

    Each replication runs the reflected process to ``cfg.max_time`` and
    accumulates occupation time after ``cfg.burn_in``; sojourns split
    exactly across bin boundaries.  Level-zero time (negative or zero
    rates at the boundary) goes into the per-phase atom.  Every cell
    receives its contributions in step order.
    """
    if not 0.0 < x_max < np.inf:
        raise ValueError("x_max must be positive and finite")
    if n_bins < 1:
        raise ValueError("n_bins must be at least 1")
    if core.mean_drift(model) >= 0:
        raise NotRecurrent("density estimation requires negative drift")
    n = model.n
    edges = np.linspace(0.0, x_max, n_bins + 1)
    hi = np.append(edges[1:], np.inf)  # upper bin edges; bin n_bins is the overflow
    occupancy = np.zeros((n_bins + 1, n))
    atom = np.zeros(n)
    burn_in, max_time = cfg.burn_in, cfg.max_time
    total = cfg.replications * max(max_time - burn_in, 0.0)
    if n == 1:
        # a recurrent one-phase model has a negative rate: it stays at zero
        atom[0] = total
    else:
        tables = _jump_tables(model)
        start = int(model.ip[0]) if model.n_plus else 0
        for r in range(cfg.replications):
            for P, t0, tau, t1, y0 in _reflected_steps(_stream(cfg.seed, r), tables,
                                                       model.c, start, max_time):
                ck = model.c[P]
                idle = (y0 == 0.0) & (ck <= 0.0)  # the whole step at level zero
                hits = ~idle & (y0 + ck * tau < 0.0)  # reaches zero within the step
                t_end = t1.copy()
                t_end[hits] = t0[hits] + y0[hits] / -ck[hits]
                at_zero = np.maximum(np.where(idle, t0, t_end), burn_in)
                np.add.at(atom, P, np.where((idle | hits) & (t1 > at_zero), t1 - at_zero, 0.0))
                # the moving part of each step: linear from t0 to t_end
                lo = np.maximum(t0, burn_in)
                keep = np.flatnonzero(~idle & (lo < t_end))
                P, t0, t_end, y0, ck, lo = (v[keep] for v in (P, t0, t_end, y0, ck, lo))
                y_lo, y_hi = y0 + ck * (lo - t0), y0 + ck * (t_end - t0)
                a, b = np.minimum(y_lo, y_hi), np.maximum(y_lo, y_hi)
                flat = ck == 0.0
                speed = np.where(flat, 1.0, np.abs(ck))
                dur = t_end - lo
                # bins first .. first + count - 1 meet the segment; a flat step
                # sits in one bin
                first = np.where(flat, np.where(a >= x_max, n_bins, np.minimum(
                    (a / x_max * n_bins).astype(np.intp), n_bins - 1)),
                    np.searchsorted(hi, a, side="right"))
                count = np.where(flat, 1, np.searchsorted(edges, b) - first)
                groups = np.searchsorted(np.cumsum(count), np.arange(0, count.sum(), _CELLS),
                                         side="right").tolist()
                for g0, g1 in zip(groups, groups[1:] + [count.size]):
                    w = count[g0:g1]
                    seg = np.repeat(np.arange(g0, g1), w)
                    k = first[seg] + np.arange(seg.size) - np.repeat(np.cumsum(w) - w, w)
                    part = np.clip(np.minimum(b[seg], hi[k]) - np.maximum(a[seg], edges[k]),
                                   0.0, None)
                    np.add.at(occupancy, (k, P[seg]),
                              np.where(flat[seg], dur[seg], part / speed[seg]))
    widths = np.diff(edges)[:, None]
    inv = np.argsort(model.perm)
    return DensityEstimate(edges=edges,
                           pdf=(occupancy[:n_bins] / total / widths)[:, inv],
                           atom=(atom / total)[inv],
                           overflow=(occupancy[n_bins] / total)[inv],
                           total_time=total)
