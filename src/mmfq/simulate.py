"""Monte Carlo estimation of first-return probabilities and densities.

The free process starts at level zero in an up phase, moves linearly at
the phase rate between jumps of the phase chain, and is stopped at the
first passage below zero; the hitting phase is tallied.  The reflected
process clamps the level at zero instead and accumulates occupation time
into level bins for a density histogram.

Path k (``row * replications + r`` in ``estimate_psi``, the replication
in ``estimate_density``) draws from the Philox stream keyed by
(seed mod 2**64, k) in chunks of 64 exponentials, then 64 uniforms; its
i-th step uses the i-th of each.  Paths run in numpy with the float
operations of a step-by-step walk, so estimates are reproducible bit for
bit and independent of execution order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import FluidModel
from .errors import EmptySide, NotRecurrent
from . import core

# work-array sizes: memory stays flat in the number of replications
_CHUNK = 64          # draws of each kind per refill of a stream
_PATHS = 256         # path slots that estimate_psi advances together
_WINDOW = 8          # chunks that estimate_density draws at a time
_LOOKUP = 1 << 15    # (step, phase, jump) comparisons made at once
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
        if self.max_time <= 0:
            raise ValueError("max_time must be positive")
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
    """Phase after a jump out of ``ph`` driven by the uniform ``u`` (both
    broadcast): ``bisect_left`` on row ``ph`` of ``cum``, the first entry
    not below u (every row holds 1 > u)."""
    below = cum.take(ph, axis=0) < u[..., None]
    return target[ph, below.argmin(axis=-1)]


class _Streams:
    """The Philox streams of one seed through one reused generator: assigning
    the state of a fresh key costs a tenth of building a generator."""

    def __init__(self, seed: int):
        self.bits = np.random.Philox(key=np.array([seed % (1 << 64), 0], dtype=np.uint64))
        self.gen = np.random.Generator(self.bits)
        self._fresh = self.bits.state

    def start(self, counter: int) -> None:
        """Rewind to the beginning of stream ``counter``."""
        self._fresh["state"]["key"][1] = counter
        self.bits.state = self._fresh

    def chunk(self, exps: np.ndarray, unis: np.ndarray) -> None:
        """Draw the next chunk: exponentials first, then uniforms."""
        self.gen.standard_exponential(out=exps)
        self.gen.random(out=unis)


def estimate_psi(model: FluidModel, cfg: SimConfig) -> PsiEstimate:
    """Estimate the first-return matrix by simulating the free process.

    Runs ``cfg.replications`` paths per starting up phase; paths that have
    not crossed below zero by ``cfg.max_time`` count toward
    ``censored_fraction``.  ``_PATHS`` slots advance one chunk of steps
    per pass, and the slots of finished paths take the next paths.
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
    size = min(_PATHS, total)
    streams = _Streams(cfg.seed)
    steps = np.empty((size, _CHUNK), dtype=np.intp)  # phase during each step
    # per slot the time and the level at the start of the chunk; after them
    # T holds the chunk's exponentials, then the time after each step, and Y
    # the chunk's uniforms, then the level after each step
    T = np.zeros((size, _CHUNK + 1))
    Y = np.zeros_like(T)
    exps, unis = T[:, 1:], Y[:, 1:]
    path = np.zeros(size, dtype=np.intp)  # stream counter row * reps + r
    ph = np.zeros(size, dtype=np.intp)
    active = np.zeros(size, dtype=bool)
    saved = {}  # slot -> stream state after the latest chunk of its path
    censored = loaded = 0
    while True:
        new = np.flatnonzero(~active)[:total - loaded]
        for s, counter in zip(new.tolist(), range(loaded, loaded + new.size)):
            streams.start(counter)
            streams.chunk(exps[s], unis[s])
            saved.pop(s, None)
        path[new] = np.arange(loaded, loaded + new.size)
        ph[new] = model.ip[path[new] // reps]
        Y[new, 0] = T[new, 0] = 0.0
        active[new] = True
        loaded += new.size
        if not active.any():
            break
        # idle slots step along too; their results are never read
        for i in range(_CHUNK):
            steps[:, i] = ph
            ph = _next_phase(cum, target, ph, unis[:, i])
        # tau = e / rate and the level change c * tau, summed in step order
        np.divide(exps, rates.take(steps, out=unis), out=exps)
        np.multiply(c.take(steps, out=unis), exps, out=unis)
        np.cumsum(Y, axis=1, out=Y)
        np.cumsum(T, axis=1, out=T)
        # a path ends at its first step that goes below zero or past max_time
        end = (Y[:, 1:] < 0.0) | (T[:, 1:] > max_time)
        ended = np.flatnonzero(end.any(axis=1) & active)
        active[ended] = False
        last = end[ended].argmax(axis=1)
        down = Y[ended, last + 1] < 0.0
        s, i = ended[down], last[down]
        # a crossing counts unless it happens after max_time
        hit = ~(T[s, i] + Y[s, i] / -c[steps[s, i]] > max_time)
        s, i = s[hit], i[hit]
        counts += np.bincount(path[s] // reps * n_minus + column[steps[s, i]],
                              minlength=counts.size)
        censored += ended.size - s.size
        T[ended] = Y[ended] = 0.0  # an idle slot stays at rest
        Y[:, 0] = Y[:, -1]
        T[:, 0] = T[:, -1]
        # continuing paths draw their next chunk: from the saved stream
        # state, or by replaying the first chunk at the first refill
        for s in np.flatnonzero(active).tolist():
            if s in saved:
                streams.bits.state = saved[s]
            else:
                streams.start(int(path[s]))
                streams.chunk(exps[s], unis[s])
            streams.chunk(exps[s], unis[s])
            saved[s] = streams.bits.state
    est = counts.reshape(model.n_plus, n_minus) / reps
    stderr = np.sqrt(est * (1.0 - est) / reps)
    return PsiEstimate(estimate=est, stderr=stderr,
                       censored_fraction=censored / total)


def _reflected_steps(streams: _Streams, tables, c: np.ndarray, ph: int,
                     max_time: float):
    """Steps of one reflected path up to ``max_time``, a window at a time.

    Yields arrays (phase, t, tau, t + tau, y) of consecutive steps: the
    step length is ``min(e / rate, max_time - t)``, and ``y``, the level
    at the start of each step, follows ``y <- max(0, y + c tau)`` in step
    order.  Only the phase chain and that recursion are sequential.
    """
    rates, cum, target = tables
    n = rates.size
    size = _WINDOW * _CHUNK
    exps = np.empty((_WINDOW, _CHUNK))
    unis = np.empty_like(exps)
    nxt = np.empty((size, n), dtype=np.intp)
    block = max(1, _LOOKUP // cum.size)
    y = t = 0.0
    pos = size
    while t < max_time:
        if pos == size:
            for k in range(_WINDOW):
                streams.chunk(exps[k], unis[k])
            for s in range(0, size, block):
                nxt[s:s + block] = _next_phase(cum, target, np.arange(n),
                                               unis.reshape(-1, 1)[s:s + block])
            table = nxt.ravel().tolist()  # table[s * n + p]: phase after step s from p
            pos = 0
        chain = [ph]
        for s in range(pos * n, size * n, n):
            ph = table[s + ph]
            chain.append(ph)
        P = np.array(chain[:-1])
        tau = exps.ravel()[pos:] / rates[P]
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
        streams = _Streams(cfg.seed)
        start = int(model.ip[0]) if model.n_plus else 0
        for r in range(cfg.replications):
            streams.start(r)
            for P, t0, tau, t1, y0 in _reflected_steps(streams, tables, model.c,
                                                       start, max_time):
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
