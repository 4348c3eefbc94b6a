"""The four benchmark workloads: seeded inputs, one op, and its checks.

Each workload is a closed loop with one caller.  ``inputs(i)`` builds the
inputs of op ``i`` from the workload seed, ``op(i, inputs)`` is the timed
call into the library, and ``check(i, inputs, out)`` verifies the output
outside the timed interval, recording failed op ids.  Ops come in rounds
of ``ROUND_LEN``; a run ends on a round boundary, so checks that span a
round (the slope of a sweep pass) always see the whole round.

After every op the worker also times ``reference()``, a fixed computation
that does not touch the library, chosen to load the host the way the op
does.  On a shared host the same op runs up to 40% slower for minutes at
a time; the reference slows with it, so op time divided by the reference
times measured around it moves only when the library does.

The library is called through its module attributes (``riccati.solve_psi``
and so on) so that a traced run can substitute timing wrappers.
"""

from __future__ import annotations

import csv
import json
import math
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
from scipy.linalg import expm

from mmfq import bench, core, density, perturb, riccati, simulate
from mmfq.numerics import sylvester_residual

# stream ids: every random input is drawn from rng(seed, stream, index)
_DENSE, _SWEEP, _MC, _HIST, _DIRECTION, _CLI = range(1, 7)

# converged values of the two gate cells per case, as in the table of
# tests/test_bench.py: (e_plus, e_oplus) for the "a" cases, (e_inf,) for
# the "b" cases.  Three published cells are anomalous (see the README);
# these are the recomputed values, not bench.REFERENCE_NORMS.
TRUTH = {
    ("1a", 1e-4): (5.37e-7, 3.39e-6), ("1a", 1e-2): (4.60e-3, 2.94e-2),
    ("2a", 1e-4): (2.0837e-12, 2.1519e-12), ("2a", 1e-2): (2.08e-8, 2.15e-8),
    ("3a", 1e-4): (3.77e-8, 4.80e-8), ("3a", 1e-2): (3.66e-4, 4.67e-4),
    ("1b", 1e-4): (1.08e-7,), ("1b", 1e-2): (1.05e-3,),
    ("2b", 1e-4): (5.11e-8,), ("2b", 1e-2): (4.91e-4,),
    ("3b", 1e-4): (1.33e-6,), ("3b", 1e-2): (1.15e-2,),
}
GATE_RTOL = 0.02
SLOPE_RANGE = (1.9, 2.1)
MIN_R2 = 0.99
ROWSUM_TOL = 1e-10
RESIDUAL_TOL = 1e-10     # recomputed Riccati residual, relative to |coefficients|
SYLVESTER_TOL = 1e-12
IDENTITY_TOL = 1e-9      # criterion 7
MASS_TOL = 1e-8          # criterion 9
HIST_TOL = 1e-9


def rng(seed: int, *keys: int) -> np.random.Generator:
    return np.random.default_rng([seed, *keys])


def random_generator(n: int, gen: np.random.Generator) -> np.ndarray:
    """Dense irreducible generator with off-diagonal rates in [0.1, 1)."""
    A = gen.uniform(0.1, 1.0, (n, n))
    np.fill_diagonal(A, 0.0)
    np.fill_diagonal(A, -A.sum(axis=1))
    return A


def generator_direction(n: int, gen: np.random.Generator) -> np.ndarray:
    """Zero-row-sum direction with nonnegative off-diagonals."""
    D = gen.uniform(0.0, 0.3, (n, n))
    np.fill_diagonal(D, 0.0)
    np.fill_diagonal(D, -D.sum(axis=1))
    return D


def stationary(A: np.ndarray) -> np.ndarray:
    bordered = A.copy()
    bordered[:, -1] = 1.0
    rhs = np.zeros(A.shape[0])
    rhs[-1] = 1.0
    return np.linalg.solve(bordered.T, rhs)


def recurrent_model(n: int, n_zero: int, gen: np.random.Generator,
                    load: float = 0.5):
    """Random rates with the given sign counts, down rates scaled so that
    up-flow / down-flow equals ``load`` (a fixed distance from null
    recurrence keeps the Newton iteration count steady across seeds)."""
    A = random_generator(n, gen)
    n_plus = (n - n_zero) // 2
    signs = np.array([1] * n_plus + [0] * n_zero + [-1] * (n - n_zero - n_plus))
    gen.shuffle(signs)
    mags = gen.uniform(0.5, 2.0, n)
    xi = stationary(A)
    up = (xi * mags)[signs > 0].sum()
    down = (xi * mags)[signs < 0].sum()
    mags[signs < 0] *= up / (load * down)
    return A, signs * mags, signs


def fit_slope(x: np.ndarray, y: np.ndarray):
    lx, ly = np.log(x), np.log(y)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    return float(slope), float(1.0 - (resid ** 2).sum() / ((ly - ly.mean()) ** 2).sum())


def riccati_residual(model, psi: np.ndarray) -> float:
    """Relative residual of the first-return equation, from the censored
    generator blocks (independent of the solver's own bookkeeping)."""
    b = core.censor_zero_phases(model)
    cp = model.c_plus[:, None]
    cm = model.c_minus_abs[:, None]
    coeffs = (b.Q_pm / cp, b.Q_pp / cp, b.Q_mm / cm, b.Q_mp / cm)
    Md, Ma, Mu, Mb = coeffs
    F = Md + Ma @ psi + psi @ Mu + psi @ Mb @ psi
    scale = max(np.abs(m).max(initial=0.0) for m in coeffs)
    return float(np.abs(F).max()) / max(scale, 1e-300)


def rowsum_defect(psi: np.ndarray) -> float:
    return float(np.abs(psi.sum(axis=1) - 1.0).max(initial=0.0))


def migration_identity_gap(model, spec, expansion) -> float:
    """Deviation of the four general-regime migration blocks from the
    inverse of the negated zero-phase generator block (criterion 7)."""
    sb = expansion.aux["series"]
    io_p, io_m = spec.oplus, spec.ominus
    ct_op = spec.direction[io_p]
    ct_om = np.abs(spec.direction[io_m])
    psi_op_om = expansion.aux["psi_op_om"]
    neg_k_inv = np.linalg.inv(-sb.k_m1_op_op)
    neg_u_inv = np.linalg.inv(-sb.u_m1_om_om)
    A_om_op = model.A[np.ix_(io_m, io_p)]
    D_om_op = neg_u_inv @ (A_om_op / ct_om[:, None]) @ neg_k_inv / ct_op[None, :]
    D_op_op = neg_k_inv / ct_op[None, :] + psi_op_om @ D_om_op
    D_om_om = neg_u_inv @ ((np.eye(len(io_m))
                            + A_om_op @ neg_k_inv @ (psi_op_om / ct_om[None, :]))
                           / ct_om[:, None])
    D_op_om = neg_k_inv @ (psi_op_om / ct_om[None, :]) + psi_op_om @ D_om_om
    zero = np.concatenate([io_p, io_m])
    B = np.linalg.inv(-model.A[np.ix_(zero, zero)])
    D = np.block([[D_op_op, D_op_om], [D_om_op, D_om_om]])
    return float(np.abs(D - B).max())


def generator_psi1_residual(model, sol, direction, psi1) -> float:
    """Sylvester residual of a generator-direction psi1 against a right-hand
    side rebuilt from the first-order censored blocks."""
    Qt_pp, Qt_pm, Qt_mp, Qt_mm = perturb.qtilde_blocks(model, direction)
    psi = sol.psi
    cp = model.c_plus[:, None]
    psi_cm = psi / model.c_minus_abs[None, :]
    rhs = -(Qt_pm / cp) - (Qt_pp / cp) @ psi - psi_cm @ Qt_mm - psi_cm @ Qt_mp @ psi
    return sylvester_residual(sol.K, sol.U, rhs, psi1)


def general_psi1_residual(expansion) -> float:
    """Sylvester residual of the migrating block psi1_op_om."""
    aux, sb = expansion.aux, expansion.aux["series"]
    rhs = -sb.k_m1_op_p @ aux["psi1_p_om"] - aux["psi_op_m"] @ sb.u_0_m_om
    return sylvester_residual(sb.k_m1_op_op, sb.u_m1_om_om, rhs, aux["psi1_op_om"])


def simpson(y: np.ndarray, x: np.ndarray) -> float:
    """Composite Simpson rule on a uniform grid with an even number of
    intervals (what scipy.integrate.simpson computes there; importing
    scipy.integrate would add about 0.25 s to every set-up)."""
    h = (x[-1] - x[0]) / (len(x) - 1)
    return float(h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum()))


def finite(*arrays) -> bool:
    return all(np.all(np.isfinite(a)) for a in arrays)


def interpreter_loop(n: int) -> int:
    """Reference work bound by the interpreter's speed."""
    s = 0
    for i in range(n):
        s += i * i
    return s


def small_sylvester(M: np.ndarray, N: np.ndarray, reps: int) -> None:
    """Reference work made of small numpy calls: Kronecker-form solves of
    M X + X N = I and their residuals, the shape of a Newton step at m=5."""
    p, q = len(M), len(N)
    for _ in range(reps):
        K = np.kron(np.eye(q), M) + np.kron(N.T, np.eye(p))
        X = np.linalg.solve(K, np.eye(p, q).ravel(order="F")).reshape((p, q), order="F")
        float(np.abs(M @ X + X @ N - np.eye(p, q)).max())


class Workload:
    name = ""
    ROUND_LEN = 1
    # a fixed percentile per workload keeps the tail comparable between
    # versions; it is chosen so that a run of the default length leaves at
    # least 10 samples beyond it
    TAIL_PERCENTILE = 75

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.failed_ops: set[int] = set()
        self.counts: dict[str, float] = {}

    def setup(self) -> None:
        """Build the inputs shared by every op."""

    def inputs(self, i: int):
        return None

    def op(self, i: int, inputs):
        raise NotImplementedError

    def check(self, i: int, inputs, out) -> None:
        raise NotImplementedError

    def reference(self) -> None:
        """Library-free work timed after every op (see the module docstring)."""
        raise NotImplementedError

    def finish(self) -> None:
        """Checks over the whole run."""

    def figures(self, latencies: list[float]) -> dict:
        """Workload-specific figures for the report: name -> value."""
        return {}

    def probe_layers(self) -> None:
        """Extra per-layer measurements of a traced run."""

    def fail(self, *ids: int) -> None:
        self.failed_ops.update(ids)


class Sweep(Workload):
    """One op is one eps cell: a direct solve at eps plus the error norms."""

    name = "sweep"
    TAIL_PERCENTILE = 99
    EPS = np.logspace(-4, -2, 20)
    ROUND_LEN = len(bench.CASE_IDS) * len(EPS)

    def setup(self):
        self.cases = {}
        for cid in bench.CASE_IDS:
            model, spec = bench.case_model(cid)
            sol = riccati.solve_psi(model)
            self.cases[cid] = (model, spec, perturb.expand(model, sol, spec))
        self.cells = [(cid, k) for cid in bench.CASE_IDS for k in range(len(self.EPS))]
        self._order = (-1, None)
        self._pass = {}
        gen = rng(0, _SWEEP)  # the same reference system on every seed
        self._ref = [gen.uniform(0.1, 1.0, (5, 5)) + 5.0 * np.eye(5) for _ in range(2)]

    def reference(self):
        small_sylvester(*self._ref, reps=4)

    def inputs(self, i):
        p, j = divmod(i, self.ROUND_LEN)
        if self._order[0] != p:
            self._order = (p, rng(self.seed, _SWEEP, p).permutation(self.ROUND_LEN))
        return self.cells[self._order[1][j]]

    def op(self, i, cell):
        cid, k = cell
        model, spec, expansion = self.cases[cid]
        eps = float(self.EPS[k])
        psi_eps, pmodel = riccati.solve_psi_at(model, spec, eps)
        return psi_eps, bench.error_norms(model, psi_eps, pmodel, expansion, eps)

    def check(self, i, cell, out):
        cid, k = cell
        e_inf = math.nan
        if out is None:
            self.fail(i)
        else:
            psi_eps, norms = out
            e_inf = norms.e_inf
            ok = rowsum_defect(psi_eps.psi) <= ROWSUM_TOL
            gate_eps = {0: 1e-4, len(self.EPS) - 1: 1e-2}.get(k)
            if gate_eps is not None:
                got = (norms.e_plus, norms.e_oplus) if cid.endswith("a") else (norms.e_inf,)
                ok = ok and all(g is not None and abs(g - t) <= GATE_RTOL * t
                                for g, t in zip(got, TRUTH[(cid, gate_eps)]))
            if not ok:
                self.fail(i)
        self._pass.setdefault(cid, {})[k] = (i, e_inf)
        if (i + 1) % self.ROUND_LEN == 0:
            for cells in self._pass.values():
                ids = [op_id for op_id, _ in cells.values()]
                values = np.array([cells[k][1] for k in sorted(cells)])
                ok = len(cells) == len(self.EPS) and finite(values) and (values > 0).all()
                if ok:
                    slope, r2 = fit_slope(self.EPS, values)
                    ok = SLOPE_RANGE[0] <= slope <= SLOPE_RANGE[1] and r2 >= MIN_R2
                if not ok:
                    self.fail(*ids)
            self._pass = {}

    def figures(self, latencies):
        return {"sweep_cells_per_s": len(latencies) / sum(latencies)}


class Dense(Workload):
    """One op is the full pipeline for one seeded dense model; the size
    cycles through the ladder."""

    name = "dense"
    SIZES = (40, 60, 80)
    N_ZERO = 4
    ROUND_LEN = len(SIZES)
    GRID = np.linspace(0.1, 4.0, 40)
    REF_SIZE = 1000  # the n=80 Newton step is a dense LU of order about 1400

    def setup(self):
        gen = rng(0, _DENSE)  # the same reference system on every seed
        self._ref = (gen.uniform(-1.0, 1.0, (self.REF_SIZE, self.REF_SIZE))
                     + self.REF_SIZE * np.eye(self.REF_SIZE), np.ones(self.REF_SIZE))

    def reference(self):
        np.linalg.solve(*self._ref)

    def inputs(self, i):
        n = self.SIZES[i % len(self.SIZES)]
        gen = rng(self.seed, _DENSE, i)
        A, c, signs = recurrent_model(n, self.N_ZERO, gen)
        ct = np.zeros(n)
        ct[signs == 0] = gen.uniform(0.3, 1.2, self.N_ZERO) * np.array([1, 1, -1, -1])
        return A, c, generator_direction(n, gen), ct

    def op(self, i, inputs):
        A, c, gen_dir, rate_dir = inputs
        model = core.validate_model(A, c)
        sol = riccati.solve_psi(model)
        gspec = core.validate_perturbation(model, "generator", gen_dir)
        gexp = perturb.expand(model, sol, gspec)
        rspec = core.validate_perturbation(model, "rate", rate_dir)
        rexp = perturb.expand(model, sol, rspec)
        law = density.stationary_law(model, sol)
        fol = density.first_order_law(model, sol, gspec.direction, gexp.psi1)
        pi = [density.density_at(law, sol.psi, model, x) for x in self.GRID]
        pi1 = [density.density1_at(fol, law, model, sol.psi, gexp.psi1, x)
               for x in self.GRID]
        return model, sol, gspec, gexp, rspec, rexp, np.array(pi), np.array(pi1)

    def check(self, i, inputs, out):
        if out is None:
            self.fail(i)
            return
        model, sol, gspec, gexp, rspec, rexp, pi, pi1 = out
        ok = (sol.residual <= riccati.DEFAULT_TOL
              and riccati_residual(model, sol.psi) <= RESIDUAL_TOL
              and all(riccati.check_structure(model, sol).values())
              and rspec.regime == "general"
              and generator_psi1_residual(model, sol, gspec.direction,
                                          gexp.psi1) <= SYLVESTER_TOL
              and general_psi1_residual(rexp) <= SYLVESTER_TOL
              and migration_identity_gap(model, rspec, rexp) <= IDENTITY_TOL
              and finite(pi, pi1) and pi.min() >= 0.0)
        if not ok:
            self.fail(i)

    def figures(self, latencies):
        return {f"dense_n{n}_s": float(np.median(latencies[k::len(self.SIZES)]))
                for k, n in enumerate(self.SIZES)}


class Oracle(Workload):
    """One op runs the three independent oracles on case 1a: a Monte Carlo
    psi estimate, one chunk of the 8001-point density grid (with the
    first-order correction) and a short Monte Carlo density histogram.
    Every op does the same work, so its latency has one mode."""

    name = "oracle"
    MC_REPS = 500           # per up phase
    HIST = dict(replications=3, max_time=1e4, burn_in=100.0)
    GRID_POINTS = 8001
    CHUNKS = 16

    def setup(self):
        model, _ = bench.case_model("1a")
        sol = riccati.solve_psi(model)
        gspec = core.validate_perturbation(
            model, "generator", generator_direction(model.n, rng(self.seed, _DIRECTION)))
        psi1 = perturb.expand(model, sol, gspec).psi1
        law = density.stationary_law(model, sol)
        fol = density.first_order_law(model, sol, gspec.direction, psi1)
        self.model, self.sol, self.law, self.fol, self.psi1 = model, sol, law, fol, psi1
        abscissa = np.linalg.eigvals(law.K).real.max()
        xs = np.linspace(1e-9, 50.0 / abs(abscissa), self.GRID_POINTS)
        edges = np.linspace(0, self.GRID_POINTS - 1, self.CHUNKS + 1).astype(int)
        self.chunks = [xs[a:b + 1] for a, b in zip(edges[:-1], edges[1:])]
        # closed-form mass of each chunk: q K^{-1} (e^{Kb} - e^{Ka}) w, where
        # w sums the columns of [C+^{-1} | psi |C-|^{-1} | Theta]
        w = 1.0 / model.c_plus + (sol.psi / model.c_minus_abs[None, :]).sum(axis=1) \
            + law.Theta.sum(axis=1)
        self.exact = [law.q @ np.linalg.solve(law.K, (expm(law.K * x[-1])
                                                      - expm(law.K * x[0])) @ w)
                      for x in self.chunks]
        self.atom = float(density.zero_mass(law, model).sum())
        self._mc = []
        self._grid = {}
        self._parts = {"mc": 0.0, "grid": 0.0, "points": 0}

    def reference(self):
        # the Monte Carlo path loop, about half of an op, is interpreter-bound
        interpreter_loop(100_000)

    def inputs(self, i):
        mc_seed, hist_seed = (int(rng(self.seed, key, i).integers(2 ** 62))
                              for key in (_MC, _HIST))
        return (simulate.SimConfig(replications=self.MC_REPS, seed=mc_seed),
                i % self.CHUNKS, simulate.SimConfig(seed=hist_seed, **self.HIST))

    def op(self, i, inputs):
        mc_cfg, chunk, hist_cfg = inputs
        model, sol, law = self.model, self.sol, self.law
        t0 = perf_counter()
        est = simulate.estimate_psi(model, mc_cfg)
        t1 = perf_counter()
        pi = [density.density_at(law, sol.psi, model, x) for x in self.chunks[chunk]]
        pi1 = [density.density1_at(self.fol, law, model, sol.psi, self.psi1, x)
               for x in self.chunks[chunk]]
        t2 = perf_counter()
        hist = simulate.estimate_density(model, hist_cfg)
        return est, np.array(pi), np.array(pi1), hist, (t1 - t0, t2 - t1)

    def check(self, i, inputs, out):
        mc_cfg, chunk, _ = inputs
        if out is None:
            self.fail(i)
            return
        est, pi, pi1, hist, (mc_s, grid_s) = out
        self._parts["mc"] += mc_s
        self._parts["grid"] += grid_s
        self._parts["points"] += len(self.chunks[chunk])
        # per op only a 6-sigma gross-error test, with the standard error of
        # the computed psi: at 500 paths the estimate's own standard error is
        # too small whenever a small entry comes out low.  Criterion 8 runs
        # on the pooled estimate in finish(), so a run makes one 3-sigma test
        psi = self.sol.psi
        sigma = np.sqrt(psi * (1.0 - psi) / mc_cfg.replications)
        z = np.abs(est.estimate - psi) / np.maximum(sigma, 1e-12)
        self._mc.append((i, est.estimate * mc_cfg.replications, mc_cfg.replications))
        mass = simpson(pi.sum(axis=1), self.chunks[chunk])
        total = (hist.pdf * np.diff(hist.edges)[:, None]).sum() \
            + hist.atom.sum() + hist.overflow.sum()
        ok = (finite(est.estimate) and z.max() <= 6.0 and est.censored_fraction <= 1e-4
              and finite(pi, pi1) and pi.min() >= 0.0
              and abs(mass - self.exact[chunk]) <= MASS_TOL / self.CHUNKS
              and abs(total - 1.0) <= HIST_TOL and hist.pdf.min() >= 0.0)
        if not ok:
            self.fail(i)
        self._grid[chunk] = (i, mass)
        if len(self._grid) == self.CHUNKS:
            # criterion 9 on the completed grid
            defect = abs(self.atom + sum(m for _, m in self._grid.values()) - 1.0)
            self.counts["density.mass_defect"] = max(
                self.counts.get("density.mass_defect", 0.0), defect)
            if defect > MASS_TOL:
                self.fail(*(op_id for op_id, _ in self._grid.values()))
            self._grid = {}

    def finish(self):
        if not self._mc:
            return
        counts = sum(c for _, c, _ in self._mc)
        reps = sum(r for _, _, r in self._mc)
        est = counts / reps
        stderr = np.sqrt(est * (1.0 - est) / reps)
        z = np.abs(est - self.sol.psi) / np.maximum(stderr, 1e-12)
        if int((z > 3.0).sum()) > math.ceil(0.02 * z.size):
            self.fail(*(op_id for op_id, _, _ in self._mc))

    def figures(self, latencies):
        if not self._mc:  # every op raised
            return {"density_points_per_s": math.nan, "mc_paths_per_s": math.nan}
        paths = len(self._mc) * self.MC_REPS * self.model.n_plus
        return {"density_points_per_s": self._parts["points"] / self._parts["grid"],
                "mc_paths_per_s": paths / self._parts["mc"]}


class Cli(Workload):
    """One op is one ``python -m mmfq.cli`` call; the verb cycles through
    psi, perturb, density and case."""

    name = "cli"
    TAIL_PERCENTILE = 60
    VERBS = ("psi", "perturb", "density", "case")
    ROUND_LEN = len(VERBS)
    PROBES = 5

    def setup(self):
        gen = rng(self.seed, _CLI)
        A, c, signs = recurrent_model(12, 2, gen)
        ct = np.zeros(12)
        ct[signs == 0] = gen.uniform(0.3, 1.2, 2) * np.array([1, -1])
        self.case_id = bench.CASE_IDS[int(gen.integers(len(bench.CASE_IDS)))]
        d = self.workdir
        d.mkdir(parents=True, exist_ok=True)
        files = {"model.json": {"A": A.tolist(), "c": c.tolist()},
                 "gen.json": {"kind": "generator",
                              "direction": generator_direction(12, gen).tolist()},
                 "rate.json": {"kind": "rate", "direction": ct.tolist()}}
        for name, doc in files.items():
            (d / name).write_text(json.dumps(doc))
        self.exit_nonzero = 0

    def _argv(self, verb):
        d = self.workdir
        args = {"psi": ["psi", str(d / "model.json"), "--out", str(d / "psi.csv")],
                "perturb": ["perturb", str(d / "model.json"), str(d / "rate.json"),
                            "--out", str(d / "perturb.json")],
                "density": ["density", str(d / "model.json"), "--pert", str(d / "gen.json"),
                            "--x", "0.1:10:40", "--out", str(d / "density.csv")],
                "case": ["case", "--id", self.case_id, "--out", str(d / "case.csv")]}[verb]
        return [sys.executable, "-m", "mmfq.cli"] + args

    def inputs(self, i):
        verb = self.VERBS[i % len(self.VERBS)]
        out = Path(self._argv(verb)[-1])
        for stale in (out, Path(str(out) + ".manifest.json")):
            stale.unlink(missing_ok=True)
        return verb, out

    def op(self, i, inputs):
        verb, _ = inputs
        return subprocess.run(self._argv(verb), stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=60)

    def reference(self):
        # every call starts an interpreter and imports numpy before any
        # mmfq code runs; an interpreter loop does not track start-up time
        # when the host slows.  No timeout: with one, the wait polls and
        # rounds the time up to a multiple of 50 ms
        subprocess.run([sys.executable, "-c", "import numpy"], check=True)

    def check(self, i, inputs, out):
        verb, path = inputs
        if out is not None and out.returncode != 0:
            self.exit_nonzero += 1
            print(f"mmfq {verb} exited with {out.returncode}: {out.stderr.strip()}",
                  file=sys.stderr)
        try:
            ok = out is not None and out.returncode == 0 and _parses(verb, path)
        except (OSError, ValueError):
            ok = False
        if not ok:
            self.fail(i)

    def probe_layers(self):
        def median_ms(argv):
            times = []
            for _ in range(self.PROBES):
                t0 = perf_counter()
                subprocess.run(argv, check=True, timeout=60)
                times.append(perf_counter() - t0)
            return 1e3 * float(np.median(times))
        self.counts["cli.interpreter_ms"] = median_ms([sys.executable, "-c", "pass"])
        self.counts["cli.import_ms"] = median_ms([sys.executable, "-c", "import mmfq.cli"])
        self.counts["cli.exit_nonzero"] = self.exit_nonzero


def _parses(verb: str, path: Path) -> bool:
    """CSV outputs parse as numbers and have a sibling manifest; the JSON
    output embeds its manifest."""
    if verb == "perturb":
        doc = json.loads(path.read_text())
        return "manifest" in doc and finite(np.array(doc["psi1"], dtype=float))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    numeric = {"psi": slice(3, None), "density": slice(0, None), "case": slice(1, 3)}[verb]
    values = [float(v) for row in rows[1:] for v in row[numeric]]
    manifest = json.loads(Path(str(path) + ".manifest.json").read_text())
    return len(rows) > 1 and finite(np.array(values)) and "command" in manifest


WORKLOADS = {w.name: w for w in (Sweep, Dense, Oracle, Cli)}
