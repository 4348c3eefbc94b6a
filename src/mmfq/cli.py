"""Command-line interface.

One verb per module: validate | psi | perturb | density | case | simulate.
Exit codes: 0 success, 1 domain error, 2 usage or I/O error.  Domain
errors are reported as one-line JSON objects on stderr.  Each verb
returns ``(output, inputs, options, diagnostics)``, CSV rows or a JSON
payload, and only `_write_output` renders it, with the manifest (command
line, inputs, resolved options, version, wall time, solver diagnostics):
a JSON payload embeds it, a CSV file gets a sibling ``<name>.manifest.json``
and a CSV on stdout goes without one.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from dataclasses import asdict

import numpy as np

from . import __version__, bench, density, perturb, simulate
from .core import load_model, mean_drift, stationary_phase_dist
from .errors import FluidQueueError, UnknownCase
from .riccati import DEFAULT_MAX_NEWTON, DEFAULT_TOL, solve_psi, solve_psi_at


def _write_output(args, t0: float, output: list | dict, inputs: list[str],
                  options: dict, diagnostics: dict) -> None:
    """Write a verb's CSV rows or JSON payload to ``args.out`` or stdout, with
    the manifest of the run timed from ``t0``.  CSV rows start with the header;
    a ``str`` cell is written as is, a number with 17 significant digits and
    ``None`` as an empty cell, and the first data row sets each column's kind."""
    manifest = {"command": args.argv, "inputs": inputs, "options": options,
                "version": __version__, "wall_time_s": time.perf_counter() - t0,
                "diagnostics": diagnostics}
    is_csv = isinstance(output, list)
    if is_csv:
        header, *body = output
        # one format string for all rows, so no cell's type is checked per row
        line = ",".join("" if v is None else f"{{{i}}}" if isinstance(v, str) else f"{{{i}:.17g}}"
                        for i, v in enumerate(body[0] if body else [])) + "\n"
        text = ",".join(header) + "\n" + "".join(line.format(*row) for row in body)
    else:
        text = json.dumps({**output, "manifest": manifest}, indent=2) + "\n"
    out = getattr(args, "out", None)
    if not out:
        sys.stdout.write(text)
        return
    with open(out, "w") as fh:
        fh.write(text)
    if is_csv:
        with open(out + ".manifest.json", "w") as fh:
            fh.write(json.dumps(manifest, indent=2) + "\n")


def _grid(spec: str, log: bool) -> np.ndarray:
    try:
        a, b, n = spec.split(":")
        a, b, n = float(a), float(b), int(n)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad grid {spec!r}, expected A:B:N") from exc
    # a linear grid is of levels x >= 0; a log grid (of eps) needs two
    # distinct positive finite ends and two points to fit a slope
    low, high = sorted((a, b))
    if n < 1 + log or not 0 <= low <= high < np.inf or log and not 0 < low < high:
        raise argparse.ArgumentTypeError(f"bad grid {spec!r}")
    if log:
        return np.logspace(np.log10(a), np.log10(b), n)
    return np.linspace(a, b, n)


def cmd_validate(args):
    model = load_model(args.model)
    xi = model.unpermute(stationary_phase_dist(model))
    drift = mean_drift(model)
    report = {
        "phases": model.n,
        "labels": list(model.labels),
        "partition": {
            "plus": [model.labels[i] for i in model.perm[model.ip]],
            "zero": [model.labels[i] for i in model.perm[model.i0]],
            "minus": [model.labels[i] for i in model.perm[model.im]],
        },
        "stationary": [float(v) for v in xi],
        "drift": drift,
        "recurrent": drift < 0,
    }
    return report, [args.model], {}, {}


def cmd_psi(args):
    model = load_model(args.model)
    sol = solve_psi(model, tol=args.tol, max_newton=args.max_newton)
    labels = model.canonical_labels()
    up, down = labels[:model.n_plus], labels[model.n_plus + model.n_zero:]
    if args.json:
        output = {"psi": sol.psi.tolist(), "U": sol.U.tolist(), "K": sol.K.tolist(),
                  "up_phases": up, "down_phases": down,
                  "iterations": sol.iterations, "residual": sol.residual}
    else:
        output = [["matrix", "row", "col", "value"]]
        for name, M, rows, cols in (("psi", sol.psi, up, down), ("U", sol.U, down, down),
                                    ("K", sol.K, up, up)):
            output += [[name, r, c, v] for r, vals in zip(rows, M.tolist())
                       for c, v in zip(cols, vals)]
    return output, [args.model], {"tol": args.tol, "max_newton": args.max_newton}, {
        "iterations": sol.iterations, "residual": sol.residual,
        "row_sum_defect": float(np.abs(sol.psi.sum(axis=1) - 1).max())}


def cmd_perturb(args):
    # a NaN or infinite eps is a malformed option (exit 2), not one the model rejects
    if not np.isfinite(args.eps_check or []).all():
        raise argparse.ArgumentTypeError(f"bad eps-check {args.eps_check!r}, expected finite eps")
    model = load_model(args.model)
    spec = perturb.load_perturbation(args.pert, model)
    sol = solve_psi(model, tol=args.tol)
    expansion = perturb.expand(model, sol, spec)
    payload = {
        "regime": expansion.regime,
        "row_phases": [model.labels[i] for i in expansion.row_phases],
        "col_phases": [model.labels[i] for i in expansion.col_phases],
        "psi_bar": expansion.psi_bar.tolist(),
        "psi1": expansion.psi1.tolist(),
        "aux_blocks": sorted(k for k in expansion.aux if k != "series"),
    }
    checks = {}
    for eps in args.eps_check or []:
        psi_eps, pmodel = solve_psi_at(model, spec, eps, tol=args.tol)
        norms = bench.error_norms(model, psi_eps, pmodel, expansion, eps)
        checks[f"{eps:.17g}"] = {k: v for k, v in asdict(norms).items()
                                 if v is not None}
    if checks:
        payload["eps_check"] = checks
    options = {"tol": args.tol, "eps_check": args.eps_check or []}
    return payload, [args.model, args.pert], options, {
        "iterations": sol.iterations, "residual": sol.residual}


def cmd_density(args):
    model = load_model(args.model)
    sol = solve_psi(model, tol=args.tol)
    law = density.stationary_law(model, sol)
    if args.pert:
        spec = perturb.load_perturbation(args.pert, model)
        density.require_generator_kind(spec)
        psi1 = perturb.expand(model, sol, spec).psi1
        fol = density.first_order_law(model, sol, spec.direction, psi1)
    xs = _grid(args.x, log=False)
    rows = [["x"] + [f"pi_{lab}" for lab in model.labels]]
    rows += [[x] + density.density_at(law, sol.psi, model, x).tolist() for x in xs]
    if args.pert:
        rows[0] += [f"pi1_{lab}" for lab in model.labels]
        for row, x in zip(rows[1:], xs):
            row += density.density1_at(fol, law, model, sol.psi, psi1, x).tolist()
    inputs = [p for p in (args.model, args.pert) if p]
    return rows, inputs, {"x": args.x, "tol": args.tol}, {
        "zero_mass": density.zero_mass(law, model).tolist(), "drift": mean_drift(model)}


def cmd_case(args):
    grid = _grid(args.eps_grid, log=True) if args.eps_grid else None
    result = bench.run_case(args.id, grid)
    columns = [result.eps_grid, result.e_plus, result.e_oplus, result.e_inf,
               result.e_minus, result.e_ominus]
    blank = [None] * len(result.eps_grid)
    rows = [["case_id", "eps", "e_plus", "e_oplus", "e_inf", "e_minus", "e_ominus",
             "slope", "r_squared"]]
    rows += [[result.case_id, *cells, result.slope, result.r_squared]
             for cells in zip(*(blank if col is None else col.tolist() for col in columns))]

    summary = [f"case {result.case_id}: r_minus={result.r_minus:.3g} "
               f"drift={result.drift:.3g} slope={result.slope:.3f} "
               f"R^2={result.r_squared:.4f}"]
    for eps_ref, cells in bench.corrected_reference_norms()[result.case_id].items():
        idx = int(np.argmin(np.abs(result.eps_grid - eps_ref)))
        close = abs(result.eps_grid[idx] - eps_ref) <= 1e-12 * eps_ref
        for key, ref in cells.items():
            erratum = bench.REFERENCE_ERRATA.get((result.case_id, eps_ref, key))
            ref_text = f"reference {ref:.3g}" + (
                f" (published {erratum.published:.3g}, erratum)" if erratum else "")
            got = getattr(result, key)
            if got is None or not close:
                summary.append(f"  {key}({eps_ref:.3g}): {ref_text} "
                               "(grid point not evaluated)")
                continue
            ok = abs(got[idx] - ref) <= 0.02 * ref
            summary.append(f"  {key}({eps_ref:.3g}) = {got[idx]:.3g} {ref_text} "
                           f"{'PASS' if ok else 'FAIL'} (2% relative)")
    print("\n".join(summary), file=sys.stderr)
    return rows, [], {"id": args.id, "eps_grid": args.eps_grid}, {
        "slope": result.slope, "r_squared": result.r_squared,
        "r_minus": result.r_minus, "drift": result.drift}


def cmd_simulate(args):
    model = load_model(args.model)
    try:
        cfg = simulate.SimConfig(replications=args.replications, seed=args.seed,
                                 max_time=args.max_time)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    est = simulate.estimate_psi(model, cfg)
    labels = model.canonical_labels()
    up, down = labels[:model.n_plus], labels[model.n_plus + model.n_zero:]
    rows = [["start", "hit", "estimate", "stderr"]]
    rows += [[r, c, e, s] for r, er, sr in zip(up, est.estimate.tolist(), est.stderr.tolist())
             for c, e, s in zip(down, er, sr)]
    options = {"replications": args.replications, "seed": args.seed, "max_time": args.max_time}
    return rows, [args.model], options, {
        "censored_fraction": est.censored_fraction}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors reach ``main``'s Usage report and
    that reads a negative number in scientific notation as a value."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern takes "-1e-3" for an unknown option
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        raise argparse.ArgumentTypeError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="mmfq", description="Markov-modulated fluid queue toolkit")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)
    model, tol, out = (_Parser(add_help=False) for _ in range(3))
    model.add_argument("model")
    tol.add_argument("--tol", type=float, default=DEFAULT_TOL)
    out.add_argument("--out")

    v = sub.add_parser("validate", parents=[model], help="validate a model file")
    v.set_defaults(func=cmd_validate)

    s = sub.add_parser("psi", parents=[model, tol, out], help="first-return matrix and U, K")
    s.add_argument("--max-newton", type=int, default=DEFAULT_MAX_NEWTON)
    s.add_argument("--json", action="store_true")
    s.set_defaults(func=cmd_psi)

    pe = sub.add_parser("perturb", parents=[model, tol, out],
                        help="first-order expansion of psi")
    pe.add_argument("pert")
    pe.add_argument("--eps-check", type=float, nargs="*")
    pe.set_defaults(func=cmd_perturb)

    d = sub.add_parser("density", parents=[model, tol, out],
                       help="stationary density on a level grid")
    d.add_argument("--pert")
    d.add_argument("--x", required=True, help="grid A:B:N (linear)")
    d.set_defaults(func=cmd_density)

    c = sub.add_parser("case", parents=[out], help="run one benchmark case")
    c.add_argument("--id", required=True)
    c.add_argument("--eps-grid", help="grid A:B:N (log-spaced)")
    c.set_defaults(func=cmd_case)

    si = sub.add_parser("simulate", parents=[model, out], help="Monte Carlo estimate of psi")
    si.add_argument("--replications", type=int, default=10000)
    si.add_argument("--seed", type=int, default=0)
    si.add_argument("--max-time", type=float, default=1e4)
    si.set_defaults(func=cmd_simulate)
    return p


def main(argv=None) -> int:
    t0 = time.perf_counter()
    try:
        args = build_parser().parse_args(argv)
        args.argv = sys.argv[1:] if argv is None else list(argv)
        # psi, perturb and density take a tol; NaN or inf would skip Newton
        if not 0.0 <= getattr(args, "tol", 0.0) < np.inf:
            raise argparse.ArgumentTypeError(f"bad tol {args.tol!r}, expected 0 <= tol < inf")
        # psi takes a step cap; a negative one would report NoConvergence
        if getattr(args, "max_newton", 0) < 0:
            raise argparse.ArgumentTypeError(
                f"bad max-newton {args.max_newton!r}, expected max_newton >= 0")
        _write_output(args, t0, *args.func(args))
        return 0
    except FluidQueueError as exc:
        print(json.dumps({"error": exc.code, "message": str(exc)}), file=sys.stderr)
        return 2 if isinstance(exc, UnknownCase) else 1
    except argparse.ArgumentTypeError as exc:
        print(json.dumps({"error": "Usage", "message": str(exc)}), file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError) as exc:
        print(json.dumps({"error": "IO", "message": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
