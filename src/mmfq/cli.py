"""Command-line interface.

One verb per module: validate | psi | perturb | density | case | simulate.
Exit codes: 0 success, 1 domain error, 2 usage or I/O error.  Domain
errors are reported as one-line JSON objects on stderr.  Each writing
verb returns ``(output, inputs, options, diagnostics)``, a CSV body or a
JSON payload, and `_write_output` builds the manifest (command line,
inputs, resolved options, version, wall time, solver diagnostics): a JSON
payload embeds it, a CSV file gets a sibling ``<name>.manifest.json`` and
a CSV on stdout goes without one.
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


def _f17(x: float) -> str:
    return f"{float(x):.17g}"


def _f3(x: float) -> str:
    return f"{float(x):.3g}"


def _write_output(args, t0: float, output: str | dict, inputs: list[str],
                  options: dict, diagnostics: dict) -> None:
    """Write a verb's CSV body or JSON payload to ``args.out`` or stdout,
    with the manifest of the run timed from ``t0``."""
    manifest = {"command": args.argv, "inputs": inputs, "options": options,
                "version": __version__, "wall_time_s": time.perf_counter() - t0,
                "diagnostics": diagnostics}
    text = output if isinstance(output, str) else \
        json.dumps({**output, "manifest": manifest}, indent=2) + "\n"
    if not args.out:
        sys.stdout.write(text)
        return
    with open(args.out, "w") as fh:
        fh.write(text)
    if isinstance(output, str):
        with open(args.out + ".manifest.json", "w") as fh:
            fh.write(json.dumps(manifest, indent=2) + "\n")


def _grid(spec: str, log: bool) -> np.ndarray:
    try:
        a, b, n = spec.split(":")
        a, b, n = float(a), float(b), int(n)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad grid {spec!r}, expected A:B:N") from exc
    # a linear grid is of levels x >= 0; a log grid (of eps) needs two
    # positive finite ends and two points to fit a slope
    low, high = sorted((a, b))
    if n < 1 + log or not 0 <= low <= high < np.inf or log and low == 0:
        raise argparse.ArgumentTypeError(f"bad grid {spec!r}")
    if log:
        return np.logspace(np.log10(a), np.log10(b), n)
    return np.linspace(a, b, n)


def cmd_validate(args) -> None:
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
    print(json.dumps(report, indent=2))


def _matrix_csv(sections) -> str:
    lines = ["matrix,row,col,value"]
    for name, M, rows, cols in sections:
        for i, r in enumerate(rows):
            for j, c in enumerate(cols):
                lines.append(f"{name},{r},{c},{_f17(M[i, j])}")
    return "\n".join(lines) + "\n"


def cmd_psi(args):
    model = load_model(args.model)
    sol = solve_psi(model, tol=args.tol, max_newton=args.max_newton)
    labels = model.canonical_labels()
    up = [labels[i] for i in model.ip]
    down = [labels[i] for i in model.im]
    if args.json:
        output = {"psi": sol.psi.tolist(), "U": sol.U.tolist(), "K": sol.K.tolist(),
                  "up_phases": up, "down_phases": down,
                  "iterations": sol.iterations, "residual": sol.residual}
    else:
        output = _matrix_csv([("psi", sol.psi, up, down),
                              ("U", sol.U, down, down),
                              ("K", sol.K, up, up)])
    return output, [args.model], {"tol": args.tol, "max_newton": args.max_newton}, {
        "iterations": sol.iterations, "residual": sol.residual,
        "row_sum_defect": float(np.abs(sol.psi.sum(axis=1) - 1).max())}


def cmd_perturb(args):
    # a NaN or infinite eps would reach the perturbed generator's validation
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
        checks[_f17(eps)] = {k: v for k, v in asdict(norms).items()
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
    fol = None
    if args.pert:
        spec = perturb.load_perturbation(args.pert, model)
        density.require_generator_kind(spec)
        psi1 = perturb.psi1_generator(model, sol, spec.direction)
        fol = density.first_order_law(model, sol, spec.direction, psi1)
    xs = _grid(args.x, log=False)
    header = ["x"] + [f"pi_{lab}" for lab in model.labels]
    if fol is not None:
        header += [f"pi1_{lab}" for lab in model.labels]
    lines = [",".join(header)]
    for x in xs:
        row = [ _f17(x) ] + [_f17(v) for v in density.density_at(law, sol.psi, model, x)]
        if fol is not None:
            row += [_f17(v) for v in
                    density.density1_at(fol, law, model, sol.psi, psi1, x)]
        lines.append(",".join(row))
    inputs = [p for p in (args.model, args.pert) if p]
    return "\n".join(lines) + "\n", inputs, {"x": args.x, "tol": args.tol}, {
        "zero_mass": density.zero_mass(law, model).tolist(), "drift": mean_drift(model)}


def cmd_case(args):
    grid = _grid(args.eps_grid, log=True) if args.eps_grid else None
    result = bench.run_case(args.id, grid)
    lines = ["case_id,eps,e_plus,e_oplus,e_inf,e_minus,e_ominus,slope,r_squared"]
    for i, eps in enumerate(result.eps_grid):
        cells = [result.case_id, _f17(eps), _f17(result.e_plus[i]),
                 _f17(result.e_oplus[i]) if result.e_oplus is not None else "",
                 _f17(result.e_inf[i]),
                 _f17(result.e_minus[i]) if result.e_minus is not None else "",
                 _f17(result.e_ominus[i]) if result.e_ominus is not None else "",
                 _f17(result.slope), _f17(result.r_squared)]
        lines.append(",".join(cells))
    body = "\n".join(lines) + "\n"

    summary = [f"case {result.case_id}: r_minus={_f3(result.r_minus)} "
               f"drift={_f3(result.drift)} slope={result.slope:.3f} "
               f"R^2={result.r_squared:.4f}"]
    reference = bench.corrected_reference_norms()[result.case_id]
    for eps_ref, cells in reference.items():
        idx = int(np.argmin(np.abs(result.eps_grid - eps_ref)))
        close = abs(result.eps_grid[idx] - eps_ref) <= 1e-12 * eps_ref
        for key, ref in cells.items():
            erratum = bench.REFERENCE_ERRATA.get((result.case_id, eps_ref, key))
            ref_text = f"reference {_f3(ref)}" + (
                f" (published {_f3(erratum.published)}, erratum)" if erratum else "")
            got = {"e_plus": result.e_plus,
                   "e_oplus": result.e_oplus,
                   "e_inf": result.e_inf}[key]
            if got is None or not close:
                summary.append(f"  {key}({_f3(eps_ref)}): {ref_text} "
                               "(grid point not evaluated)")
                continue
            val = got[idx]
            ok = abs(val - ref) <= 0.02 * ref
            summary.append(f"  {key}({_f3(eps_ref)}) = {_f3(val)} {ref_text} "
                           f"{'PASS' if ok else 'FAIL'} (2% relative)")
    print("\n".join(summary))
    return body, [], {"id": args.id, "eps_grid": args.eps_grid}, {
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
    up = [labels[i] for i in model.ip]
    down = [labels[i] for i in model.im]
    lines = ["start,hit,estimate,stderr"]
    for i, r in enumerate(up):
        for j, c in enumerate(down):
            lines.append(f"{r},{c},{_f17(est.estimate[i, j])},{_f17(est.stderr[i, j])}")
    options = {"replications": args.replications, "seed": args.seed, "max_time": args.max_time}
    return "\n".join(lines) + "\n", [args.model], options, {
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

    v = sub.add_parser("validate", help="validate a model file")
    v.add_argument("model")
    v.set_defaults(func=cmd_validate)

    s = sub.add_parser("psi", help="first-return matrix and U, K")
    s.add_argument("model")
    s.add_argument("--tol", type=float, default=DEFAULT_TOL)
    s.add_argument("--max-newton", type=int, default=DEFAULT_MAX_NEWTON)
    s.add_argument("--out")
    s.add_argument("--json", action="store_true")
    s.set_defaults(func=cmd_psi)

    pe = sub.add_parser("perturb", help="first-order expansion of psi")
    pe.add_argument("model")
    pe.add_argument("pert")
    pe.add_argument("--tol", type=float, default=DEFAULT_TOL)
    pe.add_argument("--eps-check", type=float, nargs="*")
    pe.add_argument("--out")
    pe.set_defaults(func=cmd_perturb)

    d = sub.add_parser("density", help="stationary density on a level grid")
    d.add_argument("model")
    d.add_argument("--pert")
    d.add_argument("--x", required=True, help="grid A:B:N (linear)")
    d.add_argument("--tol", type=float, default=DEFAULT_TOL)
    d.add_argument("--out")
    d.set_defaults(func=cmd_density)

    c = sub.add_parser("case", help="run one benchmark case")
    c.add_argument("--id", required=True)
    c.add_argument("--eps-grid", help="grid A:B:N (log-spaced)")
    c.add_argument("--out")
    c.set_defaults(func=cmd_case)

    si = sub.add_parser("simulate", help="Monte Carlo estimate of psi")
    si.add_argument("model")
    si.add_argument("--replications", type=int, default=10000)
    si.add_argument("--seed", type=int, default=0)
    si.add_argument("--max-time", type=float, default=1e4)
    si.add_argument("--out")
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
        result = args.func(args)
        if result is not None:
            _write_output(args, t0, *result)
        return 0
    except UnknownCase as exc:
        print(json.dumps({"error": exc.code, "message": str(exc)}), file=sys.stderr)
        return 2
    except FluidQueueError as exc:
        print(json.dumps({"error": exc.code, "message": str(exc)}), file=sys.stderr)
        return 1
    except argparse.ArgumentTypeError as exc:
        print(json.dumps({"error": "Usage", "message": str(exc)}), file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError) as exc:
        print(json.dumps({"error": "IO", "message": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
