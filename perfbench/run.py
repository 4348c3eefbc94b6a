"""The mmfq benchmark.

    python3 perfbench/run.py --workload {sweep,dense,oracle,cli,all}
                             [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --write-benchmark-json

Run from the repository root.  Each workload runs in a worker process of
its own (worker.py) with the library imported from ``src/`` and BLAS
pinned to one thread.  With ``--trace 0`` the end-to-end metrics are
measured: set-up time is the median over several worker starts (process
start to the first timed op), then one worker measures ops for
``--seconds``.  The report gives op times in wall-clock units and, for
the metrics that later versions are compared on, in units of the
workload's reference computation timed beside them (see spec.py).  With
``--trace 1`` a worker wraps the library's layers in timing spans on
every other round and reports the per-layer table and the tracing
overhead.  Every op's output is checked outside its timed
interval.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are the human-readable report.  The full result, with the environment
record, goes to ``perfbench_results/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = ROOT / "perfbench_results"
BLAS_THREADS = 1
SETUP_STARTS = 5          # worker starts timed for setup_s, the measuring one included
REF_WINDOW = 5            # reference timings on each side of an op that set its unit
TIME_LIMIT_S = 170.0      # one workload, all its workers included


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_worker(argv: list[str], deadline: float):
    """Start a worker; return (seconds until READY, last stdout line)."""
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py")] + argv,
                            stdout=subprocess.PIPE, text=True, env=child_env(),
                            cwd=ROOT)
    timer = threading.Timer(max(deadline - t0, 1.0), proc.kill)
    timer.start()
    ready, last = None, None
    try:
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = perf_counter() - t0
            elif line.strip():
                last = line
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0 or ready is None:
        raise RuntimeError(f"worker {' '.join(argv)} exited with code {code}")
    return ready, last


def in_reference_units(latencies: list[float], references: list[float]) -> list[float]:
    """Each op's time over the median of the reference times around it, so
    that a host slowing down for a few seconds slows both sides alike."""
    k = REF_WINDOW
    return [t / statistics.median(references[max(i - k, 0):i + k + 1])
            for i, t in enumerate(latencies)]


def tail(samples: list[float], percentile: float):
    """Nearest-rank percentile: (value, samples beyond it)."""
    s = sorted(samples)
    rank = max(math.ceil(percentile / 100.0 * len(s)), 1)
    return s[rank - 1], len(s) - rank


def run_workload(name: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    workdir = RESULTS / f"{name}-seed{seed}-trace{trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    argv = ["--workload", name, "--seed", str(seed), "--seconds", repr(seconds),
            "--trace", str(trace), "--workdir", str(workdir)]
    setups = [] if trace else [run_worker(argv + ["--setup-only"], deadline)[0]
                               for _ in range(SETUP_STARTS - 1)]
    ready, last = run_worker(argv, deadline)
    res = json.loads(last)
    setups.append(ready)
    lat_ms = res["latencies_ms"] = [1e3 * t for t in res.pop("latencies_s")]
    ref_ms = res["reference_ms"] = [1e3 * t for t in res.pop("reference_s")]
    tail_ms, beyond = tail(lat_ms, res["tail_percentile"])
    res.update(workload=name, trace=trace, setup_samples_s=setups, tail_beyond=beyond)
    wall = res["wall"] = {
        "op_p50_ms": statistics.median(lat_ms),
        "op_tail_ms": tail_ms,
        "ops_per_s": 1e3 * len(lat_ms) / sum(lat_ms),
        "reference_ms": statistics.median(ref_ms),
    }
    rel = in_reference_units(lat_ms, ref_ms)
    res["end_to_end"] = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": res["peak_rss_mb"],
        "op_p50_ref": statistics.median(rel),
        "op_tail_ref": tail(rel, res["tail_percentile"])[0],
        "op_mean_ref": statistics.fmean(rel),
    }
    fig = res["figures"]
    if name == "sweep":
        fig.update(sweep_cell_p50_ms=wall["op_p50_ms"], sweep_cell_tail_ms=tail_ms)
    elif name == "cli":
        fig.update(cli_p50_ms=wall["op_p50_ms"], cli_tail_ms=tail_ms)
    (workdir / "result.json").write_text(json.dumps(res, indent=1) + "\n")
    return res


def metrics_of(res: dict) -> dict:
    if res["trace"]:
        layers, counts = res["layers"], res["counts"]
        out = {}
        for name, unit, _ in spec.PER_LAYER:
            layer, _, stat = name.rpartition(".")
            if layer in layers and stat in layers[layer]:
                value = layers[layer][stat]
            else:
                value = counts.get(name, 0.0)
            out[name] = {"value": value, "unit": unit}
        return out
    return {name: {"value": res["end_to_end"][name], "unit": unit}
            for name, unit, _, _ in spec.END_TO_END}


def report(res: dict) -> list[str]:
    env = res["env"]
    lines = [f"== {res['workload']}  seed {env['seed']}  trace {res['trace']}  "
             f"({res['attempted']} ops in {res['elapsed_s']:.2f} s)",
             f"   python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
             f"BLAS {env['blas']} pinned to {env['blas_threads']} thread(s) "
             f"({env['threads_in_process']} threads in the worker), nproc {env['nproc']}, "
             f"{env['cpu']}",
             f"   longdouble eps {env['longdouble_eps']:.3g} "
             f"({env['longdouble_mantissa_bits']}-bit mantissa): "
             + ("comparable" if env["comparable"] else
                "NOT COMPARABLE, defect correction is a no-op on this platform")]
    if not res["trace"]:
        e2e = res["end_to_end"]
        tail_note = (f"  (p{res['tail_percentile']:.4g}, {res['tail_beyond']} of "
                     f"{res['attempted']} samples beyond)")
        for name, unit, _, _ in spec.END_TO_END:
            extra = {"setup_s": f"  (median of {len(res['setup_samples_s'])} starts)",
                     "op_tail_ref": tail_note}.get(name, "")
            lines.append(f"   {name:<22} {e2e[name]:.6g} {unit}{extra}")
        for name, unit in spec.WALL:
            extra = tail_note if name == "op_tail_ms" else ""
            lines.append(f"   {name:<22} {res['wall'][name]:.6g} {unit}{extra}")
        named = dict(res["figures"], setup_s=e2e["setup_s"], peak_rss_mb=e2e["peak_rss_mb"],
                     fail_frac=res["failed"] / res["attempted"])
        for name, unit in spec.FIGURES[res["workload"]] + spec.COMMON_FIGURES:
            lines.append(f"   {name:<22} {named[name]:.6g} {unit}")
        return lines
    total = res["traced_s"]
    lines.append(f"   {'layer':<28}{'calls':>9}{'busy_s':>11}{'self_s':>11}{'share':>8}")
    for layer, row in sorted(res["layers"].items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(f"   {layer:<28}{row['calls']:>9}{row['busy_s']:>11.4f}"
                     f"{row['self_s']:>11.4f}{row['self_s'] / total:>8.1%}")
    share = sum(r["self_s"] for r in res["layers"].values()) / total if total else 0.0
    lines.append(f"   shares sum to {share:.1%} of {total:.3f} s traced over "
                 f"{res['traced_ops']} ops")
    if res["untraced_ops"]:
        per_on = res["traced_s"] / res["traced_ops"]
        per_off = res["untraced_s"] / res["untraced_ops"]
        lines.append(f"   per op: traced {1e3 * per_on:.4g} ms, untraced {1e3 * per_off:.4g} ms "
                     f"over {res['untraced_ops']} ops; tracing overhead "
                     f"{1e3 * (per_on - per_off):+.4g} ms ({per_on / per_off - 1:+.1%})")
    for name, value in sorted(res["counts"].items()):
        lines.append(f"   {name:<40} {value:.6g}")
    lines.append(f"   spans: {res['spans_file']}")
    return lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    names = [n for n, _ in spec.WORKLOADS]
    ap.add_argument("--workload", choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-benchmark-json", action="store_true",
                    help="write BENCHMARK.json at the repository root and exit")
    args = ap.parse_args()
    if args.write_benchmark_json:
        (ROOT / "BENCHMARK.json").write_text(spec.benchmark_json_text())
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if not (ROOT / "src" / "mmfq" / "__init__.py").is_file():
        print(f"no mmfq sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    results = []
    for name in (names if args.workload == "all" else [args.workload]):
        try:
            res = run_workload(name, args.seed, args.seconds, args.trace,
                               perf_counter() + TIME_LIMIT_S)
        except (RuntimeError, ValueError, TypeError) as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        print("\n".join(report(res)), flush=True)
        results.append(res)
    if args.workload == "all":
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in metrics_of(r).items()}
    else:
        metrics = metrics_of(results[0])
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
