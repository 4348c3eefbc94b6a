"""One workload in one process; started by run.py, not meant to be run by hand.

The worker sets up (imports, inputs, one untimed warm-up op), prints
``READY``, runs ops in a closed loop until ``--seconds`` have passed and
the current round is complete, timing the workload's reference
computation after every op, and prints one JSON line with its counts,
op and reference times and, when traced, the per-layer table.
``--setup-only`` exits right after ``READY``; run.py times several of
those to measure set-up.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402  (after the path set-up)

import mmfq  # noqa: E402
from tracing import ROOT as ROOT_SPAN, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def environment(seed: int) -> dict:
    import scipy
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    ld = np.finfo(np.longdouble)
    try:
        threads = len(os.listdir("/proc/self/task"))
    except OSError:
        threads = None
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "threads_in_process": threads,
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "seed": seed,
        "longdouble_eps": float(ld.eps), "longdouble_mantissa_bits": int(ld.nmant),
        # defect correction and Sylvester refinement are no-ops when
        # longdouble is not wider than double: a different program
        "comparable": bool(ld.eps < np.finfo(float).eps),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    if not Path(mmfq.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"mmfq imported from {mmfq.__file__}, not from this checkout",
              file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload](args.seed, args.workdir)
    wl.setup()
    wl.op(0, wl.inputs(0))  # untimed warm-up
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tracer = Tracer() if args.trace else None
    latencies, references, traced = [], [], []
    errors = 0
    i = 0
    start = perf_counter()
    deadline = start + args.seconds
    while i == 0 or i % wl.ROUND_LEN or perf_counter() < deadline:
        inputs = wl.inputs(i)
        # a traced run traces every other round; the rest measure the overhead
        is_traced = tracer is not None and (i // wl.ROUND_LEN) % 2 == 0
        if is_traced:
            tracer.op_id = i
            tracer.install()
        t0 = perf_counter()
        try:
            out = tracer.call(ROOT_SPAN, wl.op, i, inputs) if is_traced else wl.op(i, inputs)
        except Exception:  # an op that raises counts as failed; keep measuring
            out = None
            errors += 1
            if errors <= 3:
                traceback.print_exc()
        latencies.append(perf_counter() - t0)
        if is_traced:
            tracer.uninstall()
        traced.append(is_traced)
        wl.check(i, inputs, out)
        t0 = perf_counter()
        wl.reference()
        references.append(perf_counter() - t0)
        i += 1
    elapsed = perf_counter() - start
    wl.finish()

    result = {
        "attempted": i, "failed": len(wl.failed_ops), "elapsed_s": elapsed,
        "tail_percentile": wl.TAIL_PERCENTILE,
        "latencies_s": latencies, "reference_s": references,
        "figures": wl.figures(latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(args.seed),
    }
    if tracer is not None:
        wl.probe_layers()
        on = [t for t, tr in zip(latencies, traced) if tr]
        off = [t for t, tr in zip(latencies, traced) if not tr]
        counts = dict(tracer.counts)
        counts.update(wl.counts)
        paths = counts.get("simulate.estimate_psi.paths", 0.0)
        if paths:
            counts["simulate.censored_fraction"] = counts.pop("simulate.censored_paths") / paths
        if on and off:
            counts["trace.overhead_ms"] = 1e3 * (np.mean(on) - np.mean(off))
            counts["trace.overhead_frac"] = np.mean(on) / np.mean(off) - 1.0
        result.update(layers=tracer.layer_table(), counts=counts,
                      traced_s=sum(on), untraced_s=sum(off),
                      traced_ops=len(on), untraced_ops=len(off))
        spans = args.workdir / "spans.csv"
        tracer.write_spans(spans)
        result["spans_file"] = str(spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
