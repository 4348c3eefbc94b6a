"""What the benchmark measures: workloads, metrics and bounds.

``BENCHMARK.json`` at the repository root is generated from this module
(``python3 perfbench/run.py --write-benchmark-json``) and the self-test
checks that the two agree.

Every end-to-end metric is reported on every workload, so the metrics are
named after what a caller sees of one operation ("op") rather than after
a workload.  What an op is differs per workload; ``FIGURES`` lists the
workload-specific figures the human-readable report prints beside them.

The op-time metrics are in units of ``ref``: each op's time is divided by
the median time of the workload's reference computation over the five
ops before and after it (the reference is timed after every op; see
workloads.py).  On a shared host the wall-clock times of one seed vary by
up to 40% between runs a few minutes apart and by 20% within seconds; the
ratio cancels most of that.  The report prints the wall-clock figures
(``WALL``) beside them.
"""

from __future__ import annotations

import json

RUN_SECONDS = 25

# One line each (at most 200 characters): why the workload exists.
WORKLOADS = [
    ("sweep",
     "The paper's experiment: 6 cases at m=5 (n=15), 20 eps cells each; small"
     " solves stress Python overhead and validation. m=10 has no O(eps^2) gate"
     " (case 2a at round-off floor)."),
    ("dense",
     "Size ladder n=40/60/80 of seeded dense models through solve, two"
     " expansions and density; shows the O((pq)^3) Newton kernel. Stops at 80:"
     " n=100 takes 2.8 s, n>130 hits SizeLimit."),
    ("oracle",
     "Independent checks on case 1a: Monte Carlo psi, Monte Carlo histogram"
     " and an 8001-point density grid with first-order correction; Newton is"
     " trivial here."),
    ("cli",
     "Sequential one-shot mmfq CLI calls (psi, perturb, density, case) on"
     " files written at set-up; cold start dominates and no other workload"
     " goes through the CLI layer."),
]

# (name, unit, better, bound).  setup_s is in wall-clock seconds, so its
# bound is the widest allowed.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("op_p50_ref", "ref", "lower", 0.25),
    ("op_tail_ref", "ref", "lower", 0.25),
    ("op_mean_ref", "ref", "lower", 0.25),
]

# wall-clock figures printed beside them: (name, unit)
WALL = [("op_p50_ms", "ms"), ("op_tail_ms", "ms"), ("ops_per_s", "1/s"),
        ("reference_ms", "ms")]

_CALLS_BUSY = [("calls", "count", "higher"), ("busy_s", "s", "lower")]
_LAYERS = [
    ("core.validate_model", _CALLS_BUSY),
    ("core.censor_zero_phases", _CALLS_BUSY),
    ("riccati.solve_psi", _CALLS_BUSY),
    ("riccati.newton_riccati", _CALLS_BUSY + [("self_s", "s", "lower")]),
    ("riccati.step_solve", _CALLS_BUSY + [("flops_computed", "flop", "lower"),
                                          ("bytes_computed", "B", "lower")]),
    ("riccati.defect_correct", _CALLS_BUSY),
    ("perturb.expand", _CALLS_BUSY + [("self_s", "s", "lower")]),
    ("perturb.sylvester", _CALLS_BUSY + [("flops_computed", "flop", "lower")]),
    ("perturb.inner_newton", _CALLS_BUSY),
    ("density.stationary_law", _CALLS_BUSY),
    ("density.first_order_law", _CALLS_BUSY),
    ("density.density_at", _CALLS_BUSY),
    ("density.density1_at", _CALLS_BUSY),
    ("density.matrix_exp", _CALLS_BUSY),
    ("density.conv_integral", _CALLS_BUSY),
    ("simulate.estimate_psi", _CALLS_BUSY + [("paths", "count", "higher")]),
    ("simulate.estimate_density", _CALLS_BUSY),
    ("bench.error_norms", _CALLS_BUSY),
    ("harness.op", _CALLS_BUSY + [("self_s", "s", "lower")]),
]

# (name, unit, better) of the traced run
PER_LAYER = [(f"{layer}.{stat}", unit, better)
             for layer, stats in _LAYERS for stat, unit, better in stats] + [
    ("riccati.newton_iterations", "count", "lower"),
    ("riccati.residual_max", "ratio", "lower"),
    ("riccati.rowsum_defect_max", "ratio", "lower"),
    ("density.mass_defect", "ratio", "lower"),
    ("simulate.censored_fraction", "ratio", "lower"),
    ("cli.interpreter_ms", "ms", "lower"),
    ("cli.import_ms", "ms", "lower"),
    ("cli.exit_nonzero", "count", "lower"),
    ("trace.overhead_ms", "ms", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]

# Workload-specific names printed in the human-readable report, with the
# unit each is printed in.  fail_frac is failed / attempted of the result.
FIGURES = {
    "sweep": [("sweep_cells_per_s", "1/s"), ("sweep_cell_p50_ms", "ms"),
              ("sweep_cell_tail_ms", "ms")],
    "dense": [("dense_n40_s", "s"), ("dense_n60_s", "s"), ("dense_n80_s", "s")],
    "oracle": [("density_points_per_s", "1/s"), ("mc_paths_per_s", "1/s")],
    "cli": [("cli_p50_ms", "ms"), ("cli_tail_ms", "ms")],
}
COMMON_FIGURES = [("fail_frac", "ratio")]


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }


def benchmark_json_text() -> str:
    return json.dumps(benchmark_json(), indent=2) + "\n"
