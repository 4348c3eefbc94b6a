"""Self-test of the benchmark: ``python3 perfbench/selftest.py`` from the
repository root.  Takes about a minute.

1. BENCHMARK.json is what spec.py generates.
2. Every workload runs one round (``--seconds 0``), untraced and traced:
   the untraced report names all end-to-end metrics with their units, the
   last line carries exactly the contract's metrics, and both runs report
   the same op counts with no failure.
3. A corrupted result counts as a failed op.
4. Without the library sources the benchmark exits non-zero and prints no
   result.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import spec  # noqa: E402


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")


def bench(*args: str, cwd: Path = ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout.splitlines()


def check_runs() -> None:
    printed = set()
    for name, _ in spec.WORKLOADS:
        counts = {}
        for trace in (0, 1):
            code, lines = bench("--workload", name, "--seed", "7", "--seconds", "0",
                                "--trace", str(trace))
            expect(code == 0, f"{name} trace {trace} exit code {code}")
            result = json.loads(lines[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{name}: result keys {sorted(result)}")
            expect(result["correct"] and result["failed"] == 0,
                   f"{name} trace {trace}: {result['failed']} failed ops")
            wanted = spec.PER_LAYER if trace else spec.END_TO_END
            expect({m: v["unit"] for m, v in result["metrics"].items()}
                   == {m[0]: m[1] for m in wanted}, f"{name} trace {trace}: metric names")
            counts[trace] = result["attempted"]
            if not trace:
                for metric, unit in ([m[:2] for m in spec.END_TO_END] + spec.WALL
                                     + spec.FIGURES[name] + spec.COMMON_FIGURES):
                    # report lines read "<name> <value> <unit> [...]"
                    expect(any(ln.split()[0:3:2] == [metric, unit] for ln in lines[:-1]),
                           f"{name}: {metric} [{unit}] not printed")
                    printed.add(metric)
        expect(counts[0] == counts[1], f"{name}: {counts[0]} ops untraced, {counts[1]} traced")
    figure_names = {"setup_s", "peak_rss_mb"} | {n for n, _ in spec.COMMON_FIGURES} \
        | {n for names in spec.FIGURES.values() for n, _ in names}
    expect(len(figure_names) == 13 and figure_names <= printed,
           f"not printed: {sorted(figure_names - printed)}")


def check_corruption() -> None:
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    workdir = ROOT / "perfbench_results" / "selftest"
    for name in ("sweep", "dense"):
        wl = WORKLOADS[name](7, workdir)
        wl.setup()
        inputs = wl.inputs(0)
        out = wl.op(0, inputs)
        sol = out[0] if name == "sweep" else out[1]
        bad = dataclasses.replace(sol, psi=sol.psi.copy())
        bad.psi[0, 0] += 1e-3
        wl.check(0, inputs, (bad,) + out[1:] if name == "sweep"
                 else out[:1] + (bad,) + out[2:])
        expect(wl.failed_ops == {0}, f"{name}: corrupted psi passed its check")
        good = WORKLOADS[name](7, workdir)
        good.setup()
        good.check(0, inputs, out)
        expect(not good.failed_ops, f"{name}: intact op failed its check")


def check_bare_directory() -> None:
    bare = ROOT / "perfbench_results" / "selftest_bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in HERE.glob("*.py"):
        shutil.copy(f, bare / "perfbench")
    code, lines = bench("--workload", "sweep", "--seconds", "0", cwd=bare)
    expect(code != 0, "benchmark without library sources exited with 0")
    expect(not lines or not lines[-1].startswith("{"), "printed a result without sources")
    shutil.rmtree(bare)


def main() -> int:
    expect((ROOT / "BENCHMARK.json").read_text() == spec.benchmark_json_text(),
           "BENCHMARK.json differs from spec.py; run perfbench/run.py --write-benchmark-json")
    check_corruption()
    check_bare_directory()
    check_runs()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
