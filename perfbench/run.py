"""gradobs benchmark: one workload, one client, one thread, closed loop.

Run from the repository root:

    python3 perfbench/run.py --workload reconstruct --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 20

A run sets up (imports, seeded inputs, contexts, one warm-up op), then runs
ops back to back for --seconds, checking every op's output.  The last line of
stdout is one JSON object: correct, attempted, failed and metrics.  With
--trace 0 the metrics are the end-to-end ones; with --trace 1 the run
alternates untraced and traced executions of each op and reports per-layer
figures from the outside tracer in spans.py.  The line before it, prefixed
"perfbench:", carries the environment, CPU steal, the op tail and the
accuracy figures.  --all runs every workload in its own process and prints a
table of every metric with its unit.
"""

from __future__ import annotations

import os
import sys
import time

T0 = time.perf_counter()
# pinned before numpy is imported: the BLAS pools size themselves at import
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import warnings

from spans import MLF_BUCKETS, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")

END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)
# set-up is repeated until this many repetitions or this much time
SETUP_REPS = 3
SETUP_BUDGET_S = 3.0
SETUP_OP = -1
SELF_CHECK_OP = -2
# exact mlf branch counts of `reconstruct --preset hum-pipeline`
HUM_PIPELINE_MLF = {"series": 878, "gap": 638, "asymptotic": 3092, "exact": 0}

PER_LAYER = (
    ("mlf.calls", "count"), ("mlf.busy_s", "s"),
    ("mlf.series.calls", "count"), ("mlf.series.busy_s", "s"),
    ("mlf.gap.calls", "count"), ("mlf.gap.busy_s", "s"),
    ("mlf.asymptotic.calls", "count"), ("mlf.asymptotic.busy_s", "s"),
    ("mlf.exact.calls", "count"), ("mlf.exact.busy_s", "s"),
    ("mlf.gap.share", "ratio"),
    ("dynamics.response_matrix.calls", "count"),
    ("dynamics.response_matrix.busy_s", "s"),
    ("dynamics.response_matrix.self_s", "s"),
    ("dynamics.response_matrix.evals", "count"),
    ("dynamics.response_matrix.unique_frac", "ratio"),
    ("dynamics.simulate.busy_s", "s"),
    ("sensing.coupling_matrix.calls", "count"), ("sensing.coupling_matrix.busy_s", "s"),
    ("sensing.grad_coupling.calls", "count"), ("sensing.grad_coupling.busy_s", "s"),
    ("spectral.region_quadrature.calls", "count"),
    ("spectral.region_quadrature.busy_s", "s"),
    ("spectral.grad_adjoint.busy_s", "s"),
    ("observability.build_g_matrices.busy_s", "s"),
    ("observability.gram_regional.busy_s", "s"),
    ("observability.gram_regional.self_s", "s"),
    ("observability.response_kernel_matrix.busy_s", "s"),
    ("observability.grad_overlap_matrix.busy_s", "s"),
    ("observability.overlap_matrix.busy_s", "s"),
    ("observability.conditioning_warnings", "count"),
    ("hum.context.busy_s", "s"),
    ("hum.solve.calls", "count"), ("hum.solve.busy_s", "s"),
    ("hum.cg.iterations", "count"),
    ("hum.apply_lambda.calls", "count"),
    ("hum.discrepancy.busy_s", "s"), ("hum.discrepancy.solves", "count"),
    ("hum.rhs_from_data.busy_s", "s"),
    ("cli.main.busy_s", "s"), ("cli.self_s", "s"), ("cli.bytes_written", "B"),
    ("cli.read_observations.busy_s", "s"),
    ("setup.mlf.calls", "count"), ("setup.mlf.busy_s", "s"),
    ("setup.hum.context.busy_s", "s"), ("setup.dynamics.simulate.busy_s", "s"),
    ("trace.overhead", "ratio"),
)


def since_process_start() -> float:
    """Seconds from process creation to now, at clock-tick resolution."""
    try:
        with open("/proc/self/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        with open("/proc/uptime") as handle:
            uptime = float(handle.read().split()[0])
        return max(0.0, uptime - int(fields[19]) / os.sysconf("SC_CLK_TCK"))
    except (OSError, ValueError, IndexError):
        return 0.0


def cpu_times() -> list[int] | None:
    try:
        with open("/proc/stat") as handle:
            return [int(v) for v in handle.readline().split()[1:9]]
    except (OSError, ValueError):
        return None


def steal_share(before, after) -> float | None:
    if before is None or after is None:
        return None
    total = sum(after) - sum(before)
    return (after[7] - before[7]) / total if total > 0 else 0.0


def tail(times: list[float]) -> tuple[float | None, float | None]:
    """Highest percentile with at least ten ops beyond it, and its value."""
    n = len(times)
    if n < 11:
        return None, None
    return 100.0 * (n - 10) / n, sorted(times)[n - 11]


def run_op(workload, inp, caught: list):
    """Time one op; returns (seconds, output, error)."""
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        start = time.perf_counter()
        try:
            out, err = workload.op(inp), None
        except Exception as exc:  # a raising op is a failed op, not a crash
            out, err = None, exc
        elapsed = time.perf_counter() - start
    caught.extend(seen)
    return elapsed, out, err


def checked(workload, inp, out, err) -> tuple[bool, dict]:
    if err is not None:
        print(f"perfbench: op raised {type(err).__name__}: {err}", file=sys.stderr)
        return False, {}
    try:
        return workload.check(inp, out)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        print(f"perfbench: check failed: {exc}", file=sys.stderr)
        return False, {}


def conditioning_count(caught: list) -> int:
    from gradobs.observability import ConditioningWarning

    return sum(1 for w in caught if issubclass(w.category, ConditioningWarning))


def layer_metrics(summary: dict, setup: dict, ops: int, op_time: float,
                  overhead: float) -> dict:
    m = {k: v / ops for k, v in summary.items()}
    m["mlf.calls"] = sum(m.get(f"mlf.{b}.calls", 0.0) for b in MLF_BUCKETS)
    m["mlf.busy_s"] = sum(m.get(f"mlf.{b}.busy_s", 0.0) for b in MLF_BUCKETS)
    m["mlf.gap.share"] = summary.get("mlf.gap.busy_s", 0.0) / op_time
    evals = summary.get("dynamics.response_matrix.evals", 0.0)
    unique = summary.get("dynamics.response_matrix.unique", 0.0)
    m["dynamics.response_matrix.unique_frac"] = unique / evals if evals else 0.0
    m["setup.mlf.calls"] = sum(setup.get(f"mlf.{b}.calls", 0.0) for b in MLF_BUCKETS)
    m["setup.mlf.busy_s"] = sum(setup.get(f"mlf.{b}.busy_s", 0.0) for b in MLF_BUCKETS)
    m["setup.hum.context.busy_s"] = setup.get("hum.context.busy_s", 0.0)
    m["setup.dynamics.simulate.busy_s"] = setup.get("dynamics.simulate.busy_s", 0.0)
    m["trace.overhead"] = overhead
    return {name: {"value": float(m.get(name, 0.0)), "unit": unit}
            for name, unit in PER_LAYER}


def run_workload(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "gradobs", "__init__.py")):
        print(f"perfbench: no gradobs sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    to_start = since_process_start() - (time.perf_counter() - T0)
    import mpmath
    import numpy as np
    import gradobs
    import gradobs.cli  # noqa: F401  (loads every layer module)
    import workloads

    imported = time.perf_counter()
    cpu_before = cpu_times()
    workload = workloads.WORKLOADS[args.workload]()
    work = os.path.join(STATE, f"work-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.prepare()
    notes: dict = {}
    correct = True
    try:
        reps = []
        while True:
            start = time.perf_counter()
            if tracer:
                tracer.begin_op(SETUP_OP)
                tracer.install()
            workload.prepare(args.seed, work)
            if tracer:
                tracer.uninstall()
            warm = workload.inputs(-1)
            _, out, err = run_op(workload, warm, [])
            reps.append(time.perf_counter() - start)
            if tracer or len(reps) == SETUP_REPS or sum(reps) >= SETUP_BUDGET_S:
                break
        setup_s = to_start + (imported - T0) + statistics.median(reps)
        notes["setup_reps"] = len(reps)
        workload.references()
        correct &= checked(workload, warm, out, err)[0]
        if tracer and args.workload == "reconstruct":
            correct &= self_check(tracer, work, notes)

        times, traced_times, figures = [], [], {}
        attempted = failed = 0
        loop_start = time.perf_counter()
        i = 0
        while i < (workload.trace_ops if tracer else 1) or \
                time.perf_counter() - loop_start < args.seconds:
            runs = [False, True] if tracer else [False]
            for traced in runs:
                inp = workload.inputs(i)
                caught: list = []
                if traced:
                    tracer.begin_op(i)
                    tracer.install()
                elapsed, out, err = run_op(workload, inp, caught)
                if traced:
                    tracer.uninstall()
                    tracer.count("observability.conditioning_warnings",
                                 conditioning_count(caught))
                    tracer.count("cli.bytes_written", workload.written_bytes(inp))
                    traced_times.append(elapsed)
                else:
                    times.append(elapsed)
                ok, figs = checked(workload, inp, out, err)
                attempted += 1
                failed += not ok
                for key, value in figs.items():
                    figures.setdefault(key, []).append(value)
            i += 1
        cpu_after = cpu_times()

        pct, tail_s = tail(times)
        notes.update({
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "ops": len(times), "op_tail_pct": pct, "op_tail_s": tail_s,
            "op_s": [round(t, 4) for t in times],
            "steal_frac": steal_share(cpu_before, cpu_after),
            "nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": np.__version__, "mpmath": mpmath.__version__,
            "gradobs": gradobs.__version__,
        })
        for key, values in figures.items():
            notes[f"{key}_min"] = min(values)
            notes[f"{key}_median"] = statistics.median(values)
        if tracer:
            k = workload.trace_ops
            summary = tracer.summarize(set(range(k)))
            ratios = [t / u for t, u in zip(traced_times, times)]
            metrics = layer_metrics(summary, tracer.summarize({SETUP_OP}), k,
                                    sum(traced_times[:k]), statistics.median(ratios))
            if args.workload == "placement":
                inexact = sum(summary.get(f"mlf.{b}.calls", 0.0)
                              for b in MLF_BUCKETS if b != "exact")
                notes["placement_all_exact"] = inexact == 0
                correct &= inexact == 0
            os.makedirs(STATE, exist_ok=True)
            tracer.write(os.path.join(STATE, f"trace-{args.workload}.json"), notes)
        else:
            metrics = {
                "setup_s": setup_s,
                "op_p50_s": statistics.median(times),
                "ops_per_s": len(times) / sum(times),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            metrics = {name: {"value": float(metrics[name]), "unit": unit}
                       for name, unit in END_TO_END}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("perfbench: " + json.dumps(notes, sort_keys=True))
    print(json.dumps({"correct": bool(correct and failed == 0), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def self_check(tracer, work: str, notes: dict) -> bool:
    """Traced `reconstruct --preset hum-pipeline` must hit the known counts."""
    from gradobs.cli import main

    tracer.begin_op(SELF_CHECK_OP)
    tracer.install()
    try:
        rc = main(["reconstruct", "--preset", "hum-pipeline",
                   "--out", os.path.join(work, "self-check")])
    finally:
        tracer.uninstall()
    summary = tracer.summarize({SELF_CHECK_OP})
    counts = {b: int(summary.get(f"mlf.{b}.calls", 0)) for b in HUM_PIPELINE_MLF}
    notes["self_check_mlf"] = counts
    return rc == 0 and counts == HUM_PIPELINE_MLF


def run_all(args) -> int:
    """Every workload in its own process; one table row per metric."""
    status = 0
    for name in ("reconstruct", "regularize", "placement", "mlf-scan"):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:44s} {entry['value']:.6g} {entry['unit']}")
        notes = json.loads(lines[-2].split(" ", 1)[1]) if len(lines) > 1 else {}
        for key in sorted(notes):
            if key.endswith(("_min", "_median")) or key.startswith("op_tail"):
                print(f"  {key:44s} {notes[key]}")
        status |= not result["correct"]
    return status


def parse(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=("reconstruct", "regularize",
                                               "placement", "mlf-scan"))
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.all and args.workload is None:
        parser.error("--workload or --all is required")
    return args


if __name__ == "__main__":
    ARGS = parse()
    sys.exit(run_all(ARGS) if ARGS.all else run_workload(ARGS))
