"""The repo benchmark: three seeded workloads, end-to-end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload kernel-backlog --seed 0 --seconds 12
    python3 perfbench/run.py --workload figure1-stream --seed 0 --trace 1
    python3 perfbench/run.py --workload all

``--trace 0`` repeats the workload until ``--seconds`` have passed (at
least :data:`MIN_PASSES` times) and reports the end-to-end metrics:
wall-clock ones as the median over passes, logical ones from the
workload's records (identical on every pass, which is checked).
``--trace 1`` alternates untraced and layer-traced passes for the same
time (at least :data:`MIN_TRACED` traced ones) and reports the
per-layer metrics; every traced pass must reproduce the untraced
delivery records and verdicts exactly, and repeat every count.

Human-readable tables go to standard output; the last line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  A safety
verdict (integrity, ordering, minimality) prints its triage line and
exits 3; any other broken check exits 1.  ``--workload all`` runs each
workload in a fresh process (peak memory is per process) and combines
their results.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("kernel-backlog", "figure1-stream", "mixed-sweep")
MIN_PASSES = 3
MIN_TRACED = 2
EXIT_BROKEN = 1
EXIT_SAFETY = 3

#: ``(metric, unit, better)`` — the end-to-end metrics, every workload.
END_TO_END = (
    ("deliveries_per_s", "1/s", "higher"),
    ("latency_rounds_p50", "rounds", "lower"),
    ("latency_rounds_p99", "rounds", "lower"),
    ("msgs_per_round", "1/round", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("completed_frac", "frac", "higher"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def emit(correct, attempted, failed, metrics):
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )


def table(rows, header):
    widths = [max(len(str(row[i])) for row in rows + [header]) for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(str(cell).ljust(width) for cell, width in zip(row, widths)))


def fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


# -- one workload, untraced ------------------------------------------------------


def measure(args, workloads):
    """Repeat the workload; report the end-to-end metrics.

    The first pass warms caches and lazy imports and supplies the
    reference outcome; it is not timed.  Timed passes follow for
    ``--seconds``, each from a collected heap and keeping only trails of
    its results, and must replay the reference record exactly.
    """
    hook = workloads.RunHook()
    hook.install()
    builder = workloads.BUILDERS[args.workload]
    runs = workloads.execute(args.workload, builder(args.seed), hook)
    reference = workloads.account(runs)
    reference_fast = workloads.record_digest(runs, verdicts=False)
    del runs
    if reference.safety:
        return reference, None, "safety"
    hook.keep_results = False
    walls, setups = [], []
    started = time.perf_counter()
    while len(walls) < MIN_PASSES or time.perf_counter() - started < args.seconds:
        gc.collect()
        hook.own_s = 0.0
        t0 = time.perf_counter()
        specs = builder(args.seed)
        built = time.perf_counter() - t0
        runs = workloads.execute(args.workload, specs, hook)
        walls.append(time.perf_counter() - t0 - hook.own_s)
        setups.append(built + sum(run.setup_s for run in runs))
        if workloads.record_digest(runs, verdicts=False) != reference_fast:
            return reference, None, f"timed pass {len(walls)} is not a replay of the first"
        del runs
    out = reference
    metrics = {
        "deliveries_per_s": (
            statistics.median(out.correct_deliveries / wall for wall in walls),
            "1/s",
        ),
        "latency_rounds_p50": (workloads.percentile(out.latencies, 0.50), "rounds"),
        "latency_rounds_p99": (workloads.percentile(out.latencies, 0.99), "rounds"),
        "msgs_per_round": (out.msgs_per_round, "1/round"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "completed_frac": (1.0 - out.failed_frac, "frac"),
    }
    samples = {
        "deliveries_per_s": f"{len(walls)} passes, {out.correct_deliveries} deliveries each",
        "latency_rounds_p50": f"{len(out.latencies)} deliveries",
        "latency_rounds_p99": f"{len(out.latencies)} deliveries",
        "msgs_per_round": f"{out.completed} multicasts over {out.span_rounds} rounds",
        "setup_s": f"{len(setups)} set-ups of {out.runs} runs",
        "peak_rss_mb": "1 process",
        "completed_frac": f"{out.attempted} multicasts",
    }
    print(f"{args.workload} seed {args.seed}: {len(walls)} timed passes in "
          f"{time.perf_counter() - started:.1f} s after one warm-up, "
          f"{out.runs} runs per pass")
    rows = [(name, fmt(metrics[name][0]), unit, samples[name]) for name, unit, _ in END_TO_END]
    rows.append(("failed_frac", fmt(out.failed_frac), "frac",
                 f"{out.failed} failed of {out.attempted} ({out.raised} runs raised, "
                 f"{out.truncated} truncated); {out.orphaned} orphaned"))
    table(rows, ("metric", "value", "unit", "samples"))
    return out, metrics, None


# -- one workload, traced --------------------------------------------------------


def trace(args, workloads, layers):
    """Alternate untraced and traced passes; report per-layer metrics."""
    hook = workloads.RunHook()
    hook.install()
    builder = workloads.BUILDERS[args.workload]
    runs = workloads.execute(args.workload, builder(args.seed), hook)
    reference = workloads.account(runs)
    reference_fast = workloads.record_digest(runs, verdicts=False)
    del runs
    if reference.safety:
        return reference, None, "safety"
    untraced, traced, passes = [], [], []
    reference_counts = None
    started = time.perf_counter()
    while len(traced) < MIN_TRACED or time.perf_counter() - started < args.seconds:
        gc.collect()
        hook.keep_results, hook.own_s = False, 0.0
        t0 = time.perf_counter()
        runs = workloads.execute(args.workload, builder(args.seed), hook)
        untraced.append(time.perf_counter() - t0 - hook.own_s)
        hook.keep_results = True
        if workloads.record_digest(runs, verdicts=False) != reference_fast:
            return reference, None, "an untraced pass is not a replay of the first"
        del runs

        gc.collect()
        tracer = layers.LayerTracer()
        hook.tracer = tracer
        with tracer:
            t0 = time.perf_counter()
            specs = tracer.call("workloads.build", builder, args.seed)
            runs = workloads.execute(args.workload, specs, hook)
            traced.append(time.perf_counter() - t0)
        hook.tracer = None
        if workloads.record_digest(runs, verdicts=False) != reference_fast:
            return reference, None, "traced delivery records differ from untraced"
        if len(traced) == 1:
            traced_outcome = workloads.account(runs)
            if traced_outcome.digest != reference.digest:
                return reference, None, "traced verdicts differ from untraced"
        counts = tracer.counts()
        if reference_counts is None:
            reference_counts = counts
        elif counts != reference_counts:
            return reference, None, "a traced pass did not repeat the counts of the first"
        errors = layers.exactness_errors(runs)
        if errors:
            return reference, None, "wrapper counts disagree with the program: " + "; ".join(errors[:5])
        passes.append((tracer, layers.layer_metrics(tracer, runs, reference.orphaned)))
        del runs
    metrics = {}
    for name, unit, _, _ in layers.LAYER_METRICS:
        if name == "trace.overhead_frac":
            value = statistics.median(traced) / statistics.median(untraced)
        elif name in layers.TIMED:
            value = statistics.median(m[name] for _, m in passes)
        else:
            value = passes[0][1][name]
        metrics[name] = (value, unit)
    print(f"{args.workload} seed {args.seed}: {len(traced)} traced and "
          f"{len(untraced)} untraced passes in {time.perf_counter() - started:.1f} s "
          f"after one warm-up")
    rows = [
        (name, fmt(metrics[name][0]), unit, "yes" if has_async else "NO", moves)
        for name, unit, has_async, moves in layers.LAYER_METRICS
    ]
    table(rows, ("metric", "value", "unit", "async source", "should move"))
    print()
    tracer = passes[0][0]
    spans = [(parent or "-", child, calls, fmt(total)) for parent, child, calls, total in tracer.span_tree()]
    table(spans, ("parent span", "span", "calls", "total_s (first traced pass)"))
    return reference, metrics, None


# -- entry points ------------------------------------------------------------------


def run_one(args):
    from perfbench import layers, workloads

    if args.trace:
        outcome, metrics, problem = trace(args, workloads, layers)
    else:
        outcome, metrics, problem = measure(args, workloads)
    if problem == "safety":
        for line in outcome.safety:
            print(f"SAFETY VIOLATION {line}")
        emit(False, outcome.attempted, outcome.failed, {})
        return EXIT_SAFETY
    if problem is None and outcome.mismatches:
        problem = "accounting disagrees with the checker: " + "; ".join(outcome.mismatches[:3])
    if problem is not None:
        print(f"BROKEN {args.workload} seed {args.seed}: {problem}")
        emit(False, outcome.attempted, outcome.failed, {})
        return EXIT_BROKEN
    emit(True, outcome.attempted, outcome.failed, metrics)
    return 0


def run_all(args):
    """Each workload in a fresh process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        print()
        status = status or proc.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            combined["correct"] = False
            status = status or EXIT_BROKEN
            continue
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return status


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC / 'repro'}; run from a "
              f"checkout that holds src/repro", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [str(SRC), str(ROOT)]
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
