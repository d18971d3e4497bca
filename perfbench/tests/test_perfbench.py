"""The benchmark's own checks: tracing is inert and exact, accounting is
faithful, and the command refuses to run without the program.

Run from the repo root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import layers, workloads  # noqa: E402

WORKLOADS = tuple(workloads.BUILDERS)


@pytest.fixture(scope="module")
def hook():
    hook = workloads.RunHook()
    hook.install()
    yield hook
    hook.uninstall()


def traced_pass(hook, workload, seed):
    tracer = layers.LayerTracer()
    hook.tracer = tracer
    try:
        with tracer:
            specs = tracer.call("workloads.build", workloads.BUILDERS[workload], seed)
            runs = workloads.execute(workload, specs, hook)
    finally:
        hook.tracer = None
    return tracer, runs


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tracing_is_inert_and_repeats_exactly(hook, workload):
    plain = workloads.account(
        workloads.execute(workload, workloads.BUILDERS[workload](0), hook)
    )
    first, first_runs = traced_pass(hook, workload, 0)
    second, second_runs = traced_pass(hook, workload, 0)
    # Ordered delivery records (process, message, time) and verdicts.
    assert workloads.account(first_runs).digest == plain.digest
    assert workloads.account(second_runs).digest == plain.digest
    assert first.counts() == second.counts()
    assert layers.exactness_errors(first_runs) == []
    assert [r.counts for r in first_runs] == [r.counts for r in second_runs]
    a = layers.layer_metrics(first, first_runs, plain.orphaned)
    b = layers.layer_metrics(second, second_runs, plain.orphaned)
    for name, _, _, _ in layers.LAYER_METRICS:
        if name not in layers.TIMED:
            assert a[name] == b[name], name


def test_kernel_backlog_counts_match_the_program(hook):
    tracer, runs = traced_pass(hook, "kernel-backlog", 0)
    (run,) = runs
    kernel = run.result.kernel
    metrics = layers.layer_metrics(tracer, runs, 0)
    assert metrics["sim.steps"] == sum(kernel.steps_taken.values()) == 85_119
    assert metrics["model.datagrams"] == kernel.total_messages() == 45_000
    assert metrics["runtime.rounds"] == run.result.rounds == 428
    assert metrics["substrates.slots_decided"] == 1000
    assert metrics["substrates.values_per_slot"] == 1.0


def test_async_counters_come_from_wrappers_not_rows(hook):
    """Async rows report zero scans and actions; the wrappers do not."""
    tracer, runs = traced_pass(hook, "mixed-sweep", 0)
    async_runs = [r for r in runs if r.spec.backend == "async" and r.result is not None]
    assert async_runs
    row_trace = async_runs[0].result.to_row()["trace"]
    assert row_trace["actions"] == row_trace["scanned"] == 0
    assert all(r.counts["calls:core.try_actions"] > 0 for r in async_runs)
    assert tracer.counters["async.retries_lost"] + tracer.counters["async.retries_scheduled"] > 0


def test_known_stall_is_counted_not_filtered(hook):
    runs = workloads.execute("mixed-sweep", workloads.mixed_sweep(0), hook)
    witness = [r for r in runs if r.spec.name.startswith("stall-witness")]
    assert len(witness) == 1 and "StallError" in witness[0].error
    outcome = workloads.account(runs)
    assert outcome.raised >= 1
    assert outcome.failed >= len(witness[0].spec.sends)
    assert outcome.safety == [] and outcome.mismatches == []


@pytest.mark.xfail(strict=True, reason="GammaOracle never readmits a family after a rejoin")
def test_crash_recover_keeps_algorithm1_ordering():
    """The defect behind MS_ALGORITHM1_SKIPS; when this passes, empty it."""
    from repro.props.batch import batch_verdicts
    from repro.workloads import runner

    result = runner.run_scenario(workloads.ordering_witness())
    assert batch_verdicts(result.record)["ordering"] == 0


def test_sweep_leaves_skipped_kinds_to_the_kernel():
    kinds = {
        (spec.backend, event.kind)
        for spec in workloads.mixed_sweep(41)
        if spec.faults is not None
        for event in spec.faults.events
    }
    assert ("kernel", "crash_recover") in kinds
    assert not {k for b, k in kinds if b != "kernel"} & set(workloads.MS_ALGORITHM1_SKIPS)


def test_orphans_are_not_failures(hook):
    runs = workloads.execute("mixed-sweep", workloads.mixed_sweep(0), hook)
    outcome = workloads.account(runs)
    assert outcome.orphaned > 0
    liveness = sum(
        r.verdicts["termination"] for r in runs if r.result is not None and not r.result.truncated
    )
    raised = sum(len(r.spec.sends) for r in runs if r.result is None)
    assert outcome.failed == liveness + raised


def test_safety_verdict_is_reported_with_triage(hook):
    (run,) = workloads.execute("kernel-backlog", workloads.kernel_backlog(0), hook)
    run.verdicts = {"integrity": 0, "termination": 0, "ordering": 1, "minimality": 0}
    outcome = workloads.account([run])
    assert len(outcome.safety) == 1
    assert "ordering" in outcome.safety[0] and "[triage spec_hash=" in outcome.safety[0]


def test_specs_are_a_function_of_the_seed():
    for workload, build in workloads.BUILDERS.items():
        assert build(3) == build(3), workload
        assert [s.spec_hash() for s in build(3)] != [s.spec_hash() for s in build(4)], workload


def test_grouped_percentile():
    assert workloads.percentile([2, 2, 2, 2], 0.5) == 2.0
    assert workloads.percentile([1, 2, 2, 3], 0.5) == 2.0
    assert workloads.percentile([1, 1, 1, 3], 0.5) == pytest.approx(1 - 0.5 + 2 / 3)
    assert workloads.percentile([], 0.5) == 0.0


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kernel-backlog",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_command_prints_every_end_to_end_metric():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kernel-backlog",
         "--seed", "0", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for metric in spec["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0
