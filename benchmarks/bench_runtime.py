"""Runtime-scheduler smoke benchmark: rounds/sec on both hosts.

The ``repro.runtime.Scheduler`` extraction promised byte-identical
behaviour (pinned by ``tests/runtime``) at no material speed cost.  This
benchmark measures raw round throughput of the two hosts on the Table 1
workload — the Figure 1 topology under Algorithm 1 for the engine, a
replicated-log cluster for the kernel — in both scheduling modes, and
records ``rounds_per_sec`` in each benchmark's ``extra_info`` so the CI
``runtime-differential`` job can upload the numbers as a JSON artifact
(``--benchmark-json``) and regressions are visible across runs.

Acceptance gate of the refactor PR: engine event-mode throughput within
0.9x of the pre-refactor loop on this exact workload.
"""

from __future__ import annotations

import pytest

from conftest import run_once
from repro.core import MulticastSystem
from repro.core.group_sequential import AtomicMulticast
from repro.groups import paper_figure1_topology
from repro.metrics import format_table
from repro.model import failure_free, make_processes, pset
from repro.sim import Kernel
from repro.substrates import ReplicatedLogCluster
from repro.workloads import Send

SENDS = [
    Send(1, "g1", 0),
    Send(3, "g2", 0),
    Send(4, "g3", 1),
    Send(5, "g4", 1),
    Send(2, "g1", 2),
]

#: Repeat the workload so one timed iteration is dominated by round
#: execution, not deployment construction.
ENGINE_REPEATS = 20
KERNEL_ROUNDS = 200

ROWS = []


def teardown_module(module):
    print("\n\nRuntime scheduler throughput (shared Scheduler hosts):")
    print(format_table(("host", "mode", "rounds", "rounds/sec"), ROWS))


def _engine_rounds(scheduling):
    total = 0
    for seed in range(ENGINE_REPEATS):
        topology = paper_figure1_topology()
        system = MulticastSystem(
            topology,
            failure_free(topology.processes),
            seed=seed,
            scheduling=scheduling,
        )
        amc = AtomicMulticast(system)
        processes = sorted(topology.processes)
        for send in SENDS:
            amc.multicast(processes[send.sender - 1], send.group)
        total += amc.run(max_rounds=400)
    return total


def _kernel_rounds(scheduling):
    procs = make_processes(6)
    universe = pset(procs)
    pattern = failure_free(universe)
    cluster = ReplicatedLogCluster(pattern, universe)
    for i, p in enumerate(procs[:3]):
        cluster.append(p, f"v{i}")
    kernel = Kernel(
        pattern,
        cluster.automata,
        cluster.detectors,
        seed=7,
        scheduling=scheduling,
    )
    return kernel.run(KERNEL_ROUNDS)


def _record(benchmark, host, mode, rounds):
    per_sec = rounds / benchmark.stats.stats.mean
    benchmark.extra_info["host"] = host
    benchmark.extra_info["mode"] = mode
    benchmark.extra_info["rounds"] = rounds
    benchmark.extra_info["rounds_per_sec"] = round(per_sec, 1)
    ROWS.append((host, mode, rounds, f"{per_sec:,.0f}"))


@pytest.mark.parametrize("scheduling", ["scan", "event"])
def test_engine_round_throughput(benchmark, scheduling):
    rounds = run_once(benchmark, _engine_rounds, scheduling)
    assert rounds > 0
    _record(benchmark, "engine(figure1)", scheduling, rounds)


@pytest.mark.parametrize("scheduling", ["scan", "event"])
def test_kernel_round_throughput(benchmark, scheduling):
    rounds = run_once(benchmark, _kernel_rounds, scheduling)
    assert rounds == KERNEL_ROUNDS  # fixed budget: no quiescent_rounds
    _record(benchmark, "kernel(replog6)", scheduling, rounds)
