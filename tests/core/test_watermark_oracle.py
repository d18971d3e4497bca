"""The prefix watermarks of Algorithm 1 against the definition.

Lines 10, 28 and 36 of Algorithm 1 wait until every ``m' <_L m`` has
reached a phase ``θ``.  ``Algorithm1Process._prefix_at_least`` answers
from a per-(log, θ) watermark that relies on two invariants: phases only
rise at a process, and the log's message view changes only on message
appends and bumps (DESIGN §13, "Indexed log queries").  This suite
recomputes ``all(phase(m') ≥ θ for m' <_L m)`` from ``Log.precedes`` at
every check and asserts the watermark agrees — on Figure 1 and the 3×3
disjoint grid, on the engine and async backends, over 20 seeds,
failure-free and under crashes, crash–recovery and nemesis plans.
"""

from __future__ import annotations

import pytest

from repro.core.algorithm1 import Algorithm1Process
from repro.core.phases import STABLE
from repro.faults.nemesis import MIXES, random_plan
from repro.faults.plan import FaultEvent, FaultPlan
from repro.groups import paper_figure1_topology
from repro.model import MessageId, MulticastMessage, by_indices, make_processes
from repro.objects import Log
from repro.objects.space import LogHandle
from repro.workloads import ScenarioSpec, run_scenario
from repro.workloads.runner import Send, random_sends
from repro.workloads.spec import TopologySpec
from repro.workloads.topologies import disjoint_topology

SEEDS = tuple(range(20))

TOPOLOGIES = {
    "figure1": paper_figure1_topology(),
    "grid": disjoint_topology(3, group_size=3),
}

#: Per topology, a victim whose loss keeps every group's quorum (on
#: Figure 1 only p4/p5 sit in a single size-3 group).
VICTIMS = {"figure1": (4, 5), "grid": (2, 5, 9)}

FAULTS = ("none", "crash", "crash_recover", "nemesis")


def _contended(topology) -> tuple:
    """Every member of every group multicasts at round 0, highest index
    first, so log order runs against the scan's message-id order."""
    return tuple(
        Send(p.index, g.name, 0)
        for g in sorted(topology.groups, key=lambda g: g.name)
        for p in sorted(g.members, reverse=True)
    )


def _spec(shape: str, backend: str, fault: str, seed: int) -> ScenarioSpec:
    topology = TOPOLOGIES[shape]
    victims = VICTIMS[shape]
    victim = victims[seed % len(victims)]
    axes = {}
    if fault == "crash":
        axes["crashes"] = ((victim, 2 + seed % 5),)
    elif fault == "crash_recover":
        start = 2 + seed % 4
        axes["faults"] = FaultPlan(
            (FaultEvent(kind="crash_recover", start=start, until=start + 4, targets=(victim,)),)
        )
    elif fault == "nemesis":
        axes["faults"] = random_plan(
            seed,
            MIXES[seed % len(MIXES)],
            process_count=len(topology.processes),
            groups=tuple(sorted(g.name for g in topology.groups)),
        )
    if backend == "async":
        axes["delay_model"] = ("uniform", 0.1, 0.9)
    return ScenarioSpec(
        topology=TopologySpec.capture(topology),
        sends=_contended(topology) + tuple(random_sends(topology, count=4, seed=seed)),
        seed=seed,
        max_rounds=240,
        backend=backend,
        **axes,
    )


@pytest.fixture
def checks(monkeypatch):
    """Route every prefix check through the definition; count outcomes."""
    original = Algorithm1Process._prefix_at_least
    outcomes = {True: 0, False: 0}

    def checked(self, handle, m, threshold):
        got = original(self, handle, m, threshold)
        expected = all(
            self.phase_of(other) >= threshold
            for other in handle.log.messages()
            if handle.log.precedes(other, m)
        )
        assert got == expected, (self.pid, handle.name, m, threshold)
        outcomes[got] += 1
        return got

    monkeypatch.setattr(Algorithm1Process, "_prefix_at_least", checked)
    return outcomes


@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("backend", ("engine", "async"))
@pytest.mark.parametrize("shape", sorted(TOPOLOGIES))
def test_watermark_matches_the_definition(checks, shape, backend, fault):
    for seed in SEEDS:
        run_scenario(_spec(shape, backend, fault, seed))
    assert checks[True] > 0, checks
    if shape == "figure1":
        # Intersecting groups put messages out of scan order in the
        # intersection logs, so checks also fail.  On the disjoint grid
        # the group-sequential interface keeps one undelivered message
        # per group log, and every check there passes.
        assert checks[False] > 0, checks


def test_a_bump_inside_the_watermark_clamps_it():
    """The watermark rests on the log's invariants alone.

    In Algorithm 1 a message at ``commit`` or beyond at ``p`` is locked
    in every log ``p`` checks it in (Claim 6), so no bump ever moves a
    message inside a watermark there and the clamp never lowers one.
    Driven by hand, a bump that does must make the next check walk
    the reordered prefix again.
    """
    p1, _ = make_processes(2)
    process = Algorithm1Process(
        p1, paper_figure1_topology(), None, None, on_deliver=lambda p, m: None
    )
    a, b, c = (
        MulticastMessage(MessageId(1, i), p1, by_indices(1, 2)) for i in (1, 2, 3)
    )
    handle = LogHandle(Log("L"), by_indices(1, 2), lambda p, reason: None)
    for m in (a, b, c):
        handle.log.append(m)
    process.phase[a.mid] = process.phase[b.mid] = STABLE
    assert process._prefix_at_least(handle, c, STABLE)  # watermark: a, b
    handle.log.bump_and_lock(a, 10)  # view: b, c, a
    assert not process._prefix_at_least(handle, a, STABLE)  # c is at start
