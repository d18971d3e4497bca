"""``run_scenario`` must not silently drop scripted sends — on any backend.

On the seed code, a script whose later sends lay beyond ``max_rounds``
was silently truncated: the runner broke out of the issue loop, the
sends were never multicast, and ``delivered_everywhere()`` happily
returned True for the few messages that *were* issued.  A truncated run
proves nothing, so the runner reports the leftovers in ``unsent_sends``
and ``delivered_everywhere()`` refuses success.

Every test runs the same script on the engine, the kernel and the async
backend (the kernel on ``disjoint_topology(2, 2)``, whose ``p1 ∈ g1``
and ``p3 ∈ g2`` match the chain's).  One boundary differs, and is
pinned as it is (DESIGN §14): a send due exactly at ``t == max_rounds``
is left unsent by the round backends, whose budget-exhausting tick ends
the issue phase, while the async driver's clock still issues it.  Both
runs are truncated.
"""

from repro.model import crash_pattern, failure_free, pset
from repro.workloads import ScenarioSpec, Send, chain_topology, run_scenario
from repro.workloads.topologies import disjoint_topology

BACKENDS = ("engine", "kernel", "async")


def _topology(backend):
    if backend == "kernel":
        return disjoint_topology(2, group_size=2)
    return chain_topology(2)


def _run(backend, sends, crashed=None, **axes):
    topo = _topology(backend)
    procs = pset(topo.processes)
    if crashed is None:
        pattern = failure_free(procs)
    else:
        pattern = crash_pattern(procs, {_proc(topo, crashed[0]): crashed[1]})
    return run_scenario(
        ScenarioSpec.capture(topo, pattern, sends, backend=backend, **axes)
    )


def _proc(topo, index):
    return next(p for p in topo.processes if p.index == index)


class TestTruncation:
    def test_truncated_script_reports_unsent_sends(self):
        late = Send(3, "g2", at_round=500)
        for backend in BACKENDS:
            result = _run(
                backend, [Send(1, "g1", 0), late], seed=1, max_rounds=10
            )
            assert result.unsent_sends == [late], backend
            # The late send was never issued, not merely undelivered.
            assert len(result.messages) == 1, backend
            assert result.rounds == 10, backend

    def test_truncated_script_is_not_a_success(self):
        for backend in BACKENDS:
            result = _run(
                backend,
                [Send(1, "g1", 0), Send(3, "g2", 500)],
                seed=1,
                max_rounds=10,
            )
            # Seed bug: this returned True because only the issued
            # message was checked.  A run that never issued the whole
            # script must not report success — and the row says so.
            assert not result.delivered_everywhere(), backend
            row = result.to_row()
            assert row["truncated"] is True, backend
            assert row["delivered_everywhere"] is False, backend

    def test_unsent_and_skipped_are_disjoint(self):
        dead = Send(1, "g1", at_round=5)  # sender crashed at round 1
        late = Send(3, "g2", at_round=500)
        for backend in BACKENDS:
            result = _run(
                backend, [dead, late], crashed=(1, 1), seed=2, max_rounds=10
            )
            assert result.skipped_sends == [dead], backend
            assert result.unsent_sends == [late], backend

    def test_complete_script_has_no_unsent_sends(self):
        for backend in BACKENDS:
            result = _run(backend, [Send(1, "g1", 0), Send(3, "g2", 4)], seed=1)
            assert result.unsent_sends == [], backend
            assert not result.truncated and result.quiescent, backend
            assert result.delivered_everywhere(), backend

    def test_issue_loop_consuming_budget_clamps_drain_to_zero(self):
        # The send is due at t == max_rounds: the issue loop eats the
        # whole budget and the drain must receive 0 rounds, not -1.
        expected = {"engine": (1, 0), "kernel": (1, 0), "async": (0, 1)}
        for backend in BACKENDS:
            result = _run(backend, [Send(1, "g1", 4)], seed=1, max_rounds=4)
            unsent, issued = expected[backend]
            assert len(result.unsent_sends) == unsent, backend
            assert len(result.messages) == issued, backend
            assert result.truncated and not result.quiescent, backend
            assert result.rounds == 4, backend

    def test_exhausted_drain_budget_surfaces_as_truncated(self):
        for backend in BACKENDS:
            result = _run(backend, [Send(1, "g1", 4)], seed=1, max_rounds=5)
            assert result.unsent_sends == [], backend  # issued at round 4
            assert len(result.messages) == 1, backend
            assert result.truncated, backend  # no drain left: no quiescence
            assert result.rounds == 5, backend
            assert not result.delivered_everywhere(), backend
