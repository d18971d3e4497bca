"""The run_scenario API: one spec argument, harness options keyword-only."""

import pytest

from repro.model import failure_free, make_processes, pset
from repro.workloads import (
    ScenarioSpec,
    Send,
    chain_topology,
    run_scenario,
)


def _fixture():
    topo = chain_topology(2)
    procs = make_processes(3)
    return topo, failure_free(pset(procs)), [Send(1, "g1", 0), Send(3, "g2", 4)]


class TestSpecForm:
    def test_result_self_describes_its_spec(self):
        topo, pattern, sends = _fixture()
        spec = ScenarioSpec.capture(topo, pattern, sends, seed=2)
        first = run_scenario(spec)
        assert first.spec == spec
        replay = run_scenario(first.spec)
        assert replay.spec == spec
        assert replay.record.deliveries == first.record.deliveries
        row = replay.to_row()
        assert row["spec_hash"] == spec.spec_hash()
        assert row["status"] == "ok"

    def test_spec_form_rejects_extra_arguments(self):
        topo, pattern, sends = _fixture()
        spec = ScenarioSpec.capture(topo, pattern, sends)
        with pytest.raises(TypeError):
            run_scenario(spec, pattern)
        with pytest.raises(TypeError):
            run_scenario(spec, seed=5)

    def test_spec_form_accepts_trace_path(self, tmp_path):
        topo, pattern, sends = _fixture()
        spec = ScenarioSpec.capture(topo, pattern, sends)
        path = str(tmp_path / "trace.jsonl")
        run_scenario(spec, trace_path=path)
        from repro.metrics import read_jsonl

        records = read_jsonl(path)
        assert records[0]["type"] == "meta"
        assert records[0]["spec_hash"] == spec.spec_hash()


class TestTruncationClamp:
    def test_complete_run_is_not_truncated(self):
        topo, pattern, sends = _fixture()
        result = run_scenario(ScenarioSpec.capture(topo, pattern, sends, seed=1))
        assert not result.truncated
        assert result.delivered_everywhere()

    def test_truncated_run_shows_in_row(self):
        topo, pattern, _ = _fixture()
        spec = ScenarioSpec.capture(
            topo, pattern, [Send(1, "g1", 4)], seed=1, max_rounds=5
        )
        row = run_scenario(spec).to_row()
        assert row["truncated"] is True
        assert row["delivered_everywhere"] is False
