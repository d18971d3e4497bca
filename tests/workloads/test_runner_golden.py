"""Row golden for ``run_scenario``: one digest per (backend, fault, seed).

``tests/runtime/golden.json`` pins the engine and the kernel when they
are driven directly; this suite pins what the *runner* adds on top of
them — send issue and crash-skip accounting, the round budget and its
truncation flags, the watchdog-free drain, the injector, the kernel's
applied-id → delivery synthesis, the async driver's transport counters
and the trace JSONL meta line.  Every case runs through the public
``run_scenario(spec, trace_path=...)`` and hashes:

* ``to_row()`` (verdicts, trace totals, fault and transport stats, spec);
* the delivery events ``(time, process, message id)`` in record order;
* the issued message ids, the skipped and the unsent sends;
* ``rounds``, ``quiescent``, ``truncated`` and ``transport_stats``;
* the ``meta`` record of the trace JSONL.

The matrix is engine/kernel/async × {fault-free, crash, one nemesis
mix, crash_recover} × 3 seeds, plus one truncated budget per backend.
Engine and async run on a chain (intersecting, acyclic groups); the
kernel needs pairwise-disjoint groups.  Cyclic families are left out:
their γ rejoin behaviour is a known open defect, not a contract.

The digests were generated once and are never regenerated to silence
a diff (DESIGN §13, policy 1): a changed digest is a behaviour change
and must be explained, not re-pinned.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.faults.nemesis import random_plan
from repro.faults.plan import FaultEvent, FaultPlan
from repro.metrics import read_jsonl
from repro.workloads import ScenarioSpec, Send, run_scenario
from repro.workloads.runner import random_sends
from repro.workloads.spec import TopologySpec
from repro.workloads.topologies import chain_topology, disjoint_topology

SEEDS = (0, 1, 2)
FAULTS = ("none", "crash", "nemesis", "crash_recover")

#: Per backend: the topology and a victim whose loss keeps every
#: group's quorum (p1 sits in g1 only on both shapes).
TOPOLOGIES = {
    "engine": chain_topology(2, group_size=3),
    "async": chain_topology(2, group_size=3),
    "kernel": disjoint_topology(2, group_size=3),
}
VICTIM = 1


def _spec(backend: str, fault: str, seed: int) -> ScenarioSpec:
    topology = TOPOLOGIES[backend]
    sends = tuple(random_sends(topology, count=4, seed=seed))
    axes = {}
    if fault == "crash":
        crash_at = 2 + seed
        axes["crashes"] = ((VICTIM, crash_at),)
        # One send after the crash: the runner must skip it.
        sends += (Send(VICTIM, "g1", crash_at + 1),)
    elif fault == "nemesis":
        axes["faults"] = random_plan(
            seed,
            "full",
            process_count=len(topology.processes),
            groups=tuple(sorted(g.name for g in topology.groups)),
        )
    elif fault == "crash_recover":
        axes["faults"] = FaultPlan(
            (
                FaultEvent(
                    kind="crash_recover",
                    start=2 + seed,
                    until=6 + seed,
                    targets=(VICTIM,),
                ),
            )
        )
    elif fault == "truncated":
        # A late send past the budget: unsent, and the run is cut short.
        sends += (Send(VICTIM, "g1", 50),)
        axes["max_rounds"] = 6
    if backend == "async":
        axes["delay_model"] = ("uniform", 0.1, 0.9)
    return ScenarioSpec(
        topology=TopologySpec.capture(topology),
        sends=sends,
        seed=seed,
        max_rounds=axes.pop("max_rounds", 300),
        backend=backend,
        **axes,
    )


def _send(send: Send) -> list:
    return [send.sender, send.group, send.at_round, send.payload]


def _digest(spec: ScenarioSpec, trace_path: str) -> str:
    result = run_scenario(spec, trace_path=trace_path)
    meta = read_jsonl(trace_path)[0]
    assert meta["type"] == "meta"
    payload = {
        "row": result.to_row(),
        "deliveries": [
            [
                e.time,
                e.process.index,
                e.message.mid.sender_index,
                e.message.mid.sequence,
            ]
            for e in result.record.deliveries
        ],
        "messages": [str(m.mid) for m in result.messages],
        "skipped": [_send(s) for s in result.skipped_sends],
        "unsent": [_send(s) for s in result.unsent_sends],
        "rounds": result.rounds,
        "quiescent": result.quiescent,
        "truncated": result.truncated,
        "transport_stats": result.transport_stats,
        "meta": meta,
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


CASES = [
    (backend, fault, seed)
    for backend in ("engine", "kernel", "async")
    for fault in FAULTS
    for seed in SEEDS
] + [(backend, "truncated", 0) for backend in ("engine", "kernel", "async")]

GOLDEN = {
    "engine-none-0": (
        "8668037d22f4e8f652f43f092b1bbab5c082e07d1311f7d4a783b9364fa2dfe7"
    ),
    "engine-none-1": (
        "0af6e3df1a879921f96cb2569651691b700eee5a46926d5fd5d6fa01f69500c5"
    ),
    "engine-none-2": (
        "ac2bad4806bf71952712980bc8d853d3ba9aa59d51deeb83d1bbe14174807347"
    ),
    "engine-crash-0": (
        "4b29bd674c53e68630c426c00f4298d46c8ce1fc4661ee15b6093aa357f275f9"
    ),
    "engine-crash-1": (
        "64c97846cf773b0a9fad8cbb79bd5e4fa96dc15b1609bf2c58d81cf1c5064493"
    ),
    "engine-crash-2": (
        "0e0989f0611f7548152c376b7ae150c2ac8c3cdc51d940e327567d56527e7c70"
    ),
    "engine-nemesis-0": (
        "0e7ee260e9802bc6d638143bd2660dece03ee48fac766426ecaa63738fc8a9d8"
    ),
    "engine-nemesis-1": (
        "8e440ac3df0ae2f5a280cd398282d226b8761a8b7f6b2a8fd0d145585eb9fea7"
    ),
    "engine-nemesis-2": (
        "8d07d97f66cbf2ea0247312ca0f1916e0ca2aab5b78863f4333d1b2bbc31edc3"
    ),
    "engine-crash_recover-0": (
        "d5c334d9997fac0ab93470f0b4c7e671e0e8a541f0acc750af73f3df96896c6f"
    ),
    "engine-crash_recover-1": (
        "f28081f90aeb9afb4d7ddc20e236cfedbdf653da8f133d3f572ddfc88b6fce84"
    ),
    "engine-crash_recover-2": (
        "58655223e6d0d5ca88f2ce4c228f468a899b0e0b0eb828185ee87fd371e61ddf"
    ),
    "kernel-none-0": (
        "61144af5d98dcd44ce49a42e9f8f0719586a83b831c9c39ab3089a5f8933460b"
    ),
    "kernel-none-1": (
        "82ad68f62f1315b1cbc52901d73cfa199fdc548ca0e6f79f3e3fa2fb8ad84665"
    ),
    "kernel-none-2": (
        "7e4db333d555fe66ccf9cb3656e0d43189c13cceb62e230a49edd70a9ff84035"
    ),
    "kernel-crash-0": (
        "5645fe4a97f6b260beb108ec11c825c334b014d2623fba44bcfc69a3c5e2befb"
    ),
    "kernel-crash-1": (
        "4464d8086b47c0029dfcdb55f5cb253ec55dfd1c45e5aca7377fa6e86f2a36e5"
    ),
    "kernel-crash-2": (
        "031e7791dede735e28d3bce90cfb9d085c91c73e9c165849a75002d3c9cb21f0"
    ),
    "kernel-nemesis-0": (
        "ea985991be722593c3a5cb1547c559d28bc93eea80d8a35d96bef7ea33bfe37b"
    ),
    "kernel-nemesis-1": (
        "ddca88f243cf14f1675a45ef1206b27f3dc113091cb773f93b24d8dbd680fc33"
    ),
    "kernel-nemesis-2": (
        "d0fa114836323b1a458f56558f31485dc685d532cf2ac7a89af9ea676f430b1c"
    ),
    "kernel-crash_recover-0": (
        "bc74605aabb9d46867cbe557c5d76eec31a10f21c1b76b3f4434e918ebdaf968"
    ),
    "kernel-crash_recover-1": (
        "14ba017bfdc3bc9825af7dd58ff25f3269adab92b831d8ff84d3e8028c4839c6"
    ),
    "kernel-crash_recover-2": (
        "3948fe7b7f71a32b06a46bebc2f2a45d1750968d9bc0777ea3bd9e827efdaa7e"
    ),
    "async-none-0": (
        "cb9fc0ac9b000b5bdf5b16cfd00f988d7f1f7945a7d95fac8f1ffde4bcda5ad6"
    ),
    "async-none-1": (
        "8ecf4e57cc27425a6b5ef818bbaebd4704bf94b3da51b943dffe1636bcee3c54"
    ),
    "async-none-2": (
        "7841b3fe86127ea5c3fa441d479cfb720b12dc16b80a4ab080812bea34a19116"
    ),
    "async-crash-0": (
        "d070e9e05156f6f55919e732e420b4f39f8776a80151c2ffe1afb7e45e0ae3e2"
    ),
    "async-crash-1": (
        "530008f1da38bdb303c44054eaa468eb2ea0b746ab0c3f87aa74ef5e514db258"
    ),
    "async-crash-2": (
        "1282fd2d157c678e8c2c1e44ae830bffd2cdb0268e48b397dc802cceef8be987"
    ),
    "async-nemesis-0": (
        "b12b8584348fbbca4762c69879a9e83743491cd95538ca88ec78f459a57e6ec5"
    ),
    "async-nemesis-1": (
        "32113dab9e456a1e8878f1777ef2d0029b2f22524a2cd9c841704ef16f70bb5c"
    ),
    "async-nemesis-2": (
        "491de75ab0ddc714891ea2170ac0d26b3a9e9d0018f350459b82d43bc9e7214a"
    ),
    "async-crash_recover-0": (
        "0168c393a2abf54cf73e4c8eb23b3ce9a04e962e818d96d2f5df8c690c24f616"
    ),
    "async-crash_recover-1": (
        "6ea9f3868ac4350138719e39755b2189e804aa42644267e218836850cc1c6cf9"
    ),
    "async-crash_recover-2": (
        "2ed4aa8579f4f8f61e51b4065d4473c6cc3a1a6c72e2d7f9d7e2472d3112dc2d"
    ),
    "engine-truncated-0": (
        "796671b2557ed57444c43330312b59c41db57c4645585862b2c36b1a6f3c53b1"
    ),
    "kernel-truncated-0": (
        "a4895a22ff922f0d6f090899a23e280d38e2a435479e444af5860d6a595ce0d4"
    ),
    "async-truncated-0": (
        "96f00a19ef560dc814ef659ade8b9a2c10b315e3beaa32c0f84748253a86b626"
    ),
}


@pytest.mark.parametrize(
    "backend,fault,seed", CASES, ids=[f"{b}-{f}-{s}" for b, f, s in CASES]
)
def test_row_digest_is_frozen(tmp_path, backend, fault, seed):
    digest = _digest(_spec(backend, fault, seed), str(tmp_path / "trace.jsonl"))
    assert digest == GOLDEN[f"{backend}-{fault}-{seed}"]
