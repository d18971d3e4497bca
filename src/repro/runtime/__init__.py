"""repro.runtime — the shared execution loop of every scenario family.

One :class:`Scheduler` per host owns the execution contract (actor
registry, alive ∩ participation filtering, responder and quiescence
accounting, tracer/injector hooks, the seeded one-shuffle-per-round
RNG); it runs either in lockstep rounds (:meth:`Scheduler.run`) or under
the :class:`AsyncDriver` (asyncio tasks over latency-modelled in-memory
channels, with a seeded :class:`VirtualClock` for deterministic replay).
Hosts adapt their execution units to the :class:`Actor` protocol via the
adapters in :mod:`repro.runtime.actors`.
"""

from repro.runtime.actors import AutomatonActor, SharedObjectActor, SystemActor
from repro.runtime.async_driver import CLOCK_MODES, AsyncDriver, AsyncTransport
from repro.runtime.clock import VirtualClock
from repro.runtime.delay import (
    DELAY_MODEL_KINDS,
    DelayModel,
    ExponentialDelay,
    FixedDelay,
    SlowPairsDelay,
    UniformDelay,
    build_delay_model,
    canonical_delay_spec,
    parse_delay_model,
)
from repro.runtime.scheduler import (
    SCHEDULING_MODES,
    Actor,
    RunOutcome,
    Scheduler,
)

__all__ = [
    "Actor",
    "AsyncDriver",
    "AsyncTransport",
    "AutomatonActor",
    "CLOCK_MODES",
    "DELAY_MODEL_KINDS",
    "DelayModel",
    "ExponentialDelay",
    "FixedDelay",
    "RunOutcome",
    "Scheduler",
    "SCHEDULING_MODES",
    "SharedObjectActor",
    "SlowPairsDelay",
    "SystemActor",
    "UniformDelay",
    "VirtualClock",
    "build_delay_model",
    "canonical_delay_spec",
    "parse_delay_model",
]
