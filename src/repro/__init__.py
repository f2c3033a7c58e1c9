"""repro — contention resolution on asynchronous shared channels.

A full reproduction of *"Time and Energy Efficient Contention Resolution in
Asynchronous Shared Channels"* (De Marco, Kowalski, Stachowiak; journal
version of the PODC 2017 paper *"Asynchronous Shared Channel"*).

Quick start::

    from repro import NonAdaptiveWithK, RunSpec, UniformRandomSchedule, execute

    k = 256
    result = execute(RunSpec(
        k=k,
        protocol=NonAdaptiveWithK(k),
        adversary=UniformRandomSchedule(span=lambda k: 2 * k),
        seed=7,
    ))
    print(result.max_latency, result.total_transmissions)

``execute`` routes the spec to the right engine automatically (here the
batched schedule kernel, the ``"vectorized"`` engine); the round-loop
engine classes remain importable for direct use.

See ``examples/`` for runnable scenarios and ``benchmarks/`` for the
table/figure reproductions indexed in DESIGN.md.
"""

from repro.adversary import (
    AdaptiveAdversary,
    AntiLeaderAdversary,
    BatchSchedule,
    BurstOnQuietAdversary,
    DripFeedAdversary,
    FixedSchedule,
    PoissonSchedule,
    StaggeredSchedule,
    StaticSchedule,
    TwoWavesSchedule,
    UniformRandomSchedule,
    WakeOnSuccessAdversary,
    WakeSchedule,
    blocked_prefix_length,
    build_ik_instance,
    build_jk_instance,
)
from repro.channel import (
    FeedbackModel,
    Observation,
    RoundEvent,
    RoundOutcome,
    RunResult,
    SlotSimulator,
    StopCondition,
)
from repro.core import (
    ProbabilitySchedule,
    Protocol,
    ScheduleProtocol,
    Station,
    StationRecord,
    Transmission,
)
from repro.core.protocols import (
    AdaptiveNoK,
    DecreaseSlowly,
    NonAdaptiveWithK,
    SublinearDecrease,
    SUniform,
)
from repro.core.spec import RunSpec
from repro.engine import execute

__version__ = "1.0.0"

__all__ = [
    # adversaries
    "AdaptiveAdversary",
    "AntiLeaderAdversary",
    "BatchSchedule",
    "BurstOnQuietAdversary",
    "DripFeedAdversary",
    "FixedSchedule",
    "PoissonSchedule",
    "StaggeredSchedule",
    "StaticSchedule",
    "TwoWavesSchedule",
    "UniformRandomSchedule",
    "WakeOnSuccessAdversary",
    "WakeSchedule",
    "blocked_prefix_length",
    "build_ik_instance",
    "build_jk_instance",
    # channel
    "FeedbackModel",
    "Observation",
    "RoundEvent",
    "RoundOutcome",
    "RunResult",
    "SlotSimulator",
    "StopCondition",
    # core
    "ProbabilitySchedule",
    "Protocol",
    "ScheduleProtocol",
    "Station",
    "StationRecord",
    "Transmission",
    # protocols
    "AdaptiveNoK",
    "DecreaseSlowly",
    "NonAdaptiveWithK",
    "SublinearDecrease",
    "SUniform",
    # engine dispatch
    "RunSpec",
    "execute",
]
