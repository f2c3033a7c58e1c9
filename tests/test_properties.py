"""Property-based tests (hypothesis) on cross-cutting invariants.

These drive the engines with randomly generated schedules, wake patterns
and seeds and check the invariants that must hold for *any* configuration:
channel semantics, conservation of stations, monotonicity of bookkeeping.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary.base import FixedSchedule
from repro.channel.events import RoundOutcome
from repro.channel.results import StopCondition
from repro.channel.simulator import SlotSimulator
from repro.channel.validate import validate_run
from repro.core.protocol import ProbabilitySchedule, ScheduleProtocol
from repro.core.spec import RunSpec
from repro.engine import execute


class PiecewiseSchedule(ProbabilitySchedule):
    """An arbitrary finite schedule, cycled; hypothesis generates the steps."""

    def __init__(self, steps):
        self.steps = [min(0.9, max(0.0, s)) for s in steps]
        self.name = "piecewise"

    def probability(self, local_round: int) -> float:
        return self.steps[(local_round - 1) % len(self.steps)]


schedules = st.lists(
    st.floats(min_value=0.0, max_value=0.9, allow_nan=False), min_size=1, max_size=8
).map(PiecewiseSchedule)

wake_patterns = st.lists(
    st.integers(min_value=0, max_value=30), min_size=1, max_size=12
)


@given(schedule=schedules, wake=wake_patterns, seed=st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_object_engine_invariants(schedule, wake, seed):
    k = len(wake)
    result = SlotSimulator(
        k,
        lambda: ScheduleProtocol(schedule),
        FixedSchedule(wake),
        max_rounds=300,
        seed=seed,
        record_trace=True,
    ).run()
    # The full invariant battery first.
    validate_run(result, k=k)
    # Conservation: exactly k stations, wake rounds as scheduled.
    assert sorted(r.wake_round for r in result.records) == sorted(wake)
    # Every success round in the trace has exactly one transmitter.
    for event in result.trace:
        if event.outcome is RoundOutcome.SUCCESS:
            assert event.transmitter_count == 1
        elif event.outcome is RoundOutcome.SILENCE:
            assert event.transmitter_count == 0
        else:
            assert event.transmitter_count >= 2
    # Per-station bookkeeping invariants.
    for record in result.records:
        if record.first_success_round is not None:
            assert record.first_success_round > record.wake_round
            assert record.transmissions >= 1
        if record.switch_off_round is not None and record.succeeded:
            assert record.switch_off_round >= record.first_success_round
    # Success count never exceeds k (each station succeeds at most once
    # under ack-switch-off).
    assert result.success_count <= k


@given(schedule=schedules, wake=wake_patterns, seed=st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_vectorized_engine_invariants(schedule, wake, seed):
    k = len(wake)
    result = execute(
        RunSpec(
            k=k,
            protocol=schedule,
            adversary=FixedSchedule(wake),
            max_rounds=300,
            seed=seed,
        ),
        engine="vectorized",
    )
    validate_run(result, k=k)
    assert sorted(r.wake_round for r in result.records) == sorted(wake)
    assert result.success_count <= k
    for record in result.records:
        if record.first_success_round is not None:
            assert record.first_success_round > record.wake_round
            assert record.transmissions >= 1
            assert record.first_success_round <= 300
        # Energy only counts attempts up to the switch-off.
        if record.succeeded:
            assert record.switch_off_round == record.first_success_round


@given(
    wake=wake_patterns,
    seed=st.integers(0, 2**31 - 1),
    p=st.floats(min_value=0.05, max_value=0.9),
)
@settings(max_examples=30, deadline=None)
def test_lone_station_always_succeeds(wake, seed, p):
    """A station alone on the channel (k=1) must succeed quickly for any
    positive transmission probability."""

    class Constant(ProbabilitySchedule):
        name = "const"

        def probability(self, local_round: int) -> float:
            return p

    result = execute(
        RunSpec(
            k=1,
            protocol=Constant(),
            adversary=FixedSchedule(wake[:1]),
            max_rounds=wake[0] + 2000,
            seed=seed,
        ),
        engine="vectorized",
    )
    assert result.completed


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_engines_share_schedule_semantics(seed):
    """Zero-probability rounds transmit in neither engine; certain rounds
    transmit in both (single station, no collisions)."""

    class Alternating(ProbabilitySchedule):
        name = "alternating"

        def probability(self, local_round: int) -> float:
            return 1.0 if local_round % 2 == 0 else 0.0

    vec = execute(
        RunSpec(
            k=1,
            protocol=Alternating(),
            adversary=FixedSchedule([0]),
            max_rounds=10,
            seed=seed,
        ),
        engine="vectorized",
    )
    obj = SlotSimulator(
        1,
        lambda: ScheduleProtocol(Alternating()),
        FixedSchedule([0]),
        max_rounds=10,
        seed=seed,
    ).run()
    # First transmission opportunity is local round 2 in both engines.
    assert vec.records[0].first_success_round == 2
    assert obj.records[0].first_success_round == 2
