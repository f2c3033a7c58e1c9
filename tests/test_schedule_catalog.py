"""Catalog-wide properties of every ProbabilitySchedule in the library.

Any schedule must satisfy the same contract: probabilities in [0, 1], the
vectorised table matching the pointwise function, horizon semantics, and
runnability on both engines.  Testing them as a catalog means a new
schedule gets the whole battery by being added to one list.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.adversary.oblivious import StaticSchedule
from repro.baselines.aloha import SlottedAlohaFixed, SlottedAlohaKnownK
from repro.channel.results import StopCondition
from repro.channel.simulator import SlotSimulator
from repro.core.protocol import ScheduleProtocol
from repro.core.protocols.decrease_slowly import DecreaseSlowly
from repro.core.protocols.non_adaptive_with_k import NonAdaptiveWithK
from repro.core.protocols.sublinear_decrease import SublinearDecrease
from repro.core.protocols.wakeup_variants import (
    FixedRateWakeup,
    GeometricDecayWakeup,
)
from repro.core.spec import RunSpec
from repro.engine import execute

CATALOG = [
    NonAdaptiveWithK(16, 2),
    NonAdaptiveWithK(100, 5),
    SublinearDecrease(1),
    SublinearDecrease(6),
    DecreaseSlowly(0.7),
    DecreaseSlowly(4.0),
    SlottedAlohaKnownK(25),
    SlottedAlohaFixed(0.2),
    FixedRateWakeup(0.05),
    GeometricDecayWakeup(0.5, 0.8),
]

IDS = [s.name for s in CATALOG]


@pytest.mark.parametrize("schedule", CATALOG, ids=IDS)
class TestScheduleContract:
    def test_probabilities_in_unit_interval(self, schedule):
        table = schedule.probabilities(500)
        assert table.min() >= 0.0
        assert table.max() <= 1.0

    def test_table_matches_pointwise(self, schedule):
        table = schedule.probabilities(200)
        horizon = schedule.horizon()
        for i in (1, 2, 7, 50, 199, 200):
            if horizon is not None and i > horizon:
                assert table[i - 1] == 0.0
            else:
                assert table[i - 1] == pytest.approx(
                    min(1.0, schedule.probability(i)), abs=1e-12
                )

    def test_cumulative_is_prefix_sum(self, schedule):
        table = schedule.probabilities(100)
        assert schedule.cumulative(100) == pytest.approx(float(table.sum()))

    def test_rejects_round_zero(self, schedule):
        with pytest.raises(ValueError):
            schedule.probability(0)

    def test_runs_on_vectorized_engine(self, schedule):
        result = execute(
            RunSpec(
                k=4,
                protocol=schedule,
                adversary=StaticSchedule(),
                stop=StopCondition.FIRST_SUCCESS,
                max_rounds=3000,
                seed=11,
            ),
            engine="vectorized",
        )
        # A positive-probability schedule gets at least one success among
        # 4 stations within 3000 rounds, except degenerate convergent ones.
        if schedule.cumulative(3000) > 5.0:
            assert result.completed

    def test_runs_on_object_engine(self, schedule):
        result = SlotSimulator(
            2,
            lambda: ScheduleProtocol(schedule),
            StaticSchedule(),
            stop=StopCondition.FIRST_SUCCESS,
            max_rounds=1500,
            seed=12,
        ).run()
        if schedule.cumulative(1500) > 5.0:
            assert result.completed

    def test_non_adaptive_needs_no_listening(self, schedule):
        protocol = ScheduleProtocol(schedule)
        assert protocol.requires_listening is False
