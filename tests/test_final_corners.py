"""Final corner-case batch: behaviours no other test file pins."""

from __future__ import annotations

import numpy as np
import pytest

from repro.adversary.base import FixedSchedule
from repro.adversary.oblivious import StaticSchedule
from repro.channel.feedback import Observation
from repro.channel.messages import DataPacket
from repro.channel.simulator import SlotSimulator
from repro.core.protocol import ProbabilitySchedule, ScheduleProtocol
from repro.core.protocols.global_clock import GlobalClockBeacon, GlobalClockUFR
from repro.core.spec import RunSpec
from repro.engine import execute
from repro.theory.bounds import theorem31_c_for_eta


class AlwaysOn(ProbabilitySchedule):
    name = "always"

    def probability(self, local_round: int) -> float:
        return 1.0


class TestLateWakes:
    def test_object_engine_wakes_beyond_horizon_never_join(self):
        """Stations scheduled past max_rounds never wake; the run cannot
        complete and the records reflect only the woken stations' wakes."""
        result = SlotSimulator(
            2,
            lambda: ScheduleProtocol(AlwaysOn()),
            FixedSchedule([0, 500]),
            max_rounds=10,
            seed=0,
        ).run()
        assert not result.completed
        # Only the round-0 station ever acted (and succeeded alone).
        woken = [r for r in result.records if r.wake_round <= 10]
        assert len(woken) == 1 and woken[0].succeeded

    def test_vectorized_engine_wake_at_horizon_edge(self):
        # Woken exactly at max_rounds - 1: one actionable round.
        result = execute(
            RunSpec(
                k=1,
                protocol=AlwaysOn(),
                adversary=FixedSchedule([9]),
                max_rounds=10,
                seed=1,
            ),
            engine="vectorized",
        )
        assert result.records[0].first_success_round == 10

    def test_vectorized_all_wakes_late(self):
        result = execute(
            RunSpec(
                k=2,
                protocol=AlwaysOn(),
                adversary=FixedSchedule([50, 60]),
                max_rounds=10,
                seed=2,
            ),
            engine="vectorized",
        )
        assert result.success_count == 0
        assert not result.completed


class TestGlobalClockCorners:
    def test_later_beacon_overwrites_probability(self):
        protocol = GlobalClockUFR()
        protocol.begin(0, np.random.default_rng(0))
        protocol.on_wake_round(1)
        first = GlobalClockBeacon(payload=DataPacket(origin=1), probability=0.1)
        second = GlobalClockBeacon(payload=DataPacket(origin=2), probability=0.9)
        protocol.observe(
            Observation(local_round=1, transmitted=False, acked=False, message=first)
        )
        assert protocol._data_probability == pytest.approx(0.1)
        protocol.observe(
            Observation(local_round=2, transmitted=False, acked=False, message=second)
        )
        assert protocol._data_probability == pytest.approx(0.9)

    def test_beacon_probability_clamped(self):
        protocol = GlobalClockUFR()
        protocol.begin(0, np.random.default_rng(0))
        protocol.on_wake_round(0)
        bogus = GlobalClockBeacon(payload=DataPacket(origin=1), probability=7.0)
        protocol.observe(
            Observation(local_round=1, transmitted=False, acked=False, message=bogus)
        )
        assert protocol._data_probability == 1.0

    def test_plain_data_packet_ignored(self):
        protocol = GlobalClockUFR()
        protocol.begin(0, np.random.default_rng(0))
        protocol.on_wake_round(0)
        protocol.observe(
            Observation(
                local_round=1, transmitted=False, acked=False,
                message=DataPacket(origin=4),
            )
        )
        assert protocol._data_probability is None


class TestTheoryCorners:
    def test_c_for_eta_tiny_eta(self):
        # (1-8)^2/32 + 4 = 5.53 >= any eta <= 5.53, so c = 1 suffices.
        assert theorem31_c_for_eta(0.1) == 1
        assert theorem31_c_for_eta(5.0) == 1

    def test_c_for_eta_larger(self):
        c = theorem31_c_for_eta(8.0)
        assert (c - 8) ** 2 / (32 * c) + 4 >= 8.0
        assert c > 1


class TestStaticScheduleSingleton:
    def test_one_station_static(self):
        result = execute(
            RunSpec(
                k=1,
                protocol=AlwaysOn(),
                adversary=StaticSchedule(),
                max_rounds=5,
                seed=3,
            ),
            engine="vectorized",
        )
        assert result.completed
        assert result.max_latency == 1
        assert result.total_transmissions == 1
