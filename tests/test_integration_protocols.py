"""Integration tests: each paper protocol meets its theorem's guarantee
(latency/energy within the proved shape, generous constants) on moderate
contentions across adversarial schedules.

These are the "does the reproduction actually reproduce" tests: they run
full executions, not units.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.adversary.adaptive import AntiLeaderAdversary, BurstOnQuietAdversary
from repro.adversary.oblivious import (
    BatchSchedule,
    StaggeredSchedule,
    StaticSchedule,
    TwoWavesSchedule,
    UniformRandomSchedule,
)
from repro.channel.results import StopCondition
from repro.channel.simulator import SlotSimulator
from repro.core.protocols.adaptive_no_k import AdaptiveNoK
from repro.core.protocols.decrease_slowly import DecreaseSlowly
from repro.core.protocols.non_adaptive_with_k import NonAdaptiveWithK
from repro.core.protocols.sublinear_decrease import SublinearDecrease
from repro.core.spec import RunSpec
from repro.engine import execute

OBLIVIOUS_POOL = [
    StaticSchedule(),
    UniformRandomSchedule(span=lambda k: 2 * k),
    StaggeredSchedule(gap=2),
    BatchSchedule(batch=16, gap=100),
    TwoWavesSchedule(delay=lambda k: 3 * k),
]


class TestNonAdaptiveWithK:
    """Theorem 3.1 (O(k) latency) + Theorem 3.2 (O(k log k) energy)."""

    @pytest.mark.parametrize("adversary", OBLIVIOUS_POOL, ids=lambda a: a.name)
    def test_linear_latency_whp(self, adversary):
        k, c = 128, 6
        failures = 0
        for seed in range(5):
            result = execute(
                RunSpec(
                    k=k,
                    protocol=NonAdaptiveWithK(k, c),
                    adversary=adversary,
                    max_rounds=3 * c * k + 4 * k + 4096,
                    seed=seed,
                ),
                engine="vectorized",
            )
            if not result.completed:
                failures += 1
                continue
            # Per-station latency can never exceed the schedule horizon.
            assert result.max_latency <= 3 * c * k + c * 8
        assert failures == 0

    def test_energy_is_k_log_k_scale(self):
        k, c = 256, 6
        result = execute(
            RunSpec(
                k=k,
                protocol=NonAdaptiveWithK(k, c),
                adversary=UniformRandomSchedule(span=lambda kk: 2 * kk),
                max_rounds=30 * k,
                seed=11,
            ),
            engine="vectorized",
        )
        assert result.completed
        per_station = result.total_transmissions / k
        # Theorem 3.2: expectation ~ (c/2)(loglog k + log k) = ~27 at k=256.
        expected = NonAdaptiveWithK.expected_energy_per_station(k, c)
        # Theorem 3.2 is a worst-case ceiling (station runs the full ladder);
        # in benign runs stations exit early, so only the upper side binds.
        assert per_station <= 2.0 * expected
        # Every successful station transmitted at least once.
        assert per_station >= 1.0

    def test_works_with_linear_upper_bound_instead_of_k(self):
        # The theorem allows a linear upper bound on k: run 64 stations
        # with the protocol parameterised at 2x the true contention.
        k = 64
        result = execute(
            RunSpec(
                k=k,
                protocol=NonAdaptiveWithK(2 * k, 6),
                adversary=StaticSchedule(),
                max_rounds=60 * 2 * k,
                seed=12,
            ),
            engine="vectorized",
        )
        assert result.completed and result.success_count == k


class TestSublinearDecrease:
    """Theorems t:full-1/t:full-2 latency, thm:energy energy."""

    @pytest.mark.parametrize("adversary", OBLIVIOUS_POOL, ids=lambda a: a.name)
    def test_completes_within_theorem_horizon(self, adversary):
        k, b = 96, 4
        horizon = SublinearDecrease.latency_bound_no_ack(k, b) + 4 * k
        result = execute(
            RunSpec(
                k=k,
                protocol=SublinearDecrease(b),
                adversary=adversary,
                max_rounds=horizon,
                seed=21,
            ),
            engine="vectorized",
        )
        assert result.completed
        assert result.success_count == k

    def test_ack_variant_faster_than_no_ack(self):
        k, b, reps = 128, 4, 4
        horizon = SublinearDecrease.latency_bound_no_ack(k, b) + 4 * k
        with_ack, without_ack = [], []
        for seed in range(reps):
            r1 = execute(
                RunSpec(
                    k=k,
                    protocol=SublinearDecrease(b),
                    adversary=StaticSchedule(),
                    max_rounds=horizon,
                    seed=seed,
                ),
                engine="vectorized",
            )
            r2 = execute(
                RunSpec(
                    k=k,
                    protocol=SublinearDecrease(b),
                    adversary=StaticSchedule(),
                    switch_off_on_ack=False,
                    stop=StopCondition.ALL_SUCCEEDED,
                    max_rounds=horizon,
                    seed=seed,
                ),
                engine="vectorized",
            )
            assert r1.completed and r2.completed
            with_ack.append(r1.max_latency)
            without_ack.append(r2.max_latency)
        assert np.mean(with_ack) < np.mean(without_ack)

    def test_energy_polylog_per_station(self):
        k, b = 128, 4
        horizon = SublinearDecrease.latency_bound_no_ack(k, b)
        result = execute(
            RunSpec(
                k=k,
                protocol=SublinearDecrease(b),
                adversary=StaticSchedule(),
                max_rounds=horizon,
                seed=31,
            ),
            engine="vectorized",
        )
        assert result.completed
        per_station = result.total_transmissions / k
        # Theorem: O(log^2 k); Fact 4.1 gives the constant b ln^2(horizon/b).
        ceiling = b * math.log(horizon / b) ** 2
        assert per_station <= ceiling


class TestDecreaseSlowlyWakeup:
    """Theorem 5.1: wake-up in O(k) rounds whp."""

    @pytest.mark.parametrize("k", [16, 64, 256])
    def test_wakeup_linear(self, k):
        q = 2.0
        schedule = DecreaseSlowly(q)
        times = []
        for seed in range(5):
            result = execute(
                RunSpec(
                    k=k,
                    protocol=schedule,
                    adversary=StaticSchedule(),
                    stop=StopCondition.FIRST_SUCCESS,
                    max_rounds=schedule.theoretical_wakeup_bound(k) + 1024,
                    seed=seed,
                ),
                engine="vectorized",
            )
            assert result.completed
            times.append(result.first_success_round)
        # The proof's ceiling is 32qk; empirically it is far below k.
        assert max(times) <= 32 * q * k

    def test_wakeup_under_adaptive_adversary(self):
        k = 64
        result = SlotSimulator(
            k,
            lambda: __import__("repro.core.protocol", fromlist=["ScheduleProtocol"])
            .ScheduleProtocol(DecreaseSlowly(2)),
            BurstOnQuietAdversary(burst=8, quiet=8),
            stop=StopCondition.FIRST_SUCCESS,
            max_rounds=64 * k,
            seed=3,
        ).run()
        assert result.completed


class TestAdaptiveNoK:
    """Theorem 5.3 (O(k) latency) + Theorem 5.4 (O(k log^2 k) energy)."""

    @pytest.mark.parametrize(
        "adversary",
        OBLIVIOUS_POOL + [AntiLeaderAdversary(flood=8)],
        ids=lambda a: a.name,
    )
    def test_completes_and_latency_linearish(self, adversary):
        k = 48
        result = SlotSimulator(
            k, lambda: AdaptiveNoK(), adversary,
            max_rounds=800 * k + 8192, seed=41,
        ).run()
        assert result.completed
        assert result.success_count == k
        # Generous linear ceiling (constants in Theorem 5.3 are large).
        assert result.max_latency <= 200 * k

    def test_energy_k_polylog(self):
        k = 64
        result = SlotSimulator(
            k, lambda: AdaptiveNoK(), StaticSchedule(),
            max_rounds=800 * k, seed=43,
        ).run()
        assert result.completed
        # O(k log^2 k) with the leader's O(T) announcements folded in.
        assert result.total_transmissions <= 40 * k * math.log2(k) ** 2

    def test_leader_delivers_before_members(self):
        k = 16
        result = SlotSimulator(
            k, lambda: AdaptiveNoK(), StaticSchedule(),
            max_rounds=8192, seed=44, record_trace=True,
        ).run()
        assert result.completed
        # The leader's election success is the first data delivery.
        first = result.first_success_round
        assert first is not None and first >= 5  # after the 4-round listen


class TestCrossProtocolShape:
    def test_known_k_beats_unknown_k_at_scale(self):
        """The separation direction: at moderate k the universal code pays
        a visible polylog factor over the known-k ladder."""
        k = 512
        known = execute(
            RunSpec(
                k=k,
                protocol=NonAdaptiveWithK(k, 6),
                adversary=UniformRandomSchedule(span=lambda kk: 2 * kk),
                max_rounds=40 * k,
                seed=51,
            ),
            engine="vectorized",
        )
        unknown = execute(
            RunSpec(
                k=k,
                protocol=SublinearDecrease(4),
                adversary=UniformRandomSchedule(span=lambda kk: 2 * kk),
                max_rounds=SublinearDecrease.latency_bound_no_ack(k, 4),
                seed=51,
            ),
            engine="vectorized",
        )
        assert known.completed and unknown.completed
        assert unknown.max_latency > known.max_latency
