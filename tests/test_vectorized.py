"""Tests for the vectorised engine — the batched schedule kernel run on one
seed via ``execute(spec, engine="vectorized")``: hazard sampling, sweep
semantics, determinism, stop conditions."""

from __future__ import annotations

import numpy as np
import pytest

from repro.adversary.base import FixedSchedule
from repro.adversary.adaptive import DripFeedAdversary
from repro.adversary.oblivious import StaticSchedule, UniformRandomSchedule
from repro.channel.batched import check_prob_table, hazard_table, run_batch
from repro.channel.results import StopCondition
from repro.core.protocol import ProbabilitySchedule
from repro.core.protocols.decrease_slowly import DecreaseSlowly
from repro.core.protocols.non_adaptive_with_k import NonAdaptiveWithK
from repro.core.spec import RunSpec
from repro.engine import (
    EngineSelectionError,
    clear_table_cache,
    execute,
    probability_table,
)


class ConstantSchedule(ProbabilitySchedule):
    def __init__(self, p, name="const"):
        self.p = p
        self.name = name

    def probability(self, local_round: int) -> float:
        return self.p


class TestHazardTable:
    def test_values(self):
        table = hazard_table(np.array([0.5, 0.5]))
        assert table[0] == pytest.approx(np.log(2))
        assert table[1] == pytest.approx(2 * np.log(2))

    def test_zero_probability_zero_width(self):
        table = hazard_table(np.array([0.0, 0.3, 0.0]))
        assert table[0] == 0.0
        assert table[2] == table[1]

    def test_probability_one_capped(self):
        table = hazard_table(np.array([1.0]))
        assert np.isfinite(table[0]) and table[0] > 30

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            hazard_table(np.array([1.5]))
        with pytest.raises(ValueError):
            hazard_table(np.array([-0.1]))

    def test_empty(self):
        assert hazard_table(np.array([])).size == 0


class TestBasicRuns:
    def test_single_station_p_high_succeeds_immediately(self):
        result = execute(
            RunSpec(
                k=1,
                protocol=ConstantSchedule(0.999999),
                adversary=StaticSchedule(),
                max_rounds=64,
                seed=0,
            ),
            engine="vectorized",
        )
        assert result.completed
        assert result.records[0].first_success_round == 1
        assert result.records[0].latency == 1

    def test_zero_probability_never_succeeds(self):
        result = execute(
            RunSpec(
                k=4,
                protocol=ConstantSchedule(0.0),
                adversary=StaticSchedule(),
                max_rounds=100,
                seed=0,
            ),
            engine="vectorized",
        )
        assert not result.completed
        assert result.success_count == 0
        assert result.total_transmissions == 0

    def test_all_stations_complete(self):
        k = 64
        result = execute(
            RunSpec(
                k=k,
                protocol=NonAdaptiveWithK(k, 4),
                adversary=StaticSchedule(),
                max_rounds=40 * k,
                seed=3,
            ),
            engine="vectorized",
        )
        assert result.completed
        assert result.success_count == k
        assert all(r.latency is not None and r.latency >= 1 for r in result.records)

    def test_switch_off_stops_attempts(self):
        k = 8
        result = execute(
            RunSpec(
                k=k,
                protocol=ConstantSchedule(0.2),
                adversary=StaticSchedule(),
                max_rounds=50_000,
                seed=4,
            ),
            engine="vectorized",
        )
        assert result.completed
        # After switch-off a station stops transmitting, so attempts are
        # finite and roughly geometric (p_success >= 0.2 * 0.8^7 ~ 0.04).
        assert all(r.transmissions < 2000 for r in result.records)

    def test_no_ack_variant_counts_every_round(self):
        result = execute(
            RunSpec(
                k=2,
                protocol=ConstantSchedule(1.0),
                adversary=StaticSchedule(),
                switch_off_on_ack=False,
                stop=StopCondition.ALL_SUCCEEDED,
                max_rounds=100,
                seed=5,
            ),
            engine="vectorized",
        )
        # Both stations transmit every round: permanent collision.
        assert not result.completed
        assert result.success_count == 0
        assert result.total_transmissions == 200

    def test_wake_offsets_respected(self):
        result = execute(
            RunSpec(
                k=3,
                protocol=ConstantSchedule(0.999999),
                adversary=FixedSchedule([0, 10, 20]),
                max_rounds=200,
                seed=6,
            ),
            engine="vectorized",
        )
        records = sorted(result.records, key=lambda r: r.wake_round)
        assert [r.wake_round for r in records] == [0, 10, 20]
        # Well-separated wakes: each succeeds on its first local round.
        assert [r.first_success_round for r in records] == [1, 11, 21]


class TestStopConditions:
    def test_first_success(self):
        result = execute(
            RunSpec(
                k=16,
                protocol=DecreaseSlowly(2),
                adversary=StaticSchedule(),
                stop=StopCondition.FIRST_SUCCESS,
                max_rounds=10_000,
                seed=7,
            ),
            engine="vectorized",
        )
        assert result.completed
        assert result.success_count >= 1
        assert result.first_success_round == result.rounds_executed

    def test_max_rounds_cap(self):
        result = execute(
            RunSpec(
                k=4,
                protocol=ConstantSchedule(0.5),
                adversary=StaticSchedule(),
                max_rounds=3,
                seed=8,
            ),
            engine="vectorized",
        )
        assert result.rounds_executed <= 3


class TestDeterminism:
    def test_same_seed_same_run(self):
        def run():
            return execute(
                RunSpec(
                    k=32,
                    protocol=NonAdaptiveWithK(32, 3),
                    adversary=UniformRandomSchedule(span=lambda k: k),
                    max_rounds=4096,
                    seed=123,
                ),
                engine="vectorized",
            )

        a, b = run(), run()
        assert [r.first_success_round for r in a.records] == [
            r.first_success_round for r in b.records
        ]
        assert a.total_transmissions == b.total_transmissions

    def test_mismatched_prob_table_rejected(self):
        # The kernel spot-checks its cached table against the live schedule.
        schedule = NonAdaptiveWithK(16, 3)
        wrong = NonAdaptiveWithK(64, 3).probabilities(2000)
        with pytest.raises(ValueError, match="disagrees"):
            check_prob_table(schedule, wrong, 2000)
        check_prob_table(schedule, schedule.probabilities(2000), 2000)

    def test_prob_table_injection_equivalent(self):
        # A table already in the cache (warm) gives the cold run's result.
        schedule = NonAdaptiveWithK(16, 3)
        spec = RunSpec(
            k=16,
            protocol=schedule,
            adversary=StaticSchedule(),
            max_rounds=2000,
            seed=9,
        )
        clear_table_cache()
        base = execute(spec, engine="vectorized")
        clear_table_cache()
        probability_table(schedule, 2000)
        injected = execute(spec, engine="vectorized")
        assert [r.first_success_round for r in base.records] == [
            r.first_success_round for r in injected.records
        ]


class TestValidation:
    def test_rejects_adaptive_adversary(self):
        spec = RunSpec(
            k=4,
            protocol=ConstantSchedule(0.5),
            adversary=DripFeedAdversary(),
            max_rounds=100,
        )
        with pytest.raises(EngineSelectionError, match="adaptive"):
            execute(spec, engine="vectorized")
        with pytest.raises(TypeError):
            run_batch(spec, seeds=[0])

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            RunSpec(k=0, protocol=ConstantSchedule(0.5), adversary=StaticSchedule(), max_rounds=10)

    def test_rejects_bad_horizon(self):
        with pytest.raises(ValueError):
            RunSpec(k=1, protocol=ConstantSchedule(0.5), adversary=StaticSchedule(), max_rounds=0)
