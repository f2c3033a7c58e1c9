"""Tests for adversary search, trace tools and wake-up variants."""

from __future__ import annotations

import numpy as np
import pytest

from repro.adversary.base import FixedSchedule
from repro.adversary.oblivious import StaticSchedule
from repro.adversary.search import (
    mutate_schedule,
    random_schedule,
    search_worst_schedule,
)
from repro.channel.events import RoundEvent, RoundOutcome
from repro.channel.results import RunResult, StopCondition
from repro.channel.trace_tools import (
    dump_run_result,
    load_run_result,
    render_timeline,
    run_result_from_dict,
    run_result_to_dict,
    success_gaps,
)
from repro.core.protocols.wakeup_variants import (
    FixedRateWakeup,
    GeometricDecayWakeup,
)
from repro.core.spec import RunSpec
from repro.core.station import StationRecord
from repro.engine import execute


class TestAdversarySearch:
    def test_random_schedule_valid(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            schedule = random_schedule(16, rng, span=64)
            rounds = schedule.wake_rounds(16, rng)
            assert len(rounds) == 16
            assert all(0 <= r < 64 for r in rounds)

    def test_mutation_changes_some_rounds(self):
        rng = np.random.default_rng(1)
        base = FixedSchedule([0] * 32)
        mutated = mutate_schedule(base, rng, span=100, strength=0.25)
        rounds = mutated.wake_rounds(32, rng)
        assert any(r != 0 for r in rounds)
        assert sum(1 for r in rounds if r != 0) <= 8  # strength bound

    def test_search_maximises(self):
        # Toy objective: total wake round (maximised by late schedules).
        def evaluate(schedule):
            return float(sum(schedule.wake_rounds(8, np.random.default_rng(0))))

        outcome = search_worst_schedule(8, evaluate, budget=40, span=50, seed=2)
        assert outcome.evaluations == 40
        assert outcome.history == sorted(outcome.history)  # monotone incumbent
        # Should get close to the maximum 8 * 49.
        assert outcome.score > 0.5 * 8 * 49

    def test_search_against_simulator(self):
        from repro.core.protocols.non_adaptive_with_k import NonAdaptiveWithK

        k = 16
        schedule = NonAdaptiveWithK(k, 4)

        def evaluate(instance):
            result = execute(
                RunSpec(
                    k=k,
                    protocol=schedule,
                    adversary=instance,
                    max_rounds=40 * k,
                    seed=9,
                ),
                engine="vectorized",
            )
            return float(result.max_latency or 40 * k)

        outcome = search_worst_schedule(k, evaluate, budget=8, span=2 * k, seed=3)
        assert outcome.score > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            search_worst_schedule(4, lambda s: 0.0, budget=0)
        with pytest.raises(ValueError):
            random_schedule(0, np.random.default_rng(0), span=8)


def make_trace(pattern: str):
    events = []
    for i, char in enumerate(pattern, start=1):
        if char == "S":
            events.append(RoundEvent(i, RoundOutcome.SUCCESS, 1, winner=0))
        elif char == ".":
            events.append(RoundEvent(i, RoundOutcome.SILENCE, 0))
        elif char == "x":
            events.append(RoundEvent(i, RoundOutcome.COLLISION, 2))
        elif char == "#":
            events.append(RoundEvent(i, RoundOutcome.COLLISION, 2, jammed=True))
    return events


class TestTraceTools:
    def test_render_timeline_glyphs(self):
        text = render_timeline(make_trace(".Sx#"), width=10)
        assert ".Sx#" in text

    def test_render_wraps(self):
        text = render_timeline(make_trace("." * 25), width=10)
        assert len(text.splitlines()) == 3

    def test_render_truncates(self):
        text = render_timeline(make_trace("." * 100), width=10, max_rows=3)
        assert "more rounds" in text

    def test_success_gaps(self):
        gaps = success_gaps(make_trace("S..S.Sx"))
        assert list(gaps) == [3, 2]

    def test_success_gaps_degenerate(self):
        assert success_gaps(make_trace("..x")).size == 0

    def test_run_result_roundtrip(self, tmp_path):
        records = [
            StationRecord(0, 0, 5, 5, 3, listening_slots=2),
            StationRecord(1, 2, None, None, 7),
        ]
        original = RunResult(
            records=records,
            rounds_executed=10,
            completed=False,
            stop=StopCondition.ALL_SWITCHED_OFF,
            seed=42,
            protocol_name="p",
            adversary_name="a",
        )
        path = tmp_path / "run.json"
        dump_run_result(original, path)
        restored = load_run_result(path)
        assert restored.records == records
        assert restored.seed == 42
        assert restored.max_latency == original.max_latency
        assert restored.total_listening_slots == 2

    def test_schema_checked(self):
        with pytest.raises(ValueError):
            run_result_from_dict({"schema": 99})

    def test_dict_contains_aggregates(self):
        result = RunResult(
            records=[StationRecord(0, 0, 3, 3, 2)],
            rounds_executed=3,
            completed=True,
            stop=StopCondition.ALL_SWITCHED_OFF,
        )
        data = run_result_to_dict(result)
        assert data["max_latency"] == 3
        assert data["total_transmissions"] == 2


class TestWakeupVariants:
    def test_fixed_rate_constant(self):
        schedule = FixedRateWakeup(0.25)
        assert schedule.probability(1) == schedule.probability(1000) == 0.25
        assert all(schedule.probabilities(5) == 0.25)

    def test_geometric_decays(self):
        schedule = GeometricDecayWakeup(0.5, 0.5)
        assert schedule.probability(1) == 0.5
        assert schedule.probability(2) == 0.25
        assert schedule.probability(4) == pytest.approx(0.0625)

    def test_geometric_total_mass(self):
        assert GeometricDecayWakeup(0.5, 0.5).total_mass() == 1.0
        assert GeometricDecayWakeup(0.5, 0.9).total_mass() == pytest.approx(5.0)

    def test_vectorized_tables_match(self):
        for schedule in (FixedRateWakeup(0.1), GeometricDecayWakeup(0.4, 0.8)):
            table = schedule.probabilities(50)
            for i in (1, 10, 50):
                assert table[i - 1] == pytest.approx(schedule.probability(i))

    def test_geometric_starves_a_crowd(self):
        """The Borel-Cantelli failure: under a static crowd, a convergent-
        mass schedule leaves most stations undelivered forever."""
        k = 64
        result = execute(
            RunSpec(
                k=k,
                protocol=GeometricDecayWakeup(0.5, 0.9),
                adversary=StaticSchedule(),
                max_rounds=200 * k,
                seed=4,
            ),
            engine="vectorized",
        )
        assert result.success_count < k // 2

    def test_validation(self):
        with pytest.raises(ValueError):
            FixedRateWakeup(0.0)
        with pytest.raises(ValueError):
            GeometricDecayWakeup(0.5, 1.0)
        with pytest.raises(ValueError):
            GeometricDecayWakeup(0.0, 0.5)
