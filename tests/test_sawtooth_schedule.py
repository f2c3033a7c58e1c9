"""Tests for the non-adaptive sawtooth schedule (dependent-round sampler)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.adversary.oblivious import StaticSchedule
from repro.channel.simulator import SlotSimulator
from repro.core.protocols.sawtooth_schedule import SawtoothSchedule, _window_sizes
from repro.core.protocols.suniform import SUniform
from repro.core.spec import RunSpec
from repro.engine import execute


class TestWindowStructure:
    def test_window_size_sequence(self):
        assert _window_sizes(11) == [1, 2, 1, 4, 2, 1]
        assert _window_sizes(1) == [1]

    def test_marginal_probabilities(self):
        schedule = SawtoothSchedule()
        # Rounds:      1 | 2 3 | 4 | 5 6 7 8 | 9 10 | 11
        # Window size: 1 |  2  | 1 |    4    |  2   | 1
        expected = [1.0, 0.5, 0.5, 1.0, 0.25, 0.25, 0.25, 0.25, 0.5, 0.5, 1.0]
        for i, p in enumerate(expected, start=1):
            assert schedule.probability(i) == pytest.approx(p)

    def test_probabilities_table_matches(self):
        schedule = SawtoothSchedule()
        table = schedule.probabilities(200)
        for i in (1, 5, 60, 200):
            assert table[i - 1] == pytest.approx(schedule.probability(i))

    def test_rejects_round_zero(self):
        with pytest.raises(ValueError):
            SawtoothSchedule().probability(0)


class TestSampler:
    def test_one_round_per_complete_window(self):
        schedule = SawtoothSchedule()
        rng = np.random.default_rng(0)
        rounds = schedule.sample_rounds(rng, 11)
        # Windows fully inside [1, 11]: 6 of them; each contributes at most
        # one round, all within range and strictly increasing.
        assert 1 <= len(rounds) <= 6
        assert all(1 <= r <= 11 for r in rounds)
        assert list(rounds) == sorted(set(rounds))

    def test_exactly_one_per_window_when_untruncated(self):
        schedule = SawtoothSchedule()
        rng = np.random.default_rng(1)
        # Horizon 11 ends exactly at a window boundary: every window fully
        # contained, so exactly one transmission per window.
        for _ in range(20):
            rounds = schedule.sample_rounds(rng, 11)
            assert len(rounds) == 6

    def test_marginal_statistics(self):
        """Empirical per-round frequency matches the 1/W marginal."""
        schedule = SawtoothSchedule()
        rng = np.random.default_rng(2)
        counts = np.zeros(12)
        trials = 4000
        for _ in range(trials):
            for r in schedule.sample_rounds(rng, 11):
                counts[r] += 1
        freqs = counts[1:12] / trials
        expected = [schedule.probability(i) for i in range(1, 12)]
        np.testing.assert_allclose(freqs, expected, atol=0.03)

    def test_empty_horizon(self):
        schedule = SawtoothSchedule()
        assert schedule.sample_rounds(np.random.default_rng(0), 0).size == 0


class TestVectorizedIntegration:
    def test_resolves_static_contention(self):
        k = 64
        result = execute(
            RunSpec(
                k=k,
                protocol=SawtoothSchedule(),
                adversary=StaticSchedule(),
                max_rounds=64 * k,
                seed=5,
            ),
            engine="vectorized",
        )
        assert result.completed
        assert result.success_count == k

    def test_scales_to_large_k(self):
        """The point of the fast path: sawtooth at k = 2048 in seconds."""
        k = 2048
        result = execute(
            RunSpec(
                k=k,
                protocol=SawtoothSchedule(),
                adversary=StaticSchedule(),
                max_rounds=64 * k,
                seed=6,
            ),
            engine="vectorized",
        )
        assert result.completed
        assert result.max_latency < 20 * k

    def test_agrees_with_object_engine_suniform(self):
        """Distributional agreement with the stateful SUniform protocol."""
        k, reps = 32, 10
        vec, obj = [], []
        for r in range(reps):
            vec_result = execute(
                RunSpec(
                    k=k,
                    protocol=SawtoothSchedule(),
                    adversary=StaticSchedule(),
                    max_rounds=64 * k,
                    seed=100 + r,
                ),
                engine="vectorized",
            )
            obj_result = SlotSimulator(
                k, lambda: SUniform(), StaticSchedule(),
                max_rounds=64 * k, seed=900 + r,
            ).run()
            assert vec_result.completed and obj_result.completed
            vec.append(vec_result.max_latency)
            obj.append(obj_result.max_latency)
        assert np.mean(vec) == pytest.approx(np.mean(obj), rel=0.35)

    def test_transmissions_polylog(self):
        import math

        k = 256
        result = execute(
            RunSpec(
                k=k,
                protocol=SawtoothSchedule(),
                adversary=StaticSchedule(),
                max_rounds=64 * k,
                seed=7,
            ),
            engine="vectorized",
        )
        t = result.rounds_executed
        ceiling = 6 * math.log2(max(2, t)) ** 2
        assert max(r.transmissions for r in result.records) <= ceiling

    def test_out_of_range_sampler_rejected(self):
        class Broken(SawtoothSchedule):
            def sample_rounds(self, rng, max_local):
                return np.array([0], dtype=np.int64)  # invalid round 0

        with pytest.raises(ValueError):
            execute(
                RunSpec(
                    k=1,
                    protocol=Broken(),
                    adversary=StaticSchedule(),
                    max_rounds=10,
                    seed=0,
                ),
                engine="vectorized",
            )
