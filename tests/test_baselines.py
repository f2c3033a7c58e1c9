"""Tests for the baseline protocols."""

from __future__ import annotations

import numpy as np
import pytest

from repro.adversary.oblivious import StaticSchedule, UniformRandomSchedule
from repro.baselines.aloha import SlottedAlohaFixed, SlottedAlohaKnownK
from repro.baselines.backoff import BinaryExponentialBackoff, PolynomialBackoff
from repro.baselines.splitting import SplittingTree
from repro.baselines.tdma import AlignedTDMA, tdma_factory
from repro.channel.events import RoundOutcome
from repro.channel.feedback import FeedbackModel, Observation
from repro.channel.simulator import SlotSimulator
from repro.core.spec import RunSpec
from repro.engine import execute


class TestAloha:
    def test_known_k_probability(self):
        schedule = SlottedAlohaKnownK(20)
        assert schedule.probability(1) == 0.05
        assert schedule.probability(999) == 0.05

    def test_fixed_probability(self):
        schedule = SlottedAlohaFixed(0.125)
        assert all(schedule.probabilities(10) == 0.125)

    def test_validation(self):
        with pytest.raises(ValueError):
            SlottedAlohaKnownK(0)
        with pytest.raises(ValueError):
            SlottedAlohaFixed(0.0)
        with pytest.raises(ValueError):
            SlottedAlohaFixed(1.5)

    def test_resolves_contention_eventually(self):
        k = 16
        result = execute(
            RunSpec(
                k=k,
                protocol=SlottedAlohaKnownK(k),
                adversary=StaticSchedule(),
                max_rounds=200 * k,
                seed=0,
            ),
            engine="vectorized",
        )
        assert result.completed and result.success_count == k

    def test_fixed_p_collapses_under_high_contention(self):
        # 64 stations at p = 0.5: essentially permanent collision.
        result = execute(
            RunSpec(
                k=64,
                protocol=SlottedAlohaFixed(0.5),
                adversary=StaticSchedule(),
                max_rounds=3000,
                seed=1,
            ),
            engine="vectorized",
        )
        assert result.success_count < 8


class TestBackoff:
    def test_beb_window_growth(self):
        protocol = BinaryExponentialBackoff()
        protocol.begin(0, np.random.default_rng(0))
        windows = []
        for _ in range(5):
            windows.append(protocol._window())
            protocol._attempt += 1
        assert windows == [1, 2, 4, 8, 16]

    def test_beb_window_capped(self):
        protocol = BinaryExponentialBackoff(max_window=8)
        protocol._attempt = 40
        assert protocol._window() == 8

    def test_polynomial_window_growth(self):
        protocol = PolynomialBackoff(degree=2)
        protocol.begin(0, np.random.default_rng(0))
        windows = []
        for _ in range(4):
            windows.append(protocol._window())
            protocol._attempt += 1
        assert windows == [1, 4, 9, 16]

    def test_backoff_resolves_contention(self):
        k = 16
        result = SlotSimulator(
            k, lambda: BinaryExponentialBackoff(), StaticSchedule(),
            max_rounds=20_000, seed=2,
        ).run()
        assert result.completed and result.success_count == k

    def test_failed_attempt_redraws(self):
        protocol = BinaryExponentialBackoff()
        protocol.begin(0, np.random.default_rng(0))
        protocol._countdown = 0
        assert protocol.decide(1) is not None
        protocol.observe(Observation(local_round=1, transmitted=True, acked=False))
        assert protocol._attempt == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            BinaryExponentialBackoff(max_window=0)
        with pytest.raises(ValueError):
            PolynomialBackoff(degree=0)


class TestTDMA:
    def test_aligned_static_is_collision_free(self):
        k = 8
        result = SlotSimulator(
            k, tdma_factory(k), StaticSchedule(),
            max_rounds=4 * k, seed=3, record_trace=True,
        ).run()
        assert result.completed and result.success_count == k
        assert all(
            e.outcome is not RoundOutcome.COLLISION for e in result.trace
        )

    def test_slot_clash_collides_forever(self):
        # Two stations assigned the *same* slot (the failure mode when
        # frame alignment breaks): they collide on every attempt.
        k = 2
        factory = lambda: AlignedTDMA(slot=0, frame=2)

        result = SlotSimulator(
            k, factory, StaticSchedule(), max_rounds=200, seed=4
        ).run()
        assert result.success_count == 0

    def test_misalignment_changes_effective_slots(self):
        # Woken 1 round apart with the same assigned slot, the two stations
        # occupy different *global* parities, so (by luck of the offset)
        # they do not collide — the point being that correctness now depends
        # on the adversary's offsets, which is not a guarantee at all.
        from repro.adversary.base import FixedSchedule

        factory = lambda: AlignedTDMA(slot=0, frame=2)
        result = SlotSimulator(
            2, factory, FixedSchedule([0, 1]), max_rounds=200, seed=4
        ).run()
        assert result.success_count == 2

    def test_rerun_is_independent_of_probes(self):
        # The slot comes from the station id, not from a counter the
        # factory shares with every probe and run of the spec.
        from repro.adversary.oblivious import UniformRandomSchedule
        from repro.core.spec import RunSpec
        from repro.engine import compiled_inadmissibility, execute

        spec = RunSpec(
            k=16, protocol=tdma_factory(16),
            adversary=UniformRandomSchedule(span=lambda kk: kk // 2),
            max_rounds=16 * 16 + 64, seed=5,
        )
        first = execute(spec)
        fingerprint = spec.fingerprint()
        compiled_inadmissibility(spec)
        assert execute(spec) == first
        assert spec.fingerprint() == fingerprint
        assert [r.station_id for r in first.records] == list(range(16))

    def test_validation(self):
        with pytest.raises(ValueError):
            AlignedTDMA(slot=5, frame=4)
        with pytest.raises(ValueError):
            AlignedTDMA(slot=0, frame=0)


class TestSplittingTree:
    def test_requires_collision_detection(self):
        result_factory = SlotSimulator(
            4, lambda: SplittingTree(), StaticSchedule(),
            feedback=FeedbackModel.ACK_ONLY, max_rounds=16, seed=5,
        )
        with pytest.raises(RuntimeError):
            result_factory.run()

    def test_resolves_static_contention_with_cd(self):
        k = 32
        result = SlotSimulator(
            k, lambda: SplittingTree(), StaticSchedule(),
            feedback=FeedbackModel.COLLISION_DETECTION,
            max_rounds=40 * k, seed=6,
        ).run()
        assert result.completed and result.success_count == k

    def test_resolves_dynamic_contention_with_cd(self):
        k = 16
        result = SlotSimulator(
            k, lambda: SplittingTree(),
            UniformRandomSchedule(span=lambda kk: 4 * kk),
            feedback=FeedbackModel.COLLISION_DETECTION,
            max_rounds=80 * k, seed=7,
        ).run()
        assert result.completed and result.success_count == k

    def test_latency_linearish_static(self):
        k = 64
        result = SlotSimulator(
            k, lambda: SplittingTree(), StaticSchedule(),
            feedback=FeedbackModel.COLLISION_DETECTION,
            max_rounds=40 * k, seed=8,
        ).run()
        assert result.completed
        assert result.max_latency < 12 * k
