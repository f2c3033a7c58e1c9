"""Tests for the jamming substrate and engine integration."""

from __future__ import annotations

import numpy as np
import pytest

from repro.adversary.oblivious import StaticSchedule
from repro.channel.events import RoundEvent, RoundOutcome
from repro.channel.jamming import (
    PeriodicJammer,
    RandomJammer,
    ReactiveJammer,
    draw_jam_rounds,
)
from repro.channel.simulator import SlotSimulator
from repro.core.protocol import ProbabilitySchedule, ScheduleProtocol
from repro.core.protocols.non_adaptive_with_k import NonAdaptiveWithK
from repro.core.spec import RunSpec
from repro.engine import execute


class AlwaysOn(ProbabilitySchedule):
    name = "always"

    def probability(self, local_round: int) -> float:
        return 1.0


class TestJammerModels:
    def test_random_jammer_rate_zero_never_jams(self):
        jammer = RandomJammer(0.0)
        jammer.begin(np.random.default_rng(0))
        assert not any(jammer.jams(t, []) for t in range(100))

    def test_random_jammer_rate_frequency(self):
        jammer = RandomJammer(0.3)
        jammer.begin(np.random.default_rng(1))
        hits = sum(jammer.jams(t, []) for t in range(10_000))
        assert 0.25 < hits / 10_000 < 0.35

    def test_periodic_jammer_duty_cycle(self):
        jammer = PeriodicJammer(period=5, burst=2)
        jammer.begin(np.random.default_rng(0))
        pattern = [jammer.jams(t, []) for t in range(10)]
        assert pattern == [True, True, False, False, False] * 2

    def test_reactive_jammer_follows_success(self):
        jammer = ReactiveJammer(cooldown=2)
        jammer.begin(np.random.default_rng(0))
        silence = RoundEvent(1, RoundOutcome.SILENCE, 0)
        success = RoundEvent(2, RoundOutcome.SUCCESS, 1, winner=0)
        assert not jammer.jams(1, [silence])
        assert jammer.jams(2, [silence, success])
        assert jammer.jams(3, [silence])  # cooldown continues
        assert not jammer.jams(4, [silence])

    def test_validation(self):
        with pytest.raises(ValueError):
            RandomJammer(1.0)
        with pytest.raises(ValueError):
            PeriodicJammer(period=0, burst=0)
        with pytest.raises(ValueError):
            PeriodicJammer(period=3, burst=4)
        with pytest.raises(ValueError):
            ReactiveJammer(cooldown=0)


class TestDrawJamRounds:
    def test_rate_zero_empty(self):
        assert draw_jam_rounds(0.0, 100, np.random.default_rng(0)).size == 0

    def test_rounds_in_range_and_sorted(self):
        rounds = draw_jam_rounds(0.5, 200, np.random.default_rng(1))
        assert rounds.min() >= 1 and rounds.max() <= 200
        assert list(rounds) == sorted(rounds)

    def test_validation(self):
        with pytest.raises(ValueError):
            draw_jam_rounds(1.0, 10, np.random.default_rng(0))
        with pytest.raises(ValueError):
            draw_jam_rounds(0.5, 0, np.random.default_rng(0))


class TestJammedRoundEvent:
    def test_jammed_round_with_transmitters_must_be_collision(self):
        RoundEvent(1, RoundOutcome.COLLISION, 1, jammed=True)  # ok: 1 tx
        RoundEvent(1, RoundOutcome.COLLISION, 3, jammed=True)  # ok: 3 tx
        with pytest.raises(ValueError):
            RoundEvent(1, RoundOutcome.SUCCESS, 1, winner=0, jammed=True)

    def test_jammed_empty_round_is_silence(self):
        # A jam with nobody transmitting destroys nothing: the round is
        # SILENCE (and the vectorised engine never materialises it at all).
        RoundEvent(1, RoundOutcome.SILENCE, 0, jammed=True)  # ok: no tx
        with pytest.raises(ValueError):
            RoundEvent(1, RoundOutcome.COLLISION, 0, jammed=True)


class TestObjectEngineJamming:
    def test_full_jamming_blocks_everything(self):
        result = SlotSimulator(
            1,
            lambda: ScheduleProtocol(AlwaysOn()),
            StaticSchedule(),
            max_rounds=50,
            seed=0,
            jammer=PeriodicJammer(period=1, burst=1),
            record_trace=True,
        ).run()
        assert result.success_count == 0
        assert all(e.jammed for e in result.trace)
        assert all(e.outcome is RoundOutcome.COLLISION for e in result.trace)

    def test_partial_jamming_slows_but_completes(self):
        k = 16
        clean = SlotSimulator(
            k, lambda: ScheduleProtocol(NonAdaptiveWithK(k, 6)),
            StaticSchedule(), max_rounds=60 * k, seed=3,
        ).run()
        jammed = SlotSimulator(
            k, lambda: ScheduleProtocol(NonAdaptiveWithK(k, 6)),
            StaticSchedule(), max_rounds=60 * k, seed=3,
            jammer=RandomJammer(0.4),
        ).run()
        assert clean.completed and jammed.completed
        assert jammed.max_latency >= clean.max_latency

    def test_jammed_empty_rounds_recorded_as_silence(self):
        # A never-transmitting station under full jamming: every round is
        # empty, so the trace must be all-SILENCE (jammed flag set) rather
        # than phantom collisions.
        class NeverOn(ProbabilitySchedule):
            name = "never"

            def probability(self, local_round: int) -> float:
                return 0.0

        result = SlotSimulator(
            1,
            lambda: ScheduleProtocol(NeverOn()),
            StaticSchedule(),
            max_rounds=20,
            seed=0,
            jammer=PeriodicJammer(period=1, burst=1),
            record_trace=True,
        ).run()
        assert all(e.outcome is RoundOutcome.SILENCE for e in result.trace)
        assert all(e.jammed for e in result.trace)
        assert all(e.transmitter_count == 0 for e in result.trace)

    def test_jammed_transmitter_gets_no_ack(self):
        result = SlotSimulator(
            1,
            lambda: ScheduleProtocol(AlwaysOn()),
            StaticSchedule(),
            max_rounds=10,
            seed=1,
            jammer=PeriodicJammer(period=10, burst=9),
            record_trace=True,
        ).run()
        # Clear slots are rounds t with t % 10 == 9; the station transmits
        # every round and succeeds exactly at the first clear one.
        assert result.records[0].first_success_round == 9


class TestAdaptiveUnderJamming:
    def test_reactive_jammer_phase_locks_adaptive_no_k(self):
        """An adaptive jammer that destroys the round after every success
        phase-locks onto the D mode's parity: the leader's control bit
        succeeds on its parity, which triggers a jam of the following
        round — exactly the members' SUniform slot — so members starve.
        This is the fragility the paper's related-work section cites
        (Bender et al.: without collision detection, no algorithm keeps
        constant throughput under adaptive jamming); the test pins the
        observed mechanism rather than wishing it away."""
        from repro.core.protocols.adaptive_no_k import AdaptiveNoK
        from repro.channel.jamming import ReactiveJammer

        k = 16
        result = SlotSimulator(
            k, lambda: AdaptiveNoK(), StaticSchedule(),
            max_rounds=2000 * k, seed=7,
            jammer=ReactiveJammer(cooldown=1),
        ).run()
        assert not result.completed
        assert 0 < result.success_count < k

    def test_random_jamming_only_slows_adaptive_no_k(self):
        """Oblivious random jamming cannot phase-lock: the protocol still
        finishes, just slower (cf. the ext_jamming experiment)."""
        from repro.core.protocols.adaptive_no_k import AdaptiveNoK

        k = 16
        result = SlotSimulator(
            k, lambda: AdaptiveNoK(), StaticSchedule(),
            max_rounds=2000 * k, seed=7,
            jammer=RandomJammer(0.3),
        ).run()
        assert result.completed
        assert result.success_count == k


class TestVectorizedJamming:
    def test_jam_rounds_block_success(self):
        # Single station transmitting every round: jam rounds 1..9, success
        # must land at round 10.
        result = execute(
            RunSpec(
                k=1,
                protocol=AlwaysOn(),
                adversary=StaticSchedule(),
                max_rounds=20,
                seed=2,
                jam_rounds=range(1, 10),
            ),
            engine="vectorized",
        )
        assert result.records[0].first_success_round == 10

    def test_attempts_in_jammed_rounds_cost_energy(self):
        result = execute(
            RunSpec(
                k=1,
                protocol=AlwaysOn(),
                adversary=StaticSchedule(),
                max_rounds=20,
                seed=2,
                jam_rounds=range(1, 10),
            ),
            engine="vectorized",
        )
        assert result.records[0].transmissions == 10  # 9 jammed + 1 success
