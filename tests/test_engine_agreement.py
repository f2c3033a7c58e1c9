"""Cross-validation: the vectorised engine reproduces the object engine's
statistics for non-adaptive schedules.

The two engines use different sampling mechanisms (per-round Bernoulli vs
Poisson thinning), so per-seed equality is not expected; distributional
agreement is.  We compare means of first-success time, completion latency
and energy across repetitions, with tolerances wide enough to be stable
(seeded) yet tight enough to catch systematic bias (e.g. an off-by-one in
local-round indexing shifts the wake-up time distribution noticeably).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.adversary.base import FixedSchedule
from repro.adversary.oblivious import StaticSchedule
from repro.channel.results import StopCondition
from repro.channel.simulator import SlotSimulator
from repro.core.protocol import ScheduleProtocol
from repro.core.protocols.decrease_slowly import DecreaseSlowly
from repro.core.protocols.non_adaptive_with_k import NonAdaptiveWithK
from repro.core.spec import RunSpec
from repro.engine import execute


def run_object(k, schedule, adversary, *, reps, seed, max_rounds, stop, ack=True):
    values = []
    for r in range(reps):
        def factory():
            return ScheduleProtocol(schedule, switch_off_on_ack=ack)

        result = SlotSimulator(
            k, factory, adversary, stop=stop, max_rounds=max_rounds, seed=seed + r
        ).run()
        values.append(result)
    return values


def run_vector(k, schedule, adversary, *, reps, seed, max_rounds, stop, ack=True):
    return [
        execute(
            RunSpec(
                k=k,
                protocol=schedule,
                adversary=adversary,
                switch_off_on_ack=ack,
                stop=stop,
                max_rounds=max_rounds,
                seed=seed + 10_000 + r,
            ),
            engine="vectorized",
        )
        for r in range(reps)
    ]


class TestWakeupAgreement:
    def test_first_success_distribution(self):
        k, reps = 24, 40
        schedule = DecreaseSlowly(2)
        kwargs = dict(
            reps=reps, seed=0, max_rounds=20_000, stop=StopCondition.FIRST_SUCCESS
        )
        obj = run_object(k, schedule, StaticSchedule(), **kwargs)
        vec = run_vector(k, schedule, StaticSchedule(), **kwargs)
        mean_obj = np.mean([r.first_success_round for r in obj])
        mean_vec = np.mean([r.first_success_round for r in vec])
        # Wake-up times are small (~tens of rounds); demand agreement within
        # 50% relative or 5 rounds absolute, whichever is looser.
        assert abs(mean_obj - mean_vec) <= max(5.0, 0.5 * max(mean_obj, mean_vec))


class TestContentionAgreement:
    def test_latency_and_energy_means(self):
        k, reps = 32, 15
        schedule = NonAdaptiveWithK(k, 4)
        kwargs = dict(
            reps=reps, seed=1, max_rounds=60 * k, stop=StopCondition.ALL_SWITCHED_OFF
        )
        wake = FixedSchedule(sorted(int(3 * i) for i in range(k)))
        obj = run_object(k, schedule, wake, **kwargs)
        vec = run_vector(k, schedule, wake, **kwargs)
        assert all(r.completed for r in obj)
        assert all(r.completed for r in vec)
        lat_obj = np.mean([r.max_latency for r in obj])
        lat_vec = np.mean([r.max_latency for r in vec])
        assert lat_vec == pytest.approx(lat_obj, rel=0.35)
        e_obj = np.mean([r.total_transmissions for r in obj])
        e_vec = np.mean([r.total_transmissions for r in vec])
        assert e_vec == pytest.approx(e_obj, rel=0.25)

    def test_success_counts_identical(self):
        k = 16
        schedule = NonAdaptiveWithK(k, 4)
        kwargs = dict(
            reps=10, seed=2, max_rounds=60 * k, stop=StopCondition.ALL_SWITCHED_OFF
        )
        obj = run_object(k, schedule, StaticSchedule(), **kwargs)
        vec = run_vector(k, schedule, StaticSchedule(), **kwargs)
        assert {r.success_count for r in obj} == {k}
        assert {r.success_count for r in vec} == {k}


class TestJammingAgreement:
    """Both engines must account jammed rounds identically: a jammed round
    with transmitters is a COLLISION, a jammed empty round destroys nothing.
    ``PeriodicJammer`` is deterministic, so the two engines see the *same*
    jam pattern and only the sampling mechanism differs."""

    @staticmethod
    def _jam_rounds(period, burst, max_rounds):
        # Mirror of PeriodicJammer.jams for the vectorised engine.
        return [t for t in range(1, max_rounds + 1) if t % period < burst]

    def test_periodic_jam_latency_and_energy_means(self):
        from repro.channel.jamming import PeriodicJammer

        k, reps = 24, 15
        schedule = NonAdaptiveWithK(k, 4)
        max_rounds = 80 * k
        wake = FixedSchedule(sorted(int(3 * i) for i in range(k)))
        obj = []
        for r in range(reps):
            obj.append(
                SlotSimulator(
                    k, lambda: ScheduleProtocol(schedule), wake,
                    stop=StopCondition.ALL_SWITCHED_OFF,
                    max_rounds=max_rounds, seed=100 + r,
                    jammer=PeriodicJammer(5, 1),
                ).run()
            )
        vec = [
            execute(
                RunSpec(
                    k=k,
                    protocol=schedule,
                    adversary=wake,
                    stop=StopCondition.ALL_SWITCHED_OFF,
                    max_rounds=max_rounds,
                    seed=20_100 + r,
                    jam_rounds=self._jam_rounds(5, 1, max_rounds),
                ),
                engine="vectorized",
            )
            for r in range(reps)
        ]
        succ_obj = np.mean([r.success_count for r in obj])
        succ_vec = np.mean([r.success_count for r in vec])
        assert succ_vec == pytest.approx(succ_obj, abs=0.1 * k)
        lat_obj = np.mean([r.max_latency for r in obj if r.completed])
        lat_vec = np.mean([r.max_latency for r in vec if r.completed])
        assert lat_vec == pytest.approx(lat_obj, rel=0.35)
        e_obj = np.mean([r.total_transmissions for r in obj])
        e_vec = np.mean([r.total_transmissions for r in vec])
        assert e_vec == pytest.approx(e_obj, rel=0.25)

    def test_jammed_empty_rounds_are_non_events_in_both(self):
        """A jammer firing into an empty channel must not change anything.
        Regression for the divergence where the object engine recorded
        phantom COLLISION outcomes for transmitter-free jammed rounds."""
        from repro.channel.jamming import PeriodicJammer
        from repro.core.protocols.sublinear_decrease import SublinearDecrease

        k = 12
        schedule = SublinearDecrease(3)
        max_rounds = 4_000
        # Late wakes: the jam bursts before round 50 hit an empty channel.
        wake = FixedSchedule([50 + 5 * i for i in range(k)])
        kwargs = dict(stop=StopCondition.FIRST_SUCCESS, max_rounds=max_rounds)
        # burst=0 never jams but keeps the RNG stream layout identical to
        # the jammed run (a present jammer consumes one generator slot).
        plain = SlotSimulator(
            k, lambda: ScheduleProtocol(schedule), wake, seed=7,
            jammer=PeriodicJammer(1_000, 0), **kwargs
        ).run()
        jammed = SlotSimulator(
            k, lambda: ScheduleProtocol(schedule), wake, seed=7,
            jammer=PeriodicJammer(1_000, 40), **kwargs
        ).run()
        # Jam bursts at rounds [0, 40) only — all before any station wakes.
        assert jammed.first_success_round == plain.first_success_round
        vec_plain = execute(
            RunSpec(
                k=k,
                protocol=schedule,
                adversary=wake,
                seed=7,
                **kwargs,
            ),
            engine="vectorized",
        )
        vec_jammed = execute(
            RunSpec(
                k=k,
                protocol=schedule,
                adversary=wake,
                seed=7,
                jam_rounds=[t for t in range(1, 41)],
                **kwargs,
            ),
            engine="vectorized",
        )
        assert vec_jammed.first_success_round == vec_plain.first_success_round


class TestNoAckSwitchOffAgreement:
    """With ``switch_off_on_ack=False`` and ``ALL_SWITCHED_OFF``, switch-off
    is driven purely by the schedule horizon — so the two engines must agree
    *exactly*, not just distributionally."""

    def test_finite_horizon_exact_agreement(self):
        k = 8
        schedule = NonAdaptiveWithK(k, 4)
        horizon = schedule.horizon()
        assert horizon is not None
        wake = FixedSchedule([0, 2, 5, 9, 14, 20, 27, 35])
        max_rounds = 35 + horizon + 100
        kwargs = dict(
            stop=StopCondition.ALL_SWITCHED_OFF, max_rounds=max_rounds
        )
        obj = SlotSimulator(
            k,
            lambda: ScheduleProtocol(schedule, switch_off_on_ack=False),
            wake, seed=11, **kwargs,
        ).run()
        vec = execute(
            RunSpec(
                k=k,
                protocol=schedule,
                adversary=wake,
                switch_off_on_ack=False,
                seed=12,
                **kwargs,
            ),
            engine="vectorized",
        )
        assert obj.completed and vec.completed
        assert obj.rounds_executed == vec.rounds_executed == 35 + horizon + 1
        obj_off = [r.switch_off_round for r in obj.records]
        vec_off = [r.switch_off_round for r in vec.records]
        expected = [w + horizon + 1 for w in [0, 2, 5, 9, 14, 20, 27, 35]]
        assert sorted(obj_off) == sorted(vec_off) == sorted(expected)

    def test_horizonless_never_completes(self):
        k = 6
        schedule = DecreaseSlowly(2)
        assert schedule.horizon() is None
        kwargs = dict(stop=StopCondition.ALL_SWITCHED_OFF, max_rounds=500)
        obj = SlotSimulator(
            k,
            lambda: ScheduleProtocol(schedule, switch_off_on_ack=False),
            StaticSchedule(), seed=13, **kwargs,
        ).run()
        vec = execute(
            RunSpec(
                k=k,
                protocol=schedule,
                adversary=StaticSchedule(),
                switch_off_on_ack=False,
                seed=14,
                **kwargs,
            ),
            engine="vectorized",
        )
        assert not obj.completed and not vec.completed
        assert obj.rounds_executed == vec.rounds_executed == 500
        assert all(r.switch_off_round is None for r in obj.records)
        assert all(r.switch_off_round is None for r in vec.records)


class TestNoAckAgreement:
    def test_no_ack_first_success_per_station(self):
        from repro.core.protocols.sublinear_decrease import SublinearDecrease

        k, reps = 12, 15
        schedule = SublinearDecrease(3)
        kwargs = dict(
            reps=reps, seed=3, max_rounds=30_000,
            stop=StopCondition.ALL_SUCCEEDED, ack=False,
        )
        obj = run_object(k, schedule, StaticSchedule(), **kwargs)
        vec = run_vector(k, schedule, StaticSchedule(), **kwargs)
        lat_obj = np.mean([r.max_latency for r in obj if r.completed])
        lat_vec = np.mean([r.max_latency for r in vec if r.completed])
        assert lat_vec == pytest.approx(lat_obj, rel=0.4)
