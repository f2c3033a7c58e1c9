"""Rigorous statistical cross-validation of the two engines.

``tests/test_engine_agreement.py`` compares means with tolerances; this
module applies two-sample Kolmogorov-Smirnov tests to whole *distributions*
(wake-up time, per-station latency), which would catch subtler divergences
such as a mis-shapen tail from an off-by-one in the hazard mapping.

Seeds are fixed, so the tests are deterministic; the KS thresholds are set
for a comfortable margin at the chosen sample sizes (a genuine bug — e.g.
shifting every schedule by one round — moves the statistic far past them).
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.stats import ks_2samp

from repro.adversary.base import FixedSchedule
from repro.adversary.oblivious import StaticSchedule
from repro.channel.results import StopCondition
from repro.channel.simulator import SlotSimulator
from repro.core.protocol import ProbabilitySchedule, ScheduleProtocol
from repro.core.protocols.decrease_slowly import DecreaseSlowly
from repro.core.protocols.non_adaptive_with_k import NonAdaptiveWithK
from repro.core.spec import RunSpec
from repro.engine import execute


def wakeup_samples_object(k, schedule, reps, seed):
    out = []
    for r in range(reps):
        result = SlotSimulator(
            k,
            lambda: ScheduleProtocol(schedule),
            StaticSchedule(),
            stop=StopCondition.FIRST_SUCCESS,
            max_rounds=20_000,
            seed=seed + r,
        ).run()
        assert result.completed
        out.append(result.first_success_round)
    return np.array(out, dtype=float)


def wakeup_samples_vector(k, schedule, reps, seed):
    out = []
    for r in range(reps):
        result = execute(
            RunSpec(
                k=k,
                protocol=schedule,
                adversary=StaticSchedule(),
                stop=StopCondition.FIRST_SUCCESS,
                max_rounds=20_000,
                seed=seed + 50_000 + r,
            ),
            engine="vectorized",
        )
        assert result.completed
        out.append(result.first_success_round)
    return np.array(out, dtype=float)


class TestWakeupDistribution:
    def test_ks_two_sample(self):
        k, reps = 16, 120
        schedule = DecreaseSlowly(2)
        a = wakeup_samples_object(k, schedule, reps, seed=0)
        b = wakeup_samples_vector(k, schedule, reps, seed=0)
        statistic, p_value = ks_2samp(a, b)
        # With 120 samples each, a one-round systematic shift in a
        # distribution concentrated on ~5 values yields statistic > 0.3.
        assert p_value > 0.01, (statistic, p_value)

    def test_ks_detects_planted_shift(self):
        """Sanity: the test has power — a +2-round shift is detected."""
        k, reps = 16, 120
        schedule = DecreaseSlowly(2)
        a = wakeup_samples_object(k, schedule, reps, seed=1)
        b = wakeup_samples_vector(k, schedule, reps, seed=1) + 2.0
        _statistic, p_value = ks_2samp(a, b)
        assert p_value < 0.01


class TestLatencyDistribution:
    def test_per_station_latency_ks(self):
        k, reps = 24, 12
        schedule = NonAdaptiveWithK(k, 4)
        wake = FixedSchedule([2 * i for i in range(k)])

        def collect(engine):
            latencies = []
            for r in range(reps):
                if engine == "object":
                    result = SlotSimulator(
                        k, lambda: ScheduleProtocol(schedule), wake,
                        max_rounds=60 * k, seed=100 + r,
                    ).run()
                else:
                    result = execute(
                        RunSpec(
                            k=k,
                            protocol=schedule,
                            adversary=wake,
                            max_rounds=60 * k,
                            seed=900_000 + r,
                        ),
                        engine="vectorized",
                    )
                assert result.completed
                latencies.extend(result.latencies)
            return np.array(latencies, dtype=float)

        a = collect("object")
        b = collect("vector")
        statistic, p_value = ks_2samp(a, b)
        assert p_value > 0.01, (statistic, p_value)


class TestPerRoundTransmissionLaw:
    def test_vectorized_marginals_are_bernoulli(self):
        """The Poisson-thinning sampler's per-round marginal equals p_i:
        chi-square style check on a 3-value periodic schedule."""

        class Periodic(ProbabilitySchedule):
            name = "periodic"
            values = (0.1, 0.45, 0.0)

            def probability(self, local_round: int) -> float:
                return self.values[(local_round - 1) % 3]

        schedule = Periodic()
        horizon = 3_000
        counts = np.zeros(3)
        trials = 400
        for seed in range(trials):
            result = execute(
                RunSpec(
                    k=1,
                    protocol=schedule,
                    adversary=StaticSchedule(),
                    switch_off_on_ack=False,
                    stop=StopCondition.ALL_SUCCEEDED,
                    max_rounds=3,
                    seed=seed,
                ),
                engine="vectorized",
            )
            # One station, three rounds: transmissions counted per run give
            # the empirical sum p1+p2+p3 = 0.55.
            counts[0] += result.records[0].transmissions
        mean_tx = counts[0] / trials
        assert abs(mean_tx - 0.55) < 0.08  # 3-sigma ~ 0.55*... comfortable

    def test_zero_rounds_never_transmit_vectorized(self):
        class OnlyRoundTwo(ProbabilitySchedule):
            name = "only2"

            def probability(self, local_round: int) -> float:
                return 1.0 if local_round == 2 else 0.0

        for seed in range(20):
            result = execute(
                RunSpec(
                    k=1,
                    protocol=OnlyRoundTwo(),
                    adversary=StaticSchedule(),
                    max_rounds=10,
                    seed=seed,
                ),
                engine="vectorized",
            )
            assert result.records[0].first_success_round == 2
            assert result.records[0].transmissions == 1


class TestCompiledAdaptiveLatency:
    """The compiled `AdaptiveNoK` stepper against the object engine's
    Table-1 row-D expectations (Theorem 5.3: O(k) latency).

    Byte identity per seed is pinned exhaustively in
    ``tests/test_engine_fuzz.py``; here the engines run *disjoint* seed
    ranges, so the KS test checks the compiled latency *distribution*
    itself — a divergence in the election or sawtooth dynamics that
    happened to preserve a few pinned seeds would still move the quantiles.
    """

    K = 32
    REPS = 40

    def _latency_samples(self, engine: str, seed0: int):
        from repro.core.protocols.adaptive_no_k import AdaptiveNoK
        from repro.engine import execute_batch

        spec = RunSpec(
            k=self.K,
            protocol=lambda: AdaptiveNoK(),
            adversary=StaticSchedule(),
            max_rounds=800 * self.K,
        )
        results = execute_batch(
            spec, seeds=range(seed0, seed0 + self.REPS), engine=engine
        )
        latencies, maxima = [], []
        for result in results:
            assert result.completed and result.success_count == self.K
            latencies.extend(result.latencies)
            maxima.append(result.max_latency)
        return np.asarray(latencies, dtype=float), np.asarray(maxima, float)

    @pytest.mark.slow
    def test_compiled_latency_quantiles_match_table1(self):
        obj_lat, obj_max = self._latency_samples("object", seed0=10_000)
        comp_lat, comp_max = self._latency_samples("compiled", seed0=20_000)

        # Distributional agreement across disjoint seeds.
        statistic, p_value = ks_2samp(obj_lat, comp_lat)
        assert p_value > 0.01, (statistic, p_value)

        # Table-1 shape: O(k) latency with the object engine's constants.
        # Quantiles of the compiled per-run maxima must sit inside the
        # generous linear ceiling the object-engine suite pins, and within
        # 25% of the object engine's own quantiles.
        assert np.quantile(comp_max, 0.95) <= 200 * self.K
        for q in (0.25, 0.5, 0.9):
            a, b = np.quantile(obj_max, q), np.quantile(comp_max, q)
            assert abs(a - b) <= 0.25 * max(a, b), (q, a, b)

    @pytest.mark.slow
    def test_compiled_latency_ks_detects_planted_shift(self):
        """Power check: a 10% multiplicative latency inflation is caught."""
        obj_lat, _ = self._latency_samples("object", seed0=10_000)
        comp_lat, _ = self._latency_samples("compiled", seed0=20_000)
        _statistic, p_value = ks_2samp(obj_lat, comp_lat * 1.1)
        assert p_value < 0.01
