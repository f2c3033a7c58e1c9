"""Dynamic-arrival traffic: processes, reduction, queue engine, dispatch.

The layer's central claim is a *reduction*: free-discipline traffic is
exactly the classic packet-level model (one one-packet station per
arrival), so it runs unchanged — and byte-identically — on the object
engine, the vectorised engine, and the fused batched kernel.  These tests
pin that claim from every side: the arrival-process contract, the phantom
padding of :class:`ArrivalWakeSchedule`, the :class:`RunSpec` validation
and fingerprints, the dispatch matrix, engine agreement, the FIFO engine's
anchor equivalence, the analysis helpers, and the ``traffic_phase``
experiment's worker/batch/resume invariance.
"""

from __future__ import annotations

import tempfile

import numpy as np
import pytest

from repro.adversary import (
    BatchArrivals,
    FixedArrivals,
    FixedSchedule,
    PoissonArrivals,
)
from repro.analysis.traffic import (
    classify_stability,
    delivery_timeline,
    packet_records,
    traffic_stats,
)
from repro.channel import (
    ArrivalWakeSchedule,
    QueueSimulator,
    SlotSimulator,
    StopCondition,
    draw_packets,
    traffic_reduction,
    validate_run,
)
from repro.core.protocol import ProbabilitySchedule
from repro.core.protocols.sublinear_decrease import SublinearDecrease
from repro.core.spec import RunSpec, arrival_token
from repro.engine import (
    EngineSelectionError,
    build_simulator,
    execute,
    execute_batch,
    select_engine,
    vectorized_inadmissibility,
)
from repro.experiments.registry import run_experiment


def SlottedAloha():
    from repro.baselines.aloha import SlottedAlohaFixed

    return SlottedAlohaFixed(0.2)


class AlwaysTransmit(ProbabilitySchedule):
    """p = 1 for ``rounds`` local rounds — fully deterministic dynamics."""

    def __init__(self, rounds: int = 8):
        self.rounds = rounds
        self.name = f"always[{rounds}]"

    def probability(self, local_round: int) -> float:
        return 1.0 if 1 <= local_round <= self.rounds else 0.0

    def horizon(self) -> int:
        return self.rounds


def rng(seed: int = 0) -> np.random.Generator:
    return np.random.default_rng(seed)


class TestArrivalProcesses:
    def test_poisson_draw_contract(self):
        proc = PoissonArrivals(rate=0.3)
        rounds, origins = proc.draw(5, 400, rng(7))
        assert rounds.dtype == np.int64 and origins.dtype == np.int64
        assert rounds.shape == origins.shape
        assert rounds.size <= proc.max_packets(5, 400)
        assert (np.diff(rounds) >= 0).all()
        assert rounds.min() >= 0 and rounds.max() <= 400
        assert origins.min() >= 0 and origins.max() < 5
        # Mean count tracks rate * horizon (6-sigma capacity margin above).
        assert 0.5 * 0.3 * 400 < rounds.size

    def test_poisson_rng_consumption_is_shape_determined(self):
        # Two different seeds consume the same number of draws, so a
        # shared-stream consumer (the engines) stays aligned; same seed
        # reproduces the draw exactly.
        proc = PoissonArrivals(rate=0.2)
        r1, o1 = proc.draw(4, 300, rng(1))
        r2, o2 = proc.draw(4, 300, rng(1))
        assert (r1 == r2).all() and (o1 == o2).all()

    def test_poisson_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError, match="rate"):
            PoissonArrivals(rate=0.0)

    def test_batch_arrivals_spread(self):
        proc = BatchArrivals(batch=3, period=10)
        rounds, origins = proc.draw(2, 25, rng())
        assert rounds.tolist() == [0, 0, 0, 10, 10, 10, 20, 20, 20]
        assert origins.tolist() == [0, 1, 0, 1, 0, 1, 0, 1, 0]
        assert proc.rate == pytest.approx(0.3)

    def test_batch_arrivals_concentrated(self):
        proc = BatchArrivals(batch=2, period=5, spread=False)
        rounds, origins = proc.draw(3, 12, rng())
        assert rounds.tolist() == [0, 0, 5, 5, 10, 10]
        # Whole batches land on one queue, rotating per batch.
        assert origins.tolist() == [0, 0, 1, 1, 2, 2]
        assert "concentrated" in proc.name

    def test_fixed_arrivals_round_robin_default(self):
        proc = FixedArrivals([4, 1, 9])
        rounds, origins = proc.draw(2, 20, rng())
        # Stable sort by round; origins assigned before sorting (packet j
        # of the given list gets queue j % stations).
        assert rounds.tolist() == [1, 4, 9]
        assert origins.tolist() == [1, 0, 0]

    def test_finalize_draw_drops_past_horizon_and_validates(self):
        proc = FixedArrivals([2, 50, 3], origins=[0, 1, 1])
        rounds, origins = proc.draw(2, 10, rng())
        assert rounds.tolist() == [2, 3]
        assert origins.tolist() == [0, 1]
        bad = FixedArrivals([1, 2], origins=[0, 5])
        with pytest.raises(ValueError, match="origins"):
            bad.draw(2, 10, rng())

    def test_finalize_draw_truncates_to_capacity(self):
        class Overfull(FixedArrivals):
            def max_packets(self, stations: int, horizon: int) -> int:
                return 2

        rounds, origins = Overfull([1, 2, 3, 4]).draw(2, 10, rng())
        assert rounds.tolist() == [1, 2]
        assert origins.size == 2


class TestArrivalWakeSchedule:
    def test_pads_with_phantoms_to_capacity(self):
        class Capped(FixedArrivals):
            def max_packets(self, stations: int, horizon: int) -> int:
                return 5

        schedule = ArrivalWakeSchedule(Capped([3, 7]), stations=2, horizon=20)
        assert schedule.capacity == 5
        wakes = schedule.wake_rounds(5, rng())
        assert wakes == [3, 7, 21, 21, 21]

    def test_rejects_wrong_k(self):
        schedule = ArrivalWakeSchedule(FixedArrivals([1, 2]), 2, 10)
        with pytest.raises(ValueError, match="capacity"):
            schedule.wake_rounds(3, rng())

    def test_rejects_bad_horizon(self):
        with pytest.raises(ValueError, match="horizon"):
            ArrivalWakeSchedule(FixedArrivals([1]), 2, 0)


class TestTrafficRunSpec:
    def base(self, **kw) -> RunSpec:
        defaults = dict(
            k=3,
            protocol=AlwaysTransmit(4),
            arrivals=FixedArrivals([0, 2, 5]),
            stop=StopCondition.ALL_SWITCHED_OFF,
            max_rounds=30,
            seed=11,
        )
        defaults.update(kw)
        return RunSpec(**defaults)

    def test_traffic_requires_no_adversary(self):
        with pytest.raises(ValueError, match="adversary"):
            self.base(adversary=FixedSchedule([0, 0, 0]))

    def test_traffic_requires_explicit_horizon(self):
        with pytest.raises(ValueError, match="max_rounds"):
            self.base(max_rounds=None)

    def test_classic_still_requires_adversary(self):
        with pytest.raises(TypeError, match="adversary"):
            RunSpec(k=2, protocol=AlwaysTransmit())

    def test_discipline_validated(self):
        with pytest.raises(ValueError, match="queue_discipline"):
            self.base(queue_discipline="lifo")

    def test_arrivals_type_validated(self):
        with pytest.raises(TypeError, match="ArrivalProcess"):
            self.base(arrivals=FixedSchedule([0, 1]))

    def test_is_traffic_run(self):
        assert self.base().is_traffic_run
        assert not RunSpec(
            k=2, protocol=AlwaysTransmit(), adversary=FixedSchedule([0, 0])
        ).is_traffic_run

    def test_fingerprint_separates_rate_and_discipline(self):
        a = self.base(arrivals=PoissonArrivals(rate=0.1)).fingerprint()
        b = self.base(arrivals=PoissonArrivals(rate=0.2)).fingerprint()
        c = self.base(
            arrivals=PoissonArrivals(rate=0.1), queue_discipline="fifo"
        ).fingerprint()
        assert len({a, b, c}) == 3

    def test_arrival_token_samples_realisation(self):
        one = arrival_token(FixedArrivals([1, 2]), 2, 10)
        two = arrival_token(FixedArrivals([1, 3]), 2, 10)
        assert one != two


class TestTrafficDispatch:
    def spec(self, **kw) -> RunSpec:
        defaults = dict(
            k=2,
            protocol=AlwaysTransmit(3),
            arrivals=FixedArrivals([0, 1, 4]),
            stop=StopCondition.ALL_SWITCHED_OFF,
            max_rounds=25,
            seed=5,
        )
        defaults.update(kw)
        return RunSpec(**defaults)

    def test_free_schedule_traffic_is_admissible(self):
        assert vectorized_inadmissibility(self.spec()) is None
        assert select_engine(self.spec()) == "vectorized"

    def test_fifo_is_object_only(self):
        spec = self.spec(queue_discipline="fifo")
        reason = vectorized_inadmissibility(spec)
        assert reason is not None and "fifo" in reason
        assert select_engine(spec) == "object"
        assert isinstance(build_simulator(spec), QueueSimulator)
        with pytest.raises(EngineSelectionError):
            build_simulator(spec, "vectorized")

    def test_factory_traffic_falls_back_to_object(self):
        from repro.baselines.backoff import BinaryExponentialBackoff

        def factory():
            return BinaryExponentialBackoff()

        spec = self.spec(protocol=factory)
        assert vectorized_inadmissibility(spec) is not None
        assert select_engine(spec) == "object"
        assert isinstance(build_simulator(spec), SlotSimulator)

    def test_build_simulator_matrix(self):
        free = self.spec()
        # Free traffic selects the vectorised engine: the batched kernel,
        # which execute() runs and build_simulator() does not construct.
        with pytest.raises(EngineSelectionError, match="execute"):
            build_simulator(free)
        assert isinstance(build_simulator(free, "object"), SlotSimulator)

    def test_reduction_round_trip(self):
        spec = self.spec()
        reduced = traffic_reduction(spec)
        assert not reduced.is_traffic_run
        assert reduced.k == spec.arrivals.max_packets(
            spec.k, spec.resolve_horizon()
        )
        assert isinstance(reduced.adversary, ArrivalWakeSchedule)
        with pytest.raises(ValueError, match="free"):
            traffic_reduction(spec.replace(queue_discipline="fifo"))
        with pytest.raises(ValueError, match="traffic"):
            traffic_reduction(reduced)

    def test_object_and_vectorized_agree_deterministically(self):
        spec = self.spec()
        obj = execute(spec, "object")
        vec = execute(spec, "vectorized")
        assert obj.rounds_executed == vec.rounds_executed
        assert obj.completed == vec.completed
        assert obj.success_count == vec.success_count
        keys = lambda res: sorted(
            (r.wake_round, r.first_success_round, r.switch_off_round,
             r.transmissions)
            for r in res.records
            if r.wake_round <= res.rounds_executed
        )
        assert keys(obj) == keys(vec)

    def test_cross_check_engine_passes_on_stochastic_traffic(self):
        spec = self.spec(
            protocol=SlottedAloha(),
            arrivals=PoissonArrivals(rate=0.1),
            max_rounds=80,
        )
        execute(spec, "cross-check")

    def test_batch_matches_sequential(self):
        spec = self.spec(arrivals=PoissonArrivals(rate=0.15), max_rounds=60)
        seeds = [5, 6, 7]
        batched = execute_batch(spec, seeds=seeds)
        for seed, fused in zip(seeds, batched):
            single = execute(spec.with_seed(seed), "vectorized")
            assert fused.rounds_executed == single.rounds_executed
            assert fused.success_count == single.success_count
            assert sorted(
                (r.wake_round, r.first_success_round, r.transmissions)
                for r in fused.records
            ) == sorted(
                (r.wake_round, r.first_success_round, r.transmissions)
                for r in single.records
            )

    def test_fifo_batch_falls_back_to_sequential(self):
        # Fifo traffic has no packet-level reduction: execute_batch must
        # fall back to per-run execution rather than try to reduce it.
        spec = self.spec(
            arrivals=PoissonArrivals(rate=0.15),
            queue_discipline="fifo",
            max_rounds=60,
        )
        seeds = [5, 6, 7]
        assert [repr(r) for r in execute_batch(spec, seeds=seeds)] == [
            repr(execute(spec.with_seed(s))) for s in seeds
        ]

    def test_draw_packets_matches_engine_wakes(self):
        spec = self.spec(arrivals=PoissonArrivals(rate=0.2), max_rounds=50)
        rounds, origins = draw_packets(spec)
        result = execute(spec, "object")
        horizon = spec.resolve_horizon()
        real = [r.wake_round for r in result.records if r.wake_round <= horizon]
        assert sorted(real) == sorted(rounds.tolist())
        assert (origins < spec.k).all()


class TestQueueSimulator:
    def fifo_spec(self, arrivals, *, protocol=None, **kw) -> RunSpec:
        defaults = dict(
            k=3,
            protocol=protocol or AlwaysTransmit(6),
            arrivals=arrivals,
            queue_discipline="fifo",
            stop=StopCondition.ALL_SWITCHED_OFF,
            max_rounds=40,
            seed=3,
        )
        defaults.update(kw)
        return RunSpec(**defaults)

    def test_rejects_non_fifo_spec(self):
        spec = self.fifo_spec(FixedArrivals([0]))
        with pytest.raises(ValueError, match="fifo"):
            QueueSimulator(spec.replace(queue_discipline="free"))
        classic = RunSpec(
            k=2, protocol=AlwaysTransmit(), adversary=FixedSchedule([0, 0])
        )
        with pytest.raises(ValueError, match="traffic"):
            QueueSimulator(classic)

    def test_fifo_equals_free_with_single_packet_queues(self):
        # One packet per station: FIFO never queues, so it is the free
        # reduction exactly (deterministic dynamics, per-record equality).
        arrivals = FixedArrivals([0, 2, 4], origins=[0, 1, 2])
        fifo = execute(self.fifo_spec(arrivals))
        free = execute(
            self.fifo_spec(arrivals).replace(queue_discipline="free"),
            "object",
        )
        assert fifo.rounds_executed == free.rounds_executed
        assert fifo.completed == free.completed
        key = lambda res: sorted(
            (r.station_id, r.wake_round, r.first_success_round,
             r.switch_off_round, r.transmissions)
            for r in res.records
        )
        assert key(fifo) == key(free)

    def test_fifo_serialises_same_queue_packets(self):
        # Two packets on one queue under an always-transmit head: the
        # second packet cannot move until the first switches off, so its
        # first transmission comes strictly after the head's switch-off.
        arrivals = FixedArrivals([0, 0], origins=[0, 0])
        result = execute(
            self.fifo_spec(arrivals, protocol=AlwaysTransmit(2), k=1)
        )
        first, second = result.records
        assert first.station_id == 0 and second.station_id == 1
        assert first.first_success_round == 1  # alone on the channel
        assert second.first_success_round > first.switch_off_round

    def test_fifo_records_latency_from_arrival(self):
        # The queued packet's wake_round is its *arrival* round, so
        # queueing delay counts toward latency.
        arrivals = FixedArrivals([0, 0], origins=[0, 0])
        result = execute(
            self.fifo_spec(arrivals, protocol=AlwaysTransmit(2), k=1)
        )
        assert all(r.wake_round == 0 for r in result.records)
        assert result.records[1].latency > result.records[0].latency

    def test_fifo_respects_jamming(self):
        arrivals = FixedArrivals([0], origins=[0])
        spec = self.fifo_spec(
            arrivals, protocol=AlwaysTransmit(4), k=1,
            jam_rounds=frozenset({1}),
        )
        result = execute(spec)
        # Round 1 is jammed (collision despite a lone transmitter); the
        # head's success slips to round 2, and the attempt still costs.
        assert result.records[0].first_success_round == 2
        assert result.records[0].transmissions == 2

    def test_drain_records_waiting_packets_at_horizon(self):
        arrivals = FixedArrivals([0, 0, 0], origins=[0, 0, 0])
        spec = self.fifo_spec(
            arrivals, protocol=AlwaysTransmit(8), k=1, max_rounds=1
        )
        result = execute(spec)
        assert not result.completed
        assert len(result.records) == 3
        # The live head and the still-waiting packet both surface as
        # zero-transmission records (head) / untouched records (waiting).
        assert [r.transmissions for r in result.records] == [1, 0, 0]

    def test_zero_arrivals_complete_immediately(self):
        arrivals = FixedArrivals([50])  # beyond the horizon: dropped
        result = execute(self.fifo_spec(arrivals, max_rounds=10))
        assert result.completed
        assert result.success_count == 0

    def test_fifo_run_is_valid_and_seed_reproducible(self):
        spec = self.fifo_spec(
            PoissonArrivals(rate=0.2),
            protocol=SlottedAloha(),
            max_rounds=60,
        )
        one = execute(spec)
        two = execute(spec)
        validate_run(one, k=len(one.records))
        assert [
            (r.station_id, r.first_success_round, r.transmissions)
            for r in one.records
        ] == [
            (r.station_id, r.first_success_round, r.transmissions)
            for r in two.records
        ]


class TestTrafficAnalysis:
    def run_free(self, rate=0.1, horizon=200):
        spec = RunSpec(
            k=4,
            protocol=SublinearDecrease(4),
            arrivals=PoissonArrivals(rate=rate),
            stop=StopCondition.ALL_SWITCHED_OFF,
            max_rounds=horizon,
            seed=9,
        )
        return execute(spec), horizon

    def test_packet_records_filters_phantoms(self):
        result, horizon = self.run_free()
        real = packet_records(result, horizon)
        assert all(r.wake_round <= horizon for r in real)
        assert len(real) < len(result.records)  # padding existed

    def test_delivery_timeline_windows(self):
        from repro.core.station import StationRecord

        records = [
            StationRecord(0, 0, 2, 3, 1),
            StationRecord(1, 0, 3, 4, 1),
            StationRecord(2, 4, 7, 8, 1),
            StationRecord(3, 4, None, None, 2),
        ]
        centres, rates = delivery_timeline(records, 10, window=4)
        assert centres.tolist() == [2.5, 6.5, 9.5]
        assert rates.tolist() == [0.5, 0.25, 0.0]

    def test_validation_errors(self):
        result, _horizon = self.run_free()
        with pytest.raises(ValueError, match="horizon"):
            packet_records(result, 0)
        with pytest.raises(ValueError, match="horizon"):
            delivery_timeline([], 0)
        with pytest.raises(ValueError, match="window"):
            delivery_timeline([], 5, window=0)

    def test_traffic_stats_keys_and_stability(self):
        result, horizon = self.run_free()
        stats = traffic_stats(result, horizon)
        assert stats["offered"] >= stats["delivered"] > 0
        assert 0.0 < stats["delivered_fraction"] <= 1.0
        assert classify_stability(stats) == (stats["late_slope"] <= 0.01)
        assert classify_stability({"late_slope": 0.5}) is False
        assert classify_stability({"late_slope": -0.001}) is True


class TestTrafficPhaseExperiment:
    KW = dict(
        stations=4, lams=(0.1, 0.7), horizon=400, reps=2, window=128,
        seed=77,
    )

    def test_traffic_phase_report_shape(self):
        report = run_experiment("traffic_phase", **self.KW)
        assert len(report.rows) == 4  # 2 protocols x 2 lams
        assert {r["stable"] for r in report.rows} <= {"S", "U"}
        assert "phase diagram" in report.text
        assert "lam*" in report.text

    def test_scalar_cli_overrides_normalised(self):
        # CLI "--lams 0.1 --protocols aloha" reach the driver as scalars,
        # not one-element tuples; they must not be iterated as characters.
        report = run_experiment(
            "traffic_phase", stations=3, lams=0.1, protocols="aloha",
            horizon=200, reps=1, window=64,
        )
        assert len(report.rows) == 1
        assert report.rows[0]["protocol"] == "Aloha(p=0.1)"

    def test_protocol_map(self):
        from repro.experiments.traffic_phase_exp import _protocol_instance

        factory, label = _protocol_instance("beb", aloha_p=0.1, backoff_b=4)
        assert label == "BEB" and factory.protocol_name == "BEB"
        with pytest.raises(KeyError, match="unknown protocol"):
            _protocol_instance("csma", aloha_p=0.1, backoff_b=4)

    def test_jobs_and_batch_invariance(self):
        base = run_experiment("traffic_phase", **self.KW)
        alt = run_experiment(
            "traffic_phase", jobs=2, batch_size=1, **self.KW
        )
        assert base.rows == alt.rows

    def test_resume_invariance(self):
        base = run_experiment("traffic_phase", **self.KW)
        with tempfile.TemporaryDirectory() as d:
            first = run_experiment("traffic_phase", resume_dir=d, **self.KW)
            second = run_experiment("traffic_phase", resume_dir=d, **self.KW)
        assert first.rows == base.rows == second.rows
        assert second.timings["runs_resumed"] == 8.0
