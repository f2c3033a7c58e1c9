"""Tests for the experiment harness (the spec-grid runner and fold)."""

from __future__ import annotations

import pytest

from repro.adversary.adaptive import DripFeedAdversary
from repro.adversary.oblivious import StaticSchedule
from repro.channel.results import StopCondition
from repro.core.protocols.decrease_slowly import DecreaseSlowly
from repro.core.protocols.non_adaptive_with_k import NonAdaptiveWithK
from repro.core.protocols.suniform import SUniform
from repro.core.spec import RunSpec
from repro.engine import execute
from repro.experiments.checkpoint import CheckpointJournal, use_checkpoint
from repro.experiments.harness import (
    SEED_STRIDE,
    Cell,
    ExperimentReport,
    config_seed,
    fold_sample,
    run_grid,
    run_seed,
    worst_sample,
)


def ladder_spec(k: int, **changes) -> RunSpec:
    return RunSpec(
        k=k, protocol=NonAdaptiveWithK(k, 4), adversary=StaticSchedule(),
        max_rounds=40 * k, **changes,
    )


def suniform_spec(k: int, **changes) -> RunSpec:
    return RunSpec(
        k=k, protocol=lambda: SUniform(), adversary=StaticSchedule(),
        max_rounds=64 * k, **changes,
    )


def one_sample(spec: RunSpec, seed: int, reps: int):
    (runs,) = run_grid([Cell.repeated(spec, seed, reps)])
    return fold_sample(runs)


class TestRepeatScheduleRuns:
    """Schedule cells folded into samples."""

    def test_collects_all_reps(self):
        sample = one_sample(ladder_spec(16), seed=0, reps=4)
        assert sample.runs == 4
        assert sample.failures == 0
        assert sample.k == 16
        assert len(sample.max_latency) == 4
        assert len(sample.run_seconds) == len(sample.run_retries) == 4

    def test_label_defaults_to_schedule_name(self):
        sample = one_sample(ladder_spec(8), seed=0, reps=1)
        assert sample.label.startswith("NonAdaptiveWithK")
        assert one_sample(ladder_spec(8, label="x"), seed=0, reps=1).label == "x"

    def test_deterministic_given_seed(self):
        def run():
            return one_sample(ladder_spec(16), seed=7, reps=3).row()

        assert run() == run()

    def test_first_success_stop(self):
        spec = RunSpec(
            k=16, protocol=DecreaseSlowly(2), adversary=StaticSchedule(),
            max_rounds=64 * 16, stop=StopCondition.FIRST_SUCCESS,
        )
        assert len(one_sample(spec, seed=1, reps=3).first_success) == 3


class TestRepeatProtocolRuns:
    """Protocol-factory cells folded into samples."""

    def test_object_engine_protocols(self):
        sample = one_sample(suniform_spec(12, label="suniform"), seed=2, reps=2)
        assert sample.runs == 2
        assert sample.failures == 0
        assert sample.label == "suniform"

    def test_adaptive_adversary_supported(self):
        spec = RunSpec(
            k=6, protocol=lambda: SUniform(),
            adversary=DripFeedAdversary(interval=2), max_rounds=200 * 6,
        )
        assert one_sample(spec, seed=3, reps=1).runs == 1


class TestSweeps:
    """Multi-cell grids: one CellRuns per cell, in grid order."""

    def test_sweep_schedule_one_sample_per_k(self):
        grid = run_grid(Cell.repeated(ladder_spec(k), 4, 2) for k in (8, 16))
        assert [fold_sample(runs).k for runs in grid] == [8, 16]

    def test_sweep_protocol_one_sample_per_k(self):
        grid = run_grid(Cell.repeated(suniform_spec(k), 5, 1) for k in (4, 8))
        assert [fold_sample(runs).k for runs in grid] == [4, 8]

    def test_sweep_seeds_differ_by_k(self):
        # Configurations SEED_STRIDE apart get decorrelated seeds: two
        # identical configurations at different sweep indices differ.
        a, b = (
            fold_sample(runs)
            for runs in run_grid(
                Cell.repeated(ladder_spec(8), config_seed(6, i), 2) for i in (0, 1)
            )
        )
        assert a.max_latency != b.max_latency or a.energy != b.energy


class TestRunGrid:
    def test_results_align_with_explicit_seeds(self):
        spec = ladder_spec(8)
        seeds = (11, 3, 17 * 2)
        (runs,) = run_grid([Cell(spec, seeds)])
        assert [result.seed for result in runs.results] == list(seeds)
        assert runs.results == [execute(spec.with_seed(s)) for s in seeds]
        assert len(runs.seconds) == len(runs.retries) == len(seeds)

    def test_empty_grid(self):
        assert run_grid([]) == []

    def test_fold_reuses_collect(self):
        from repro.analysis.metrics import collect

        spec = suniform_spec(6, label="s")
        (runs,) = run_grid([Cell.repeated(spec, 1, 2)])
        folded = fold_sample(runs)
        assert folded.row() == collect("s", 6, runs.results).row()
        assert folded.run_seconds == runs.seconds

    def test_traced_cells_are_not_journaled(self, tmp_path):
        # The journal drops traces, so a resumed traced run would come back
        # without the trace its driver reads: traced specs bypass it.
        journal = CheckpointJournal(tmp_path / "j.runs.jsonl")
        traced = ladder_spec(6, record_trace=True)
        with use_checkpoint(journal):
            (runs,) = run_grid([Cell.repeated(traced, 1, 2)])
        assert journal.records_written == 0
        assert all(result.trace is not None for result in runs.results)

    def test_grid_matches_per_cell_grids(self):
        cells = [
            Cell.repeated(ladder_spec(8), 1, 3),
            Cell.repeated(suniform_spec(6), 2, 2),
            Cell.repeated(ladder_spec(12), 3, 1),
        ]
        together = run_grid(cells)
        apart = [run_grid([cell])[0] for cell in cells]
        assert [r.results for r in together] == [r.results for r in apart]


class TestSeedSpacing:
    """Regression for the old ``seed + 1000*i + r`` layout, whose streams
    collided as soon as ``reps >= 1000``: configuration ``i`` repetition
    1000 reused configuration ``i+1`` repetition 0's seed, silently
    correlating neighbouring sweep points."""

    def test_old_collision_case_now_disjoint(self):
        # The exact pair that used to collide.
        assert run_seed(0, 0, 1000) != run_seed(0, 1, 0)

    def test_config_streams_disjoint_for_huge_reps(self):
        seed, reps = 7, 100_000
        streams = [
            set(range(run_seed(seed, i, 0), run_seed(seed, i, reps)))
            for i in range(4)
        ]
        for i in range(4):
            for j in range(i + 1, 4):
                assert streams[i].isdisjoint(streams[j])

    def test_run_seed_layout(self):
        assert config_seed(42, 0) == 42
        assert config_seed(42, 3) == 42 + 3 * SEED_STRIDE
        assert run_seed(42, 3, 5) == config_seed(42, 3) + 5
        assert SEED_STRIDE >= 2**32

    def test_rep_count_validated_against_stride(self):
        # Any realistic rep count stays inside one stride.
        assert run_seed(0, 0, SEED_STRIDE - 1) < run_seed(0, 1, 0)


class TestWorstSample:
    def test_nan_values_not_selected(self):
        from repro.analysis.metrics import MetricSample

        good = MetricSample("good", k=1)
        good.max_latency = [5.0]
        empty = MetricSample("empty", k=1)  # latency_mean is NaN
        assert worst_sample([good, empty]).label == "good"

    def test_metric_override(self):
        from repro.analysis.metrics import MetricSample

        a = MetricSample("a", k=1)
        a.max_latency = [100.0]
        a.energy = [1.0]
        b = MetricSample("b", k=1)
        b.max_latency = [1.0]
        b.energy = [100.0]
        assert worst_sample([a, b], metric="latency_mean").label == "a"
        assert worst_sample([a, b], metric="energy_mean").label == "b"

    def test_raises_when_metric_absent_everywhere(self):
        from repro.analysis.metrics import MetricSample

        a = MetricSample("a", k=1)  # no runs recorded: every metric is NaN
        b = MetricSample("b", k=1)
        with pytest.raises(ValueError, match="latency_mean"):
            worst_sample([a, b], metric="latency_mean")

    def test_raises_on_unknown_metric_key(self):
        from repro.analysis.metrics import MetricSample

        a = MetricSample("a", k=1)
        a.max_latency = [5.0]
        with pytest.raises(ValueError, match="no_such_metric"):
            worst_sample([a], metric="no_such_metric")

    def test_raises_on_empty_sample_list(self):
        with pytest.raises(ValueError):
            worst_sample([], metric="latency_mean")


class TestExperimentReport:
    def test_str_is_text(self):
        report = ExperimentReport("id", "t", text="hello")
        assert str(report) == "hello"
