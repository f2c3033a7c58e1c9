"""Cross-cell fusion: one compiled stepper call carries runs of many specs.

``execute_fused`` groups compiled-admissible specs by their fusion key
(lowered program up to the horizon, feedback, stop condition,
``jam_rounds``) and steps every group's runs in one call, each repetition
keeping its own ``k``, horizon and wake source.  Every run must stay
byte-identical to its single-spec run and to the object engine; the
harness must return identical ``CellRuns`` for every batch size, worker
count, tiling and resume point.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary.adaptive import (
    AntiLeaderAdversary,
    BurstOnQuietAdversary,
    DripFeedAdversary,
    WakeOnSuccessAdversary,
)
from repro.adversary.base import FixedSchedule
from repro.adversary.oblivious import StaticSchedule, UniformRandomSchedule
from repro.baselines.cd_adaptive import CdAimdProtocol
from repro.channel.compiled import run_compiled_batch, run_compiled_runs
from repro.channel.feedback import FeedbackModel
from repro.channel.results import StopCondition
from repro.core.protocols import AdaptiveNoK, SUniform
from repro.core.protocols.global_clock import GlobalClockUFR
from repro.core.spec import RunSpec
from repro.engine import execute
from repro.engine.dispatch import (
    assert_results_identical,
    compiled_fusion_groups,
    execute_fused,
)
from repro.engine.plan import estimate_rep_bytes, use_tiling
from repro.experiments.checkpoint import CheckpointJournal, use_checkpoint
from repro.experiments.executor import (
    RunExecutor,
    parallelism_available,
    use_batch_size,
    use_jobs,
)
from repro.experiments.harness import Cell, run_grid
from repro.telemetry import registry as telemetry
from tests.conftest import make_factory

ACK = FeedbackModel.ACK_ONLY
CD = FeedbackModel.COLLISION_DETECTION
STOPS = sorted(StopCondition, key=lambda s: s.value)

_MACHINES = {
    "adaptive-no-k": AdaptiveNoK,
    "s-uniform": SUniform,
    "global-clock": GlobalClockUFR,
    "cd-aimd": CdAimdProtocol,
}

_ADAPTIVE = (
    lambda c: BurstOnQuietAdversary(
        burst=c(st.integers(1, 6)), quiet=c(st.integers(1, 6))
    ),
    lambda c: WakeOnSuccessAdversary(
        seed_group=c(st.integers(1, 4)), refill=c(st.integers(1, 4))
    ),
    lambda c: AntiLeaderAdversary(flood=c(st.integers(1, 6))),
    lambda c: DripFeedAdversary(interval=c(st.integers(1, 6))),
)


class _Counting:
    """Telemetry on for a block; ``delta(name)`` reads a counter's rise."""

    def __enter__(self):
        self.was_enabled = telemetry.enabled()
        telemetry.enable()
        self.before = dict(telemetry.snapshot()["counters"])
        return self

    def __exit__(self, *exc):
        self.after = dict(telemetry.snapshot()["counters"])
        if not self.was_enabled:
            telemetry.disable()
        return False

    def delta(self, name: str) -> float:
        return self.after.get(name, 0) - self.before.get(name, 0)


# ------------------------------------------------------------------ fuzz


@st.composite
def heterogeneous_groups(c):
    """2-5 cells of one lowerable machine: k, horizon, wake source and
    seeds drawn per cell; feedback and stop mostly shared (so most cells
    fuse) but sometimes not (so the partition is exercised too)."""
    machine = c(st.sampled_from(sorted(_MACHINES)))
    base_feedback = CD if machine == "cd-aimd" else c(st.sampled_from([ACK, CD]))
    base_stop = c(st.sampled_from(STOPS))
    jam = c(st.one_of(
        st.none(), st.sets(st.integers(1, 200), min_size=1, max_size=20)
    ))
    cells = []
    for _ in range(c(st.integers(2, 5))):
        k = c(st.integers(1, 48))
        source = c(st.sampled_from(["uniform", "fixed", "static", "adaptive"]))
        if source == "uniform":
            adversary = UniformRandomSchedule(span=c(st.integers(1, 60)))
        elif source == "fixed":
            adversary = FixedSchedule(
                c(st.lists(st.integers(0, 30), min_size=k, max_size=k))
            )
        elif source == "static":
            adversary = StaticSchedule()
        else:
            adversary = c(st.sampled_from(_ADAPTIVE))(c)
        feedback = (
            CD if machine == "cd-aimd"
            else c(st.sampled_from([base_feedback, base_feedback, ACK, CD]))
        )
        stop = c(st.sampled_from([base_stop, base_stop, *STOPS]))
        spec = RunSpec(
            k=k,
            # A fresh factory per cell: the fusion key must not depend on
            # factory identity.
            protocol=make_factory(_MACHINES[machine]),
            adversary=adversary,
            feedback=feedback,
            stop=stop,
            max_rounds=c(st.integers(40, 250)),
            jam_rounds=None if jam is None else tuple(jam),
            label=f"cell{len(cells)}",
        )
        seeds = c(st.lists(
            st.integers(0, 2**31 - 1), min_size=1, max_size=2, unique=True
        ))
        cells.append((spec, seeds))
    return cells


@settings(max_examples=40, deadline=None)
@given(heterogeneous_groups())
def test_fused_groups_are_byte_identical(cells):
    """fused == per-spec run_compiled_batch == object engine, per seed,
    with one stepper call per fusion group."""
    runs = [(spec, seed) for spec, seeds in cells for seed in seeds]
    groups = compiled_fusion_groups([spec for spec, _ in cells])
    with _Counting() as counting:
        fused = execute_fused(runs)
    assert counting.delta("compiled.batches") == len(groups)
    assert counting.delta("engine.select.compiled") == len(runs)
    for (spec, seed), got in zip(runs, fused):
        seeded = spec.with_seed(seed)
        want = execute(seeded, "object")
        assert_results_identical(seeded, want, got)
        assert_results_identical(
            seeded, want, run_compiled_batch(spec, seeds=[seed])[0]
        )


# ------------------------------------------------------------ fusion key


def _adaptive(k, adversary, **changes):
    fields = dict(
        k=k, protocol=make_factory(AdaptiveNoK), adversary=adversary,
        max_rounds=60 * k + 200,
    )
    return RunSpec(**{**fields, **changes})


class TestFusionKey:
    def test_labels_factories_k_horizon_and_wake_source_are_free(self):
        specs = [
            _adaptive(4, UniformRandomSchedule(), label="a"),
            _adaptive(16, BurstOnQuietAdversary(burst=2, quiet=3), label="b"),
            _adaptive(9, StaticSchedule(), max_rounds=77),
        ]
        (group,) = compiled_fusion_groups(specs)
        members, program = group
        assert members == [0, 1, 2]
        # The program serving the group is lowered at the longest horizon.
        assert program.prob_rows.shape[1] == 60 * 16 + 200

    def test_feedback_stop_jam_and_program_split_groups(self):
        base = _adaptive(8, StaticSchedule())
        specs = [
            base,
            base.replace(feedback=CD),
            base.replace(stop=StopCondition.FIRST_SUCCESS),
            base.replace(jam_rounds=(3, 5)),
            base.replace(protocol=make_factory(AdaptiveNoK, q=3.0)),
            base.replace(protocol=make_factory(SUniform)),
            base.replace(k=3, label="fuses with the first"),
        ]
        groups = compiled_fusion_groups(specs)
        assert [members for members, _ in groups] == [
            [0, 6], [1], [2], [3], [4], [5],
        ]

    def test_kernel_refuses_runs_that_do_not_share_the_key(self):
        base = _adaptive(8, StaticSchedule())
        with pytest.raises(ValueError, match="stop condition"):
            run_compiled_runs([
                (base, 1), (base.replace(stop=StopCondition.FIRST_SUCCESS), 2),
            ])
        with pytest.raises(ValueError, match="one program"):
            run_compiled_runs([
                (base, 1), (base.replace(protocol=make_factory(SUniform)), 2),
            ])


# ----------------------------------------------------------------- harness


def mixed_grid() -> list[Cell]:
    """AdaptiveNoK at four k s and horizons, oblivious and adaptive wakes:
    one fusion group of 12 runs."""
    configs = [
        (4, UniformRandomSchedule()),
        (9, BurstOnQuietAdversary(burst=2, quiet=3)),
        (16, DripFeedAdversary(interval=2)),
        (6, StaticSchedule()),
    ]
    return [
        Cell.repeated(_adaptive(k, adversary, label=f"c{i}"), 100 + 10 * i, 3)
        for i, (k, adversary) in enumerate(configs)
    ]


def run_mixed(batch_size=None, jobs=None):
    with use_batch_size(batch_size), use_jobs(jobs):
        return run_grid(mixed_grid())


def results_of(grid):
    return [(runs.spec.display_label, runs.results) for runs in grid]


class TestHarnessFusion:
    def test_one_call_per_group_and_batch_size_one_runs_singly(self):
        with _Counting() as fused:
            default = run_mixed()
        with _Counting() as single:
            per_run = run_mixed(batch_size=1)
        assert fused.delta("compiled.batches") == 1
        assert fused.delta("executor.tasks") == 1
        assert single.delta("compiled.batches") == 12
        assert single.delta("executor.tasks") == 12
        assert results_of(default) == results_of(per_run)
        for runs, cell in zip(default, mixed_grid()):
            for seed, result in zip(cell.seeds, runs.results):
                assert result == execute(runs.spec.with_seed(seed))

    @pytest.mark.skipif(
        not parallelism_available(), reason="fork pool unavailable"
    )
    def test_worker_count_invariant(self):
        serial = run_mixed(jobs=1)
        with use_tiling(tile_reps=5):
            forked = run_mixed(jobs=2)
        assert results_of(serial) == results_of(forked)

    def test_memory_budget_splits_the_group_into_tiles(self):
        baseline = run_mixed()
        costliest = max(estimate_rep_bytes(c.spec) for c in mixed_grid())
        with _Counting() as counting, use_tiling(memory_budget=3 * costliest):
            tiled = run_mixed()
        # 12 runs in chunks of <= 3 of the costliest spec.
        assert counting.delta("compiled.batches") == 4
        assert results_of(tiled) == results_of(baseline)

    def test_resume_after_kill_mid_group(self, tmp_path):
        from repro.experiments import harness as harness_module

        baseline = run_mixed()
        killed_after = 2

        class KilledExecutor(RunExecutor):
            def map(self, tasks, on_result=None):
                for j, task in enumerate(tasks):
                    if j >= killed_after:
                        raise KeyboardInterrupt("simulated kill mid-group")
                    result = task()
                    if on_result is not None:
                        on_result(j, result, 0.0)
                raise AssertionError("expected to be killed mid-group")

        journal = CheckpointJournal.for_experiment(tmp_path, "mixed")
        journal.load()
        original = harness_module.RunExecutor
        harness_module.RunExecutor = KilledExecutor
        try:
            with use_checkpoint(journal), use_tiling(tile_reps=5):
                with pytest.raises(KeyboardInterrupt):
                    run_mixed()
        finally:
            harness_module.RunExecutor = original
        # Two 5-run chunks spanning cells c0-c1 and c1-c3 were journaled.
        assert journal.records_written == killed_after * 5

        resumed_journal = CheckpointJournal.for_experiment(tmp_path, "mixed")
        resumed_journal.load()
        with use_checkpoint(resumed_journal):
            resumed = run_mixed()
        assert resumed_journal.hits == killed_after * 5
        assert results_of(resumed) == results_of(baseline)
