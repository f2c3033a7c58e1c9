"""Tile planner + streaming execution: exactness, budgets, fail-fast.

The streaming contract (``repro.engine.plan`` module docs) is that tiling
is *invisible* in the results: any (tile_reps, tile_rounds, budget)
combination produces byte-identical ``RunResult``s — only the memory
profile changes.  These tests fuzz that contract over the batched
kernel's whole admissible space, pin the planner's cost-model behaviour,
and exercise the fail-fast ``BatchMemoryError`` paths, the harness's
tile-as-scheduling-unit chunking (including a simulated kill mid-plan
with a resume under a different tiling), and the telemetry satellites
(peak-gauge max-merge across workers, ``repro stats`` rendering).
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary.base import FixedSchedule
from repro.adversary.oblivious import UniformRandomSchedule
from repro.channel import batched
from repro.channel.batched import run_batch
from repro.channel.compiled import run_compiled_batch
from repro.core.protocols import AdaptiveNoK
from repro.core.protocols.non_adaptive_with_k import NonAdaptiveWithK
from repro.core.spec import RunSpec
from repro.engine.plan import (
    BatchMemoryError,
    TilePlan,
    build_plan,
    estimate_rep_bytes,
    format_bytes,
    get_default_memory_budget,
    get_default_tile_reps,
    get_default_tile_rounds,
    parse_memory_budget,
    tile_rep_cap,
    use_tiling,
)
from repro.experiments.checkpoint import CheckpointJournal, use_checkpoint
from repro.experiments.executor import use_batch_size, use_jobs
from repro.experiments.harness import Cell, fold_sample, run_grid
from repro.telemetry import registry as telemetry
from tests.conftest import make_factory
from tests.test_batched import batch_configs, canonical, sample_rows


# ------------------------------------------------------------ budget parsing


class TestParseMemoryBudget:
    @pytest.mark.parametrize(
        ("value", "expected"),
        [
            ("4G", 4 * 1024**3),
            ("4g", 4 * 1024**3),
            ("4GiB", 4 * 1024**3),
            ("512M", 512 * 1024**2),
            ("512mb", 512 * 1024**2),
            ("64K", 64 * 1024),
            ("1.5k", 1536),
            ("2T", 2 * 1024**4),
            ("1073741824", 1024**3),
            (1024, 1024),
            (1024.0, 1024),
        ],
    )
    def test_accepted_forms(self, value, expected):
        assert parse_memory_budget(value) == expected

    @pytest.mark.parametrize("value", ["", "abc", "4Q", "-5", "1..5G", True])
    def test_rejected_forms(self, value):
        with pytest.raises(ValueError):
            parse_memory_budget(value)

    def test_non_positive_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            parse_memory_budget(0)
        with pytest.raises(ValueError, match="positive"):
            parse_memory_budget("0M")

    def test_format_bytes_round_trip_readability(self):
        assert format_bytes(512) == "512 B"
        assert format_bytes(4 * 1024**3) == "4.0 GiB"
        assert "MiB" in format_bytes(parse_memory_budget("512M"))


# ------------------------------------------------------------ plan building


def _spec(k=8, max_rounds=200) -> RunSpec:
    return RunSpec(
        k=k,
        protocol=NonAdaptiveWithK(k, 6),
        adversary=UniformRandomSchedule(),
        seed=7,
        max_rounds=max_rounds,
    )


class TestBuildPlan:
    def test_unconstrained_plan_is_monolithic(self):
        plan = build_plan(_spec(), 500)
        assert plan.monolithic
        assert plan.n_rep_tiles == 1
        assert plan.n_round_windows == 1
        assert plan.rep_slices() == [(0, 500)]

    def test_plan_is_deterministic(self):
        a = build_plan(_spec(), 1000, memory_budget="8M", tile_rounds=50)
        b = build_plan(_spec(), 1000, memory_budget="8M", tile_rounds=50)
        assert a == b
        assert isinstance(a, TilePlan)

    def test_budget_derives_rep_tiles(self):
        spec = _spec()
        per_rep = estimate_rep_bytes(spec)
        plan = build_plan(spec, 1000, memory_budget=per_rep * 10)
        assert plan.tile_reps == 10
        assert plan.n_rep_tiles == 100
        assert plan.est_tile_bytes <= per_rep * 10
        slices = plan.rep_slices()
        assert slices[0] == (0, 10)
        assert slices[-1] == (990, 1000)
        # The slices partition [0, n_reps) exactly, in order.
        assert [lo for lo, _ in slices[1:]] == [hi for _, hi in slices[:-1]]

    def test_explicit_tile_reps_overrides_budget(self):
        spec = _spec()
        plan = build_plan(
            spec, 100, memory_budget="1G", tile_reps=3, tile_rounds=7
        )
        assert plan.tile_reps == 3
        assert plan.tile_rounds == 7
        assert plan.n_rep_tiles == 34
        assert plan.n_round_windows == -(-spec.resolve_horizon() // 7)
        assert plan.n_tiles == plan.n_rep_tiles * plan.n_round_windows

    def test_tile_reps_clamped_to_batch(self):
        plan = build_plan(_spec(), 5, tile_reps=64)
        assert plan.tile_reps == 5
        assert plan.rep_slices() == [(0, 5)]

    def test_whole_horizon_window_normalises_to_monolithic(self):
        spec = _spec(max_rounds=100)
        plan = build_plan(spec, 10, tile_rounds=100)
        assert plan.tile_rounds is None
        assert plan.n_round_windows == 1

    def test_process_defaults_apply(self):
        spec = _spec()
        with use_tiling(memory_budget="4G", tile_reps=4, tile_rounds=9):
            assert get_default_memory_budget() == 4 * 1024**3
            assert get_default_tile_reps() == 4
            assert get_default_tile_rounds() == 9
            plan = build_plan(spec, 20)
            assert plan.tile_reps == 4
            assert plan.tile_rounds == 9
        assert get_default_memory_budget() is None
        assert get_default_tile_reps() is None
        assert get_default_tile_rounds() is None

    def test_inadmissible_budget_fails_fast_naming_field_and_budget(self):
        spec = _spec(k=64, max_rounds=4000)
        per_rep = estimate_rep_bytes(spec)
        with pytest.raises(BatchMemoryError) as exc:
            build_plan(spec, 100, memory_budget=1024)
        message = str(exc.value)
        # Names the spec field driving the working set and the smallest
        # budget that would admit a single-repetition tile.
        assert "max_rounds" in message or "k=" in message
        assert f"--memory-budget {per_rep}" in message

    def test_tile_rep_cap_follows_active_configuration(self):
        spec = _spec()
        assert tile_rep_cap(spec) is None
        per_rep = estimate_rep_bytes(spec)
        with use_tiling(memory_budget=per_rep * 7):
            assert tile_rep_cap(spec) == 7
        with use_tiling(memory_budget=per_rep * 7, tile_reps=3):
            assert tile_rep_cap(spec) == 3  # explicit override wins
        with use_tiling(memory_budget=1):
            with pytest.raises(BatchMemoryError):
                tile_rep_cap(spec)


# ------------------------------------------------- streaming byte identity


@settings(max_examples=80, deadline=None)
@given(
    batch_configs(),
    st.integers(1, 4),
    st.one_of(st.none(), st.integers(1, 40)),
)
def test_tiled_byte_identical_to_monolithic(config, tile_reps, tile_rounds):
    """The streaming contract, fuzzed: any (tile_reps, tile_rounds) slices
    the batch into different tiles and resolution windows, yet lands on
    exactly the monolithic kernel's bytes — across schedules, both
    sampling paths, adversaries, jamming, ack/no-ack and every stop
    condition."""
    spec, seeds = config
    monolithic = run_batch(spec, seeds=seeds)
    tiled = run_batch(
        spec, seeds=seeds, tile_reps=tile_reps, tile_rounds=tile_rounds
    )
    assert [canonical(t) for t in tiled] == [canonical(m) for m in monolithic]


@settings(max_examples=40, deadline=None)
@given(batch_configs(), st.integers(1, 64))
def test_budgeted_byte_identical_to_monolithic(config, budget_reps):
    """Budget-derived tiling (the ``--memory-budget`` path) is equally
    invisible: the cap comes out of the cost model instead of an explicit
    tile size, but the results match byte for byte."""
    spec, seeds = config
    monolithic = run_batch(spec, seeds=seeds)
    budget = estimate_rep_bytes(spec) * budget_reps
    tiled = run_batch(spec, seeds=seeds, memory_budget=budget)
    assert [canonical(t) for t in tiled] == [canonical(m) for m in monolithic]


def test_compiled_batch_rep_tiling_byte_identical():
    """The compiled stepper's fused batch streams rep tiles too: per-seed
    RNG fan-out is independent, so slicing the seed list cannot change
    bytes."""
    spec = RunSpec(
        k=6,
        protocol=make_factory(AdaptiveNoK),
        adversary=FixedSchedule([0, 2, 3, 5, 8, 13]),
        switch_off_on_ack=True,
        max_rounds=80,
        seed=31,
        jam_rounds=(4, 9),
    )
    seeds = [31 + r for r in range(17)]
    monolithic = run_compiled_batch(spec, seeds=seeds)
    for reps in (1, 2, 5, 16, 17):
        tiled = run_compiled_batch(spec, seeds=seeds, tile_reps=reps)
        assert [canonical(t) for t in tiled] == [
            canonical(m) for m in monolithic
        ]


def test_run_batch_wraps_kernel_memory_error(monkeypatch):
    """Satellite: an allocation that actually fails inside the kernel
    surfaces as a BatchMemoryError naming the spec and an admitting
    budget, instead of numpy's bare MemoryError."""
    spec = _spec()

    def explode(*args, **kwargs):
        raise MemoryError("Unable to allocate 87. GiB")

    monkeypatch.setattr(batched, "_run_tile", explode)
    with pytest.raises(BatchMemoryError) as exc:
        run_batch(spec, seeds=[7, 8, 9])
    message = str(exc.value)
    assert "--memory-budget" in message
    assert spec.display_label in message
    assert exc.value.__cause__ is not None  # the numpy error is chained


# ------------------------------------------------- harness tile scheduling


class TestHarnessTileScheduling:
    """Tiles — not configs — are the fork-pool scheduling unit."""

    KW = dict(reps=17, seed=991)

    def run_once(self, batch_size=None, jobs=None):
        spec = RunSpec(
            k=12, protocol=NonAdaptiveWithK(12, 6), adversary=UniformRandomSchedule()
        )
        cell = Cell.repeated(spec, self.KW["seed"], self.KW["reps"])
        with use_batch_size(batch_size), use_jobs(jobs):
            (runs,) = run_grid([cell])
        return fold_sample(runs)

    def test_tiling_invariant_rows(self):
        baseline = self.run_once(batch_size=64)
        with use_tiling(tile_reps=3):
            tiled = self.run_once(batch_size=64)
        with use_tiling(tile_reps=5, tile_rounds=11):
            windowed = self.run_once(batch_size=64)
        assert (
            sample_rows(baseline)
            == sample_rows(tiled)
            == sample_rows(windowed)
        )

    def test_tiling_invariant_across_workers(self):
        serial = self.run_once(batch_size=64, jobs=1)
        with use_tiling(tile_reps=4):
            forked = self.run_once(batch_size=64, jobs=3)
        assert sample_rows(serial) == sample_rows(forked)

    def test_budget_shrinks_chunks_to_tiles(self):
        """With a budget capping tiles below --batch-size, each submitted
        chunk is one tile (visible as more, smaller kernel batches)."""
        telemetry.enable()
        try:
            before = telemetry.snapshot()["counters"].get("batched.batches", 0)
            with use_tiling(tile_reps=3):
                tiled = self.run_once(batch_size=64)
            after = telemetry.snapshot()["counters"].get("batched.batches", 0)
        finally:
            telemetry.disable()
        # 17 reps in tiles of <= 3 -> ceil(17 / 3) = 6 kernel batches.
        assert after - before == 6
        assert sample_rows(tiled) == sample_rows(self.run_once(batch_size=64))

    def test_resume_mid_plan_is_tile_size_invariant(self, tmp_path):
        """Kill the executor after N tiles; the journal holds those tiles'
        per-(fingerprint, seed) entries, and a resume under a *different*
        tiling folds them into a byte-identical report."""
        from repro.experiments import harness as harness_module
        from repro.experiments.executor import RunExecutor

        baseline = self.run_once(batch_size=64)

        killed_after = 2

        class KilledExecutor(RunExecutor):
            def map(self, tasks, on_result=None):
                for j, task in enumerate(tasks):
                    if j >= killed_after:
                        raise KeyboardInterrupt("simulated kill mid-plan")
                    result = task()
                    if on_result is not None:
                        on_result(j, result, 0.0)
                raise AssertionError("expected to be killed mid-plan")

        journal = CheckpointJournal.for_experiment(tmp_path, "tiled")
        journal.load()
        original = harness_module.RunExecutor
        harness_module.RunExecutor = KilledExecutor
        try:
            with use_checkpoint(journal), use_tiling(tile_reps=3):
                with pytest.raises(KeyboardInterrupt):
                    self.run_once(batch_size=64)
        finally:
            harness_module.RunExecutor = original
        # Two completed 3-rep tiles made it into the journal.
        assert journal.records_written == killed_after * 3

        resumed_journal = CheckpointJournal.for_experiment(tmp_path, "tiled")
        resumed_journal.load()
        with use_checkpoint(resumed_journal), use_tiling(tile_reps=5):
            resumed = self.run_once(batch_size=64)
        assert resumed_journal.hits == killed_after * 3
        base_row = baseline.row()
        resumed_row = resumed.row()
        for row in (base_row, resumed_row):
            for key in list(row):
                if "seconds" in str(key):
                    row.pop(key)
        assert json.dumps(base_row, sort_keys=True, default=str) == json.dumps(
            resumed_row, sort_keys=True, default=str
        )


# --------------------------------------------------- telemetry satellites


class TestTileTelemetry:
    def test_gauge_max_keeps_peak(self):
        telemetry.enable()
        telemetry.reset()
        try:
            telemetry.gauge_max("t.working.peak", 10.0)
            telemetry.gauge_max("t.working.peak", 30.0)
            telemetry.gauge_max("t.working.peak", 20.0)
            assert telemetry.snapshot()["gauges"]["t.working.peak"] == 30.0
        finally:
            telemetry.disable()

    def test_peak_gauges_merge_by_max_across_workers(self):
        """Worker deltas carry each fork's peak; the parent must keep the
        fleet-wide maximum, not the last worker's value."""
        telemetry.enable()
        telemetry.reset()
        try:
            telemetry.gauge_max("tile.working_set_bytes.peak", 500.0)
            telemetry.merge(
                {"gauges": {"tile.working_set_bytes.peak": 900.0}}
            )
            telemetry.merge(
                {"gauges": {"tile.working_set_bytes.peak": 100.0}}
            )
            snap = telemetry.snapshot()["gauges"]
            assert snap["tile.working_set_bytes.peak"] == 900.0
            # Plain gauges keep last-write-wins merge semantics.
            telemetry.gauge("executor.queue_depth", 5.0)
            telemetry.merge({"gauges": {"executor.queue_depth": 2.0}})
            assert (
                telemetry.snapshot()["gauges"]["executor.queue_depth"] == 2.0
            )
        finally:
            telemetry.disable()

    def test_stats_renders_tile_spans_and_peak_gauge(self, tmp_path, capsys):
        """Satellite: `repro stats` surfaces the new plan/tile spans and
        the peak-working-set gauge from a tiled run's artefacts."""
        from repro.telemetry.stats import render_stats

        telemetry.enable()
        telemetry.reset()
        try:
            spec = _spec()
            run_batch(
                spec,
                seeds=[7 + r for r in range(9)],
                tile_reps=2,
                tile_rounds=13,
            )
            from repro import telemetry as telemetry_pkg

            telemetry_pkg.export_to_dir(tmp_path)
        finally:
            telemetry.disable()
        rendered = render_stats(tmp_path)
        assert "tile.runs" in rendered
        assert "tile.working.set.bytes.peak" in rendered
        assert "tile.run" in rendered
        assert "plan.build" in rendered
        # The OpenMetrics artefact keeps the exported repro_ names (what
        # the CI low-memory smoke job greps for).
        prom = (tmp_path / "metrics.prom").read_text()
        assert "repro_tile_runs_total" in prom
        assert "repro_tile_working_set_bytes_peak" in prom
