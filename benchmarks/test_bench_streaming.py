"""Streaming-kernel benchmark: memory-bounded tiles vs the monolith.

Not a paper artefact — infrastructure health, and the streaming leg of
the perf trajectory (``scripts/bench_trajectory.py`` turns these medians
into ``BENCH_engines.json``'s ``streaming_speedup`` /
``tile_sharding_speedup`` entries).  Three questions, one configuration
(the batched benchmark's k=64 acceptance config, identical seeds,
byte-identical results — see ``tests/test_plan.py``):

* ``test_bench_streaming_kernel`` — does tiling keep the batched
  kernel's throughput?  The budget forces ~8 rep tiles; the median
  should sit within noise of ``test_bench_batched_kernel`` while the
  recorded peak RSS (``extra_info``) bounds the memory the streamed run
  actually touched.
* ``test_bench_tile_sharding_jobs{1,4}`` — does intra-config sharding
  buy wall-clock?  Tiles are the fork-pool scheduling unit, so one
  config's tiles spread across ``--jobs`` workers; the jobs1/jobs4
  median ratio is the sharding speedup.  (On a single-core host the
  ratio degenerates to ~1x — fork overhead with no parallel hardware —
  which the trajectory's ``host.cpu_count`` metadata disambiguates.)

``REPRO_BENCH_REPS`` scales the repetition count (default 1000; CI uses
a smaller value).
"""

from __future__ import annotations

import os
import resource

from repro.adversary.oblivious import UniformRandomSchedule
from repro.channel.batched import run_batch
from repro.channel.results import StopCondition
from repro.core.protocols.non_adaptive_with_k import NonAdaptiveWithK
from repro.core.spec import RunSpec
from repro.engine.plan import build_plan, estimate_rep_bytes, use_tiling
from repro.experiments.executor import use_batch_size, use_jobs
from repro.experiments.harness import Cell, fold_sample, run_grid

K = 64
REPS = int(os.environ.get("REPRO_BENCH_REPS", "1000"))
N_TILES = 8
SPEC = RunSpec(
    k=K,
    protocol=NonAdaptiveWithK(K, 6),
    adversary=UniformRandomSchedule(span=lambda k: 2 * k),
    stop=StopCondition.ALL_SUCCEEDED,
    switch_off_on_ack=False,
    max_rounds=30 * K,
    seed=7,
)
SEEDS = [SPEC.seed + r for r in range(REPS)]
#: A budget that slices REPS repetitions into ~N_TILES rep tiles.
BUDGET = estimate_rep_bytes(SPEC) * max(1, REPS // N_TILES)


def _peak_rss_kb() -> int:
    """Self + children max RSS so forked workers count too (KiB on Linux)."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return int(max(self_kb, child_kb))


def run_streaming_kernel():
    return run_batch(SPEC, seeds=SEEDS, memory_budget=BUDGET)


def test_bench_streaming_kernel(benchmark):
    plan = build_plan(SPEC, REPS, memory_budget=BUDGET)
    results = benchmark(run_streaming_kernel)
    assert len(results) == REPS
    assert plan.n_rep_tiles > 1  # the budget really forces streaming
    benchmark.extra_info["peak_rss_kb"] = _peak_rss_kb()
    benchmark.extra_info["n_rep_tiles"] = plan.n_rep_tiles
    benchmark.extra_info["memory_budget_bytes"] = BUDGET
    assert sum(r.completed for r in results) > REPS // 4


def _run_sharded(jobs: int):
    # One configuration, its repetitions tiled so the fork pool has
    # ~2 tiles per worker to schedule at jobs=4.
    spec = SPEC.replace(stop=StopCondition.ALL_SWITCHED_OFF, switch_off_on_ack=True)
    with use_tiling(tile_reps=max(1, REPS // N_TILES)), use_jobs(jobs), \
            use_batch_size(REPS):
        (runs,) = run_grid([Cell.repeated(spec, SPEC.seed, REPS)])
    return fold_sample(runs)


def test_bench_tile_sharding_jobs1(benchmark):
    sample = benchmark.pedantic(_run_sharded, args=(1,), rounds=3)
    assert sample.runs == REPS
    benchmark.extra_info["peak_rss_kb"] = _peak_rss_kb()


def test_bench_tile_sharding_jobs4(benchmark):
    sample = benchmark.pedantic(_run_sharded, args=(4,), rounds=3)
    assert sample.runs == REPS
    benchmark.extra_info["peak_rss_kb"] = _peak_rss_kb()
    benchmark.extra_info["cpu_count"] = os.cpu_count() or 0
