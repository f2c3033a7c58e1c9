"""Compiled-engine benchmark: table-driven AdaptiveNoK vs the object engine.

Not a paper artefact — infrastructure health, and the second anchor of the
perf trajectory (``scripts/bench_trajectory.py`` folds these medians into
``BENCH_engines.json`` as ``compiled_speedup``).  The compiled stepper's
reason to exist is making the *adaptive* scenarios fast: both sides below
execute the same repetitions of the ISSUE acceptance configuration
(1000-rep k=64 ``AdaptiveNoK``; identical seeds, byte-identical results —
see ``tests/test_engine_fuzz.py``), so the ratio of their medians is the
compiled speedup and nothing else.  The acceptance gate is >= 10x.

The grid-fusion pair (-> ``grid_fusion_speedup``) is the quick
``table1_latency`` AdaptiveNoK grid — 3 ks x the 4-adversary oblivious
pool x 2 repetitions — run as one compiled call per cell and as one
``run_grid``, which fuses the 12 cells into one stepper call.  Its size is
the suite's, not ``REPRO_BENCH_REPS``'s.

``REPRO_BENCH_REPS`` scales the repetition count (default 1000; CI uses a
smaller value).  The object loop is measured with ``benchmark.pedantic``
(one round) — at full scale a single pass is already ~90 s, and the ratio
of medians is insensitive to the reduced round count.
"""

from __future__ import annotations

import os

from repro.adversary.oblivious import UniformRandomSchedule
from repro.channel.compiled import run_compiled_batch
from repro.channel.results import StopCondition
from repro.core.protocols.adaptive_no_k import AdaptiveNoK
from repro.core.spec import RunSpec
from repro.engine.dispatch import execute
from repro.experiments.harness import Cell, config_seed, run_grid
from repro.experiments.table1 import oblivious_pool

K = 64
REPS = int(os.environ.get("REPRO_BENCH_REPS", "1000"))


def _adaptive_no_k():
    return AdaptiveNoK()


_adaptive_no_k.protocol_name = "AdaptiveNoK"

SPEC = RunSpec(
    k=K,
    protocol=_adaptive_no_k,
    adversary=UniformRandomSchedule(span=lambda k: 2 * k),
    stop=StopCondition.ALL_SWITCHED_OFF,
    max_rounds=30 * K,
    seed=7,
)
SEEDS = [SPEC.seed + r for r in range(REPS)]


def run_compiled_kernel():
    return run_compiled_batch(SPEC, seeds=SEEDS)


def run_object_loop():
    return [execute(SPEC.with_seed(s), engine="object") for s in SEEDS]


def _sanity(results):
    assert len(results) == REPS
    # The livelock-prone adversary defeats some runs; the benchmark only
    # checks the workload is non-trivial (identity is fuzz-tested).
    assert sum(r.completed for r in results) > REPS // 4


def test_bench_compiled_adaptive_batch(benchmark):
    results = benchmark.pedantic(
        run_compiled_kernel, rounds=3, iterations=1, warmup_rounds=1
    )
    _sanity(results)


def test_bench_object_adaptive_loop(benchmark):
    results = benchmark.pedantic(run_object_loop, rounds=1, iterations=1)
    _sanity(results)


def _grid_cells() -> list[Cell]:
    """The quick table1_latency AdaptiveNoK grid, seeded as the driver
    seeds it (ks 16/32/64, reps 2, seed 2017 + 97)."""
    pool = oblivious_pool()
    cells = []
    for i, k in enumerate((16, 32, 64)):
        for j, adversary in enumerate(pool):
            spec = RunSpec(
                k=k, protocol=_adaptive_no_k, adversary=adversary,
                max_rounds=120 * k + 8192, label="AdaptiveNoK",
            )
            first = 2017 + 97 + config_seed(0, i * len(pool) + j)
            cells.append(Cell.repeated(spec, first, 2))
    return cells


GRID = _grid_cells()


def test_bench_grid_per_cell_calls(benchmark):
    results = benchmark.pedantic(
        lambda: [run_compiled_batch(c.spec, seeds=c.seeds) for c in GRID],
        rounds=5, iterations=1, warmup_rounds=1,
    )
    assert sum(len(r) for r in results) == 24


def test_bench_grid_fused(benchmark):
    grid = benchmark.pedantic(
        lambda: run_grid(GRID), rounds=5, iterations=1, warmup_rounds=1
    )
    per_cell = [run_compiled_batch(c.spec, seeds=c.seeds) for c in GRID]
    assert [runs.results for runs in grid] == per_cell
