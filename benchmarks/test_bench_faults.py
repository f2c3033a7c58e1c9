"""Fault-path benchmark: ``faults=None`` must cost < 2% on the kernel.

The fault subsystem's performance contract (``src/repro/faults``) is that
the ideal channel pays nothing for the feature's existence: with
``spec.faults is None`` the batched kernel adds one attribute test and an
alias assignment per tile — no fault plan, no key masks, no extra passes.
This module proves that contract on the acceptance configuration (the
1000-rep k=64 batched kernel of ``test_bench_batched.py``) the same two
ways as the telemetry-overhead benchmark:

* paired pytest-benchmark cases — the clean kernel, the faulted kernel
  (noise + ack loss lowered to outcome rewrites) and the faulted per-run
  loop (the same kernel once per seed) — so the trajectory records the absolute cost of the
  fault path itself (``fault_overhead``) and the batching win it keeps
  (``fault_path_speedup``);
* a direct bound proof: measure the per-call cost of the ``faults``
  guard expression with a tight timing loop, multiply by a generous
  allowance of guard sites per batch, and assert the product stays under
  2% of the measured clean-kernel time.  This is robust where a naive
  A/B median comparison is noise-bound: the guard costs nanoseconds
  against a kernel that runs for tens of milliseconds.

``REPRO_BENCH_REPS`` scales the repetition count (default 1000 — the
acceptance configuration; CI uses a smaller value).
"""

from __future__ import annotations

import os
import time

from repro.adversary.oblivious import UniformRandomSchedule
from repro.channel.batched import run_batch
from repro.channel.results import StopCondition
from repro.core.protocols.non_adaptive_with_k import NonAdaptiveWithK
from repro.core.spec import RunSpec
from repro.engine.dispatch import execute
from repro.faults import AckLoss, FaultModel, SlotNoise

K = 64
REPS = int(os.environ.get("REPRO_BENCH_REPS", "1000"))
SPEC = RunSpec(
    k=K,
    protocol=NonAdaptiveWithK(K, 6),
    adversary=UniformRandomSchedule(span=lambda k: 2 * k),
    stop=StopCondition.ALL_SUCCEEDED,
    switch_off_on_ack=False,
    max_rounds=30 * K,
    seed=7,
)
FAULTED_SPEC = SPEC.replace(
    faults=FaultModel(noise=SlotNoise(0.05), ack_loss=AckLoss(0.02))
)
SEEDS = [SPEC.seed + r for r in range(REPS)]

#: Guard sites one clean batch may pass through, with head-room: the
#: kernel holds ~3 (`_check_batchable`, the tile's fault branch, the
#: telemetry gate), dispatch adds a handful more.  200 is two orders of
#: magnitude above that, so the bound below is conservative, not tuned.
GUARDS_PER_BATCH_ALLOWANCE = 200


def test_bench_fault_none_kernel(benchmark):
    """The clean kernel with the fault subsystem compiled in."""
    results = benchmark(run_batch, SPEC, seeds=SEEDS)
    assert len(results) == REPS


def test_bench_fault_batched_kernel(benchmark):
    """The faulted kernel: noise + ack loss as batched outcome rewrites."""
    results = benchmark(run_batch, FAULTED_SPEC, seeds=SEEDS)
    assert len(results) == REPS


def test_bench_fault_per_run_loop(benchmark):
    """The faulted per-run vectorised loop the batched kernel replaces."""

    def loop():
        return [
            execute(FAULTED_SPEC.with_seed(seed), "vectorized")
            for seed in SEEDS
        ]

    results = benchmark(loop)
    assert len(results) == REPS


def _per_call_seconds(fn, calls: int = 200_000) -> float:
    """Median-of-5 per-call cost of ``fn`` over a tight loop."""
    samples = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - start) / calls)
    samples.sort()
    return samples[2]


def test_fault_none_path_under_two_percent():
    """The acceptance bound: the ``faults=None`` guards cost < 2% of the
    batched kernel on the k=64, 1000-rep configuration."""
    kernel_samples = []
    for _ in range(3):
        start = time.perf_counter()
        results = run_batch(SPEC, seeds=SEEDS)
        kernel_samples.append(time.perf_counter() - start)
    assert len(results) == REPS
    kernel_samples.sort()
    kernel_seconds = kernel_samples[1]

    # Everything the clean path executes for the fault feature: the
    # attribute test, the composed energy-budget check, and the dispatch
    # admissibility probe's fault clause.
    costs = {
        "is_none": _per_call_seconds(lambda: SPEC.faults is not None),
        "energy_check": _per_call_seconds(
            lambda: SPEC.faults is not None
            and SPEC.faults.energy_budget is not None
        ),
    }
    worst = max(costs.values())

    overhead = worst * GUARDS_PER_BATCH_ALLOWANCE
    ratio = overhead / kernel_seconds
    assert ratio < 0.02, (
        f"faults=None guard overhead {ratio:.4%} of kernel time "
        f"(worst per-call {worst * 1e9:.0f} ns x "
        f"{GUARDS_PER_BATCH_ALLOWANCE} allowed guards vs kernel "
        f"{kernel_seconds * 1e3:.1f} ms); per-guard: "
        + ", ".join(f"{k}={v * 1e9:.0f}ns" for k, v in sorted(costs.items()))
    )
