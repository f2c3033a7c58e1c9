"""Dispatch-layer micro-benchmarks: overhead and cache payoff.

Not a paper artefact — infrastructure health.  Two claims to keep honest:

* ``execute(RunSpec(...))`` must cost essentially the same as calling
  the chosen kernel by hand (``run_batch`` on the one seed) — dispatch is
  an admissibility check plus a cached table fetch, not a new simulation
  layer;
* the probability-table cache must make repeated constructions of one
  configuration (the shape of every experiment sweep) markedly cheaper
  than recomputing the table per run.
"""

from __future__ import annotations

from repro.adversary.oblivious import UniformRandomSchedule
from repro.channel.batched import run_batch
from repro.core.protocols.non_adaptive_with_k import NonAdaptiveWithK
from repro.core.spec import RunSpec
from repro.engine import clear_table_cache, execute, probability_table

K = 256
HORIZON = 30 * K
ADVERSARY = UniformRandomSchedule(span=lambda k: 2 * k)


def make_spec(seed=0):
    return RunSpec(
        k=K,
        protocol=NonAdaptiveWithK(K, 6),
        adversary=ADVERSARY,
        max_rounds=HORIZON,
        seed=seed,
    )


def run_direct(seed=0):
    return run_batch(make_spec(), seeds=[seed])[0]


def run_dispatched(seed=0):
    return execute(make_spec(seed))


def test_bench_direct_construction(benchmark):
    result = benchmark(run_direct)
    assert result.completed


def test_bench_dispatched_execution(benchmark):
    probability_table(NonAdaptiveWithK(K, 6), HORIZON)  # steady-state: warm
    result = benchmark(run_dispatched)
    assert result.completed


def test_bench_table_cold(benchmark):
    schedule = NonAdaptiveWithK(K, 6)

    def cold():
        clear_table_cache()
        return probability_table(schedule, HORIZON)

    table = benchmark(cold)
    assert table.size == HORIZON


def test_bench_table_warm(benchmark):
    schedule = NonAdaptiveWithK(K, 6)
    probability_table(schedule, HORIZON)

    def warm():
        # A fresh equivalent instance: the fingerprint, not object
        # identity, must carry the hit — that is the sweep access pattern.
        return probability_table(NonAdaptiveWithK(K, 6), HORIZON)

    table = benchmark(warm)
    assert table.size == HORIZON
