"""Engine micro-benchmarks: raw simulation throughput of the two engines.

Not a paper artefact — infrastructure health.  Keeps the vectorised
engine's Poisson-thinning fast path (the batched schedule kernel on one
seed) honest: it must beat the object engine by a wide margin on schedule
protocols, or the experiment sweeps above are mis-built.
"""

from __future__ import annotations

from repro.adversary.oblivious import UniformRandomSchedule
from repro.channel.simulator import SlotSimulator
from repro.core.protocol import ScheduleProtocol
from repro.core.protocols.non_adaptive_with_k import NonAdaptiveWithK
from repro.core.spec import RunSpec
from repro.engine import execute

K = 256
ADVERSARY = UniformRandomSchedule(span=lambda k: 2 * k)


def run_vectorized(seed=0):
    spec = RunSpec(
        k=K,
        protocol=NonAdaptiveWithK(K, 6),
        adversary=ADVERSARY,
        max_rounds=30 * K,
        seed=seed,
    )
    return execute(spec, engine="vectorized")


def run_object(seed=0):
    return SlotSimulator(
        K,
        lambda: ScheduleProtocol(NonAdaptiveWithK(K, 6)),
        ADVERSARY,
        max_rounds=30 * K,
        seed=seed,
    ).run()


def test_bench_vectorized_engine(benchmark):
    result = benchmark(run_vectorized)
    assert result.completed


def test_bench_object_engine(benchmark):
    result = benchmark(run_object)
    assert result.completed
