"""Benchmark ``baseline_compare``: the paper's protocols vs the classics.

Context claims from Section 1.1 reproduced as shape checks:
* ALOHA with known k pays a ~log k latency factor over NonAdaptiveWithK —
  a *sweep* claim: at small k ALOHA's smaller constant wins, and the
  crossover appears as k grows (the ratio ALOHA/ladder increases);
* a fixed-probability universal ALOHA fails under high contention;
* AdaptiveNoK matches the CD-splitting tree's linear shape *without*
  collision detection.
"""

from __future__ import annotations

from repro.adversary.oblivious import UniformRandomSchedule
from repro.baselines.aloha import SlottedAlohaKnownK
from repro.core.protocols.non_adaptive_with_k import NonAdaptiveWithK
from repro.core.spec import RunSpec
from repro.engine import execute
from repro.experiments.baselines_exp import run_baseline_compare

from benchmarks.conftest import save_report


def row_of(report, protocol, workload):
    return next(
        r for r in report.rows
        if r["protocol"] == protocol and r["workload"] == workload
    )


def aloha_vs_ladder_ratio(k: int, seed: int) -> float:
    """Mean latency ratio ALOHA(1/k) / NonAdaptiveWithK at one k."""
    adversary = UniformRandomSchedule(span=lambda kk: 2 * kk)
    ratios = []
    for r in range(3):
        aloha = execute(
            RunSpec(
                k=k,
                protocol=SlottedAlohaKnownK(k),
                adversary=adversary,
                max_rounds=600 * k,
                seed=seed + r,
            ),
            engine="vectorized",
        )
        ladder = execute(
            RunSpec(
                k=k,
                protocol=NonAdaptiveWithK(k, 6),
                adversary=adversary,
                max_rounds=30 * k,
                seed=seed + r,
            ),
            engine="vectorized",
        )
        assert aloha.completed and ladder.completed
        ratios.append(aloha.max_latency / ladder.max_latency)
    return sum(ratios) / len(ratios)


def test_bench_baselines(benchmark):
    report = benchmark.pedantic(
        lambda: run_baseline_compare(k=256, reps=3, seed=1970),
        rounds=1,
        iterations=1,
    )
    save_report(report)
    print(report.text)

    k = 256
    known = row_of(report, "NonAdaptiveWithK", "dynamic")
    fixed = row_of(report, "Aloha(p=0.05)", "dynamic")
    adaptive = row_of(report, "AdaptiveNoK", "dynamic")
    tree = row_of(report, "SplittingTree(CD)", "dynamic")

    # Fixed-p ALOHA off its design point: k*p = 12.8 >> 1 -> collapse.
    assert fixed["failures"] > 0 or fixed["latency"] > 10 * known["latency"]
    # AdaptiveNoK is linear-shaped like the CD tree (within a constant),
    # despite having no collision detection.
    assert adaptive["latency"] < 30 * k
    assert tree["latency"] < 30 * k
    # The paper's protocols never fail on either workload.
    for name in ("NonAdaptiveWithK", "SublinearDecrease", "AdaptiveNoK"):
        for workload in ("static", "dynamic"):
            assert row_of(report, name, workload)["failures"] == 0
    # TDMA: perfect when aligned, broken when not (its k-latency is the
    # trivial optimum the anonymous model cannot reach).
    assert row_of(report, "TDMA", "static")["latency"] == k
    assert row_of(report, "TDMA", "dynamic(misaligned)")["failures"] > 0


def test_bench_aloha_log_factor_crossover(benchmark):
    """ALOHA(1/k)'s k log k tail overtakes the ladder's linear 3ck as k
    grows: the latency ratio must increase across the sweep."""
    ks = (128, 512, 2048)
    ratios = benchmark.pedantic(
        lambda: [aloha_vs_ladder_ratio(k, seed=1970 + i) for i, k in enumerate(ks)],
        rounds=1,
        iterations=1,
    )
    print("ALOHA/ladder latency ratios over k:", dict(zip(ks, ratios)))
    assert ratios[-1] > ratios[0]
