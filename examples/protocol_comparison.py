#!/usr/bin/env python3
"""Protocol comparison: the paper's algorithms vs the classical baselines.

Runs everything — ALOHA, exponential/polynomial back-off, the CD splitting
tree, TDMA and the paper's three protocols — on a common dynamic workload,
then sweeps k to show the scaling shapes (who is linear, who pays logs).

Run:  python examples/protocol_comparison.py
"""

from __future__ import annotations

from repro import (
    AdaptiveNoK,
    FeedbackModel,
    NonAdaptiveWithK,
    RunSpec,
    SlotSimulator,
    SublinearDecrease,
    UniformRandomSchedule,
    execute,
)
from repro.analysis.scaling import best_model
from repro.baselines import (
    BinaryExponentialBackoff,
    SlottedAlohaKnownK,
    SplittingTree,
)
from repro.util.ascii_chart import log_log_chart, render_table

SEED = 31
ADVERSARY = UniformRandomSchedule(span=lambda k: 2 * k)


def measure(k: int) -> dict[str, float]:
    out = {}
    out["NonAdaptiveWithK"] = execute(
        RunSpec(
            k=k,
            protocol=NonAdaptiveWithK(k, 6),
            adversary=ADVERSARY,
            max_rounds=30 * k,
            seed=SEED,
        ),
        engine="vectorized",
    ).max_latency
    out["SublinearDecrease"] = execute(
        RunSpec(
            k=k,
            protocol=SublinearDecrease(4),
            adversary=ADVERSARY,
            max_rounds=SublinearDecrease.latency_bound_with_ack(k, 4) + 4 * k,
            seed=SEED,
        ),
        engine="vectorized",
    ).max_latency
    out["Aloha(1/k)"] = execute(
        RunSpec(
            k=k,
            protocol=SlottedAlohaKnownK(k),
            adversary=ADVERSARY,
            max_rounds=600 * k,
            seed=SEED,
        ),
        engine="vectorized",
    ).max_latency
    out["AdaptiveNoK"] = SlotSimulator(
        k, lambda: AdaptiveNoK(), ADVERSARY, max_rounds=120 * k, seed=SEED
    ).run().max_latency
    out["BEB"] = SlotSimulator(
        k, lambda: BinaryExponentialBackoff(), ADVERSARY,
        max_rounds=600 * k, seed=SEED,
    ).run().max_latency
    out["SplittingTree(CD)"] = SlotSimulator(
        k, lambda: SplittingTree(), ADVERSARY,
        feedback=FeedbackModel.COLLISION_DETECTION,
        max_rounds=600 * k, seed=SEED,
    ).run().max_latency
    return out


def main() -> None:
    ks = [32, 64, 128, 256]
    sweeps: dict[str, list[float]] = {}
    for k in ks:
        for name, latency in measure(k).items():
            sweeps.setdefault(name, []).append(latency)

    rows = [[k] + [sweeps[name][i] for name in sweeps] for i, k in enumerate(ks)]
    print("Latency by protocol (dynamic workload, no CD unless noted):\n")
    print(render_table(["k"] + list(sweeps), rows))

    print()
    print(log_log_chart([float(k) for k in ks], sweeps,
                        title="Latency scaling (straight line = power law)"))

    print("\nFitted growth models:")
    for name, values in sweeps.items():
        fit = best_model(ks, values)
        print(f"  {name:22s} ~ {fit.constant:8.3g} * {fit.model}")

    print(
        "\nReading: the paper's known-k ladder and adaptive protocol match"
        "\nthe collision-detection splitting tree's linear shape without CD;"
        "\nALOHA pays its log-factor coupon-collector tail; the universal"
        "\ncode pays the provable polylog penalty of k-obliviousness."
    )


if __name__ == "__main__":
    main()
