#!/usr/bin/env python3
"""Adversarial workloads: how wake-up patterns shape protocol behaviour.

The paper's dynamic model hands the wake-up schedule to an adversary.
This example runs one protocol (the known-k ladder) against the whole
adversary gallery — oblivious schedules and online adaptive strategies —
and shows how latency and energy move, including the lower-bound
construction J(k) aimed at the *universal* code.

Run:  python examples/adversarial_workloads.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    AntiLeaderAdversary,
    BatchSchedule,
    BurstOnQuietAdversary,
    NonAdaptiveWithK,
    PoissonSchedule,
    RunSpec,
    SlotSimulator,
    StaggeredSchedule,
    StaticSchedule,
    SublinearDecrease,
    TwoWavesSchedule,
    UniformRandomSchedule,
    WakeOnSuccessAdversary,
    blocked_prefix_length,
    build_jk_instance,
    execute,
)
from repro.adversary.lower_bound import default_tau_small
from repro.core.protocol import ScheduleProtocol
from repro.util.ascii_chart import render_table

K = 192
SEED = 11


def run_oblivious(adversary):
    return execute(
        RunSpec(
            k=K,
            protocol=NonAdaptiveWithK(K, 6),
            adversary=adversary,
            max_rounds=40 * K,
            seed=SEED,
        ),
        engine="vectorized",
    )


def run_adaptive(adversary):
    return SlotSimulator(
        K,
        lambda: ScheduleProtocol(NonAdaptiveWithK(K, 6)),
        adversary,
        max_rounds=60 * K,
        seed=SEED,
    ).run()


def main() -> None:
    rows = []

    oblivious = [
        StaticSchedule(),
        UniformRandomSchedule(span=lambda k: 2 * k),
        StaggeredSchedule(gap=2),
        BatchSchedule(batch=16, gap=100),
        PoissonSchedule(rate=0.5),
        TwoWavesSchedule(delay=lambda k: 3 * k),
    ]
    for adversary in oblivious:
        result = run_oblivious(adversary)
        rows.append(
            [adversary.name, "oblivious", result.max_latency,
             result.total_transmissions, result.completed]
        )

    adaptive = [
        BurstOnQuietAdversary(burst=8, quiet=16),
        WakeOnSuccessAdversary(seed_group=4, refill=2),
        AntiLeaderAdversary(flood=8),
    ]
    for adversary in adaptive:
        result = run_adaptive(adversary)
        rows.append(
            [adversary.name, "adaptive", result.max_latency,
             result.total_transmissions, result.completed]
        )

    print(f"NonAdaptiveWithK(k={K}) across the adversary gallery:\n")
    print(render_table(
        ["adversary", "type", "latency", "energy", "completed"], rows
    ))

    # --- the lower-bound construction, aimed at the universal code -------
    print("\nLower-bound instance J(k) vs the universal code "
          "(SublinearDecrease):")
    schedule = SublinearDecrease(4)
    prefix = blocked_prefix_length(K)
    instance = build_jk_instance(
        K,
        schedule.probability(1),
        tau_small=min(default_tau_small(schedule, K), 4 * K),
        seed=SEED,
    )
    blocked = execute(
        RunSpec(
            k=K,
            protocol=schedule,
            adversary=instance,
            max_rounds=prefix,
            seed=SEED,
        ),
        engine="vectorized",
    )
    print(
        f"  blocked prefix = {prefix} rounds; successes inside it: "
        f"{blocked.success_count} (the pump of Lemma 4.6 silences the channel)"
    )

    # The same protocol under a gentle trickle delivers steadily.
    trickle = execute(
        RunSpec(
            k=K,
            protocol=schedule,
            adversary=StaggeredSchedule(gap=6),
            max_rounds=prefix,
            seed=SEED,
        ),
        engine="vectorized",
    )
    print(
        f"  same prefix under a benign trickle: {trickle.success_count} "
        f"successes"
    )


if __name__ == "__main__":
    main()
