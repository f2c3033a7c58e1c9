#!/usr/bin/env python3
"""The lower bound, step by step (Section 4 of the paper).

Theorem: no non-adaptive algorithm that ignores the contention size can
achieve latency o(k log k / (loglog k)^2) whp.  The proof constructs, for
any given universal probability schedule p(1), p(2), ..., an *oblivious*
wake-up instance that saturates the channel.  This demo walks through the
construction against the paper's own universal code:

1. the pump: wake gamma*log(k)/p(1) stations per round, so first-round
   transmissions alone push sigma_hat[t] above gamma*log k;
2. the spread: scatter the remaining k/2 stations over the blocked prefix
   so the pump persists (Lemma 4.6's Chernoff argument);
3. the kill: with sigma_hat pumped, each round's success probability is at
   most sigma_hat * e^(1 - sigma_hat) ~ k^-Theta(gamma) (Lemma 4.2) — no
   one transmits successfully in the whole prefix.

Run:  python examples/lower_bound_demo.py
"""

from __future__ import annotations

import math

import numpy as np

from repro import (
    RunSpec,
    StaggeredSchedule,
    SublinearDecrease,
    blocked_prefix_length,
    build_jk_instance,
    execute,
)
from repro.adversary.lower_bound import default_tau_small, pump_rate
from repro.analysis.sigma import sigma_hat_trace, success_probability_bound
from repro.util.ascii_chart import line_chart

K = 2048
SEED = 1606


def main() -> None:
    schedule = SublinearDecrease(b=4)
    p1 = schedule.probability(1)
    print(f"Target algorithm: {schedule.name}, p(1) = ln(3)/3 = {p1:.4f}")

    rate = pump_rate(K, p1)
    prefix = blocked_prefix_length(K)
    print(f"Pump rate: {rate} stations/round  (gamma log2 k / p(1))")
    print(f"Blocked prefix: {prefix} rounds  (c* k log k / (loglog k)^2)\n")

    tau_small = min(default_tau_small(schedule, K), 4 * K)
    instance = build_jk_instance(K, p1, tau_small=tau_small, seed=SEED)
    wake = instance.wake_rounds(K, np.random.default_rng(SEED))

    # Step 1+2: the pumped probability sum.
    trace = sigma_hat_trace(wake, schedule, prefix)
    threshold = math.log2(K)
    stride = max(1, prefix // 64)
    print(
        line_chart(
            list(range(1, prefix + 1, stride)),
            {
                "sigma_hat[t]": trace[::stride].tolist(),
                "log2(k)": [threshold] * len(trace[::stride]),
            },
            title="The pump: probability sum across the blocked prefix",
        )
    )
    saturated = float(np.mean(trace >= threshold))
    print(f"\nfraction of prefix rounds with sigma_hat >= log2 k: {saturated:.3f}")

    # Step 3: the kill.
    worst = success_probability_bound(float(trace.min()))
    print(
        f"per-round success probability ceiling at the *least* pumped round: "
        f"{worst:.2e}"
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
    print(f"successes inside the prefix under J(k): {blocked.success_count}")

    benign = execute(
        RunSpec(
            k=K,
            protocol=schedule,
            adversary=StaggeredSchedule(gap=6),
            max_rounds=prefix,
            seed=SEED,
        ),
        engine="vectorized",
    )
    print(f"successes under a benign trickle over the same prefix: "
          f"{benign.success_count}")
    print(
        "\nThe construction is oblivious: the wake rounds above were fixed"
        "\nbefore the execution, knowing only the code of the algorithm."
    )


if __name__ == "__main__":
    main()
