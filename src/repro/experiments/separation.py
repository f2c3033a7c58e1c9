"""Experiment ``sep_known_unknown`` — the paper's separation claim.

Section 1.1: *in the dynamic model there is a latency separation between
non-adaptive algorithms ignoring k and algorithms that either are adaptive
or know k* — unlike the static model, where non-adaptive k-oblivious
protocols are asymptotically optimal.

Measured as the ratio

    latency(SublinearDecrease) / latency(NonAdaptiveWithK)

over a sweep of ``k`` (worst over the adversary pool): the paper predicts
it grows ~``log^2 k / loglog k`` (within constants), while

    latency(AdaptiveNoK) / latency(NonAdaptiveWithK)

stays bounded.  As a static-model control, the same ratio is reported under
simultaneous starts, where the gap is expected to shrink (SublinearDecrease
still pays its ladder overhead, but the separation is specific to adversarial
asynchrony; the control documents how much of the gap is dynamic).
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from repro.adversary.oblivious import StaticSchedule
from repro.core.protocols.adaptive_no_k import AdaptiveNoK
from repro.core.protocols.non_adaptive_with_k import NonAdaptiveWithK
from repro.core.protocols.sublinear_decrease import SublinearDecrease
from repro.core.spec import RunSpec
from repro.experiments.harness import (
    Cell,
    ExperimentReport,
    config_seed,
    fold_sample,
    run_grid,
    worst_sample,
)
from repro.experiments.table1 import (
    _adaptive_rounds,
    _known_k_rounds,
    _sublinear_rounds_factory,
    oblivious_pool,
)
from repro.util.ascii_chart import render_table

__all__ = ["run_separation"]


def run_separation(
    ks: Sequence[int] = (32, 64, 128, 256, 512),
    *,
    reps: int = 5,
    b: int = 4,
    c: int = 6,
    seed: int = 77,
    include_adaptive: bool = True,
) -> ExperimentReport:
    """Latency ratios: unknown-k / known-k and adaptive / known-k."""
    sublinear_rounds = _sublinear_rounds_factory(b, with_ack=True)
    pool = oblivious_pool()
    adaptive_reps = max(2, reps // 2)
    cells = []
    for i, k in enumerate(ks):
        # Each sweep point owns 16 SEED_STRIDE-spaced configuration slots:
        # 0-3 known-k pool, 4-7 unknown-k pool, 8-11 adaptive pool,
        # 12-13 static controls.  No two configurations can share a
        # repetition seed, whatever ``reps`` is.
        base_seed = config_seed(seed, 16 * i)

        def known(adversary):
            return RunSpec(k=k, protocol=NonAdaptiveWithK(k, c), adversary=adversary,
                           max_rounds=_known_k_rounds(k))

        def unknown(adversary):
            return RunSpec(k=k, protocol=SublinearDecrease(b), adversary=adversary,
                           max_rounds=sublinear_rounds(k))

        def adaptive(adversary):
            return RunSpec(k=k, protocol=lambda: AdaptiveNoK(), adversary=adversary,
                           max_rounds=_adaptive_rounds(k))

        slots = [(known, 0, reps), (unknown, 4, reps)]
        if include_adaptive:
            slots.append((adaptive, 8, adaptive_reps))
        for spec_for, offset, n in slots:
            for j, adversary in enumerate(pool):
                first = config_seed(base_seed, offset + j)
                cells.append(Cell.repeated(spec_for(adversary), first, n))
        # Static-model control at the same k (simultaneous starts).
        for spec_for, slot in ((known, 12), (unknown, 13)):
            first = config_seed(base_seed, slot)
            cells.append(Cell.repeated(spec_for(StaticSchedule()), first, reps))

    samples = iter(fold_sample(runs) for runs in run_grid(cells))

    def worst_latency() -> float:
        pooled = [next(samples) for _ in pool]
        return worst_sample(pooled, metric="latency_mean").row()["latency_mean"]

    rows = []
    for k in ks:
        known_latency, unknown_latency = worst_latency(), worst_latency()
        row = {
            "k": k,
            "known_k": known_latency,
            "unknown_k": unknown_latency,
            "ratio_unknown/known": unknown_latency / known_latency,
            "log2^2(k)/loglog2(k)": math.log2(k) ** 2
            / max(1.0, math.log2(math.log2(k))),
        }
        if include_adaptive:
            adaptive_latency = worst_latency()
            row["adaptive"] = adaptive_latency
            row["ratio_adaptive/known"] = adaptive_latency / known_latency
        static_known = next(samples).row()["latency_mean"]
        static_unknown = next(samples).row()["latency_mean"]
        row["static_ratio"] = static_unknown / static_known
        rows.append(row)

    headers = ["k", "known_k", "unknown_k", "ratio_unknown/known", "static_ratio"]
    if include_adaptive:
        headers.insert(3, "adaptive")
        headers.append("ratio_adaptive/known")
    table = render_table(headers, [[r.get(h) for h in headers] for r in rows])
    growth = rows[-1]["ratio_unknown/known"] / rows[0]["ratio_unknown/known"]
    text = "\n".join(
        [
            "== sep_known_unknown: the dynamic-model separation ==",
            table,
            "",
            f"unknown/known latency ratio grows {growth:.2f}x from"
            f" k={ks[0]} to k={ks[-1]} (paper: grows ~log^2 k/loglog k;"
            f" adaptive/known stays bounded).",
        ]
    )
    return ExperimentReport("sep_known_unknown", "Separation claim", rows, text)
