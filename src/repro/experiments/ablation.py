"""Experiment ``ablation_constants`` — sensitivity to the protocol constants.

Every theorem in the paper quantifies over a constant ("for a sufficiently
large c/b/q ..."): larger constants buy success probability with time and
energy.  The ablation sweeps each constant at a fixed ``k`` and reports
latency, energy and failure rate, making the theorem's trade-off concrete:

* ``c`` of ``NonAdaptiveWithK`` — Theorem 3.1 needs
  ``eta <= (c-8)^2/(32c) + 4``; small ``c`` visibly fails.
* ``b`` of ``SublinearDecrease`` — Theorem ``t:full-2`` needs ``b`` large;
  the failure probability decays like ``k^(-b/16)``.
* ``q`` of ``DecreaseSlowly`` — the wake-up failure decays like
  ``(2k)^(-q/2)``.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.adversary.oblivious import UniformRandomSchedule
from repro.channel.results import StopCondition
from repro.core.protocols.decrease_slowly import DecreaseSlowly
from repro.core.protocols.non_adaptive_with_k import NonAdaptiveWithK
from repro.core.protocols.sublinear_decrease import SublinearDecrease
from repro.core.spec import RunSpec
from repro.experiments.harness import Cell, ExperimentReport, fold_sample, run_grid
from repro.util.ascii_chart import render_table

__all__ = ["run_ablation"]


def run_ablation(
    k: int = 256,
    *,
    cs: Sequence[int] = (1, 2, 4, 6, 10),
    bs: Sequence[int] = (1, 2, 4, 8),
    qs: Sequence[float] = (0.5, 1.0, 2.0, 4.0),
    reps: int = 10,
    seed: int = 8086,
) -> ExperimentReport:
    """Sweep each protocol constant at fixed ``k``."""
    adversary = UniformRandomSchedule(span=lambda kk: 2 * kk)

    configs = [
        ("NonAdaptiveWithK", f"c={c}", "latency_mean", Cell.repeated(RunSpec(
            k=k, protocol=NonAdaptiveWithK(k, c), adversary=adversary,
            max_rounds=3 * c * k + 3 * k + 4096,
        ), seed, reps))
        for c in cs
    ] + [
        ("SublinearDecrease", f"b={b}", "latency_mean", Cell.repeated(RunSpec(
            k=k, protocol=SublinearDecrease(b), adversary=adversary,
            max_rounds=int(
                1.5 * SublinearDecrease.latency_bound_with_ack(k, max(b, 1))
            ) + 3 * k + 4096,
        ), seed + 101, reps))
        for b in bs
    ] + [
        ("DecreaseSlowly(wakeup)", f"q={q}", "first_success_mean",
         Cell.repeated(RunSpec(
             k=k, protocol=DecreaseSlowly(q), adversary=adversary,
             max_rounds=int(64 * max(q, 1.0) * k) + 4096,
             stop=StopCondition.FIRST_SUCCESS,
         ), seed + 202, reps))
        for q in qs
    ]
    grid = run_grid(cell for *_, cell in configs)
    rows = []
    for (protocol, constant, metric, _), runs in zip(configs, grid):
        sample = fold_sample(runs)
        r = sample.row()
        rows.append({
            "protocol": protocol, "constant": constant,
            "latency": r[metric], "energy": r["energy_mean"],
            "incomplete_runs": sample.failures, "runs": sample.runs,
        })

    table = render_table(
        ["protocol", "constant", "latency", "energy", "incomplete", "runs"],
        [[r["protocol"], r["constant"], r["latency"], r["energy"],
          r["incomplete_runs"], r["runs"]] for r in rows],
    )
    text = "\n".join(
        [
            f"== ablation_constants at k={k} ==",
            table,
            "",
            "Larger constants trade time/energy for reliability, exactly as",
            "the theorems' 'for sufficiently large ...' quantifiers promise.",
        ]
    )
    return ExperimentReport("ablation_constants", "Constant ablation", rows, text)
