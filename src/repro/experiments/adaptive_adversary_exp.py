"""Experiment ``adaptive_adversary_check`` — "even against an adaptive
adversary", verified.

Every upper-bound theorem in the paper closes with "the result holds even
against an adaptive adversary".  The Table 1 sweeps use the oblivious pool
(they run on the vectorised engine); this experiment closes the gap by
running all three paper protocols under the *online* adversary pool, at a
moderate ``k``, and comparing against each protocol's worst oblivious
figure.  The paper predicts: no blow-up — the adaptive adversary buys at
most constants.

The adversary pool's machines are all lowerable
(``repro.engine.compile.compile_adversary``), so since PR 9 these runs
auto-route to the compiled stepper (batched, tiled, ``--jobs``-sharded)
instead of the per-round object loop — byte-identically.
"""

from __future__ import annotations

from repro.adversary.adaptive import (
    AntiLeaderAdversary,
    BurstOnQuietAdversary,
    DripFeedAdversary,
    WakeOnSuccessAdversary,
)
from repro.adversary.oblivious import StaticSchedule, UniformRandomSchedule
from repro.core.protocol import ScheduleProtocol
from repro.core.protocols.adaptive_no_k import AdaptiveNoK
from repro.core.protocols.non_adaptive_with_k import NonAdaptiveWithK
from repro.core.protocols.sublinear_decrease import SublinearDecrease
from repro.core.spec import RunSpec
from repro.experiments.harness import (
    Cell,
    ExperimentReport,
    fold_sample,
    run_grid,
    worst_sample,
)
from repro.util.ascii_chart import render_table

__all__ = ["run_adaptive_adversary_check"]


def run_adaptive_adversary_check(
    k: int = 96,
    *,
    reps: int = 3,
    c: int = 6,
    b: int = 4,
    seed: int = 2222,
) -> ExperimentReport:
    """Worst adaptive-pool latency vs worst oblivious-pool latency."""
    adaptive_pool = [
        BurstOnQuietAdversary(burst=8, quiet=16),
        WakeOnSuccessAdversary(seed_group=4, refill=2),
        AntiLeaderAdversary(flood=8),
        DripFeedAdversary(interval=3),
    ]
    oblivious_pool = [
        StaticSchedule(),
        UniformRandomSchedule(span=lambda kk: 2 * kk),
    ]

    def horizon_for(name, kk):
        if name == "SublinearDecrease":
            return int(1.5 * SublinearDecrease.latency_bound_no_ack(kk, b)) + 8192
        return 800 * kk + 8192

    configs = [
        ("NonAdaptiveWithK", lambda: ScheduleProtocol(NonAdaptiveWithK(k, c))),
        ("SublinearDecrease", lambda: ScheduleProtocol(SublinearDecrease(b))),
        ("AdaptiveNoK", lambda: AdaptiveNoK()),
    ]
    by_name = (("adaptive", adaptive_pool), ("oblivious", oblivious_pool))
    cells = [
        Cell.repeated(
            RunSpec(k=k, protocol=factory, adversary=adversary,
                    max_rounds=horizon_for(name, k),
                    label=f"{name}@{adversary.name}"),
            seed + 100 * j, reps,
        )
        for name, factory in configs
        for _, pool in by_name
        for j, adversary in enumerate(pool)
    ]
    samples = iter(fold_sample(runs) for runs in run_grid(cells))
    rows = []
    for name, _ in configs:
        pools = {}
        for pool_name, pool in by_name:
            pooled = [next(samples) for _ in pool]
            worst = worst_sample(pooled, metric="latency_mean")
            pools[pool_name] = {
                "latency": worst.row()["latency_mean"],
                "failures": sum(s.failures for s in pooled),
                "runs": sum(s.runs for s in pooled),
                "worst_adversary": worst.label.split("@", 1)[-1],
            }
        rows.append(
            {
                "protocol": name,
                "adaptive_latency": pools["adaptive"]["latency"],
                "adaptive_worst": pools["adaptive"]["worst_adversary"],
                "oblivious_latency": pools["oblivious"]["latency"],
                "ratio": pools["adaptive"]["latency"]
                / pools["oblivious"]["latency"],
                "failures": pools["adaptive"]["failures"]
                + pools["oblivious"]["failures"],
                "runs": pools["adaptive"]["runs"] + pools["oblivious"]["runs"],
            }
        )

    table = render_table(
        ["protocol", "worst adaptive", "via", "worst oblivious",
         "adaptive/oblivious", "failures", "runs"],
        [[r["protocol"], r["adaptive_latency"], r["adaptive_worst"],
          r["oblivious_latency"], r["ratio"], r["failures"], r["runs"]]
         for r in rows],
    )
    text = "\n".join(
        [
            f"== adaptive_adversary_check at k={k}: the 'even against an"
            f" adaptive adversary' clauses ==",
            table,
            "",
            "Paper prediction: the online pool costs at most a constant"
            " over the oblivious pool for every protocol (all theorems'"
            " closing sentences).  Any blow-up or failure here would"
            " falsify an adaptive-adversary clause.",
        ]
    )
    return ExperimentReport(
        "adaptive_adversary_check", "Adaptive-adversary clauses", rows, text
    )
