"""Experiment ``table1_cd_row`` — the table's first dynamic row.

Table 1 row "dynamic / CD / adaptive, k unknown" cites Bender et al.
[Bend-16]: latency ``O(k)`` whp with collision detection.  We reproduce
the row with the classical MIMD contention estimator
(:class:`~repro.baselines.cd_adaptive.CdAimdProtocol`) and put it next to
the paper's **CD-free** ``AdaptiveNoK`` — the comparison the paper itself
makes: "our adaptive algorithm exhibits the same optimal performance on
latency even in the more severe setting without collision detection."

``CdAimdProtocol`` lowers to a finite window-lattice walk over the
compiled stepper's ternary CD symbol columns, so since PR 9 both sides
of this row run on the fast path (batched, tiled, ``--jobs``-sharded)
instead of the per-round object loop — byte-identically.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.adversary.oblivious import StaticSchedule, UniformRandomSchedule
from repro.analysis.scaling import NO_FIT, fit_all
from repro.baselines.cd_adaptive import CdAimdProtocol
from repro.channel.feedback import FeedbackModel
from repro.core.protocols.adaptive_no_k import AdaptiveNoK
from repro.core.spec import RunSpec
from repro.experiments.harness import (
    Cell,
    ExperimentReport,
    config_seed,
    fold_sample,
    run_grid,
    worst_sample,
)
from repro.util.ascii_chart import render_table

__all__ = ["run_cd_row"]


def run_cd_row(
    ks: Sequence[int] = (32, 64, 128, 256),
    *,
    reps: int = 4,
    seed: int = 2016,
) -> ExperimentReport:
    """CD-AIMD vs the CD-free AdaptiveNoK over a sweep of ``k``."""
    pool = [StaticSchedule(), UniformRandomSchedule(span=lambda k: 2 * k)]
    rows = []
    cd_latencies, nocd_latencies = [], []
    # Interleaved configuration slots: even indices CD, odd indices no-CD,
    # SEED_STRIDE-spaced so no two configurations share repetition seeds.
    cd_cells, nocd_cells = [], []
    for i, k in enumerate(ks):
        for j, adversary in enumerate(pool):
            slot = 2 * (i * len(pool) + j)
            cd_seed, nocd_seed = config_seed(seed, slot), config_seed(seed, slot + 1)
            cd_cells.append(Cell.repeated(
                RunSpec(k=k, protocol=lambda: CdAimdProtocol(), adversary=adversary,
                        feedback=FeedbackModel.COLLISION_DETECTION, label="CdAimd"),
                cd_seed, reps,
            ))
            nocd_cells.append(Cell.repeated(
                RunSpec(k=k, protocol=lambda: AdaptiveNoK(), adversary=adversary,
                        label="AdaptiveNoK"),
                nocd_seed, max(2, reps // 2),
            ))
    flat = [fold_sample(runs) for runs in run_grid(cd_cells + nocd_cells)]
    cd_flat, nocd_flat = flat[: len(cd_cells)], flat[len(cd_cells) :]
    for i, k in enumerate(ks):
        cd_samples = cd_flat[i * len(pool) : (i + 1) * len(pool)]
        nocd_samples = nocd_flat[i * len(pool) : (i + 1) * len(pool)]
        cd = worst_sample(cd_samples, metric="latency_mean").row()
        nocd = worst_sample(nocd_samples, metric="latency_mean").row()
        cd_latencies.append(cd["latency_mean"])
        nocd_latencies.append(nocd["latency_mean"])
        rows.append(
            {
                "k": k,
                "cd_latency": cd["latency_mean"],
                "cd_latency_over_k": cd["latency_mean"] / k,
                "nocd_latency": nocd["latency_mean"],
                "nocd_latency_over_k": nocd["latency_mean"] / k,
                "constant_gap": nocd["latency_mean"] / cd["latency_mean"],
            }
        )

    fit_line = NO_FIT
    if len(ks) > 1:
        cd_fit = fit_all(list(ks), cd_latencies, models=("k", "k log k"))[0]
        nocd_fit = fit_all(list(ks), nocd_latencies, models=("k", "k log k"))[0]
        fit_line = (
            f"CD-AIMD fit: ~ {cd_fit.constant:.3g} * {cd_fit.model};"
            f" AdaptiveNoK fit: ~ {nocd_fit.constant:.3g} * {nocd_fit.model}."
        )
    table = render_table(
        ["k", "CD-AIMD latency", "/k", "AdaptiveNoK latency", "/k", "gap"],
        [[r["k"], r["cd_latency"], r["cd_latency_over_k"], r["nocd_latency"],
          r["nocd_latency_over_k"], r["constant_gap"]] for r in rows],
    )
    text = "\n".join(
        [
            "== table1_cd_row: collision detection vs the paper's CD-free"
            " adaptive protocol ==",
            table,
            "",
            fit_line,
            "Both linear — the paper's point: dropping collision detection"
            " costs only a constant factor, not the asymptotics.",
        ]
    )
    return ExperimentReport("table1_cd_row", "Table 1 CD row", rows, text)
