"""Experiment ``ext_global_clock`` — the Discussion section's conjecture.

"If the stations have access to a global clock and all stations get
acknowledgments of all transmissions, they can easily solve the contention
resolution problem with latency O(k)."  This experiment runs the
implemented sketch (:class:`~repro.core.protocols.global_clock.GlobalClockUFR`)
over a sweep of ``k`` and fits the scaling — empirical evidence for the
conjecture, and a reference point for the open question whether a global
clock helps when only the transmitter gets the ack.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.adversary.oblivious import (
    StaticSchedule,
    TwoWavesSchedule,
    UniformRandomSchedule,
)
from repro.analysis.scaling import NO_FIT, fit_all
from repro.core.protocols.global_clock import GlobalClockUFR
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

__all__ = ["run_global_clock"]


def run_global_clock(
    ks: Sequence[int] = (32, 64, 128, 256),
    *,
    q: float = 2.0,
    reps: int = 4,
    seed: int = 1999,
) -> ExperimentReport:
    """Latency/energy sweep of the global-clock UFR sketch."""
    pool = [
        StaticSchedule(),
        UniformRandomSchedule(span=lambda k: 2 * k),
        TwoWavesSchedule(delay=lambda k: 3 * k),
    ]
    cells = []
    for i, k in enumerate(ks):
        for j, adversary in enumerate(pool):
            first = config_seed(seed, i * len(pool) + j)
            spec = RunSpec(
                k=k,
                protocol=lambda: GlobalClockUFR(q),
                adversary=adversary,
                label=f"GlobalClockUFR@{adversary.name}",
            )
            cells.append(Cell.repeated(spec, first, reps))
    flat_samples = [fold_sample(runs) for runs in run_grid(cells)]
    rows = []
    worst_latencies = []
    for i, k in enumerate(ks):
        samples = flat_samples[i * len(pool) : (i + 1) * len(pool)]
        worst = worst_sample(samples, metric="latency_mean")
        row = worst.row()
        worst_latencies.append(row["latency_mean"])
        rows.append(
            {
                "k": k,
                "latency": row["latency_mean"],
                "latency_over_k": row["latency_mean"] / k,
                "energy_per_station": row["energy_per_station"],
                "failures": worst.failures,
            }
        )

    fit_line = NO_FIT
    if len(ks) > 1:
        fits = fit_all(list(ks), worst_latencies, models=("k", "k log k", "k log^2 k"))
        fit_line = (
            f"best fit: ~ {fits[0].constant:.3g} * {fits[0].model}"
            f" (rel. RMSE {fits[0].relative_rmse:.3f}); conjecture: O(k)"
        )
    table = render_table(
        ["k", "latency (worst pool)", "latency/k", "tx/station", "failures"],
        [[r["k"], r["latency"], r["latency_over_k"], r["energy_per_station"],
          r["failures"]] for r in rows],
    )
    text = "\n".join(
        [
            "== ext_global_clock: the Discussion section's O(k) conjecture ==",
            "(model extension: global clock + acknowledgements heard by all)",
            table,
            "",
            fit_line,
        ]
    )
    return ExperimentReport("ext_global_clock", "Global-clock conjecture", rows, text)
