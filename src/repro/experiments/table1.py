"""Experiments ``table1_latency`` and ``table1_energy``.

Empirical reproduction of the bold rows of the paper's Table 1 (the
summary-of-results table): latency and energy of

* row A — ``NonAdaptiveWithK``  (non-adaptive, k known):    O(k), O(k log k)
* row B — ``SublinearDecrease`` (non-adaptive, k unknown):  O(k log^2 k / loglog k) with acks
  (and O(k log^2 k) without), energy O(k log^2 k)
* row D — ``AdaptiveNoK``       (adaptive, k unknown):      O(k), O(k log^2 k)

Each protocol runs over a geometric sweep of ``k`` against a pool of
adversarial wake schedules; the reported value per ``k`` is the worst mean
over the pool (the empirical analogue of the worst-case quantifier).  A
scaling fit then selects the growth model, which must match the bound.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from repro.adversary.oblivious import (
    StaggeredSchedule,
    StaticSchedule,
    TwoWavesSchedule,
    UniformRandomSchedule,
)
from repro.analysis.metrics import MetricSample
from repro.analysis.scaling import NO_FIT, fit_all
from repro.channel.results import StopCondition
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
from repro.util.ascii_chart import log_log_chart, render_table

__all__ = ["run_table1_latency", "run_table1_energy", "oblivious_pool"]


def oblivious_pool():
    """The adversarial wake-schedule pool used for Table 1 sweeps."""
    return [
        StaticSchedule(),
        UniformRandomSchedule(span=lambda k: 2 * k),
        StaggeredSchedule(gap=2),
        TwoWavesSchedule(delay=lambda k: 3 * k),
    ]


def _known_k_rounds(k: int) -> int:
    # Schedule horizon 3ck (c = 6) plus the widest pool wake span plus slack.
    return 3 * 6 * k + 3 * k + 4096


def _sublinear_rounds_factory(b: int, with_ack: bool):
    def rounds(k: int) -> int:
        if with_ack:
            bound = SublinearDecrease.latency_bound_with_ack(k, b)
        else:
            bound = SublinearDecrease.latency_bound_no_ack(k, b)
        return int(1.5 * bound) + 3 * k + 4096

    return rounds


def _adaptive_rounds(k: int) -> int:
    return 120 * k + 8192


def _sweep_worst(
    ks: Sequence[int],
    spec_for,
    *,
    reps: int,
    seed: int,
    metric: str,
) -> list[MetricSample]:
    """Run ``spec_for(k, adversary)`` over the pool; keep the worst per ``k``.

    One grid cell per (sweep point, adversary) pair; seed offsets are
    spaced by ``SEED_STRIDE`` so no two (k, adversary) configurations can
    ever share a repetition seed.
    """
    pool = oblivious_pool()
    cells = []
    for i, k in enumerate(ks):
        for j, adversary in enumerate(pool):
            first = seed + config_seed(0, i * len(pool) + j)
            cells.append(Cell.repeated(spec_for(k, adversary), first, reps))
    samples = [fold_sample(runs) for runs in run_grid(cells)]
    return [
        worst_sample(samples[i * len(pool) : (i + 1) * len(pool)], metric=metric)
        for i in range(len(ks))
    ]


def _known_k_spec(c: int):
    return lambda k, adversary: RunSpec(
        k=k, protocol=NonAdaptiveWithK(k, c), adversary=adversary,
        max_rounds=_known_k_rounds(k), label="NonAdaptiveWithK",
    )


def _sublinear_spec(b: int, *, with_ack: bool, label: str):
    rounds = _sublinear_rounds_factory(b, with_ack=with_ack)
    return lambda k, adversary: RunSpec(
        k=k, protocol=SublinearDecrease(b), adversary=adversary,
        max_rounds=rounds(k), switch_off_on_ack=with_ack,
        stop=(StopCondition.ALL_SWITCHED_OFF if with_ack
              else StopCondition.ALL_SUCCEEDED),
        label=label,
    )


def _adaptive_spec(k: int, adversary) -> RunSpec:
    return RunSpec(
        k=k, protocol=lambda: AdaptiveNoK(), adversary=adversary,
        max_rounds=_adaptive_rounds(k), label="AdaptiveNoK",
    )


def _protocol_rows(ks, samples_by_protocol, value_key):
    rows = []
    for k_index, k in enumerate(ks):
        row = {"k": k}
        for name, samples in samples_by_protocol.items():
            row[name] = samples[k_index].row()[value_key]
        rows.append(row)
    return rows


def run_table1_latency(
    ks: Sequence[int] = (32, 64, 128, 256, 512),
    *,
    reps: int = 5,
    seed: int = 2017,
    b: int = 4,
    c: int = 6,
    include_adaptive: bool = True,
) -> ExperimentReport:
    """Regenerate Table 1's latency column (rows A, B, D)."""
    samples: dict[str, list[MetricSample]] = {}

    samples["NonAdaptiveWithK"] = _sweep_worst(
        ks, _known_k_spec(c), reps=reps, seed=seed, metric="latency_mean",
    )
    samples["SublinearDecrease(ack)"] = _sweep_worst(
        ks, _sublinear_spec(b, with_ack=True, label="SublinearDecrease(ack)"),
        reps=reps, seed=seed + 31, metric="latency_mean",
    )
    samples["SublinearDecrease(no-ack)"] = _sweep_worst(
        ks,
        _sublinear_spec(b, with_ack=False, label="SublinearDecrease(no-ack)"),
        reps=reps, seed=seed + 61, metric="latency_mean",
    )
    if include_adaptive:
        samples["AdaptiveNoK"] = _sweep_worst(
            ks, _adaptive_spec, reps=max(2, reps // 2), seed=seed + 97,
            metric="latency_mean",
        )

    rows = _protocol_rows(ks, samples, "latency_mean")
    headers = ["k"] + list(samples)
    table = render_table(headers, [[row[h] for h in headers] for row in rows])

    fits_text = [] if len(ks) > 1 else [NO_FIT]
    for name, protocol_samples in samples.items() if len(ks) > 1 else ():
        values = [s.row()["latency_mean"] for s in protocol_samples]
        fits = fit_all(list(ks), values)
        fits_text.append(
            f"{name}: best fit ~ {fits[0].constant:.3g} * {fits[0].model}"
            f" (rel. RMSE {fits[0].relative_rmse:.3f});"
            f" runner-up {fits[1].model} ({fits[1].relative_rmse:.3f})"
        )

    chart = log_log_chart(
        [float(k) for k in ks],
        {name: [s.row()["latency_mean"] for s in protocol_samples]
         for name, protocol_samples in samples.items()},
        title="Table 1 latency (worst over adversary pool)",
    )
    text = "\n".join(
        [
            "== table1_latency: latency vs k, worst over adversary pool ==",
            table,
            "",
            chart,
            "",
            "Scaling fits (paper: A and D linear; B superlinear by polylog):",
            *fits_text,
        ]
    )
    return ExperimentReport("table1_latency", "Table 1 latency column", rows, text)


def run_table1_energy(
    ks: Sequence[int] = (32, 64, 128, 256, 512),
    *,
    reps: int = 5,
    seed: int = 4034,
    b: int = 4,
    c: int = 6,
    include_adaptive: bool = True,
) -> ExperimentReport:
    """Regenerate Table 1's energy column (total broadcast attempts)."""
    samples: dict[str, list[MetricSample]] = {}

    samples["NonAdaptiveWithK"] = _sweep_worst(
        ks, _known_k_spec(c), reps=reps, seed=seed, metric="energy_mean",
    )
    samples["SublinearDecrease(ack)"] = _sweep_worst(
        ks, _sublinear_spec(b, with_ack=True, label="SublinearDecrease(ack)"),
        reps=reps, seed=seed + 31, metric="energy_mean",
    )
    if include_adaptive:
        samples["AdaptiveNoK"] = _sweep_worst(
            ks, _adaptive_spec, reps=max(2, reps // 2), seed=seed + 97,
            metric="energy_mean",
        )

    rows = _protocol_rows(ks, samples, "energy_mean")
    headers = ["k"] + list(samples)
    table = render_table(headers, [[row[h] for h in headers] for row in rows])

    fits_text = [] if len(ks) > 1 else [NO_FIT]
    expected = {
        "NonAdaptiveWithK": "k log k",
        "SublinearDecrease(ack)": "k log^2 k",
        "AdaptiveNoK": "k log^2 k",
    }
    for name, protocol_samples in samples.items() if len(ks) > 1 else ():
        values = [s.row()["energy_mean"] for s in protocol_samples]
        fits = fit_all(list(ks), values)
        fits_text.append(
            f"{name}: best fit ~ {fits[0].constant:.3g} * {fits[0].model}"
            f" (rel. RMSE {fits[0].relative_rmse:.3f}); paper bound {expected[name]}"
        )

    per_station = render_table(
        ["k"] + [f"{name} tx/station" for name in samples],
        [
            [k] + [samples[name][i].row()["energy_per_station"] for name in samples]
            for i, k in enumerate(ks)
        ],
    )
    text = "\n".join(
        [
            "== table1_energy: total broadcast attempts vs k ==",
            table,
            "",
            "Per-station transmissions (paper: O(log k) / O(log^2 k)):",
            per_station,
            "",
            "Scaling fits:",
            *fits_text,
        ]
    )
    return ExperimentReport("table1_energy", "Table 1 energy column", rows, text)


def theoretical_energy_note(k: int, c: int = 6) -> str:
    """Cross-check string: Theorem 3.2's per-station expectation."""
    return (
        f"NonAdaptiveWithK expectation at k={k}: "
        f"{NonAdaptiveWithK.expected_energy_per_station(k, c):.1f} tx/station "
        f"(= c/2 per level + (c/2) log2 k at the last level); "
        f"log2(k) = {math.log2(k):.1f}"
    )
