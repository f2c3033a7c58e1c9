"""Experiment harness: one runner for every repetition a driver makes.

A driver describes its work as a *grid* of :class:`Cell` s — each a base
:class:`~repro.core.spec.RunSpec` plus the explicit seeds to run it with —
and hands the whole grid to :func:`run_grid`, which returns every cell's
results (with per-run wall seconds and retry counts) in seed order.
:func:`fold_sample` turns one cell's runs into a
:class:`~repro.analysis.metrics.MetricSample`; drivers that analyse
per-station records themselves read ``CellRuns.results`` directly.
Engine choice stays a property of the spec: :func:`repro.engine.execute`
picks the engine per run (or whatever the process default says, so
``--engine cross-check`` shadows every run with the reference engine).

Seeding contract
----------------

All experiment drivers in this package are deterministic functions of their
``seed`` argument, and every run seed is spelled out in the driver's grid.
Sweeps use ``config_seed(seed, i) + r = seed + i * SEED_STRIDE + r`` for
repetition ``r`` of configuration ``i``, so any reported number can be
regenerated exactly from its run seed.  ``SEED_STRIDE`` is ``2**32``,
which keeps the per-configuration seed streams disjoint for any
repetition count below four billion (the historical ``seed + 1000*i + r``
scheme, which a few drivers keep for report stability, collides across
configurations whenever ``reps >= 1000``).

What the runner does for every cell
-----------------------------------

* **Faults** — the process-default fault model (the CLI's ``--noise`` /
  ``--ack-loss`` / ``--energy-budget``) is folded into every cell spec
  that carries none of its own, so any experiment runs on a degraded
  channel without changing its driver.
* **Tables** — schedule specs' probability tables are warmed in this
  process (the :mod:`repro.engine.cache` LRU) before any fork, so pool
  workers inherit them read-only instead of recomputing per repetition.
* **Batching and tiles** — consecutive runs of a fusable cell (vectorised-
  or compiled-admissible) are chunked into :func:`repro.engine.execute_batch`
  tasks of at most ``--batch-size`` runs, capped further by the active
  rep-tile cap (:func:`repro.engine.plan.tile_rep_cap`), so a tile is the
  fork-pool scheduling unit.  Results are byte-identical for every batch
  size and tiling.
* **Parallelism and failures** — the whole grid is one flat task bag for
  :class:`~repro.experiments.executor.RunExecutor`, which takes its
  worker count and failure policy from the process defaults (``--jobs``,
  ``--task-timeout``, ``--max-retries``).  Every seed is pre-assigned, so
  results are bit-identical for any worker count and a retried task
  reproduces the result a clean attempt would have.
* **Checkpoints** — under ``--resume <dir>`` (see
  :mod:`repro.experiments.checkpoint`) every completed run is journaled
  as soon as it is collected, keyed by ``(RunSpec.fingerprint(), seed)``,
  and journaled runs are folded from the journal instead of re-executed,
  so a resumed experiment reproduces its report byte for byte.  Specs with
  ``record_trace=True`` are never journaled: the journal drops traces.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from typing import Optional

from repro.analysis.metrics import MetricSample, collect
from repro.channel.results import RunResult
from repro.core.spec import RunSpec
from repro.engine.cache import probability_table
from repro.engine.dispatch import (
    compiled_inadmissibility,
    execute,
    execute_batch,
    vectorized_inadmissibility,
)
from repro.engine.plan import tile_rep_cap
from repro.experiments.checkpoint import current_checkpoint
from repro.experiments.executor import RunExecutor, resolve_batch_size
from repro.faults import current_faults
from repro.telemetry import registry as telemetry

__all__ = [
    "SEED_STRIDE",
    "config_seed",
    "run_seed",
    "ExperimentReport",
    "Cell",
    "CellRuns",
    "run_grid",
    "fold_sample",
    "worst_sample",
]

#: Seed spacing between experiment configurations.  Wide enough that the
#: per-configuration repetition streams ``[config_seed, config_seed + reps)``
#: can never overlap for any realistic repetition count.
SEED_STRIDE = 2**32


def config_seed(seed: int, index: int) -> int:
    """Base seed of configuration ``index`` in a sweep started at ``seed``."""
    return seed + index * SEED_STRIDE


def run_seed(seed: int, index: int, rep: int) -> int:
    """Exact seed of repetition ``rep`` of configuration ``index``.

    The regenerability guarantee: rerunning the simulator with this seed
    (and the configuration's other parameters) reproduces the run's
    ``MetricSample`` contribution bit-for-bit.
    """
    return config_seed(seed, index) + rep


@dataclass(slots=True)
class ExperimentReport:
    """What every experiment driver returns: printable text + raw rows.

    ``timings`` carries wall-clock capture: the registry's
    :func:`~repro.experiments.registry.run_experiment` records the driver's
    end-to-end duration (``wall_s``) and the worker count it ran with
    (``jobs``); drivers may add their own entries.
    """

    experiment_id: str
    title: str
    rows: list[dict[str, object]] = field(default_factory=list)
    text: str = ""
    notes: str = ""
    timings: dict[str, float] = field(default_factory=dict)

    def __str__(self) -> str:
        return self.text


@dataclass(frozen=True)
class Cell:
    """One grid cell: a base spec (its seed is ignored) and the run seeds."""

    spec: RunSpec
    seeds: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))

    @classmethod
    def repeated(cls, spec: RunSpec, seed: int, reps: int) -> "Cell":
        """``reps`` runs of ``spec`` at seeds ``seed, seed + 1, ...``."""
        return cls(spec, range(seed, seed + reps))


@dataclass(slots=True)
class CellRuns:
    """One cell's executed runs, aligned with its seeds.

    ``spec`` is the spec as run: the cell's, with the process-default fault
    model folded in.  ``seconds`` holds per-run wall-clock (a fused chunk's
    time split evenly; journaled runs keep their recorded time) and
    ``retries`` the executor re-submissions behind each run.
    """

    spec: RunSpec
    results: list[RunResult]
    seconds: list[float]
    retries: list[int]


def _apply_default_faults(base: RunSpec) -> RunSpec:
    """Fold the process-default fault model into a cell spec.

    A spec that already carries its own fault model wins (the robustness
    experiment sets per-cell models), and fifo traffic stays unfaulted
    (the queue simulator has no fault path).
    """
    default = current_faults()
    if default is None or base.faults is not None:
        return base
    if base.is_traffic_run and base.queue_discipline != "free":
        return base
    return base.replace(faults=default)


def _batch_fusable(spec: RunSpec) -> bool:
    """True when ``execute_batch`` can fuse repetitions of ``spec`` into a
    single kernel call — vectorised-admissible schedule runs or
    compiled-admissible protocol runs.  Other specs skip chunking so each
    run stays an independently retryable task."""
    return (
        vectorized_inadmissibility(spec) is None
        or compiled_inadmissibility(spec) is None
    )


def _run_task(spec: RunSpec) -> Callable[[], RunResult]:
    """One pre-seeded run.  Dispatch is deferred into the task so forked
    workers honour the process-default engine they inherited."""
    return lambda: execute(spec)


def _batch_task(spec: RunSpec, seeds: list[int]) -> Callable[[], list[RunResult]]:
    """One chunk of pre-seeded runs, fused at execution time if admissible."""
    return lambda: execute_batch(spec, seeds)


def run_grid(cells: Iterable[Cell]) -> list[CellRuns]:
    """Execute every cell's runs as one flat task bag; one
    :class:`CellRuns` per cell, in grid order.

    Runs already in the active checkpoint journal are folded from it, not
    re-executed.  The pending runs of a fusable cell are chunked into
    batches of up to ``min(batch size, rep-tile cap)`` (chunks never span
    cells); everything else is one task per run.  Fresh results are
    journaled the moment the executor collects them, so an interruption
    loses at most the in-flight runs.
    """
    cells = list(cells)
    journal = current_checkpoint()
    bases = [_apply_default_faults(cell.spec) for cell in cells]
    fingerprints: list[Optional[str]] = []
    for base in bases:
        if base.is_schedule_run:
            probability_table(base.schedule, base.resolve_horizon())
        keep = journal is not None and not base.record_trace
        fingerprints.append(base.fingerprint() if keep else None)

    out = [
        CellRuns(base, [None] * len(cell.seeds), [0.0] * len(cell.seeds),
                 [0] * len(cell.seeds))
        for base, cell in zip(bases, cells)
    ]
    size = resolve_batch_size(None)
    # (cell index, positions within the cell) per executor task.
    chunks: list[tuple[int, list[int]]] = []
    tasks: list[Callable[[], object]] = []
    for c, (base, cell) in enumerate(zip(bases, cells)):
        pending = []
        for i, seed in enumerate(cell.seeds):
            cached = (
                journal.get(fingerprints[c], seed)
                if fingerprints[c] is not None else None
            )
            if cached is None:
                pending.append(i)
            else:
                out[c].results[i], out[c].seconds[i] = cached
        cap = 1
        # Probe every cell, single runs included: a factory may count its
        # calls (tdma_factory hands out slots in call order), so skipping
        # the admissibility probe would shift that cell's results.
        if _batch_fusable(base) and size > 1 and len(pending) > 1:
            limit = tile_rep_cap(base)
            cap = size if limit is None else min(size, limit)
        for start in range(0, len(pending), cap):
            group = pending[start : start + cap]
            chunks.append((c, group))
            if len(group) == 1:
                tasks.append(_run_task(base.with_seed(cell.seeds[group[0]])))
            else:
                tasks.append(_batch_task(base, [cell.seeds[i] for i in group]))

    def record(j: int, result: object, secs: float) -> None:
        c, group = chunks[j]
        if fingerprints[c] is None:
            return
        runs = [result] if len(group) == 1 else result
        for i, run in zip(group, runs):
            journal.record(fingerprints[c], cells[c].seeds[i], run, secs / len(group))

    executor = RunExecutor()
    fresh = executor.map(tasks, on_result=record if journal is not None else None)
    for j, (c, group) in enumerate(chunks):
        runs = [fresh[j]] if len(group) == 1 else fresh[j]
        for i, run in zip(group, runs):
            out[c].results[i] = run
            out[c].seconds[i] = executor.last_task_seconds[j] / len(group)
            out[c].retries[i] = executor.last_retry_counts[j]
    return out


def fold_sample(runs: CellRuns) -> MetricSample:
    """One cell's runs as a :class:`MetricSample` labelled with the spec's
    :attr:`~repro.core.spec.RunSpec.display_label`."""
    with telemetry.span("harness.fold"):
        sample = collect(runs.spec.display_label, runs.spec.k, runs.results)
        sample.run_seconds.extend(runs.seconds)
        sample.run_retries.extend(runs.retries)
        telemetry.count("harness.runs_folded", len(runs.results))
        return sample


def worst_sample(samples: Iterable[MetricSample], metric: str = "latency_mean") -> MetricSample:
    """The worst (largest-``metric``) sample over an adversary pool.

    The paper's upper bounds quantify over *every* adversary strategy; the
    empirical analogue runs a pool of concrete strategies and reports the
    worst observed.

    Raises:
        ValueError: if ``samples`` is empty, or ``metric`` is absent (or
            NaN) in every sample's row — silently returning an arbitrary
            sample would let a typo'd metric name masquerade as a result.
    """
    samples = list(samples)
    if not samples:
        raise ValueError("worst_sample needs at least one sample")

    def value_of(sample: MetricSample) -> Optional[float]:
        value = sample.row().get(metric)
        if value is None or value != value:  # absent or NaN
            return None
        return float(value)

    values = [value_of(sample) for sample in samples]
    if all(value is None for value in values):
        known = ", ".join(sorted(samples[0].row()))
        raise ValueError(
            f"metric {metric!r} is absent or NaN in every sample; "
            f"row keys: {known}"
        )
    index = max(
        range(len(samples)),
        key=lambda i: float("-inf") if values[i] is None else values[i],
    )
    return samples[index]
