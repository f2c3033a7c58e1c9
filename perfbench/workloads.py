"""The benchmark's workloads: the cells each one times, built from a seed.

A *cell* is one call into a public entry point of ``repro`` — one
experiment through the registry, or one configuration through
``execute`` / ``execute_batch``.  A workload's *unit* is its list of
cells run once; the worker times units, never part of one.

Why each workload exists (see ``perfbench/README.md`` for the metrics
each one is meant to move):

* ``quick_suite`` — what a user runs to regenerate the paper: every
  registered experiment at the suite's quick scale.  Tiny fused batches,
  so drivers, harness, dispatch and single-run engines dominate.
* ``schedule_sweep`` — probability schedules only: the vectorised engine
  (R=1 ``execute`` loops) and the batched kernel (one large-R
  ``execute_batch``) on the same configurations, one of them tiled.
* ``protocol_sweep`` — stateful protocols only: the compiled stepper and
  the object engine, sized so neither swamps the other.
* ``resume_suite`` — the fork pool and the checkpoint journal: a subset
  of quick-scale experiments written with ``jobs=2`` into a fresh journal,
  then resumed from it.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from collections.abc import Callable
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = ["Cell", "Journal", "WORKLOADS", "import_for", "build_cells", "warm_up"]

WORKLOADS = ("quick_suite", "schedule_sweep", "protocol_sweep", "resume_suite")

#: Quick-scale experiments the resume workload journals.  All are
#: harness-driven, so every run they make reaches the checkpoint journal
#: (drivers that loop over ``execute`` themselves bypass it).
RESUME_EXPERIMENTS = (
    "table1_latency",
    "table1_cd_row",
    "thm51_wakeup",
    "baseline_compare",
    "ablation_constants",
    "adaptive_adversary_check",
    "ext_global_clock",
    "traffic_phase",
    "robustness",
)


@dataclass
class Cell:
    """One timed call and what the checks need to know about it."""

    name: str
    call: Callable[[], object]
    kind: str  # "sweep", "experiment", "write" or "resume"
    spec: Optional[object] = None
    seeds: tuple[int, ...] = ()
    batch: bool = False
    experiment: str = ""
    memory_budget: Optional[int] = None


def import_for(workload: str) -> None:
    """Import what ``workload`` needs (the import half of its set-up)."""
    if workload in ("quick_suite", "resume_suite"):
        import repro.experiments.registry  # noqa: F401  (pulls in scipy)
        import repro.experiments.suite  # noqa: F401
    else:
        import repro.engine  # noqa: F401
        import repro.channel.validate  # noqa: F401


def _rng(workload: str, seed: int) -> np.random.Generator:
    tag = WORKLOADS.index(workload)
    return np.random.default_rng([0xBE_4C, tag, int(seed)])


def _named(factory: Callable, name: str) -> Callable:
    factory.protocol_name = name
    return factory


# ------------------------------------------------------------ quick_suite


def _quick_cells(seed: int) -> list[Cell]:
    import inspect

    from repro.experiments.registry import EXPERIMENTS, run_experiment
    from repro.experiments.suite import suite_overrides

    overrides = suite_overrides("quick")
    rng = _rng("quick_suite", seed)
    cells = []
    for experiment_id, driver in EXPERIMENTS.items():
        kwargs = dict(overrides.get(experiment_id, {}))
        # The workload seed reseeds every seeded driver except
        # estimate_robustness, which runs exactly as the quick suite runs
        # it: its crash is a known defect that ok_frac must keep showing.
        if (
            "seed" in inspect.signature(driver).parameters
            and experiment_id != "estimate_robustness"
        ):
            kwargs["seed"] = int(rng.integers(1, 2**31))
        cells.append(
            Cell(
                name=experiment_id,
                call=lambda e=experiment_id, kw=kwargs: run_experiment(
                    e, jobs=1, **kw
                ),
                kind="experiment",
                experiment=experiment_id,
            )
        )
    return cells


# --------------------------------------------------------- schedule_sweep


def _schedule_cells(seed: int) -> list[Cell]:
    from repro.adversary.oblivious import UniformRandomSchedule
    from repro.channel.results import StopCondition
    from repro.core.protocols.decrease_slowly import DecreaseSlowly
    from repro.core.protocols.non_adaptive_with_k import NonAdaptiveWithK
    from repro.core.protocols.sublinear_decrease import SublinearDecrease
    from repro.core.spec import RunSpec
    from repro.engine import estimate_rep_bytes, execute, execute_batch, use_tiling
    from repro.faults import AckLoss, FaultModel, SlotNoise

    rng = _rng("schedule_sweep", seed)
    wake = UniformRandomSchedule(span=lambda k: 2 * k)
    faults = FaultModel(noise=SlotNoise(0.05), ack_loss=AckLoss(0.02))

    def jam(k: int) -> tuple[int, ...]:
        horizon = 4 * k
        count = horizon // 20
        return tuple(int(r) for r in rng.choice(horizon, size=count, replace=False) + 1)

    nawk = ("NonAdaptiveWithK", StopCondition.ALL_SWITCHED_OFF)
    sublinear = ("SublinearDecrease", StopCondition.ALL_SWITCHED_OFF)
    slowly = ("DecreaseSlowly", StopCondition.FIRST_SUCCESS)
    protocols = {
        "NonAdaptiveWithK": NonAdaptiveWithK,
        "SublinearDecrease": lambda k: SublinearDecrease(),
        "DecreaseSlowly": lambda k: DecreaseSlowly(),
    }
    # (protocol, k, variant, R=1 loop length, batch reps).  The object
    # engine (the cross-check oracle) is too slow for contention
    # resolution at k=1024, so only wake-up runs there.
    configs = [
        (nawk, 64, "plain", 8, 128), (nawk, 256, "plain", 3, 32),
        (sublinear, 64, "plain", 4, 32),
        (slowly, 64, "plain", 8, 192), (slowly, 256, "plain", 3, 64),
        (slowly, 1024, "plain", 2, 24),
        (nawk, 64, "jam", 4, 64), (nawk, 64, "fault", 4, 64),
        (slowly, 256, "jam", 3, 48), (slowly, 256, "fault", 3, 24),
    ]
    cells = []
    for (label, stop), k, variant, loop, reps in configs:
        spec = RunSpec(
            k=k,
            protocol=protocols[label](k),
            adversary=wake,
            stop=stop,
            jam_rounds=jam(k) if variant == "jam" else None,
            faults=faults if variant == "fault" else None,
            seed=int(rng.integers(1, 2**31)),
        )
        name = f"{label}/k={k}/{variant}"
        # The R=1 loop runs a prefix of the batch's seeds, so one oracle
        # run checks both cells.
        batch_seeds = tuple(spec.seed + r for r in range(reps))
        loop_seeds = batch_seeds[:loop]
        cells.append(Cell(
            name=f"{name}/R=1",
            call=lambda s=spec, ss=loop_seeds: [execute(s.with_seed(x)) for x in ss],
            kind="sweep", spec=spec, seeds=loop_seeds,
        ))
        cells.append(Cell(
            name=f"{name}/R={reps}",
            call=lambda s=spec, ss=batch_seeds: execute_batch(s, ss),
            kind="sweep", spec=spec, seeds=batch_seeds, batch=True,
        ))

    # The k=256 batch again, streamed through memory-bounded tiles: a
    # budget of eight repetitions' estimated bytes splits it into >= 4.
    plain = cells[3]
    budget = 8 * estimate_rep_bytes(plain.spec)

    def tiled(s=plain.spec, ss=plain.seeds, b=budget):
        with use_tiling(memory_budget=b):
            return execute_batch(s, ss)

    cells.append(Cell(
        name=f"NonAdaptiveWithK/k=256/tiled/R={len(plain.seeds)}", call=tiled,
        kind="sweep", spec=plain.spec, seeds=plain.seeds, batch=True,
        memory_budget=budget,
    ))
    return cells


# --------------------------------------------------------- protocol_sweep


def _protocol_cells(seed: int) -> list[Cell]:
    from repro.adversary.adaptive import AntiLeaderAdversary, BurstOnQuietAdversary
    from repro.adversary.oblivious import PoissonArrivals, UniformRandomSchedule
    from repro.baselines.aloha import SlottedAlohaFixed
    from repro.baselines.backoff import BinaryExponentialBackoff
    from repro.baselines.cd_adaptive import CdAimdProtocol
    from repro.channel.feedback import FeedbackModel
    from repro.channel.jamming import RandomJammer
    from repro.core.protocols.adaptive_no_k import AdaptiveNoK
    from repro.core.protocols.global_clock import GlobalClockUFR
    from repro.core.protocols.suniform import SUniform
    from repro.core.spec import RunSpec
    from repro.engine import execute_batch
    from repro.faults import EnergyBudget, FaultModel

    rng = _rng("protocol_sweep", seed)
    wake = UniformRandomSchedule(span=lambda k: 2 * k)
    adaptive = _named(lambda: AdaptiveNoK(), "AdaptiveNoK")
    # (name, spec fields, reps)
    configs = [
        # compiled-admissible
        ("AdaptiveNoK/oblivious", dict(k=64, protocol=adaptive, adversary=wake,
                                       max_rounds=30 * 64), 32),
        ("AdaptiveNoK/burst-on-quiet", dict(k=48, protocol=adaptive,
                                            adversary=BurstOnQuietAdversary()), 24),
        ("AdaptiveNoK/anti-leader", dict(k=48, protocol=adaptive,
                                         adversary=AntiLeaderAdversary()), 32),
        ("CdAimd/collision-detection", dict(
            k=64, protocol=_named(lambda: CdAimdProtocol(), "CdAimd"),
            adversary=wake, feedback=FeedbackModel.COLLISION_DETECTION), 64),
        ("SUniform", dict(k=32, protocol=_named(lambda: SUniform(), "SUniform"),
                          adversary=wake), 48),
        ("GlobalClockUFR", dict(
            k=64, protocol=_named(lambda: GlobalClockUFR(), "GlobalClockUFR"),
            adversary=wake), 48),
        # object-engine only
        ("BEB", dict(k=24, protocol=_named(lambda: BinaryExponentialBackoff(), "BEB"),
                     adversary=wake), 64),
        ("AdaptiveNoK/energy-budget", dict(
            k=24, protocol=adaptive, adversary=wake,
            faults=FaultModel(energy_budget=EnergyBudget(400))), 24),
        ("AdaptiveNoK/random-jammer", dict(
            k=24, protocol=adaptive, adversary=wake, jammer=RandomJammer(0.1),
            max_rounds=600 * 24 + 8192), 24),
        ("Aloha/fifo-traffic", dict(
            k=8, protocol=SlottedAlohaFixed(0.1), adversary=None,
            arrivals=PoissonArrivals(rate=0.1), queue_discipline="fifo",
            max_rounds=2_000), 3),
    ]
    cells = []
    for name, fields, reps in configs:
        spec = RunSpec(seed=int(rng.integers(1, 2**31)), label=name, **fields)
        seeds = tuple(spec.seed + r for r in range(reps))
        cells.append(Cell(
            name=f"{name}/R={reps}",
            call=lambda s=spec, ss=seeds: execute_batch(s, ss),
            kind="sweep", spec=spec, seeds=seeds, batch=True,
        ))
    return cells


# ----------------------------------------------------------- resume_suite


class Journal:
    """The resume workload's journal directory: a fresh one per unit."""

    def __init__(self, state_dir: str):
        self.state_dir = state_dir
        self.path: Optional[str] = None

    def fresh(self) -> str:
        self.remove()
        os.makedirs(self.state_dir, exist_ok=True)
        self.path = tempfile.mkdtemp(prefix="journal-", dir=self.state_dir)
        return self.path

    def size_bytes(self) -> int:
        if self.path is None:
            return 0
        return sum(
            os.path.getsize(os.path.join(self.path, name))
            for name in os.listdir(self.path)
        )

    def remove(self) -> None:
        if self.path is not None:
            shutil.rmtree(self.path, ignore_errors=True)
            self.path = None


def _resume_cells(seed: int, journal: Journal) -> list[Cell]:
    import inspect

    from repro.experiments.registry import EXPERIMENTS, run_experiment
    from repro.experiments.suite import suite_overrides

    jobs = min(2, len(os.sched_getaffinity(0)))
    overrides = suite_overrides("quick")
    rng = _rng("resume_suite", seed)
    runs = []
    for experiment_id in RESUME_EXPERIMENTS:
        kwargs = dict(overrides.get(experiment_id, {}))
        if "seed" in inspect.signature(EXPERIMENTS[experiment_id]).parameters:
            kwargs["seed"] = int(rng.integers(1, 2**31))
        runs.append((experiment_id, kwargs))

    def write(experiment_id: str, kwargs: dict, first: bool):
        path = journal.fresh() if first else journal.path
        return run_experiment(experiment_id, jobs=jobs, resume_dir=path, **kwargs)

    def resume(experiment_id: str, kwargs: dict):
        return run_experiment(
            experiment_id, jobs=jobs, resume_dir=journal.path, **kwargs
        )

    cells = [
        Cell(name=f"{e}/write", kind="write", experiment=e,
             call=lambda e=e, kw=kw, first=(i == 0): write(e, kw, first))
        for i, (e, kw) in enumerate(runs)
    ]
    cells += [
        Cell(name=f"{e}/resume", kind="resume", experiment=e,
             call=lambda e=e, kw=kw: resume(e, kw))
        for e, kw in runs
    ]
    return cells


def build_cells(workload: str, seed: int, journal: Journal) -> list[Cell]:
    """The cells of one unit of ``workload`` for ``seed``; the resume
    workload journals into ``journal``."""
    if workload == "quick_suite":
        return _quick_cells(seed)
    if workload == "schedule_sweep":
        return _schedule_cells(seed)
    if workload == "protocol_sweep":
        return _protocol_cells(seed)
    if workload == "resume_suite":
        return _resume_cells(seed, journal)
    raise KeyError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


def warm_up(workload: str) -> None:
    """The warm-up half of set-up: one tiny run per engine path the
    workload takes, so the first timed cell does not pay first-call costs
    (numpy dispatch, lazily imported engine modules)."""
    if workload not in ("schedule_sweep", "protocol_sweep"):
        return
    from repro.adversary.oblivious import StaticSchedule
    from repro.core.protocols.adaptive_no_k import AdaptiveNoK
    from repro.core.protocols.non_adaptive_with_k import NonAdaptiveWithK
    from repro.core.spec import RunSpec
    from repro.engine import execute, execute_batch

    if workload == "schedule_sweep":
        spec = RunSpec(k=4, protocol=NonAdaptiveWithK(4), adversary=StaticSchedule(), seed=1)
        execute(spec)
    else:
        spec = RunSpec(k=4, protocol=_named(lambda: AdaptiveNoK(), "AdaptiveNoK"),
                       adversary=StaticSchedule(), seed=1)
        execute(spec, engine="object")
    execute_batch(spec, (1, 2))
