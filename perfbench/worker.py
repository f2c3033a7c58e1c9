"""One workload in a fresh interpreter: set up, time units, check, trace.

``run.py`` starts this script with a fixed environment (hash seed, one
BLAS thread) and reads the JSON object it prints as its last line.  In
``--mode setup`` it only sets up and reports when it was ready; in
``--mode run`` it then times whole units of the workload until
``--seconds`` of measured time have passed, checks every result outside
the timed regions, and, with ``--trace 1``, runs one more unit with
telemetry on and attributes its time to layers.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time

import calibrate
import workloads


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "run"), default="run")
    parser.add_argument("--state", required=True)
    return parser.parse_args(argv)


class CheckFailure(Exception):
    """A result broke an invariant, disagreed with the oracle or with an
    earlier unit of the same run."""


# ------------------------------------------------------------------ checks


def _result_key(result) -> tuple:
    return (
        result.rounds_executed,
        result.completed,
        tuple(
            (r.station_id, r.wake_round, r.first_success_round,
             r.switch_off_round, r.transmissions, r.listening_slots)
            for r in result.records
        ),
    )


def _check_sweep(cell, results) -> dict:
    """Validate every RunResult of a sweep cell; count its work."""
    from repro.channel.validate import InvariantViolation, validate_run
    from repro.engine import build_plan

    if cell.memory_budget is not None:
        plan = build_plan(cell.spec, len(cell.seeds), memory_budget=cell.memory_budget)
        if plan.n_tiles < 2:
            raise CheckFailure(f"{cell.name}: the memory budget admits a single tile")
    if len(results) != len(cell.seeds):
        raise CheckFailure(f"{cell.name}: {len(results)} results for {len(cell.seeds)} seeds")
    digest = hashlib.sha256()
    station_rounds = 0
    for seed, result in zip(cell.seeds, results):
        if result.seed != seed:
            raise CheckFailure(f"{cell.name}: result seed {result.seed} != {seed}")
        try:
            validate_run(result)
        except InvariantViolation as error:
            raise CheckFailure(f"{cell.name} seed {seed}: {error}") from error
        digest.update(repr(_result_key(result)).encode())
        station_rounds += result.k * result.rounds_executed
    return {"runs": len(results), "station_rounds": station_rounds,
            "digest": digest.hexdigest()}


def _check_report(cell, report, written: dict) -> dict:
    """An experiment cell is ok when its report has text; a resumed one
    must also reproduce the written report and simulate nothing."""
    if not report.text.strip():
        raise CheckFailure(f"{cell.name}: empty report")
    outcome = {"runs": 0, "station_rounds": 0,
               "digest": hashlib.sha256(report.text.encode()).hexdigest()}
    if cell.kind == "write":
        outcome["runs"] = int(report.timings.get("runs_journaled", 0))
        written[cell.experiment] = (report.text, outcome["runs"])
    elif cell.kind == "resume":
        text, journaled = written[cell.experiment]
        if report.text != text:
            raise CheckFailure(f"{cell.name}: resumed report differs from the written one")
        resumed = int(report.timings.get("runs_resumed", 0))
        if resumed != journaled or report.timings.get("runs_journaled", 0):
            raise CheckFailure(
                f"{cell.name}: resumed {resumed} of {journaled} journaled runs "
                f"and journaled {report.timings.get('runs_journaled', 0)} anew"
            )
    return outcome


def _cross_check(cell, results, rng, oracles: dict) -> None:
    """Re-run a sampled seed under ``engine="cross-check"`` (the object
    engine is the oracle) and require the timed result to match it.

    Cells sharing a spec share the sampled seed when they both ran it,
    so one oracle run checks them all."""
    from repro.engine import EngineDisagreement, execute

    seed, oracle = oracles.get(id(cell.spec), (None, None))
    if seed not in cell.seeds:
        seed = cell.seeds[int(rng.integers(len(cell.seeds)))]
        try:
            oracle = _result_key(
                execute(cell.spec.with_seed(seed), engine="cross-check"))
        except EngineDisagreement as error:
            raise CheckFailure(f"{cell.name}: {error}") from error
        oracles[id(cell.spec)] = (seed, oracle)
    if oracle != _result_key(results[cell.seeds.index(seed)]):
        raise CheckFailure(
            f"{cell.name} seed {seed}: timed result differs from cross-check"
        )


# ------------------------------------------------------------------ timing


def _run_unit(cells):
    """Time every cell once, and the calibration kernel before each cell
    and after the last.  Returns per-cell seconds, per-cell end times (as
    ``time.time()``, the telemetry event clock), outputs (the exception
    when a cell raised) and the kernel samples."""
    seconds, ends, outputs, refs = [], [], [], []
    for cell in cells:
        refs.append(calibrate.ref_seconds())
        start = time.perf_counter()
        try:
            output = cell.call()
        except Exception as error:  # a failing cell is counted, not fatal
            output = error
        seconds.append(time.perf_counter() - start)
        ends.append(time.time())
        outputs.append(output)
    refs.append(calibrate.ref_seconds())
    return seconds, ends, outputs, refs


def _check_unit(cells, outputs) -> list:
    """Per cell: None if it raised, else its outcome dict."""
    written: dict = {}
    outcomes = []
    for cell, output in zip(cells, outputs):
        if isinstance(output, Exception):
            outcomes.append(None)
        elif cell.kind == "sweep":
            outcomes.append(_check_sweep(cell, output))
        else:
            outcomes.append(_check_report(cell, output, written))
    return outcomes


def _telemetry_work(counters: dict) -> int:
    return int(sum(counters.get(name, 0) for name in (
        "simulator.runs", "traffic.runs", "vectorized.runs",
        "batched.reps", "compiled.reps",
    )))


def _traced_unit(cells, journal):
    """One unit with telemetry on: per-cell seconds, outputs, the
    registry snapshot, the span events (the program's and one per cell)
    and the journal's size."""
    from layers import CELL_SPAN
    from repro import telemetry

    telemetry.reset()
    telemetry.enable()
    try:
        seconds, ends, outputs, _ = _run_unit(cells)
        journal_bytes = journal.size_bytes()
    finally:
        telemetry.disable()
    snap = telemetry.snapshot()
    events = telemetry.drain_events()
    telemetry.reset()
    events += [
        {"kind": "span", "name": CELL_SPAN, "ts": end, "dur_s": elapsed}
        for elapsed, end in zip(seconds, ends)
    ]
    return seconds, outputs, snap, events, journal_bytes


# ----------------------------------------------------------- trace metrics


def _direct_kernel(cell):
    """The fused kernel ``execute_batch`` reaches for a batch cell, or
    None when it falls back to per-run object executions."""
    from repro.channel.batched import run_batch
    from repro.channel.compiled import run_compiled_batch
    from repro.engine import compiled_inadmissibility, traffic_reduction, use_tiling
    from repro.engine import vectorized_inadmissibility

    spec = cell.spec
    if vectorized_inadmissibility(spec) is None:
        kernel = run_batch
    elif compiled_inadmissibility(spec) is None:
        kernel = run_compiled_batch
    else:
        return None
    base = traffic_reduction(spec) if spec.is_traffic_run else spec

    def call():
        with use_tiling(memory_budget=cell.memory_budget):
            return kernel(base, seeds=list(cell.seeds))

    return call


def _dispatch_overhead(cells) -> float:
    """Sum over fused batch cells of ``execute_batch`` seconds minus the
    direct kernel call's seconds on the same cell (tracing off)."""
    total = 0.0
    for cell in cells:
        if not (cell.kind == "sweep" and cell.batch):
            continue
        direct = _direct_kernel(cell)
        if direct is None:
            continue
        start = time.perf_counter()
        cell.call()
        middle = time.perf_counter()
        direct()
        total += (middle - start) - (time.perf_counter() - middle)
    return total


def _compile_seconds(cells) -> float:
    from repro.engine import compile_spec, select_engine

    total = 0.0
    for cell in cells:
        if cell.kind == "sweep" and select_engine(cell.spec) == "compiled":
            start = time.perf_counter()
            compile_spec(cell.spec)
            total += time.perf_counter() - start
    return total


def _engine_station_rounds(cells, outputs) -> dict:
    """Station-rounds of the sweep results per engine ``auto`` picked."""
    from repro.engine import select_engine

    totals = {"vectorized": 0, "compiled": 0, "object": 0}
    for cell, results in zip(cells, outputs):
        if cell.kind != "sweep" or isinstance(results, Exception):
            continue
        engine = select_engine(cell.spec)
        totals[engine] += sum(r.k * r.rounds_executed for r in results)
    return totals


def _layer_metrics(cells, seconds, outputs, snap, events, journal_bytes) -> dict:
    from layers import BUCKETS, self_times
    from repro.experiments.registry import EXPERIMENTS

    counters = snap["counters"]
    c = lambda name: float(counters.get(name, 0))  # noqa: E731
    owned = self_times(events)
    wall = sum(seconds)
    metrics = {name: owned.get(name, 0.0) for name in set(BUCKETS.values())}
    metrics["trace.wall_s"] = wall
    metrics["trace.unattributed_s"] = wall - sum(
        v for k, v in metrics.items()
        if k not in ("trace.wall_s", "trace.unattributed_s")
    )
    batched_phases = ("draws", "key_build", "sort", "resolve", "materialize")
    metrics["batched.run_s"] = sum(metrics[f"batched.{p}_s"] for p in batched_phases)
    station_rounds = _engine_station_rounds(cells, outputs)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    for experiment_id in EXPERIMENTS:
        metrics[f"exp.{experiment_id}_s"] = 0.0
    for cell, elapsed in zip(cells, seconds):
        if cell.kind == "experiment":
            metrics[f"exp.{cell.experiment}_s"] = elapsed
    metrics["exp.failed"] = float(sum(
        1 for cell, output in zip(cells, outputs)
        if cell.kind == "experiment" and isinstance(output, Exception)
    ))
    fused_batches = c("batched.batches") + c("compiled.batches")
    metrics.update({
        "harness.fused_reps_mean": ratio(c("batched.reps") + c("compiled.reps"), fused_batches),
        "executor.tasks": c("executor.tasks"),
        "executor.retries": c("executor.task_retries"),
        "executor.failures": c("executor.task_failures"),
        "checkpoint.write_pass_s": sum(
            s for cell, s in zip(cells, seconds) if cell.kind == "write"),
        "checkpoint.resume_pass_s": sum(
            s for cell, s in zip(cells, seconds) if cell.kind == "resume"),
        "checkpoint.runs_journaled": c("checkpoint.runs_journaled"),
        "checkpoint.runs_resumed": c("checkpoint.runs_resumed"),
        "checkpoint.journal_bytes": float(journal_bytes),
        "dispatch.select.vectorized": c("engine.select.vectorized"),
        "dispatch.select.compiled": c("engine.select.compiled"),
        "dispatch.select.object": c("engine.select.object"),
        "dispatch.fused_frac": ratio(
            c("engine.batch_fused_runs"),
            c("engine.batch_fused_runs") + c("engine.batch_fallback_runs")),
        "cache.hit_frac": ratio(
            c("engine.cache.hit"), c("engine.cache.hit") + c("engine.cache.miss")),
        "cache.evictions": c("engine.cache.evict"),
        "plan.tiles": c("tile.runs"),
        "vectorized.runs": c("vectorized.runs"),
        "batched.events": c("batched.events"),
        "batched.fixpoint_passes": c("batched.fixpoint_passes"),
        "batched.ns_per_event": 1e9 * ratio(metrics["batched.run_s"], c("batched.events")),
        "compiled.rounds": c("compiled.rounds"),
        "compiled.ns_per_lane_round": 1e9 * ratio(
            metrics["compiled.step_s"], station_rounds["compiled"]),
        "object.runs": c("simulator.runs") + c("traffic.runs"),
        "object.station_rounds": float(station_rounds["object"]),
        "object.us_per_round": 1e6 * ratio(
            metrics["object.execute_s"], station_rounds["object"]),
        "fault.runs": c("fault.runs"),
    })
    return metrics


# -------------------------------------------------------------------- main


def main(argv: list[str]) -> int:
    args = _parse(argv)
    workloads.import_for(args.workload)
    workloads.warm_up(args.workload)
    journal = workloads.Journal(args.state)
    cells = workloads.build_cells(args.workload, args.seed, journal)
    ready = time.monotonic()
    if args.mode == "setup":
        print(json.dumps({"ready": ready}))
        return 0

    import numpy as np

    try:
        steal0, total0 = calibrate.cpu_ticks()
        units = []
        first_outcomes = None
        correct, problems = True, []
        measured = 0.0
        while not units or measured < args.seconds:
            seconds, _, outputs, refs = _run_unit(cells)
            try:
                outcomes = _check_unit(cells, outputs)
            except CheckFailure as error:
                correct = False
                problems.append(str(error))
                outcomes = [None] * len(cells)
            if first_outcomes is None:
                first_outcomes, first_outputs = outcomes, outputs
            elif outcomes != first_outcomes:
                correct = False
                problems.append("a unit's results differ from the first unit's")
            wall = sum(seconds)
            units.append({
                "wall_s": wall,
                "ref_s": statistics.fmean(refs),
                "failed": sum(isinstance(o, Exception) for o in outputs),
                "cells_s": seconds,
                "refs_s": refs,
            })
            measured += wall
        steal1, total1 = calibrate.cpu_ticks()
        peak_rss_kb = max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        )
        failures = [
            f"{cell.name}: {type(o).__name__}: {o}"
            for cell, o in zip(cells, first_outputs) if isinstance(o, Exception)
        ]

        # Correctness beyond invariants: a sampled seed per sweep cell
        # against the cross-check engine (object engine as oracle).
        rng = np.random.default_rng([0xC4EC, args.seed])
        oracles: dict = {}
        for cell, output in zip(cells, first_outputs):
            if cell.kind == "sweep" and not isinstance(output, Exception):
                try:
                    _cross_check(cell, output, rng, oracles)
                except CheckFailure as error:
                    correct = False
                    problems.append(str(error))

        work_runs = sum(o["runs"] for o in first_outcomes if o)
        work_station_rounds = sum(o["station_rounds"] for o in first_outcomes if o)
        layer = None
        if args.trace or args.workload == "quick_suite":
            t_seconds, t_outputs, snap, events, journal_bytes = _traced_unit(cells, journal)
            if args.workload == "quick_suite":
                work_runs = _telemetry_work(snap["counters"])
            if args.trace:
                layer = _layer_metrics(
                    cells, t_seconds, t_outputs, snap, events, journal_bytes)
                layer["telemetry.overhead_frac"] = (
                    sum(t_seconds) / statistics.median(u["wall_s"] for u in units) - 1
                )
                layer["dispatch.overhead_s"] = _dispatch_overhead(cells)
                layer["compile.spec_s"] = _compile_seconds(cells)
    finally:
        journal.remove()

    print(json.dumps({
        "ready": ready,
        "units": units,
        "cells": len(cells),
        "failures": failures,
        "correct": correct,
        "problems": problems,
        "work": {"cells": len(cells), "runs": work_runs,
                 "station_rounds": work_station_rounds},
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "steal_frac": (steal1 - steal0) / (total1 - total0) if total1 > total0 else 0.0,
        "layers": layer,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
