"""The schedule kernel: R repetitions of a probability schedule in numpy passes.

Non-adaptive protocols transmit in local round ``i`` with a probability
``p(i)`` independent across rounds (Sections 3 and 4), so a station's
behaviour is a fixed random set of transmission rounds; the channel only
*removes* its future transmissions once it is acknowledged.
:func:`run_batch` samples those sets directly and resolves all
repetitions of a :class:`~repro.core.spec.RunSpec` in one ``(rep,
station)`` batch.  It is the ``"vectorized"`` engine: a single run is the
batch of one seed, ``run_batch(spec, seeds=[spec.seed])[0]``.

Exactness.  Per-round Bernoulli(p_i) transmissions are distributionally
identical to "at least one point of a unit-rate Poisson process falls in
a step of width ``lambda_i = -ln(1 - p_i)``" (step counts are independent
Poisson(lambda_i) and ``P(count >= 1) = p_i``).  Each station draws
``M ~ Poisson(sum lambda_i)`` points uniform on the cumulative-hazard
axis (:func:`hazard_table`), maps them onto rounds and deduplicates —
exact up to the 1e-15 hazard cap for p = 1 rounds.  Schedules with
dependent rounds override
:meth:`~repro.core.protocol.ProbabilitySchedule.sample_rounds` instead
(:func:`sample_station_events`).

The kernel:

1. wakes and transmission points are drawn per repetition from that
   repetition's own seeded generators — a repetition's draws never depend
   on the batch it runs in — then concatenated into flat batch arrays;
2. one sort orders the events by ``(rep, global_round)``; singleton
   rounds, the successes, fall out of run-length segment counts;
3. the ack switch-off (a success removes the winner's later events, which
   can turn a later collision into a new singleton) is an iterative
   fixpoint that recounts only the repetitions whose winners changed.
   Deaths are monotone, so it converges to exactly the round-by-round
   outcome, typically in a handful of passes.

Repetitions stream through the deterministic
:class:`~repro.engine.plan.TilePlan` in **rep tiles** (per-rep RNG is
independent, so this is trivially exact), and the fixpoint can sweep a
tile in **round windows**, carrying the ``win`` frontier forward (see
:func:`_ack_fixpoint`).  With no ``--memory-budget``/tile setting the plan
is one monolithic batch; an allocation that fails is reported as
:class:`~repro.engine.plan.BatchMemoryError` with an admitting budget.

Exactness contract: ``run_batch(spec, seeds)`` is byte-identical to
``[run_batch(spec, seeds=[s])[0] for s in seeds]`` at any tile size —
fuzzed in ``tests/test_batched.py`` and ``tests/test_plan.py``, with the
object engine as oracle in ``tests/test_engine_fuzz.py``.  Admissibility:
non-adaptive schedule, oblivious wake adversary, no stateful jammer, no
trace, ACK feedback, no energy budget; :func:`repro.engine.execute` /
``execute_batch`` fall back for everything else.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Optional

import numpy as np

from repro.adversary.base import WakeSchedule
from repro.channel.feedback import FeedbackModel
from repro.channel.results import RunResult, StopCondition
from repro.core.protocol import ProbabilitySchedule
from repro.core.spec import RunSpec
from repro.core.station import StationRecord
from repro.telemetry import registry as telemetry

__all__ = [
    "run_batch",
    "hazard_table",
    "check_prob_table",
    "sample_station_events",
]

#: "Never happens" sentinel for round numbers (first success / switch-off).
_INF = np.iinfo(np.int64).max

#: Hazard assigned to probability-1 rounds (P(miss) ~ 1e-15, i.e. never).
_MAX_HAZARD = 34.538776394910684


def hazard_table(probabilities: np.ndarray) -> np.ndarray:
    """Cumulative hazard ``Lambda[i] = sum_{j<=i} -ln(1 - p_j)``.

    Probability-1 rounds get the capped hazard ``_MAX_HAZARD``.
    """
    p = np.asarray(probabilities, dtype=float)
    if p.size and (p.min() < 0.0 or p.max() > 1.0):
        raise ValueError("probabilities must lie in [0, 1]")
    # In place: horizons reach millions of rounds, so one working array.
    lam = np.negative(p)
    with np.errstate(divide="ignore"):
        np.log1p(lam, out=lam)
    np.negative(lam, out=lam)
    lam[~np.isfinite(lam)] = _MAX_HAZARD
    return np.cumsum(lam, out=lam)


def check_prob_table(
    schedule: ProbabilitySchedule, p: np.ndarray, max_local: int
) -> None:
    """Spot-check a cached probability table against the live schedule.

    The table cache is keyed by a schedule fingerprint; a table built from
    a different schedule would silently poison every result, so a few
    entries are compared against the live schedule.  Probe indices are
    deduplicated: at ``max_local == 1`` the naive triple ``(1, max_local
    // 2 or 1, max_local)`` would check round 1 three times and sample
    nothing else.
    """
    horizon = schedule.horizon()
    for i in sorted({1, max_local // 2 or 1, max_local}):
        if horizon is not None and i > horizon:
            expected = 0.0
        else:
            expected = min(1.0, max(0.0, schedule.probability(i)))
        if abs(p[i - 1] - expected) > 1e-9:
            raise ValueError(
                f"prob_table disagrees with {schedule.name} at "
                f"local round {i}: table {p[i - 1]!r} vs schedule "
                f"{expected!r}"
            )


def sample_station_events(
    rng: np.random.Generator,
    schedule: ProbabilitySchedule,
    k: int,
    cumulative_hazard: np.ndarray,
    max_local: int,
) -> tuple[np.ndarray, np.ndarray]:
    """One repetition's ``(stations, local_rounds)`` events for ``k``
    stations, station-major (switch-off ignored; the kernel's sort drops
    duplicate samples).

    Schedules with dependent rounds sample through
    :meth:`ProbabilitySchedule.sample_rounds`, station by station; the
    rest take the exact Poisson-thinning path.
    """
    probe = schedule.sample_rounds(rng, max_local)
    if probe is not None:
        parts = [probe] + [
            schedule.sample_rounds(rng, max_local) for _ in range(k - 1)
        ]
        lengths = np.fromiter(map(len, parts), np.int64, count=k)
        rounds = np.concatenate(parts).astype(np.int64, copy=False)
        if rounds.size and (rounds.min() < 1 or rounds.max() > max_local):
            raise ValueError(
                f"{schedule.name}: sample_rounds produced local "
                f"rounds outside [1, {max_local}]"
            )
        return np.repeat(np.arange(k, dtype=np.int64), lengths), rounds
    total = float(cumulative_hazard[-1]) if cumulative_hazard.size else 0.0
    if total <= 0.0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    counts = rng.poisson(total, size=k)
    flat = rng.uniform(0.0, total, size=int(counts.sum()))
    # A point at hazard position u lands in the round whose cumulative
    # hazard first reaches past u; +1 converts 0-based step to local
    # round (local rounds start at 1).
    rounds = np.searchsorted(cumulative_hazard, flat, side="right") + 1
    return np.repeat(np.arange(k, dtype=np.int64), counts), rounds.astype(np.int64)


def _resolve_seeds(
    spec: RunSpec, n_reps: Optional[int], seeds: Optional[Sequence[Optional[int]]]
) -> list[Optional[int]]:
    if seeds is None:
        if n_reps is None:
            raise ValueError("run_batch needs n_reps or an explicit seed list")
        if spec.seed is None:
            raise ValueError(
                "run_batch(spec, n_reps) derives per-rep seeds from spec.seed; "
                "set spec.seed or pass seeds explicitly"
            )
        return [spec.seed + r for r in range(n_reps)]
    # None stays None: that repetition draws from OS entropy (and reports
    # ``seed=None``), like an unseeded single run.
    seed_list = [None if s is None else int(s) for s in seeds]
    if n_reps is not None and n_reps != len(seed_list):
        raise ValueError(
            f"n_reps={n_reps} disagrees with len(seeds)={len(seed_list)}"
        )
    return seed_list


def _rep_generators(seed: Optional[int]) -> tuple[np.random.Generator, np.random.Generator]:
    """One repetition's (adversary, station) generators: the first two
    children of ``SeedSequence(seed)``, as ``RngFactory`` spawns them."""
    adversary_child, station_child = np.random.SeedSequence(seed).spawn(2)
    return (
        np.random.Generator(np.random.PCG64(adversary_child)),
        np.random.Generator(np.random.PCG64(station_child)),
    )


def _sorted_member(sorted_keys: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``np.isin(values, sorted_keys)`` for an ascending ``sorted_keys``."""
    if sorted_keys.size == 0:
        return np.zeros(values.size, dtype=bool)
    pos = np.searchsorted(sorted_keys, values)
    np.minimum(pos, sorted_keys.size - 1, out=pos)
    return sorted_keys[pos] == values


def _map_points_to_rounds(full_cum: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """Exact ``np.searchsorted(full_cum, flat, side="right")``, faster.

    Binary search pays ~90 ns per point; a batch has millions.  A uniform
    grid over the hazard axis precomputes, per grid bucket, the smallest
    insertion index of any value in the bucket; each point then starts at
    its bucket's index and walks forward at most ``max bucket span`` steps
    (whole-array compare-and-add passes).  A trailing backward pass
    corrects the rare float-rounding overshoot of the bucket computation,
    so the result is exactly the binary search's for every input.  Tables
    whose hazard mass concentrates in few buckets (span > 32) — and small
    batches, where the grid setup doesn't amortise — fall back to plain
    ``searchsorted``.
    """
    n = int(full_cum.shape[0])
    total = float(full_cum[-1]) if n else 0.0
    if flat.size < 65536 or n < 2 or not total > 0.0:
        return np.searchsorted(full_cum, flat, side="right")
    m = 1 << ((n - 1).bit_length() + 1)  # ~2-4 buckets per round
    edges = np.arange(m, dtype=np.float64) * (total / m)
    lo = np.searchsorted(full_cum, edges, side="right")
    spans = np.diff(lo)
    max_span = int(spans.max()) if spans.size else 0
    if max_span > 32:
        return np.searchsorted(full_cum, flat, side="right")
    bucket = np.minimum((flat * (m / total)).astype(np.int64), m - 1)
    np.maximum(bucket, 0, out=bucket)
    idx = lo[bucket]
    cum_pad = np.append(full_cum, np.inf)
    # One whole-array pass finds the points still left of their round;
    # subsequent passes touch only the shrinking unresolved subset.
    active = np.flatnonzero(cum_pad[idx] <= flat)
    for _ in range(max_span + 2):
        if active.size == 0:
            break
        idx[active] += 1
        still = cum_pad[idx[active]] <= flat[active]
        active = active[still]
    else:  # pragma: no cover - loop bound is exact by construction
        return np.searchsorted(full_cum, flat, side="right")
    behind = np.flatnonzero(
        (idx > 0) & (full_cum[np.maximum(idx, 1) - 1] > flat)
    )
    while behind.size:
        idx[behind] -= 1
        sub = idx[behind]
        still = (sub > 0) & (full_cum[np.maximum(sub, 1) - 1] > flat[behind])
        behind = behind[still]
    return idx


def _check_batchable(spec: RunSpec) -> None:
    """Defensive admissibility check (dispatch performs the routed one).

    Each message names the spec field that tripped, so a driver that
    bypassed dispatch sees exactly which capability to change.
    """
    if not spec.is_schedule_run:
        raise TypeError(
            "run_batch requires a probability-schedule spec: spec.protocol is "
            f"a factory ({spec.display_label!r}); use run_compiled_batch or "
            "per-run execute() for stateful protocols"
        )
    if not isinstance(spec.adversary, WakeSchedule):
        raise TypeError(
            "run_batch requires an oblivious WakeSchedule: spec.adversary is "
            f"{type(spec.adversary).__name__}, which may react to channel history"
        )
    if spec.jammer is not None:
        raise ValueError(
            "run_batch does not take jammer objects: spec.jammer is "
            f"{type(spec.jammer).__name__}; express oblivious jamming as "
            "spec.jam_rounds instead"
        )
    if spec.record_trace:
        raise ValueError(
            "run_batch keeps no event log: spec.record_trace is True; "
            "use the object engine to record traces"
        )
    if spec.feedback is not FeedbackModel.ACK_ONLY:
        raise ValueError(
            "run_batch only models ACK feedback: spec.feedback is "
            f"{spec.feedback.value!r}"
        )
    if spec.faults is not None and spec.faults.energy_budget is not None:
        raise ValueError(
            "run_batch does not model energy budgets: "
            "spec.faults.energy_budget is set; use the object engine"
        )


def _segment_singletons(
    keys: np.ndarray, jammed: np.ndarray
) -> np.ndarray:
    """Positions (into ``keys``) of non-jammed singleton segments.

    ``keys`` is the sorted ``(rep, global_round)`` composite key; a
    segment is one channel round of one repetition, and a singleton
    segment is a round with exactly one attempt — a success unless jammed.
    """
    if keys.size == 0:
        return np.empty(0, dtype=np.int64)
    first = np.empty(keys.size, dtype=bool)
    first[0] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    counts = np.diff(np.append(starts, keys.size))
    singles = starts[counts == 1]
    return singles[~jammed[singles]]


def _ack_fixpoint(
    win: np.ndarray,
    s: np.ndarray,
    g: np.ndarray,
    gk: np.ndarray,
    rep_of: np.ndarray,
    jammed: np.ndarray,
    n_reps: int,
    k: int,
) -> tuple[np.ndarray, int]:
    """Iterate the ack-switch-off fixpoint over one event (sub)stream.

    ``win`` carries the frontier *in*: events whose station already won
    at an earlier round (a previous window's converged result) are
    invalid from the first pass, exactly as if the whole stream had been
    swept at once.  A win at round t removes the winner's events after t,
    which can create new singletons at later rounds of the same
    repetition; deaths are monotone (estimates only move earlier and
    never before the true switch-off), so iterating over the repetitions
    whose death set changed reproduces the sequential sweep exactly.
    Windowing is sound for the same reason: a win found in a later
    window has a round past every earlier window's rounds, so it can
    never invalidate an event — or create a singleton — in a window that
    already converged.  Returns the advanced frontier and the pass count.
    """
    # Events are sorted by repetition, so after the first whole-stream
    # pass each iteration re-counts only the changed repetitions'
    # contiguous event segments.
    rep_bounds: Optional[np.ndarray] = None
    active_reps: Optional[np.ndarray] = None  # None = every repetition
    # Each productive pass strictly lowers at least one win estimate, and
    # every estimate is one of the event rounds, so the pass count is
    # bounded by the event count (plus the final no-change pass).
    passes = 1
    for passes in range(1, int(g.size) + 3):
        if active_reps is None or active_reps.size == n_reps:
            # Every repetition is active (always so at R=1): sweep the
            # arrays themselves rather than gathering index copies.
            sl_s, sl_g, sl_gk, sl_j = s, g, gk, jammed
        elif active_reps.size == 0:
            break
        else:
            if rep_bounds is None:
                rep_bounds = np.searchsorted(rep_of, np.arange(n_reps + 1))
            idx = np.concatenate(
                [
                    np.arange(rep_bounds[r], rep_bounds[r + 1])
                    for r in active_reps
                ]
            )
            sl_s, sl_g, sl_gk, sl_j = s[idx], g[idx], gk[idx], jammed[idx]
        valid = sl_g <= win[sl_s]
        sv = sl_s[valid]
        gv = sl_g[valid]
        singles = _segment_singletons(sl_gk[valid], sl_j[valid])
        new_win = win.copy()
        np.minimum.at(new_win, sv[singles], gv[singles])
        changed = np.flatnonzero(new_win != win)
        win = new_win
        active_reps = np.unique(changed // k)
    else:  # pragma: no cover - deaths strictly decrease, so unreachable
        raise RuntimeError("batched ack fixpoint failed to converge")
    return win, passes


def run_batch(
    spec: RunSpec,
    n_reps: Optional[int] = None,
    seeds: Optional[Sequence[Optional[int]]] = None,
    *,
    tile_reps: Optional[int] = None,
    tile_rounds: Optional[int] = None,
    memory_budget: Optional[object] = None,
) -> list[RunResult]:
    """Execute ``spec`` for every seed through memory-bounded tiles.

    Args:
        spec: a vectorised-admissible run description (see module docs).
        n_reps: repetition count; seeds default to ``spec.seed + r``
            (the harness's repetition layout).
        seeds: explicit per-repetition seeds (overrides ``n_reps``-derived
            ones; both may be given if consistent).  A ``None`` seed draws
            that repetition from OS entropy.
        tile_reps: repetitions per streaming tile (None = the process
            default, else derived from the memory budget, else all).
        tile_rounds: rounds per resolution window inside a tile (None =
            the process default, else the whole horizon).
        memory_budget: bytes (or a ``"4G"``-style string) bounding one
            tile's estimated working set; None = the process default set
            by the CLI's ``--memory-budget``.

    Returns:
        One :class:`RunResult` per seed, in order, byte-identical to
        sequential ``execute(spec.with_seed(seed))`` calls — for every
        tile size.

    Raises:
        BatchMemoryError: the budget admits no tile, or a kernel
            allocation actually failed (numpy's bare ``MemoryError`` is
            wrapped with the offending spec field and an admitting
            budget).
    """
    _check_batchable(spec)
    seed_list = _resolve_seeds(spec, n_reps, seeds)
    R = len(seed_list)
    if R == 0:
        return []
    from repro.engine.plan import (
        BatchMemoryError,
        build_plan,
        oversized_batch_message,
    )

    plan = build_plan(
        spec,
        R,
        memory_budget=memory_budget,
        tile_reps=tile_reps,
        tile_rounds=tile_rounds,
    )
    if telemetry.enabled():
        telemetry.count("batched.batches")
        telemetry.count("batched.reps", R)
        telemetry.observe("batched.batch_reps", R)

    # One shared probability/hazard table pair for every tile (one cache
    # lookup); each repetition uses the prefix its own wake draw allows.
    from repro.engine.cache import schedule_tables

    max_rounds = spec.resolve_horizon()
    full_table, full_cum = schedule_tables(spec.schedule, max_rounds)
    check_prob_table(spec.schedule, full_table, max_rounds)

    results: list[RunResult] = []
    for lo, hi in plan.rep_slices():
        with telemetry.span("tile.run"):
            if telemetry.enabled():
                telemetry.count("tile.runs")
                telemetry.count("tile.reps", hi - lo)
            try:
                results.extend(
                    _run_tile(
                        spec, seed_list[lo:hi], full_cum, plan.tile_rounds
                    )
                )
            except BatchMemoryError:
                raise
            except MemoryError as error:
                raise BatchMemoryError(
                    oversized_batch_message(spec, hi - lo)
                ) from error
    return results


def _rep_wake(
    spec: RunSpec, seed: Optional[int]
) -> tuple[np.ndarray, int, np.random.Generator]:
    """One repetition's wake draw, its longest local clock within the
    horizon, and the station generator its transmissions draw from."""
    adversary_rng, station_rng = _rep_generators(seed)
    wake = np.asarray(
        spec.adversary.wake_rounds(spec.k, adversary_rng), dtype=np.int64
    )
    if wake.shape != (spec.k,):
        raise ValueError("adversary produced a malformed wake schedule")
    max_local = int(spec.resolve_horizon() - wake.min())
    sched_horizon = spec.schedule.horizon()
    if sched_horizon is not None:
        max_local = min(max_local, sched_horizon)
    return wake, max(max_local, 1), station_rng


def _flatten(parts: list[np.ndarray]) -> np.ndarray:
    """Concatenate per-repetition parts; a single part is used as is."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _draw_direct(
    spec: RunSpec, seed_list: list[Optional[int]], full_cum: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-rep draws through :func:`sample_station_events`: the ``(R, k)``
    wake rounds, and the flat events as ``rep * k + station`` ids with
    their global rounds."""
    k = spec.k
    wake_all = np.empty((len(seed_list), k), dtype=np.int64)
    station_parts: list[np.ndarray] = []
    global_parts: list[np.ndarray] = []
    for r, seed in enumerate(seed_list):
        wake, max_local, station_rng = _rep_wake(spec, seed)
        stations, rounds = sample_station_events(
            station_rng, spec.schedule, k, full_cum[:max_local], max_local
        )
        wake_all[r] = wake
        rounds += wake[stations]
        stations += np.int64(r) * k
        station_parts.append(stations)
        global_parts.append(rounds)
    return wake_all, _flatten(station_parts), _flatten(global_parts)


def _draw_poisson(
    spec: RunSpec, seed_list: list[Optional[int]], full_cum: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-rep Poisson-thinning draws: the ``(R, k)`` wake rounds and point
    counts, and every point's local round in ``(rep, station)`` order.

    Each point was drawn on its own repetition's prefix of the
    cumulative-hazard axis, so one batch-wide search against the full
    table lands on the same round.
    """
    k = spec.k
    R = len(seed_list)
    wake_all = np.empty((R, k), dtype=np.int64)
    counts_all = np.zeros((R, k), dtype=np.int64)
    flat_parts: list[np.ndarray] = []
    for r, seed in enumerate(seed_list):
        wake, max_local, station_rng = _rep_wake(spec, seed)
        wake_all[r] = wake
        total = float(full_cum[max_local - 1])
        if total <= 0.0:
            continue  # no transmissions: nothing to draw
        counts = station_rng.poisson(total, size=k)
        counts_all[r] = counts
        flat_parts.append(station_rng.uniform(0.0, total, size=int(counts.sum())))
    flat = _flatten(flat_parts) if flat_parts else np.empty(0)
    local = _map_points_to_rounds(full_cum, flat)
    local += 1
    return wake_all, counts_all, local


def _run_tile(
    spec: RunSpec,
    seed_list: list[Optional[int]],
    full_cum: np.ndarray,
    tile_rounds: Optional[int],
) -> list[RunResult]:
    """One rep tile: the full kernel over ``seed_list``'s repetitions.

    Per-rep draws, one sort, segment-reduction resolution, then
    stop/attempt/materialise; the ack fixpoint optionally sweeps
    ``tile_rounds``-round windows (see :func:`_ack_fixpoint`).  Draw
    arrays are released as soon as the sort key holds their information,
    so a single large run peaks at a few event arrays.
    """
    R = len(seed_list)
    phase = telemetry.timer()

    k = spec.k
    schedule = spec.schedule
    adversary = spec.adversary
    ack = spec.switch_off_on_ack
    stop = spec.stop
    max_rounds = spec.resolve_horizon()
    sched_horizon = schedule.horizon()

    # --- per-repetition draws (seed-exact, so they stay per-rep calls;
    # everything after this is whole-batch array work) ------------------
    # Plain Bernoulli schedules draw only Poisson counts and points per
    # repetition; their round mapping runs once over the whole batch.
    direct = (
        type(schedule).sample_rounds is not ProbabilitySchedule.sample_rounds
    )
    if direct:
        wake_all, ev_station, ev_global = _draw_direct(spec, seed_list, full_cum)
        draw_bytes = ev_station.nbytes + ev_global.nbytes
    else:
        wake_all, counts_all, local = _draw_poisson(spec, seed_list, full_cum)
        # The float64 uniform points peaked alongside ``local``.
        draw_bytes = 8 * local.size + local.nbytes + counts_all.nbytes
    if phase:
        phase.lap("batched.draws")

    # --- flat batch event stream, sorted by (rep, global round) ---------
    # Composite key: rep | global_round | station in power-of-two bit
    # fields, so the decompose after sorting is shifts and masks rather
    # than integer division.  The round field leaves room for the largest
    # possible global round (local ≤ max_rounds - min wake, plus any
    # wake), so past-horizon events stay inside their repetition's key
    # space until the post-sort mask drops them.
    max_g = int(max_rounds) + int(wake_all.max()) + 1
    sp = max_g.bit_length()
    kp = (k - 1).bit_length()
    key_bits = (R - 1).bit_length() + sp + kp
    if key_bits > 62:  # pragma: no cover - absurd sizes
        raise ValueError(
            "batch composite keys would overflow int64; reduce the batch size"
        )
    # Narrow keys halve the memory traffic of the sort and of every
    # whole-batch pass; typical batches (R=1000, k=64) need < 28 bits.
    key_dtype = np.int32 if key_bits <= 31 else np.int64
    if direct:
        # Built in place over the (rep * k + station, global_round) draw
        # arrays, each released once folded in.
        key = ev_station // k
        key <<= sp
        key += ev_global
        del ev_global
        key <<= kp
        ev_station %= k
        key |= ev_station
        del ev_station
        key = key.astype(key_dtype, copy=False)
    else:
        # Poisson-path events: the key decomposes into a per-(rep,
        # station) base — ((rep << sp) + wake) << kp | station — plus
        # local << kp, so per-event assembly is one repeat and one add.
        base = (
            (np.arange(R, dtype=np.int64) << np.int64(sp))[:, None] + wake_all
        ) << np.int64(kp) | np.arange(k, dtype=np.int64)[None, :]
        key = np.repeat(
            base.reshape(-1).astype(key_dtype, copy=False),
            counts_all.reshape(-1),
        )
        del base, counts_all
        local = local.astype(key_dtype, copy=False)
        local <<= kp
        key += local
        del local
    if phase:
        phase.lap("batched.key_build")
    # One sort both orders the sweep and puts duplicate (station, round)
    # samples side by side for the dedup mask; past-horizon events are
    # dropped by the same mask.
    key.sort()
    gk = key >> kp  # (rep, global_round) composite segment key
    g = gk & ((1 << sp) - 1)
    if key.size:
        keep = np.empty(key.size, dtype=bool)
        keep[0] = True
        np.not_equal(key[1:], key[:-1], out=keep[1:])
        keep &= g <= max_rounds
        if not keep.all():
            key = key[keep]
            gk = gk[keep]
            g = g[keep]
        del keep
    ev_rep = gk >> sp
    s = ev_rep * k + (key & ((1 << kp) - 1))
    n_events = int(key.size)
    key_bytes = key.nbytes
    del key
    if spec.jam_rounds:
        ev_jammed = _sorted_member(np.asarray(spec.jam_rounds, dtype=np.int64), g)
    else:
        ev_jammed = np.zeros(g.size, dtype=bool)
    # Oblivious faults lower as post-resolution outcome rewrites: a fault
    # round can carry no *observed* success (noise corrupts the slot; ack
    # loss keeps the schedule-following winner contending), which under
    # schedule semantics is exactly the jammed-round treatment.  Fault
    # rounds are per repetition (each rep draws its own plan from its own
    # seed), so membership is tested on the (rep, round) composite key;
    # the per-rep plans are sorted and concatenated in rep order, so the
    # keys are ascending and membership is one binary search.
    ev_noise: Optional[np.ndarray] = None
    ev_fault: Optional[np.ndarray] = None
    ev_dead = ev_jammed
    if spec.faults is not None:
        fault_parts: list[np.ndarray] = []
        noise_parts: list[np.ndarray] = []
        with telemetry.span("fault.plan"):
            for r, seed in enumerate(seed_list):
                fault_plan = spec.faults.plan(seed, max_rounds)
                rep_base = np.int64(r) << np.int64(sp)
                fault_parts.append(rep_base + fault_plan.fault_rounds)
                noise_parts.append(rep_base + fault_plan.noise_rounds)
        ev_fault = _sorted_member(np.concatenate(fault_parts), gk)
        ev_noise = _sorted_member(np.concatenate(noise_parts), gk)
        ev_dead = ev_jammed | ev_fault
    if phase:
        phase.lap("batched.sort")
        telemetry.count("batched.events", n_events)
        telemetry.gauge_max(
            "tile.working_set_bytes.peak",
            key_bytes
            + gk.nbytes
            + g.nbytes
            + ev_rep.nbytes
            + s.nbytes
            + ev_jammed.nbytes
            + wake_all.nbytes
            + draw_bytes,
        )

    # --- collision resolution: segment reductions + ack fixpoint --------
    # win[rep*k + station] = the station's first successful round (_INF =
    # never).  Under ack semantics this is also its switch-off round.
    win = np.full(R * k, _INF, dtype=np.int64)
    passes = 1
    if not ack or stop is StopCondition.FIRST_SUCCESS:
        # Single counting pass.  Without switch-off feedback the live set
        # never changes; under FIRST_SUCCESS the run ends at the first
        # success, so no ack can have removed events before any round the
        # result reports (everything past the stop round is masked below).
        singles = _segment_singletons(gk, ev_dead)
        np.minimum.at(win, s[singles], g[singles])
    else:
        # The fixpoint's transient copies (valid mask, filtered slices,
        # win snapshots) scale with the events it sweeps; bounding them is
        # what horizon windows are for.  A window only ever *removes*
        # events at rounds past every earlier window, so sweeping windows
        # in ascending round order with the carried ``win`` frontier is
        # exact (see _ack_fixpoint).
        n_windows = 1
        if tile_rounds is not None and tile_rounds < max_rounds:
            n_windows = (int(max_rounds) - 1) // tile_rounds + 1
        if n_windows <= 1 or n_events == 0:
            win, passes = _ack_fixpoint(
                win, s, g, gk, ev_rep, ev_dead, R, k
            )
        else:
            # Stable sort on the window index keeps each window's events
            # in (rep, round) order, so segment keys stay contiguous.
            widx = (g - 1) // tile_rounds
            order = np.argsort(widx, kind="stable")
            bounds = np.searchsorted(widx[order], np.arange(n_windows + 1))
            passes = 0
            for w in range(n_windows):
                idx = order[bounds[w] : bounds[w + 1]]
                if idx.size == 0:
                    continue
                win, w_passes = _ack_fixpoint(
                    win, s[idx], g[idx], gk[idx], ev_rep[idx],
                    ev_dead[idx], R, k,
                )
                passes += w_passes
            passes = max(passes, 1)
            if phase:
                telemetry.count("tile.windows", n_windows)
    if phase:
        phase.lap("batched.resolve")
        telemetry.count("batched.fixpoint_passes", passes)

    # --- stop conditions, per repetition --------------------------------
    fs = win.reshape(R, k)
    if stop is StopCondition.FIRST_SUCCESS:
        t_stop = fs.min(axis=1)
    elif stop is StopCondition.ALL_SWITCHED_OFF and not ack:
        # Without acks a station keeps transmitting until its schedule
        # horizon runs out; the sweep consumes every event (no early stop).
        t_stop = np.full(R, _INF, dtype=np.int64)
    else:
        # ALL_SUCCEEDED, or ALL_SWITCHED_OFF under ack semantics: the run
        # stops at the k-th distinct first success.
        all_won = (fs < _INF).all(axis=1)
        t_stop = np.where(all_won, np.where(fs < _INF, fs, 0).max(axis=1), _INF)

    # Successes after the stop round were never observed by the sweep.
    fs_rep = np.where(fs <= t_stop[:, None], fs, _INF)

    # Attempts: every event up to the stop round from a still-live station
    # (under ack, a station's events end at its own first success).
    cutoff = t_stop[ev_rep]
    if ack:
        cutoff = np.minimum(cutoff, win[s])
    attempts = np.bincount(s[g <= cutoff], minlength=R * k).reshape(R, k)

    if ev_fault is not None and telemetry.enabled():
        # Suppressed would-be successes, matching the object engine's
        # per-round attribution: singleton among live pre-stop events,
        # not jammed; noise wins when both components drew the round.
        live = g <= cutoff
        singles = _segment_singletons(gk[live], ev_jammed[live])
        fault_hits = int(np.count_nonzero(ev_fault[live][singles]))
        noise_hits = int(np.count_nonzero(ev_noise[live][singles]))
        telemetry.count("fault.runs", R)
        telemetry.count("fault.slots_corrupted", noise_hits)
        telemetry.count("fault.acks_dropped", fault_hits - noise_hits)

    completed = t_stop < _INF
    rounds_executed = np.where(completed, t_stop, max_rounds)
    if stop is StopCondition.ALL_SWITCHED_OFF:
        # A station switches off on its ack (ack semantics) or one round
        # past its schedule horizon; with neither it never does and the
        # run cannot complete — matching the sequential engines.
        pend = ~completed
        if pend.any():
            acked = np.logical_and(ack, fs_rep < _INF)
            if sched_horizon is not None:
                off = np.where(acked, fs_rep, wake_all + sched_horizon + 1)
            else:
                off = np.where(acked, fs_rep, _INF)
            done = pend & (off.max(axis=1) <= max_rounds)
            completed |= done
            rounds_executed = np.where(done, off.max(axis=1), rounds_executed)

    # --- materialise per-repetition RunResults ---------------------------
    # Success and switch-off rounds are resolved into whole-batch arrays
    # first; the -1 "never" sentinel becomes None inside object arrays, so
    # tolist() converts every field to its final json-safe value in one C
    # pass and the loop is pure record construction.
    protocol_name = getattr(schedule, "name", "")
    adversary_name = getattr(adversary, "name", "")
    won = fs_rep != _INF
    success = np.where(won, fs_rep, -1)
    if sched_horizon is not None:
        off_sched = wake_all + (sched_horizon + 1)
        switch_off = np.where(off_sched <= rounds_executed[:, None], off_sched, -1)
    else:
        switch_off = np.full((R, k), -1, dtype=np.int64)
    if ack:
        switch_off = np.where(won, fs_rep, switch_off)
    success_obj = success.astype(object)
    success_obj[success < 0] = None
    switch_off_obj = switch_off.astype(object)
    switch_off_obj[switch_off < 0] = None
    wake_l = wake_all.tolist()
    suc_l = success_obj.tolist()
    off_l = switch_off_obj.tolist()
    att_l = attempts.tolist()
    rounds_l = rounds_executed.tolist()
    comp_l = completed.tolist()
    station_ids = range(k)
    record = StationRecord  # positional: id, wake, first_success, off, tx
    results: list[RunResult] = []
    for r in range(R):
        records = list(
            map(record, station_ids, wake_l[r], suc_l[r], off_l[r], att_l[r])
        )
        results.append(
            RunResult(
                records,
                rounds_l[r],
                comp_l[r],
                stop,
                None,
                seed_list[r],
                protocol_name,
                adversary_name,
            )
        )
    if phase:
        phase.lap("batched.materialize")
    return results
