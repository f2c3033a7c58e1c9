"""The compiled engine: table-driven numpy execution of protocol machines.

:mod:`repro.engine.compile` lowers a finite protocol state machine to two
tables (``(mode, counter) -> probability``, ``(mode, symbol) -> mode``);
this module executes the lowered program for a whole batch of repetitions
at once.  All ``R x k`` stations become *lanes* of flat numpy arrays and
every round advances them together: one gather picks each lane's
Bernoulli parameter, one ``bincount`` per round resolves the channel of
all repetitions, one gather maps feedback symbols to next modes.

Byte identity with the object engine
------------------------------------

The contract is the strongest the repo has: ``run_compiled_batch(spec,
seeds)`` equals ``[SlotSimulator-run of spec.with_seed(s)] for s in
seeds`` **exactly** — station ids, wake/first-success/switch-off rounds,
transmission and listening-slot counts, completion, rounds executed.
Equality per seed (not merely in distribution) requires consuming each
station's RNG stream in the object engine's order.  Three mechanisms
deliver that without a Python loop per round:

* **Seed fan-out.**  Each repetition spawns its ``SeedSequence`` children
  exactly as :class:`~repro.util.rng.RngFactory` does — adversary child
  first, one jammer child when ``jam_rounds`` is set (the object engine
  seeds a :class:`~repro.channel.jamming.ScheduledJammer`), then one
  child per station in chronological wake order.  Spawning all children
  in one call yields the same children as the factory's successive
  ``spawn(1)`` calls.

* **Prefetched uniform blocks + rewind.**  A mode that draws uniforms
  (election, schedule rounds, wake-up beacons) consumes
  ``Generator.random()`` scalars one per round.  A block draw
  ``random(B)`` consumes the identical stream, so each lane prefetches a
  block and the stepper serves draws from per-lane cursors — vectorized.
  When a lane *leaves* a drawing mode with unconsumed prefetch, its
  generator is rewound to the position after its last *consumed* draw by
  restoring the bit-generator state snapshotted at the refill and
  re-drawing the consumed count.  (A pure ``advance()`` rewind would
  lose the bit generator's cached uint32 half-word: numpy's bounded
  ``integers`` serves 32-bit halves of one uint64 draw across *two*
  calls, and that cache — set by a sawtooth draw *before* an election,
  consumed by the first sawtooth draw *after* it — survives any number
  of interleaved ``random()`` calls.  State restoration carries it;
  counter arithmetic cannot.)

* **Sparse direct draws.**  The sawtooth's ``integers(0, window)`` draws
  happen only at window advances — ``O(log^2 horizon)`` per station — and
  are made directly on the lane's generator at exactly the object
  engine's position in the stream.  (A ``window == 1`` choice consumes no
  generator state at all — numpy short-circuits single-value ranges — so
  sawtooth initialisation is free, matching ``SawtoothState.__init__``.)

Everything else is arithmetic shared with the object engine: wakes at
round start, decisions for lanes with local round >= 1, ``0/1/many``
channel resolution with oblivious jamming, observation delivery to active
lanes, retirement, stop conditions — in the object engine's exact order.

Two capabilities ride on the same per-round structure:

* **Adaptive adversaries.**  A lowered :class:`AdversaryProgram` is one
  Mealy machine per repetition: at each round the stepper gathers
  ``(state, previous outcome) -> wake count / next state`` for every
  live repetition still holding unwoken stations, appends the newly
  woken lanes in chronological order (so lane ``j`` of a repetition is
  its ``j``-th woken station, exactly the object engine's id and RNG
  assignment), and force-wakes the remainder at ``adversary.deadline(k)``
  — mirroring ``SlotSimulator``'s call order, including the state step
  on deadline rounds.

* **Collision-detection feedback.**  Under
  ``FeedbackModel.COLLISION_DETECTION`` every active lane additionally
  receives the round's common channel outcome: on non-success rounds the
  per-repetition outcome maps to ``SYM_CD_SILENCE`` / ``SYM_CD_COLLISION``
  (success rounds keep the ordinary ack / heard-payload symbols, which
  already imply success).  ACK-only machines carry identity transitions
  on the CD columns, so delivery is unconditional and byte-neutral for
  them; ``CdAimdProtocol`` walks its window lattice on exactly these
  symbols.

Speed comes from batching: the per-round numpy cost is amortised over all
``R x k`` lanes, so the engine pays off on repetition sweeps (the
1000-rep acceptance configuration in ``benchmarks/test_bench_compiled.py``
clears 10x over the object engine) while a single small run is dominated
by setup — and a round costs about the same at 100 lanes as at 1000, so
a grid of small cells is dominated by the number of rounds stepped.
:func:`run_compiled_runs` therefore takes runs of *many* specs in one
call: each repetition holds its own ``k`` (a lane range), horizon, stop
round and wake source, and only the program, feedback, stop condition and
``jam_rounds`` are shared.  Dispatch
(:func:`repro.engine.dispatch.execute_fused`) groups compiled-admissible
specs by exactly that key.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import NamedTuple, Optional

import numpy as np

from repro.adversary.base import AdaptiveAdversary, WakeSchedule
from repro.channel.feedback import FeedbackModel
from repro.channel.results import RunResult, StopCondition
from repro.core.spec import RunSpec
from repro.core.station import StationRecord
from repro.engine.compile import (
    ADV_COLLISION,
    ADV_SILENCE,
    ADV_SUCCESS,
    ANK_ELECTION,
    ANK_LEADER,
    ANK_MEMBER,
    ANK_WAITING,
    HEAR_SYMBOL_OF_PAYLOAD,
    OFF,
    PAYLOAD_ANY,
    PAYLOAD_BEACON,
    PAYLOAD_DATA,
    PAYLOAD_DMODE,
    PAYLOAD_PROBE,
    SYM_ACK,
    SYM_CD_COLLISION,
    SYM_CD_SILENCE,
    SYM_HEAR_BEACON,
    SYM_HEAR_DATA,
    SYM_HEAR_DMODE,
    SYM_HEAR_PROBE,
    AdversaryProgram,
    CompiledProgram,
    adversary_lowering_reason,
    compile_adversary,
    compile_spec,
    fuse_programs,
)
from repro.telemetry import registry as telemetry

__all__ = ["CompiledSimulator", "run_compiled_batch", "run_compiled_runs"]

#: "Never happens" sentinel for round numbers (first success / switch-off).
_INF = np.iinfo(np.int64).max

#: Channel outcome (ADV_SILENCE/ADV_SUCCESS/ADV_COLLISION) -> the CD
#: symbol active lanes receive; 0 on success (ack / heard-payload symbols
#: already carry the outcome there).
_CD_SYMBOL_OF_OUTCOME = np.array(
    [SYM_CD_SILENCE, 0, SYM_CD_COLLISION], dtype=np.int8
)


def _resolve_seeds(
    spec: RunSpec, n_reps: Optional[int], seeds: Optional[Sequence[Optional[int]]]
) -> list[Optional[int]]:
    if seeds is None:
        if n_reps is None:
            raise ValueError(
                "run_compiled_batch needs n_reps or an explicit seed list"
            )
        if spec.seed is None:
            raise ValueError(
                "run_compiled_batch(spec, n_reps) derives per-rep seeds from "
                "spec.seed; set spec.seed or pass seeds explicitly"
            )
        return [spec.seed + r for r in range(n_reps)]
    seed_list = [None if s is None else int(s) for s in seeds]
    if n_reps is not None and n_reps != len(seed_list):
        raise ValueError(
            f"n_reps={n_reps} disagrees with len(seeds)={len(seed_list)}"
        )
    return seed_list


class _LaneRng:
    """Per-lane generators with block-prefetched uniform draws.

    ``uniform(idx)`` returns one draw per lane in ``idx``, served from each
    lane's prefetched block (refilled ``buffer_len`` draws at a time).
    ``rewind(idx)`` returns lanes' generators to the position of their last
    *consumed* draw; ``integers(lane, high)`` draws directly (used by the
    sawtooth at window advances, where the stream position must be exact).
    """

    def __init__(self, children: list, buffer_len: int):
        self._gens: list = [None] * len(children)
        self._children = children
        self._buf = np.empty((len(children), buffer_len), dtype=np.float64)
        self._ptr = np.full(len(children), buffer_len, dtype=np.int32)
        self._blen = buffer_len
        # Bit-generator state snapshot taken at each lane's last refill;
        # rewind restores it and replays the consumed prefix.
        self._saved: list = [None] * len(children)

    def _generator(self, lane: int) -> np.random.Generator:
        gen = self._gens[lane]
        if gen is None:
            gen = np.random.Generator(np.random.PCG64(self._children[lane]))
            self._gens[lane] = gen
        return gen

    def uniform(self, idx: np.ndarray) -> np.ndarray:
        ptr = self._ptr
        empty = idx[ptr[idx] >= self._blen]
        if empty.size:
            buf, blen, saved, gens = self._buf, self._blen, self._saved, self._gens
            for lane in empty.tolist():
                gen = gens[lane]
                if gen is None:
                    gen = self._generator(lane)
                saved[lane] = gen.bit_generator.state
                buf[lane] = gen.random(blen)
            ptr[empty] = 0
        u = self._buf[idx, ptr[idx]]
        ptr[idx] += 1
        return u

    def rewind(self, idx: np.ndarray) -> None:
        ptr, blen = self._ptr, self._blen
        pending = idx[ptr[idx] < blen]
        if pending.size == 0:
            return
        for lane, consumed in zip(pending.tolist(), ptr[pending].tolist()):
            gen = self._gens[lane]
            gen.bit_generator.state = self._saved[lane]
            if consumed:
                gen.random(consumed)
        ptr[pending] = blen

    def integers(self, lane: int, high: int) -> int:
        gen = self._gens[lane]
        if gen is None:
            gen = self._generator(lane)
        return int(gen.integers(0, high))


class _Lanes:
    """Flat per-lane state shared by every machine kind."""

    def __init__(self, N: int, program: CompiledProgram):
        self.mode = np.full(N, program.start_mode, dtype=np.int8)
        self.alive = np.ones(N, dtype=bool)
        self.counter = np.zeros(N, dtype=np.int64)  # election_i / wakeup_i
        self.tc = np.zeros(N, dtype=np.int64)  # D-mode virtual clock
        self.window_rounds = np.zeros(N, dtype=np.int8)
        self.saw_message = np.zeros(N, dtype=bool)
        self.saw_probe = np.zeros(N, dtype=bool)
        # Sawtooth window iterator (member odd rounds / SUniform).
        self.st_outer = np.ones(N, dtype=np.int64)
        self.st_window = np.ones(N, dtype=np.int64)
        self.st_position = np.zeros(N, dtype=np.int64)
        self.st_slot = np.zeros(N, dtype=np.int64)
        # GlobalClockUFR's adopted data-round probability (< 0: none yet).
        self.adopted = np.full(N, -1.0, dtype=np.float64)
        # Result accumulators.
        self.fs = np.full(N, _INF, dtype=np.int64)
        self.off = np.full(N, _INF, dtype=np.int64)
        self.tx = np.zeros(N, dtype=np.int64)
        self.listen = np.zeros(N, dtype=np.int64)
        # Per-round scratch (transmit/payload reset on the round's
        # transmitters, sym cleared every round).
        self.transmit = np.zeros(N, dtype=bool)
        self.payload = np.zeros(N, dtype=np.int8)
        self.sym = np.zeros(N, dtype=np.int8)
        self.p_used = np.zeros(N, dtype=np.float64)  # beacon probability


def _reset_waiting(lanes: _Lanes, idx: np.ndarray) -> None:
    lanes.window_rounds[idx] = 0
    lanes.saw_message[idx] = False
    lanes.saw_probe[idx] = False


def _init_sawtooth(lanes: _Lanes, idx: np.ndarray) -> None:
    # SawtoothState.__init__: outer = window = 1, position = 0; the initial
    # _choose_slot() is integers(0, 1), which consumes no generator state.
    lanes.st_outer[idx] = 1
    lanes.st_window[idx] = 1
    lanes.st_position[idx] = 0
    lanes.st_slot[idx] = 0


def _sawtooth_step(lanes: _Lanes, rng: _LaneRng, idx: np.ndarray) -> np.ndarray:
    """One ``SawtoothState.step()`` per lane in ``idx``; returns transmit mask."""
    transmit = lanes.st_position[idx] == lanes.st_slot[idx]
    lanes.st_position[idx] += 1
    adv = idx[lanes.st_position[idx] >= lanes.st_window[idx]]
    if adv.size:
        lanes.st_position[adv] = 0
        shrink = lanes.st_window[adv] > 1
        inner = adv[shrink]
        outer = adv[~shrink]
        lanes.st_window[inner] //= 2
        lanes.st_outer[outer] *= 2
        lanes.st_window[outer] = lanes.st_outer[outer]
        windows = lanes.st_window[adv]
        lanes.st_slot[adv[windows == 1]] = 0
        redraw = adv[windows > 1]
        if redraw.size:
            slots = lanes.st_slot
            for lane, window in zip(
                redraw.tolist(), lanes.st_window[redraw].tolist()
            ):
                slots[lane] = rng.integers(lane, window)
    return transmit


def _white_table(limit: int) -> np.ndarray:
    """``is_white_round(tc)`` for ``tc = 0 .. limit``: powers of two >= 4."""
    white = np.zeros(limit + 1, dtype=bool)
    power = 4
    while power <= limit:
        white[power] = True
        power *= 2
    return white


def run_compiled_batch(
    spec: RunSpec,
    n_reps: Optional[int] = None,
    seeds: Optional[Sequence[Optional[int]]] = None,
    program: Optional[CompiledProgram] = None,
    *,
    tile_reps: Optional[int] = None,
    memory_budget: Optional[object] = None,
) -> list[RunResult]:
    """Execute ``spec`` for every seed through the compiled stepper.

    Returns one :class:`RunResult` per seed, in order, byte-identical to
    object-engine (``SlotSimulator``) runs of ``spec.with_seed(seed)``.
    Spec-level admissibility is the dispatch layer's job; this function
    accepts oblivious :class:`WakeSchedule` adversaries and the lowerable
    :class:`AdaptiveAdversary` machines, ACK-only or collision-detection
    feedback, no stateful jammer and no trace request.

    The one-spec case of :func:`run_compiled_runs` (tiling included).
    """
    seed_list = _resolve_seeds(spec, n_reps, seeds)
    return run_compiled_runs(
        [(spec, seed) for seed in seed_list],
        program,
        tile_reps=tile_reps,
        memory_budget=memory_budget,
    )


class _SpecFacts(NamedTuple):
    """What the stepper reads from one distinct spec of a fused call."""

    k: int
    horizon: int
    adv_program: Optional[AdversaryProgram]
    deadline: int
    protocol_name: str
    adversary_name: str


def _spec_facts(spec: RunSpec) -> _SpecFacts:
    adversary = spec.adversary
    if isinstance(adversary, WakeSchedule):
        adv_program, deadline = None, 0
    elif isinstance(adversary, AdaptiveAdversary):
        reason = adversary_lowering_reason(adversary)
        if reason is not None:
            raise TypeError(f"run_compiled_batch: {reason}")
        adv_program = compile_adversary(adversary)
        deadline = adversary.deadline(spec.k)
    else:
        raise TypeError(
            "run_compiled_batch needs a WakeSchedule or a lowerable "
            "AdaptiveAdversary (spec.adversary is "
            f"{type(adversary).__name__})"
        )
    return _SpecFacts(
        k=spec.k,
        horizon=spec.resolve_horizon(),
        adv_program=adv_program,
        deadline=deadline,
        protocol_name=getattr(spec.protocol_factory, "protocol_name", ""),
        adversary_name=getattr(adversary, "name", ""),
    )


def run_compiled_runs(
    runs: Sequence[tuple[RunSpec, Optional[int]]],
    program: Optional[CompiledProgram] = None,
    *,
    tile_reps: Optional[int] = None,
    memory_budget: Optional[object] = None,
) -> list[RunResult]:
    """Execute every ``(spec, seed)`` run through one compiled stepper pass.

    The runs may come from different specs: each repetition carries its
    own ``k``, horizon and wake source (an oblivious schedule's draw or a
    lowerable adaptive adversary), so a whole grid of cells steps its
    rounds once.  The specs must share feedback, stop condition and
    ``jam_rounds``, and their protocols must lower to one program
    (:func:`repro.engine.compile.fuse_programs`); ``program`` may pass
    that program in.  Result ``i`` is byte-identical to the object-engine
    run of ``runs[i]``: every repetition owns its RNG fan-out, and nothing
    crosses repetitions but the round counter.

    Repetitions stream through memory-bounded tiles sized for the
    costliest spec of the call (slicing the run list is byte-identical
    to one pass).  ``tile_reps``/``memory_budget`` default to the
    process-wide tiling defaults (see :mod:`repro.engine.plan`).
    """
    facts: dict[int, _SpecFacts] = {}
    specs: list[RunSpec] = []
    for spec, _ in runs:
        if id(spec) in facts:
            continue
        first = specs[0] if specs else spec
        if (spec.feedback, spec.stop, spec.jam_rounds) != (
            first.feedback, first.stop, first.jam_rounds
        ):
            raise ValueError(
                "fused compiled runs must share feedback, stop condition "
                f"and jam_rounds ({spec.display_label!r} differs from "
                f"{first.display_label!r})"
            )
        facts[id(spec)] = _spec_facts(spec)
        specs.append(spec)
    if not specs:
        return []
    if program is None:
        program = fuse_programs([compile_spec(spec) for spec in specs])
        if program is None:
            raise ValueError(
                "fused compiled runs must lower to one program; "
                f"{sorted({s.display_label for s in specs})} do not"
            )
    if (
        program.kind == "cd_aimd"
        and specs[0].feedback is not FeedbackModel.COLLISION_DETECTION
    ):
        raise TypeError(
            "CdAimdProtocol requires FeedbackModel.COLLISION_DETECTION "
            "(the object engine raises at the first observation; the "
            "compiled stepper refuses the spec up front)"
        )
    from repro.engine.plan import (
        BatchMemoryError,
        build_plan,
        estimate_rep_bytes,
        oversized_batch_message,
    )

    costliest = (
        specs[0] if len(specs) == 1 else max(specs, key=estimate_rep_bytes)
    )
    plan = build_plan(
        costliest, len(runs), memory_budget=memory_budget, tile_reps=tile_reps
    )
    results: list[RunResult] = []
    for lo, hi in plan.rep_slices():
        with telemetry.span("tile.run"):
            if telemetry.enabled():
                telemetry.count("tile.runs")
                telemetry.count("tile.reps", hi - lo)
            try:
                results.extend(_run_compiled_tile(runs[lo:hi], facts, program))
            except BatchMemoryError:
                raise
            except MemoryError as error:
                raise BatchMemoryError(
                    oversized_batch_message(costliest, hi - lo)
                ) from error
    return results


def _lane_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenated ``range(start, start + count)`` per pair, in order."""
    total = int(counts.sum())
    offsets = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(counts) - counts, counts
    )
    return np.repeat(starts, counts) + offsets


def _run_compiled_tile(
    runs: Sequence[tuple[RunSpec, Optional[int]]],
    facts: dict[int, _SpecFacts],
    program: CompiledProgram,
) -> list[RunResult]:
    """One rep tile: the stepper over ``runs``, one repetition per run.

    Repetition ``r`` owns lanes ``lane_lo[r] .. lane_lo[r + 1] - 1`` (its
    ``k`` stations in chronological wake order) and retires at its own
    stop round or horizon; the loop runs until every repetition has.
    """
    R = len(runs)
    phase = telemetry.timer()
    if phase:
        telemetry.count("compiled.batches")
        telemetry.count("compiled.reps", R)

    first = runs[0][0]
    stop = first.stop
    jam_set = frozenset(first.jam_rounds) if first.jam_rounds is not None else None
    # The object engine consumes one RNG child for the ScheduledJammer it
    # wraps jam_rounds in; mirror that to keep station children aligned.
    base_children = 2 if first.jam_rounds is not None else 1
    cd = first.feedback is FeedbackModel.COLLISION_DETECTION

    rep_facts = [facts[id(spec)] for spec, _ in runs]
    k_rep = np.array([f.k for f in rep_facts], dtype=np.int64)
    max_rep = np.array([f.horizon for f in rep_facts], dtype=np.int64)
    adaptive_rep = np.array(
        [f.adv_program is not None for f in rep_facts], dtype=bool
    )
    lane_lo = np.zeros(R + 1, dtype=np.int64)
    np.cumsum(k_rep, out=lane_lo[1:])
    lane_bounds = lane_lo.tolist()
    N = lane_bounds[-1]
    max_rounds = int(max_rep.max())
    any_adaptive = bool(adaptive_rep.any())
    # The adversary tables (and CD delivery) need the per-repetition
    # channel outcome every round, even on jammed ones.
    need_outcome = any_adaptive or cd

    # ---- per-repetition seed fan-out and wake draws (chronological).
    # Adaptive repetitions decide wake rounds online (wake stays _INF
    # until then); their lanes are still pre-assigned in chronological
    # wake order (the j-th lane of a repetition becomes its j-th woken
    # station), so the RNG children pair up exactly as the object
    # engine's successive next_generator() calls.  Their adversary child
    # (kids[0]) is spawned for stream alignment; none of the lowerable
    # adversaries draws from it.
    wake = np.full(N, _INF, dtype=np.int64)
    children: list = [None] * N
    for rep, (spec, seed) in enumerate(runs):
        k = rep_facts[rep].k
        lo = lane_bounds[rep]
        kids = np.random.SeedSequence(seed).spawn(base_children + k)
        children[lo : lo + k] = kids[base_children:]
        if rep_facts[rep].adv_program is None:
            adversary_rng = np.random.Generator(np.random.PCG64(kids[0]))
            rounds = spec.adversary.wake_rounds(k, adversary_rng)
            if len(rounds) != k:
                raise ValueError(
                    f"adversary produced {len(rounds)} wake rounds for k={k}"
                )
            drawn = np.asarray(rounds, dtype=np.int64)
            # Stations are anonymous: the object engine assigns ids and RNG
            # children in chronological wake order, so sort each repetition's
            # draws and pair child j with the j-th woken station.
            drawn.sort(kind="stable")
            wake[lo : lo + k] = drawn

    rep_of = np.repeat(np.arange(R, dtype=np.int64), k_rep)
    lanes = _Lanes(N, program)
    rng = _LaneRng(children, program.buffer_len)

    # ---- per-repetition bookkeeping.
    woken = np.zeros(R, dtype=np.int64)
    succeeded = np.zeros(R, dtype=np.int64)
    switched_off = np.zeros(R, dtype=np.int64)
    rep_live = np.ones(R, dtype=bool)
    stop_round = max_rep.copy()
    rep_completed = np.zeros(R, dtype=bool)
    # Repetitions by horizon: one past its horizon a repetition retires
    # uncompleted, exactly where the object engine's loop ends.
    expiry_order = np.argsort(max_rep, kind="stable")
    expiry = max_rep[expiry_order].tolist()
    expiry_order = expiry_order.tolist()
    expiry_ptr = 0

    kind = program.kind
    adaptive = kind == "adaptive_no_k"
    white = _white_table(max_rounds + 1) if adaptive else None
    horizon = program.horizon
    listen_window = program.listen_window
    next_mode = program.next_mode
    ack_guard = program.ack_payload_guard
    parity_guard = program.control_parity_guard
    prob_rows = program.prob_rows

    # Oblivious lanes sorted by wake round: pointer sweeps turn per-round
    # wake processing into O(1) amortised work instead of an O(N) scan.
    # Adaptive lanes (wake _INF) sort last and are left out.
    n_oblivious = int(k_rep[~adaptive_rep].sum())
    wake_order = np.argsort(wake, kind="stable")[:n_oblivious]
    wake_sorted = wake[wake_order]
    wake_ptr = int(np.searchsorted(wake_sorted, 0, side="right"))
    woken += np.bincount(rep_of[wake_order[:wake_ptr]], minlength=R)
    started_ptr = 0
    pending_started = np.empty(0, dtype=np.int64)
    if any_adaptive:
        # Online wakes: per-repetition Mealy state plus the previous
        # round's outcome drive the wake counts; the deadline force-wake
        # mirrors SlotSimulator (wake_now is still "called" first — the
        # state steps on deadline rounds too).  Distinct adversary
        # programs are stacked into one table set, each repetition's
        # state offset into its own block.
        adv_state = np.zeros(R, dtype=np.int64)
        deadline = np.zeros(R, dtype=np.int64)
        wake0 = np.zeros(R, dtype=np.int64)
        offsets: dict[int, int] = {}
        next_parts: list[np.ndarray] = []
        wake_parts: list[np.ndarray] = []
        for rep in np.flatnonzero(adaptive_rep).tolist():
            f = rep_facts[rep]
            prog = f.adv_program
            offset = offsets.get(id(prog))
            if offset is None:
                offset = offsets[id(prog)] = sum(len(p) for p in next_parts)
                next_parts.append(prog.next_state + offset)
                wake_parts.append(prog.wake_count)
            adv_state[rep] = offset + prog.start_state
            deadline[rep] = f.deadline
            wake0[rep] = min(prog.wake0, f.k)
        adv_next = np.concatenate(next_parts)
        adv_wake = np.concatenate(wake_parts)
        prev_outcome = np.zeros(R, dtype=np.int64)  # round 1 sees silence
        # Round 0: the unconditional wake_now(0, []) before the loop.
        pending_started = _lane_ranges(lane_lo[:-1], wake0)
        wake[pending_started] = 0
        woken += wake0

    def _switch_off(idx: np.ndarray, at_round: int) -> None:
        lanes.alive[idx] = False
        lanes.off[idx] = at_round
        np.add.at(switched_off, rep_of[idx], 1)

    def _retire(reps: list[int]) -> None:
        # A stopped repetition's lanes never act again; they leave the
        # active pool at the next round's filter.
        for rep in reps:
            lanes.alive[lane_bounds[rep] : lane_bounds[rep + 1]] = False

    if phase:
        phase.lap("compiled.setup")

    # pool: started lanes not yet known to be dead, ascending (so the
    # per-repetition winner search below sees repetition-major order).
    pool = np.empty(0, dtype=np.int64)
    t = 0
    while t < max_rounds and rep_live.any():
        t += 1
        # 0. Repetitions past their own horizon retire uncompleted.
        if expiry_ptr < R and expiry[expiry_ptr] < t:
            expired = []
            while expiry_ptr < R and expiry[expiry_ptr] < t:
                rep = expiry_order[expiry_ptr]
                expiry_ptr += 1
                if rep_live[rep]:
                    rep_live[rep] = False
                    expired.append(rep)
            _retire(expired)
        # 1. Wakes at the start of round t (dead repetitions stopped in an
        # earlier round; their later wakes never happen and are excluded
        # from the records by the wake <= rounds_executed filter).
        if wake_ptr < n_oblivious and wake_sorted[wake_ptr] == t:
            start = wake_ptr
            wake_ptr = int(np.searchsorted(wake_sorted, t, side="right"))
            np.add.at(woken, rep_of[wake_order[start:wake_ptr]], 1)
        # Lanes woken before this round become active (local round >= 1).
        new_lanes = pending_started
        if started_ptr < n_oblivious and wake_sorted[started_ptr] < t:
            start = started_ptr
            started_ptr = int(np.searchsorted(wake_sorted, t, side="left"))
            new_lanes = np.concatenate((new_lanes, wake_order[start:started_ptr]))
        if new_lanes.size:
            new_lanes.sort()
            pool = np.insert(pool, np.searchsorted(pool, new_lanes), new_lanes)
        if any_adaptive:
            # SlotSimulator consults wake_now only while stations remain
            # (and only for still-running repetitions), so the adversary
            # state freezes exactly when the object engine stops calling.
            eligible = np.flatnonzero(rep_live & adaptive_rep & (woken < k_rep))
            pending_started = pending_started[:0]
            if eligible.size:
                s = adv_state[eligible]
                y = prev_outcome[eligible]
                adv_state[eligible] = adv_next[s, y]
                budget = k_rep[eligible] - woken[eligible]
                want = np.where(
                    t >= deadline[eligible],
                    budget,
                    np.minimum(adv_wake[s, y], budget),
                )
                waking = want > 0
                if waking.any():
                    reps_w = eligible[waking]
                    counts_w = want[waking]
                    pending_started = _lane_ranges(
                        lane_lo[reps_w] + woken[reps_w], counts_w
                    )
                    wake[pending_started] = t
                    woken[reps_w] += counts_w
        pool = pool[lanes.alive[pool]]
        act = pool
        if act.size == 0:
            # No station can act; the channel is silent (an empty round is
            # SILENCE even when jammed) and only the stop check below can
            # change anything.
            if any_adaptive:
                prev_outcome.fill(ADV_SILENCE)
            _retire(_check_stops(
                stop, rep_live, woken, succeeded, switched_off, k_rep,
                stop_round, rep_completed, t,
            ))
            continue

        # 2. Decisions (lanes with local round >= 1).  The transmit and
        # payload scratch is clear: last round reset its transmitters.
        if kind == "schedule":
            act = _decide_schedule(lanes, rng, act, prob_rows[0], horizon,
                                   wake, t, rep_of, switched_off)
        elif kind == "suniform":
            _decide_suniform(lanes, rng, act)
        elif kind == "global_clock":
            _decide_global_clock(lanes, rng, act, prob_rows[0], t)
        elif kind == "cd_aimd":
            _decide_cd_aimd(lanes, rng, act, prob_rows)
        else:
            _decide_adaptive(lanes, rng, act, prob_rows[ANK_ELECTION], white)
        transmitting = lanes.transmit[act]
        tx_lanes = act[transmitting]
        lanes.tx[tx_lanes] += 1
        if program.requires_listening:
            lanes.listen[act[~transmitting]] += 1

        # 3. Channel resolution per repetition: success iff exactly one
        # transmitter and the round is not jammed.
        jammed = jam_set is not None and t in jam_set
        counts = None
        if tx_lanes.size and (not jammed or need_outcome):
            tx_reps = rep_of[tx_lanes]
            counts = np.bincount(tx_reps, minlength=R)
        if counts is not None and not jammed:
            success_reps = np.flatnonzero(counts == 1)
            # tx_lanes ascends in lane order (= repetition-major), so the
            # winner of rep r sits at the first position with rep == r.
            winners = tx_lanes[np.searchsorted(tx_reps, success_reps)]
        else:
            success_reps = np.empty(0, dtype=np.int64)
            winners = np.empty(0, dtype=np.int64)
        if need_outcome:
            # The common outcome per repetition, RoundOutcome semantics:
            # a jammed round with any transmitter is a COLLISION (even
            # m == 1 — the winner is destroyed), a jammed empty round
            # stays SILENCE.
            if counts is None:
                outcome_rep = np.zeros(R, dtype=np.int64)
            elif jammed:
                outcome_rep = np.where(counts > 0, ADV_COLLISION, ADV_SILENCE)
            else:
                outcome_rep = np.where(
                    counts >= 2,
                    ADV_COLLISION,
                    np.where(counts == 1, ADV_SUCCESS, ADV_SILENCE),
                )
            if any_adaptive:
                prev_outcome = outcome_rep

        # 4. Observations: first-success bookkeeping, then the machine's
        # symbol-driven transitions.
        if winners.size:
            new_successes = winners[lanes.fs[winners] == _INF]
            if new_successes.size:
                lanes.fs[new_successes] = t
                succeeded[rep_of[new_successes]] += 1

        lanes.sym.fill(0)
        lanes.sym[winners] = SYM_ACK
        if program.requires_listening and winners.size:
            hear_sym = np.zeros(R, dtype=np.int8)
            hear_sym[success_reps] = HEAR_SYMBOL_OF_PAYLOAD[
                lanes.payload[winners]
            ]
            listeners = act[
                ~lanes.transmit[act] & (hear_sym[rep_of[act]] != 0)
            ]
            lanes.sym[listeners] = hear_sym[rep_of[listeners]]
        if cd:
            # Non-success rounds deliver the common outcome to every
            # active lane (transmitting losers included); success rounds
            # map to 0 and keep their ack / heard-payload symbols.
            cd_sym = _CD_SYMBOL_OF_OUTCOME[outcome_rep[rep_of[act]]]
            hit = cd_sym != 0
            if hit.any():
                lanes.sym[act[hit]] = cd_sym[hit]

        if adaptive:
            _observe_adaptive(
                lanes, rng, act, listen_window,
                next_mode, ack_guard, parity_guard, t,
                lambda idx: _switch_off(idx, t),
            )
        elif kind == "cd_aimd":
            _observe_cd_aimd(
                lanes, act, next_mode, lambda idx: _switch_off(idx, t)
            )
        else:
            _observe_simple(
                lanes, act, kind, next_mode, t,
                winners, success_reps, rep_of,
                lambda idx: _switch_off(idx, t),
            )

        lanes.transmit[tx_lanes] = False
        lanes.payload[tx_lanes] = 0

        # 5. Stop conditions (after retirement, as the object engine).
        _retire(_check_stops(
            stop, rep_live, woken, succeeded, switched_off, k_rep,
            stop_round, rep_completed, t,
        ))

    if phase:
        telemetry.count("compiled.rounds", t)
        phase.lap("compiled.step")

    # ---- materialise per-repetition results (object-engine view: only
    # stations woken by the stop round exist, ids in wake order).
    rounds_executed = stop_round.tolist()
    completed = rep_completed.tolist()
    fs_list = lanes.fs.tolist()
    off_list = lanes.off.tolist()
    tx_list = lanes.tx.tolist()
    listen_list = lanes.listen.tolist()
    wake_list = wake.tolist()
    results = []
    for rep, (_, seed) in enumerate(runs):
        upto = rounds_executed[rep]
        base = lane_bounds[rep]
        count = int(
            np.searchsorted(wake[base : lane_bounds[rep + 1]], upto, side="right")
        )
        records = [
            StationRecord(
                station_id=i,
                wake_round=wake_list[base + i],
                first_success_round=(
                    None if fs_list[base + i] == _INF else fs_list[base + i]
                ),
                switch_off_round=(
                    None if off_list[base + i] == _INF else off_list[base + i]
                ),
                transmissions=tx_list[base + i],
                listening_slots=listen_list[base + i],
            )
            for i in range(count)
        ]
        results.append(
            RunResult(
                records=records,
                rounds_executed=upto,
                completed=completed[rep],
                stop=stop,
                trace=None,
                seed=seed,
                protocol_name=rep_facts[rep].protocol_name,
                adversary_name=rep_facts[rep].adversary_name,
            )
        )
    if phase:
        phase.lap("compiled.materialize")
    return results


def _check_stops(
    stop: StopCondition,
    rep_live: np.ndarray,
    woken: np.ndarray,
    succeeded: np.ndarray,
    switched_off: np.ndarray,
    k: np.ndarray,
    stop_round: np.ndarray,
    rep_completed: np.ndarray,
    t: int,
) -> list[int]:
    """Retire repetitions whose stop condition is met; return their ids."""
    if stop is StopCondition.FIRST_SUCCESS:
        met = succeeded >= 1
    elif stop is StopCondition.ALL_SUCCEEDED:
        met = (woken >= k) & (succeeded >= k)
    else:
        met = (woken >= k) & (switched_off >= k)
    done = rep_live & met
    if not done.any():
        return []
    idx = np.flatnonzero(done)
    rep_live[idx] = False
    stop_round[idx] = t
    rep_completed[idx] = True
    return idx.tolist()


# ------------------------------------------------------------ decide rules


def _decide_schedule(
    lanes: _Lanes,
    rng: _LaneRng,
    act: np.ndarray,
    row: np.ndarray,
    horizon: Optional[int],
    wake: np.ndarray,
    t: int,
    rep_of: np.ndarray,
    switched_off: np.ndarray,
) -> np.ndarray:
    """ScheduleProtocol.decide: horizon switch-off, then a gated draw.

    Returns the still-active subset (horizon retirees neither transmit nor
    listen nor observe this round, exactly as ``Station.decide``).
    """
    local = t - wake[act]
    if horizon is not None:
        done = local > horizon
        if done.any():
            retired = act[done]
            lanes.alive[retired] = False
            lanes.off[retired] = t
            np.add.at(switched_off, rep_of[retired], 1)
            act = act[~done]
            local = local[~done]
    p = row[local - 1]
    drawers = act[p > 0.0]
    if drawers.size:
        u = rng.uniform(drawers)
        hit = drawers[u < p[p > 0.0]]
        lanes.transmit[hit] = True
        lanes.payload[hit] = PAYLOAD_DATA
    return act


def _decide_suniform(lanes: _Lanes, rng: _LaneRng, act: np.ndarray) -> None:
    hit = act[_sawtooth_step(lanes, rng, act)]
    lanes.transmit[hit] = True
    lanes.payload[hit] = PAYLOAD_DATA


def _decide_global_clock(
    lanes: _Lanes, rng: _LaneRng, act: np.ndarray, wake_row: np.ndarray, t: int
) -> None:
    # Global round == wake + local == t for every station, so the whole
    # batch shares the parity split.
    if t % 2 == 1:
        # Odd: one DecreaseSlowly wake-up step each; a hit is a beacon
        # carrying the probability used.
        p = wake_row[lanes.counter[act]]
        lanes.counter[act] += 1
        u = rng.uniform(act)
        hit = act[u < p]
        lanes.transmit[hit] = True
        lanes.payload[hit] = PAYLOAD_BEACON
        lanes.p_used[act] = p
    else:
        # Even: data round at the adopted probability; silent (and
        # drawless) until a beacon has been heard.
        adopted = lanes.adopted[act]
        drawers = act[adopted >= 0.0]
        if drawers.size:
            u = rng.uniform(drawers)
            hit = drawers[u < lanes.adopted[drawers]]
            lanes.transmit[hit] = True
            lanes.payload[hit] = PAYLOAD_DATA


def _decide_cd_aimd(
    lanes: _Lanes, rng: _LaneRng, act: np.ndarray, prob_rows: np.ndarray
) -> None:
    # CdAimdProtocol.decide draws one uniform per active round
    # unconditionally (rng.random() < 1/W), so every act lane consumes
    # exactly one buffered draw at its mode's lattice probability.
    p = prob_rows[lanes.mode[act], 0]
    u = rng.uniform(act)
    hit = act[u < p]
    lanes.transmit[hit] = True
    lanes.payload[hit] = PAYLOAD_DATA


def _decide_adaptive(
    lanes: _Lanes,
    rng: _LaneRng,
    act: np.ndarray,
    election_row: np.ndarray,
    white: np.ndarray,
) -> None:
    modes = lanes.mode[act]
    election = act[modes == ANK_ELECTION]
    if election.size:
        p = election_row[lanes.counter[election]]
        lanes.counter[election] += 1
        u = rng.uniform(election)
        hit = election[u < p]
        lanes.transmit[hit] = True
        lanes.payload[hit] = PAYLOAD_DATA
    dmode = act[modes >= ANK_MEMBER]
    if dmode.size == 0:
        return
    # The shared virtual clock advances first (first D round has tc == 1).
    lanes.tc[dmode] += 1
    tc = lanes.tc[dmode]
    odd = (tc & 1) == 1
    is_member = lanes.mode[dmode] == ANK_MEMBER
    member_odd = dmode[odd & is_member]
    if member_odd.size:
        hit = member_odd[_sawtooth_step(lanes, rng, member_odd)]
        lanes.transmit[hit] = True
        lanes.payload[hit] = PAYLOAD_DATA
    even = dmode[~odd]
    if even.size:
        even_white = white[lanes.tc[even]]
        probing = even[even_white]
        lanes.transmit[probing] = True
        lanes.payload[probing] = PAYLOAD_PROBE
        announcing = even[~even_white & (lanes.mode[even] == ANK_LEADER)]
        lanes.transmit[announcing] = True
        lanes.payload[announcing] = PAYLOAD_DMODE


# ----------------------------------------------------------- observe rules


def _observe_simple(
    lanes: _Lanes,
    act: np.ndarray,
    kind: str,
    next_mode: np.ndarray,
    t: int,
    winners: np.ndarray,
    success_reps: np.ndarray,
    rep_of: np.ndarray,
    switch_off,
) -> None:
    """Single-mode machines: the only transitions are ack-driven."""
    if kind == "global_clock" and success_reps.size:
        # Adopt the winning beacon's announced probability.  The winner's
        # p_used is only meaningful on odd (beacon) rounds, and only
        # beacon payloads reach listeners as SYM_HEAR_BEACON.
        beacon_reps = success_reps[
            lanes.payload[winners] == PAYLOAD_BEACON
        ]
        if beacon_reps.size:
            beacon_p = np.zeros(rep_of.max() + 1 if rep_of.size else 1)
            beacon_winners = winners[lanes.payload[winners] == PAYLOAD_BEACON]
            beacon_p[beacon_reps] = lanes.p_used[beacon_winners]
            hearers = act[
                ~lanes.transmit[act]
                & np.isin(rep_of[act], beacon_reps)
            ]
            lanes.adopted[hearers] = beacon_p[rep_of[hearers]]
    if winners.size and next_mode[0, SYM_ACK] == OFF:
        switch_off(winners)


def _observe_cd_aimd(
    lanes: _Lanes,
    act: np.ndarray,
    next_mode: np.ndarray,
    switch_off,
) -> None:
    """MIMD window walk: a plain (mode, symbol) gather, no guards.

    An ack switches off (the early return in ``CdAimdProtocol.observe``
    means ack beats the channel update); SYM_CD_COLLISION climbs the
    window lattice, SYM_CD_SILENCE descends it, heard-payload symbols
    (success rounds) hold the operating point via identity columns.
    """
    m0 = lanes.mode[act]
    target = next_mode[m0, lanes.sym[act]]
    moved = target != m0
    if not moved.any():
        return
    changed = act[moved]
    dst = target[moved]
    to_off = changed[dst == OFF]
    if to_off.size:
        switch_off(to_off)
    surviving = dst != OFF
    lanes.mode[changed[surviving]] = dst[surviving]


def _observe_adaptive(
    lanes: _Lanes,
    rng: _LaneRng,
    act: np.ndarray,
    listen_window: int,
    next_mode: np.ndarray,
    ack_guard: np.ndarray,
    parity_guard: np.ndarray,
    t: int,
    switch_off,
) -> None:
    mode0 = lanes.mode[act]

    # WAITING: counter-driven window bookkeeping (no symbol transition).
    waiting = act[mode0 == ANK_WAITING]
    if waiting.size:
        lanes.window_rounds[waiting] += 1
        sym_w = lanes.sym[waiting]
        # "Heard a message" means a successful payload — the CD outcome
        # symbols (silence/collision) are not messages.
        heard = (sym_w >= SYM_HEAR_DATA) & (sym_w <= SYM_HEAR_BEACON)
        lanes.saw_message[waiting[heard]] = True
        lanes.saw_probe[waiting[sym_w == SYM_HEAR_PROBE]] = True
        full = waiting[lanes.window_rounds[waiting] == listen_window]
        if full.size:
            join = full[
                ~lanes.saw_message[full] | lanes.saw_probe[full]
            ]
            _reset_waiting(lanes, full)
            if join.size:
                lanes.mode[join] = ANK_ELECTION
                lanes.counter[join] = 0

    # ELECTION / MEMBER / LEADER: the (mode, symbol) table, with the two
    # guards the pseudocode needs (ack payload kind, member tc parity).
    rest = act[mode0 != ANK_WAITING]
    if rest.size == 0:
        return
    m0 = lanes.mode[rest]
    sym = lanes.sym[rest]
    target = next_mode[m0, sym].astype(np.int8)
    is_ack = sym == SYM_ACK
    if is_ack.any():
        guard = ack_guard[m0]
        vetoed = is_ack & (guard != PAYLOAD_ANY) & (lanes.payload[rest] != guard)
        target[vetoed] = m0[vetoed]
    control = (sym == SYM_HEAR_PROBE) | (sym == SYM_HEAR_DMODE)
    if control.any():
        vetoed = control & parity_guard[m0] & ((lanes.tc[rest] & 1) == 0)
        target[vetoed] = m0[vetoed]
    moved = target != m0
    if not moved.any():
        return
    changed = rest[moved]
    src = m0[moved]
    dst = target[moved]

    # Exit action: leaving the election returns the unconsumed prefetched
    # uniforms, so the next draw kind starts at the exact stream position.
    leaving_election = changed[src == ANK_ELECTION]
    if leaving_election.size:
        rng.rewind(leaving_election)

    # Entry actions per target mode.
    to_off = changed[dst == OFF]
    if to_off.size:
        switch_off(to_off)
    to_member = changed[dst == ANK_MEMBER]
    if to_member.size:
        lanes.tc[to_member] = 0
        _init_sawtooth(lanes, to_member)
    to_leader = changed[dst == ANK_LEADER]
    if to_leader.size:
        lanes.tc[to_leader] = 0
    to_waiting = changed[dst == ANK_WAITING]
    if to_waiting.size:
        _reset_waiting(lanes, to_waiting)
    surviving = dst != OFF
    lanes.mode[changed[surviving]] = dst[surviving]


class CompiledSimulator:
    """Single-run facade over :func:`run_compiled_batch`.

    Mirrors the constructor-free engine surface of dispatch: build from a
    spec, call :meth:`run`.  The batch path with one repetition *is* the
    single-run semantics (per-repetition state never crosses lanes).
    """

    def __init__(self, spec: RunSpec, program: Optional[CompiledProgram] = None):
        self.spec = spec
        self.program = program if program is not None else compile_spec(spec)

    def run(self) -> RunResult:
        (result,) = run_compiled_batch(
            self.spec, seeds=[self.spec.seed], program=self.program
        )
        return result
