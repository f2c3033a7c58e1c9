"""Protocol-to-table compilation: the lowering pass of the compiled engine.

The object engine runs one Python object per station per round — flexible,
but ~250x too slow for the horizons the stability sweeps need.  Every
protocol the paper actually analyses, however, is a *finite state
machine*: a station is always in one of a handful of modes (waiting,
electing, disseminating, ...), its transmission probability in a mode is
a pure function of a per-mode counter, and its mode changes only in
response to the per-round feedback symbol (ack / heard-data /
heard-control / nothing).  That structure lowers to two tables:

* ``prob_rows`` — ``(mode, counter) -> transmission probability``: the
  Bernoulli parameter a station in ``mode`` uses on its ``counter``-th
  draw round.  For ``AdaptiveNoK`` the only stochastic mode is the
  leader election, whose row is the ``DecreaseSlowly`` sequence
  ``q / (2q + i)``; for a schedule run the row is the schedule's
  probability table; for ``GlobalClockUFR`` it is the odd-round wake-up
  sequence.

* ``next_mode`` — ``(mode, feedback symbol) -> next mode``: the
  symbol-driven transition table, gathered per station per round with
  ``np.take``-style indexing by the stepper
  (:mod:`repro.channel.compiled`).  ``OFF`` (-1) encodes permanent
  switch-off.

The feedback alphabet is *ternary-aware*: besides the ACK-only symbols
(ack / heard-payload / nothing) it carries two collision-detection
columns, ``SYM_CD_SILENCE`` and ``SYM_CD_COLLISION`` — the common
channel outcome every active station perceives on a non-success round
under ``FeedbackModel.COLLISION_DETECTION``.  Machines that ignore the
channel (every ACK-only lowering) keep identity transitions on those
columns, so one table format serves both feedback models;
``CdAimdProtocol`` is lowered onto them as a window-lattice walk
(:func:`_compile_cd_aimd`).

The same Mealy-machine treatment extends to *adaptive adversaries*: the
four concrete strategies in :mod:`repro.adversary.adaptive` are finite
state machines over the ternary channel outcome, so
:func:`compile_adversary` lowers each to an :class:`AdversaryProgram`
holding ``(state, outcome) -> next state`` and ``(state, outcome) ->
wake count`` tables, stepped once per (repetition, round) by the
compiled stepper — lane-synchronously with the protocol tables.

Two structured side channels keep the tables honest where a pure
``(mode, symbol)`` gather cannot express the pseudocode:

* ``ack_payload_guard`` — the ACK transition of a mode fires only when
  the round's own payload had the guarded kind (``AdaptiveNoK`` members
  switch off on a *data* ack but shrug off a probe ack; the leader the
  reverse);
* ``control_parity_guard`` — the heard-control transition fires only on
  odd virtual-clock rounds (the member clock-desync rule).

Counter-driven behaviour that no symbol triggers — the 4-round waiting
window, the sawtooth window advance, the schedule horizon switch-off —
stays in the stepper, driven by the program's scalar parameters.  The
sawtooth's one-slot-per-window draws are the *dependent-rounds* exception
the vectorised engine already carves out for ``SawtoothSchedule``: its
probability is not a pure function of the counter, so it is executed by
per-window ``integers`` draws rather than a table row.

The lowering is **exact**: executed by the compiled stepper with the
per-station RNG draw order preserved, a compiled program is byte-identical
to the object engine per seed (``tests/test_engine_fuzz.py`` proves this
property over the whole admissible space).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.adversary.adaptive import (
    AntiLeaderAdversary,
    BurstOnQuietAdversary,
    DripFeedAdversary,
    WakeOnSuccessAdversary,
)
from repro.baselines.cd_adaptive import CdAimdProtocol
from repro.core.protocol import ProbabilitySchedule, ScheduleProtocol
from repro.core.protocols.adaptive_no_k import LISTEN_WINDOW, AdaptiveNoK
from repro.core.protocols.global_clock import GlobalClockUFR
from repro.core.protocols.suniform import SUniform
from repro.core.spec import RunSpec
from repro.engine.cache import probability_table

__all__ = [
    "CompileError",
    "CompiledProgram",
    "AdversaryProgram",
    "compile_spec",
    "compile_adversary",
    "fuse_programs",
    "lowering_reason",
    "adversary_lowering_reason",
    "OFF",
    "PAYLOAD_NONE",
    "PAYLOAD_DATA",
    "PAYLOAD_PROBE",
    "PAYLOAD_DMODE",
    "PAYLOAD_BEACON",
    "PAYLOAD_ANY",
    "SYM_NOTHING",
    "SYM_ACK",
    "SYM_HEAR_DATA",
    "SYM_HEAR_PROBE",
    "SYM_HEAR_DMODE",
    "SYM_HEAR_BEACON",
    "SYM_CD_SILENCE",
    "SYM_CD_COLLISION",
    "N_SYMBOLS",
    "ADV_SILENCE",
    "ADV_SUCCESS",
    "ADV_COLLISION",
    "ADV_N_SYMBOLS",
    "MAX_CD_MODES",
]

# ---------------------------------------------------------------- alphabets

#: Payload kinds a lowered machine can transmit in one round.
PAYLOAD_NONE, PAYLOAD_DATA, PAYLOAD_PROBE, PAYLOAD_DMODE, PAYLOAD_BEACON = range(5)
#: Wildcard for :attr:`CompiledProgram.ack_payload_guard`: ack always fires.
PAYLOAD_ANY = -1

#: Feedback symbols: what one station perceived this round.  The first
#: six are the ACK_ONLY alphabet; the last two are the ternary
#: collision-detection columns every active station receives on a
#: non-success round under ``FeedbackModel.COLLISION_DETECTION`` (a
#: success round delivers the ordinary ack / heard-payload symbols,
#: which already imply ``RoundOutcome.SUCCESS``).
(
    SYM_NOTHING,
    SYM_ACK,
    SYM_HEAR_DATA,
    SYM_HEAR_PROBE,
    SYM_HEAR_DMODE,
    SYM_HEAR_BEACON,
    SYM_CD_SILENCE,
    SYM_CD_COLLISION,
) = range(8)
N_SYMBOLS = 8

#: Channel outcomes as the *adversary* tables see them — the encoding
#: matches ``RoundOutcome`` semantics (silence / success / collision) and
#: doubles as the per-repetition outcome index computed by the stepper.
ADV_SILENCE, ADV_SUCCESS, ADV_COLLISION = range(3)
ADV_N_SYMBOLS = 3

#: ``next_mode`` sentinel: the station switches off permanently.
OFF = -1

#: Map a winner's payload kind to the symbol its listeners receive.
HEAR_SYMBOL_OF_PAYLOAD = np.array(
    [SYM_NOTHING, SYM_HEAR_DATA, SYM_HEAR_PROBE, SYM_HEAR_DMODE, SYM_HEAR_BEACON],
    dtype=np.int8,
)


class CompileError(ValueError):
    """The spec's protocol has no table lowering."""


@dataclass
class CompiledProgram:
    """One protocol state machine lowered to table form.

    The stepper treats a program as data: the same per-round gather loop
    executes every ``kind``, with the kind only selecting which decide
    rule fills the transmit mask (table row draw, sawtooth slot, or the
    global-clock parity split).
    """

    kind: str  # "schedule" | "suniform" | "adaptive_no_k" | "global_clock" | "cd_aimd"
    mode_names: tuple[str, ...]
    start_mode: int
    #: (n_modes, horizon) Bernoulli parameter by (mode, per-mode counter).
    prob_rows: np.ndarray
    #: (n_modes, N_SYMBOLS) -> next mode id, or OFF.  Default: stay.
    next_mode: np.ndarray
    #: (n_modes,) payload kind the ACK transition requires (PAYLOAD_ANY = no guard).
    ack_payload_guard: np.ndarray
    #: (n_modes,) heard-control transitions fire only on odd tc rounds.
    control_parity_guard: np.ndarray
    #: Station listens (pays a listening slot) on non-transmit rounds.
    requires_listening: bool = True
    #: Whether any mode consumes buffered uniform draws.
    draws_uniform: bool = True
    #: Schedule machines only: local-round horizon (switch off past it).
    horizon: Optional[int] = None
    #: Schedule machines only: ack-triggered switch-off semantics.
    switch_off_on_ack: bool = True
    #: DecreaseSlowly constant (adaptive_no_k / global_clock).
    q: float = 2.0
    #: Waiting-window length (adaptive_no_k).
    listen_window: int = LISTEN_WINDOW
    #: Uniform-draw prefetch block per station (see the stepper docs).
    buffer_len: int = 64

    @property
    def n_modes(self) -> int:
        return len(self.mode_names)

    def signature(self) -> tuple:
        """Everything about the program except the length of its
        probability rows: two programs with equal signatures whose rows
        agree on their common prefix are the same machine lowered at two
        horizons (see :func:`fuse_programs`)."""
        return (
            self.kind,
            self.mode_names,
            self.start_mode,
            self.prob_rows.shape[0],
            self.next_mode.tobytes(),
            self.ack_payload_guard.tobytes(),
            self.control_parity_guard.tobytes(),
            self.requires_listening,
            self.draws_uniform,
            self.horizon,
            self.switch_off_on_ack,
            self.q,
            self.listen_window,
            self.buffer_len,
        )

    def __post_init__(self) -> None:
        self.prob_rows = np.ascontiguousarray(self.prob_rows, dtype=np.float64)
        self.next_mode = np.ascontiguousarray(self.next_mode, dtype=np.int8)
        self.ack_payload_guard = np.ascontiguousarray(
            self.ack_payload_guard, dtype=np.int8
        )
        self.control_parity_guard = np.ascontiguousarray(
            self.control_parity_guard, dtype=bool
        )
        for table in (
            self.prob_rows,
            self.next_mode,
            self.ack_payload_guard,
            self.control_parity_guard,
        ):
            table.setflags(write=False)


@dataclass
class AdversaryProgram:
    """One adaptive adversary lowered to Mealy-machine tables.

    The object engine calls ``wake_now(t, history)`` once per round while
    stations remain, with the previous round's outcome as the only
    history the four concrete strategies consult.  That is a Mealy
    machine over the ternary outcome alphabet: entering round ``t`` in
    ``state`` with the previous round's outcome ``y``, the adversary
    wakes ``wake_count[state, y]`` stations and moves to
    ``next_state[state, y]``.  Round 0 is special-cased by every
    strategy (``wake_now(0, [])`` before the loop, no state change), so
    it is a scalar, ``wake0``.  The force-wake ``deadline`` stays a
    runtime call on the adversary instance (``DripFeedAdversary``
    overrides it).

    Outcome encoding is :data:`ADV_SILENCE` / :data:`ADV_SUCCESS` /
    :data:`ADV_COLLISION`; round 1 sees an empty history, which every
    strategy treats as a non-success — the stepper's initial
    ``ADV_SILENCE`` reproduces that exactly.
    """

    kind: str  # "burst_on_quiet" | "wake_on_success" | "anti_leader" | "drip"
    start_state: int
    #: Stations woken by the unconditional round-0 call (clamped to k).
    wake0: int
    #: (n_states, ADV_N_SYMBOLS) -> next state.
    next_state: np.ndarray
    #: (n_states, ADV_N_SYMBOLS) -> stations to wake (clamped to budget).
    wake_count: np.ndarray

    @property
    def n_states(self) -> int:
        return self.next_state.shape[0]

    def __post_init__(self) -> None:
        self.next_state = np.ascontiguousarray(self.next_state, dtype=np.int64)
        self.wake_count = np.ascontiguousarray(self.wake_count, dtype=np.int64)
        for table in (self.next_state, self.wake_count):
            table.setflags(write=False)


# ---------------------------------------------------------------- lowerings

#: Mode ids of the ``adaptive_no_k`` machine (order mirrors the paper's
#: Algorithm 3 phases; see ``repro.core.protocols.adaptive_no_k.Mode``).
ANK_WAITING, ANK_ELECTION, ANK_MEMBER, ANK_LEADER = range(4)


def _identity_transitions(n_modes: int) -> np.ndarray:
    """A ``next_mode`` table where every symbol keeps the current mode."""
    return np.repeat(np.arange(n_modes, dtype=np.int8)[:, None], N_SYMBOLS, axis=1)


def _decrease_slowly_row(q: float, length: int) -> np.ndarray:
    """``clamp(q / (2q + i))`` for ``i = 0 .. length-1`` — the probability
    row of a DecreaseSlowly-driven mode, bit-equal to the scalar formula in
    ``AdaptiveNoK._decide_election`` / ``GlobalClockUFR.decide``."""
    i = np.arange(length, dtype=np.float64)
    return np.clip(q / (2.0 * q + i), 0.0, 1.0)


def _compile_schedule(
    schedule: ProbabilitySchedule, switch_off_on_ack: bool, horizon: int
) -> CompiledProgram:
    table = np.asarray(probability_table(schedule, horizon), dtype=np.float64)
    next_mode = _identity_transitions(1)
    if switch_off_on_ack:
        next_mode = next_mode.copy()
        next_mode[0, SYM_ACK] = OFF
    return CompiledProgram(
        kind="schedule",
        mode_names=("transmit",),
        start_mode=0,
        prob_rows=table[None, :],
        next_mode=next_mode,
        ack_payload_guard=np.full(1, PAYLOAD_ANY),
        control_parity_guard=np.zeros(1, dtype=bool),
        requires_listening=ScheduleProtocol.requires_listening,
        draws_uniform=True,
        horizon=schedule.horizon(),
        switch_off_on_ack=switch_off_on_ack,
    )


def _compile_adaptive_no_k(q: float, horizon: int) -> CompiledProgram:
    prob_rows = np.zeros((4, horizon), dtype=np.float64)
    prob_rows[ANK_ELECTION] = _decrease_slowly_row(q, horizon)
    next_mode = _identity_transitions(4).copy()
    # ELECTION: own data packet acked -> leader; someone else's data packet
    # heard -> synchronized member; a control bit heard -> a D mode is
    # live after all, re-enter the waiting loop.
    next_mode[ANK_ELECTION, SYM_ACK] = ANK_LEADER
    next_mode[ANK_ELECTION, SYM_HEAR_DATA] = ANK_MEMBER
    next_mode[ANK_ELECTION, SYM_HEAR_PROBE] = ANK_WAITING
    next_mode[ANK_ELECTION, SYM_HEAR_DMODE] = ANK_WAITING
    # MEMBER: own *data* ack (guarded) -> off; a control bit on an *odd*
    # tc (guarded) proves clock desync -> waiting.
    next_mode[ANK_MEMBER, SYM_ACK] = OFF
    next_mode[ANK_MEMBER, SYM_HEAR_PROBE] = ANK_WAITING
    next_mode[ANK_MEMBER, SYM_HEAR_DMODE] = ANK_WAITING
    # LEADER: own *probe* ack (guarded) -> off (D mode over); hearing a
    # control bit proves a duplicate leader -> cede (off).
    next_mode[ANK_LEADER, SYM_ACK] = OFF
    next_mode[ANK_LEADER, SYM_HEAR_PROBE] = OFF
    next_mode[ANK_LEADER, SYM_HEAR_DMODE] = OFF
    ack_guard = np.full(4, PAYLOAD_ANY)
    ack_guard[ANK_MEMBER] = PAYLOAD_DATA
    ack_guard[ANK_LEADER] = PAYLOAD_PROBE
    parity_guard = np.zeros(4, dtype=bool)
    parity_guard[ANK_MEMBER] = True
    return CompiledProgram(
        kind="adaptive_no_k",
        mode_names=("waiting", "election", "member", "leader"),
        start_mode=ANK_WAITING,
        prob_rows=prob_rows,
        next_mode=next_mode,
        ack_payload_guard=ack_guard,
        control_parity_guard=parity_guard,
        q=q,
    )


def _compile_suniform(horizon: int) -> CompiledProgram:
    next_mode = _identity_transitions(1).copy()
    next_mode[0, SYM_ACK] = OFF
    return CompiledProgram(
        kind="suniform",
        mode_names=("sawtooth",),
        start_mode=0,
        prob_rows=np.zeros((1, 1), dtype=np.float64),
        next_mode=next_mode,
        ack_payload_guard=np.full(1, PAYLOAD_ANY),
        control_parity_guard=np.zeros(1, dtype=bool),
        draws_uniform=False,
    )


#: Cap on the ``CdAimdProtocol`` window lattice.  The per-lane ``mode``
#: array is int8, and the default geometry (factor-2 up/down to a 2**40
#: cap) closes in 41 states; exotic parameters whose lattice does not
#: close under this cap fall back to the object engine.
MAX_CD_MODES = 96


def _cd_window_lattice(
    increase: float, decrease: float, max_window: float
) -> Optional[tuple[list[float], list[int], list[int]]]:
    """Enumerate the reachable ``W`` values of a :class:`CdAimdProtocol`.

    The window evolves by the exact float maps ``up(w) = min(w *
    increase, max_window)`` and ``down(w) = max(1.0, w / decrease)``
    from ``W = 1.0``; both are replayed here verbatim so each lattice
    value is *bit-equal* to the object protocol's ``self.window``.
    Returns ``(values, up_index, down_index)`` in BFS discovery order,
    or None when the closure exceeds :data:`MAX_CD_MODES` states.
    """
    values: list[float] = [1.0]
    index: dict[float, int] = {1.0: 0}
    up: list[int] = []
    down: list[int] = []
    i = 0
    while i < len(values):
        w = values[i]
        for target, out in (
            (min(w * increase, max_window), up),
            (max(1.0, w / decrease), down),
        ):
            slot = index.get(target)
            if slot is None:
                if len(values) >= MAX_CD_MODES:
                    return None
                slot = len(values)
                index[target] = slot
                values.append(target)
            out.append(slot)
        i += 1
    return values, up, down


def _compile_cd_aimd(probe: CdAimdProtocol, horizon: int) -> CompiledProgram:
    """Lower the MIMD contention estimator onto the CD symbol columns.

    Every mode is one reachable window value ``W``; the transmission
    probability is the counter-free ``1 / W``; the only transitions are
    channel-driven — collision climbs the lattice, silence descends it,
    success holds, and an ack switches off (the early return in
    ``CdAimdProtocol.observe`` makes ack beat the channel update).
    """
    lattice = _cd_window_lattice(probe.increase, probe.decrease, probe.max_window)
    if lattice is None:
        raise CompileError(
            f"CdAimdProtocol(increase={probe.increase}, "
            f"decrease={probe.decrease}, max_window={probe.max_window}) has "
            f"a window lattice that does not close within {MAX_CD_MODES} "
            "values; the compiled engine only runs finite window machines"
        )
    values, up, down = lattice
    n = len(values)
    next_mode = _identity_transitions(n).copy()
    next_mode[:, SYM_ACK] = OFF
    next_mode[:, SYM_CD_COLLISION] = np.asarray(up, dtype=np.int8)
    next_mode[:, SYM_CD_SILENCE] = np.asarray(down, dtype=np.int8)
    prob_rows = (1.0 / np.asarray(values, dtype=np.float64))[:, None]
    return CompiledProgram(
        kind="cd_aimd",
        mode_names=tuple(f"W={w:g}" for w in values),
        start_mode=0,
        prob_rows=prob_rows,
        next_mode=next_mode,
        ack_payload_guard=np.full(n, PAYLOAD_ANY),
        control_parity_guard=np.zeros(n, dtype=bool),
    )


def _compile_global_clock(q: float, horizon: int) -> CompiledProgram:
    next_mode = _identity_transitions(1).copy()
    next_mode[0, SYM_ACK] = OFF
    return CompiledProgram(
        kind="global_clock",
        mode_names=("running",),
        start_mode=0,
        # The odd-global-round wake-up row; even (data) rounds use the
        # per-station *adopted* probability, carried by the stepper.
        prob_rows=_decrease_slowly_row(q, horizon)[None, :],
        next_mode=next_mode,
        ack_payload_guard=np.full(1, PAYLOAD_ANY),
        control_parity_guard=np.zeros(1, dtype=bool),
        q=q,
    )


# ------------------------------------------------------ adversary lowerings


def _compile_burst_on_quiet(adv: BurstOnQuietAdversary) -> AdversaryProgram:
    # State = the ``_quiet_run`` value entering the round (0 .. quiet-1):
    # a success resets the run; the ``quiet``-th consecutive non-success
    # releases the burst and resets.
    quiet, burst = adv.quiet, adv.burst
    next_state = np.zeros((quiet, ADV_N_SYMBOLS), dtype=np.int64)
    wake_count = np.zeros((quiet, ADV_N_SYMBOLS), dtype=np.int64)
    for s in range(quiet):
        for y in (ADV_SILENCE, ADV_COLLISION):
            if s == quiet - 1:
                next_state[s, y] = 0
                wake_count[s, y] = burst
            else:
                next_state[s, y] = s + 1
        next_state[s, ADV_SUCCESS] = 0
    return AdversaryProgram(
        kind="burst_on_quiet",
        start_state=0,
        wake0=1,
        next_state=next_state,
        wake_count=wake_count,
    )


def _compile_wake_on_success(adv: WakeOnSuccessAdversary) -> AdversaryProgram:
    # Stateless beyond the seed group: refill exactly on success.
    wake_count = np.zeros((1, ADV_N_SYMBOLS), dtype=np.int64)
    wake_count[0, ADV_SUCCESS] = adv.refill
    return AdversaryProgram(
        kind="wake_on_success",
        start_state=0,
        wake0=adv.seed_group,
        next_state=np.zeros((1, ADV_N_SYMBOLS), dtype=np.int64),
        wake_count=wake_count,
    )


def _compile_anti_leader(adv: AntiLeaderAdversary) -> AdversaryProgram:
    # State 0: ``_saw_quiet`` — the next success is the first after a
    # lull and triggers the flood; state 1: already flooded this streak.
    next_state = np.zeros((2, ADV_N_SYMBOLS), dtype=np.int64)
    next_state[:, ADV_SUCCESS] = 1
    wake_count = np.zeros((2, ADV_N_SYMBOLS), dtype=np.int64)
    wake_count[0, ADV_SUCCESS] = adv.flood
    return AdversaryProgram(
        kind="anti_leader",
        start_state=0,
        wake0=1,
        next_state=next_state,
        wake_count=wake_count,
    )


def _compile_drip_feed(adv: DripFeedAdversary) -> AdversaryProgram:
    # State = ``t mod interval`` entering round t; outcome-independent.
    # Round 0 is the scalar wake0, so the loop starts at state 1 mod
    # interval (= 0 for interval 1: every round wakes one station).
    interval = adv.interval
    column = (np.arange(interval, dtype=np.int64) + 1) % interval
    wake_column = (np.arange(interval, dtype=np.int64) == 0).astype(np.int64)
    return AdversaryProgram(
        kind="drip",
        start_state=1 % interval,
        wake0=1,
        next_state=np.repeat(column[:, None], ADV_N_SYMBOLS, axis=1),
        wake_count=np.repeat(wake_column[:, None], ADV_N_SYMBOLS, axis=1),
    )


_ADVERSARY_LOWERINGS = {
    BurstOnQuietAdversary: _compile_burst_on_quiet,
    WakeOnSuccessAdversary: _compile_wake_on_success,
    AntiLeaderAdversary: _compile_anti_leader,
    DripFeedAdversary: _compile_drip_feed,
}


def adversary_lowering_reason(adversary: object) -> Optional[str]:
    """Why ``adversary`` has no table lowering, or None if it has one.

    Exact-type matches only, for the same reason as
    :func:`lowering_reason`: a subclass may override ``wake_now`` (or
    ``deadline``'s interaction with it) in ways the tables cannot see.
    """
    if type(adversary) in _ADVERSARY_LOWERINGS:
        return None
    return (
        f"adversary {type(adversary).__name__} has no table lowering; the "
        "compiled stepper only runs the adversary state machines it knows "
        "(BurstOnQuietAdversary, WakeOnSuccessAdversary, "
        "AntiLeaderAdversary, DripFeedAdversary)"
    )


def compile_adversary(adversary: object) -> AdversaryProgram:
    """Lower an adaptive adversary to its :class:`AdversaryProgram`.

    Raises :class:`CompileError` when the adversary is not one of the
    known state machines (see :func:`adversary_lowering_reason`).
    """
    reason = adversary_lowering_reason(adversary)
    if reason is not None:
        raise CompileError(reason)
    return _ADVERSARY_LOWERINGS[type(adversary)](adversary)


# -------------------------------------------------------------- entry points


def lowering_reason(probe: object) -> Optional[str]:
    """Why ``probe`` (a protocol instance) has no table lowering, or None.

    Exact-type matches only: a subclass may override any hook and silently
    change semantics the tables cannot see, so it falls back to the object
    engine rather than compile to its parent's machine.
    """
    if type(probe) in (AdaptiveNoK, SUniform, GlobalClockUFR, ScheduleProtocol):
        return None
    if type(probe) is CdAimdProtocol:
        if _cd_window_lattice(probe.increase, probe.decrease, probe.max_window) is None:
            return (
                f"CdAimdProtocol(increase={probe.increase}, "
                f"decrease={probe.decrease}, max_window={probe.max_window}) "
                f"has a window lattice that does not close within "
                f"{MAX_CD_MODES} values; the compiled engine only runs "
                "finite window machines"
            )
        return None
    return (
        f"protocol {type(probe).__name__} has no table lowering; the "
        "compiled engine only runs the finite state machines it knows "
        "(AdaptiveNoK, SUniform, GlobalClockUFR, CdAimd, probability "
        "schedules)"
    )


def fuse_programs(programs: list[CompiledProgram]) -> Optional[CompiledProgram]:
    """One program that serves every run of ``programs``, or None.

    The stepper only reads a probability row at counters below the run's
    horizon, so a machine lowered at a longer horizon serves every run of
    the same machine lowered at a shorter one.  Fusable means equal
    :meth:`~CompiledProgram.signature` and rows that agree on their
    common prefix; the result is the program with the longest rows.
    """
    longest = max(programs, key=lambda p: p.prob_rows.shape[1])
    signature = longest.signature()
    for program in programs:
        if program is longest:
            continue
        width = program.prob_rows.shape[1]
        if program.signature() != signature or not np.array_equal(
            program.prob_rows, longest.prob_rows[:, :width]
        ):
            return None
    return longest


def compile_spec(spec: RunSpec, horizon: Optional[int] = None) -> CompiledProgram:
    """Lower ``spec``'s protocol to a :class:`CompiledProgram`.

    Raises :class:`CompileError` when the protocol is not one of the known
    finite state machines (see :func:`lowering_reason`).  Spec-level
    admissibility (adversary, jamming, feedback, traces) is the dispatch
    layer's job — :func:`repro.engine.dispatch.compiled_inadmissibility`.
    """
    if horizon is None:
        horizon = spec.resolve_horizon()
    # Per-mode counters advance at most once per round, so ``horizon``
    # columns cover every reachable (mode, counter) pair.
    if spec.is_schedule_run:
        return _compile_schedule(spec.schedule, spec.switch_off_on_ack, horizon)
    probe = spec.protocol_probe
    reason = lowering_reason(probe)
    if reason is not None:
        raise CompileError(reason)
    if type(probe) is ScheduleProtocol:
        return _compile_schedule(probe.schedule, probe.switch_off_on_ack, horizon)
    if type(probe) is AdaptiveNoK:
        return _compile_adaptive_no_k(probe.q, horizon)
    if type(probe) is SUniform:
        return _compile_suniform(horizon)
    if type(probe) is CdAimdProtocol:
        return _compile_cd_aimd(probe, horizon)
    return _compile_global_clock(probe.q, horizon)
