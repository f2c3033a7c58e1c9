"""The object engine: a slot-exact multiple-access channel simulator.

This engine executes the paper's model literally (Section 1): discrete
synchronous rounds, anonymous stations woken by an adversary, success iff
exactly one transmitter, acknowledgement-only feedback, no global clock
(each protocol only ever sees its *local* round index).

It supports arbitrary :class:`~repro.core.protocol.Protocol` implementations
— including the adaptive ``AdaptiveNoK`` with its control messages — and
both oblivious and adaptive adversaries.  *Non-adaptive* schedules run
faster on the batched schedule kernel (:mod:`repro.channel.batched`), which
:func:`repro.engine.execute` selects for them automatically.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Optional, Union

from repro.adversary.base import AdaptiveAdversary, WakeSchedule
from repro.channel.events import RoundEvent, RoundOutcome
from repro.channel.feedback import FeedbackModel, make_observation
from repro.channel.results import RunResult, StopCondition
from repro.core.protocol import Protocol
from repro.core.station import Station
from repro.telemetry import registry as telemetry
from repro.util.rng import RngFactory

__all__ = ["SlotSimulator", "default_max_rounds"]

ProtocolFactory = Callable[[], Protocol]
Adversary = Union[WakeSchedule, AdaptiveAdversary]


def default_max_rounds(k: int) -> int:
    """A generous default horizon: enough for every paper protocol at any
    realistic constant, while still bounding runaway executions."""
    return 400 * k + 20_000


class SlotSimulator:
    """Simulate one execution of a protocol under an adversary.

    Args:
        k: number of contending stations.
        protocol_factory: zero-argument callable producing a fresh
            :class:`Protocol` per station (stations are identical copies, as
            the paper's anonymity demands).
        adversary: a :class:`WakeSchedule` (oblivious) or
            :class:`AdaptiveAdversary` (online).
        feedback: channel feedback model; the paper's protocols use ACK_ONLY.
        stop: when the run counts as complete.
        max_rounds: hard horizon; None picks :func:`default_max_rounds`.
        seed: base seed for all randomness (adversary + stations).
        record_trace: keep the full per-round event log on the result.
        jammer: optional :class:`~repro.channel.jamming.Jammer`; a jammed
            round carries no successful transmission.
        faults: optional :class:`~repro.faults.FaultModel`; the object
            engine supports every component (noise, ack loss, energy
            budgets).  The fault plan is drawn from its own salted
            SeedSequence, so attaching faults never shifts the
            adversary/station streams.
    """

    def __init__(
        self,
        k: int,
        protocol_factory: ProtocolFactory,
        adversary: Adversary,
        *,
        feedback: FeedbackModel = FeedbackModel.ACK_ONLY,
        stop: StopCondition = StopCondition.ALL_SWITCHED_OFF,
        max_rounds: Optional[int] = None,
        seed: Optional[int] = None,
        record_trace: bool = False,
        jammer=None,
        faults=None,
    ):
        if k < 1:
            raise ValueError(f"need at least one station, got k={k}")
        self.k = k
        self.protocol_factory = protocol_factory
        self.adversary = adversary
        self.feedback = feedback
        self.stop = stop
        self.max_rounds = max_rounds if max_rounds is not None else default_max_rounds(k)
        self.seed = seed
        self.record_trace = record_trace
        self.jammer = jammer
        self.faults = faults

    def run(self) -> RunResult:
        rng_factory = RngFactory(self.seed)
        adversary_rng = rng_factory.next_generator()
        if self.jammer is not None:
            self.jammer.begin(rng_factory.next_generator())

        noise_set: frozenset = frozenset()
        ack_set: frozenset = frozenset()
        energy_cap: Optional[int] = None
        slots_corrupted = 0
        acks_dropped = 0
        stations_exhausted = 0
        if self.faults is not None:
            with telemetry.span("fault.plan"):
                fault_plan = self.faults.plan(self.seed, self.max_rounds)
            noise_set = fault_plan.noise_set
            ack_set = fault_plan.ack_set
            if self.faults.energy_budget is not None:
                energy_cap = self.faults.energy_budget.charges

        adaptive = isinstance(self.adversary, AdaptiveAdversary)
        if adaptive:
            self.adversary.begin(self.k, adversary_rng)
            wake_deadline = self.adversary.deadline(self.k)
            pending_by_round: dict[int, int] = {}
        else:
            rounds = self.adversary.wake_rounds(self.k, adversary_rng)
            if len(rounds) != self.k:
                raise ValueError(
                    f"adversary produced {len(rounds)} wake rounds for k={self.k}"
                )
            pending_by_round = {}
            for r in rounds:
                pending_by_round[int(r)] = pending_by_round.get(int(r), 0) + 1
            wake_deadline = max(rounds) if rounds else 0

        stations: list[Station] = []
        active: list[Station] = []
        history: list[RoundEvent] = []
        woken = 0
        succeeded = 0
        switched_off = 0

        def wake(count: int, at_round: int) -> None:
            nonlocal woken
            count = min(count, self.k - woken)
            for _ in range(count):
                station = Station(
                    station_id=len(stations),
                    wake_round=at_round,
                    protocol=self.protocol_factory(),
                    rng=rng_factory.next_generator(),
                )
                stations.append(station)
                active.append(station)
                woken += 1

        def stop_met() -> bool:
            if self.stop is StopCondition.FIRST_SUCCESS:
                return succeeded >= 1
            if woken < self.k:
                return False
            if self.stop is StopCondition.ALL_SUCCEEDED:
                return succeeded >= self.k
            return switched_off >= self.k

        # Sampled round tracing: 0 (the disabled default) keeps the hot
        # loop's telemetry cost to one integer truthiness check per round.
        sample = telemetry.trace_sample()

        # Round 0 wakes (stations present "from the very beginning").
        if adaptive:
            wake(self.adversary.wake_now(0, history), 0)
        elif 0 in pending_by_round:
            wake(pending_by_round.pop(0), 0)

        t = 0
        while t < self.max_rounds:
            t += 1
            # 1. Adversary wakes stations at the start of round t.
            if woken < self.k:
                if adaptive:
                    want = self.adversary.wake_now(t, history)
                    if t >= wake_deadline:
                        want = self.k - woken
                    if want > 0:
                        wake(want, t)
                elif t in pending_by_round:
                    wake(pending_by_round.pop(t), t)

            # 2. Collect decisions from stations with local round >= 1.
            transmitters: list[tuple[Station, object]] = []
            for station in active:
                if station.local_round(t) < 1:
                    continue
                decision = station.decide(t)
                if decision is not None:
                    transmitters.append((station, decision.payload))

            # 3. Resolve the channel.
            m = len(transmitters)
            jammed = self.jammer is not None and self.jammer.jams(t, history)
            if jammed and m > 0:
                outcome = RoundOutcome.COLLISION
            else:
                # A jam in an empty round destroys nothing: the channel is
                # silent, exactly as the vectorised engine (which never
                # materialises transmitter-free rounds) accounts for it.
                outcome = RoundOutcome.from_transmitter_count(m)
            # Fault hooks: noise corrupts a would-be success into a
            # collision; ack loss keeps the success on the air but drops
            # the winner's acknowledgement.  Noise wins when both fire.
            ack_dropped = False
            corrupted = False
            if outcome is RoundOutcome.SUCCESS:
                if t in noise_set:
                    outcome = RoundOutcome.COLLISION
                    corrupted = True
                    slots_corrupted += 1
                elif t in ack_set:
                    ack_dropped = True
                    acks_dropped += 1
            winner: Optional[Station] = None
            delivered: Optional[object] = None
            if outcome is RoundOutcome.SUCCESS:
                winner, delivered = transmitters[0]

            event = RoundEvent(
                round_index=t,
                outcome=outcome,
                transmitter_count=m,
                winner=winner.station_id if winner is not None else None,
                message=delivered,
                jammed=jammed,
                corrupted=corrupted,
            )
            history.append(event)
            if sample and t % sample == 0:
                telemetry.event(
                    "simulator.round",
                    {
                        "round": t,
                        "outcome": outcome.name,
                        "transmitters": m,
                        "active": len(active),
                        "woken": woken,
                        "jammed": jammed,
                    },
                )

            # 4. Deliver observations to every station active this round.
            transmitted_ids = {station.station_id for station, _ in transmitters}
            for station in active:
                local = station.local_round(t)
                if local < 1:
                    continue
                did_transmit = station.station_id in transmitted_ids
                obs = make_observation(
                    local_round=local,
                    transmitted=did_transmit,
                    outcome=outcome,
                    is_winner=(
                        winner is not None and station is winner and not ack_dropped
                    ),
                    delivered=delivered,
                    model=self.feedback,
                )
                was_succeeded = station.first_success_round is not None
                station.observe(obs, t)
                if station.first_success_round is not None and not was_succeeded:
                    succeeded += 1

            # 4b. Energy budget: a station that has spent its charges is
            # switched off at the end of the round, succeeded or not.
            if energy_cap is not None:
                for station in active:
                    if (
                        station.active
                        and station.transmissions + station.listening_slots
                        >= energy_cap
                    ):
                        station.switch_off_round = t
                        stations_exhausted += 1

            # 5. Retire switched-off stations.
            still_active = [s for s in active if s.active]
            switched_off += len(active) - len(still_active)
            active = still_active

            if stop_met():
                break

        completed = stop_met()
        if telemetry.enabled():
            telemetry.count("simulator.runs")
            telemetry.count("simulator.rounds", t)
            telemetry.observe("simulator.run_rounds", t)
            tallies = {
                RoundOutcome.SUCCESS: 0,
                RoundOutcome.COLLISION: 0,
                RoundOutcome.SILENCE: 0,
            }
            for ev in history:
                tallies[ev.outcome] = tallies.get(ev.outcome, 0) + 1
            telemetry.count("simulator.successes", tallies[RoundOutcome.SUCCESS])
            telemetry.count("simulator.collisions", tallies[RoundOutcome.COLLISION])
            telemetry.count("simulator.silent_rounds", tallies[RoundOutcome.SILENCE])
            if self.faults is not None:
                telemetry.count("fault.runs")
                telemetry.count("fault.slots_corrupted", slots_corrupted)
                telemetry.count("fault.acks_dropped", acks_dropped)
                telemetry.count("fault.stations_exhausted", stations_exhausted)
        return RunResult(
            records=[s.record() for s in stations],
            rounds_executed=t,
            completed=completed,
            stop=self.stop,
            trace=history if self.record_trace else None,
            seed=self.seed,
            protocol_name=getattr(self.protocol_factory, "protocol_name", ""),
            adversary_name=getattr(self.adversary, "name", ""),
        )
