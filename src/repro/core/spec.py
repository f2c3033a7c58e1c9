"""RunSpec: one declarative, fingerprint-able description of a simulation run.

Every execution in this repository — a slot-by-slot :class:`SlotSimulator`
run or a Poisson-thinning schedule-kernel run — is a pure
function of a small set of inputs: contention size, the protocol (a
non-adaptive :class:`~repro.core.protocol.ProbabilitySchedule` or a
stateful :class:`~repro.core.protocol.Protocol` factory), the adversary,
the feedback model, the stop condition, jamming, the horizon and the seed.
:class:`RunSpec` captures exactly that set in one frozen dataclass, so

* engine selection is a *property of the spec*, not of the caller
  (see :func:`repro.engine.execute` and the admissibility rules there);
* checkpoint journal keys are derived from the spec
  (:meth:`RunSpec.fingerprint`), so the journal key and the run
  construction can never drift apart;
* probability/hazard tables are cached per schedule fingerprint
  (:mod:`repro.engine.cache`) instead of being recomputed per repetition.

A spec is *declarative*: constructing one performs no simulation work and
touches no RNG.  ``execute(spec)`` (or ``execute(spec, engine=...)``) runs
it.  Two specs that fingerprint identically describe runs drawn from the
same distribution; adding the seed pins one exact execution.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro.adversary.base import AdaptiveAdversary, ArrivalProcess, WakeSchedule
from repro.channel.feedback import FeedbackModel
from repro.channel.results import StopCondition
from repro.core.protocol import ProbabilitySchedule, Protocol, ScheduleProtocol
from repro.faults import FaultModel

__all__ = [
    "RunSpec",
    "stable_token",
    "adversary_token",
    "arrival_token",
    "QUEUE_DISCIPLINES",
]

ProtocolFactory = Callable[[], Protocol]
ProtocolLike = Union[ProbabilitySchedule, ProtocolFactory]
Adversary = Union[WakeSchedule, AdaptiveAdversary]


def stable_token(value: object) -> object:
    """A process-independent fingerprint token for a config attribute.

    Primitives pass through; objects contribute their ``name`` (the
    convention every schedule/adversary here follows) or class name —
    never their ``repr``, which may embed a memory address and would
    break fingerprint stability across resumed processes.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (tuple, list)):
        return tuple(stable_token(v) for v in value)
    name = getattr(value, "name", None)
    if isinstance(name, str):
        return name
    return type(value).__name__


#: Legal values of :attr:`RunSpec.queue_discipline` (traffic runs only).
#: ``free``: every queued packet contends independently from its arrival
#: round (the station is a label, not a serialisation point) — reduces to
#: the classic model, so it runs on every engine.  ``fifo``: each station
#: transmits only its head-of-line packet; the next packet's protocol
#: starts when it reaches the head — history-dependent, object engine only.
QUEUE_DISCIPLINES = ("free", "fifo")


def arrival_token(arrivals: ArrivalProcess, stations: int, horizon: int) -> object:
    """Fingerprint an arrival process: its name plus a bounded digest of a
    canonical draw (distinguishes e.g. two ``FixedArrivals`` instances that
    share the generic name but carry different packet lists)."""
    try:
        rounds, origins = arrivals.draw(
            stations, horizon, np.random.default_rng(0)
        )
        sample: object = (
            int(rounds.size),
            int(rounds.sum()),
            int(origins.sum()),
            tuple(int(r) for r in rounds[:64]),
            tuple(int(o) for o in origins[:64]),
        )
    except Exception:
        sample = None
    return ("arrivals", stable_token(arrivals), stations, horizon, sample)


def adversary_token(adversary: Adversary, k: int) -> object:
    """Fingerprint an adversary: its name plus, for oblivious schedules, a
    canonical wake draw (distinguishes e.g. two ``FixedSchedule`` instances
    that share the generic name but carry different rounds)."""
    if isinstance(adversary, WakeSchedule):
        try:
            sample = tuple(
                int(r) for r in adversary.wake_rounds(k, np.random.default_rng(0))
            )
        except Exception:
            sample = None
        return (stable_token(adversary), sample)
    return ("adaptive", stable_token(adversary), type(adversary).__name__)


@dataclass(frozen=True)
class RunSpec:
    """One simulation run, described declaratively.

    Args:
        k: number of contending stations (>= 1).
        protocol: either a :class:`ProbabilitySchedule` instance (shared by
            every station, the paper's anonymity) or a zero-argument
            callable producing a fresh :class:`Protocol` per station.
        adversary: a :class:`WakeSchedule` (oblivious) or
            :class:`AdaptiveAdversary` (online).
        feedback: channel feedback model; the paper's protocols use
            ACK_ONLY.  Only consulted by the object engine.
        stop: completion criterion.
        switch_off_on_ack: the paper's default semantics; False for the
            no-acknowledgement variant.  Only meaningful for schedule runs
            (protocol factories own their switch-off logic).
        max_rounds: explicit global-round horizon; ``None`` defers to the
            :meth:`resolve_horizon` policy
            (:func:`~repro.channel.simulator.default_max_rounds`).
        record_trace: keep the full per-round event log on the result
            (forces the object engine).
        jammer: an adaptive/stateful :class:`~repro.channel.jamming.Jammer`
            (forces the object engine).
        jam_rounds: an oblivious set of jammed global rounds; runs on both
            engines (the object engine wraps it in a
            :class:`~repro.channel.jamming.ScheduledJammer`).  Mutually
            exclusive with ``jammer``.
        arrivals: a dynamic-arrival traffic source
            (:class:`~repro.adversary.base.ArrivalProcess`).  When set, the
            run is a *traffic* run: ``k`` counts station *queues*, packets
            arrive over time, and ``adversary`` must be None (the arrival
            process *is* the oblivious adversary).  Requires an explicit
            ``max_rounds`` — the horizon is part of the traffic model.
        queue_discipline: ``"free"`` (default; every queued packet contends
            independently — engine-portable via the traffic reduction) or
            ``"fifo"`` (stations serialise their queue — object engine
            only).  Only meaningful for traffic runs.
        faults: a :class:`~repro.faults.FaultModel` describing channel
            noise, ack loss, and/or per-station energy budgets; ``None``
            (the default) is the paper's ideal channel.  Oblivious
            noise/ack-loss runs on every engine; energy budgets force the
            object engine.  Not supported with ``fifo`` queueing.
        seed: base seed for all randomness (None = OS entropy; such a spec
            cannot be journaled).
        label: reporting label; folded into protocol-run fingerprints to
            disambiguate configurations a class cannot express.
    """

    k: int
    protocol: ProtocolLike
    adversary: Optional[Adversary] = None
    feedback: FeedbackModel = FeedbackModel.ACK_ONLY
    stop: StopCondition = StopCondition.ALL_SWITCHED_OFF
    switch_off_on_ack: bool = True
    max_rounds: Optional[int] = None
    record_trace: bool = False
    jammer: Optional[object] = None
    jam_rounds: Optional[tuple[int, ...]] = None
    arrivals: Optional[ArrivalProcess] = None
    queue_discipline: str = "free"
    faults: Optional[FaultModel] = None
    seed: Optional[int] = None
    label: str = ""

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"need at least one station, got k={self.k}")
        if not isinstance(self.protocol, ProbabilitySchedule) and not callable(
            self.protocol
        ):
            raise TypeError(
                "protocol must be a ProbabilitySchedule or a zero-argument "
                f"Protocol factory, got {type(self.protocol).__name__}"
            )
        if self.queue_discipline not in QUEUE_DISCIPLINES:
            raise ValueError(
                f"unknown queue_discipline {self.queue_discipline!r}; "
                f"known: {QUEUE_DISCIPLINES}"
            )
        if self.arrivals is not None:
            if not isinstance(self.arrivals, ArrivalProcess):
                raise TypeError(
                    "arrivals must be an ArrivalProcess, "
                    f"got {type(self.arrivals).__name__}"
                )
            if self.adversary is not None:
                raise ValueError(
                    "arrivals and adversary are mutually exclusive: the "
                    "arrival process is the traffic run's oblivious adversary"
                )
            if self.max_rounds is None:
                raise ValueError(
                    "traffic runs need an explicit max_rounds: the horizon "
                    "is part of the arrival model"
                )
        elif self.adversary is None:
            raise TypeError(
                "adversary is required unless this is a traffic run "
                "(arrivals=...)"
            )
        elif not isinstance(self.adversary, (WakeSchedule, AdaptiveAdversary)):
            raise TypeError(
                "adversary must be a WakeSchedule or AdaptiveAdversary, "
                f"got {type(self.adversary).__name__}"
            )
        if self.max_rounds is not None and self.max_rounds < 1:
            raise ValueError(f"max_rounds must be >= 1, got {self.max_rounds}")
        if self.jammer is not None and self.jam_rounds is not None:
            raise ValueError(
                "jammer and jam_rounds are mutually exclusive: jam_rounds is "
                "the oblivious (engine-portable) form, jammer the stateful one"
            )
        if self.jam_rounds is not None:
            rounds: Iterable[int] = self.jam_rounds  # type: ignore[assignment]
            object.__setattr__(
                self, "jam_rounds", tuple(sorted({int(r) for r in rounds}))
            )
        if self.faults is not None:
            if not isinstance(self.faults, FaultModel):
                raise TypeError(
                    f"faults must be a FaultModel, got {type(self.faults).__name__}"
                )
            if self.arrivals is not None and self.queue_discipline == "fifo":
                raise ValueError(
                    "faults are not supported with fifo queueing: the queue "
                    "simulator has no fault path; use the free discipline"
                )

    # ------------------------------------------------------------------ kind

    @property
    def is_schedule_run(self) -> bool:
        """True when the protocol is a non-adaptive probability schedule."""
        return isinstance(self.protocol, ProbabilitySchedule)

    @property
    def is_traffic_run(self) -> bool:
        """True when this spec describes dynamic-arrival (queued) traffic."""
        return self.arrivals is not None

    @property
    def schedule(self) -> ProbabilitySchedule:
        if not self.is_schedule_run:
            raise TypeError("this RunSpec describes a protocol-factory run")
        return self.protocol  # type: ignore[return-value]

    @property
    def protocol_factory(self) -> ProtocolFactory:
        """A zero-argument factory for the object engine, for either kind.

        Schedule specs are adapted through :class:`ScheduleProtocol`, which
        is exactly how the object engine has always run non-adaptive
        schedules — the two views stay byte-identical per seed.
        """
        if self.is_schedule_run:
            schedule = self.schedule
            ack = self.switch_off_on_ack

            def factory() -> Protocol:
                return ScheduleProtocol(schedule, switch_off_on_ack=ack)

            factory.protocol_name = getattr(  # type: ignore[attr-defined]
                schedule, "name", "schedule"
            )
            return factory
        return self.protocol  # type: ignore[return-value]

    @property
    def protocol_probe(self) -> Protocol:
        """A fresh, never-run instance of the per-station protocol.

        The capability surface for engines that need to *inspect* the
        protocol without executing it: :meth:`fingerprint` digests the
        probe's public attributes, and the compiled engine's lowering pass
        (:mod:`repro.engine.compile`) pattern-matches the probe's exact
        type to decide whether the spec is compiled-admissible and to read
        the machine's constants (e.g. ``AdaptiveNoK.q``).  Constructing a
        probe touches no RNG — protocols only draw after ``begin()``.
        """
        return self.protocol_factory()

    @property
    def display_label(self) -> str:
        """The reporting label: explicit ``label`` or the protocol's name."""
        if self.label:
            return self.label
        if self.is_schedule_run:
            return getattr(self.schedule, "name", "schedule")
        return getattr(self.protocol, "protocol_name", "protocol")

    # --------------------------------------------------------------- horizon

    def resolve_horizon(self) -> int:
        """The effective global-round horizon of this run.

        Explicit ``max_rounds`` wins; otherwise the single repository-wide
        policy :func:`~repro.channel.simulator.default_max_rounds` applies
        (generous enough for every paper protocol at any realistic
        constant, bounded enough to stop runaway executions).  Drivers
        should only pass ``max_rounds`` when the horizon is itself part of
        the experiment (a theorem's bound, a jamming budget).
        """
        if self.max_rounds is not None:
            return self.max_rounds
        from repro.channel.simulator import default_max_rounds

        return default_max_rounds(self.k)

    # ----------------------------------------------------------- convenience

    def with_seed(self, seed: Optional[int]) -> "RunSpec":
        """A copy of this spec pinned to ``seed`` (repetition fan-out)."""
        return dataclasses.replace(self, seed=seed)

    def replace(self, **changes: object) -> "RunSpec":
        """``dataclasses.replace`` with revalidation."""
        return dataclasses.replace(self, **changes)  # type: ignore[arg-type]

    # ------------------------------------------------------------ fingerprint

    def fingerprint(self, prob_table: Optional[np.ndarray] = None) -> str:
        """The checkpoint journal key of this configuration (seed excluded).

        Everything that shapes the run's outcome besides the seed is
        digested.  For schedule runs the probability table itself is hashed
        (truncated to its first 4096 entries plus a checksum of the whole),
        so two configurations that differ only in a schedule constant can
        never satisfy each other's journal entries; ``prob_table`` may be
        passed to reuse a table already in hand, otherwise it is fetched
        from the per-process cache.  Protocol-factory runs capture the
        probe instance's public attributes (primitives and named
        sub-objects only) plus the caller's ``label``.
        """
        from repro.experiments.checkpoint import config_fingerprint

        horizon = self.resolve_horizon()
        jam_token: object = None
        if self.jam_rounds is not None:
            jam_token = ("jam_rounds", self.jam_rounds)
        elif self.jammer is not None:
            jam_token = ("jammer", stable_token(self.jammer))
        if self.is_traffic_run:
            adv_token: object = (
                arrival_token(self.arrivals, self.k, horizon),
                self.queue_discipline,
            )
        else:
            adv_token = adversary_token(self.adversary, self.k)
        fault_token: object = None if self.faults is None else self.faults.token()
        if self.is_schedule_run:
            if prob_table is None:
                from repro.engine.cache import probability_table

                prob_table = probability_table(self.schedule, horizon)
            table = np.asarray(prob_table, dtype=float)
            return config_fingerprint(
                "schedule",
                self.k,
                stable_token(self.schedule),
                self.schedule.horizon(),
                horizon,
                table[:4096].tobytes(),
                float(table.sum()),
                int(table.size),
                adv_token,
                self.switch_off_on_ack,
                self.stop.value,
                jam_token,
                fault_token,
            )
        probe = self.protocol_probe
        attrs = tuple(
            (key, stable_token(value))
            for key, value in sorted(getattr(probe, "__dict__", {}).items())
            if not key.startswith("_")
        )
        return config_fingerprint(
            "protocol",
            self.k,
            type(probe).__name__,
            getattr(self.protocol, "protocol_name", ""),
            self.label,
            attrs,
            horizon,
            adv_token,
            self.feedback.value if hasattr(self.feedback, "value") else str(self.feedback),
            self.stop.value,
            jam_token,
            fault_token,
        )
