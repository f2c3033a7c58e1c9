"""The shared-channel substrate: events, feedback, and the engines."""

from repro.channel.events import RoundEvent, RoundOutcome
from repro.channel.feedback import FeedbackModel, Observation
from repro.channel.messages import (
    AnybodyOutThereProbe,
    DataPacket,
    DModeAnnouncement,
    control_bit,
)
from repro.channel.jamming import (
    Jammer,
    PeriodicJammer,
    RandomJammer,
    ReactiveJammer,
    ScheduledJammer,
    draw_jam_rounds,
)
from repro.channel.results import RunResult, StopCondition
from repro.channel.simulator import SlotSimulator, default_max_rounds
from repro.channel.trace_tools import (
    dump_run_result,
    load_run_result,
    render_timeline,
    success_gaps,
)
from repro.channel.traffic import (
    ArrivalWakeSchedule,
    QueueSimulator,
    draw_packets,
    traffic_reduction,
)
from repro.channel.batched import hazard_table
from repro.channel.validate import InvariantViolation, validate_run

__all__ = [
    "Jammer",
    "PeriodicJammer",
    "RandomJammer",
    "ReactiveJammer",
    "ScheduledJammer",
    "draw_jam_rounds",
    "dump_run_result",
    "load_run_result",
    "render_timeline",
    "success_gaps",
    "InvariantViolation",
    "validate_run",
    "RoundEvent",
    "RoundOutcome",
    "FeedbackModel",
    "Observation",
    "AnybodyOutThereProbe",
    "DataPacket",
    "DModeAnnouncement",
    "control_bit",
    "RunResult",
    "StopCondition",
    "SlotSimulator",
    "default_max_rounds",
    "hazard_table",
    "ArrivalWakeSchedule",
    "QueueSimulator",
    "draw_packets",
    "traffic_reduction",
]
