"""TDMA reference baseline (identifier-based, non-anonymous).

Time-division multiple access assigns each station a dedicated slot in a
frame of ``n`` slots.  It needs two things the paper's model denies:
unique IDs and a common frame alignment.  It is included as a *reference
point only* — the "trivial" solution whose inefficiency for sparse
contention (``k << n``) motivated random access in the first place
(Section 1.1), and whose breakage without a global clock motivates the
asynchronous model:

* :class:`AlignedTDMA` assumes wake rounds are multiples of the frame size
  (the simulator cannot grant a real global clock, so alignment only holds
  under schedules that wake stations at frame boundaries — e.g. the static
  schedule).  Collision-free by construction under that assumption.

* Under arbitrary wake times the same protocol mis-aligns and collides
  persistently — the benchmark shows exactly this failure, which is the
  cleanest illustration of why the dynamic model is harder.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.channel.feedback import Observation
from repro.channel.messages import DataPacket
from repro.core.protocol import Protocol, Transmission

__all__ = ["AlignedTDMA", "tdma_factory"]


class AlignedTDMA(Protocol):
    """Transmit in local rounds congruent to ``slot`` modulo ``frame``.

    ``slot=None`` (what :func:`tdma_factory` builds) takes
    ``station_id % frame`` at :meth:`begin`: the simulator numbers
    stations in wake order, so consecutive stations get consecutive slots.
    Retries every frame until acknowledged (so under misalignment it keeps
    colliding rather than giving up — the instructive failure mode).
    """

    def __init__(self, slot: Optional[int], frame: int):
        super().__init__()
        if frame < 1:
            raise ValueError(f"frame must be >= 1, got {frame}")
        if slot is not None and not 0 <= slot < frame:
            raise ValueError(f"slot must be in [0, {frame}), got {slot}")
        self.slot = slot
        self.frame = frame
        self.name = f"TDMA(frame={frame})"

    def begin(self, station_id: int, rng: np.random.Generator) -> None:
        super().begin(station_id, rng)
        if self.slot is None:
            self.slot = station_id % self.frame

    def decide(self, local_round: int) -> Optional[Transmission]:
        if local_round % self.frame == self.slot:
            return Transmission(DataPacket(origin=self.station_id))
        return None

    def observe(self, observation: Observation) -> None:
        if observation.acked:
            self.switch_off()


def tdma_factory(frame: int):
    """Factory for stations that take consecutive slots in wake order.

    The slot comes from the station id the simulator assigns at
    activation, not from the factory, so every run (and every probe of a
    spec) sees the same slots — the ids are precisely the extra power TDMA
    needs and the paper's anonymous model forbids.
    """

    def make() -> AlignedTDMA:
        return AlignedTDMA(slot=None, frame=frame)

    make.protocol_name = f"TDMA(frame={frame})"
    return make
