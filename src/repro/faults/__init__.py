"""Fault injection: channel noise, lost acknowledgements, energy budgets.

The paper's channel is ideal — slots resolve perfectly and every
successful transmission is acknowledged.  This package models the three
hostile-environment axes the robustness literature (Jiang–Zheng, and the
adversarial contention-resolution survey) uses to separate robust
protocols from fragile ones:

``SlotNoise(p)``
    Each round, independently with probability ``p``, a slot that would
    have resolved as a *success* is corrupted into a **collision**: no
    station is acknowledged and collision-detection listeners observe a
    collision.  Rounds that were already silent or colliding are
    unaffected (there is nothing to corrupt).

``AckLoss(p)``
    Each round, independently with probability ``p``, the
    acknowledgement of an otherwise-successful transmission is dropped.
    Listeners still hear the payload (the channel outcome stays
    ``SUCCESS``), but the sender is never told it won, so it keeps
    contending and its ``first_success_round`` stays unset.

``EnergyBudget(charges)``
    Every transmission and every listening slot costs one charge.  A
    station that has spent ``charges`` charges is switched off
    mid-protocol at the end of that round, whether or not it ever
    succeeded.

Components compose into a frozen, fingerprint-able :class:`FaultModel`
attached to ``RunSpec.faults``.  Fault rounds are *oblivious*: they are
pre-drawn over global rounds ``1..horizon`` from a dedicated RNG keyed
by ``(_FAULT_SALT, seed)`` — deliberately **not** a child of the
engines' ``SeedSequence`` fan-out, so attaching a fault model never
shifts the wake/decision streams of the run it perturbs, and the
``faults=None`` behaviour of every engine is bit-for-bit unchanged.
Because the plan depends only on ``(seed, horizon)``, the object,
vectorized, and batched engines draw identical plans and faulted runs
journal and ``--resume`` byte-identically.

When both components fire on the same round, noise wins: the slot is
corrupted into a collision before there is any acknowledgement to drop.
Every engine applies the same precedence.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

__all__ = [
    "SlotNoise",
    "AckLoss",
    "EnergyBudget",
    "FaultModel",
    "FaultPlan",
    "fault_model",
    "set_default_faults",
    "current_faults",
    "use_faults",
]

#: Salt mixed into the fault-plan SeedSequence so the fault stream is
#: decoupled from every engine RNG derived from the bare run seed.
_FAULT_SALT = 0xFA017


@dataclass(frozen=True)
class SlotNoise:
    """Corrupt a would-be success slot into a collision w.p. ``p``."""

    p: float

    def __post_init__(self) -> None:
        p = float(self.p)
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"SlotNoise probability must be in [0, 1], got {self.p!r}")
        object.__setattr__(self, "p", p)


@dataclass(frozen=True)
class AckLoss:
    """Drop the winner's acknowledgement w.p. ``p`` (payload still heard)."""

    p: float

    def __post_init__(self) -> None:
        p = float(self.p)
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"AckLoss probability must be in [0, 1], got {self.p!r}")
        object.__setattr__(self, "p", p)


@dataclass(frozen=True)
class EnergyBudget:
    """Kill a station once it has spent ``charges`` transmit/listen charges."""

    charges: int

    def __post_init__(self) -> None:
        if isinstance(self.charges, bool) or not isinstance(
            self.charges, (int, np.integer)
        ):
            raise TypeError(
                f"EnergyBudget charges must be an int, got {self.charges!r}"
            )
        charges = int(self.charges)
        if charges < 1:
            raise ValueError(f"EnergyBudget charges must be >= 1, got {self.charges!r}")
        object.__setattr__(self, "charges", charges)


_EMPTY_ROUNDS = np.empty(0, dtype=np.int64)


class FaultPlan:
    """Pre-drawn fault rounds for one run: the oblivious realisation.

    ``noise_rounds``/``ack_rounds`` are sorted int64 arrays of global
    round numbers (1-based, inclusive of the horizon); ``fault_rounds``
    is their sorted union for the batched key masks, and the frozensets
    (built on access) back O(1) membership tests in the object engine's
    round loop.
    """

    __slots__ = ("noise_rounds", "ack_rounds", "fault_rounds")

    def __init__(self, noise_rounds: np.ndarray, ack_rounds: np.ndarray) -> None:
        self.noise_rounds = noise_rounds
        self.ack_rounds = ack_rounds
        self.fault_rounds = np.union1d(noise_rounds, ack_rounds)

    @property
    def noise_set(self) -> frozenset:
        return frozenset(self.noise_rounds.tolist())

    @property
    def ack_set(self) -> frozenset:
        return frozenset(self.ack_rounds.tolist())


@dataclass(frozen=True)
class FaultModel:
    """Composable fault components; at least one must be present.

    Frozen and hashable so it can ride on the frozen ``RunSpec`` and be
    folded into checkpoint fingerprints via :meth:`token`.
    """

    noise: Optional[SlotNoise] = None
    ack_loss: Optional[AckLoss] = None
    energy_budget: Optional[EnergyBudget] = None

    def __post_init__(self) -> None:
        if self.noise is None and self.ack_loss is None and self.energy_budget is None:
            raise ValueError(
                "FaultModel needs at least one component "
                "(noise=, ack_loss=, or energy_budget=); use faults=None "
                "for the ideal channel"
            )
        if self.noise is not None and not isinstance(self.noise, SlotNoise):
            raise TypeError(f"noise must be a SlotNoise, got {type(self.noise).__name__}")
        if self.ack_loss is not None and not isinstance(self.ack_loss, AckLoss):
            raise TypeError(
                f"ack_loss must be an AckLoss, got {type(self.ack_loss).__name__}"
            )
        if self.energy_budget is not None and not isinstance(
            self.energy_budget, EnergyBudget
        ):
            raise TypeError(
                "energy_budget must be an EnergyBudget, "
                f"got {type(self.energy_budget).__name__}"
            )

    def token(self) -> tuple:
        """Stable fingerprint component for checkpoint journals."""
        return (
            "faults",
            None if self.noise is None else self.noise.p,
            None if self.ack_loss is None else self.ack_loss.p,
            None if self.energy_budget is None else self.energy_budget.charges,
        )

    def plan(self, seed: Optional[int], horizon: int) -> FaultPlan:
        """Draw the oblivious fault realisation for one run.

        Deterministic in ``(seed, horizon)``: the noise stream is always
        drawn before the ack-loss stream, and a component draws its
        uniforms whenever it is present (even at p=0) so adding the
        other component never shifts an existing stream.  ``seed=None``
        falls back to OS entropy — such runs cannot be journaled anyway.
        """
        if seed is None:
            sequence = np.random.SeedSequence()
        else:
            sequence = np.random.SeedSequence([_FAULT_SALT, int(seed)])
        rng = np.random.Generator(np.random.PCG64(sequence))
        horizon = int(horizon)
        noise_rounds = _EMPTY_ROUNDS
        ack_rounds = _EMPTY_ROUNDS
        if self.noise is not None:
            draws = rng.random(horizon) < self.noise.p
            noise_rounds = np.flatnonzero(draws).astype(np.int64) + 1
        if self.ack_loss is not None:
            draws = rng.random(horizon) < self.ack_loss.p
            ack_rounds = np.flatnonzero(draws).astype(np.int64) + 1
        return FaultPlan(noise_rounds, ack_rounds)


def fault_model(
    noise: Optional[float] = None,
    ack_loss: Optional[float] = None,
    energy_budget: Optional[int] = None,
) -> Optional[FaultModel]:
    """Build a :class:`FaultModel` from scalar CLI-style knobs.

    Returns ``None`` when every knob is ``None`` so callers can thread
    optional ``--noise``/``--ack-loss``/``--energy-budget`` flags
    straight through without special-casing the unfaulted default.
    """
    if noise is None and ack_loss is None and energy_budget is None:
        return None
    return FaultModel(
        noise=None if noise is None else SlotNoise(float(noise)),
        ack_loss=None if ack_loss is None else AckLoss(float(ack_loss)),
        energy_budget=None if energy_budget is None else EnergyBudget(int(energy_budget)),
    )


#: Process-wide default fault model, folded into harness-built specs by
#: ``repro.experiments.harness`` (mirrors ``use_engine``/``use_jobs``).
_DEFAULT_FAULTS: Optional[FaultModel] = None


def set_default_faults(faults: Optional[FaultModel]) -> None:
    """Set (or clear, with ``None``) the process-default fault model."""
    global _DEFAULT_FAULTS
    if faults is not None and not isinstance(faults, FaultModel):
        raise TypeError(f"expected FaultModel or None, got {type(faults).__name__}")
    _DEFAULT_FAULTS = faults


def current_faults() -> Optional[FaultModel]:
    """The process-default fault model, or ``None`` for the ideal channel."""
    return _DEFAULT_FAULTS


@contextmanager
def use_faults(faults: Optional[FaultModel]) -> Iterator[None]:
    """Scope the process-default fault model; ``None`` is a no-op scope."""
    global _DEFAULT_FAULTS
    previous = _DEFAULT_FAULTS
    if faults is not None:
        set_default_faults(faults)
    try:
        yield
    finally:
        _DEFAULT_FAULTS = previous
