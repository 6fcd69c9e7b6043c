"""Gaussian exchange pulses, analytic areas and slot scheduling.

Units: energies in ``hbar*omega0``, times in ``tau0``, widths in ``tau0^2``.
A gate occupies one slot of duration ``alpha*tau0`` (``alpha = 1`` by
default); the k-th sequential slot is the window ``[(k-1), k] * tau0`` and
its pulse is centred at ``(k - 1/2) * tau0``. Pulses are truncated to their
slot window: outside it they contribute nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np


@dataclass(frozen=True)
class GaussianPulse:
    """``J(t) = amplitude * exp(-(t - center)^2 / width)``."""

    amplitude: float
    width: float
    center: float

    def __post_init__(self):
        check_pulse_params(self.amplitude, self.width)

    def value(self, t):
        out = gaussian(np.asarray(t, dtype=float), self.amplitude, self.width, self.center)
        return out if out.ndim else float(out)


def check_pulse_params(amplitude, width):
    """Every pulse has a finite amplitude and a positive, finite width.
    Over arrays of one shape, the first pulse (in C order) that breaks a
    rule names it in the ``ValueError``, as building them in turn would."""
    bad_amplitude = ~np.isfinite(amplitude)
    bad = bad_amplitude | ~(np.greater(width, 0.0) & np.isfinite(width))
    if np.any(bad):
        if np.ravel(bad_amplitude)[np.argmax(bad)]:
            raise ValueError("pulse amplitude must be finite")
        raise ValueError("pulse width must be positive and finite")


def gaussian(t, amplitude, width, center):
    """``amplitude * exp(-(t - center)^2 / width)``, broadcast over array
    arguments: the one formula behind every pulse sample."""
    return amplitude * np.exp(-((t - center) ** 2) / width)


def pulse_area(pulse: GaussianPulse) -> float:
    """Full-line analytic area ``A * sqrt(pi * W)`` (units of hbar)."""
    return pulse.amplitude * math.sqrt(math.pi * pulse.width)


@dataclass(frozen=True, eq=False)
class ScheduledGate:
    """A gate bound to slot ``slot`` (its window is the schedule's
    ``slot_window(slot)``)."""

    gate: Any
    slot: int


@dataclass(frozen=True, eq=False)
class PulseSchedule:
    """Contiguous slots of equal duration, each holding zero or more gates.

    Gates sharing a slot act on pairwise-disjoint qubit pairs (the parallel
    two-row case); ``entries`` keeps the original gate order.
    """

    entries: tuple[ScheduledGate, ...]
    slot_duration: float
    num_slots: int

    @property
    def total_time(self) -> float:
        return self.num_slots * self.slot_duration

    def slot_window(self, k: int) -> tuple[float, float]:
        return k * self.slot_duration, (k + 1) * self.slot_duration

    def slot_entries(self, k: int) -> tuple[ScheduledGate, ...]:
        return tuple(e for e in self.entries if e.slot == k)


def _qubits_of(gate) -> frozenset:
    qubits = frozenset(gate.qubits)
    if len(qubits) != 2:
        raise ValueError("scheduled gates act on two distinct qubits")
    return qubits


def schedule_sequence(gates: Sequence, slot_duration: float = 1.0) -> PulseSchedule:
    """Assign gates to consecutive slots of length ``slot_duration``.

    Each item of ``gates`` is a gate spec, which gets a slot of its own,
    or a list/tuple of gates that share one slot. Gates on intersecting
    pairs can never share a slot.
    """
    if not (slot_duration > 0.0):
        raise ValueError("slot duration must be positive")

    groups: list[list] = []
    for item in gates:
        group = list(item) if isinstance(item, (list, tuple)) else [item]
        if not group:
            raise ValueError("empty parallel group")
        occupied: set = set()
        for g in group:
            q = _qubits_of(g)
            if occupied & q:
                raise ValueError("gates on intersecting qubit pairs cannot share a slot")
            occupied |= q
        groups.append(group)

    entries = tuple(
        ScheduledGate(gate=g, slot=k) for k, group in enumerate(groups) for g in group
    )
    return PulseSchedule(
        entries=entries, slot_duration=slot_duration, num_slots=len(groups)
    )
