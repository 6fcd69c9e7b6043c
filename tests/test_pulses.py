import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import idle_schedule
from scipy.integrate import quad

from spinchain.hamiltonians import cnot_gate, materialize_channel_pulses, swap_gate
from spinchain.pulses import (
    GaussianPulse,
    PulseSchedule,
    ScheduledGate,
    pulse_area,
    schedule_sequence,
)


def windowed_area(pulse, start, end):
    """Numerical area over ``[start, end]`` by adaptive quadrature."""
    val, _ = quad(pulse.value, start, end, epsabs=1e-14, epsrel=1e-12)
    return val


def stretched(amplitude, width, alpha):
    """A one-slot (A, W) channel placed in a slot of duration ``alpha``."""
    (pulse,) = materialize_channel_pulses(((amplitude, width),), 0.0, alpha)
    return pulse


def test_pulse_value_peaks_at_center():
    p = GaussianPulse(amplitude=2.0, width=0.05, center=0.4)
    assert p.value(0.4) == pytest.approx(2.0)
    assert p.value(0.4 + 0.1) == pytest.approx(2.0 * math.exp(-0.01 / 0.05))
    ts = np.array([0.0, 0.4, 1.0])
    vals = p.value(ts)
    assert vals.shape == (3,)
    assert vals[1] == max(vals)


def test_pulse_validation():
    with pytest.raises(ValueError):
        GaussianPulse(amplitude=1.0, width=0.0, center=0.5)
    with pytest.raises(ValueError):
        GaussianPulse(amplitude=1.0, width=-0.1, center=0.5)
    with pytest.raises(ValueError):
        GaussianPulse(amplitude=1.0, width=float("inf"), center=0.5)
    with pytest.raises(ValueError):
        GaussianPulse(amplitude=float("nan"), width=0.1, center=0.5)


def test_analytic_area_matches_quadrature_over_wide_window():
    p = GaussianPulse(amplitude=3.2, width=0.013, center=0.5)
    assert pulse_area(p) == pytest.approx(3.2 * math.sqrt(math.pi * 0.013), rel=1e-12)
    wide = windowed_area(p, -50.0, 50.0)
    assert wide == pytest.approx(pulse_area(p), rel=1e-10)


def test_window_truncation_loss_is_small_for_slot_sized_window():
    # A slot-centred pulse with the stock width keeps all but ~1e-6 of its
    # area inside the slot: the tails at distance 0.5 carry the rest.
    p = GaussianPulse(amplitude=9.36309696, width=0.020165, center=0.5)
    inside = windowed_area(p, 0.0, 1.0)
    loss = 1.0 - inside / pulse_area(p)
    assert 0.0 < loss < 1e-6


@settings(max_examples=40, deadline=None)
@given(
    amplitude=st.floats(0.01, 40.0),
    width=st.floats(1e-4, 0.5),
    alpha=st.floats(0.1, 120.0),
)
def test_rescaling_preserves_the_pulse_area(amplitude, width, alpha):
    p = GaussianPulse(amplitude=amplitude, width=width, center=0.5)
    q = stretched(amplitude, width, alpha)
    assert q.amplitude == pytest.approx(amplitude / alpha)
    assert q.width == pytest.approx(width * alpha**2)
    assert q.center == pytest.approx(0.5 * alpha)
    assert pulse_area(q) == pytest.approx(pulse_area(p), rel=1e-12)


def test_rescaled_pulse_is_the_time_stretched_profile():
    p = GaussianPulse(amplitude=5.0, width=0.02, center=0.5)
    q = stretched(5.0, 0.02, 7.0)
    for t in (0.1, 0.45, 0.8):
        assert q.value(7.0 * t) == pytest.approx(p.value(t) / 7.0)


def test_rescale_rejects_nonpositive_factor():
    for alpha in (0.0, -1.0):
        with pytest.raises(ValueError):
            stretched(1.0, 0.02, alpha)


def test_sequential_schedule_one_slot_per_gate():
    gates = [swap_gate(1, 2), swap_gate(2, 3), cnot_gate(3, 4)]
    sched = schedule_sequence(gates, slot_duration=2.0)
    assert sched.num_slots == 3
    assert sched.total_time == pytest.approx(6.0)
    for k, gate in enumerate(gates):  # slots are indexed from zero
        entries = sched.slot_entries(k)
        assert [e.gate for e in entries] == [gate]
        assert entries[0].slot == k
        assert sched.slot_window(k) == pytest.approx((k * 2.0, (k + 1) * 2.0))


def test_explicit_parallel_group_shares_a_slot():
    sched = schedule_sequence(
        [cnot_gate(1, 2), [swap_gate(1, 3), swap_gate(2, 4)]],
        slot_duration=1.0,
    )
    assert sched.num_slots == 2
    slot2 = sched.slot_entries(1)
    assert len(slot2) == 2
    assert all(e.slot == 1 for e in slot2)
    assert sched.slot_window(1)[0] == pytest.approx(1.0)


def test_overlapping_gates_cannot_share_an_explicit_slot():
    with pytest.raises(ValueError, match="intersecting"):
        schedule_sequence([[swap_gate(1, 2), swap_gate(2, 3)]])


def test_slot_entries_select_by_integer_slot():
    sched = schedule_sequence([swap_gate(1, 2), swap_gate(2, 3)], slot_duration=0.1)
    assert [e.slot for e in sched.entries] == [0, 1]
    assert [e.gate.qubits for e in sched.slot_entries(1)] == [(2, 3)]
    assert sched.slot_entries(2) == ()
    # an entry carries its slot index, not a start time to be matched
    gate = swap_gate(1, 2)
    sparse = PulseSchedule(
        entries=(ScheduledGate(gate=gate, slot=3),), slot_duration=0.1, num_slots=4
    )
    assert [e.gate for e in sparse.slot_entries(3)] == [gate]
    assert all(sparse.slot_entries(k) == () for k in range(3))


def test_idle_schedule_has_no_entries():
    sched = idle_schedule(4, slot_duration=0.5)
    assert sched.num_slots == 4
    assert sched.total_time == pytest.approx(2.0)
    assert sched.entries == ()


def test_schedule_rejects_nonpositive_slot():
    with pytest.raises(ValueError):
        schedule_sequence([swap_gate(1, 2)], slot_duration=0.0)
