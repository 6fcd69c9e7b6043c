import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import idle_schedule
from scipy.integrate import quad

from spinchain.calibration import analytic_channel_areas
from spinchain.hamiltonians import cnot_gate, rescale_channel_params, swap_gate
from spinchain.pulses import (
    PulseSchedule,
    ScheduledGate,
    check_pulse_params,
    gaussian,
    schedule_sequence,
)


def windowed_area(amplitude, width, center, start, end):
    """Numerical area of one pulse over ``[start, end]`` by adaptive quadrature."""
    val, _ = quad(gaussian, start, end, args=(amplitude, width, center),
                  epsabs=1e-14, epsrel=1e-12)
    return val


def area(amplitude, width):
    (value,) = analytic_channel_areas(((amplitude, width),))
    return value


def stretched(amplitude, width, alpha):
    """A one-slot (A, W) channel placed in a slot of duration ``alpha``, as
    its rescaled ``(amplitude, width, center)``."""
    a, w, center = rescale_channel_params(((amplitude, width),), 0.0, alpha)
    return a.item(), w.item(), center


def test_pulse_value_peaks_at_center():
    assert gaussian(0.4, 2.0, 0.05, 0.4) == pytest.approx(2.0)
    assert gaussian(0.4 + 0.1, 2.0, 0.05, 0.4) == pytest.approx(2.0 * math.exp(-0.01 / 0.05))
    ts = np.array([0.0, 0.4, 1.0])
    vals = gaussian(ts, 2.0, 0.05, 0.4)
    assert vals.shape == (3,)
    assert vals[1] == max(vals)


def test_pulse_validation():
    with pytest.raises(ValueError, match="width"):
        check_pulse_params(1.0, 0.0)
    with pytest.raises(ValueError, match="width"):
        check_pulse_params(1.0, -0.1)
    with pytest.raises(ValueError, match="width"):
        check_pulse_params(1.0, float("inf"))
    with pytest.raises(ValueError, match="amplitude"):
        check_pulse_params(float("nan"), 0.1)
    check_pulse_params(1.0, 0.1)


def test_first_bad_pulse_in_c_order_names_the_error():
    amplitude = np.array([[1.0, float("nan")], [1.0, 1.0]])
    width = np.array([[0.1, 0.1], [-1.0, 0.1]])
    with pytest.raises(ValueError, match="pulse amplitude must be finite"):
        check_pulse_params(amplitude, width)
    with pytest.raises(ValueError, match="pulse width must be positive and finite"):
        check_pulse_params(amplitude.T, width.T)
    check_pulse_params(np.ones((2, 2)), np.full((2, 2), 0.1))


def test_analytic_area_matches_quadrature_over_wide_window():
    assert area(3.2, 0.013) == pytest.approx(3.2 * math.sqrt(math.pi * 0.013), rel=1e-12)
    wide = windowed_area(3.2, 0.013, 0.5, -50.0, 50.0)
    assert wide == pytest.approx(area(3.2, 0.013), rel=1e-10)


def test_window_truncation_loss_is_small_for_slot_sized_window():
    # A slot-centred pulse with the stock width keeps all but ~1e-6 of its
    # area inside the slot: the tails at distance 0.5 carry the rest.
    inside = windowed_area(9.36309696, 0.020165, 0.5, 0.0, 1.0)
    loss = 1.0 - inside / area(9.36309696, 0.020165)
    assert 0.0 < loss < 1e-6


@settings(max_examples=40, deadline=None)
@given(
    amplitude=st.floats(0.01, 40.0),
    width=st.floats(1e-4, 0.5),
    alpha=st.floats(0.1, 120.0),
)
def test_rescaling_preserves_the_pulse_area(amplitude, width, alpha):
    a, w, center = stretched(amplitude, width, alpha)
    assert a == pytest.approx(amplitude / alpha)
    assert w == pytest.approx(width * alpha**2)
    assert center == pytest.approx(0.5 * alpha)
    assert area(a, w) == pytest.approx(area(amplitude, width), rel=1e-12)


def test_rescaled_pulse_is_the_time_stretched_profile():
    q = stretched(5.0, 0.02, 7.0)
    for t in (0.1, 0.45, 0.8):
        assert gaussian(7.0 * t, *q) == pytest.approx(gaussian(t, 5.0, 0.02, 0.5) / 7.0)


def test_rescale_rejects_nonpositive_factor():
    for alpha in (0.0, -1.0):
        with pytest.raises(ValueError):
            stretched(1.0, 0.02, alpha)


def test_sequential_schedule_one_slot_per_gate():
    gates = [swap_gate(1, 2), swap_gate(2, 3), cnot_gate(3, 4)]
    sched = schedule_sequence(gates, slot_duration=2.0)
    assert sched.num_slots == 3
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
    assert sched.entries == ()


def test_schedule_rejects_nonpositive_slot():
    with pytest.raises(ValueError):
        schedule_sequence([swap_gate(1, 2)], slot_duration=0.0)
