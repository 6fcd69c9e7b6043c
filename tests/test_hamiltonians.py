"""Tests for gate Hamiltonian construction and the ideal gate targets."""

import warnings

import numpy as np
import pytest
from oracles import dense_hamiltonian, slot_channels
from scipy.linalg import expm

from spinchain.dynamics import slot_unitary
from spinchain.hamiltonians import (
    DEFAULT_CNOT_COUPLING_PARAMS,
    DEFAULT_CNOT_LOCAL_PARAMS,
    DEFAULT_SWAP_PARAMS,
    GATE_KINDS,
    ROTATION_FRAME,
    STOCK_PARAMS,
    GateSpec,
    cnot_gate,
    gate_channel_blocks,
    gate_eigensystem,
    ideal_gate_matrix,
    rescale_channel_params,
    rotated_cnot_gate,
    swap_gate,
)
from spinchain.calibration import _POLISHED_BANK, CalibrationProblem, analytic_channel_areas
from spinchain.pulses import gaussian, schedule_sequence

# Independent Pauli literals so the oracle does not share code with the
# module under test.
I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def kron2(a, b):
    return np.kron(a, b)


# ---------------------------------------------------------------------------
# frame conjugation: the rotated drive is the plain CNOT drive seen from
# the rotated control frame
# ---------------------------------------------------------------------------


def test_rotation_frame_is_unitary():
    r = ROTATION_FRAME
    assert np.allclose(r @ r.conj().T, I2, atol=1e-15)
    assert np.allclose(r, np.array([[1, 1], [-1, 1]]) / np.sqrt(2.0))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_rotated_drive_matches_frame_conjugation(seed):
    rng = np.random.default_rng(seed)
    j1, j2 = rng.uniform(-5.0, 5.0, size=2)
    plain = j1 * (kron2(I2, SX) + kron2(SZ, I2)) + j2 * kron2(SZ, SX)
    r2 = kron2(ROTATION_FRAME, I2)
    conjugated = r2 @ plain @ r2.conj().T
    rotated = j1 * (kron2(I2, SX) - kron2(SX, I2)) - j2 * kron2(SX, SX)
    assert np.max(np.abs(conjugated - rotated)) < 1e-12


def test_channel_blocks_match_kron_oracle():
    oracle = {
        "swap": (kron2(SX, SX) + kron2(SY, SY) + kron2(SZ, SZ),),
        "cnot": (kron2(I2, SX) + kron2(SZ, I2), kron2(SZ, SX)),
        "cnot_rotated": (kron2(I2, SX) - kron2(SX, I2), -kron2(SX, SX)),
    }
    for kind in GATE_KINDS:
        blocks = gate_channel_blocks(kind)
        assert len(blocks) == len(oracle[kind])
        for got, want in zip(blocks, oracle[kind]):
            assert np.array_equal(got, want)
    with pytest.raises(ValueError):
        gate_channel_blocks("iswap")


@pytest.mark.parametrize("kind", ["cnot", "cnot_rotated"])
def test_channel_blocks_commute(kind):
    b1, b2 = gate_channel_blocks(kind)
    assert np.max(np.abs(b1 @ b2 - b2 @ b1)) < 1e-14


@pytest.mark.parametrize("kind", GATE_KINDS)
def test_gate_eigensystem_diagonalises_every_channel(kind):
    v, diags = gate_eigensystem(kind)
    assert np.allclose(v.conj().T @ v, np.eye(4), atol=1e-12)
    for block, d in zip(gate_channel_blocks(kind), diags):
        assert np.max(np.abs(v @ np.diag(d) @ v.conj().T - block)) < 1e-10


# ---------------------------------------------------------------------------
# ideal targets and the exact pulse-area families that reach them
# ---------------------------------------------------------------------------


def test_ideal_swap_matrix_permutes_middle_states():
    u = ideal_gate_matrix("swap")
    e = np.eye(4)
    # qubit 1 is the high bit: |01> = e[1], |10> = e[2]
    assert np.array_equal(u @ e[1], e[2])
    assert np.array_equal(u @ e[2], e[1])
    assert np.array_equal(u @ e[0], e[0])
    assert np.array_equal(u @ e[3], e[3])


def test_ideal_cnot_matrix_flips_target_on_control_one():
    u = ideal_gate_matrix("cnot")
    e = np.eye(4)
    assert np.array_equal(u @ e[0], e[0])  # |00> -> |00>
    assert np.array_equal(u @ e[1], e[1])  # |01> -> |01>
    assert np.array_equal(u @ e[2], e[3])  # |10> -> |11>
    assert np.array_equal(u @ e[3], e[2])  # |11> -> |10>


def test_ideal_rotated_cnot_is_frame_conjugated_cnot():
    r2 = kron2(ROTATION_FRAME, I2)
    want = r2 @ ideal_gate_matrix("cnot") @ r2.conj().T
    assert np.max(np.abs(ideal_gate_matrix("cnot_rotated") - want)) < 1e-15


@pytest.mark.parametrize("kind", GATE_KINDS)
def test_ideal_gate_matrices_are_unitary(kind):
    u = ideal_gate_matrix(kind)
    assert np.allclose(u @ u.conj().T, np.eye(4), atol=1e-12)


def phase_distance(u, target):
    """How far ``u`` is from ``target`` up to a global phase (0 = equal)."""
    return 1.0 - abs(np.trace(u @ target.conj().T)) / 4.0


@pytest.mark.parametrize("area", [np.pi / 4, 3 * np.pi / 4, 5 * np.pi / 4])
def test_exchange_area_family_realises_swap(area):
    generator = kron2(SX, SX) + kron2(SY, SY) + kron2(SZ, SZ)
    u = expm(-1j * area * generator)
    assert phase_distance(u, ideal_gate_matrix("swap")) < 1e-12


def test_exchange_area_off_family_is_not_swap():
    generator = kron2(SX, SX) + kron2(SY, SY) + kron2(SZ, SZ)
    u = expm(-1j * (np.pi / 2) * generator)
    assert phase_distance(u, ideal_gate_matrix("swap")) > 0.01


@pytest.mark.parametrize(
    "a1, a2",
    [
        (3 * np.pi / 4, np.pi / 4),
        (np.pi / 4, 3 * np.pi / 4),
        (5 * np.pi / 4, 3 * np.pi / 4),
    ],
)
def test_cnot_area_family_realises_cnot(a1, a2):
    b1, b2 = gate_channel_blocks("cnot")
    u = expm(-1j * (a1 * b1 + a2 * b2))
    assert phase_distance(u, ideal_gate_matrix("cnot")) < 1e-12


def test_rotated_cnot_areas_realise_rotated_cnot():
    b1, b2 = gate_channel_blocks("cnot_rotated")
    u = expm(-1j * (3 * np.pi / 4 * b1 + np.pi / 4 * b2))
    assert phase_distance(u, ideal_gate_matrix("cnot_rotated")) < 1e-12


def test_stock_parameters_hit_the_exact_areas():
    for (a, w), target in [
        (DEFAULT_SWAP_PARAMS, 3 * np.pi / 4),
        (DEFAULT_CNOT_LOCAL_PARAMS, 3 * np.pi / 4),
        (DEFAULT_CNOT_COUPLING_PARAMS, np.pi / 4),
    ]:
        assert abs(a * np.sqrt(np.pi * w) - target) < 5e-4


# ---------------------------------------------------------------------------
# GateSpec construction and validation
# ---------------------------------------------------------------------------


def test_gate_constructors_carry_kind_qubits_params():
    s = swap_gate(2, 3)
    assert (s.kind, s.qubits, s.params) == ("swap", (2, 3), (DEFAULT_SWAP_PARAMS,))
    c = cnot_gate(1, 2)
    assert c.kind == "cnot"
    assert c.params == (DEFAULT_CNOT_LOCAL_PARAMS, DEFAULT_CNOT_COUPLING_PARAMS)
    r = rotated_cnot_gate(4, 2, local_params=(1.0, 0.5), coupling_params=(2.0, 0.25))
    assert r.kind == "cnot_rotated"
    assert r.qubits == (4, 2)
    assert r.params == ((1.0, 0.5), (2.0, 0.25))


@pytest.mark.parametrize("kind", GATE_KINDS)
def test_the_stock_table_names_every_channel_of_every_kind(kind):
    # one row per kind, one (A, W) pair per channel, wherever a kind's
    # channels are counted
    channels = len(STOCK_PARAMS[kind])
    assert channels == len(gate_channel_blocks(kind)) == len(gate_eigensystem(kind)[1])
    assert channels == CalibrationProblem(kind).n_channels
    assert set(STOCK_PARAMS) == set(_POLISHED_BANK) == set(GATE_KINDS)
    builder = {"swap": swap_gate, "cnot": cnot_gate, "cnot_rotated": rotated_cnot_gate}[kind]
    assert builder(1, 2).params == STOCK_PARAMS[kind]


def test_gate_spec_rejects_bad_input():
    with pytest.raises(ValueError):
        GateSpec(kind="toffoli", qubits=(1, 2), params=((1.0, 0.1),))
    with pytest.raises(ValueError):
        swap_gate(2, 2)
    with pytest.raises(ValueError):
        swap_gate(0, 1)
    with pytest.raises(ValueError):
        GateSpec(kind="swap", qubits=(1, 2), params=((1.0, 0.1), (1.0, 0.1)))
    with pytest.raises(ValueError):
        GateSpec(kind="cnot", qubits=(1, 2), params=((1.0, 0.1),))
    with pytest.raises(ValueError):
        swap_gate(1, 2, params=(1.0, -0.1))


@pytest.mark.parametrize(
    "pulse, message",
    [
        ((np.nan, np.inf), "pulse amplitude must be finite"),
        ((1.0, -1.0), "pulse width must be positive and finite"),
        ((np.inf, 0.02), "pulse amplitude must be finite"),
        ((1.0, np.nan), "pulse width must be positive and finite"),
    ],
)
def test_gate_spec_holds_every_pulse_to_the_one_pulse_rule(pulse, message):
    # a bad pulse is refused where the gate is made, with check_pulse_params'
    # message, in either channel of the CNOT kinds
    with pytest.raises(ValueError, match=message):
        swap_gate(1, 2, pulse)
    for build in (cnot_gate, rotated_cnot_gate):
        with pytest.raises(ValueError, match=message):
            build(1, 2, local_params=pulse)
        with pytest.raises(ValueError, match=message):
            build(1, 2, coupling_params=pulse)


# ---------------------------------------------------------------------------
# pulse rescaling and window masking
# ---------------------------------------------------------------------------


def test_rescale_stretches_and_centres():
    amplitude, width, center = rescale_channel_params(((6.0, 0.04),), 2.0, 5.0)
    assert amplitude.shape == width.shape == (1, 1)
    assert amplitude.item() == pytest.approx(6.0 / 3.0)
    assert width.item() == pytest.approx(0.04 * 9.0)
    assert center == pytest.approx(3.5)
    # slot duration drops out of the analytic area
    (rescaled,) = analytic_channel_areas(((amplitude.item(), width.item()),))
    assert rescaled == pytest.approx(analytic_channel_areas(((6.0, 0.04),))[0])


def test_rescale_rejects_empty_window():
    with pytest.raises(ValueError):
        rescale_channel_params(((1.0, 0.1),), 1.0, 1.0)


def test_cnot_terms_bind_local_then_coupling_pulses():
    gate = cnot_gate(1, 2, (4.0, 0.01), (2.0, 0.02))
    amplitude, _, _ = rescale_channel_params(gate.params, 0.0, 1.0)
    local, coupling = amplitude.ravel()
    assert local == pytest.approx(4.0)
    assert coupling == pytest.approx(2.0)
    # the local channel drives IX + ZI together, the coupling channel ZX
    b_local, b_coupling = gate_channel_blocks("cnot")
    assert np.array_equal(b_local, kron2(I2, SX) + kron2(SZ, I2))
    assert np.array_equal(b_coupling, kron2(SZ, SX))


# ---------------------------------------------------------------------------
# whole-schedule assembly against a dense oracle
# ---------------------------------------------------------------------------


def test_assemble_selects_only_the_active_slot():
    """The dense test oracle drives each slot with that slot's gate only."""
    schedule = schedule_sequence([cnot_gate(1, 2), swap_gate(2, 3)], slot_duration=1.0)
    cnot_pulses = rescale_channel_params(cnot_gate(1, 2).params, 0.0, 1.0)
    swap_pulse = rescale_channel_params((DEFAULT_SWAP_PARAMS,), 1.0, 2.0)
    for t in (0.25, 0.5):
        local, coupling = gaussian(t, *cnot_pulses).ravel()
        pair = local * (kron2(I2, SX) + kron2(SZ, I2)) + coupling * kron2(SZ, SX)
        h = dense_hamiltonian(slot_channels(schedule, 0, 3), t, 3)
        assert np.max(np.abs(h - np.kron(pair, I2))) < 1e-12
    for t in (1.1, 1.9):
        (exchange,) = gaussian(t, *swap_pulse).ravel()
        pair = exchange * (kron2(SX, SX) + kron2(SY, SY) + kron2(SZ, SZ))
        h = dense_hamiltonian(slot_channels(schedule, 1, 3), t, 3)
        assert np.max(np.abs(h - np.kron(I2, pair))) < 1e-12


def test_dense_assembly_matches_manual_kron():
    schedule = schedule_sequence([swap_gate(1, 2)], slot_duration=1.0)
    t = 0.4
    h = dense_hamiltonian(slot_channels(schedule, 0, 3), t, 3)
    (exchange,) = gaussian(t, *rescale_channel_params((DEFAULT_SWAP_PARAMS,), 0.0, 1.0)).ravel()
    coupling = kron2(SX, SX) + kron2(SY, SY) + kron2(SZ, SZ)
    want = exchange * np.kron(coupling, I2)
    assert np.max(np.abs(h - want)) < 1e-12


@pytest.mark.parametrize("alpha", [1e200, 1e-300, 5e-324])
def test_unrepresentable_pulse_rescaling_is_refused(alpha):
    with pytest.raises(ValueError, match="pulse (amplitude|width) must be") as built:
        rescale_channel_params(((10.0, 0.02),), 0.0, alpha)
    # the sampled slot unitary rescales the same way and refuses it alike,
    # alone or anywhere in a batch, without a numpy warning
    for params in (((10.0, 0.02),), [((1.0, 0.02),), ((10.0, 0.02),)]):
        with pytest.raises(ValueError) as sampled:
            slot_unitary("swap", params, alpha)
        assert str(sampled.value) == str(built.value)


def test_float64_params_past_the_float_range_are_refused_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="pulse amplitude must be finite"):
            rescale_channel_params(((np.float64(1.0), np.float64(0.1)),), 0.0, 5e-324)


def test_rescaled_params_broadcast_over_a_batch_of_channels():
    # one (A, W) row per channel and batch entry, each the entry rescaled alone
    batch = [((9.0, 0.02), (3.0, 0.05)), ((1.5, 0.3), (2.0, 0.01))]
    amplitude, width, center = rescale_channel_params(batch, 1.0, 3.5)
    assert amplitude.shape == width.shape == (2, 2, 1) and center == 2.25
    for params, a, w in zip(batch, amplitude, width):
        alone = rescale_channel_params(params, 1.0, 3.5)
        assert np.array_equal(alone[0], a) and np.array_equal(alone[1], w)
        assert alone[2] == center
