"""Tests for the unitary and master-equation evolution engines."""

import sys
import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from oracles import (
    evolve_lindblad,
    evolve_unitary,
    idle_schedule,
    pair_rk4_loop,
    pair_rk4_natural,
    pair_step_maps_stages,
    reduced_state,
    rk4_lindblad,
    row_major_from_pauli,
    stepped_unitary,
)

from spinchain import dynamics
from spinchain import circuits
from spinchain.circuits import (
    GATE_ORDERS,
    ChainTopology,
    build_transport_circuit,
    evolve_lindblad_product,
    transport_fidelity,
)
from spinchain.dynamics import (
    DEFAULT_STEPS_PER_SLOT,
    MAX_STEPS_PER_SLOT,
    NOISELESS,
    PAIR_CHUNK_STEPS,
    IntegratorConfig,
    NoiseModel,
    NumericalError,
    TRACE_ABORT_TOL,
    TraceDriftError,
    _idle_superop,
    _resolve_steps,
    gate_fidelity,
    gate_step_maps,
    gate_superoperator,
    gate_superoperators,
    slot_unitary,
)
from spinchain.hamiltonians import (
    cnot_gate,
    gate_channel_blocks,
    ideal_gate_matrix,
    rescale_channel_params,
    rotated_cnot_gate,
    swap_gate,
)
from spinchain.pulses import gaussian, schedule_sequence


def ket(*bits):
    """Computational basis state, first qubit = most significant bit."""
    index = 0
    for b in bits:
        index = (index << 1) | b
    v = np.zeros(2 ** len(bits), dtype=complex)
    v[index] = 1.0
    return v


def proj(psi):
    return np.outer(psi, psi.conj())


PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)


def step_maps(gate, noise, duration=1.0, cfg=None):
    """The chunks of :func:`gate_step_maps` joined into ``(times, maps)``;
    each chunk holds at most ``PAIR_CHUNK_STEPS`` steps."""
    chunks = list(gate_step_maps(gate, noise, duration, cfg))
    assert all(len(t) == len(m) <= PAIR_CHUNK_STEPS for t, m in chunks[1:])
    return np.concatenate([t for t, _ in chunks]), np.concatenate([m for _, m in chunks])


def evolve(method, sites, schedule, noise, dt=None):
    """The state of every site after running ``schedule`` on the product of
    the 2x2 ``sites``: ``rk4`` is the dense full-chain oracle, ``factored``
    the package's contraction."""
    if method == "rk4":
        return rk4_lindblad(reduce(np.kron, sites), schedule, noise, dt)
    keep = range(1, len(sites) + 1)
    return evolve_lindblad_product(sites, schedule, noise, keep, IntegratorConfig(dt=dt))


# ---------------------------------------------------------------------------
# pure-state path
# ---------------------------------------------------------------------------


def test_unitary_stepping_matches_expm_product():
    """The closed-form slots are exactly a product of right-endpoint
    exponentials; only the slot's own gates drive its steps, and the
    slot-end step contributes nothing."""
    rng = np.random.default_rng(7)
    for gates, n in [
        ([swap_gate(1, 2)], 2),
        ([cnot_gate(1, 2), swap_gate(2, 3)], 3),
    ]:
        schedule = schedule_sequence(gates, slot_duration=1.0)
        psi = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        psi /= np.linalg.norm(psi)
        n_steps = 50
        oracle = stepped_unitary(schedule, n, n_steps) @ psi
        out = evolve_unitary(psi, schedule, IntegratorConfig(dt=1.0 / n_steps))
        assert np.max(np.abs(out - oracle)) < 1e-12


# Slot durations from the default duration sweep at which the accumulated
# step time m*dt + dt of the last step lands just below the slot end.
EDGE_ALPHAS = (1.6102620275609394, 12.689610031679221, 38.56620421163472)


@pytest.mark.parametrize("alpha", EDGE_ALPHAS + (1.0,))
def test_slot_unitary_window_is_set_by_step_index(alpha):
    gate = cnot_gate(1, 2)
    schedule = schedule_sequence([gate], slot_duration=alpha)
    oracle = stepped_unitary(schedule, 2, DEFAULT_STEPS_PER_SLOT)
    out = slot_unitary(gate.kind, gate.params, alpha, DEFAULT_STEPS_PER_SLOT)
    assert np.max(np.abs(out - oracle)) < 1e-12


def test_unitary_preserves_norm_and_accepts_stretched_slots():
    psi = np.kron(PLUS, ket(0))
    gate = swap_gate(1, 2)
    out = slot_unitary(gate.kind, gate.params, 3.0, 300) @ psi
    assert abs(np.linalg.norm(out) - 1.0) < 1e-12


def test_unitary_rejects_gate_outside_chain():
    with pytest.raises(ValueError, match="outside the chain"):
        evolve_lindblad_product(
            [proj(ket(0))] * 2, schedule_sequence([swap_gate(2, 3)]), NOISELESS, (1, 2)
        )


# ---------------------------------------------------------------------------
# closed-form single-site channels (independent analytic oracle)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("method, tol", [("rk4", 1e-6), ("factored", 1e-12)])
@pytest.mark.parametrize("gamma", [0.2, 1.0, 5.0])
def test_dephasing_idle_closed_form(method, tol, gamma):
    out = evolve(method, [proj(PLUS)], idle_schedule(1), NoiseModel("dephasing", gamma))
    want = 0.5 * np.exp(-2.0 * gamma)
    assert abs(out[0, 1] - want) < tol * want
    # populations untouched
    assert abs(out[0, 0] - 0.5) < 1e-12
    assert abs(out[1, 1] - 0.5) < 1e-12


@pytest.mark.parametrize("method, tol", [("rk4", 1e-6), ("factored", 1e-12)])
@pytest.mark.parametrize("gamma", [0.2, 1.0, 5.0])
def test_amplitude_damping_idle_closed_form(method, tol, gamma):
    noise = NoiseModel("amplitude_damping", gamma)

    # the |0> population drains to |1>
    out = evolve(method, [proj(ket(0))], idle_schedule(1), noise)
    e = np.exp(-gamma)
    assert abs(out[0, 0] - e) < tol * e
    assert abs(out[1, 1] - (1.0 - e)) < tol

    # coherence decays at half the population rate
    out = evolve(method, [proj(PLUS)], idle_schedule(1), noise)
    want = 0.5 * np.exp(-0.5 * gamma)
    assert abs(out[0, 1] - want) < tol * want

    # |1> is the fixed point
    out = evolve(method, [proj(ket(1))], idle_schedule(1), noise)
    assert abs(out[1, 1] - 1.0) < 1e-12


def test_amplitude_damping_accumulates_across_slots():
    noise = NoiseModel("amplitude_damping", 1.0)
    out = evolve("factored", [proj(ket(0))], idle_schedule(5), noise)
    assert abs(out[0, 0] - np.exp(-5.0)) < 1e-12


@pytest.mark.parametrize("method, tol", [("rk4", 1e-6), ("factored", 1e-12)])
def test_two_site_amplitude_damping_factorises(method, tol):
    gamma = 0.8
    out = evolve(
        method, [proj(ket(0))] * 2, idle_schedule(1), NoiseModel("amplitude_damping", gamma)
    )
    e = np.exp(-gamma)
    diag = np.real(np.diag(out))
    assert abs(diag[0] - e * e) < tol
    assert abs(diag[1] - e * (1 - e)) < tol
    assert abs(diag[2] - (1 - e) * e) < tol
    assert abs(diag[3] - (1 - e) * (1 - e)) < tol


# ---------------------------------------------------------------------------
# factored path vs the dense full-chain RK4 oracle
# ---------------------------------------------------------------------------


def three_qubit_case():
    sites = [proj(PLUS), proj(ket(0)), proj(ket(0))]
    schedule = schedule_sequence([cnot_gate(1, 2), swap_gate(2, 3)], slot_duration=1.0)
    return sites, schedule


def test_methods_agree_for_dephasing():
    sites, schedule = three_qubit_case()
    noise = NoiseModel("dephasing", 0.05)
    a = evolve("rk4", sites, schedule, noise, dt=1e-3)
    b = evolve("factored", sites, schedule, noise, dt=1e-3)
    assert np.max(np.abs(a - b)) < 1e-8


def test_methods_converge_together_for_amplitude_damping():
    """The gap closes at 4th order as the step is halved."""
    sites, schedule = three_qubit_case()
    noise = NoiseModel("amplitude_damping", 0.05)
    gaps = []
    for dt in (2e-3, 1e-3):
        a = evolve("rk4", sites, schedule, noise, dt=dt)
        b = evolve("factored", sites, schedule, noise, dt=dt)
        gaps.append(np.max(np.abs(a - b)))
    assert gaps[0] < 1e-8
    assert gaps[1] < gaps[0] / 8.0


@pytest.mark.parametrize("method", ["rk4", "factored"])
def test_noiseless_master_equation_matches_unitary(method):
    sites, schedule = three_qubit_case()
    psi = np.kron(np.kron(PLUS, ket(0)), ket(0))
    out_u = evolve_unitary(psi, schedule)
    out = evolve(method, sites, schedule, NOISELESS)
    assert np.max(np.abs(out - proj(out_u))) < 1e-6


@pytest.mark.parametrize("method", ["rk4", "factored"])
def test_trajectory_stays_physical(method):
    sites, schedule = three_qubit_case()
    out = evolve(method, sites, schedule, NoiseModel("dephasing", 0.1))
    assert np.max(np.abs(out - out.conj().T)) < 1e-10
    assert np.min(np.linalg.eigvalsh(out)) > -1e-9
    assert abs(np.trace(out).real - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# failure detection and input validation
# ---------------------------------------------------------------------------


def test_initial_trace_drift_raises():
    with pytest.raises(TraceDriftError, match="in the initial state"):
        evolve_lindblad_product([0.98 * proj(ket(0))], idle_schedule(1), NOISELESS, (1,))


def test_unstable_step_size_raises_trace_drift():
    schedule = schedule_sequence([swap_gate(1, 2)] * 6, slot_duration=1.0)
    noise, cfg = NoiseModel("amplitude_damping", 0.1), IntegratorConfig(dt=1.0)
    # every map keeps its trace row exact, so the contraction refuses the
    # swap map where it reads it, at an entry above 1
    with pytest.raises(TraceDriftError, match="the swap slot map has an entry .* above 1"):
        evolve_lindblad_product([proj(PLUS), proj(ket(0))], schedule, noise, (1, 2), cfg)


def test_result_outside_the_states_aborts_on_its_trace_norm(monkeypatch):
    # a gate map with entries of at most 1 and Pauli 0's row at e_0, but
    # not positive: from |00> it gives (2 SWAP + IZ + ZI) / 4, of trace 1
    # and eigenvalues 1, 1/2, 0 and -1/2, so only the trace norm shows it
    phi = np.eye(16)
    phi[5, 0] = phi[10, 0] = 1.0  # XX and YY from the identity
    monkeypatch.setattr(circuits, "gate_superoperator", lambda *args: phi)
    schedule = schedule_sequence([swap_gate(1, 2)])
    with pytest.raises(TraceDriftError, match="trace drifted by 1.000e.00 in trace norm in the final state"):
        evolve_lindblad_product([proj(ket(0))] * 2, schedule, NOISELESS, (1, 2))


def test_nan_trace_aborts():
    with pytest.raises(TraceDriftError, match="nan"):
        dynamics._check_trace(np.trace(np.full((2, 2), np.nan)), "in the final state")


@pytest.mark.filterwarnings("error::RuntimeWarning")  # the build stops before numpy overflows
def test_overflowing_pair_propagator_aborts_and_is_not_cached():
    # gamma * dt = 5 is far outside RK4's stability region: the map overflows
    noise = NoiseModel("dephasing", 5000.0)
    for _ in range(2):  # a failed build stores nothing, so it fails again
        with pytest.raises(TraceDriftError, match="swap pair propagator"):
            gate_superoperator(swap_gate(1, 2), noise)
    with pytest.raises(TraceDriftError, match="cnot pair propagator"):
        gate_superoperator(cnot_gate(1, 2), noise)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_stream_hands_out_only_the_initial_chunk():
    # the entries pass the bound within ~10 steps and then overflow, with
    # numpy's warning silenced: the check of the first chunk aborts the
    # stream before it yields a step map
    stream = gate_step_maps(swap_gate(1, 2), NoiseModel("amplitude_damping", 5000.0))
    times, maps = next(stream)
    assert np.array_equal(times, [0.0]) and np.array_equal(maps, [np.eye(16)])
    with pytest.raises(TraceDriftError, match="swap pair propagator"):
        next(stream)


def test_observed_build_with_exploding_steps_stops_before_the_first_step():
    # gamma * dt = 1000: one step map already leaves the bound, so the
    # check of the first chunk refuses it before any step map is handed out
    chunks = []
    with pytest.raises(TraceDriftError, match="swap pair propagator is not bounded"):
        chunks.extend(gate_step_maps(swap_gate(1, 2), NoiseModel("dephasing", 1e6)))
    assert [list(t) for t, _ in chunks] == [[0.0]]


@pytest.mark.parametrize("gamma", [1e200, 1e308])
def test_rate_near_the_float_limit_aborts_as_unbounded(gamma):
    # 1e200 gives finite step generators far past the bound; 1e308 makes the
    # generator letters themselves infinite. Neither may reach a numpy
    # overflow, which the suite's RuntimeWarning filter would fail.
    noise = NoiseModel("dephasing", gamma)
    with pytest.raises(TraceDriftError, match="swap pair propagator is not bounded"):
        gate_superoperator(swap_gate(1, 2), noise)
    stream = gate_step_maps(cnot_gate(1, 2), noise)
    assert list(next(stream)[0]) == [0.0]
    with pytest.raises(TraceDriftError, match="cnot pair propagator is not bounded"):
        next(stream)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("amplitude", [1e80, 1e300])
def test_amplitude_near_the_float_limit_aborts_as_unbounded(amplitude):
    # a finite amplitude whose drive alone passes the step-generator bound
    # is refused with its case's z, before the series multiplies the drive
    # into its word features, so it never reaches a numpy overflow
    gate, noise = swap_gate(1, 2, (amplitude, 0.02)), NoiseModel("dephasing", 0.01)
    bounded = "the swap pair propagator is not bounded .a step generator entry"
    with pytest.raises(TraceDriftError, match=bounded):
        gate_superoperator(gate, noise)
    stream = gate_step_maps(gate, noise)
    assert list(next(stream)[0]) == [0.0]
    with pytest.raises(TraceDriftError, match=bounded):
        next(stream)


def test_pair_words_are_cached_read_only_per_noise_kind():
    words = dynamics._pair_words("cnot", "dephasing")
    letters, tables, rows, _, layout = words
    assert dynamics._pair_words("cnot", "dephasing") is words
    assert not any(a.flags.writeable for a in (letters, *tables, *rows, layout))
    with pytest.raises(ValueError, match="read-only"):
        letters[0, 0] = 1.0
    # the noise kind is the key: every rate of it reads the same table
    gate_superoperators(cnot_gate(1, 2), [NoiseModel("dephasing", g) for g in (0.1, 0.2)], [1.0])
    assert dynamics._pair_words("cnot", "dephasing") is words
    # a cached build equals a fresh one bit for bit
    dynamics._pair_words.cache_clear()
    fresh = dynamics._pair_words("cnot", "dephasing")
    assert fresh[3] == words[3]
    for a, b in zip((letters, *tables, *rows, layout), (fresh[0], *fresh[1], *fresh[2], fresh[4])):
        assert np.array_equal(a, b)


def test_a_row_builds_the_letters_once_per_noise_kind(monkeypatch):
    # three rates and two durations: the letters are built once, at rate
    # 1, from one dissipator per site of the pair
    calls = []
    dissipator = dynamics._dissipator_superop
    monkeypatch.setattr(dynamics, "_dissipator_superop", lambda l4: calls.append(1) or dissipator(l4))
    noises = [NoiseModel("dephasing", g) for g in (0.01, 0.1, 1.0)]
    maps = gate_superoperators(swap_gate(1, 2), noises, [1.0, 2.0])
    assert len(maps) == 6 and len(calls) == 2


@pytest.mark.parametrize("kind", ["swap", "cnot", "cnot_rotated"])
def test_amplitude_damping_near_the_float_limit_aborts_as_unbounded(kind):
    # the rate reaches the build only through z, so the letters' Hermiticity
    # check, made at rate 1, cannot fail on it, and the build and the
    # stream stop on their bound instead
    noise = NoiseModel("amplitude_damping", 1e200)
    gate = GATE_BUILDERS[kind](1, 2)
    with pytest.raises(TraceDriftError, match=f"the {kind} pair propagator is not bounded"):
        gate_superoperator(gate, noise)
    stream = gate_step_maps(gate, noise)
    next(stream)
    with pytest.raises(TraceDriftError, match=f"the {kind} pair propagator is not bounded"):
        next(stream)


def test_rate_whose_z_overflows_raises_on_every_call():
    # gamma * scale passes the float range: refused before any build, and
    # nothing is cached, so every call raises again
    noise = NoiseModel("amplitude_damping", 1e308)
    overflow = r"swap pair propagator is not bounded \(z = h gamma scale = .* overflows the float range\)"
    for _ in range(2):
        with pytest.raises(TraceDriftError, match=overflow):
            gate_superoperator(swap_gate(1, 2), noise)
        assert not dynamics._PAIR_PROP_CACHE


def test_pair_propagator_that_loses_trace_aborts(monkeypatch):
    # a dissipator without its anticommutator terms is finite but not
    # trace-preserving
    monkeypatch.setattr(dynamics, "_dissipator_superop", lambda l4: np.kron(l4, l4.conj()))
    with pytest.raises(TraceDriftError, match="not trace-preserving"):
        gate_superoperator(swap_gate(1, 2), NoiseModel("amplitude_damping", 0.1))


def pair_map(kind, params, noise, duration, n_steps):
    """The map of ``dynamics._pair_rk4`` for one case, a row of one, at
    the z of :func:`dynamics._pair_z`; a build that aborts raises."""
    z, aborted = dynamics._pair_z(kind, params, noise, duration, n_steps), {}
    (phi,) = dynamics._pair_rk4(kind, params, noise.kind, {"case": z}, n_steps, aborted)
    if aborted:
        raise aborted["case"]
    return phi


@pytest.mark.parametrize("noise_kind", ["dephasing", "amplitude_damping"])
@pytest.mark.parametrize("kind", ["swap", "cnot", "cnot_rotated"])
def test_pair_build_matches_the_sequential_loop(kind, noise_kind):
    # step counts on both sides of the tree's and the chunks' edges
    assert PAIR_CHUNK_STEPS == 256
    params, noise = GATE_BUILDERS[kind](1, 2).params, NoiseModel(noise_kind, 0.01)
    for alpha in (1.0, 10.0, 100.0):
        for n_steps in (1, 2, 3, 255, 256, 257, 1000):
            built = pair_map(kind, params, noise, alpha, n_steps)
            loop = pair_rk4_loop(kind, params, noise, alpha, n_steps)
            assert np.max(np.abs(row_major_from_pauli(built) - loop)) <= 1e-12, (alpha, n_steps)


@pytest.mark.parametrize("noise_kind", ["dephasing", "amplitude_damping"])
@pytest.mark.parametrize("kind", ["swap", "cnot", "cnot_rotated"])
def test_series_step_maps_match_the_stage_products(kind, noise_kind):
    # the duration series of one grid, evaluated at each duration, against
    # the three RK4 stage products of the slot itself, chunk by chunk
    params, noise = GATE_BUILDERS[kind](1, 2).params, NoiseModel(noise_kind, 0.01)
    alphas = EDGE_ALPHAS + (1.0, 10.0, 100.0)
    for n_steps in (1, 2, 3, 255, 256, 257, 1000):
        zs = [dynamics._pair_z(kind, params, noise, alpha, n_steps) for alpha in alphas]
        stages = [pair_step_maps_stages(kind, params, noise, a, n_steps) for a in alphas]
        chunks = 0
        # each chunk lives in a workspace that the next one overwrites; its
        # steps are bit-reversed and padded with exact zeros, and Pauli 0's
        # packed row of every step map is exactly 0: the letters' rows are,
        # and exact zeros stay exact through every sum and product
        for chunk in dynamics._pair_series(kind, params, noise_kind, n_steps):
            padding = np.delete(np.arange(len(chunk.d)), chunk.time_order)
            for alpha, z, reference in zip(alphas, zs, stages):
                d = dynamics._pair_step_maps(chunk, z)
                assert np.max(np.abs(d[chunk.time_order] - next(reference))) <= 1e-13, (alpha, n_steps)
                assert not np.any(d[padding])
                assert not np.any(d[..., 0, 0, :])
            chunks += 1
        assert chunks == -(-n_steps // PAIR_CHUNK_STEPS)
        assert all(next(reference, None) is None for reference in stages)


def test_observed_pair_build_matches_the_sequential_loop_at_every_step():
    # step counts on both sides of the scan's and the chunks' edges
    gate, noise = cnot_gate(1, 2), NoiseModel("amplitude_damping", 0.01)
    for n_steps in (1, 2, 3, 255, 256, 257, 1000):
        loop = []
        pair_rk4_loop(
            gate.kind, gate.params, noise, 1.0, n_steps,
            lambda t, phi: loop.append((t, phi.copy())),
        )
        times, maps = step_maps(gate, noise, cfg=IntegratorConfig(dt=1.0 / n_steps))
        assert times[0] == 0.0 and np.array_equal(maps[0], np.eye(16))
        assert len(times) == len(loop) + 1 == n_steps + 1
        for t, phi, (t_loop, phi_loop) in zip(times[1:], maps[1:], loop):
            assert t == t_loop
            assert np.max(np.abs(row_major_from_pauli(phi) - phi_loop)) <= 1e-12, (n_steps, t)


def test_generator_that_breaks_hermiticity_aborts(monkeypatch):
    # a dissipator times i does not map Hermitian matrices to Hermitian ones,
    # so it is complex in the Pauli-transfer basis
    dissipator = dynamics._dissipator_superop
    monkeypatch.setattr(dynamics, "_dissipator_superop", lambda l4: 1j * dissipator(l4))
    with pytest.raises(NumericalError, match="the cnot pair generator does not preserve Hermiticity"):
        gate_superoperator(cnot_gate(1, 2), NoiseModel("dephasing", 0.01))


PAIR_NOISE_KINDS = ("dephasing", "amplitude_damping")
# the packed layouts as measured: four 4x4 blocks under dephasing, two 8x8
# blocks under amplitude damping but for cnot_rotated's one 16x16 block
MEASURED_LAYOUTS = {"dephasing": (4, 4), "amplitude_damping": (2, 8)}
UNPACKED = {("cnot_rotated", "amplitude_damping")}


def dense_letters(kind, noise):
    """The pair generator's letters at the rate of ``noise`` as real 16x16
    Pauli-transfer matrices, built as ``_pair_words`` builds them at rate
    1 but never packed."""
    constant = np.zeros((16, 16), dtype=complex)
    jump = noise.jump_block()
    for l4 in (np.kron(jump, np.eye(2)), np.kron(np.eye(2), jump)):
        constant += noise.gamma * dynamics._dissipator_superop(l4)
    letters = [constant] + [dynamics._hamiltonian_superop(b) for b in gate_channel_blocks(kind)]
    return (dynamics._PTM_INV @ np.array(letters) @ dynamics._PTM).real


def block_of(layout):
    """The block of the layout that holds each Pauli-transfer index."""
    owner = np.empty(16, dtype=int)
    owner[layout] = np.arange(len(layout))[:, None]
    return owner


@pytest.mark.parametrize("noise_kind", PAIR_NOISE_KINDS)
@pytest.mark.parametrize("kind", ["swap", "cnot", "cnot_rotated"])
def test_pair_letters_pack_into_the_measured_halves(kind, noise_kind):
    noise = NoiseModel(noise_kind, 1.0)
    letters, _, _, scale, layout = dynamics._pair_words(kind, noise_kind)
    unpacked = (kind, noise_kind) in UNPACKED
    assert layout.shape == ((1, 16) if unpacked else MEASURED_LAYOUTS[noise_kind])
    # the blocks partition 0..15, each in order, with Pauli 0 first
    assert sorted(layout.ravel()) == list(range(16))
    assert all(list(block) == sorted(block) for block in layout) and layout[0, 0] == 0
    # every nonzero entry of every letter lies inside one block ...
    dense = dense_letters(kind, noise)
    rows, cols = np.nonzero(np.any(dense != 0.0, axis=0))
    assert np.array_equal(block_of(layout)[rows], block_of(layout)[cols])
    # ... and the packed letters are those blocks, exactly, the dissipator
    # sum divided by its largest entry
    k, b = layout.shape
    blocks = dense[:, layout[:, :, None], layout[:, None, :]]
    assert scale == np.max(np.abs(dense[0]))
    blocks[0] /= scale
    assert np.array_equal(letters.reshape(-1, k, b, b), blocks)


@pytest.mark.parametrize("noise_kind", PAIR_NOISE_KINDS)
@pytest.mark.parametrize("kind", ["swap", "cnot", "cnot_rotated"])
def test_built_maps_are_exactly_zero_between_the_halves(kind, noise_kind):
    # a dense 16x16 RK4 in the Pauli-transfer basis, step by step: its
    # entries between the blocks come out exactly 0, so packing drops nothing
    gate, noise, n_steps = GATE_BUILDERS[kind](1, 2), NoiseModel(noise_kind, 0.1), 40
    layout = dynamics._pair_words(kind, noise_kind)[4]
    letters = dense_letters(kind, noise)
    amplitude, width, center = rescale_channel_params(gate.params, 0.0, 1.0)
    h = 1.0 / n_steps

    def generator(t, driven=True):
        drives = gaussian(t, amplitude, width, center).ravel()
        return letters[0] + sum(driven * j * l for j, l in zip(drives, letters[1:]))

    phi = np.eye(16)
    for m in range(n_steps):
        g1, gm = generator(m * h), generator(m * h + 0.5 * h)
        g4 = generator(m * h + h, m < n_steps - 1)
        k1 = g1 @ phi
        k2 = gm @ (phi + 0.5 * h * k1)
        k3 = gm @ (phi + 0.5 * h * k2)
        phi = phi + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + g4 @ (phi + h * k3))
    between = block_of(layout)[:, None] != block_of(layout)[None, :]
    assert np.all(phi[between] == 0.0)
    # the packed build holds the same blocks, and exact zeros between them
    built = pair_map(kind, gate.params, noise, 1.0, n_steps)
    assert np.all(built[between] == 0.0)
    assert np.max(np.abs(built - phi)) <= 1e-14


def merged_layout(layout, k):
    """``layout`` with its blocks merged, in order, into ``k`` blocks."""
    return np.array(sorted(sorted(np.concatenate(c)) for c in np.split(layout, k)))


@pytest.mark.parametrize("kind", ["swap", "cnot", "cnot_rotated"])
def test_coarser_layouts_build_the_same_maps_bit_for_bit(kind, monkeypatch):
    # the (4, 4) dephasing layout merged into (2, 8) and (1, 16): a bigger
    # block only adds exact zeros to each sum, so packing drops nothing
    gate, noise = GATE_BUILDERS[kind](1, 2), NoiseModel("dephasing", 0.01)
    layout = dynamics._pair_words(kind, "dephasing")[4]
    assert layout.shape == (4, 4)

    def maps():
        for alpha in (1.0, 10.0, 100.0):
            for n_steps in (1, 2, 3, 255, 256, 257, 1000):
                yield pair_map(kind, gate.params, noise, alpha, n_steps)
                cfg = IntegratorConfig(dt=alpha / n_steps)
                yield from (m for _, m in gate_step_maps(gate, noise, alpha, cfg))

    fine = list(maps())
    for k in (2, 1):
        monkeypatch.setattr(dynamics, "_pack_blocks", lambda pattern, k=k: merged_layout(layout, k))
        dynamics._pair_words.cache_clear()
        assert dynamics._pair_words(kind, "dephasing")[4].shape == (k, 16 // k)
        coarse = list(maps())
        assert len(coarse) == len(fine)
        assert all(np.array_equal(a, b) for a, b in zip(coarse, fine)), k


def same_bits(a, b):
    """Equal under ``np.array_equal`` and in every sign bit, zeros too."""
    signs = (np.signbit(m.view(float)) for m in (a, b))
    return np.array_equal(a, b) and np.array_equal(*signs)


@pytest.mark.parametrize("noise_kind", PAIR_NOISE_KINDS)
@pytest.mark.parametrize("kind", ["swap", "cnot", "cnot_rotated"])
def test_builds_equal_the_natural_order_tree_bit_for_bit(kind, noise_kind):
    # bit-reversed chunks padded with exact zeros against the tree in time
    # order, with its strided pairs and carried odd entries: each level's
    # entry covers the same steps, so the maps agree in every bit, and a
    # build that aborts does so with the same message; the cases that abort
    # are pinned by count, so a change to the abort decision shows here
    params = GATE_BUILDERS[kind](1, 2).params
    aborted = 0
    for gamma in (0.001, 0.1, 3000.0):
        noise = NoiseModel(noise_kind, gamma)
        for alpha in (1.0, 0.01):
            for n_steps in (1, 2, 3, 100, 255, 256, 257, 1000, 1172, 2049):
                case = (gamma, alpha, n_steps)
                try:
                    reference = pair_rk4_natural(kind, params, noise, alpha, n_steps)
                except TraceDriftError as error:
                    assert abort_message(lambda: pair_map(kind, params, noise, alpha, n_steps)) == str(error), case
                    aborted += 1
                    continue
                assert same_bits(pair_map(kind, params, noise, alpha, n_steps), reference), case
    assert aborted == {"dephasing": 13, "amplitude_damping": 12}[noise_kind]


GUARDED_LAYOUTS = [("swap", "dephasing"), ("cnot_rotated", "amplitude_damping")]


def broken_steps(monkeypatch, index, value, offsets=(0,)):
    """Make ``_pair_series`` add ``value`` to ``Q_0`` at packed ``(block,
    row, column)`` ``index`` of the middle step of every chunk, in time
    order, and of the steps ``offsets`` after it. Each of those step maps
    then carries the fault."""
    series = dynamics._pair_series

    def broken(*args, **kwargs):
        for chunk in series(*args, **kwargs):
            for offset in offsets:
                chunk.q[(0, chunk.time_order[len(chunk.time_order) // 2 + offset], *index)] += value
            yield chunk

    monkeypatch.setattr(dynamics, "_pair_series", broken)


def pair_runs(kind, noise, n_steps=100):
    """The build and the drained stream of one ``n_steps``-step pair map."""
    gate = GATE_BUILDERS[kind](1, 2)
    return (
        lambda: gate_superoperator(gate, noise, 1.0, IntegratorConfig(dt=1.0 / n_steps)),
        lambda: list(gate_step_maps(gate, noise, 1.0, IntegratorConfig(dt=1.0 / n_steps))),
    )


@pytest.mark.parametrize("kind, noise_kind", GUARDED_LAYOUTS)
def test_packed_trace_row_error_is_caught(kind, noise_kind, monkeypatch):
    # a drive letter with one nonzero entry on Pauli 0's packed row, away
    # from its diagonal and inside Pauli 0's block, so the layout holds: the
    # row must be exactly zero, so even 2^-60 is refused, by the letters
    # and before any series is built
    noise = NoiseModel(noise_kind, 0.01)
    last = dynamics._pair_words(kind, noise_kind)[4][0, -1]
    dynamics._pair_words.cache_clear()
    fault = np.zeros((16, 16))
    fault[0, last] = 2.0**-60
    hamiltonian = dynamics._hamiltonian_superop
    monkeypatch.setattr(
        dynamics, "_hamiltonian_superop",
        lambda h4: hamiltonian(h4) + dynamics._PTM @ fault @ dynamics._PTM_INV,
    )
    series = []
    monkeypatch.setattr(dynamics, "_pair_series", lambda *a: series.append(1) or iter(()))
    with pytest.raises(TraceDriftError, match=f"the {kind} pair generator is not trace-preserving"):
        dynamics._pair_words(kind, noise_kind)
    for run in pair_runs(kind, noise):
        with pytest.raises(TraceDriftError, match=f"the {kind} pair generator is not trace-preserving"):
            run()
    assert not series


@pytest.mark.parametrize("kind, noise_kind", GUARDED_LAYOUTS)
def test_packed_error_off_the_trace_row_is_not_a_trace_error(kind, noise_kind, monkeypatch):
    # an error in the first row of another block (the second row of the
    # only one) changes the map, not its trace row, and stays far inside
    # the growth bound: the build runs through
    noise = NoiseModel(noise_kind, 0.01)
    k, b = dynamics._pair_words(kind, noise_kind)[4].shape
    broken_steps(monkeypatch, (1, 0, b - 1) if k > 1 else (0, 1, b - 1), 1e-3)
    for run in pair_runs(kind, noise):
        run()


@pytest.mark.parametrize("kind, noise_kind", GUARDED_LAYOUTS)
def test_packed_oversized_entry_away_from_pauli_0_is_caught(kind, noise_kind, monkeypatch):
    # one entry past the bound in the last block, one without Pauli 0 when
    # there are several. On the slot's last step (the 100th, 49 after the
    # middle one) it reaches the result, which the build and the stream
    # refuse. On the middle step the rest of the slot spreads it below the
    # bound (to ~7e5), and the map is refused where it is read, at an entry
    # above 1
    noise = NoiseModel(noise_kind, 0.01)
    with monkeypatch.context() as m:
        broken_steps(m, (-1, -1, -1), 2.0 / TRACE_ABORT_TOL, offsets=(49,))
        for run in pair_runs(kind, noise):
            with pytest.raises(TraceDriftError, match=f"the {kind} pair propagator is not bounded"):
                run()
    broken_steps(monkeypatch, (-1, -1, -1), 2.0 / TRACE_ABORT_TOL)
    with pytest.raises(TraceDriftError, match=f"the {kind} slot map has an entry .* above 1"):
        gate_fidelity(ket(0, 0), GATE_BUILDERS[kind](1, 2), noise, cfg=IntegratorConfig(dt=0.01))


def abort_message(run):
    """The message of the ``TraceDriftError`` that ``run()`` raises."""
    with pytest.raises(TraceDriftError) as caught:
        run()
    return str(caught.value)


@pytest.mark.parametrize("kind, noise_kind", GUARDED_LAYOUTS)
def test_growth_past_level_0_falls_back_to_a_search(kind, noise_kind, monkeypatch):
    # entries of 2e3 pass the step maps, but the product of two adjacent
    # step maps (a tree pair, a scan step) passes 1e6, and a chunk product
    # holding one passes it only in the fold with the next chunk: the one
    # check of each result sees the growth, and the build and the stream
    # abort as not bounded
    noise = NoiseModel(noise_kind, 0.01)
    faults = [((0, 1), 100), ((0,), 300)]
    with monkeypatch.context() as m:
        broken_steps(m, (-1, -1, -1), 2e3)
        for run in pair_runs(kind, noise, 256):
            run()  # one such step map in a lone chunk is fine
    for offsets, n_steps in faults:
        with monkeypatch.context() as m:
            broken_steps(m, (-1, -1, -1), 2e3, offsets)
            for run in pair_runs(kind, noise, n_steps):
                assert f"the {kind} pair propagator is not bounded" in abort_message(run), offsets


@settings(max_examples=60, deadline=None)
@given(
    b=st.sampled_from([4, 8, 16]),
    second=st.booleans(),
    bad=st.sampled_from([np.inf, -np.inf, np.nan]),
    where=st.integers(0, 2**32 - 1),
    seed=st.integers(0, 2**32 - 1),
)
def test_then_keeps_an_entry_that_is_not_finite(b, second, bad, where, seed):
    # the property the single check of each result rests on: both factors
    # are added into the product, so an inf, -inf or NaN anywhere in either
    # leaves the product's entry at that position not finite, whatever
    # else overflows (silenced as in the build, and nothing else warns)
    factors = np.random.default_rng(seed).uniform(-1e3, 1e3, (2, 3, 16 // b, b, b))
    position = np.unravel_index(where % factors[0].size, factors[0].shape)
    factors[int(second)][position] = bad
    with np.errstate(over="ignore", invalid="ignore"):
        product = dynamics._then(*factors)
    assert not np.isfinite(product[position])


@pytest.mark.parametrize("noise_kind", PAIR_NOISE_KINDS)
@pytest.mark.parametrize("kind", ["swap", "cnot", "cnot_rotated"])
def test_default_builds_search_few_levels(kind, noise_kind, monkeypatch):
    # no level of a tree, a scan or a chunk fold is searched: a build
    # checks its one final map once, and a stream each of its four chunks
    # once, before it hands the chunk out
    searches = []
    check = dynamics._check_pair_maps
    monkeypatch.setattr(dynamics, "_check_pair_maps", lambda *a: searches.append(a[1].shape) or check(*a))
    gate = GATE_BUILDERS[kind](1, 2)
    k, b = dynamics._pair_words(kind, noise_kind)[4].shape
    for gamma in (0.001, 0.01, 0.1):
        noise = NoiseModel(noise_kind, gamma)
        searches.clear()
        gate_superoperator(gate, noise)
        assert searches == [(k, b, b)], gamma
        searches.clear()
        list(gate_step_maps(gate, noise))
        assert searches == [(256, k, b, b)] * 3 + [(232, k, b, b)], gamma


def test_hermiticity_is_held_letter_by_letter(monkeypatch):
    # a drive letter times i is caught even beside a dissipator 1e200 times
    # its size: the tolerance scales with each letter's own entries
    hamiltonian, dissipator = dynamics._hamiltonian_superop, dynamics._dissipator_superop
    monkeypatch.setattr(dynamics, "_hamiltonian_superop", lambda h4: 1j * hamiltonian(h4))
    monkeypatch.setattr(dynamics, "_dissipator_superop", lambda l4: 1e200 * dissipator(l4))
    with pytest.raises(NumericalError, match="the cnot pair generator does not preserve Hermiticity"):
        dynamics._pair_words("cnot", "amplitude_damping")


def test_long_pair_build_runs_in_bounded_memory():
    # the pulses are sampled and the step maps made, multiplied and streamed
    # in chunks: all 20 000 at once would take ~230 MiB, and 20 000
    # 16x16 maps ~40 MiB; the cnot_rotated build under amplitude damping
    # runs on one 16x16 block, and MAX_STEPS_PER_SLOT steps hold no more
    gate, noise = swap_gate(1, 2), NoiseModel("dephasing", 0.01)
    amp = NoiseModel("amplitude_damping", 0.01)
    assert dynamics._pair_words("cnot_rotated", amp.kind)[4].shape == (1, 16)

    def drain(noise, n_steps=20_000):
        stream = gate_step_maps(gate, noise, n_steps * 1e-3, IntegratorConfig(dt=1e-3))
        assert sum(len(t) for t, _ in stream) == n_steps + 1

    def build(gate, noise, n_steps=20_000):
        phi = pair_map(gate.kind, gate.params, noise, n_steps * 1e-3, n_steps)
        assert phi.shape == (16, 16)

    runs = (
        lambda: build(gate, noise),
        lambda: build(rotated_cnot_gate(1, 2), amp),
        lambda: build(rotated_cnot_gate(1, 2), amp, MAX_STEPS_PER_SLOT),
        lambda: drain(noise),
        lambda: drain(noise, MAX_STEPS_PER_SLOT),
        lambda: drain(NOISELESS),
    )
    for run in runs:
        tracemalloc.start()
        try:
            run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20


def test_density_path_rejects_trotter_step():
    # the factored path is the only density-matrix integrator: there is no
    # method to pick
    with pytest.raises(TypeError):
        IntegratorConfig(method="trotter_step")


def test_dt_must_divide_the_slot():
    cfg = IntegratorConfig(dt=0.3)
    for noise in (NOISELESS, NoiseModel("dephasing", 0.1)):
        with pytest.raises(ValueError, match="does not divide"):
            gate_fidelity(ket(0, 0), swap_gate(1, 2), noise, cfg=cfg)
    with pytest.raises(ValueError, match="does not divide"):
        gate_superoperator(swap_gate(1, 2), NOISELESS, cfg=cfg)
    with pytest.raises(ValueError, match="does not divide"):
        evolve_lindblad_product(
            [proj(ket(0))] * 2, schedule_sequence([swap_gate(1, 2)]), NOISELESS, (1,), cfg
        )


@pytest.mark.parametrize("dt", [1e-320, 1e-300, 1e-9, 1.0 / (MAX_STEPS_PER_SLOT + 1)])
def test_step_count_past_the_ceiling_is_refused(dt):
    with pytest.raises(ValueError, match=f"more than {MAX_STEPS_PER_SLOT} steps"):
        gate_fidelity(ket(0, 0), swap_gate(1, 2), cfg=IntegratorConfig(dt=dt))
    # the ceiling itself is a valid grid
    assert _resolve_steps(1.0, IntegratorConfig(dt=1.0 / MAX_STEPS_PER_SLOT))[0] == MAX_STEPS_PER_SLOT


def test_integrator_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(dt=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(dt=-1e-3)


@pytest.mark.parametrize("gamma", [float("nan"), float("inf"), -1.0])
def test_noise_model_rejects_a_rate_that_is_not_finite_and_non_negative(gamma):
    # bad input, refused before any build could abort on it
    with pytest.raises(ValueError, match="decay rate gamma must be finite and non-negative"):
        NoiseModel("dephasing", gamma)


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel("depolarising", 0.1)
    with pytest.raises(ValueError):
        NoiseModel("dephasing", -0.1)
    assert NoiseModel("none", 5.0).gamma == 0.0
    assert np.array_equal(NoiseModel("dephasing", 1.0).jump_block(), np.diag([1.0, -1.0]))
    lowering = NoiseModel("amplitude_damping", 1.0).jump_block()
    assert np.array_equal(lowering, np.array([[0, 0], [1, 0]]))
    assert NOISELESS.jump_block() is None


# ---------------------------------------------------------------------------
# step-map streams
# ---------------------------------------------------------------------------


def test_rk4_observer_sees_every_step(monkeypatch):
    builds = []
    build = dynamics._pair_rk4
    monkeypatch.setattr(dynamics, "_pair_rk4", lambda *args: builds.append(args) or build(*args))
    gate, noise = swap_gate(1, 2), NoiseModel("dephasing", 0.01)
    cfg = IntegratorConfig(dt=1.0 / 50)
    times, maps = step_maps(gate, noise, cfg=cfg)
    assert len(times) == len(maps) == 51
    assert times[0] == 0.0
    assert times[-1] == pytest.approx(1.0)
    # the stream neither fills nor reads the cache, and ends on the slot map
    phi = gate_superoperator(gate, noise, cfg=cfg)
    assert len(builds) == 1
    assert np.max(np.abs(maps[-1] - phi)) <= 1e-14


@pytest.mark.parametrize("kind", ["dephasing", "amplitude_damping"])
def test_pair_steps_match_the_full_chain_oracle_at_every_step(kind):
    """One pair integration gives the state of every input at every step."""
    gate = cnot_gate(1, 2)
    noise = NoiseModel(kind, 0.05)
    rho0 = proj(np.kron(PLUS, ket(0)))
    oracle = []
    rk4_lindblad(
        rho0, schedule_sequence([gate]), noise,
        observer=lambda t, rho: oracle.append((t, rho.copy())),
    )
    times, maps = step_maps(gate, noise)
    steps = list(zip(times, row_major_from_pauli(maps) @ rho0.reshape(-1)))
    assert steps[0][0] == 0.0 and np.array_equal(steps[0][1], rho0.reshape(-1))
    assert len(steps) == len(oracle) + 1
    for (t, vec), (t_oracle, rho) in zip(steps[1:], oracle):
        assert t == t_oracle
        assert np.max(np.abs(vec.reshape(4, 4) - rho)) < 1e-14


GATE_BUILDERS = {"swap": swap_gate, "cnot": cnot_gate, "cnot_rotated": rotated_cnot_gate}


@pytest.mark.parametrize("kind", ["swap", "cnot", "cnot_rotated"])
def test_unitary_steps_match_the_expm_product_at_every_step(kind):
    """The noiseless ``trace`` maps are the per-step exponential products."""
    gate = GATE_BUILDERS[kind](1, 2)
    oracle = []
    stepped_unitary(schedule_sequence([gate]), 2, 50, observer=lambda t, u: oracle.append(u))
    _, steps = step_maps(gate, NOISELESS, cfg=IntegratorConfig(dt=1.0 / 50))
    assert len(oracle) == 50 and len(steps) == 51
    assert np.array_equal(steps[0], np.eye(16))
    for phi, u in zip(steps[1:], oracle):
        assert np.max(np.abs(row_major_from_pauli(phi) - np.kron(u, u.conj()))) < 1e-12


@pytest.mark.parametrize("kind", ["swap", "cnot", "cnot_rotated"])
def test_noiseless_map_is_the_closed_form(kind):
    gate = GATE_BUILDERS[kind](1, 2)
    u = slot_unitary(gate.kind, gate.params)
    phi = row_major_from_pauli(gate_superoperator(gate, NOISELESS))
    assert np.max(np.abs(phi - np.kron(u, u.conj()))) < 1e-15


def choi_min_eigenvalue(phi):
    """The smallest eigenvalue of the Choi matrix sum_kl |k><l| kron
    Phi(|k><l|) of a pair map, which is >= 0 when the map is completely
    positive (Choi, Linear Algebra Appl. 10, 285 (1975))."""
    m = row_major_from_pauli(phi).reshape(4, 4, 4, 4)
    return np.linalg.eigvalsh(m.transpose(2, 0, 3, 1).reshape(16, 16))[0]


@pytest.mark.parametrize("kind", ["swap", "cnot", "cnot_rotated"])
def test_cached_maps_are_completely_positive(kind):
    # RK4 is not exactly completely positive: at alpha = 1 the noisy maps
    # reach -3.5e-8 (cnot_rotated under dephasing at gamma = 1e-4), within
    # the default grid's RK4 error ceiling of 4.7e-8
    gate = GATE_BUILDERS[kind](1, 2)
    assert choi_min_eigenvalue(gate_superoperator(gate, NOISELESS)) >= -1e-14
    for noise_kind in PAIR_NOISE_KINDS:
        noises = [NoiseModel(noise_kind, gamma) for gamma in (1e-4, 1e-3, 1e-2, 0.1, 1.0)]
        for noise, phi in zip(noises, gate_superoperators(gate, noises, [1.0])):
            assert choi_min_eigenvalue(phi) >= -5e-8, noise


def test_zero_rate_is_noiseless():
    gate, psi = cnot_gate(1, 2), np.kron(PLUS, ket(0))
    for kind in ("dephasing", "amplitude_damping"):
        noise = NoiseModel(kind, 0.0)
        assert noise == NOISELESS
        assert np.array_equal(gate_superoperator(gate, noise), gate_superoperator(gate, NOISELESS))
        assert gate_fidelity(psi, gate, noise) == gate_fidelity(psi, gate, NOISELESS)


def test_maps_are_cached_by_step_count(monkeypatch):
    builds = []
    build = dynamics._pair_rk4
    monkeypatch.setattr(dynamics, "_pair_rk4", lambda *args: builds.append(args) or build(*args))
    alpha, psi = 1.37382379588, np.kron(PLUS, ket(0))
    noise = NoiseModel("dephasing", 0.01)
    # the default grid, its dt, and that dt as a CSV prints it: one step count
    cfgs = [IntegratorConfig(), IntegratorConfig(dt=alpha / 1000)]
    cfgs.append(IntegratorConfig(dt=float(f"{alpha / 1000:.12g}")))
    values = {gate_fidelity(psi, swap_gate(1, 2), noise, alpha, cfg) for cfg in cfgs}
    assert len(builds) == 1 and len(values) == 1
    gate_fidelity(psi, swap_gate(1, 2), noise, alpha, IntegratorConfig(dt=alpha / 500))
    assert len(builds) == 2


SWEPT_ALPHAS = tuple(float(a) for a in np.geomspace(1.0, 100.0, 30))


def built_alone(gate, noise, alpha, cfg):
    """The map of one duration built alone, on a cold cache."""
    cache = dynamics._PAIR_PROP_CACHE
    dynamics._PAIR_PROP_CACHE = {}
    try:
        return gate_superoperator(gate, noise, alpha, cfg)
    finally:
        dynamics._PAIR_PROP_CACHE = cache


@pytest.mark.parametrize(
    "alphas, dt",
    [(SWEPT_ALPHAS, None), (tuple(0.1 * m for m in range(1, 31)), 0.01)],
    ids=["default grid", "dt grid"],
)
@pytest.mark.parametrize("kind, noise_kind", [("swap", "dephasing"), ("cnot", "amplitude_damping")])
def test_each_map_of_a_row_equals_its_build_alone(kind, noise_kind, alphas, dt, monkeypatch):
    # the default grid builds the 30 durations as one row; the dt grid
    # gives each its own step count, so a row of one per duration
    builds = []
    build = dynamics._pair_rk4
    monkeypatch.setattr(
        dynamics, "_pair_rk4", lambda *args: builds.append(len(args[3])) or build(*args)
    )
    gate, noise = GATE_BUILDERS[kind](1, 2), NoiseModel(noise_kind, 0.1)
    cfg = IntegratorConfig(dt=dt)
    maps = gate_superoperators(gate, [noise], alphas, cfg)
    assert builds == ([30] if dt is None else [1] * 30)
    assert len(maps) == len(alphas)
    for alpha, phi in zip(alphas, maps):
        assert phi is gate_superoperator(gate, noise, alpha, cfg)  # cached under its own key
        assert np.array_equal(phi, built_alone(gate, noise, alpha, cfg)), alpha


def test_repeated_cases_of_a_row_are_built_once(monkeypatch):
    builds = []
    build = dynamics._pair_rk4
    monkeypatch.setattr(
        dynamics, "_pair_rk4", lambda *args: builds.append(list(args[3].values())) or build(*args)
    )
    gate, noise = swap_gate(1, 2), NoiseModel("dephasing", 0.1)
    maps = gate_superoperators(gate, [noise, noise], [1.0, 1.0, 2.0])
    assert builds == [[dynamics._pair_z("swap", gate.params, noise, a, 1000) for a in (1.0, 2.0)]]
    assert len(maps) == 6
    assert all(phi is maps[0] for phi in maps[0::3] + maps[1::3])
    assert all(phi is maps[2] for phi in maps[2::3]) and maps[2] is not maps[0]


@pytest.mark.filterwarnings("error::RuntimeWarning")  # neither abort reaches a numpy overflow
def test_a_row_raises_its_first_unstable_duration_and_keeps_the_good_maps(monkeypatch):
    # at gamma = 1e7 a slot of 1e-6 is stable; at alpha = 1 the step maps
    # grow past the bound, and at alpha = 100 the step generators already do
    gate, noise = swap_gate(1, 2), NoiseModel("dephasing", 1e7)
    alphas = (1e-6, 100.0, 1.0, 2e-6)
    alone = {
        alpha: abort_message(lambda a=alpha: built_alone(gate, noise, a, None))
        for alpha in (1.0, 100.0)
    }
    assert "a step generator entry" in alone[100.0] and "an entry" in alone[1.0]
    # the row names each failure, so no case is built a second time alone;
    # alpha = 100 fails in its z, so the row holds only the other three
    builds = []
    build = dynamics._pair_rk4
    monkeypatch.setattr(dynamics, "_pair_rk4", lambda *args: builds.append(list(args[3].values())) or build(*args))
    assert abort_message(lambda: gate_superoperators(gate, [noise], alphas)) == alone[100.0]
    assert builds == [[dynamics._pair_z("swap", gate.params, noise, a, 1000) for a in (1e-6, 1.0, 2e-6)]]
    # the good maps of the row are cached, and equal their builds alone
    cached = {key[3]: phi for key, phi in dynamics._PAIR_PROP_CACHE.items()}
    assert sorted(cached) == [1e-6, 2e-6]
    for alpha, phi in cached.items():
        assert np.array_equal(phi, built_alone(gate, noise, alpha, None))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", ["rate", "duration"])
def test_one_bad_case_does_not_break_up_its_row(bad, monkeypatch):
    # the middle case has a rate whose z overflows, or a duration the
    # pulses cannot be rescaled to (the CLI refuses that one before any
    # case runs, with exit 2): the good cases are still built in one row,
    # and it raises, in case order, what it raises alone
    gate = swap_gate(1, 2)
    if bad == "rate":
        noises, durations = [NoiseModel("dephasing", g) for g in (0.1, 1e308, 0.3)], [1.0]
        error, message = TraceDriftError, "not bounded .* overflows the float range"
    else:
        noises, durations = [NoiseModel("dephasing", 0.1)], [1.0, 1e200, 2.0]
        error, message = ValueError, "pulse width must be positive and finite"
    cases = [(noise, duration) for noise in noises for duration in durations]
    with pytest.raises(error, match=message) as alone:
        built_alone(gate, *cases[1], None)
    assert "nan" not in str(alone.value)
    builds = []
    build = dynamics._pair_rk4
    monkeypatch.setattr(dynamics, "_pair_rk4", lambda *args: builds.append(list(args[3].values())) or build(*args))
    with pytest.raises(error) as caught:
        gate_superoperators(gate, noises, durations)
    assert str(caught.value) == str(alone.value)
    good = (cases[0], cases[2])
    assert builds == [[dynamics._pair_z("swap", gate.params, *case, 1000) for case in good]]
    for noise, duration in good:
        phi = dynamics._PAIR_PROP_CACHE[gate.kind, gate.params, noise, duration, 1000]
        assert np.array_equal(phi, built_alone(gate, noise, duration, None)), (noise, duration)


@pytest.mark.parametrize("alpha", EDGE_ALPHAS + (1.0,))
@pytest.mark.parametrize("kind", ["swap", "cnot"])
def test_pair_propagator_window_is_set_by_step_index(kind, alpha):
    """Columns of the cached pair propagator are the oracle's evolutions
    of the 16 matrix units, with the slot-end stage undriven."""
    gate = swap_gate(1, 2) if kind == "swap" else cnot_gate(1, 2)
    noise = NoiseModel("dephasing", 0.01)
    dt = alpha / DEFAULT_STEPS_PER_SLOT
    phi = row_major_from_pauli(gate_superoperator(gate, noise, alpha))
    schedule = schedule_sequence([gate], slot_duration=alpha)
    units = np.eye(16, dtype=complex).reshape(4, 4, 16)
    oracle = rk4_lindblad(units, schedule, noise, dt).reshape(16, 16)
    assert np.max(np.abs(phi - oracle)) < 1e-12


def test_default_step_count():
    times, _ = step_maps(swap_gate(1, 2), NOISELESS)
    assert len(times) == DEFAULT_STEPS_PER_SLOT + 1
    assert times[-1] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# single-gate fidelity helper
# ---------------------------------------------------------------------------


def test_gate_fidelity_noiseless_is_high():
    assert gate_fidelity(ket(0, 1), swap_gate(1, 2)) > 0.999999
    assert gate_fidelity(np.kron(PLUS, ket(0)), cnot_gate(1, 2)) > 0.999999


def test_gate_fidelity_is_duration_invariant_without_noise():
    f = gate_fidelity(ket(0, 1), swap_gate(1, 2), alpha=7.0)
    assert f > 1.0 - 1e-6


def test_gate_fidelity_with_noise_is_reduced():
    noiseless = gate_fidelity(np.kron(PLUS, ket(0)), cnot_gate(1, 2))
    noisy = gate_fidelity(
        np.kron(PLUS, ket(0)),
        cnot_gate(1, 2),
        noise=NoiseModel("dephasing", 0.01),
    )
    assert 0.9 < noisy < noiseless


def test_gate_fidelity_refuses_a_slot_map_with_an_entry_above_1():
    # an unstable grid keeps the trace row, so only the entries show it; the
    # build itself hands the map out, as its bound is 1 / TRACE_ABORT_TOL
    gate, noise, cfg = cnot_gate(1, 2), NoiseModel("dephasing", 0.1), IntegratorConfig(dt=0.25)
    phi = gate_superoperator(gate, noise, cfg=cfg)
    assert 1.0 + TRACE_ABORT_TOL < np.max(np.abs(phi)) <= 1.0 / TRACE_ABORT_TOL
    assert phi[0, 0] == 1.0 and not np.any(phi[0, 1:])
    with pytest.raises(TraceDriftError, match="the cnot slot map has an entry .* above 1"):
        gate_fidelity(np.kron(PLUS, ket(0)), gate, noise, cfg=cfg)


def test_gate_fidelity_validation():
    with pytest.raises(ValueError):
        gate_fidelity(ket(0, 1), swap_gate(1, 2), alpha=0.0)
    with pytest.raises(ValueError):
        gate_fidelity(ket(0, 1), swap_gate(2, 3))


def test_gate_fidelity_runs_one_gate_on_its_pair_only():
    for psi, gate in [
        (np.kron(ket(0, 1), ket(0)), swap_gate(1, 2)),  # a 3-qubit input
        (ket(0, 1), swap_gate(2, 1)),
    ]:
        with pytest.raises(ValueError, match=r"qubits \(1, 2\) of a 2-qubit input"):
            gate_fidelity(psi, gate)


@pytest.mark.parametrize(
    "noise",
    [NOISELESS, NoiseModel("dephasing", 0.3), NoiseModel("amplitude_damping", 0.3)],
    ids=lambda noise: noise.kind,
)
@pytest.mark.parametrize("alpha", [1.0, 2.5])
def test_gate_fidelity_equals_the_full_register_oracles(noise, alpha):
    """The pair map reproduces the slot-by-slot register integrators."""
    rng = np.random.default_rng(11)
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi /= np.linalg.norm(psi)
    for gate in (swap_gate(1, 2), cnot_gate(1, 2)):
        target = ideal_gate_matrix(gate.kind) @ psi
        schedule = schedule_sequence([gate], slot_duration=alpha)
        if noise is NOISELESS:
            want = abs(np.vdot(target, evolve_unitary(psi, schedule))) ** 2
        else:
            rho = evolve_lindblad(proj(psi), schedule, noise)
            want = np.real(target.conj() @ rho @ target)
        assert abs(gate_fidelity(psi, gate, noise, alpha) - want) < 1e-14


# ---------------------------------------------------------------------------
# transport contracted along the chain
# ---------------------------------------------------------------------------


def random_site_state(rng):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_ket(rng):
    psi = rng.normal(size=2) + 1j * rng.normal(size=2)
    return psi / np.linalg.norm(psi)


GATES = {"swap": swap_gate, "cnot": cnot_gate}


@st.composite
def product_runs(draw):
    """Random slots of disjoint pairs on n <= 6 sites, with a random
    readout order (sites no gate touches included)."""
    n = draw(st.integers(2, 6))
    slots = []
    for _ in range(draw(st.integers(0, 4))):
        sites = draw(st.permutations(range(1, n + 1)))
        kinds = draw(st.lists(st.sampled_from(sorted(GATES)), min_size=1, max_size=n // 2))
        slots.append(
            [GATES[k](sites[2 * i], sites[2 * i + 1]) for i, k in enumerate(kinds)]
        )
    keep = draw(st.permutations(range(1, n + 1)))[: draw(st.integers(1, min(n, 3)))]
    return n, schedule_sequence(slots), tuple(keep)


def product_run_or_refusal(sites, schedule, noise, keep):
    """The contraction's result, or ``None`` when it refuses a frontier
    over the limit; ``event`` records which (``--hypothesis-show-statistics``)."""
    try:
        got = evolve_lindblad_product(sites, schedule, noise, keep)
    except ValueError as exc:
        assert "contraction frontier" in str(exc)
        event("refused at the frontier limit")
        return None
    event("contracted")
    return got


@settings(max_examples=40, deadline=None)
@given(
    run=product_runs(),
    kind=st.sampled_from(["dephasing", "amplitude_damping"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_product_run_equals_full_run_then_partial_trace(run, kind, seed):
    n, schedule, keep = run
    noise = NoiseModel(kind, 0.3)
    rng = np.random.default_rng(seed)
    sites = [random_site_state(rng) for _ in range(n)]
    full = evolve_lindblad(reduce(np.kron, sites), schedule, noise)
    got = product_run_or_refusal(sites, schedule, noise, keep)
    if got is not None:
        assert np.max(np.abs(got - reduced_state(full, keep))) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(run=product_runs(), seed=st.integers(0, 2**32 - 1))
def test_noiseless_product_run_equals_pure_run_then_partial_trace(run, seed):
    n, schedule, keep = run
    rng = np.random.default_rng(seed)
    kets = [random_ket(rng) for _ in range(n)]
    psi = evolve_unitary(reduce(np.kron, kets), schedule)
    got = product_run_or_refusal([proj(k) for k in kets], schedule, NOISELESS, keep)
    if got is not None:
        assert np.max(np.abs(got - reduced_state(proj(psi), keep))) <= 1e-12


def test_product_run_refuses_a_frontier_over_the_limit():
    # sites 1..3 alternate partners among 4..6, so no two of their gates
    # compose: after site 2, sixteen gate legs wait for sites 4..6
    crossing = [
        [swap_gate(1, 4), swap_gate(2, 5), swap_gate(3, 6)],
        [swap_gate(1, 5), swap_gate(2, 6), swap_gate(3, 4)],
    ]
    with pytest.raises(ValueError, match=f"over the limit of {4**11}"):
        evolve_lindblad_product(
            [proj(ket(0))] * 6, schedule_sequence(crossing * 2), NOISELESS, (6,)
        )


def test_repeated_pair_gates_compose_into_one_block(monkeypatch):
    # pairs (1,4), (2,5) and (3,6) repeated over 4 slots: 24 gate legs would
    # cross the cut after site 3, but each pair's gates compose into one
    # block with two legs per site, whichever way round each gate is given
    monkeypatch.setattr(circuits, "FRONTIER_MAX_ENTRIES", 4**8)
    slots = [
        [swap_gate(1, 4), cnot_gate(5, 2), swap_gate(3, 6)],
        [swap_gate(4, 1), cnot_gate(2, 5), swap_gate(3, 6)],
    ]
    repeated = schedule_sequence(slots * 2)
    noise = NoiseModel("amplitude_damping", 0.3)
    rng = np.random.default_rng(3)
    sites = [random_site_state(rng) for _ in range(6)]
    full = evolve_lindblad(reduce(np.kron, sites), repeated, noise)
    got = evolve_lindblad_product(sites, repeated, noise, (5, 1, 6))
    assert np.max(np.abs(got - reduced_state(full, (5, 1, 6)))) <= 1e-12


def test_ladder_live_width_is_four_at_any_length(monkeypatch):
    # the ladder's live frontier is one site wire (4 entries) times the
    # 16 x 16 legs of one open gate, whatever the length: a limit of
    # 4 * 16**2 entries runs every length, one entry less refuses the first
    sites = [proj(ket(0))] * 100
    noise = NoiseModel("amplitude_damping", 0.1)
    monkeypatch.setattr(circuits, "FRONTIER_MAX_ENTRIES", 4 * 16**2)
    for n in range(4, 101, 2):
        for order in GATE_ORDERS:
            circuit = build_transport_circuit(ChainTopology("square_2d", n), order)
            evolve_lindblad_product(sites[:n], circuit.schedule, noise, (n - 1, n))
    monkeypatch.setattr(circuits, "FRONTIER_MAX_ENTRIES", 4 * 16**2 - 1)
    circuit = build_transport_circuit(ChainTopology("square_2d", 4), "cnot_first")
    with pytest.raises(ValueError, match="would hold 1024 entries"):
        evolve_lindblad_product(sites[:4], circuit.schedule, noise, (3, 4))


@pytest.mark.parametrize("entry, refused", [(1.0 + 2e-6, True), (1.0 + 5e-7, False)])
def test_map_entries_are_held_to_one_plus_the_tolerance(entry, refused):
    # the threshold sits at 1 + TRACE_ABORT_TOL, pinned from both sides,
    # for an entry of either sign
    for sign in (1.0, -1.0):
        phi = np.eye(16)
        phi[3, 3] = sign * entry
        if refused:
            with pytest.raises(TraceDriftError, match="has an entry 1.000e[+]00 above 1"):
                dynamics._check_map_entries(phi, "the map")
        else:
            dynamics._check_map_entries(phi, "the map")


@pytest.mark.parametrize("delta, refused", [(1e-9, True), (2e-10, False)])
def test_unitarity_is_held_to_1e_9(delta, refused):
    # U diag(1 + delta, 1, 1, 1) is 2 delta + delta^2 away from unitary:
    # 2e-9 is refused, 4e-10 accepted
    u = slot_unitary("swap", swap_gate(1, 2).params) @ np.diag([1.0 + delta, 1.0, 1.0, 1.0])
    if refused:
        with pytest.raises(NumericalError, match="unitary evolution lost normalisation"):
            dynamics._unitary_maps("swap", u)
    else:
        assert dynamics._unitary_maps("swap", u).shape == (16, 16)


@pytest.mark.parametrize("epsilon, refused", [(1e-11, True), (1e-13, False)])
def test_site_states_are_held_to_hermiticity_within_1e_12(epsilon, refused):
    # an anti-Hermitian part epsilon [[0, 1], [-1, 0]] puts 2 epsilon
    # between the state and its adjoint; the trace stays 1
    state = proj(ket(0)) + epsilon * np.array([[0.0, 1.0], [-1.0, 0.0]])
    schedule = schedule_sequence([swap_gate(1, 2)])
    run = lambda: evolve_lindblad_product([state, proj(ket(1))], schedule, NOISELESS, (1, 2))
    if refused:
        with pytest.raises(ValueError, match="site states must be Hermitian"):
            run()
    else:
        assert run().shape == (4, 4)


def test_a_site_state_that_is_not_hermitian_is_refused():
    # a real Pauli vector cannot carry its anti-Hermitian part
    state = np.array([[0.5, 0.5], [0.0, 0.5]])
    schedule = schedule_sequence([swap_gate(1, 2)])
    with pytest.raises(ValueError, match="site states must be Hermitian"):
        evolve_lindblad_product([state, proj(ket(0))], schedule, NOISELESS, (1, 2))


@pytest.mark.parametrize(
    "noise",
    [NOISELESS, NoiseModel("dephasing", 0.1), NoiseModel("amplitude_damping", 0.1)],
    ids=lambda noise: noise.kind,
)
@pytest.mark.parametrize("kind", ["swap", "cnot", "cnot_rotated"])
def test_every_map_is_real(kind, noise):
    gate = GATE_BUILDERS[kind](1, 2)
    maps = gate_superoperators(gate, [noise], [1.0, 2.5])
    maps += [m for _, m in gate_step_maps(gate, noise, 1.0, IntegratorConfig(dt=1.0 / 300))]
    maps.append(_idle_superop(noise, 0.7))
    assert [m.dtype for m in maps] == [np.float64] * len(maps)


def test_transport_frontier_is_real():
    # the frontier, each site's loose vector and every gate tensor of a
    # noisy ladder, at every line the contraction runs
    seen = set()

    def local(frame, event, arg):
        for name in ("frontier", "loose"):
            if frame.f_locals.get(name) is not None:
                seen.add((name, frame.f_locals[name].dtype))
        seen.update(("gate", block[3].dtype) for block in frame.f_locals.get("blocks", ()))
        return local

    code = circuits.evolve_lindblad_product.__code__
    circuit = build_transport_circuit(ChainTopology("square_2d", 8), "cnot_first")
    before = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        transport_fidelity(circuit, ket(0), noise=NoiseModel("amplitude_damping", 0.1))
    finally:
        sys.settrace(before)
    assert seen == {(name, np.dtype(np.float64)) for name in ("frontier", "loose", "gate")}


def test_density_entries_validate_their_inputs():
    # gates outside the chain and unnormalised inputs: see
    # test_unitary_rejects_gate_outside_chain and test_initial_trace_drift_raises
    schedule = schedule_sequence([swap_gate(1, 2)])
    sites = [proj(ket(0))] * 2
    for keep in [(1, 1), (0,), (3,)]:
        with pytest.raises(ValueError):
            evolve_lindblad_product(sites, schedule, NOISELESS, keep)
    with pytest.raises(ValueError):
        evolve_lindblad_product([proj(ket(0, 0))] * 2, schedule, NOISELESS, (1,))
