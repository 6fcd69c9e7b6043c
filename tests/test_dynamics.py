"""Tests for the unitary and master-equation evolution engines."""

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
    pair_step_maps_stages,
    reduced_state,
    rk4_lindblad,
    stepped_unitary,
)

from spinchain import dynamics
from spinchain.circuits import GATE_ORDERS, ChainTopology, build_transport_circuit
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
    _resolve_steps,
    evolve_lindblad_product,
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
    materialize_channel_pulses,
    rotated_cnot_gate,
    swap_gate,
)
from spinchain.memo import BuildOnce
from spinchain.pulses import schedule_sequence


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
    # the contraction checks the trace of its result
    with pytest.raises(TraceDriftError, match="in the final state"):
        evolve_lindblad_product([proj(PLUS), proj(ket(0))], schedule, noise, (1, 2), cfg)


def test_nan_trace_aborts():
    with pytest.raises(TraceDriftError, match="nan"):
        dynamics._check_trace(np.full((2, 2), np.nan), "in the final state")


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
    # the trace error passes the tolerance within ~10 steps, so a level of
    # the first chunk's scan aborts the stream before it yields a step map
    stream = gate_step_maps(swap_gate(1, 2), NoiseModel("amplitude_damping", 5000.0))
    times, maps = next(stream)
    assert np.array_equal(times, [0.0]) and np.array_equal(maps, [np.eye(16)])
    with pytest.raises(TraceDriftError, match="swap pair propagator"):
        next(stream)


def test_observed_build_with_exploding_steps_stops_before_the_first_step():
    # gamma * dt = 1000: one step map already leaves the bound, so the scan
    # refuses the step maps before its first level
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


def test_pair_letters_are_cached_read_only_per_noise_model():
    noise = NoiseModel("dephasing", 0.1)
    letters, sizes, halves = dynamics._pair_letters("cnot", noise)
    assert dynamics._pair_letters("cnot", NoiseModel("dephasing", 0.1))[0] is letters
    assert not any(a.flags.writeable for a in (letters, sizes, halves))
    with pytest.raises(ValueError, match="read-only"):
        letters[0, 0] = 1.0
    # the whole model is the key: another rate gets letters of its own
    other, _, _ = dynamics._pair_letters("cnot", NoiseModel("dephasing", 0.2))
    assert not np.array_equal(other, letters)
    # a cached build equals a fresh one bit for bit
    dynamics._pair_letters.cache_clear()
    assert np.array_equal(dynamics._pair_letters("cnot", noise)[0], letters)


@pytest.mark.parametrize("kind", ["swap", "cnot", "cnot_rotated"])
def test_amplitude_damping_near_the_float_limit_aborts_as_unbounded(kind):
    # the letters' roundoff at this rate (an imaginary part ~4e183) is far
    # below their size, so they pass the Hermiticity check and the build
    # stops on its bound instead
    noise = NoiseModel("amplitude_damping", 1e200)
    letters, _, _ = dynamics._pair_letters(kind, noise)
    assert np.max(np.abs(letters)) > 1e199
    with pytest.raises(TraceDriftError, match=f"the {kind} pair propagator is not bounded"):
        gate_superoperator(GATE_BUILDERS[kind](1, 2), noise)


def test_letters_that_are_not_finite_raise_on_every_call():
    noise = NoiseModel("amplitude_damping", 1e308)
    for _ in range(2):
        with pytest.raises(TraceDriftError, match="a generator letter is not finite"):
            dynamics._pair_letters("swap", noise)
        with pytest.raises(TraceDriftError, match="swap pair propagator is not bounded"):
            gate_superoperator(swap_gate(1, 2), noise)


def test_pair_propagator_that_loses_trace_aborts(monkeypatch):
    # a dissipator without its anticommutator terms is finite but not
    # trace-preserving
    monkeypatch.setattr(dynamics, "_dissipator_superop", lambda l4: np.kron(l4, l4.conj()))
    with pytest.raises(TraceDriftError, match="not trace-preserving"):
        gate_superoperator(swap_gate(1, 2), NoiseModel("amplitude_damping", 0.1))


@pytest.mark.parametrize("noise_kind", ["dephasing", "amplitude_damping"])
@pytest.mark.parametrize("kind", ["swap", "cnot", "cnot_rotated"])
def test_pair_build_matches_the_sequential_loop(kind, noise_kind):
    # step counts on both sides of the tree's and the chunks' edges
    assert PAIR_CHUNK_STEPS == 256
    params, noise = GATE_BUILDERS[kind](1, 2).params, NoiseModel(noise_kind, 0.01)
    for alpha in (1.0, 10.0, 100.0):
        for n_steps in (1, 2, 3, 255, 256, 257, 1000):
            (built,) = dynamics._pair_rk4(kind, params, noise, [alpha], n_steps)
            loop = pair_rk4_loop(kind, params, noise, alpha, n_steps)
            assert np.max(np.abs(built - loop)) <= 1e-12, (alpha, n_steps)


@pytest.mark.parametrize("noise_kind", ["dephasing", "amplitude_damping"])
@pytest.mark.parametrize("kind", ["swap", "cnot", "cnot_rotated"])
def test_series_step_maps_match_the_stage_products(kind, noise_kind):
    # the duration series of one grid, evaluated at each duration, against
    # the three RK4 stage products of the slot itself, chunk by chunk
    params, noise = GATE_BUILDERS[kind](1, 2).params, NoiseModel(noise_kind, 0.01)
    alphas = EDGE_ALPHAS + (1.0, 10.0, 100.0)
    for n_steps in (1, 2, 3, 255, 256, 257, 1000):
        zs = [dynamics._constant_coefficient(kind, params, noise, a, n_steps) for a in alphas]
        stages = [pair_step_maps_stages(kind, params, noise, a, n_steps) for a in alphas]
        chunks = 0
        # each chunk lives in a workspace that the next one overwrites
        for chunk in dynamics._pair_series(kind, params, noise, n_steps):
            for alpha, z, reference in zip(alphas, zs, stages):
                d = dynamics._pair_step_maps(kind, noise, chunk, z)
                assert np.max(np.abs(d - next(reference))) <= 1e-13, (alpha, n_steps)
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
            assert np.max(np.abs(phi - phi_loop)) <= 1e-12, (n_steps, t)


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
    """The pair generator's letters as real 16x16 Pauli-transfer matrices,
    built as ``_pair_letters`` builds them but never packed."""
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
    noise = NoiseModel(noise_kind, 0.1)
    letters, sizes, layout = dynamics._pair_letters(kind, noise)
    unpacked = (kind, noise_kind) in UNPACKED
    assert layout.shape == ((1, 16) if unpacked else MEASURED_LAYOUTS[noise_kind])
    # the blocks partition 0..15, each in order, with Pauli 0 first
    assert sorted(layout.ravel()) == list(range(16))
    assert all(list(block) == sorted(block) for block in layout) and layout[0, 0] == 0
    # every nonzero entry of every letter lies inside one block ...
    dense = dense_letters(kind, noise)
    rows, cols = np.nonzero(np.any(dense != 0.0, axis=0))
    assert np.array_equal(block_of(layout)[rows], block_of(layout)[cols])
    # ... and the packed letters are those blocks, exactly
    k, b = layout.shape
    blocks = dense[:, layout[:, :, None], layout[:, None, :]]
    assert np.array_equal(letters.reshape(-1, k, b, b), blocks)
    assert np.array_equal(sizes, np.max(np.abs(dense), axis=(1, 2)))


@pytest.mark.parametrize("noise_kind", PAIR_NOISE_KINDS)
@pytest.mark.parametrize("kind", ["swap", "cnot", "cnot_rotated"])
def test_built_maps_are_exactly_zero_between_the_halves(kind, noise_kind, monkeypatch):
    # a dense 16x16 RK4 in the Pauli-transfer basis, step by step: its
    # entries between the blocks come out exactly 0, so packing drops nothing
    gate, noise, n_steps = GATE_BUILDERS[kind](1, 2), NoiseModel(noise_kind, 0.1), 40
    _, _, layout = dynamics._pair_letters(kind, noise)
    letters = dense_letters(kind, noise)
    pulses = materialize_channel_pulses(gate.params, 0.0, 1.0)
    h = 1.0 / n_steps

    def generator(t, driven=True):
        return letters[0] + sum(driven * p.value(t) * l for p, l in zip(pulses, letters[1:]))

    phi = np.eye(16)
    for m in range(n_steps):
        g1, gm = generator(m * h), generator(m * h + 0.5 * h)
        g4 = generator(m * h + h, m < n_steps - 1)
        k1 = g1 @ phi
        k2 = gm @ (phi + 0.5 * h * k1)
        k3 = gm @ (phi + 0.5 * h * k2)
        phi = phi + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + g4 @ (phi + h * k3))
    owner = block_of(layout)
    assert np.all(phi[owner[:, None] != owner[None, :]] == 0.0)
    # the packed build holds the same blocks
    packed = []
    to_row_major = dynamics._to_row_major
    monkeypatch.setattr(
        dynamics, "_to_row_major", lambda d, layout: packed.append(d.copy()) or to_row_major(d, layout)
    )
    dynamics._pair_rk4(kind, gate.params, noise, [1.0], n_steps)
    blocks = phi[layout[:, :, None], layout[:, None, :]] - np.eye(layout.shape[1])
    assert np.max(np.abs(packed[0] - blocks)) <= 1e-14


def merged_layout(layout, k):
    """``layout`` with its blocks merged, in order, into ``k`` blocks."""
    return np.array(sorted(sorted(np.concatenate(c)) for c in np.split(layout, k)))


@pytest.mark.parametrize("kind", ["swap", "cnot", "cnot_rotated"])
def test_coarser_layouts_build_the_same_maps_bit_for_bit(kind, monkeypatch):
    # the (4, 4) dephasing layout merged into (2, 8) and (1, 16): a bigger
    # block only adds exact zeros to each sum, so packing drops nothing
    gate, noise = GATE_BUILDERS[kind](1, 2), NoiseModel("dephasing", 0.01)
    layout = dynamics._pair_letters(kind, noise)[2]
    assert layout.shape == (4, 4)

    def maps():
        for alpha in (1.0, 10.0, 100.0):
            for n_steps in (1, 2, 3, 255, 256, 257, 1000):
                yield from dynamics._pair_rk4(kind, gate.params, noise, [alpha], n_steps)
                cfg = IntegratorConfig(dt=alpha / n_steps)
                yield from (m for _, m in gate_step_maps(gate, noise, alpha, cfg))

    fine = list(maps())
    for k in (2, 1):
        monkeypatch.setattr(dynamics, "_pack_blocks", lambda pattern, k=k: merged_layout(layout, k))
        dynamics._pair_letters.cache_clear()
        dynamics._pair_words.cache_clear()
        assert dynamics._pair_letters(kind, noise)[2].shape == (k, 16 // k)
        coarse = list(maps())
        assert len(coarse) == len(fine)
        assert all(np.array_equal(a, b) for a, b in zip(coarse, fine)), k


GUARDED_LAYOUTS = [("swap", "dephasing"), ("cnot_rotated", "amplitude_damping")]


def broken_steps(monkeypatch, index, value, offsets=(0,)):
    """Make ``_pair_step_maps`` add ``value`` at packed ``(block, row,
    column)`` ``index`` of the middle step map of every chunk and of the
    steps ``offsets`` after it."""
    step_maps = dynamics._pair_step_maps

    def broken(*args):
        d = step_maps(*args)
        for offset in offsets:
            d[(len(d) // 2 + offset, *index)] += value
        return d

    monkeypatch.setattr(dynamics, "_pair_step_maps", broken)


def pair_runs(kind, noise, n_steps=100):
    """The build and the drained stream of one ``n_steps``-step pair map."""
    gate = GATE_BUILDERS[kind](1, 2)
    return (
        lambda: gate_superoperator(gate, noise, 1.0, IntegratorConfig(dt=1.0 / n_steps)),
        lambda: list(gate_step_maps(gate, noise, 1.0, IntegratorConfig(dt=1.0 / n_steps))),
    )


@pytest.mark.parametrize("kind, noise_kind", GUARDED_LAYOUTS)
def test_packed_trace_row_error_is_caught(kind, noise_kind, monkeypatch):
    noise = NoiseModel(noise_kind, 0.01)
    b = dynamics._pair_letters(kind, noise)[2].shape[1]
    # an error in Pauli 0's packed row, away from its diagonal
    broken_steps(monkeypatch, (0, 0, b - 1), 1e-3)
    for run in pair_runs(kind, noise):
        with pytest.raises(TraceDriftError, match=f"the {kind} pair propagator is not trace-preserving"):
            run()


@pytest.mark.parametrize("kind, noise_kind", GUARDED_LAYOUTS)
def test_packed_error_off_the_trace_row_is_not_a_trace_error(kind, noise_kind, monkeypatch):
    # the same error in the first row of another block (the second row of
    # the only one) changes the map, not its trace row: the build runs through
    noise = NoiseModel(noise_kind, 0.01)
    k, b = dynamics._pair_letters(kind, noise)[2].shape
    broken_steps(monkeypatch, (1, 0, b - 1) if k > 1 else (0, 1, b - 1), 1e-3)
    for run in pair_runs(kind, noise):
        run()


@pytest.mark.parametrize("kind, noise_kind", GUARDED_LAYOUTS)
def test_packed_oversized_entry_away_from_pauli_0_is_caught(kind, noise_kind, monkeypatch):
    # one entry past the bound in the last block, one without Pauli 0 when
    # there are several
    noise = NoiseModel(noise_kind, 0.01)
    broken_steps(monkeypatch, (-1, -1, -1), 2.0 / TRACE_ABORT_TOL)
    for run in pair_runs(kind, noise):
        with pytest.raises(TraceDriftError, match=f"the {kind} pair propagator is not bounded"):
            run()


def always_searched(monkeypatch):
    """Make every tree level, scan level and chunk fold search its stack."""
    monkeypatch.setattr(dynamics, "_then_bound", lambda b, first, next_: (np.inf, np.inf))


def abort_message(run):
    """The message of the ``TraceDriftError`` that ``run()`` raises."""
    with pytest.raises(TraceDriftError) as caught:
        run()
    return str(caught.value)


@pytest.mark.parametrize("kind, noise_kind", GUARDED_LAYOUTS)
def test_growth_past_level_0_falls_back_to_a_search(kind, noise_kind, monkeypatch):
    # entries of 2e3 pass level 0, but the product of two adjacent step maps
    # (a tree pair, a scan step) passes 1e6, and a chunk product holding one
    # passes it only in the fold with the next chunk: each level's bound
    # passes the tolerance, so the level is searched and aborts as it does
    # when every level is searched
    noise = NoiseModel(noise_kind, 0.01)
    faults = [((0, 1), 100), ((0,), 300)]
    with monkeypatch.context() as m:
        broken_steps(m, (-1, -1, -1), 2e3)
        for run in pair_runs(kind, noise, 256):
            run()  # one such step map in a lone chunk is fine
    for offsets, n_steps in faults:
        with monkeypatch.context() as m:
            broken_steps(m, (-1, -1, -1), 2e3, offsets)
            messages = [abort_message(run) for run in pair_runs(kind, noise, n_steps)]
            always_searched(m)
            searched = [abort_message(run) for run in pair_runs(kind, noise, n_steps)]
        assert messages == searched, offsets
        assert all(f"the {kind} pair propagator is not bounded" in s for s in messages)


def measured(d):
    """The trace-row error and the largest entry of a packed stack."""
    return np.max(np.abs(d[..., 0, 0, :])), np.max(np.abs(d))


@settings(max_examples=60, deadline=None)
@given(
    b=st.sampled_from([4, 8, 16]),
    scales=st.tuples(st.floats(1e-9, 1e4), st.floats(1e-9, 1e4)),
    entries=st.sampled_from(["uniform", "signs", "equal"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_then_never_exceeds_its_bound(b, scales, entries, seed):
    # "equal" stacks attain the bound's sum exactly, so only its rounding
    # factor covers the rounding of the computed entries
    u = np.random.default_rng(seed).uniform(-1.0, 1.0, (2, 3, 16 // b, b, b))
    u = {"uniform": u, "signs": np.sign(u), "equal": np.ones_like(u)}[entries]
    first, next_ = (scale * v for scale, v in zip(scales, u))
    error, size = dynamics._then_bound(b, measured(first), measured(next_))
    out_error, out_size = measured(dynamics._then(first, next_))
    assert out_error <= error and out_size <= size


@pytest.mark.parametrize("noise_kind", PAIR_NOISE_KINDS)
@pytest.mark.parametrize("kind", ["swap", "cnot", "cnot_rotated"])
def test_default_builds_search_few_levels(kind, noise_kind, monkeypatch):
    # the step maps of each of the four chunks are searched, and a later
    # level only once its bound passes a tolerance: 6-7 searches per build
    # or stream, against ~40 when every level was searched
    searches = []
    check = dynamics._check_pair_maps
    monkeypatch.setattr(dynamics, "_check_pair_maps", lambda *a: searches.append(1) or check(*a))
    gate = GATE_BUILDERS[kind](1, 2)
    for gamma in (0.001, 0.01, 0.1):
        noise = NoiseModel(noise_kind, gamma)
        for run in (lambda: gate_superoperator(gate, noise), lambda: list(gate_step_maps(gate, noise))):
            searches.clear()
            run()
            assert 4 <= len(searches) <= 12, gamma


def test_hermiticity_is_held_letter_by_letter(monkeypatch):
    # a drive letter times i is caught even beside a dissipator 1e200 times
    # its size: the tolerance scales with each letter's own entries
    hamiltonian = dynamics._hamiltonian_superop
    monkeypatch.setattr(dynamics, "_hamiltonian_superop", lambda h4: 1j * hamiltonian(h4))
    with pytest.raises(NumericalError, match="the cnot pair generator does not preserve Hermiticity"):
        dynamics._pair_letters("cnot", NoiseModel("amplitude_damping", 1e200))


def test_long_pair_build_runs_in_bounded_memory():
    # the pulses are sampled and the step maps made, multiplied and streamed
    # in chunks: all 20 000 at once would take ~230 MiB, and 20 000
    # row-major maps ~80 MiB; the cnot_rotated build under amplitude damping
    # runs on one 16x16 block, and MAX_STEPS_PER_SLOT steps hold no more
    gate, noise = swap_gate(1, 2), NoiseModel("dephasing", 0.01)
    amp = NoiseModel("amplitude_damping", 0.01)
    assert dynamics._pair_letters("cnot_rotated", amp)[2].shape == (1, 16)

    def drain(noise, n_steps=20_000):
        stream = gate_step_maps(gate, noise, n_steps * 1e-3, IntegratorConfig(dt=1e-3))
        assert sum(len(t) for t, _ in stream) == n_steps + 1

    def build(gate, noise, n_steps=20_000):
        (phi,) = dynamics._pair_rk4(gate.kind, gate.params, noise, [n_steps * 1e-3], n_steps)
        assert isinstance(phi, np.ndarray)

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
    steps = list(zip(times, maps @ rho0.reshape(-1)))
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
        assert np.max(np.abs(phi - np.kron(u, u.conj()))) < 1e-12


@pytest.mark.parametrize("kind", ["swap", "cnot", "cnot_rotated"])
def test_noiseless_map_is_the_closed_form(kind):
    gate = GATE_BUILDERS[kind](1, 2)
    u = slot_unitary(gate.kind, gate.params)
    phi = gate_superoperator(gate, NOISELESS)
    assert np.max(np.abs(phi - np.kron(u, u.conj()))) < 1e-15


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
    dynamics._PAIR_PROP_CACHE = BuildOnce()
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
    maps = gate_superoperators(gate, noise, alphas, cfg)
    assert builds == ([30] if dt is None else [1] * 30)
    assert len(maps) == len(alphas)
    for alpha, phi in zip(alphas, maps):
        assert phi is gate_superoperator(gate, noise, alpha, cfg)  # cached under its own key
        assert np.array_equal(phi, built_alone(gate, noise, alpha, cfg)), alpha


@pytest.mark.filterwarnings("error::RuntimeWarning")  # neither abort reaches a numpy overflow
def test_a_row_raises_its_first_unstable_duration_and_keeps_the_good_maps():
    # at gamma = 1e7 a slot of 1e-6 is stable; at alpha = 1 the step maps
    # grow past the bound, and at alpha = 100 the step generators already do
    gate, noise = swap_gate(1, 2), NoiseModel("dephasing", 1e7)
    alphas = (1e-6, 100.0, 1.0, 2e-6)
    alone = {
        alpha: abort_message(lambda a=alpha: built_alone(gate, noise, a, None))
        for alpha in (1.0, 100.0)
    }
    assert "a step generator entry" in alone[100.0] and "an entry" in alone[1.0]
    assert abort_message(lambda: gate_superoperators(gate, noise, alphas)) == alone[100.0]
    # the good maps of the row are cached, and equal their builds alone
    cached = {key[3]: phi for key, phi in dynamics._PAIR_PROP_CACHE._values.items()}
    assert sorted(cached) == [1e-6, 2e-6]
    for alpha, phi in cached.items():
        assert np.array_equal(phi, built_alone(gate, noise, alpha, None))


@pytest.mark.parametrize("alpha", EDGE_ALPHAS + (1.0,))
@pytest.mark.parametrize("kind", ["swap", "cnot"])
def test_pair_propagator_window_is_set_by_step_index(kind, alpha):
    """Columns of the cached pair propagator are the oracle's evolutions
    of the 16 matrix units, with the slot-end stage undriven."""
    gate = swap_gate(1, 2) if kind == "swap" else cnot_gate(1, 2)
    noise = NoiseModel("dephasing", 0.01)
    dt = alpha / DEFAULT_STEPS_PER_SLOT
    phi = gate_superoperator(gate, noise, alpha)
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
    monkeypatch.setattr(dynamics, "FRONTIER_MAX_ENTRIES", 4**8)
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
    monkeypatch.setattr(dynamics, "FRONTIER_MAX_ENTRIES", 4 * 16**2)
    for n in range(4, 101, 2):
        for order in GATE_ORDERS:
            circuit = build_transport_circuit(ChainTopology("square_2d", n), order)
            evolve_lindblad_product(sites[:n], circuit.schedule, noise, (n - 1, n))
    monkeypatch.setattr(dynamics, "FRONTIER_MAX_ENTRIES", 4 * 16**2 - 1)
    circuit = build_transport_circuit(ChainTopology("square_2d", 4), "cnot_first")
    with pytest.raises(ValueError, match="would hold 1024 entries"):
        evolve_lindblad_product(sites[:4], circuit.schedule, noise, (3, 4))


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


def test_propagator_cache_builds_once_under_threads():
    # the build-once property itself is tested in test_memo.py
    assert isinstance(dynamics._PAIR_PROP_CACHE, BuildOnce)
