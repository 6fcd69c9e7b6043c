"""Tests for the unitary and master-equation evolution engines."""

from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import reduced_state, rk4_lindblad, stepped_unitary

from spinchain import dynamics
from spinchain.circuits import GATE_ORDERS, ChainTopology, build_transport_circuit
from spinchain.dynamics import (
    DEFAULT_STEPS_PER_SLOT,
    NOISELESS,
    IntegratorConfig,
    NoiseModel,
    TraceDriftError,
    _pair_slot_propagator,
    evolve_lindblad,
    evolve_lindblad_product,
    evolve_unitary,
    gate_fidelity,
    gate_superoperator,
    live_register_width,
)
from spinchain.hamiltonians import cnot_gate, swap_gate
from spinchain.memo import BuildOnce
from spinchain.pulses import idle_schedule, schedule_sequence


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


def evolve(method, rho, schedule, noise, dt=None):
    """``rk4``: the dense full-chain oracle; ``factored``: the package."""
    if method == "rk4":
        return rk4_lindblad(rho, schedule, noise, dt)
    return evolve_lindblad(rho, schedule, noise, IntegratorConfig(dt=dt))


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
    schedule = schedule_sequence([cnot_gate(1, 2)], slot_duration=alpha)
    oracle = stepped_unitary(schedule, 2, DEFAULT_STEPS_PER_SLOT)
    basis = np.eye(4, dtype=complex)
    out = np.stack([evolve_unitary(col, schedule) for col in basis], axis=1)
    assert np.max(np.abs(out - oracle)) < 1e-12


def test_unitary_preserves_norm_and_accepts_stretched_slots():
    psi = np.kron(PLUS, ket(0))
    schedule = schedule_sequence([swap_gate(1, 2)], slot_duration=3.0)
    out = evolve_unitary(psi, schedule, IntegratorConfig(dt=3.0 / 300))
    assert abs(np.linalg.norm(out) - 1.0) < 1e-12


def test_unitary_rejects_gate_outside_chain():
    with pytest.raises(ValueError):
        evolve_unitary(ket(0, 0), schedule_sequence([swap_gate(2, 3)]))


# ---------------------------------------------------------------------------
# closed-form single-site channels (independent analytic oracle)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("method, tol", [("rk4", 1e-6), ("factored", 1e-12)])
@pytest.mark.parametrize("gamma", [0.2, 1.0, 5.0])
def test_dephasing_idle_closed_form(method, tol, gamma):
    rho = proj(PLUS)
    out = evolve(method, rho, idle_schedule(1), NoiseModel("dephasing", gamma))
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
    out = evolve(method, proj(ket(0)), idle_schedule(1), noise)
    e = np.exp(-gamma)
    assert abs(out[0, 0] - e) < tol * e
    assert abs(out[1, 1] - (1.0 - e)) < tol

    # coherence decays at half the population rate
    out = evolve(method, proj(PLUS), idle_schedule(1), noise)
    want = 0.5 * np.exp(-0.5 * gamma)
    assert abs(out[0, 1] - want) < tol * want

    # |1> is the fixed point
    out = evolve(method, proj(ket(1)), idle_schedule(1), noise)
    assert abs(out[1, 1] - 1.0) < 1e-12


def test_amplitude_damping_accumulates_across_slots():
    noise = NoiseModel("amplitude_damping", 1.0)
    out = evolve_lindblad(proj(ket(0)), idle_schedule(5), noise)
    assert abs(out[0, 0] - np.exp(-5.0)) < 1e-12


@pytest.mark.parametrize("method, tol", [("rk4", 1e-6), ("factored", 1e-12)])
def test_two_site_amplitude_damping_factorises(method, tol):
    gamma = 0.8
    out = evolve(
        method, proj(ket(0, 0)), idle_schedule(1), NoiseModel("amplitude_damping", gamma)
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
    psi = np.kron(np.kron(PLUS, ket(0)), ket(0))
    schedule = schedule_sequence([cnot_gate(1, 2), swap_gate(2, 3)], slot_duration=1.0)
    return proj(psi), schedule


def test_methods_agree_for_dephasing():
    rho, schedule = three_qubit_case()
    noise = NoiseModel("dephasing", 0.05)
    a = evolve("rk4", rho, schedule, noise, dt=1e-3)
    b = evolve("factored", rho, schedule, noise, dt=1e-3)
    assert np.max(np.abs(a - b)) < 1e-8


def test_methods_converge_together_for_amplitude_damping():
    """The gap closes at 4th order as the step is halved."""
    rho, schedule = three_qubit_case()
    noise = NoiseModel("amplitude_damping", 0.05)
    gaps = []
    for dt in (2e-3, 1e-3):
        a = evolve("rk4", rho, schedule, noise, dt=dt)
        b = evolve("factored", rho, schedule, noise, dt=dt)
        gaps.append(np.max(np.abs(a - b)))
    assert gaps[0] < 1e-8
    assert gaps[1] < gaps[0] / 8.0


@pytest.mark.parametrize("method", ["rk4", "factored"])
def test_noiseless_master_equation_matches_unitary(method):
    rho, schedule = three_qubit_case()
    psi = np.kron(np.kron(PLUS, ket(0)), ket(0))
    out_u = evolve_unitary(psi, schedule)
    out = evolve(method, rho, schedule, NOISELESS)
    assert np.max(np.abs(out - proj(out_u))) < 1e-6


@pytest.mark.parametrize("method", ["rk4", "factored"])
def test_trajectory_stays_physical(method):
    rho, schedule = three_qubit_case()
    out = evolve(method, rho, schedule, NoiseModel("dephasing", 0.1))
    assert np.max(np.abs(out - out.conj().T)) < 1e-10
    assert np.min(np.linalg.eigvalsh(out)) > -1e-9
    assert abs(np.trace(out).real - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# failure detection and input validation
# ---------------------------------------------------------------------------


def test_initial_trace_drift_raises():
    rho = 0.98 * proj(ket(0))
    with pytest.raises(TraceDriftError):
        evolve_lindblad(rho, idle_schedule(1), NOISELESS)


def test_unstable_step_size_raises_trace_drift():
    plus0 = np.kron(PLUS, ket(0))
    schedule = schedule_sequence([swap_gate(1, 2)] * 6, slot_duration=1.0)
    noise, cfg = NoiseModel("amplitude_damping", 0.1), IntegratorConfig(dt=1.0)
    with pytest.raises(TraceDriftError, match="after slot 4"):
        evolve_lindblad(proj(plus0), schedule, noise, cfg)
    # the light-cone entry runs the same slot body, trace check included
    with pytest.raises(TraceDriftError, match="after slot 4"):
        evolve_lindblad_product([proj(PLUS), proj(ket(0))], schedule, noise, (1, 2), cfg)


def test_density_path_rejects_trotter_step():
    # the factored path is the only density-matrix integrator: there is no
    # method to pick
    with pytest.raises(TypeError):
        IntegratorConfig(method="trotter_step")


def test_dt_must_divide_the_slot():
    with pytest.raises(ValueError):
        evolve_unitary(ket(0, 0), schedule_sequence([swap_gate(1, 2)]), IntegratorConfig(dt=0.3))
    with pytest.raises(ValueError):
        evolve_lindblad(
            proj(ket(0, 0)),
            schedule_sequence([swap_gate(1, 2)]),
            NOISELESS,
            IntegratorConfig(dt=0.3),
        )


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
# observers
# ---------------------------------------------------------------------------


def test_unitary_observer_sees_every_step():
    times = []
    cfg = IntegratorConfig(dt=1.0 / 50)
    evolve_unitary(
        np.kron(PLUS, ket(0)),
        schedule_sequence([swap_gate(1, 2)]),
        cfg,
        observer=lambda t, psi: times.append(t),
    )
    assert len(times) == 51
    assert times[0] == 0.0
    assert times[-1] == pytest.approx(1.0)


def test_rk4_observer_sees_every_step():
    times = []
    gate_superoperator(
        swap_gate(1, 2),
        NoiseModel("dephasing", 0.01),
        IntegratorConfig(dt=1.0 / 50),
        observer=lambda t, phi: times.append(t),
    )
    assert len(times) == 51
    assert times[0] == 0.0
    assert times[-1] == pytest.approx(1.0)


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
    steps = []
    gate_superoperator(
        gate, noise, observer=lambda t, phi: steps.append((t, phi @ rho0.reshape(-1)))
    )
    assert steps[0][0] == 0.0 and np.array_equal(steps[0][1], rho0.reshape(-1))
    assert len(steps) == len(oracle) + 1
    for (t, vec), (t_oracle, rho) in zip(steps[1:], oracle):
        assert t == t_oracle
        assert np.max(np.abs(vec.reshape(4, 4) - rho)) < 1e-14


@pytest.mark.parametrize("alpha", EDGE_ALPHAS + (1.0,))
@pytest.mark.parametrize("kind", ["swap", "cnot"])
def test_pair_propagator_window_is_set_by_step_index(kind, alpha):
    """Columns of the cached pair propagator are the oracle's evolutions
    of the 16 matrix units, with the slot-end stage undriven."""
    gate = swap_gate(1, 2) if kind == "swap" else cnot_gate(1, 2)
    noise = NoiseModel("dephasing", 0.01)
    dt = alpha / DEFAULT_STEPS_PER_SLOT
    phi = _pair_slot_propagator(gate.kind, gate.params, noise, alpha, dt)
    schedule = schedule_sequence([gate], slot_duration=alpha)
    units = np.eye(16, dtype=complex).reshape(4, 4, 16)
    oracle = rk4_lindblad(units, schedule, noise, dt).reshape(16, 16)
    assert np.max(np.abs(phi - oracle)) < 1e-12


def test_factored_observer_sees_slot_boundaries():
    times = []
    evolve_lindblad(
        proj(np.kron(PLUS, ket(0))),
        schedule_sequence([swap_gate(1, 2), swap_gate(1, 2)]),
        NoiseModel("dephasing", 0.01),
        observer=lambda t, rho: times.append(t),
    )
    assert times == [0.0, 1.0, 2.0]


def test_default_step_count():
    counter = []
    evolve_unitary(
        np.kron(PLUS, ket(0)),
        schedule_sequence([swap_gate(1, 2)]),
        observer=lambda t, psi: counter.append(t),
    )
    assert len(counter) == DEFAULT_STEPS_PER_SLOT + 1


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


# ---------------------------------------------------------------------------
# light-cone register
# ---------------------------------------------------------------------------


def random_site_state(rng):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


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


@settings(max_examples=40, deadline=None)
@given(
    run=product_runs(),
    kind=st.sampled_from(["dephasing", "amplitude_damping"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_light_cone_run_equals_full_run_then_partial_trace(run, kind, seed):
    n, schedule, keep = run
    noise = NoiseModel(kind, 0.3)
    rng = np.random.default_rng(seed)
    sites = [random_site_state(rng) for _ in range(n)]
    full = evolve_lindblad(reduce(np.kron, sites), schedule, noise)
    got = evolve_lindblad_product(sites, schedule, noise, keep)
    assert np.max(np.abs(got - reduced_state(full, keep))) <= 1e-12


def test_ladder_live_width_is_four_at_any_length():
    for n in range(4, 101, 2):
        for order in GATE_ORDERS:
            circuit = build_transport_circuit(ChainTopology("square_2d", n), order)
            assert live_register_width(circuit.schedule, n, (n - 1, n)) == 4
    # the control's walk back along the line touches every site again
    for n in range(3, 9):
        circuit = build_transport_circuit(ChainTopology("line_1d", n), "cnot_first")
        assert live_register_width(circuit.schedule, n, (n - 1, n)) == n


def test_density_entries_validate_their_inputs():
    outside = schedule_sequence([swap_gate(2, 3)])
    with pytest.raises(ValueError, match="outside the chain"):
        evolve_lindblad(proj(ket(0, 0)), outside, NoiseModel("dephasing", 0.1))
    schedule = schedule_sequence([swap_gate(1, 2)])
    sites = [proj(ket(0))] * 2
    for keep in [(1, 1), (0,), (3,)]:
        with pytest.raises(ValueError):
            evolve_lindblad_product(sites, schedule, NOISELESS, keep)
    with pytest.raises(ValueError):
        evolve_lindblad_product([proj(ket(0, 0))] * 2, schedule, NOISELESS, (1,))
    with pytest.raises(ValueError, match="outside the chain"):
        evolve_lindblad_product(sites, outside, NOISELESS, (1,))
    with pytest.raises(TraceDriftError):
        evolve_lindblad_product([0.9 * proj(ket(0))] * 2, schedule, NOISELESS, (1,))


def test_propagator_cache_builds_once_under_threads():
    # the build-once property itself is tested in test_memo.py
    assert isinstance(dynamics._PAIR_PROP_CACHE, BuildOnce)
