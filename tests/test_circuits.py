"""Tests for transport circuit construction, fidelity maps, and contours."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import partial_trace_keep_last_two, rk4_lindblad

from spinchain.circuits import (
    GATE_ORDERS,
    ChainTopology,
    FidelityMap,
    ParamState,
    build_transport_circuit,
    default_map_grid,
    fidelity_difference_map,
    fit_cos_two_phi,
    ideal_pair_output,
    transport_fidelity,
    transport_input,
    transport_reduced_state,
    zero_contour,
)
from spinchain.dynamics import IntegratorConfig, NoiseModel, evolve_lindblad
from spinchain.hamiltonians import (
    DEFAULT_CNOT_COUPLING_PARAMS,
    DEFAULT_CNOT_LOCAL_PARAMS,
    DEFAULT_SWAP_PARAMS,
)

STOCK_PARAMS = {
    "swap": (DEFAULT_SWAP_PARAMS,),
    "cnot": (DEFAULT_CNOT_LOCAL_PARAMS, DEFAULT_CNOT_COUPLING_PARAMS),
}


def slot_pairs(circuit):
    """Qubit pairs per slot, as sets to ignore in-slot ordering."""
    return [
        {(e.gate.kind, e.gate.qubits) for e in circuit.schedule.slot_entries(k)}
        for k in range(circuit.num_slots)
    ]


# ---------------------------------------------------------------------------
# gate sequences
# ---------------------------------------------------------------------------


def test_line_three_sites_cnot_first():
    circuit = build_transport_circuit(ChainTopology("line_1d", 3), "cnot_first")
    assert slot_pairs(circuit) == [
        {("cnot", (1, 2))},
        {("swap", (2, 3))},
        {("swap", (1, 2))},
    ]


def test_line_four_sites_cnot_first():
    circuit = build_transport_circuit(ChainTopology("line_1d", 4), "cnot_first")
    assert slot_pairs(circuit) == [
        {("cnot", (1, 2))},
        {("swap", (2, 3))},
        {("swap", (3, 4))},
        {("swap", (1, 2))},
        {("swap", (2, 3))},
    ]


def test_line_cnot_last_entangles_the_far_end():
    circuit = build_transport_circuit(ChainTopology("line_1d", 3), "cnot_last")
    assert slot_pairs(circuit) == [
        {("swap", (2, 3))},
        {("swap", (1, 2))},
        {("cnot", (2, 3))},
    ]


def test_square_four_sites_runs_swaps_in_parallel():
    circuit = build_transport_circuit(ChainTopology("square_2d", 4), "cnot_first")
    assert slot_pairs(circuit) == [
        {("cnot", (1, 2))},
        {("swap", (1, 3)), ("swap", (2, 4))},
    ]
    last = build_transport_circuit(ChainTopology("square_2d", 4), "cnot_last")
    assert slot_pairs(last) == [
        {("swap", (1, 3)), ("swap", (2, 4))},
        {("cnot", (3, 4))},
    ]


def test_square_six_sites_hops_column_by_column():
    circuit = build_transport_circuit(ChainTopology("square_2d", 6), "cnot_first")
    assert slot_pairs(circuit) == [
        {("cnot", (1, 2))},
        {("swap", (1, 3)), ("swap", (2, 4))},
        {("swap", (3, 5)), ("swap", (4, 6))},
    ]


@pytest.mark.parametrize("n", range(2, 9))
def test_line_counts(n):
    circuit = build_transport_circuit(ChainTopology("line_1d", n), "cnot_first")
    assert circuit.swap_count == 2 * (n - 2)
    assert circuit.num_slots == 2 * (n - 2) + 1
    assert len(circuit.gates) == circuit.swap_count + 1


@pytest.mark.parametrize("n", [4, 6, 8, 10, 12])
def test_ladder_counts(n):
    circuit = build_transport_circuit(ChainTopology("square_2d", n), "cnot_first")
    assert circuit.swap_count == n - 2
    assert circuit.num_slots == n // 2


def test_explicit_gate_params_are_used():
    circuit = build_transport_circuit(
        ChainTopology("line_1d", 3), gate_params=STOCK_PARAMS
    )
    swaps = [g for g in circuit.gates if g.kind == "swap"]
    assert all(g.params == (DEFAULT_SWAP_PARAMS,) for g in swaps)


def test_gate_params_pair_counts_validated():
    with pytest.raises(ValueError):
        build_transport_circuit(
            ChainTopology("line_1d", 3),
            gate_params={"swap": STOCK_PARAMS["cnot"], "cnot": STOCK_PARAMS["cnot"]},
        )
    with pytest.raises(ValueError):
        build_transport_circuit(
            ChainTopology("line_1d", 3),
            gate_params={"swap": STOCK_PARAMS["swap"], "cnot": STOCK_PARAMS["swap"]},
        )


def test_bad_order_and_topology_rejected():
    with pytest.raises(ValueError):
        build_transport_circuit(ChainTopology("line_1d", 3), "cnot_middle")
    with pytest.raises(ValueError):
        ChainTopology("line_1d", 1)
    with pytest.raises(ValueError):
        ChainTopology("square_2d", 3)
    with pytest.raises(ValueError):
        ChainTopology("square_2d", 2)
    with pytest.raises(ValueError):
        ChainTopology("ring", 4)


# ---------------------------------------------------------------------------
# payload states and register assembly
# ---------------------------------------------------------------------------


def test_param_state_poles():
    north = ParamState(theta=np.pi, phi=1.3).vector()
    assert np.allclose(north, [1.0, 0.0], atol=1e-15)
    south = ParamState(theta=0.0, phi=0.0).vector()
    assert np.allclose(south, [0.0, 1.0], atol=1e-15)


@settings(max_examples=30, deadline=None)
@given(
    theta=st.floats(0.0, np.pi, allow_nan=False),
    phi=st.floats(0.0, 2.0 * np.pi, allow_nan=False),
)
def test_param_state_is_normalised(theta, phi):
    vec = ParamState(theta=theta, phi=phi).vector()
    assert abs(np.linalg.norm(vec) - 1.0) < 1e-12
    assert vec[0] == pytest.approx(np.sin(theta / 2.0))
    assert vec[1] == pytest.approx(np.exp(1j * phi) * np.cos(theta / 2.0))


def test_param_state_range_checked():
    with pytest.raises(ValueError):
        ParamState(theta=-0.1, phi=0.0)
    with pytest.raises(ValueError):
        ParamState(theta=3.2, phi=0.0)
    with pytest.raises(ValueError):
        ParamState(theta=1.0, phi=7.0)


def test_transport_input_layout():
    topo = ChainTopology("line_1d", 3)
    payload = np.array([0.6, 0.8], dtype=complex)
    psi = transport_input(topo, payload)
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    want = np.kron(np.kron(plus, payload), [1.0, 0.0])
    assert np.allclose(psi, want, atol=1e-15)
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-12

    e1 = np.array([0.0, 1.0], dtype=complex)
    psi = transport_input(topo, payload, control=e1)
    assert np.allclose(psi, np.kron(np.kron(e1, payload), [1.0, 0.0]), atol=1e-15)


def test_transport_input_rejects_unnormalised_payload():
    with pytest.raises(ValueError):
        transport_input(ChainTopology("line_1d", 3), np.array([1.0, 1.0]))


def test_ideal_pair_output_makes_a_bell_state():
    out = ideal_pair_output(np.array([1.0, 0.0]))
    want = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    assert np.allclose(out, want, atol=1e-15)


# ---------------------------------------------------------------------------
# noiseless transport
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("order", GATE_ORDERS)
@pytest.mark.parametrize(
    "topo",
    [
        ChainTopology("line_1d", 3),
        ChainTopology("line_1d", 4),
        ChainTopology("square_2d", 4),
    ],
)
def test_noiseless_transport_is_nearly_perfect(order, topo):
    circuit = build_transport_circuit(topo, order)
    for payload in (
        np.array([1.0, 0.0]),
        np.array([0.0, 1.0]),
        ParamState(theta=1.0, phi=0.7),
    ):
        assert transport_fidelity(circuit, payload) > 1.0 - 1e-6


def test_reduced_state_is_a_density_matrix():
    circuit = build_transport_circuit(ChainTopology("line_1d", 3))
    rho = transport_reduced_state(
        circuit,
        np.array([1.0, 0.0]),
        noise=NoiseModel("dephasing", 0.05),
    )
    assert rho.shape == (4, 4)
    assert abs(np.trace(rho).real - 1.0) < 1e-9
    assert np.max(np.abs(rho - rho.conj().T)) < 1e-10
    assert np.min(np.linalg.eigvalsh(rho)) > -1e-9


# ---------------------------------------------------------------------------
# dense-superoperator oracle for a full noisy transport run
# ---------------------------------------------------------------------------


def test_square_transport_matches_dense_superoperator_oracle():
    """The factored ladder run and the dense full-chain RK4 discretise the
    same master equation differently; their gap closes at fourth order,
    for the full state and for the reduced-state helper alike."""
    topo = ChainTopology("square_2d", 4)
    circuit = build_transport_circuit(topo, "cnot_first")
    noise = NoiseModel("dephasing", 0.1)
    psi = transport_input(topo, np.array([1.0, 0.0]))
    rho = np.outer(psi, psi.conj())

    gaps = []
    for dt in (1e-3, 5e-4):
        oracle = rk4_lindblad(rho, circuit.schedule, noise, dt)
        out = evolve_lindblad(rho, circuit.schedule, noise, IntegratorConfig(dt=dt))
        reduced = transport_reduced_state(
            circuit, np.array([1.0, 0.0]), noise=noise, cfg=IntegratorConfig(dt=dt)
        )
        gaps.append(
            np.array(
                [
                    np.max(np.abs(out - oracle)),
                    np.max(np.abs(reduced - partial_trace_keep_last_two(oracle))),
                ]
            )
        )
    assert np.all(gaps[0] < 1e-6)
    assert np.all(gaps[1] < gaps[0] / 8.0)


# ---------------------------------------------------------------------------
# fidelity difference maps
# ---------------------------------------------------------------------------


def small_grid():
    return np.linspace(0.0, np.pi, 5), np.linspace(0.0, 2.0 * np.pi, 6, endpoint=False)


def test_reconstructed_map_equals_direct_evaluation():
    thetas, phis = small_grid()
    noise = NoiseModel("dephasing", 0.1)
    fast = fidelity_difference_map(thetas=thetas, phis=phis, noise=noise)
    topo = ChainTopology("square_2d", 4)
    for order, grid in (
        ("cnot_first", fast.fidelity_cnot_first),
        ("cnot_last", fast.fidelity_cnot_last),
    ):
        circuit = build_transport_circuit(topo, order)
        direct = np.array(
            [
                [transport_fidelity(circuit, ParamState(theta, phi), noise=noise) for phi in phis]
                for theta in thetas
            ]
        )
        assert np.max(np.abs(grid - direct)) < 1e-10


def test_map_theta_pi_row_equals_single_transport():
    """theta = pi is the |0> payload, so the map row must reproduce the
    plain transport fidelities."""
    thetas, phis = small_grid()
    noise = NoiseModel("amplitude_damping", 0.1)
    fmap = fidelity_difference_map(thetas=thetas, phis=phis, noise=noise)
    topo = ChainTopology("square_2d", 4)
    row = np.where(np.isclose(thetas, np.pi))[0][0]
    for order, grid in (
        ("cnot_first", fmap.fidelity_cnot_first),
        ("cnot_last", fmap.fidelity_cnot_last),
    ):
        circuit = build_transport_circuit(topo, order)
        direct = transport_fidelity(circuit, np.array([1.0, 0.0]), noise=noise)
        assert np.max(np.abs(grid[row, :] - direct)) < 1e-12


def test_default_map_grid_shape():
    thetas, phis = default_map_grid()
    assert thetas.shape == (64,) and phis.shape == (64,)
    assert thetas[0] == 0.0 and thetas[-1] == pytest.approx(np.pi)
    assert phis[0] == 0.0 and phis[-1] < 2.0 * np.pi  # phi endpoint excluded


def test_map_rejects_empty_grids_and_bad_method():
    with pytest.raises(ValueError):
        fidelity_difference_map(thetas=np.array([]), phis=np.array([0.0]))
    # the map always reconstructs from four basis evolutions; there is no
    # method to choose
    with pytest.raises(TypeError):
        fidelity_difference_map(
            thetas=np.array([1.0]), phis=np.array([0.0]), method="direct"
        )


# ---------------------------------------------------------------------------
# contour extraction and fitting
# ---------------------------------------------------------------------------


def synthetic_map(curve):
    """A map whose difference is theta - curve(phi): linear in theta, so
    the interpolated zero crossing is exact."""
    thetas = np.linspace(0.0, np.pi, 33)
    phis = np.linspace(0.0, 2.0 * np.pi, 48, endpoint=False)
    tg, pg = np.meshgrid(thetas, phis, indexing="ij")
    delta = tg - curve(pg)
    return FidelityMap(
        thetas=thetas,
        phis=phis,
        fidelity_cnot_first=delta,
        fidelity_cnot_last=np.zeros_like(delta),
    )


def test_zero_contour_finds_a_flat_curve():
    fmap = synthetic_map(lambda phi: np.pi / 2 + 0.0 * phi)
    contour = zero_contour(fmap)
    assert contour.shape[0] >= fmap.phis.size
    assert np.max(np.abs(contour[:, 1] - np.pi / 2)) < 1e-12
    # sorted by (phi, theta)
    assert np.all(np.diff(contour[:, 0]) >= 0.0)


def test_fit_recovers_a_cosine_contour():
    a, b = 0.3, 1.5
    fmap = synthetic_map(lambda phi: a * np.cos(2.0 * phi) + b)
    contour = zero_contour(fmap)
    fit_a, fit_b, residual = fit_cos_two_phi(contour)
    assert fit_a == pytest.approx(a, abs=1e-3)
    assert fit_b == pytest.approx(b, abs=1e-3)
    assert residual < 2e-2  # row-scan points interpolate along phi too


def test_zero_contour_empty_when_no_crossing():
    fmap = synthetic_map(lambda phi: -1.0 + 0.0 * phi)  # always positive delta
    contour = zero_contour(fmap)
    assert contour.shape == (0, 2)
    with pytest.raises(ValueError):
        fit_cos_two_phi(contour)
