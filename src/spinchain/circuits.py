"""Two-qubit state transport across chains and two-row ladders.

A transport circuit prepares a logical pair on sites (1, 2), entangles it
with a CNOT, and shuttles both qubits to sites (N-1, N) with SWAP
cascades — or shuttles first and entangles last. Readout keeps the final
two sites and compares against the ideal CNOT output of the input pair.

Layouts:

* ``line_1d`` — a single chain. The payload on site 2 rides
  SWAP(2,3) ... SWAP(N-1,N), then the control on site 1 rides
  SWAP(1,2) ... SWAP(N-2,N-1): 2(N-2) SWAPs, one gate per slot.
* ``square_2d`` — a two-row ladder with rungs (1,2), (3,4), ...; both
  rails hop one column per slot via simultaneous disjoint SWAPs
  (top: 2j-1 -> 2j+1, bottom: 2j -> 2j+2): N-2 SWAPs in N/2 - 1 slots,
  so the whole circuit takes N/2 slots instead of 2(N-2) + 1.

Every run, noisy or not, contracts the circuit site by site from the
product input (:func:`evolve_lindblad_product`). Transport from product
inputs is a tensor network with one wire per site: its input, the
closed-form idle channel over each gap between its gates (the idle
channels form a semigroup), its gates in slot order, then a trace, or an
open leg for a readout site. Every leg is a real Pauli vector ``tr(P
rho)``, P = I, X, Y, Z, whose Pauli 0 component is the trace; each gate is
its cached slot map (:func:`spinchain.dynamics.gate_superoperator`) read
as a (4, 4, 4, 4) tensor. The contraction cuts that network by site instead of by time
(Markov & Shi, SIAM J. Comput. 38, 963 (2008)): sites join one frontier
tensor in index order, a gate's first site brings in the whole gate and
its second site closes the gate's legs. On both layouts the frontier
peaks at 1024 entries whatever the length, so a run costs time linear in
N and never forms a 2^N state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .calibration import calibrated_gate_params
from .dynamics import (
    NOISELESS,
    _PAULI_BASIS,
    IntegratorConfig,
    NoiseModel,
    _check_map_entries,
    _check_trace,
    _idle_superop,
    _pauli_vector,
    gate_superoperator,
)
from .hamiltonians import GateSpec, cnot_gate, ideal_gate_matrix, swap_gate
from .operators import fidelity_to_pure
from .pulses import PulseSchedule, schedule_sequence

TOPOLOGY_KINDS = ("line_1d", "square_2d")
GATE_ORDERS = ("cnot_first", "cnot_last")

PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)


@dataclass(frozen=True)
class ChainTopology:
    """A transport layout: a line of n sites or a two-row ladder."""

    kind: str
    n_qubits: int

    def __post_init__(self):
        if self.kind not in TOPOLOGY_KINDS:
            raise ValueError(f"unknown topology kind {self.kind!r}")
        if self.kind == "line_1d" and self.n_qubits < 2:
            raise ValueError("a line needs at least 2 qubits")
        if self.kind == "square_2d":
            if self.n_qubits < 4 or self.n_qubits % 2 != 0:
                raise ValueError("a two-row ladder needs an even qubit count >= 4")


@dataclass(frozen=True)
class TransportCircuit:
    topology: ChainTopology
    schedule: PulseSchedule = field(repr=False)

    @property
    def readout(self) -> tuple[int, int]:
        """The sites (N-1, N) that end up holding the pair."""
        n = self.topology.n_qubits
        return n - 1, n


def _shuttle_groups(topology: ChainTopology) -> list[list[tuple[int, int]]]:
    """SWAP pairs per slot that carry the pair from (1, 2) to (N-1, N)."""
    n = topology.n_qubits
    if topology.kind == "line_1d":
        groups = [[(k, k + 1)] for k in range(2, n)]
        groups += [[(k, k + 1)] for k in range(1, n - 1)]
        return groups
    return [
        [(2 * j - 1, 2 * j + 1), (2 * j, 2 * j + 2)]
        for j in range(1, n // 2)
    ]


def build_transport_circuit(
    topology: ChainTopology, order: str = "cnot_first"
) -> TransportCircuit:
    """Assemble the pulse schedule for one transport run, in unit slots.

    The gates take the calibrated bank (:func:`calibrated_gate_params`),
    whose per-gate error is small enough not to show at the 1e-6 level
    even on the longest circuits here.
    """
    if order not in GATE_ORDERS:
        raise ValueError(f"unknown gate order {order!r}")

    n = topology.n_qubits
    entangler_pair = (1, 2) if order == "cnot_first" else (n - 1, n)
    local, coupling = calibrated_gate_params("cnot")
    entangler = cnot_gate(*entangler_pair, local_params=local, coupling_params=coupling)
    (swap_params,) = calibrated_gate_params("swap")
    shuttle = [
        [swap_gate(a, b, params=swap_params) for a, b in group]
        for group in _shuttle_groups(topology)
    ]

    if order == "cnot_first":
        grouped = [entangler] + shuttle
    else:
        grouped = shuttle + [entangler]
    return TransportCircuit(topology=topology, schedule=schedule_sequence(grouped))


# ---------------------------------------------------------------------------
# Transport from product inputs: contraction along the chain (see the
# module docstring)

FRONTIER_MAX_ENTRIES = 4**11  # 32 MiB of float64


def _check_frontier(entries: int):
    if entries > FRONTIER_MAX_ENTRIES:
        raise ValueError(
            f"the contraction frontier would hold {entries} entries, over the "
            f"limit of {FRONTIER_MAX_ENTRIES}"
        )


def evolve_lindblad_product(
    site_states,
    schedule: PulseSchedule,
    noise: NoiseModel,
    keep,
    cfg: IntegratorConfig | None = None,
) -> np.ndarray:
    """The state of the sites ``keep`` (1-based, in that order) after
    running ``schedule`` on the product of the 2x2 ``site_states``.

    Equal to integrating the master equation on the Kronecker product of
    the inputs and taking a partial trace, but contracted site by site
    (see the module docstring). A frontier over ``FRONTIER_MAX_ENTRIES``
    entries, or a site state that is not Hermitian, raises ``ValueError``.
    A gate map with an entry above 1, which no CPTP map has, raises
    ``TraceDriftError`` where it is read
    (:func:`spinchain.dynamics._check_map_entries`): an unstable step grid
    shows there, while it may keep every trace exact. The result's trace
    and trace norm are checked too, never renormalised.
    """
    states = [np.asarray(s, dtype=complex) for s in site_states]
    n = len(states)
    keep = tuple(int(s) for s in keep)
    if len(set(keep)) != len(keep) or any(not 1 <= s <= n for s in keep):
        raise ValueError("keep must list distinct sites of the chain")
    for state in states:
        if state.shape != (2, 2):
            raise ValueError("site states must be 2x2 density matrices")
        _check_trace(np.trace(state), "in the initial state")
        if not np.max(np.abs(state - state.conj().T)) <= 1e-12:
            raise ValueError("site states must be Hermitian")
    vectors = _pauli_vector(np.array(states).reshape(n, 2, 2))
    tau = schedule.slot_duration

    # Blocks: gates on one pair that no other gate on either site separates
    # compose into one tensor, so a pair's repeated gates cost no more
    # frontier legs than one. Each block is [qubits, first slot, last slot,
    # tensor].
    blocks: list[list] = []
    events: list[list[int]] = [[] for _ in range(n + 1)]  # site -> its blocks
    for entry in sorted(schedule.entries, key=lambda e: e.slot):
        spec: GateSpec = entry.gate
        if max(spec.qubits) > n:
            raise ValueError("gate addresses a qubit outside the chain")
        g = gate_superoperator(spec, noise, tau, cfg)
        _check_map_entries(g, f"the {spec.kind} slot map")
        # legs (out_a, out_b, in_a, in_b), one Pauli index per site
        g = g.reshape(4, 4, 4, 4)
        a, b = spec.qubits
        if events[a] and events[b] and events[a][-1] == events[b][-1]:
            block = blocks[events[a][-1]]
            if block[0] != spec.qubits:
                g = g.transpose(1, 0, 3, 2)
            m = _idle_superop(noise, (entry.slot - block[2] - 1) * tau)
            block[3] = np.einsum("abcd,ce,df,efgh->abgh", g, m, m, block[3])
            block[2] = entry.slot
        else:
            events[a].append(len(blocks))
            events[b].append(len(blocks))
            blocks.append([spec.qubits, entry.slot, entry.slot, g])

    # One axis per open leg, labelled: "wire" (the site being absorbed),
    # ("in"|"out", block index, site) for a block whose second site is
    # still to come, and ("keep", site) for a readout site. A site's wire
    # stays a loose vector until it meets the frontier.
    frontier = np.ones(())
    legs: list = []
    loose = None

    def join():
        nonlocal frontier, loose
        _check_frontier(4 * frontier.size)
        frontier = np.multiply.outer(frontier, loose)
        legs.append("wire")
        loose = None

    def idle(slots: int):
        nonlocal frontier, loose
        if not slots or noise.kind == "none":
            return
        m = _idle_superop(noise, slots * tau)
        if loose is not None:
            loose = m @ loose
        else:
            wire = legs.index("wire")
            frontier = np.tensordot(frontier, m, axes=([wire], [1]))
            legs.append(legs.pop(wire))

    for site in range(1, n + 1):
        loose = vectors[site - 1]
        slot = 0
        for index in events[site]:
            qubits, first, last, tensor = blocks[index]
            idle(first - slot)
            slot = last + 1
            if site == min(qubits):  # the block joins the frontier
                if loose is not None:
                    join()
                own = qubits.index(site)
                wire = legs.index("wire")
                legs.remove("wire")
                _check_frontier(16 * frontier.size)
                frontier = np.tensordot(frontier, tensor, axes=([wire], [2 + own]))
                legs += [("out", index, q) for q in qubits] + [("in", index, qubits[1 - own])]
            else:  # the wire closes the block's input leg on this site
                leg = legs.index(("in", index, site))
                if loose is not None:
                    frontier = np.tensordot(frontier, loose, axes=([leg], [0]))
                    loose = None
                else:
                    wire = legs.index("wire")
                    frontier = np.trace(frontier, axis1=wire, axis2=leg)
                    legs.remove("wire")
                legs.remove(("in", index, site))
            legs[legs.index(("out", index, site))] = "wire"
        idle(schedule.num_slots - slot)
        if loose is not None:  # no gate touched the site
            join()
        wire = legs.index("wire")
        if site in keep:
            legs[wire] = ("keep", site)
        else:
            frontier = np.take(frontier, 0, axis=wire)
            legs.remove("wire")

    w = len(keep)
    t = frontier.transpose([legs.index(("keep", site)) for site in keep])
    _check_trace(t[(0,) * w], "in the final state")
    # rho = sum_a t_a (P_a1 kron ... kron P_aw) / 2^w, a (row, column) per leg
    for _ in range(w):
        t = np.tensordot(t, _PAULI_BASIS / 2.0, axes=([0], [0]))
    t = t.transpose(list(range(0, 2 * w, 2)) + list(range(1, 2 * w, 2)))
    rho = np.ascontiguousarray(t).reshape(2**w, 2**w)
    _check_trace(np.sum(np.abs(np.linalg.eigvalsh(rho))), "in trace norm in the final state")
    return rho


def _as_qubit_vector(state) -> np.ndarray:
    vec = np.asarray(state, dtype=complex).reshape(-1)
    if vec.shape != (2,):
        raise ValueError("single-qubit states must have length 2")
    norm = np.linalg.norm(vec)
    if abs(norm - 1.0) > 1e-10:
        raise ValueError("single-qubit states must be normalised")
    return vec


def _input_sites(topology: ChainTopology, payload) -> list:
    """Per-site input vectors [|+>, payload, |0>, ..., |0>]."""
    ground = np.array([1.0, 0.0], dtype=complex)
    n_ground = topology.n_qubits - 2
    return [PLUS, _as_qubit_vector(payload)] + [ground] * n_ground


def ideal_pair_output(payload) -> np.ndarray:
    """CNOT applied to the logical input pair (the readout target)."""
    return ideal_gate_matrix("cnot") @ np.kron(PLUS, _as_qubit_vector(payload))


def transport_reduced_state(
    circuit: TransportCircuit,
    payload,
    noise: NoiseModel = NOISELESS,
    cfg: IntegratorConfig | None = None,
) -> np.ndarray:
    """Density matrix of the last two sites after running the circuit,
    contracted along the chain (see the module docstring)."""
    vectors = _input_sites(circuit.topology, payload)
    sites = [np.outer(v, v.conj()) for v in vectors]
    return evolve_lindblad_product(sites, circuit.schedule, noise, circuit.readout, cfg)


def transport_fidelity(
    circuit: TransportCircuit,
    payload,
    noise: NoiseModel = NOISELESS,
    cfg: IntegratorConfig | None = None,
) -> float:
    """Fidelity of the transported pair against the ideal CNOT output."""
    reduced = transport_reduced_state(circuit, payload, noise, cfg)
    return fidelity_to_pure(reduced, ideal_pair_output(payload))


# Payload basis whose pure-state projectors span all single-qubit density
# matrices; used to reconstruct whole fidelity maps from four evolutions.
_MAP_BASIS = (
    np.array([1.0, 0.0], dtype=complex),
    np.array([0.0, 1.0], dtype=complex),
    np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0),
    np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2.0),
)


@dataclass(frozen=True)
class FidelityMap:
    """Gate-order comparison over a (theta, phi) grid of payload states."""

    thetas: np.ndarray
    phis: np.ndarray
    fidelity_cnot_first: np.ndarray
    fidelity_cnot_last: np.ndarray

    @property
    def delta(self) -> np.ndarray:
        return self.fidelity_cnot_first - self.fidelity_cnot_last


def default_map_grid(n_theta: int = 64, n_phi: int = 64):
    thetas = np.linspace(0.0, np.pi, n_theta)
    phis = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False)
    return thetas, phis


def fidelity_difference_map(
    topology: ChainTopology | None = None,
    noise: NoiseModel = NOISELESS,
    thetas=None,
    phis=None,
    cfg: IntegratorConfig | None = None,
) -> FidelityMap:
    """F_cnot_first and F_cnot_last for every payload state on the grid.

    The evolution is linear in the input density matrix and the grid
    states only vary on the payload site, so the map evolves the four
    basis projectors once per gate order and reconstructs every grid
    point exactly from those — same numbers as evolving each point,
    thousands of times cheaper.
    """
    if topology is None:
        topology = ChainTopology("square_2d", 4)
    if thetas is None or phis is None:
        default_thetas, default_phis = default_map_grid()
        thetas = default_thetas if thetas is None else thetas
        phis = default_phis if phis is None else phis
    thetas = np.asarray(thetas, dtype=float)
    phis = np.asarray(phis, dtype=float)
    if thetas.size == 0 or phis.size == 0:
        raise ValueError("theta and phi grids must be nonempty")

    circuits = {order: build_transport_circuit(topology, order) for order in GATE_ORDERS}

    theta_grid, phi_grid = np.meshgrid(thetas, phis, indexing="ij")
    payload = np.stack(
        [
            np.sin(theta_grid / 2.0) * np.ones_like(phi_grid),
            np.exp(1j * phi_grid) * np.cos(theta_grid / 2.0),
        ],
        axis=-1,
    )  # (n_theta, n_phi, 2)
    pair_in = np.einsum("c,...p->...cp", PLUS, payload).reshape(
        theta_grid.shape + (4,)
    )
    targets = np.einsum("ab,...b->...a", ideal_gate_matrix("cnot"), pair_in)

    basis = _pauli_vector(np.array([np.outer(b, b.conj()) for b in _MAP_BASIS]))
    projectors = np.einsum("...a,...b->...ab", payload, payload.conj())
    coefficients = _pauli_vector(projectors) @ np.linalg.inv(basis)
    results = {}
    for order, circuit in circuits.items():
        reduced_basis = np.stack(
            [
                transport_reduced_state(circuit, b, noise=noise, cfg=cfg)
                for b in _MAP_BASIS
            ]
        )
        reduced = np.einsum("...k,kab->...ab", coefficients, reduced_basis)
        fid = np.einsum("...a,...ab,...b->...", targets.conj(), reduced, targets)
        results[order] = np.ascontiguousarray(fid.real)

    return FidelityMap(
        thetas=thetas,
        phis=phis,
        fidelity_cnot_first=results["cnot_first"],
        fidelity_cnot_last=results["cnot_last"],
    )


def _sign_changes(d: np.ndarray, x: np.ndarray):
    """Each sign change of a row of ``d`` between grid points ``x[i]`` and
    ``x[i + 1]``, in row-major order: its row and its linearly
    interpolated x. A product that underflows to zero is no change."""
    rows, i = np.nonzero(d[:, :-1] * d[:, 1:] < 0.0)
    d0, d1 = d[rows, i], d[rows, i + 1]
    return rows, x[i] + d0 / (d0 - d1) * (x[i + 1] - x[i])


def zero_contour(fmap: FidelityMap) -> np.ndarray:
    """Points (phi, theta) where the fidelity difference crosses zero.

    Scans grid edges in both directions and linearly interpolates each
    sign change; an exact zero is a point along theta. Points come back
    sorted by (phi, theta).
    """
    delta, thetas, phis = fmap.delta, fmap.thetas, fmap.phis
    j, i = np.nonzero(delta.T == 0.0)
    along_theta, theta = _sign_changes(delta.T, thetas)
    along_phi, phi = _sign_changes(delta, phis)
    phi = np.concatenate([phis[j], phis[along_theta], phi])
    theta = np.concatenate([thetas[i], theta, thetas[along_phi]])
    order = np.lexsort((theta, phi))
    return np.column_stack([phi[order], theta[order]])


def fit_cos_two_phi(contour: np.ndarray):
    """Least-squares theta(phi) = a*cos(2*phi) + b over contour points.

    Returns (a, b, rms_residual). Needs at least two points.
    """
    if contour.shape[0] < 2:
        raise ValueError("contour has too few points to fit")
    phi = contour[:, 0]
    theta = contour[:, 1]
    design = np.stack([np.cos(2.0 * phi), np.ones_like(phi)], axis=1)
    coeffs, _, _, _ = np.linalg.lstsq(design, theta, rcond=None)
    a, b = float(coeffs[0]), float(coeffs[1])
    residual = float(np.sqrt(np.mean((theta - design @ coeffs) ** 2)))
    return a, b, residual
