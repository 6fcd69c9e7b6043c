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
product input (:func:`spinchain.dynamics.evolve_lindblad_product`). On
both layouts the contraction frontier peaks at 1024 entries whatever the
length, so a run costs time linear in N and never forms a 2^N state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .calibration import calibrated_gate_params
from .dynamics import (
    NOISELESS,
    IntegratorConfig,
    NoiseModel,
    evolve_lindblad_product,
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
class ParamState:
    """Payload qubit state sin(theta/2)|0> + exp(i*phi) cos(theta/2)|1>."""

    theta: float
    phi: float

    def __post_init__(self):
        if not 0.0 <= self.theta <= np.pi:
            raise ValueError("theta must lie in [0, pi]")
        if not 0.0 <= self.phi <= 2.0 * np.pi:
            raise ValueError("phi must lie in [0, 2*pi]")

    def vector(self) -> np.ndarray:
        return np.array(
            [
                np.sin(self.theta / 2.0),
                np.exp(1j * self.phi) * np.cos(self.theta / 2.0),
            ],
            dtype=complex,
        )


@dataclass(frozen=True)
class TransportCircuit:
    topology: ChainTopology
    order: str
    gates: tuple[GateSpec, ...]
    schedule: PulseSchedule = field(repr=False)

    @property
    def num_slots(self) -> int:
        return self.schedule.num_slots

    @property
    def swap_count(self) -> int:
        return sum(1 for g in self.gates if g.kind == "swap")

    @property
    def readout(self) -> tuple[int, int]:
        """The sites (N-1, N) that end up holding the pair."""
        n = self.topology.n_qubits
        return n - 1, n


def _resolve_gate_params(gate_params) -> dict:
    if gate_params is None:
        return {
            "swap": calibrated_gate_params("swap"),
            "cnot": calibrated_gate_params("cnot"),
        }
    resolved = {}
    for kind, n_pairs in (("swap", 1), ("cnot", 2)):
        if kind not in gate_params:
            raise ValueError(f"gate_params is missing {kind!r}")
        pairs = tuple((float(a), float(w)) for a, w in gate_params[kind])
        if len(pairs) != n_pairs:
            raise ValueError(f"{kind} takes {n_pairs} (amplitude, width) pair(s)")
        resolved[kind] = pairs
    return resolved


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
    topology: ChainTopology,
    order: str = "cnot_first",
    slot_duration: float = 1.0,
    gate_params=None,
) -> TransportCircuit:
    """Assemble the gate sequence and pulse schedule for one transport run.

    ``gate_params`` maps ``"swap"``/``"cnot"`` to (amplitude, width) pairs;
    by default the internally calibrated values are used, whose per-gate
    error is small enough not to show at the 1e-6 level even on the
    longest circuits here.
    """
    if order not in GATE_ORDERS:
        raise ValueError(f"unknown gate order {order!r}")
    params = _resolve_gate_params(gate_params)

    n = topology.n_qubits
    entangler_pair = (1, 2) if order == "cnot_first" else (n - 1, n)
    entangler = cnot_gate(
        *entangler_pair,
        local_params=params["cnot"][0],
        coupling_params=params["cnot"][1],
    )
    shuttle = [
        [swap_gate(a, b, params=params["swap"][0]) for a, b in group]
        for group in _shuttle_groups(topology)
    ]

    if order == "cnot_first":
        grouped = [entangler] + shuttle
    else:
        grouped = shuttle + [entangler]

    schedule = schedule_sequence(grouped, slot_duration=slot_duration)
    gates = []
    for item in grouped:
        if isinstance(item, list):
            gates.extend(item)
        else:
            gates.append(item)
    return TransportCircuit(
        topology=topology,
        order=order,
        gates=tuple(gates),
        schedule=schedule,
    )


def _as_qubit_vector(state) -> np.ndarray:
    if isinstance(state, ParamState):
        return state.vector()
    vec = np.asarray(state, dtype=complex).reshape(-1)
    if vec.shape != (2,):
        raise ValueError("single-qubit states must have length 2")
    norm = np.linalg.norm(vec)
    if abs(norm - 1.0) > 1e-10:
        raise ValueError("single-qubit states must be normalised")
    return vec


def _input_sites(topology: ChainTopology, payload, control=None) -> list:
    """Per-site input vectors [control, payload, |0>, ..., |0>]."""
    control_vec = PLUS if control is None else _as_qubit_vector(control)
    ground = np.array([1.0, 0.0], dtype=complex)
    n_ground = topology.n_qubits - 2
    return [control_vec, _as_qubit_vector(payload)] + [ground] * n_ground


def ideal_pair_output(payload, control=None) -> np.ndarray:
    """CNOT applied to the logical input pair (the readout target)."""
    control_vec = PLUS if control is None else _as_qubit_vector(control)
    payload_vec = _as_qubit_vector(payload)
    return ideal_gate_matrix("cnot") @ np.kron(control_vec, payload_vec)


def transport_reduced_state(
    circuit: TransportCircuit,
    payload,
    control=None,
    noise: NoiseModel = NOISELESS,
    cfg: IntegratorConfig | None = None,
) -> np.ndarray:
    """Density matrix of the last two sites after running the circuit,
    contracted along the chain (see the module docstring)."""
    vectors = _input_sites(circuit.topology, payload, control)
    sites = [np.outer(v, v.conj()) for v in vectors]
    return evolve_lindblad_product(sites, circuit.schedule, noise, circuit.readout, cfg)


def transport_fidelity(
    circuit: TransportCircuit,
    payload,
    control=None,
    noise: NoiseModel = NOISELESS,
    cfg: IntegratorConfig | None = None,
) -> float:
    """Fidelity of the transported pair against the ideal CNOT output."""
    reduced = transport_reduced_state(circuit, payload, control, noise, cfg)
    return fidelity_to_pure(reduced, ideal_pair_output(payload, control))


# Payload basis whose pure-state projectors span all single-qubit density
# matrices; used to reconstruct whole fidelity maps from four evolutions.
_MAP_BASIS = (
    np.array([1.0, 0.0], dtype=complex),
    np.array([0.0, 1.0], dtype=complex),
    np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0),
    np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2.0),
)


def _map_basis_matrix() -> np.ndarray:
    cols = [np.outer(b, b.conj()).reshape(-1) for b in _MAP_BASIS]
    return np.linalg.inv(np.stack(cols, axis=1))


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
    gate_params=None,
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

    circuits = {
        order: build_transport_circuit(topology, order, gate_params=gate_params)
        for order in GATE_ORDERS
    }

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

    basis_inverse = _map_basis_matrix()
    projectors = np.einsum("...a,...b->...ab", payload, payload.conj()).reshape(
        theta_grid.shape + (4,)
    )
    coefficients = np.einsum("kv,...v->...k", basis_inverse, projectors)
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


def zero_contour(fmap: FidelityMap) -> np.ndarray:
    """Points (phi, theta) where the fidelity difference crosses zero.

    Scans grid edges in both directions and linearly interpolates each
    sign change; points come back sorted by (phi, theta).
    """
    delta = fmap.delta
    thetas, phis = fmap.thetas, fmap.phis
    points = []
    for j in range(phis.size):
        col = delta[:, j]
        for i in range(thetas.size - 1):
            d0, d1 = col[i], col[i + 1]
            if d0 == 0.0:
                points.append((phis[j], thetas[i]))
            elif d0 * d1 < 0.0:
                frac = d0 / (d0 - d1)
                points.append((phis[j], thetas[i] + frac * (thetas[i + 1] - thetas[i])))
        if col[-1] == 0.0:
            points.append((phis[j], thetas[-1]))
    for i in range(thetas.size):
        row = delta[i, :]
        for j in range(phis.size - 1):
            d0, d1 = row[j], row[j + 1]
            if d0 * d1 < 0.0:
                frac = d0 / (d0 - d1)
                points.append((phis[j] + frac * (phis[j + 1] - phis[j]), thetas[i]))
    if not points:
        return np.zeros((0, 2))
    out = np.array(sorted(points), dtype=float)
    return out


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
